#!/usr/bin/env python3
"""Characters and Fourier analysis on the two ambient groups.

Walks through field arithmetic in F_9, additive characters on Z_M and
F_q^n, the fast transform against the definitional O(N^2) sum, Parseval,
and exact integer convolution.
"""

import numpy as np

from addlab import CyclicCtx, Dfn, FieldCtx, VectorCtx, convolve, fourier, inverse_fourier
from addlab.functions import character_matrix

# ---------------------------------------------------------------- F_9 basics
F9 = FieldCtx(3, 2)  # F_3[y]/(y^2 + 1)
y = F9.parse_element("0,1")
print("F_9 = F_3[y]/(y^2+1)")
print("  y * y =", F9.format_element(F9.mul(y, y)), "(= -1)")
print("  Tr(1) =", F9.trace(1), "  Tr(y) =", F9.trace(y))

# every nonzero element has an inverse
checks = all(F9.mul(a, F9.inv(a)) == 1 for a in range(1, 9))
print("  all inverses check:", checks)

# ------------------------------------------------------------- characters
Z8 = CyclicCtx(8)
print("\ncharacter tables")
print("  Z_8:  chi(2, 2) =", Z8.character(2, 2))
V = VectorCtx(FieldCtx(3, 1), 2)
print("  F_3^2: chi((1,0), (1,0)) =", V.character(1, 1))

# orthogonality: sum over the group vanishes unless the frequency is 0
for ctx in (Z8, V, VectorCtx(F9, 1)):
    idx = ctx.elements()
    sums = [abs(complex(np.sum(ctx.character(idx, np.int64(xi))))) for xi in range(3)]
    print(f"  {ctx!r}: |sum chi| for xi=0,1,2 ->", [round(s, 10) for s in sums])

# ------------------------------------------------- fast vs direct transform
print("\nfast transform vs direct character sum")
rng = np.random.default_rng(0)
for ctx in (CyclicCtx(60), CyclicCtx(241), VectorCtx(FieldCtx(3, 1), 4),
            VectorCtx(F9, 2)):
    h = Dfn(ctx, rng.normal(size=ctx.N) + 1j * rng.normal(size=ctx.N))
    fast = fourier(h).values
    direct = h.values.astype(complex) @ character_matrix(ctx)
    err = np.abs(fast - direct).max() / np.abs(direct).max()
    round_trip = np.abs(inverse_fourier(fourier(h)).values - h.values).max()
    phys = (np.abs(h.values) ** 2).sum()
    dual = (np.abs(fast) ** 2).mean()
    print(f"  {ctx!r}: rel_err={err:.2e} roundtrip={round_trip:.2e} "
          f"parseval_gap={abs(phys - dual) / phys:.2e}")

# ------------------------------------------------------ exact convolution
print("\ninteger convolution stays integer")
h = Dfn.indicator(Z8, [0, 1])
print("  1_{0,1} * 1_{0,1} on Z_8:", convolve(h, h).values.tolist())
A = Dfn.indicator(V, [0, 1, 4])
negA = Dfn.indicator(V, V.neg(np.array([0, 1, 4])))
r = convolve(A, negA)
print("  difference counts in F_3^2:", r.values.tolist(), "(dtype", r.values.dtype, ")")
