#!/usr/bin/env python3
"""Dense models: smoothing a sparse grid-free set into a bounded weight.

f = N^{1/s} 1_A * mu_B keeps the total mass and the large Fourier
coefficients of the rescaled indicator while gaining an L^s bound.  The
irrational N^{1/s} never enters an assertion: properties are checked on
the all-integer object 1_A * 1_smoother.
"""

import numpy as np

from addlab import (
    FieldCtx,
    VectorCtx,
    build_dense_model,
    erdos_turan_sidon,
    greedy_kst_free,
    verify_model_properties,
    verify_smoothing_decomposition,
)

# -------------------------------------------------------- integer model
print("integer model on Sidon sets")
for p, eps in ((5, "1/4"), (7, "1/8"), (11, "1/6")):
    A = erdos_turan_sidon(p)
    model = build_dense_model(A, 2, 2, eps)
    rep = verify_model_properties(model)
    d = rep.quantities
    print(f"  p={p} eps={eps}: |B|={model.smoother_size} mass={d['mass']:.1f} "
          f"gap={d['fourier_gap']:.2f} sum f^s / N = "
          f"{d['ls_norm'] / model.A.model_n:.2f}  -> {rep.summary()}")

# ------------------------------------------------------ finite-field model
print("\nfinite-field model in F_3^4 and F_3^5")
for n, st, eps in ((4, (2, 2), "1/2"), (5, (2, 2), "1/2"), (4, (2, 3), "1/4")):
    ctx = VectorCtx(FieldCtx(3, 1), n)
    s, t = st
    A = greedy_kst_free(s, t, ctx.N, seed=n + s + t, ctx=ctx)
    model = build_dense_model(A, s, t, eps)
    rep = verify_model_properties(model)
    d = rep.quantities
    print(f"  F_3^{n} (s,t)={st} eps={eps}: |Spec|={d['spectrum_size']} "
          f"|H|={model.smoother_size} gap={d['fourier_gap']:.2f} "
          f"sum f^s / N = {d['ls_norm'] / ctx.N:.2f}  -> {rep.summary()}")

# the moment bound in its exact integer form
ctx = VectorCtx(FieldCtx(3, 1), 5)
A = greedy_kst_free(2, 2, ctx.N, seed=9, ctx=ctx)
model = build_dense_model(A, 2, 2, "1/2")
S = int((model.integer_f.values.astype(object) ** 2).sum())
print(f"\nrescaled integer object for F_3^5: S = sum (1_A*1_H)^2 = {S}, "
      f"t|H|^2 = {2 * model.smoother_size**2}")

# tuple-level decomposition of S, identity checked against independent reps
dec = verify_smoothing_decomposition(A, 2, 2, model.smoother)
print("  decomposition:", dec.summary(),
      f"(identity spot checks: {dec.quantities['identity_checks']})")

# ---------------------------------------------- what the smoothing does
f = model.f.values
print(f"\nvalue histogram of f (scale N^(1/2) = {model.scale:.1f}):")
vals, counts = np.unique(np.round(f, 6), return_counts=True)
for v, c in list(zip(vals, counts))[:6]:
    print(f"  f = {v:8.3f}  at {c} points")
