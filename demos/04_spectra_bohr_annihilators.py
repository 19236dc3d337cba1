#!/usr/bin/env python3
"""Large spectra and the two smoothing geometries: Bohr sets and annihilators.

Over the integers (cyclic model) the frequencies with a large Fourier
coefficient define a Bohr set, cut out by exact rational torus conditions.
Over F_q^n the same role is played by the annihilator of the spectrum's
span, and convolution with its uniform measure is an exact Fourier
projector.
"""

import numpy as np

from addlab import (
    Dfn,
    FieldCtx,
    VectorCtx,
    annihilator,
    bohr_set,
    convolve,
    erdos_turan_sidon,
    greedy_kst_free,
    large_sieve_check,
    span,
    spectrum,
    uniform_measure,
    verify_spectrum_span_bound,
)

# ------------------------------------------------------------- spectra
A = erdos_turan_sidon(11)
print(f"spectrum sizes for the p=11 Sidon set (|A|={len(A)}, M={A.ctx.M})")
for eps in ("1/2", "1/3", "1/4", "1/8"):
    sp = spectrum(A, eps)
    print(f"  eps={eps}: |Spec| = {len(sp)}  top magnitudes "
          f"{[round(float(abs(v)), 2) for v in sp.values[:4]]}")

# ------------------------------------------------------------ Bohr sets
print("\nBohr sets B = {|n| <= eps N : ||n xi / M|| < eps on the spectrum}")
for eps in ("1/3", "1/4", "1/6", "1/8"):
    sp = spectrum(A, eps)
    B = bohr_set(sp, eps, A.model_n)
    inside = B.signed[np.argsort(np.abs(B.signed))][:7]
    print(f"  eps={eps}: |B| = {len(B)}  around zero: {inside.tolist()}")

# widening eps can only shrink the spectrum and grow the Bohr set
sizes = []
for eps in ("1/8", "1/6", "1/4", "1/3"):
    sp = spectrum(A, eps)
    sizes.append((eps, len(sp), len(bohr_set(sp, eps, A.model_n))))
print("  monotone ladder (eps, |Spec|, |B|):", sizes)

# ----------------------------------------------------- annihilators in F_3^4
ctx = VectorCtx(FieldCtx(3, 1), 4)
S = greedy_kst_free(2, 2, ctx.N, seed=2, ctx=ctx)
sp = spectrum(S, "1/2")
V = span(ctx, sp.frequencies)
H = annihilator(V)
print(f"\nF_3^4 set |A|={len(S)}: |Spec(1/2)| = {len(sp)}, dim V = {V.dim}, "
      f"dim H = {H.dim}, |H| = {H.size}")
print("  dim bound ledger:", verify_spectrum_span_bound(S, sp, V).summary())

# the exact projector: convolving with mu_H keeps exactly the V-frequencies
rng = np.random.default_rng(1)
g = Dfn(ctx, rng.normal(size=ctx.N))
proj = convolve(g, uniform_measure(H))
on_V = np.zeros(ctx.N, bool)
on_V[annihilator(H).element_indices()] = True
gap_on = np.abs(proj.hat() - g.hat())[on_V].max()
gap_off = np.abs(proj.hat())[~on_V].max() if (~on_V).any() else 0.0
print(f"  projector: |hat(g*mu_H) - hat(g)| on V = {gap_on:.2e}, "
      f"|hat(g*mu_H)| off V = {gap_off:.2e}")

# ------------------------------------------------------------ large sieve
print("\nlarge sieve at well-separated points")
pts = [f"{i}/8" for i in range(8)]
coeffs = np.exp(2j * np.pi * np.arange(1, 41) * 0.3)
rep = large_sieve_check(pts, "1/16", coeffs)
print(f"  8 points, delta=1/16: fill = {rep.measured_ratios['sieve_fill']:.3f} "
      f"({rep.summary()})")
