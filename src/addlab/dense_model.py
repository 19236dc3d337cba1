"""Dense models: smooth a sparse grid-free set into a bounded-moment weight.

The model is f = N^{1/s} * 1_A * mu_B with B a Bohr set (cyclic model of the
integers) or f = N^{1/s} * 1_A * mu_H with H the annihilator of the span of
the large spectrum (vector spaces).  N^{1/s} is irrational in general, so
every property with an exact integer form is also checked on the
rescaled integer object 1_A * 1_smoother, where everything is an integer or
a rational and the assertions carry no tolerance at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from functools import reduce
from itertools import product
from operator import and_

import numpy as np

from .energy import vanishing_eta
from .functions import Dfn, convolve, fourier
from .groups import CyclicCtx, VectorCtx
from .report import VerificationReport
from .sets import SetA, rep_tuple, require_kst_free
from .spectral import BohrSet, Subspace, annihilator, bohr_set, span, spectrum
from .util import as_fraction, indices_to_mask, spawn_rng

TRIVIAL_SMOOTHER_FLAG = "trivial smoother (|B|=1): g = 0"
# the tuple identity is checked on at most this many tuples with |S_h| > 0
_IDENTITY_CHECKS = 20_000
# every tuple is enumerated when |H|^s is at most this, a seeded sample otherwise
_TUPLE_BUDGET = 250_000

__all__ = [
    "DenseModel",
    "build_dense_model",
    "verify_model_properties",
    "verify_smoothing_decomposition",
]


@dataclass
class DenseModel:
    f: Dfn
    mode: str                       # 'integer_model' | 'finite_field'
    smoother: object                # BohrSet | Subspace
    s: int
    t: int
    eps: Fraction
    A: SetA
    n_model: int
    scale: float                    # N^{1/s}
    smoother_size: int
    integer_f: Dfn                  # 1_A * 1_smoother, exact integers
    spec: object
    diagnostics: dict = dc_field(default_factory=dict)


def build_dense_model(
    A: SetA,
    s: int,
    t: int,
    eps,
    n_model: int | None = None,
    check_free: bool = True,
) -> DenseModel:
    """Smooth 1_A by the Bohr set / annihilator built from its large spectrum.

    The context sets the mode: a Bohr set on Z_M ('integer_model'), an
    annihilator on F_q^n ('finite_field').  check_free=False skips the
    grid-freeness precondition; the construction is well-defined for any set
    (used e.g. for the subspace fixed-point sanity check), but the moment
    property is only meaningful on free sets.
    """
    eps = as_fraction(eps)
    ctx = A.ctx
    mode = "integer_model" if isinstance(ctx, CyclicCtx) else "finite_field"
    n = n_model or A.model_n or ctx.N
    if mode == "integer_model":
        # the smoothed support window [-eps N, (1+eps) N] must embed
        # without wraparound
        min_M = n + 2 * int(eps * n) + 1
        if ctx.M < min_M:
            ctx = CyclicCtx(min_M)
            A = A.with_ctx(ctx)
    if check_free:
        require_kst_free(A, s, t)
    spec = spectrum(A, eps)
    if mode == "integer_model":
        smoother = bohr_set(spec, eps, n)
        smoother_ind = smoother.indicator()
        size = len(smoother)
    else:
        V = span(ctx, spec.frequencies)
        smoother = annihilator(V)
        smoother_ind = smoother.indicator()
        size = smoother.size
    integer_f = convolve(A.indicator(), smoother_ind)
    scale = float(n) ** (1.0 / s)
    f = Dfn(ctx, integer_f.values.astype(np.float64) * (scale / size))
    hat_gap = np.abs(f.hat() - scale * A.indicator().hat())
    model = DenseModel(
        f=f,
        mode=mode,
        smoother=smoother,
        s=s,
        t=t,
        eps=eps,
        A=A,
        n_model=n,
        scale=scale,
        smoother_size=size,
        integer_f=integer_f,
        spec=spec,
    )
    model.diagnostics = {
        "mass": float(f.values.sum()),
        "fourier_gap": float(hat_gap.max()),
        "ls_norm": float((f.values**s).sum()),
        "smoother_size": size,
        "spectrum_size": len(spec),
    }
    if size == 1:
        model.diagnostics["flags"] = [TRIVIAL_SMOOTHER_FLAG]
    return model


def verify_model_properties(model: DenseModel):
    """Properties of the dense model: mass, Fourier gap, moment bound.

    (i) mass is exact on the integer object; (ii) the gap bound carries
    explicit constants (exact spectral split in the finite-field case, the
    2*pi*eps smoother factor in the integer case); (iii) the moment bound
    is asserted with exact integers and the exact eta from the vanishing
    excess.
    """
    A, s, t, eps = model.A, model.s, model.t, model.eps
    ctx = A.ctx
    n = model.n_model
    m = len(A)
    size = model.smoother_size
    rep = VerificationReport(
        lemma="dense_model_properties",
        inputs={
            "set": A.provenance,
            "mode": model.mode,
            "s": s,
            "t": t,
            "eps": eps,
            "N": n,
            "smoother_size": size,
        },
        quantities=dict(model.diagnostics),
    )
    rep.flags = list(rep.quantities.pop("flags", []))
    int_vals = model.integer_f.values
    rep.check("nonnegative", int(int_vals.min()) >= 0, "==", True, exact=True)

    if model.mode == "integer_model":
        # support must stay inside the padded window [-eps N, (1+eps) N];
        # residues above hi_A + w can only be wrapped negatives
        sup = model.integer_f.support()
        if len(sup):
            w = int(eps * n)
            lo_a = int(A.indices.min())
            hi_a = int(A.indices.max())
            signed = np.where(sup > hi_a + w, sup - ctx.M, sup)
            rep.check(
                "support_window",
                bool(signed.min() >= lo_a - w and signed.max() <= hi_a + w),
                "==",
                True,
                exact=True,
            )

    # (i) mass: sum (1_A * 1_B) = |A| |B| exactly; float form to 1e-10
    rep.check("mass_exact", int(int_vals.sum()), "==", m * size, exact=True)
    rep.check(
        "mass_float",
        abs(model.diagnostics["mass"] - model.scale * m),
        "<=",
        1e-10 * max(1.0, model.scale * m),
    )

    # fourier factorization: hat f = scale * hat 1_A * hat mu (rel 1e-9)
    hat_f = model.f.hat()
    hat_A = A.indicator().hat()
    mu_hat = model.smoother.indicator().hat() / size
    hat_pred = model.scale * hat_A * mu_hat
    rep.check(
        "fourier_factorization",
        float(np.abs(hat_f - hat_pred).max()),
        "<=",
        1e-9 * max(1.0, float(np.abs(hat_f).max())),
    )

    # (ii) the Fourier gap
    mags = np.abs(hat_A)
    gap = np.abs(hat_f - model.scale * hat_A)
    thr = float(eps) * m
    if model.mode == "finite_field":
        V = span(ctx, model.spec.frequencies)
        on_V = np.zeros(ctx.N, dtype=bool)
        on_V[V.element_indices()] = True
        off_gap = float(gap[~on_V].max()) if (~on_V).any() else 0.0
        rep.quantities["off_span_gap"] = off_gap
        rep.check("projector_vanishing",
                  float(np.abs(hat_f[~on_V]).max()) if (~on_V).any() else 0.0,
                  "<=", 1e-8 * ctx.N)
        rep.check("off_span_spectrum", float(mags[~on_V].max()) if (~on_V).any() else 0.0,
                  "<=", thr, tol=1e-12)
        rep.check("gap_bound", float(gap.max()), "<=",
                  float(eps) * model.scale * m, tol=1e-9)
    else:
        in_spec = np.zeros(ctx.N, dtype=bool)
        in_spec[model.spec.frequencies] = True
        off_gap = float(gap[~in_spec].max()) if (~in_spec).any() else 0.0
        rep.check("off_spectrum_gap", off_gap, "<=",
                  2.0 * float(eps) * model.scale * m, tol=1e-9)
        on_factor = (
            float(np.abs(1 - mu_hat[in_spec]).max()) if in_spec.any() else 0.0
        )
        rep.quantities["smoother_on_spec_factor"] = on_factor
        rep.check("smoother_factor", on_factor, "<=",
                  2.0 * np.pi * float(eps), tol=1e-9)
        rep.measured_ratios["gap_over_epsN"] = float(gap.max()) / (float(eps) * n)

    # (iii) moment bound on the rescaled integer object, exact rationals
    S = sum(int(v) ** s for v in int_vals[int_vals > 0])
    eta = vanishing_eta(A, s, t)
    rep.quantities["S"] = S
    rep.quantities["eta"] = eta
    bound = Fraction(t) * size**s + Fraction(eta, t) * m**s * size
    rep.check("moment_bound_exact", Fraction(S), "<=", bound, exact=True)
    # the float form sum f^s <= N (t + excess), with the asymptotic factor
    # reported as a ratio only
    excess = float(eta / t) * m**s / size ** (s - 1)
    rep.measured_ratios["moment_fill"] = model.diagnostics["ls_norm"] / (
        n * (t + excess)
    )
    rep.measured_ratios["ls_norm_over_N"] = model.diagnostics["ls_norm"] / n
    return rep


def verify_smoothing_decomposition(A: SetA, s: int, t: int, H: Subspace):
    """The S = sum_x (1_A * 1_H)^s decomposition, tuple level included.

    Asserts the aggregate chain S <= t|H|^s + (eta/t)|A|^s|H| exactly and the
    tuple identity r_A(a(x)) = |S_h| - 1 against an independently computed
    r_A (exhaustively when the tuple count is small, on a seeded sample
    otherwise; the sampling is flagged).
    """
    ctx = A.ctx
    if not isinstance(ctx, VectorCtx):
        raise ValueError("the decomposition runs in the vector-space model")
    require_kst_free(A, s, t)
    h_ind = H.indicator()
    conv = convolve(A.indicator(), h_ind)
    S = sum(int(v) ** s for v in conv.values[conv.values > 0])
    size = H.size
    m = len(A)
    eta = vanishing_eta(A, s, t)
    rep = VerificationReport(
        lemma="smoothing_decomposition",
        inputs={"set": A.provenance, "s": s, "t": t, "|H|": size, "|A|": m},
        quantities={"S": S, "eta": eta},
    )
    rep.check(
        "aggregate_chain",
        Fraction(S),
        "<=",
        Fraction(t) * size**s + Fraction(eta, t) * m**s * size,
        exact=True,
    )

    h_elems = H.element_indices()
    tuple_count = size**s
    exhaustive = tuple_count <= _TUPLE_BUDGET
    if exhaustive:
        rows = product(range(size), repeat=s)
    else:
        rows = spawn_rng(0, 0x5DEC).integers(0, size, size=(5000, s))
        rep.flags.append(
            f"|H|^s = {tuple_count} tuples: identity verified on a seeded sample"
        )
    # bit x of the h-th mask is set iff x - h lies in A
    translate_masks = [
        indices_to_mask(np.asarray(ctx.add(A.indices, int(h))), ctx.N) for h in h_elems
    ]

    checked = 0
    identity_ok = True
    recon_S = 0
    excess_lhs = 0   # sum over tuples of (|S_h| - t)_+
    excess_rhs = 0   # sum over tuples of |S_h| (|S_h| - t)_+
    for row in rows:
        mask = reduce(and_, [translate_masks[j] for j in row])
        sz = mask.bit_count()
        if exhaustive:
            recon_S += sz
            if sz > t:
                excess_lhs += sz - t
                excess_rhs += sz * (sz - t)
        if sz and checked < _IDENTITY_CHECKS:
            x = (mask & -mask).bit_length() - 1
            checked += 1
            if rep_tuple(A, ctx.sub(x, h_elems[list(row)])) != sz - 1:
                identity_ok = False
    rep.quantities["identity_checks"] = checked
    rep.check("tuple_identity", identity_ok, "==", True, exact=True)
    if exhaustive:
        rep.check("tuple_sum_matches_S", recon_S, "==", S, exact=True)
        rep.check("excess_linearization", t * excess_lhs, "<=", excess_rhs, exact=True)
        rep.check(
            "excess_grouped_bound",
            Fraction(excess_rhs),
            "<=",
            Fraction(eta * m**s * size),
            exact=True,
        )
        rep.check(
            "S_split",
            Fraction(S),
            "<=",
            Fraction(t) * size**s + Fraction(excess_lhs),
            exact=True,
        )
    return rep
