"""Dense models: smooth a sparse grid-free set into a bounded-moment weight.

The model is f = N^{1/s} * 1_A * mu_B with B a Bohr set (cyclic model of the
integers) or f = N^{1/s} * 1_A * mu_H with H the annihilator of the span of
the large spectrum (vector spaces).  N^{1/s} is irrational in general, so
every property with an exact integer form is also checked on the
rescaled integer object 1_A * 1_smoother, where everything is an integer or
a rational and the assertions carry no tolerance at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .energy import power_sum, vanishing_eta
from .functions import Dfn, _real_pair_hats, convolve
from .groups import CyclicCtx, VectorCtx
from .report import VerificationReport
from .sets import SetA, rep_tuples, require_kst_free
from .spectral import Subspace, annihilator, bohr_set, span, spectrum
from .util import as_fraction, spawn_rng

TRIVIAL_SMOOTHER_FLAG = "trivial smoother (|B|=1): g = 0"
# the tuple identity is checked on at most this many tuples with |S_h| > 0
_IDENTITY_CHECKS = 20_000
# every tuple is enumerated when |H|^s is at most this, a seeded sample otherwise
_TUPLE_BUDGET = 250_000
# tuples per block of the smoothing decomposition's tuple pass, to bound its
# (rows, N) boolean temporaries
_TUPLE_ROWS = 256

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
    scale: float                    # N^{1/s}
    smoother_size: int
    integer_f: Dfn                  # 1_A * 1_smoother, exact integers
    spec: object
    V: Subspace | None              # span of the spectrum, finite_field only


def build_dense_model(A: SetA, s: int, t: int, eps) -> DenseModel:
    """Smooth 1_A by the Bohr set / annihilator built from its large spectrum.

    The context sets the mode: a Bohr set on Z_M ('integer_model'), an
    annihilator H = V^perp of the spectrum's span V on F_q^n
    ('finite_field').  The integer object 1_A * 1_smoother is an exact
    convolution on Z_M, and on F_q^n the coset count |A ∩ (x + H)|
    (`Subspace.coset_counts`), with no transform; the model carries V.
    A must be K_{s,t}-free (FreenessError otherwise): the moment property
    is only meaningful there.
    """
    eps = as_fraction(eps)
    ctx = A.ctx
    mode = "integer_model" if isinstance(ctx, CyclicCtx) else "finite_field"
    n = A.model_n
    if mode == "integer_model":
        # the smoothed support window [-eps N, (1+eps) N] must embed
        # without wraparound
        min_M = n + 2 * int(eps * n) + 1
        if ctx.M < min_M:
            ctx = CyclicCtx(min_M)
            A = A.with_ctx(ctx)
    require_kst_free(A, s, t)
    spec = spectrum(A, eps)
    if mode == "integer_model":
        V = None
        smoother = bohr_set(spec, eps, n)
        integer_f = convolve(A.indicator(), smoother.indicator())
    else:
        V = span(ctx, spec.frequencies)
        smoother = annihilator(V)
        integer_f = Dfn(ctx, V.coset_counts(A.indices))
    size = len(smoother)
    scale = float(n) ** (1.0 / s)
    f = Dfn(ctx, integer_f.values.astype(np.float64) * (scale / size))
    return DenseModel(
        f=f,
        mode=mode,
        smoother=smoother,
        s=s,
        t=t,
        eps=eps,
        A=A,
        scale=scale,
        smoother_size=size,
        integer_f=integer_f,
        spec=spec,
        V=V,
    )


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
    n = A.model_n
    m = len(A)
    size = model.smoother_size
    # f and the smoother are real: one complex transform gives both
    smoother = model.smoother.indicator()
    _real_pair_hats(model.f, smoother)
    hat_f = model.f.hat()
    hat_A = A.indicator().hat()
    # the residuals hat f - scale hat 1_A mu_hat and scale hat 1_A - hat f,
    # formed in two buffers; each has the bits of its expression
    scaled_A = hat_A * model.scale
    residual = smoother.hat() / size
    np.multiply(scaled_A, residual, out=residual)
    np.subtract(hat_f, residual, out=residual)
    factorization = float(np.abs(residual).max())
    del residual
    scaled_A -= hat_f
    gap = np.abs(scaled_A)
    del scaled_A
    mass = float(model.f.values.sum())
    ls_norm = float((model.f.values**s).sum())
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
        quantities={
            "mass": mass,
            "fourier_gap": float(gap.max()),
            "ls_norm": ls_norm,
            "smoother_size": size,
            "spectrum_size": len(model.spec),
        },
    )
    if size == 1:
        rep.flags.append(TRIVIAL_SMOOTHER_FLAG)
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
        abs(mass - model.scale * m),
        "<=",
        1e-10 * max(1.0, model.scale * m),
    )

    # fourier factorization: hat f = scale * hat 1_A * hat mu (rel 1e-9)
    rep.check(
        "fourier_factorization",
        factorization,
        "<=",
        1e-9 * max(1.0, float(np.abs(hat_f).max())),
    )

    # (ii) the Fourier gap
    thr = float(eps) * m
    if model.mode == "finite_field":
        on_V = np.zeros(ctx.N, dtype=bool)
        on_V[model.V.element_indices()] = True
        off_gap = float(gap[~on_V].max()) if (~on_V).any() else 0.0
        rep.quantities["off_span_gap"] = off_gap
        rep.check("projector_vanishing",
                  float(np.abs(hat_f[~on_V]).max()) if (~on_V).any() else 0.0,
                  "<=", 1e-8 * ctx.N)
        rep.check("off_span_spectrum",
                  float(np.abs(hat_A[~on_V]).max()) if (~on_V).any() else 0.0,
                  "<=", thr, tol=1e-12)
        rep.check("gap_bound", float(gap.max()), "<=",
                  float(eps) * model.scale * m, tol=1e-9)
    else:
        in_spec = np.zeros(ctx.N, dtype=bool)
        in_spec[model.spec.frequencies] = True
        off_gap = float(gap[~in_spec].max()) if (~in_spec).any() else 0.0
        rep.check("off_spectrum_gap", off_gap, "<=",
                  2.0 * float(eps) * model.scale * m, tol=1e-9)
        mu_on_spec = smoother.hat()[in_spec] / size
        on_factor = float(np.abs(1 - mu_on_spec).max()) if in_spec.any() else 0.0
        rep.quantities["smoother_on_spec_factor"] = on_factor
        rep.check("smoother_factor", on_factor, "<=",
                  2.0 * np.pi * float(eps), tol=1e-9)
        rep.measured_ratios["gap_over_epsN"] = float(gap.max()) / (float(eps) * n)

    # (iii) moment bound on the rescaled integer object, exact rationals
    S = power_sum(int_vals, s)
    eta = vanishing_eta(A, s, t)
    rep.quantities["S"] = S
    rep.quantities["eta"] = eta
    bound = Fraction(t) * size**s + Fraction(eta, t) * m**s * size
    rep.check("moment_bound_exact", Fraction(S), "<=", bound, exact=True)
    # the float form sum f^s <= N (t + excess), with the asymptotic factor
    # reported as a ratio only
    excess = float(eta / t) * m**s / size ** (s - 1)
    rep.measured_ratios["moment_fill"] = ls_norm / (n * (t + excess))
    rep.measured_ratios["ls_norm_over_N"] = ls_norm / n
    return rep


def verify_smoothing_decomposition(A: SetA, s: int, t: int, H: Subspace):
    """The S = sum_x (1_A * 1_H)^s decomposition, tuple level included.

    Asserts the aggregate chain S <= t|H|^s + (eta/t)|A|^s|H| exactly and the
    tuple identity r_A(a(x)) = |S_h| - 1 against an independently computed
    r_A (exhaustively when the tuple count is small, on a seeded sample
    otherwise; the sampling is flagged).  The tuples are taken in
    itertools.product order (or sample order), `_TUPLE_ROWS` at a time: each
    S_h is the AND of s rows of a boolean (|H|, N) matrix of translates of A,
    its size a count and its lowest x an argmax.  The pass only collects the
    checked tuples; r_A of all of them is one batched evaluation of the
    rep_tuple definition (`sets.rep_tuples`, in blocks of rows), computed
    from A alone and not from the translates it checks.
    """
    ctx = A.ctx
    if not isinstance(ctx, VectorCtx):
        raise ValueError("the decomposition runs in the vector-space model")
    require_kst_free(A, s, t)
    h_ind = H.indicator()
    conv = convolve(A.indicator(), h_ind)
    S = power_sum(conv.values, s)
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
        row_count = tuple_count
        # row r of itertools.product(range(|H|), repeat=s): the base-|H|
        # digits of r, most significant first
        place = size ** np.arange(s - 1, -1, -1, dtype=np.int64)
    else:
        sample = spawn_rng(0, 0x5DEC).integers(0, size, size=(5000, s))
        row_count = len(sample)
        rep.flags.append(
            f"|H|^s = {tuple_count} tuples: identity verified on a seeded sample"
        )
    # row j holds the x with x - h_j in A, i.e. A + h_j
    translates = np.zeros((size, ctx.N), dtype=bool)
    translates[np.arange(size)[:, None], ctx.add(h_elems[:, None], A.indices)] = True

    # x, the tuple row and |S_h| of each tuple whose identity is checked
    xs, checked_rows, sizes = [], [], []
    checked = 0
    recon_S = 0
    excess_lhs = 0   # sum over tuples of (|S_h| - t)_+
    excess_rhs = 0   # sum over tuples of |S_h| (|S_h| - t)_+
    for lo in range(0, row_count, _TUPLE_ROWS):
        if exhaustive:
            flat = np.arange(lo, min(lo + _TUPLE_ROWS, row_count), dtype=np.int64)
            rows = flat[:, None] // place % size
        else:
            rows = sample[lo : lo + _TUPLE_ROWS]
        # S_h of each row: the AND of its s translates
        common = translates[rows[:, 0]]
        for col in rows[:, 1:].T:
            common &= translates[col]
        sz = np.count_nonzero(common, axis=1)
        if exhaustive:
            recon_S += int(sz.sum())
            over = sz[sz > t]
            excess_lhs += int((over - t).sum())
            excess_rhs += int((over * (over - t)).sum())
        hits = np.flatnonzero(sz)[: _IDENTITY_CHECKS - checked]
        if len(hits):
            # the lowest x of each S_h
            xs.append(common[hits].argmax(axis=1))
            checked_rows.append(rows[hits])
            sizes.append(sz[hits])
            checked += len(hits)
    # with no tuple to check the identity holds vacuously
    identity_ok = not checked or np.array_equal(
        rep_tuples(A, ctx.sub(np.concatenate(xs)[:, None],
                              h_elems[np.concatenate(checked_rows)])),
        np.concatenate(sizes) - 1,
    )
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
