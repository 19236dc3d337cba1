"""The counting functional T and the transference machinery built on it.

T(h_1, ..., h_k) sums prod h_i(x_i) over solutions of a_1 x_1 + ... + a_k x_k = 0.
Two independent evaluation routes are kept throughout: nested enumeration over
supports ("brute") and dual-side evaluation (1/N) sum_xi prod hat(h_j)(a_j xi)
("fourier"); indicator counting additionally has an exact integer convolution
route used wherever an assertion needs exactness.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field as dc_field

import numpy as np

from .functions import (
    _INT64_LIMIT, Dfn, _abs_sum_max, convolve, dual_value_at_zero, fourier_mean_norm,
)
from .functions import exact_convolve as _int_convolve
from .groups import CyclicCtx, GroupCtx, VectorCtx
from .report import VerificationReport
from .sets import SetA, require_kst_free
from .util import as_fraction, signed_residue

__all__ = [
    "EquationSpec",
    "CountResult",
    "PaddingError",
    "padded_modulus",
    "count_T",
    "count_equation_solutions",
    "count_all_distinct",
    "trivial_solution_value",
    "verify_counting_lemma",
    "verify_telescoping",
    "level_set_extract",
    "count_k_cycles",
    "verify_supersaturation",
    "run_transference_pipeline",
    "PipelineReport",
]


class PaddingError(ValueError):
    """Cyclic modulus too small for Z-faithful counting."""

    def __init__(self, msg, minimal_modulus=None):
        super().__init__(msg)
        self.minimal_modulus = minimal_modulus


@dataclass(frozen=True)
class EquationSpec:
    """Translation-invariant equation sum a_i x_i = 0 with sum a_i = 0.

    char = 0 validates over Z (cyclic model); char = p validates mod p.
    """

    coeffs: tuple
    char: int = 0

    def __init__(self, coeffs, char: int = 0):
        coeffs = tuple(int(c) for c in coeffs)
        if len(coeffs) < 3:
            raise ValueError("need at least 3 variables")
        if any(c == 0 for c in coeffs):
            raise ValueError("all coefficients must be nonzero")
        if char == 0:
            if sum(coeffs) != 0:
                raise ValueError("coefficients must sum to 0 over Z")
        else:
            if any(c % char == 0 for c in coeffs):
                raise ValueError(f"coefficient divisible by the characteristic {char}")
            if sum(coeffs) % char != 0:
                raise ValueError(f"coefficients must sum to 0 mod {char}")
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "char", char)

    @property
    def k(self) -> int:
        return len(self.coeffs)

    def weight(self) -> int:
        return sum(abs(c) for c in self.coeffs)

    def validate_for(self, ctx: GroupCtx):
        if isinstance(ctx, VectorCtx):
            p = ctx.field.p
            if any(c % p == 0 for c in self.coeffs):
                raise ValueError(f"coefficient vanishes mod {p}")
            if sum(self.coeffs) % p != 0:
                raise ValueError(f"coefficients do not sum to 0 mod {p}")
        else:
            if self.char != 0 and sum(self.coeffs) != 0:
                raise ValueError("equation is not translation invariant over Z")

    def __str__(self):
        return ",".join(str(c) for c in self.coeffs)


def padded_modulus(eq: EquationSpec, n_model: int, radius: int | None = None) -> int:
    """Smallest M > (sum |a_i|) * radius with gcd(a_i, M) = 1 for every i.

    Coprimality keeps xi -> a_i xi bijective on Z_M (needed by the dual-side
    Hoelder chain) and lets the brute counter solve the last variable by
    modular inverse.
    """
    if radius is None:
        radius = n_model
    M = eq.weight() * radius + 1
    while any(math.gcd(abs(c), M) != 1 for c in eq.coeffs):
        M += 1
    return M


def _signed_support_radius(h: Dfn) -> int:
    sup = h.support()
    if len(sup) == 0:
        return 0
    signed = np.asarray(signed_residue(sup, h.ctx.N))
    return int(np.max(np.abs(signed)))


def assert_z_faithful(eq: EquationSpec, hs):
    """Check the cyclic modulus is large enough that the count is a Z-count.

    count_T itself is a group-level functional (brute and fourier always
    agree on Z_M); this check matters when the supports model subsets of Z
    and the count is claimed to be the integer-solution count.
    """
    ctx = hs[0].ctx
    if not isinstance(ctx, CyclicCtx):
        return
    total = sum(
        abs(a) * _signed_support_radius(h) for a, h in zip(eq.coeffs, hs)
    )
    if total >= ctx.M:
        raise PaddingError(
            f"modulus {ctx.M} too small: solutions can wrap; need M > {total}",
            minimal_modulus=total + 1,
        )


def _is_invertible(ctx, c: int) -> bool:
    if isinstance(ctx, CyclicCtx):
        return math.gcd(abs(c), ctx.M) == 1
    return c % ctx.field.p != 0


def _solve_last(ctx, c: int, rhs):
    """x with c*x = rhs; only called when c is invertible in the scalar ring."""
    if isinstance(ctx, CyclicCtx):
        inv = pow(c % ctx.M, -1, ctx.M)
        return (inv * np.asarray(rhs, dtype=np.int64)) % ctx.M
    inv = pow(c % ctx.field.p, -1, ctx.field.p)
    return np.asarray(ctx.scale_int(inv, rhs))


@dataclass
class CountResult:
    total: object
    trivial: object
    method: str


def _brute_total(ctx, coeffs, values):
    k = len(coeffs)
    supports = [np.nonzero(v)[0] for v in values]
    if any(len(s) == 0 for s in supports):
        return 0
    invertible = [i for i in range(k) if _is_invertible(ctx, coeffs[i])]
    solve = max(invertible, key=lambda i: len(supports[i])) if invertible else None
    enum_idx = sorted(
        (i for i in range(k) if i != solve), key=lambda i: len(supports[i])
    )
    total = 0
    last = enum_idx[-1]

    def rec(depth, partial, weight):
        nonlocal total
        if depth == len(enum_idx) - 1:
            xs = supports[last]
            r = np.asarray(ctx.add(partial, ctx.scale_int(coeffs[last], xs)))
            if solve is None:
                hit = r == 0
                if hit.any():
                    total = total + weight * values[last][xs[hit]].sum()
            else:
                xsol = _solve_last(ctx, coeffs[solve], ctx.neg(r))
                total = total + weight * (values[last][xs] * values[solve][xsol]).sum()
            return
        i = enum_idx[depth]
        for x in supports[i]:
            w = weight * values[i][x]
            if w == 0:
                continue
            rec(depth + 1, ctx.add(partial, ctx.scale_int(coeffs[i], int(x))), w)

    rec(0, 0, 1)
    return total


def _exact_ints(values: list) -> list:
    """Integer arrays as they are while prod_i sum|v_i| stays below 2^63,
    else as arrays of Python ints.  That product bounds every partial sum and
    product of a count over them, so no count wraps."""
    if math.prod(_abs_sum_max(v)[0] for v in values) < _INT64_LIMIT:
        return values
    return [v.astype(object) for v in values]


def count_T(eq: EquationSpec, hs: list, method: str = "fourier") -> CountResult:
    """The counting functional over k functions sharing a context.

    For integer-dtype inputs `total` (brute) and `trivial` are exact Python
    ints.  Whether the count is Z-faithful on a cyclic model is
    `assert_z_faithful`'s question, not this one's.
    """
    if len(hs) != eq.k:
        raise ValueError(f"expected {eq.k} functions, got {len(hs)}")
    ctx = hs[0].ctx
    if any(h.ctx != ctx for h in hs):
        raise ValueError("group context mismatch")
    eq.validate_for(ctx)
    values = [h.values for h in hs]
    if all(np.issubdtype(v.dtype, np.integer) for v in values):
        values = _exact_ints(values)
    trivial_total = functools.reduce(operator.mul, values).sum()
    if method == "brute":
        total = _brute_total(ctx, eq.coeffs, values)
        if isinstance(total, (int, np.integer)):
            total = int(total)
            trivial_total = int(trivial_total)
        return CountResult(total=total, trivial=trivial_total, method="brute")
    if method != "fourier":
        raise ValueError(f"unknown method {method!r}")
    idx = ctx.elements()
    dilated = {a: np.asarray(ctx.scale_int(a, idx)) for a in set(eq.coeffs) - {1}}
    dilated[1] = idx
    prod = np.ones(ctx.N, dtype=np.complex128)
    for a, h in zip(eq.coeffs, hs):
        prod *= h.hat()[dilated[a]]
    total = prod.sum() / ctx.N
    if all(h.tag == "real" for h in hs):
        total = float(total.real)
    integer_inputs = all(h.is_integer_valued() for h in hs)
    if integer_inputs:
        rounded = round(float(np.real(total)))
        if abs(total - rounded) < 1e-6 * max(1.0, abs(rounded)):
            total = rounded
        trivial_total = int(trivial_total)
    return CountResult(total=total, trivial=trivial_total, method="fourier")


def _pushforward_counts(ctx, indices, coeff: int) -> np.ndarray:
    """g(y) = #{x in the set : coeff * x = y}, exact integers."""
    scaled = np.asarray(ctx.scale_int(coeff, np.asarray(indices, dtype=np.int64)))
    return np.bincount(scaled, minlength=ctx.N).astype(np.int64, copy=False)


def _convolution_value_at_zero(ctx, arrays) -> int:
    """(g_1 * ... * g_m)(0), exact integers; pairs the sparsest arrays first
    and finishes with an inner product in Python ints instead of a last
    convolution, so a total past 2^63 stays exact."""
    arrays = [np.asarray(g, dtype=np.int64) for g in arrays]
    if len(arrays) == 1:
        return int(arrays[0][0])
    while len(arrays) > 2:
        arrays.sort(key=np.count_nonzero)
        arrays.append(_int_convolve(ctx, arrays.pop(0), arrays.pop(0)))
    a, b = arrays
    sup = np.flatnonzero(a)
    return sum(map(operator.mul, a[sup].tolist(), b[ctx.neg(sup)].tolist()))


def count_equation_solutions(eq: EquationSpec, A: SetA, check_padding: bool = True) -> int:
    """Exact integer count of solutions in A^k via pushforward convolutions."""
    ctx = A.ctx
    eq.validate_for(ctx)
    if check_padding:
        assert_z_faithful(eq, [A.indicator()] * eq.k)
    gs = [_pushforward_counts(ctx, A.indices, a) for a in eq.coeffs]
    return _convolution_value_at_zero(ctx, gs)


def _pushforward_convolution(ctx, indices, key: tuple, memo: dict) -> np.ndarray:
    """Convolution of the pushforward counts of `indices` under each
    coefficient in `key`, built from the halves of `key` and memoized so that
    keys share partial sums; single pushforwards are cheaper to recompute."""
    if len(key) == 1:
        return _pushforward_counts(ctx, indices, key[0])
    if key not in memo:
        h = len(key) // 2
        memo[key] = _int_convolve(
            ctx,
            _pushforward_convolution(ctx, indices, key[:h], memo),
            _pushforward_convolution(ctx, indices, key[h:], memo),
        )
    return memo[key]


def _set_partitions(items):
    """Every set partition of `items`, each a list of blocks (lists)."""
    parts = [[]]
    for x in items:
        parts = [p[:j] + [p[j] + [x]] + p[j + 1:] for p in parts for j in range(len(p))] + [
            p + [[x]] for p in parts
        ]
    return parts


def _solution_counts(eq: EquationSpec, A: SetA) -> tuple[int, int]:
    """(solutions in A^k, solutions with pairwise distinct coordinates)."""
    ctx, m = A.ctx, len(A)
    modulus = ctx.M if isinstance(ctx, CyclicCtx) else ctx.field.p
    weights: dict = {}  # sorted nonzero block sums, up to sign -> Moebius weight
    for blocks in _set_partitions(eq.coeffs):
        sums = sorted(c for c in (signed_residue(sum(B), modulus) for B in blocks) if c)
        key = min(tuple(sums), tuple(sorted(-c for c in sums)))
        mu = math.prod((-1) ** (len(B) - 1) * math.factorial(len(B) - 1) for B in blocks)
        weights[key] = weights.get(key, 0) + mu * m ** (len(blocks) - len(key))
        if len(blocks) == eq.k:
            finest, scale = key, m ** (eq.k - len(key))
    memo: dict = {}
    values = {(): 1}
    for key in weights.keys() - values.keys():
        h = len(key) // 2
        halves = (key[:h], key[h:]) if h else (key,)
        values[key] = _convolution_value_at_zero(
            ctx, [_pushforward_convolution(ctx, A.indices, x, memo) for x in halves])
    return values[finest] * scale, sum(w * values[key] for key, w in weights.items())


def count_all_distinct(eq: EquationSpec, A: SetA) -> int:
    """Solutions in A^k with all coordinates pairwise distinct, exactly.

    Moebius inversion on the lattice of set partitions of the k variables
    (Rota, "On the foundations of combinatorial theory I", 1964):
    #distinct = sum_pi mu(0, pi) N_pi with mu(0, pi) = prod_B (-1)^{|B|-1} (|B|-1)!,
    where N_pi counts the solutions constant on the blocks of pi.  N_pi is the
    value at 0 of the convolution of the pushforward counts of A under the
    block sums c_B; a block with c_B = 0 in the scalar ring (Z_M, or F_p for
    F_q^n) contributes the factor |A| instead.  Partitions with the same
    block sums up to sign share one count, and all counts share partial
    convolutions.
    """
    return _solution_counts(eq, A)[1]


def _find_nontrivial_solution(eq: EquationSpec, A: SetA):
    """First nontrivial solution tuple in A^k, or None."""
    ctx = A.ctx
    sup = [int(a) for a in A.indices]
    coeffs = eq.coeffs

    def rec(depth, partial, prefix):
        if depth == eq.k - 1:
            if not _is_invertible(ctx, coeffs[-1]):
                for x in sup:
                    if ctx.add(partial, ctx.scale_int(coeffs[-1], x)) == 0:
                        tup = prefix + (x,)
                        if len(set(tup)) > 1:
                            return tup
                return None
            xsol = int(_solve_last(ctx, coeffs[-1], ctx.neg(partial)))
            if xsol in A:
                tup = prefix + (xsol,)
                if len(set(tup)) > 1:
                    return tup
            return None
        for x in sup:
            got = rec(
                depth + 1, ctx.add(partial, ctx.scale_int(coeffs[depth], x)), prefix + (x,)
            )
            if got:
                return got
        return None

    return rec(0, 0, ())


def trivial_solution_value(
    eq: EquationSpec, A: SetA, s: int, n_model: int | None = None,
    scaled: Dfn | None = None, exact: int | None = None,
):
    """N^{k/s} |A| for an equation-free set; checked against the scaled count.

    A caller that holds the scaled indicator N^{1/s} 1_A already passes it
    as `scaled`, so that it is transformed once, and one that holds
    count_equation_solutions(eq, A) passes it as `exact`.
    """
    n = n_model or A.model_n or A.ctx.N
    if exact is None:
        exact = count_equation_solutions(eq, A)
    if exact != len(A):
        witness = _find_nontrivial_solution(eq, A)
        raise ValueError(f"set has a nontrivial solution: {witness}")
    value = float(n) ** (eq.k / s) * len(A)
    if scaled is None:
        scaled = Dfn(A.ctx, A.indicator().values * float(n) ** (1.0 / s))
    measured = count_T(eq, [scaled] * eq.k, method="fourier").total
    rep = VerificationReport(
        lemma="diagonal_count_value",
        inputs={"eq": str(eq), "set": A.provenance, "s": s, "N": n},
        quantities={"value": value, "measured": measured, "solutions": exact},
    )
    rep.check("diagonal_value", abs(measured - value), "<=", 1e-8 * max(1.0, value))
    return value, rep


# -- the Hoelder chain and telescoping ------------------------------------------------


def _dual_mean_norms(h: Dfn, k: int):
    sup = fourier_mean_norm(h, np.inf)
    mk = fourier_mean_norm(h, k - 1)
    m4 = fourier_mean_norm(h, 4)
    return sup, mk, m4


def pair_self_energy(h: Dfn) -> float:
    """E_2(h, h) = (1/N) sum |hat h|^4 (equals sum (h*h)^2 for real h)."""
    return float((np.abs(h.hat()) ** 4).mean())


def _physical_pair_energy(h: Dfn) -> float:
    """sum_x (h*h)(x)^2 by actual convolution: the physical side of E_2."""
    conv = convolve(h, h)
    return float((np.abs(conv.values) ** 2).sum())


def verify_counting_lemma(eq: EquationSpec, nu: Dfn, fs: list):
    """Every link of the dual-side Hoelder chain, numerically, no hidden constants.

    |T| <= min_i sup|hat f_i| * prod_{j != i} ||hat f_j||_{k-1}, and for each j
    ||hat f_j||_{k-1}^{k-1} <= sup^{k-5} * ||hat f_j||_4^4 with
    ||hat f_j||_4^4 = E_2(f_j, f_j) <= E_2(nu, nu).
    """
    k = eq.k
    if k < 5:
        raise ValueError("the chain needs k >= 5")
    if len(fs) != k:
        raise ValueError(f"expected {k} functions")
    ctx = nu.ctx
    if isinstance(ctx, CyclicCtx):
        bad = [a for a in eq.coeffs if math.gcd(abs(a), ctx.M) != 1]
        if bad:
            raise ValueError(
                f"coefficients {bad} not coprime to M={ctx.M}; dual dilations "
                "must be bijective for the chain (use the padded modulus)"
            )
    for j, f in enumerate(fs):
        gap = np.abs(f.values) - nu.values
        worst = int(np.argmax(gap))
        if gap[worst] > 1e-9 * max(1.0, float(np.abs(nu.values).max())):
            raise ValueError(f"|f_{j}| exceeds nu at x={worst} by {gap[worst]:.3g}")
    T = count_T(eq, fs, method="fourier").total
    T_abs = abs(T)
    # the pipeline passes one function in several slots: compute each once
    distinct = {id(f): f for f in fs}
    norms_of = {key: _dual_mean_norms(f, k) for key, f in distinct.items()}
    norms = [norms_of[id(f)] for f in fs]
    e2_nu = pair_self_energy(nu)
    rep = VerificationReport(
        lemma="counting_holder_chain",
        inputs={"eq": str(eq), "N": ctx.N, "k": k},
        quantities={
            "T": T,
            "sum_nu": float(nu.values.sum()),
            "E2_nu": e2_nu,
        },
    )
    bounds = []
    for i in range(k):
        b = norms[i][0] * math.prod(norms[j][1] for j in range(k) if j != i)
        bounds.append(b)
        rep.check(f"T_le_bound_{i}", T_abs, "<=", b, tol=1e-9)
    rep.quantities["min_bound"] = min(bounds)
    e2_nu_phys = _physical_pair_energy(nu)
    rep.quantities["E2_nu_physical"] = e2_nu_phys
    # the fourth moment really is the pair energy: dual mean vs the
    # physical convolution sum (real inputs)
    energy_of = {
        key: _physical_pair_energy(f) if f.tag == "real" else pair_self_energy(f)
        for key, f in distinct.items()
    }
    for j, f in enumerate(fs):
        sup, mk, m4 = norms[j]
        rep.check(
            f"moment_link_{j}", mk ** (k - 1), "<=", sup ** (k - 5) * m4**4, tol=1e-9
        )
        e2 = energy_of[id(f)]
        rep.check(f"fourth_moment_identity_{j}", abs(m4**4 - e2), "<=",
                  1e-9 * max(1.0, e2))
        rep.check(f"majorant_energy_{j}", e2, "<=", e2_nu_phys, tol=1e-9)
    rep.measured_ratios["T_over_min_bound"] = (
        T_abs / min(bounds) if min(bounds) else 0.0
    )
    return rep


def verify_telescoping(eq: EquationSpec, f: Dfn, F: Dfn, g: Dfn | None = None):
    """T(f) - T(F) = sum_i T(f..f, g, F..F) with g = f - F, then the chain bounds.

    The chain bounds need k >= 5 and coefficients invertible in the scalar
    ring, so that every dual dilation xi -> a_i xi is a bijection; otherwise
    they are skipped and the report says why.  A caller that holds g = f - F
    already passes it, so that g is built and transformed once.
    """
    if f.ctx != F.ctx:
        raise ValueError("group context mismatch")
    k = eq.k
    if g is None:
        g = f - F
    T_f = count_T(eq, [f] * k, method="fourier").total
    T_F = count_T(eq, [F] * k, method="fourier").total
    terms = []
    for i in range(k):
        slots = [f] * i + [g] + [F] * (k - 1 - i)
        terms.append(count_T(eq, slots, method="fourier").total)
    lhs = T_f - T_F
    rhs = sum(terms)
    scale = max(1.0, abs(T_f), abs(T_F))
    rep = VerificationReport(
        lemma="telescoping_transference",
        inputs={"eq": str(eq), "N": f.ctx.N, "k": k},
        quantities={
            "T_f": T_f,
            "T_F": T_F,
            "terms": [complex(t).real if not isinstance(t, (int, float)) else t
                      for t in terms],
            "g_hat_sup": fourier_mean_norm(g, np.inf),
        },
    )
    rep.check("telescoping_identity", abs(lhs - rhs), "<=", 1e-8 * scale)
    singular = [a for a in eq.coeffs if not _is_invertible(f.ctx, a)]
    if k < 5:
        rep.flags.append(f"chain bounds skipped: they need k >= 5, here k = {k}")
    elif singular:
        rep.flags.append(f"chain bounds skipped: coefficients {singular} are not "
                         f"invertible on {f.ctx.describe()}")
    else:
        g_sup = rep.quantities["g_hat_sup"]
        f_mk = fourier_mean_norm(f, k - 1)
        F_mk = fourier_mean_norm(F, k - 1)
        chain_bounds = []
        for i in range(k):
            b = g_sup * (f_mk**i) * (F_mk ** (k - 1 - i))
            chain_bounds.append(b)
            rep.check(f"term_bound_{i}", abs(terms[i]), "<=", b, tol=1e-9)
        rep.quantities["chain_bound_total"] = sum(chain_bounds)
        rep.check(
            "transfer_bound", abs(T_f - T_F), "<=", sum(chain_bounds), tol=1e-9
        )
    return rep


# -- level sets ------------------------------------------------------------------------


def level_set_extract(f: Dfn, delta, p, n: int | None = None):
    """A_0 = {x : f(x) >= delta/2} plus the level-set lower bounds.

    Asserts the Paley-Zygmund form |A_0| >= (delta/2)^{p/(p-1)} N whenever
    sum f^p <= N and the support fits in N points, and always asserts the
    support-corrected Hoelder form (exact consequence of the threshold split).
    """
    vals = f.values.astype(np.float64)
    if np.min(vals) < -1e-12:
        raise ValueError("f must be nonnegative")
    vals = np.maximum(vals, 0.0)
    delta = float(as_fraction(delta))
    if p < 2:
        raise ValueError("p must be >= 2")
    N = n if n is not None else f.ctx.N
    total = float(vals.sum())
    if total < delta * N * (1 - 1e-12):
        raise ValueError(f"sum f = {total} < delta*N = {delta * N}")
    p_sum = float((vals**p).sum())
    support = int(np.count_nonzero(vals))
    picks = np.nonzero(vals >= delta / 2)[0]
    A0 = SetA(f.ctx, picks, provenance={"construction": "level_set", "delta": delta})
    rep = VerificationReport(
        lemma="level_set_bound",
        inputs={"delta": delta, "p": p, "N": N},
        quantities={
            "size": len(A0),
            "sum_f": total,
            "sum_f_p": p_sum,
            "support": support,
        },
    )
    if p_sum <= N * (1 + 1e-12) and support <= N:
        pz = (delta / 2) ** (p / (p - 1)) * N
        rep.check("paley_zygmund", len(A0), ">=", pz, tol=1e-12)
        rep.measured_ratios["size_over_pz"] = len(A0) / pz if pz else float("inf")
    else:
        rep.flags.append("literal Paley-Zygmund hypotheses not met; "
                         "support-corrected bound only")
    C = max(1.0, p_sum / N)
    residual = delta * N - (delta / 2) * support
    if residual > 0:
        holder = residual ** (p / (p - 1)) / max(p_sum, 1e-300) ** (1 / (p - 1))
        rep.check("holder_level_bound", len(A0), ">=", holder, tol=1e-9)
        rep.quantities["holder_constant_C"] = C
    else:
        rep.flags.append("support too large for the corrected bound to bite")
    return A0, rep


# -- cycles and supersaturation -----------------------------------------------------

# the reported supersaturation curve is (density / 2k)^3
_SUPERSAT_EXPONENT = 3.0


def count_k_cycles(eq: EquationSpec, sets: list) -> CountResult:
    """Solutions of x_1 + ... + x_k = 0 in X_1 x ... x X_k, exact integers.

    Evaluated on the dual side, N^-1 sum_xi prod_i hat(1_{X_i})(xi) modulo
    primes, so it shares no partial convolution with the physical-side
    `count_equation_solutions`.
    """
    if len(sets) != eq.k:
        raise ValueError(f"expected {eq.k} sets")
    ctx = sets[0].ctx
    if not isinstance(ctx, VectorCtx):
        raise ValueError("cycle counting runs in the vector-space model")
    if any(a % ctx.field.p == 0 for a in eq.coeffs):
        raise ValueError("coefficients must be invertible mod p")
    common = functools.reduce(np.intersect1d, [X.indices for X in sets])
    diag = int(np.count_nonzero(np.asarray(ctx.scale_int(eq.k, common)) == 0))
    gs = [np.bincount(X.indices, minlength=ctx.N).astype(np.int64) for X in sets]
    return CountResult(total=dual_value_at_zero(ctx, gs), trivial=diag, method="dual")


def verify_supersaturation(eq: EquationSpec, A0: SetA):
    """Diagonal-cycle lower bound and the cycles <-> solutions bijection.

    X_i = a_i A_0; the |A_0| diagonal cycles (a_1 x, ..., a_k x) are pairwise
    distinct in every coordinate, so the cycle count is at least |A_0|; and
    y_i = a_i x_i identifies cycles with solutions of the equation in A_0^k.
    The cycles are counted on the dual side and the solutions by physical
    pushforward convolutions, so the bijection check compares two routes.
    The polynomial supersaturation ratio is reported, never asserted.
    """
    ctx = A0.ctx
    if not isinstance(ctx, VectorCtx):
        raise ValueError("supersaturation runs in the vector-space model")
    eq.validate_for(ctx)
    images = [np.asarray(ctx.scale_int(a, A0.indices)) for a in eq.coeffs]
    dilated = []
    for a, idx in zip(eq.coeffs, images):
        X = SetA(ctx, idx, provenance={"construction": "dilation", "a": a})
        if len(X) != len(A0):
            raise AssertionError("dilation by a unit must be injective")
        dilated.append(X)
    rep = VerificationReport(
        lemma="diagonal_cycle_supersaturation",
        inputs={"eq": str(eq), "N": ctx.N, "|A0|": len(A0)},
    )
    # (a) the diagonal family: one cycle per x, distinct in every coordinate
    per_coord_ok = all(len(np.unique(idx)) == len(A0) for idx in images)
    rep.check("diagonal_coordinates_distinct", per_coord_ok, "==", True, exact=True)
    acc = functools.reduce(ctx.add, images)
    sums_zero = not np.any(acc)
    rep.check("diagonal_tuples_are_cycles", sums_zero, "==", True, exact=True)
    cycles = count_k_cycles(eq, dilated)
    rep.quantities["cycle_count"] = cycles.total
    rep.check("cycles_ge_diagonal", cycles.total, ">=", len(A0), exact=True)
    # (b) bijection with equation solutions inside A_0^k
    solutions = count_equation_solutions(eq, A0)
    rep.quantities["solution_count"] = solutions
    rep.check("cycles_equal_solutions", cycles.total, "==", solutions, exact=True)
    # (c) ratio against the polynomial supersaturation curve, report only
    rho = len(A0) / ctx.N
    rep.quantities["density"] = rho
    denom = ctx.N ** (eq.k - 1)
    rep.measured_ratios["cycles_over_Nk1"] = cycles.total / denom
    if rho > 0:
        rep.measured_ratios["supersat_curve"] = (rho / (2 * eq.k)) ** _SUPERSAT_EXPONENT
    return rep


# -- the end-to-end pipeline ------------------------------------------------------------


@dataclass
class PipelineReport:
    inputs: dict
    sections: dict = dc_field(default_factory=dict)
    ledger: dict = dc_field(default_factory=dict)
    flags: list = dc_field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.sections.values())

    def summary(self) -> str:
        state = "pass" if self.passed else "FAIL"
        return f"[{state}] transference_pipeline: {len(self.sections)} sections"

    def as_report_dict(self) -> dict:
        return {
            "lemma": "transference_pipeline",
            "inputs": self.inputs,
            "sections": self.sections,
            "ledger": self.ledger,
            "flags": list(self.flags),
            "pass": self.passed,
        }


def run_transference_pipeline(
    A: SetA,
    eq: EquationSpec,
    s: int,
    t: int,
    eps,
) -> PipelineReport:
    """Build the dense model, measure every transference inequality, emit a ledger.

    Hard assertions are the exact inequality chains; the asymptotic
    comparison of the dense count against the diagonal value is reported as
    ratios only.
    """
    from . import dense_model as dm
    from .energy import (
        verify_energy_interpolation,
        verify_excess_vanishing,
        verify_kst_energy_bound,
        verify_size_bound,
    )

    eps = as_fraction(eps)
    ctx = A.ctx
    integer_mode = isinstance(ctx, CyclicCtx)
    n_model = A.model_n or ctx.N
    if integer_mode:
        # re-embed into a modulus that covers the smoothed support window
        width = int(eps * n_model)
        M_req = padded_modulus(eq, n_model, radius=n_model + width)
        if ctx.M < M_req or any(math.gcd(abs(a), ctx.M) != 1 for a in eq.coeffs):
            ctx = CyclicCtx(M_req)
            A = A.with_ctx(ctx)
    eq.validate_for(ctx)
    require_kst_free(A, s, t)
    report = PipelineReport(
        inputs={
            "set": A.provenance,
            "eq": str(eq),
            "s": s,
            "t": t,
            "eps": eps,
            "N": n_model,
            "modulus": ctx.N,
            "|A|": len(A),
        }
    )
    report.sections["energy_bound"] = verify_kst_energy_bound(A, s, t)
    report.sections["interpolation"] = verify_energy_interpolation(A, s)
    report.sections["vanishing"] = verify_excess_vanishing(A, s, t)
    report.sections["size_bound"] = verify_size_bound(A, s, t)
    # the exact counts run before the dense model exists, so that their
    # partial convolutions do not add to the model's arrays at peak memory
    assert_z_faithful(eq, [A.indicator()] * eq.k)
    exact_solutions, distinct = _solution_counts(eq, A)

    # the model is built on a copy of A, checked free above, and dropped once
    # f is taken from it: the transform of 1_A memoized on the copy serves
    # the spectrum, the model and its properties, then goes with the copy
    model = dm.build_dense_model(A.with_ctx(ctx), s, t, eps, n_model=n_model,
                                 check_free=False)
    report.sections["model_properties"] = dm.verify_model_properties(model)
    report.flags += model.diagnostics.get("flags", [])
    f, scale, smoother_size = model.f, model.scale, model.smoother_size
    del model

    F = Dfn(ctx, A.indicator().values * scale)
    if np.array_equal(F.values, f.values):
        # a one-point smoother: both are nonnegative products, so equal
        # values are equal bits, and f and its transform serve as F
        F = f
    g = f - F
    nu = f + F
    k = eq.k
    N = n_model

    tele = verify_telescoping(eq, f, F, g=g)
    report.sections["telescoping"] = tele
    chain = verify_counting_lemma(eq, nu, [g] + [F] * (k - 1))
    report.sections["holder_chain"] = chain

    T_f, T_F, g_sup = (tele.quantities[key] for key in ("T_f", "T_F", "g_hat_sup"))
    delta = len(A) / N ** (1 - 1 / s)
    report.ledger.update(
        {
            "delta": delta,
            "T_f": T_f,
            "T_F": T_F,
            "g_hat_sup": g_sup,
            "g_hat_sup_over_epsN": g_sup / (float(eps) * N),
            "T_f_over_Nk1": T_f / N ** (k - 1),
            "T_F_over_Nk1": T_F / N ** (k - 1),
            "diagonal_value": N ** (k / s) * len(A),
            "sum_nu": float(nu.values.sum()),
            "sum_nu_over_N": float(nu.values.sum()) / N,
            "E2_nu_over_N3": chain.quantities["E2_nu"] / N**3,
            "smoother_size": smoother_size,
        }
    )
    report.ledger["solutions_in_A"] = exact_solutions
    report.ledger["all_distinct_solutions"] = distinct
    if exact_solutions == len(A):
        _, diag_rep = trivial_solution_value(eq, A, s, n_model=N, scaled=F,
                                             exact=exact_solutions)
        report.sections["diagonal_value"] = diag_rep
    else:
        report.flags.append("set is not equation-free: T(F) exceeds the diagonal value")

    # level-set extraction on the dense model, inside its support window
    sum_f = float(f.values.sum())
    window = int(np.count_nonzero(f.values))
    n_level = max(N, window)
    delta_level = sum_f / n_level
    if delta_level > 0:
        A0, ls_rep = level_set_extract(f, delta_level, max(s, 2), n=n_level)
        report.sections["level_set"] = ls_rep
        report.ledger["level_set_size"] = len(A0)
        if isinstance(ctx, VectorCtx):
            report.sections["supersaturation"] = verify_supersaturation(eq, A0)
    return report
