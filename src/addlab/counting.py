"""The counting functional T and the transference machinery built on it.

T(h_1, ..., h_k) sums prod h_i(x_i) over solutions of a_1 x_1 + ... + a_k x_k = 0.
Two independent evaluation routes are kept throughout: nested enumeration over
supports ("brute") and "fourier", which for integer-valued functions is the
exact integer convolution of their pushforwards under x -> a_j x, and for any
other ones the dual-side evaluation (1/N) sum_xi prod hat(h_j)(a_j xi).  One
rule picks the arithmetic of every count: when all its inputs are
integer-valued (`Dfn.is_integer_valued`, whatever their dtype) both routes
count in exact Python ints, and otherwise in unrounded floats.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field as dc_field
from itertools import combinations

import numpy as np

from . import dense_model as dm
from .energy import (
    moment_energy, verify_energy_interpolation, verify_excess_vanishing,
    verify_kst_energy_bound, verify_size_bound,
)
from .functions import (
    _INT64_LIMIT, Dfn, _abs_sum_max, _as_int64, _dual_domain, _dual_mean,
    _exact_product, _hat_magnitudes, _real_pair_convolutions, dual_value_at_zero,
    fourier_mean_norm,
)
# bound under this name for perfbench's tracer, which wraps it; the exact
# counts multiply sorted pairs through `_exact_product` instead
from .functions import exact_convolve as _int_convolve
from .groups import CyclicCtx, GroupCtx, VectorCtx
from .report import VerificationReport
from .sets import SetA, require_kst_free
from .util import as_fraction, signed_residue

__all__ = [
    "EquationSpec",
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
            if not all(_is_invertible(ctx, c) for c in self.coeffs):
                raise ValueError(f"coefficient vanishes mod {ctx.exponent}")
            if sum(self.coeffs) % ctx.exponent != 0:
                raise ValueError(f"coefficients do not sum to 0 mod {ctx.exponent}")
        elif self.char != 0 and sum(self.coeffs) != 0:
            raise ValueError("equation is not translation invariant over Z")

    def vanishing_subsum(self, ctx: GroupCtx) -> tuple | None:
        """The first proper nonempty sub-multiset of the coefficients summing
        to 0 mod ctx.exponent, fewest coefficients first, or None.  Then x in
        those slots and y != x in the rest solve the equation, so no set with
        |A| >= 2 is equation-free.  On the pipeline's padded modulus, which
        exceeds sum |a_i|, a subsum that is 0 mod M is 0 over Z."""
        for size in range(1, self.k):
            for sub in combinations(self.coeffs, size):
                if sum(sub) % ctx.exponent == 0:
                    return sub
        return None

    def __str__(self):
        return ",".join(str(c) for c in self.coeffs)


def padded_modulus(eq: EquationSpec, radius: int) -> int:
    """Smallest M > (sum |a_i|) * radius with gcd(a_i, M) = 1 for every i.

    Coprimality keeps xi -> a_i xi bijective on Z_M (needed by the dual-side
    Hoelder chain) and lets the brute counter solve the last variable by
    modular inverse.
    """
    M = eq.weight() * radius + 1
    while any(math.gcd(abs(c), M) != 1 for c in eq.coeffs):
        M += 1
    return M


def assert_z_faithful(eq: EquationSpec, A: SetA):
    """Check the cyclic modulus is large enough that solutions in A^k are
    solutions over Z: sum |a_i| times the largest |signed residue| in A must
    stay below M.

    count_T itself is a group-level functional (brute and fourier always
    agree on Z_M); this check matters when A models a subset of Z and the
    count is claimed to be the integer-solution count.
    """
    ctx = A.ctx
    if not isinstance(ctx, CyclicCtx) or not len(A):
        return
    total = eq.weight() * int(np.abs(signed_residue(A.indices, ctx.M)).max())
    if total >= ctx.M:
        raise PaddingError(
            f"modulus {ctx.M} too small: solutions can wrap; need M > {total}",
            minimal_modulus=total + 1,
        )


def _is_invertible(ctx: GroupCtx, c: int) -> bool:
    """Whether x -> c x is a bijection of the group."""
    return math.gcd(c, ctx.exponent) == 1


def _solve_last(ctx, c: int, rhs):
    """x with c*x = rhs; only called when c is invertible."""
    return np.asarray(ctx.scale_int(pow(c, -1, ctx.exponent), rhs))


def _brute_total(ctx, coeffs, values):
    """sum prod_i values[i][x_i] over the solutions of sum_i coeffs[i] x_i = 0,
    by enumeration over the supports; it never calls the convolution kernel.

    The variable with an invertible coefficient and the largest support is
    solved for (none is when no coefficient is invertible).  Of the others,
    all but the two with the largest supports are enumerated; those two form
    one 2-D grid of scaled offsets, built once, so each enumerated prefix
    costs one `add` and one `_solve_last` over the grid.  Each grid row is
    summed along its contiguous axis and added to the total in enumeration
    order, so a float total has the bits of enumerating one variable at a
    time.
    """
    k = len(coeffs)
    supports = [np.nonzero(v)[0] for v in values]
    if any(len(s) == 0 for s in supports):
        return 0
    invertible = [i for i in range(k) if _is_invertible(ctx, coeffs[i])]
    solve = max(invertible, key=lambda i: len(supports[i])) if invertible else None
    *outer, row, last = sorted(
        (i for i in range(k) if i != solve), key=lambda i: len(supports[i])
    )
    row_offsets = np.asarray(ctx.scale_int(coeffs[row], supports[row]))
    last_offsets = np.asarray(ctx.scale_int(coeffs[last], supports[last]))
    grid = np.asarray(ctx.add(row_offsets[:, None], last_offsets[None, :]))
    row_values = values[row][supports[row]]
    last_values = values[last][supports[last]]
    total = 0

    def rec(depth, partial, weight):
        nonlocal total
        if depth == len(outer):
            r = np.asarray(ctx.add(partial, grid))
            if solve is None:
                sums = [last_values[hit].sum() if hit.any() else None for hit in r == 0]
            else:
                xsol = _solve_last(ctx, coeffs[solve], ctx.neg(r))
                sums = (last_values * values[solve][xsol]).sum(axis=1)
            for v, row_sum in zip(row_values, sums):
                w = weight * v
                if w != 0 and row_sum is not None:
                    total = total + w * row_sum
            return
        i = outer[depth]
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


def count_T(eq: EquationSpec, hs: list, method: str = "fourier"):
    """The counting functional over k functions sharing a context.

    For integer-valued inputs, of any dtype, the count is an exact Python
    int on both routes.  There the fourier route is
    (g_1 * ... * g_k)(0) over the weighted pushforwards
    g_i(y) = sum_{a_i x = y} h_i(x), through the exact convolution kernel;
    an entry or an entry bound of 2^63 or more raises OverflowError rather
    than return a rounded float.  Other inputs take the unrounded dual-side
    sum (1/N) sum_xi prod_i hat(h_i)(a_i xi), a float for real inputs, read
    off one xi of each pair {xi, -xi} (`_dual_domain`), and complex over
    every xi otherwise.  Whether the count is Z-faithful on a cyclic model is
    `assert_z_faithful`'s question, not this one's.
    """
    if len(hs) != eq.k:
        raise ValueError(f"expected {eq.k} functions, got {len(hs)}")
    ctx = hs[0].ctx
    if any(h.ctx != ctx for h in hs):
        raise ValueError("group context mismatch")
    eq.validate_for(ctx)
    # one conversion and pushforward per distinct function and coefficient
    integer = all(h.is_integer_valued() for h in hs)
    ints = {h: _as_int64(h.values) for h in set(hs)} if integer else None
    if method == "brute":
        if not integer:
            return _brute_total(ctx, eq.coeffs, [h.values for h in hs])
        return int(_brute_total(ctx, eq.coeffs, _exact_ints([ints[h] for h in hs])))
    if method != "fourier":
        raise ValueError(f"unknown method {method!r}")
    if integer:
        slots = list(zip(eq.coeffs, hs))
        sup = {h: np.flatnonzero(v) for h, v in ints.items()}
        pushed = {(a, h): _pushforward(ctx, sup[h], a, ints[h][sup[h]])
                  for a, h in set(slots)}
        return _convolution_value_at_zero(ctx, [pushed[slot] for slot in slots])
    real = all(h.tag == "real" for h in hs)
    domain = _dual_domain(ctx, real)
    xi = np.arange(*domain.indices(ctx.N)) if isinstance(domain, slice) else domain
    # where hat(h)(a xi) is read: the domain itself for a = 1, so a slice
    # stays a view, and an index array for every other coefficient
    at = {a: domain if a == 1 else np.asarray(ctx.scale_int(a, xi))
          for a in set(eq.coeffs)}
    prod = np.ones(len(xi), dtype=np.complex128)
    for a, h in zip(eq.coeffs, hs):
        prod *= h.hat()[at[a]]
    return _dual_mean(ctx, prod, real)


def _pushforward(ctx, indices, coeff: int, weights=1) -> tuple:
    """g(y) = sum of the int64 weights of the x in `indices` with coeff * x = y,
    exactly, as the sorted pair (points, values) of its nonzero values; unit
    weights count those x.  Points that coeff merges (gcd(coeff, M) > 1, say)
    are summed.

    Raises OverflowError when sum |weights| is 2^63 or more, since an entry
    of g could then wrap in int64.
    """
    weights = np.broadcast_to(np.asarray(weights, dtype=np.int64), len(indices))
    bound = _abs_sum_max(weights)[0]
    if bound >= _INT64_LIMIT:
        raise OverflowError(f"pushforward entry bound {bound} is not below 2^63")
    y = np.asarray(ctx.scale_int(coeff, indices), dtype=np.int64)
    order = np.argsort(y)
    y, weights = y[order], weights[order]
    starts = np.flatnonzero(np.diff(y, prepend=-1))  # the first of each run
    sums = np.add.reduceat(weights, starts)
    keep = sums != 0
    return y[starts][keep], sums[keep]


def _convolution_value_at_zero(ctx, pairs) -> int:
    """(g_1 * ... * g_m)(0) for functions given as sorted pairs (points,
    int64 values), exact integers; multiplies the pairs with the fewest
    points first and finishes with an inner product in Python ints, each
    point y of one meeting -y among the sorted points of the other, instead
    of a last convolution, so a total past 2^63 stays exact."""
    pairs = list(pairs)
    if len(pairs) == 1:
        (pts, vals), = pairs
        return int(vals[0]) if len(pts) and pts[0] == 0 else 0
    while len(pairs) > 2:
        pairs.sort(key=lambda pair: len(pair[0]))
        pairs.append(_exact_product(ctx, pairs.pop(0), pairs.pop(0)))
    (pa, va), (pb, vb) = pairs
    neg = np.asarray(ctx.neg(pa))
    at = np.searchsorted(pb, neg)
    hit = at < len(pb)
    hit[hit] = pb[at[hit]] == neg[hit]
    return sum(map(operator.mul, va[hit].tolist(), vb[at[hit]].tolist()))


def count_equation_solutions(eq: EquationSpec, A: SetA) -> int:
    """Exact integer count of solutions in A^k: count_T on k copies of 1_A,
    after checking that a cyclic model counts them over Z."""
    assert_z_faithful(eq, A)
    return count_T(eq, [A.indicator()] * eq.k)


def _pushforward_convolution(ctx, indices, key: tuple, memo: dict) -> tuple:
    """Convolution of the pushforward counts of `indices` under each
    coefficient in `key`, as a sorted pair, built from the halves of `key`
    and memoized so that keys share partial sums; single pushforwards are
    cheaper to recompute."""
    if len(key) == 1:
        return _pushforward(ctx, indices, key[0])
    if key not in memo:
        h = len(key) // 2
        memo[key] = _exact_product(
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
    weights: dict = {}  # sorted nonzero block sums, up to sign -> Moebius weight
    for blocks in _set_partitions(eq.coeffs):
        sums = sorted(filter(None, (signed_residue(sum(B), ctx.exponent) for B in blocks)))
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


def trivial_solution_value(
    eq: EquationSpec, A: SetA, s: int, measured=None, exact: int | None = None,
):
    """N^{k/s} |A| for an equation-free set, N = A.model_n; checked against
    T(N^{1/s} 1_A).

    The exact solution count decides equation-freeness: A is equation-free
    when its only solutions are the |A| trivial ones (x, ..., x).  A caller
    that holds count_equation_solutions(eq, A) passes it as `exact`, and one
    that holds T(N^{1/s} 1_A) passes it as `measured`, so neither is counted
    again.
    """
    n = A.model_n
    if exact is None:
        exact = count_equation_solutions(eq, A)
    if exact != len(A):
        raise ValueError(f"set has a nontrivial solution: {exact} solutions in "
                         f"A^{eq.k}, of which {len(A)} are trivial")
    value = float(n) ** (eq.k / s) * len(A)
    if measured is None:
        scaled = Dfn(A.ctx, A.indicator().values * float(n) ** (1.0 / s))
        measured = count_T(eq, [scaled] * eq.k)
    rep = VerificationReport(
        lemma="diagonal_count_value",
        inputs={"eq": str(eq), "set": A.provenance, "s": s, "N": n},
        quantities={"value": value, "measured": measured, "solutions": exact},
    )
    rep.check("diagonal_value", abs(measured - value), "<=", 1e-8 * max(1.0, value))
    return value, rep


# -- the Hoelder chain and telescoping ------------------------------------------------


def _dual_mean_norms(h: Dfn, k: int):
    """(sup, L^{k-1} mean, L^4 mean) of hat h, from one |hat h| (over one xi
    of each pair {xi, -xi} when h is real)."""
    mags, real = _hat_magnitudes(h)
    m4 = float(_dual_mean(h.ctx, mags**4, real) ** (1.0 / 4))
    mk = m4 if k - 1 == 4 else float(
        _dual_mean(h.ctx, mags ** (k - 1), real) ** (1.0 / (k - 1)))
    return float(mags.max()), mk, m4


def pair_self_energy(h: Dfn) -> float:
    """E_2(h, h) = (1/N) sum |hat h|^4 (equals sum (h*h)^2 for real h)."""
    mags, real = _hat_magnitudes(h)
    return float(_dual_mean(h.ctx, mags**4, real))


def _pair_energies(hs: list) -> list:
    """sum_x (h*h)(x)^2 for each h: exact through `moment_energy` for an
    integer-valued h, and the dual mean `pair_self_energy` for a complex one.
    Every other h is real, and its h*h is taken from the inverse transform
    of hat(h)^2, for two such h at once by `_real_pair_convolutions` (a last
    odd one through `moment_energy`)."""
    energies = [None] * len(hs)
    paired = []
    for i, h in enumerate(hs):
        if h.tag == "complex":
            energies[i] = pair_self_energy(h)
        elif h.is_integer_valued():
            energies[i] = moment_energy([h, h], 2)
        else:
            paired.append(i)
    if len(paired) % 2:
        i = paired.pop()
        energies[i] = moment_energy([hs[i], hs[i]], 2)
    for i, j in zip(paired[::2], paired[1::2]):
        convs = _real_pair_convolutions((hs[i], hs[i]), (hs[j], hs[j]))
        for n, conv in zip((i, j), convs):
            energies[n] = float((conv**2).sum())
    return energies


def verify_counting_lemma(eq: EquationSpec, nu: Dfn, fs: list, T=None):
    """Every link of the dual-side Hoelder chain, numerically, no hidden constants.

    |T| <= min_i sup|hat f_i| * prod_{j != i} ||hat f_j||_{k-1}, and for each j
    ||hat f_j||_{k-1}^{k-1} <= sup^{k-5} * ||hat f_j||_4^4 with
    ||hat f_j||_4^4 = E_2(f_j, f_j) <= E_2(nu, nu).  A caller that holds
    T = count_T(eq, fs) passes it, so that it is not counted again.
    """
    k = eq.k
    if k < 5:
        raise ValueError("the chain needs k >= 5")
    if len(fs) != k:
        raise ValueError(f"expected {k} functions")
    if nu.tag == "complex":
        raise ValueError("nu majorizes |f_j|, so it must be real")
    ctx = nu.ctx
    bad = [a for a in eq.coeffs if not _is_invertible(ctx, a)]
    if bad:
        raise ValueError(
            f"coefficients {bad} are not invertible on {ctx.describe()}; dual "
            "dilations must be bijective for the chain (use the padded modulus)"
        )
    # the pipeline passes one function in several slots: check each once,
    # under the first slot that holds it
    distinct: dict = {}
    for j, f in enumerate(fs):
        distinct.setdefault(id(f), (j, f))
    slack = 1e-9 * max(1.0, float(np.abs(nu.values).max()))
    for j, f in distinct.values():
        gap = np.abs(f.values) - nu.values
        worst = int(np.argmax(gap))
        if gap[worst] > slack:
            raise ValueError(f"|f_{j}| exceeds nu at x={worst} by {gap[worst]:.3g}")
    if T is None:
        T = count_T(eq, fs, method="fourier")
    T_abs = abs(T)
    norms_of = {key: _dual_mean_norms(f, k) for key, (_, f) in distinct.items()}
    norms = [norms_of[id(f)] for f in fs]
    e2_nu = pair_self_energy(nu)
    # the physical side of the fourth moments: sum (h*h)^2, exact for
    # integer-valued h; a float h*h is the inverse transform of hat(h)^2, so
    # for float inputs both sides come from the one transform of h, and the
    # identity checks Parseval on it
    e2_nu_phys, *energies = _pair_energies([nu] + [f for _, f in distinct.values()])
    energy_of = dict(zip(distinct, energies))
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
    rep.quantities["E2_nu_physical"] = e2_nu_phys
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


def _verify_transforms_at_zero(named: dict) -> VerificationReport:
    """hat(h)(0) = sum_x h(x) for each named function: an O(N) tie between a
    transform derived by linearity and the values it stands for."""
    rep = VerificationReport(lemma="derived_transforms")
    for name, h in named.items():
        gap = abs(complex(h.hat()[0]) - float(h.values.sum()))
        rep.check(f"hat_{name}_at_0_is_sum", gap, "<=",
                  1e-9 * max(1.0, float(np.abs(h.values).sum())))
    return rep


def verify_telescoping(eq: EquationSpec, f: Dfn, F: Dfn, g: Dfn | None = None):
    """T(f) - T(F) = sum_i T(f..f, g, F..F) with g = f - F, then the chain bounds.

    Its k + 2 counts are count_T calls: T(f), T(F) (which is T(f) when F is
    f) and the k terms, each an exact int when its slots are all
    integer-valued and otherwise a float, or complex beside a complex slot.
    The chain bounds need k >= 5 and coefficients invertible in the scalar
    ring, so that every dual dilation is a bijection; otherwise they are
    skipped and the report says why.  A caller that holds g = f - F passes
    it, so that g is built and transformed once; the pipeline passes a g
    whose transform it derived by linearity.
    """
    if f.ctx != F.ctx:
        raise ValueError("group context mismatch")
    eq.validate_for(f.ctx)
    k = eq.k
    if g is None:
        g = f - F
    T_f = count_T(eq, [f] * k)
    T_F = T_f if F is f else count_T(eq, [F] * k)
    terms = [count_T(eq, [f] * i + [g] + [F] * (k - 1 - i)) for i in range(k)]
    lhs = T_f - T_F
    rhs = sum(terms)
    scale = max(1.0, abs(T_f), abs(T_F))
    g_sup = fourier_mean_norm(g, np.inf)
    rep = VerificationReport(
        lemma="telescoping_transference",
        inputs={"eq": str(eq), "N": f.ctx.N, "k": k},
        quantities={
            "T_f": T_f,
            "T_F": T_F,
            "terms": terms,
            "g_hat_sup": g_sup,
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
    On a pipeline model with a one-point smoother f = N^{1/s} 1_A, so at the
    pipeline's p = s, sum f^p = N |A| > N and only the corrected form runs.
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


def count_k_cycles(eq: EquationSpec, sets: list) -> int:
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
    if not all(_is_invertible(ctx, a) for a in eq.coeffs):
        raise ValueError("coefficients must be invertible mod p")
    return dual_value_at_zero(ctx, [X.indicator().values for X in sets])


def verify_supersaturation(eq: EquationSpec, A0: SetA):
    """Diagonal-cycle lower bound and the cycles <-> solutions bijection.

    X_i = a_i A_0; the |A_0| diagonal cycles (a_1 x, ..., a_k x) are pairwise
    distinct in every coordinate, so the cycle count is at least |A_0|; and
    y_i = a_i x_i identifies cycles with solutions of the equation in A_0^k.
    The cycles are counted on the dual side and the solutions by physical
    pushforward convolutions, so the bijection check compares two routes.
    The cycle count over N^{k-1} is reported, never asserted.
    """
    ctx = A0.ctx
    if not isinstance(ctx, VectorCtx):
        raise ValueError("supersaturation runs in the vector-space model")
    eq.validate_for(ctx)
    images = [np.asarray(ctx.scale_int(a, A0.indices)) for a in eq.coeffs]
    dilated = [SetA(ctx, idx, provenance={"construction": "dilation", "a": a})
               for a, idx in zip(eq.coeffs, images)]
    rep = VerificationReport(
        lemma="diagonal_cycle_supersaturation",
        inputs={"eq": str(eq), "N": ctx.N, "|A0|": len(A0)},
    )
    # (a) the diagonal family: one cycle per x, distinct in every coordinate,
    # since each dilation by a unit is injective and keeps |A_0| elements
    per_coord_ok = all(len(X) == len(A0) for X in dilated)
    rep.check("diagonal_coordinates_distinct", per_coord_ok, "==", True, exact=True)
    acc = functools.reduce(ctx.add, images)
    sums_zero = not np.any(acc)
    rep.check("diagonal_tuples_are_cycles", sums_zero, "==", True, exact=True)
    cycles = count_k_cycles(eq, dilated)
    rep.quantities["cycle_count"] = cycles
    rep.check("cycles_ge_diagonal", cycles, ">=", len(A0), exact=True)
    # (b) bijection with equation solutions inside A_0^k
    solutions = count_equation_solutions(eq, A0)
    rep.quantities["solution_count"] = solutions
    rep.check("cycles_equal_solutions", cycles, "==", solutions, exact=True)
    # (c) the density of A_0 and the cycles over N^{k-1}, report only
    rho = len(A0) / ctx.N
    rep.quantities["density"] = rho
    denom = ctx.N ** (eq.k - 1)
    rep.measured_ratios["cycles_over_Nk1"] = cycles / denom
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
    eps = as_fraction(eps)
    ctx = A.ctx
    integer_mode = isinstance(ctx, CyclicCtx)
    N = A.model_n
    if integer_mode:
        # re-embed into a modulus that covers the smoothed support window
        M_req = padded_modulus(eq, N + int(eps * N))
        if ctx.M < M_req or not all(_is_invertible(ctx, a) for a in eq.coeffs):
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
            "N": N,
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
    assert_z_faithful(eq, A)
    exact_solutions, distinct = _solution_counts(eq, A)

    # the model is built on a copy of A, which shares A's rep profile and so
    # its freeness verdict, and dropped once f is taken from it: the transform
    # of 1_A memoized on the copy serves the spectrum, the model and its
    # properties, then goes with the copy
    model = dm.build_dense_model(A.with_ctx(ctx), s, t, eps)
    report.sections["model_properties"] = dm.verify_model_properties(model)
    report.flags += report.sections["model_properties"].flags
    f, scale, smoother_size = model.f, model.scale, model.smoother_size
    hat_A = model.A.indicator().hat()
    del model

    # the dual side of the run: F, g and nu are linear in 1_A and f, and so
    # are their transforms, so none of the three is transformed.  A one-point
    # smoother makes f = N^{1/s} 1_A, and f and its transform serve as F
    if smoother_size == 1:
        F = f
    else:
        F = Dfn(ctx, A.indicator().values * scale)._with_hat(scale * hat_A)
    del hat_A
    g = (f - F)._with_hat(f.hat() - F.hat())
    k = eq.k

    tele = verify_telescoping(eq, f, F, g=g)
    report.sections["telescoping"] = tele
    nu = (f + F)._with_hat(f.hat() + F.hat())
    if k >= 5:
        # the chain's T(g, F, ..., F) is the telescoping's term 0; every input
        # is real, so the report holds that term with its bits
        chain = verify_counting_lemma(
            eq, nu, [g] + [F] * (k - 1), tele.quantities["terms"][0])
        report.sections["holder_chain"] = chain
    else:
        report.flags.append(f"holder chain skipped: it needs k >= 5, here k = {k}")
    report.sections["derived_transforms"] = _verify_transforms_at_zero(
        {"F": F, "g": g, "nu": nu}
    )

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
        }
    )
    if k >= 5:
        report.ledger["E2_nu_over_N3"] = chain.quantities["E2_nu"] / N**3
    report.ledger.update(smoother_size=smoother_size, solutions_in_A=exact_solutions,
                         all_distinct_solutions=distinct)
    if exact_solutions == len(A):
        _, diag_rep = trivial_solution_value(eq, A, s, measured=T_F, exact=exact_solutions)
        report.sections["diagonal_value"] = diag_rep
    elif (vanishing := eq.vanishing_subsum(ctx)) is not None:
        report.flags.append(
            f"set is not equation-free: the coefficients {list(vanishing)} sum to 0 "
            f"mod {ctx.exponent}, so every set with |A| >= 2 has a nontrivial solution")
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
