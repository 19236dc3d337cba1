"""Set representations, freeness checking, and the construction corpus.

A set A is grid-free for parameters (s, t) when no sumset B + C with
|B| = s, |C| = t lands inside A.  The workhorse is the admissible-shift
set of an s-tuple: shifts d with a_i - d in A for every i.  The zero shift
is always admissible, and t admissible shifts (zero included) reconstruct
a violating grid, so the decision procedure flags |shifts| >= t counting 0.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from itertools import combinations
from types import MappingProxyType

import numpy as np

from .functions import Dfn
from .groups import CyclicCtx, GroupCtx, is_prime, parse_ctx
from .util import indices_to_mask, sorted_unique, spawn_rng

__all__ = [
    "SetA",
    "FreenessError",
    "GridWitness",
    "rep_diff",
    "rep_tuple",
    "rep_tuples",
    "is_kst_free",
    "find_kst_violation",
    "find_kst_violation_exhaustive",
    "require_kst_free",
    "subset_rep_aggregates",
    "erdos_turan_sidon",
    "greedy_kst_free",
    "random_subset",
    "subspace_set",
    "equation_free_greedy",
    "construct",
    "save_set",
    "load_set",
]

_MAX_BITSET_ORDER = 1 << 24
# rows per batched evaluation in rep_tuples, to bound the (rows, |A|) temporaries
_TUPLE_BLOCK = 256
# candidates per batched admission test in the s = 2 greedy
_GREEDY_BLOCK = 64


class FreenessError(ValueError):
    """A freeness precondition failed; carries the violating grid."""

    def __init__(self, msg, witness=None):
        super().__init__(msg)
        self.witness = witness


class SetA:
    """Subset of the ambient group: sorted index list plus a bitset."""

    def __init__(self, ctx: GroupCtx, indices, provenance=None, model_n=None):
        if ctx.N > _MAX_BITSET_ORDER:
            raise ValueError("group too large for dense set storage")
        idx = sorted_unique(indices)
        if len(idx) and (idx[0] < 0 or idx[-1] >= ctx.N):
            raise ValueError("set element out of range")
        self.ctx = ctx
        self.indices = idx
        self.member = np.zeros(ctx.N, dtype=bool)
        self.member[idx] = True
        self.provenance = dict(provenance or {})
        # the N of the theorem's [N]: a set modelled inside a padded Z_M keeps it
        self.model_n = ctx.N if model_n is None else model_n
        self._shift_masks = None
        self._indicator = None
        self._rep_profiles = {}

    def __len__(self):
        return len(self.indices)

    def __contains__(self, idx):
        return bool(self.member[int(idx) % self.ctx.N])

    def __iter__(self):
        return iter(int(i) for i in self.indices)

    def indicator(self) -> Dfn:
        """1_A, built once and shared by every caller together with its
        cached transform, so its values are read-only: never mutate them.
        It stays on the set as an int64 array of length N, so exact counts,
        which need only the support, read the bool `member` instead."""
        if self._indicator is None:
            self._indicator = Dfn.indicator(self.ctx, self.indices)
            self._indicator.values.flags.writeable = False
        return self._indicator

    def reflected_indicator(self) -> Dfn:
        """Indicator of -A."""
        return Dfn.indicator(self.ctx, self.ctx.neg(self.indices))

    def shift_masks(self):
        """For each a in A (sorted order): bitset of {a - b : b in A}.

        Bit d is set iff the shift d keeps a inside A; bit 0 is always set.
        """
        if self._shift_masks is None:
            self._shift_masks = [
                indices_to_mask(self.ctx.sub(int(a), self.indices), self.ctx.N)
                for a in self.indices
            ]
        return self._shift_masks

    def with_ctx(self, ctx: GroupCtx) -> "SetA":
        """A copy with its own indicator; on an equal group it shares the rep
        profiles, which depend only on the indices and group."""
        copy = SetA(ctx, self.indices, self.provenance, self.model_n)
        if ctx == self.ctx:
            copy._rep_profiles = self._rep_profiles
        return copy

    def __repr__(self):
        name = self.provenance.get("construction", "set")
        return f"SetA({name}, |A|={len(self)}, ctx={self.ctx!r})"


@dataclass
class GridWitness:
    """A violating grid B + C inside A."""

    b: tuple
    c: tuple

    def grid(self, ctx) -> list:
        return [int(ctx.add(x, y)) for x in self.b for y in self.c]

    def verify(self, A: SetA, s: int, t: int) -> bool:
        if len(set(self.b)) != s or len(set(self.c)) != t:
            return False
        return all(g in A for g in self.grid(A.ctx))


def rep_diff(A: SetA) -> Dfn:
    """r(d) = #{(a, a') in A^2 : a - a' = d}, exact integers."""
    idx = A.indices
    if len(idx) == 0:
        return Dfn.zeros(A.ctx)
    d = np.asarray(A.ctx.sub(idx[:, None], idx[None, :])).ravel()
    r = np.bincount(d, minlength=A.ctx.N).astype(np.int64)
    return Dfn(A.ctx, r)


def rep_tuple(A: SetA, tpl) -> int:
    """Number of nonzero shifts d with a_i - d in A for every tuple entry."""
    tpl = [int(a) for a in tpl]
    if len(tpl) < 2:
        raise ValueError("tuple must have length >= 2")
    for a in tpl:
        if a not in A:
            raise ValueError(f"tuple element {a} not in A")
    cand = np.asarray(A.ctx.sub(tpl[0], A.indices))
    ok = np.ones(len(cand), dtype=bool)
    for a in tpl[1:]:
        ok &= A.member[np.asarray(A.ctx.sub(a, cand))]
    shifts = cand[ok]
    return int(np.count_nonzero(shifts != 0))


def rep_tuples(A: SetA, tuples) -> np.ndarray:
    """rep_tuple of every row of an (R, s) array, s >= 2, as int64 counts.

    The same definition, evaluated over `_TUPLE_BLOCK` rows at a time: the
    candidate shifts tpl[:, 0] - A, kept where tpl[:, j] - shift lies in A for
    every j >= 1, the nonzero ones counted per row.  Like rep_tuple it raises
    ValueError on a tuple element outside A.
    """
    tuples = np.asarray(tuples, dtype=np.int64)
    if tuples.ndim != 2 or tuples.shape[1] < 2:
        raise ValueError("tuples must be an (R, s) array with s >= 2")
    outside = ~A.member[tuples % A.ctx.N]
    if outside.any():
        raise ValueError(f"tuple element {int(tuples[outside][0])} not in A")
    counts = np.empty(len(tuples), dtype=np.int64)
    for lo in range(0, len(tuples), _TUPLE_BLOCK):
        block = tuples[lo : lo + _TUPLE_BLOCK]
        cand = np.asarray(A.ctx.sub(block[:, :1], A.indices))
        ok = cand != 0
        for col in block[:, 1:].T:
            ok &= A.member[np.asarray(A.ctx.sub(col[:, None], cand))]
        counts[lo : lo + _TUPLE_BLOCK] = np.count_nonzero(ok, axis=1)
    return counts


# -- rep profiles over distinct u-subsets -----------------------------------------


def _mask_walk(masks, u: int, floor: int, acc: int):
    """Yield (positions, mask) for the u-subsets of `masks` whose AND with
    `acc` keeps at least `floor` bits, in lexicographic order of positions.

    A prefix below `floor` is pruned together with all its extensions.
    """
    n = len(masks)

    def rec(start, chosen, acc):
        for i in range(start, n - (u - len(chosen)) + 1):
            mm = acc & masks[i]
            if mm.bit_count() < floor:
                continue
            if len(chosen) + 1 == u:
                yield chosen + (i,), mm
            else:
                yield from rec(i + 1, chosen + (i,), mm)

    yield from rec(0, (), acc)


def _subset_masks(A: SetA, u: int, floor: int):
    """_mask_walk over the shift masks of A: the u-subsets of A whose
    admissible-shift set keeps at least `floor` elements."""
    return _mask_walk(A.shift_masks(), u, floor, (1 << A.ctx.N) - 1)


def subset_rep_aggregates(A: SetA, u: int) -> MappingProxyType:
    """{rep: number of u-subsets of A with that rep}, for rep >= 1, where rep
    is the number of admissible nonzero shifts; built once per (A, u) and
    returned read-only."""
    if u not in A._rep_profiles:
        _store_rep_profile(A, u)
    return A._rep_profiles[u]


def _store_rep_profile(A: SetA, u: int, stop: int | None = None):
    """Store A's u-subset rep profile; for u >= 3 the walk instead returns the
    first (positions, mask) keeping at least `stop` bits, storing nothing."""
    profile = {}
    if u == 1 and len(A) > 1:
        profile[len(A) - 1] = len(A)
    elif u == 2:
        # the l ordered pairs with difference d != 0 share l - 1 nonzero shifts;
        # r(d) = r(-d), and r(d) is even when d = -d, so l * count is even;
        # index 0 is d = 0
        r = rep_diff(A).values[1:]
        ls, counts = np.unique(r[r > 1], return_counts=True)
        profile = {int(l) - 1: int(l * c) // 2 for l, c in zip(ls, counts)}
    elif u >= 3:
        # a subset whose only admissible shift is 0 has rep 0 and is left out
        for hit in _subset_masks(A, u, 2):
            bits = hit[1].bit_count()
            if stop is not None and bits >= stop:
                return hit
            profile[bits - 1] = profile.get(bits - 1, 0) + 1
    A._rep_profiles[u] = MappingProxyType(profile)


# -- freeness ------------------------------------------------------------------------


def find_kst_violation(A: SetA, s: int, t: int) -> GridWitness | None:
    """First violating grid in canonical order, or None if A is grid-free.

    A distinct s-subset whose admissible-shift set (zero included) has at
    least t elements yields the witness x_i = a_i - d_1, y_j = -(d_j - d_1),
    with d_1 < ... < d_t the first t admissible shifts by residue order.
    Such a subset has rep >= t - 1, so the rep profile decides freeness.
    Without a stored profile, its walk stops at the first violating subset
    (the floor-t walk's first), so a non-free set raises early.
    """
    if not 2 <= s <= t:
        raise ValueError("need 2 <= s <= t")
    hit = None if s in A._rep_profiles else _store_rep_profile(A, s, stop=t)
    if hit is None and max(A._rep_profiles[s], default=0) < t - 1:
        return None
    chosen, mm = hit or next(_subset_masks(A, s, t))
    shifts = []
    m = mm
    while m and len(shifts) < t:
        low = m & -m
        shifts.append(low.bit_length() - 1)
        m ^= low
    d1 = shifts[0]
    ctx = A.ctx
    b = tuple(int(ctx.sub(int(A.indices[i]), d1)) for i in chosen)
    c = tuple(int(ctx.neg(ctx.sub(d, d1))) for d in shifts)
    witness = GridWitness(b=b, c=c)
    assert witness.verify(A, s, t), "internal witness reconstruction failed"
    return witness


def require_kst_free(A: SetA, s: int, t: int) -> None:
    """Raise FreenessError carrying the first violating grid unless A is free."""
    w = find_kst_violation(A, s, t)
    if w is not None:
        raise FreenessError(f"set is not K_{{{s},{t}}}-free", witness=w)


def is_kst_free(A: SetA, s: int, t: int) -> bool:
    return find_kst_violation(A, s, t) is None


def find_kst_violation_exhaustive(A: SetA, s: int, t: int) -> GridWitness | None:
    """Reference oracle: enumerate candidate grids directly.

    Any grid B + C inside A can be translated so that C lands inside A
    (replace (B, C) by (B - b1, C + b1)); so it suffices to scan t-subsets
    C of A and look for s feasible base points.  Kept deliberately naive
    (python sets, elementwise verification) as an independent check.
    """
    if len(A) < t:
        # a grid forces t translated base points inside A
        return None
    ctx = A.ctx
    elems = [int(a) for a in A.indices]
    aset = set(elems)
    for c_tuple in combinations(elems, t):
        feas = None
        for c in c_tuple:
            shifted = {int(ctx.sub(a, c)) for a in elems}
            feas = shifted if feas is None else (feas & shifted)
            if len(feas) < s:
                break
        if feas is not None and len(feas) >= s:
            b_tuple = tuple(sorted(feas)[:s])
            w = GridWitness(b=b_tuple, c=tuple(c_tuple))
            assert all(int(ctx.add(x, y)) in aset for x in b_tuple for y in c_tuple)
            return w
    return None


# -- constructions -----------------------------------------------------------------


def erdos_turan_sidon(p: int, M: int | None = None) -> SetA:
    """{2p*i + (i^2 mod p) : 0 <= i < p} in Z_M, M >= 2p^2 + p; Sidon.

    The default modulus is 2*max(A)+1 so that distinct integer differences
    stay distinct mod M (at exactly 2p^2+p the wrap can identify two
    differences, e.g. p = 13).
    """
    if not is_prime(p):
        raise ValueError(f"p = {p} must be prime")
    elems = [2 * p * i + (i * i % p) for i in range(p)]
    if M is None:
        M = max(2 * p * p + p, 2 * max(elems) + 1)
    if M < 2 * p * p + p:
        raise ValueError(f"modulus must be at least {2 * p * p + p}")
    A = SetA(
        CyclicCtx(M),
        elems,
        provenance={"construction": "erdos_turan_sidon", "p": p, "M": M},
        model_n=max(elems) + 1,
    )
    w = find_kst_violation(A, 2, 2)
    if w is not None:
        raise ValueError(
            f"Erdos-Turan set for p = {p} is not Sidon mod {M} ({w}); "
            f"any M >= {2 * max(elems) + 1} keeps differences distinct"
        )
    return A


def greedy_kst_free(
    s: int,
    t: int,
    n: int,
    seed: int,
    ctx: GroupCtx | None = None,
) -> SetA:
    """Random-order greedy insertion keeping the set grid-free.

    With a plain integer n the set lives in [0, n) inside Z_{2n+1}, padded so
    shifts and differences never wrap.  With a `ctx` the candidates are all
    ctx.N elements of the group, and n is only recorded in the provenance.
    Candidates are taken in one seeded order and each is kept iff A + {c} is
    still K_{s,t}-free, A being the set kept so far; A is free at every step,
    so only a grid through c can appear, and each admission test looks only
    at those:

    - s = 2 (`_greedy_differences`).  With r(d) = #{(a, a') in A^2 :
      a - a' = d}, adding c gives r' = r + [d in c - A] + [d in A - c], and
      A + {c} is free iff r'(d) <= t - 1 for every d != 0.  Only d in
      (c - A) u (A - c) move, and r' is symmetric like r, so d = c - a
      covers both: c is admissible iff r(c - a) + 1 + [2c - a in A] <= t - 1
      for every a in A.
    - s >= 3 (`_greedy_shift_masks`).  Translating a grid B + C through c so
      that c lands in B puts 0 in C: the grid is an s-subset of A + {c}
      containing c whose admissible shifts (0 included) number at least t.
      So c is admissible iff no s - 1 elements of A share t admissible
      shifts with c in A + {c}.  The walk starts from c's mask c - (A + {c})
      and prunes below t bits; the mask a - A of each a in A, kept from step
      to step, gains only the bit a - c.

    Both tests decide exactly the freeness of A + {c}, so the set is the one
    that re-checking the whole of A + {c} for each candidate would pick,
    index for index.  The result is checked once more by find_kst_violation.
    """
    if not 2 <= s <= t:
        raise ValueError("need 2 <= s <= t")
    rng = spawn_rng(seed, 0x6B5D)
    if ctx is None:
        ctx = CyclicCtx(2 * n + 1)
        candidates = rng.permutation(n)
        model_n = n
    else:
        candidates = rng.permutation(ctx.N)
        model_n = None
    if s == 2:
        chosen = _greedy_differences(ctx, candidates, t)
    else:
        chosen = _greedy_shift_masks(ctx, candidates, s, t)
    A = SetA(
        ctx,
        chosen,
        provenance={
            "construction": "greedy_kst_free",
            "s": s,
            "t": t,
            "n": n,
            "seed": seed,
        },
        model_n=model_n,
    )
    w = find_kst_violation(A, s, t)
    if w is not None:
        raise AssertionError(f"greedy construction produced a violation: {w}")
    return A


def _greedy_differences(ctx, candidates, t) -> np.ndarray:
    """greedy_kst_free for s = 2: r(c - a) + 1 + [2c - a in A] <= t - 1 for
    all a, tested for `_GREEDY_BLOCK` candidates at once; the scan resumes
    after the first admissible one, since keeping it changes r and A.

    A is kept as digits, and c - a, 2c - a = (c - a) + c and a - c are
    formed from them: on F_q^n the base-p digits, split once per block and
    once per kept a, and joined once per difference; on Z_M the residue is
    its own one digit.
    """
    if ctx.kind == "vector":
        split, join = ctx.digits, ctx.from_digits
    else:
        split, join = np.asarray, lambda d: d % ctx.N
    r = np.zeros(ctx.N, dtype=np.int64)
    member = np.zeros(ctx.N, dtype=bool)
    chosen = split(np.empty(0, dtype=np.int64))
    lo = 0
    while lo < len(candidates):
        block = candidates[lo : lo + _GREEDY_BLOCK]
        hit = 0
        if len(chosen):
            c_digits = split(block)[:, None]
            diff = c_digits - chosen
            d = join(diff)
            load = r[d] + member[join(diff + c_digits)]
            hits = np.flatnonzero(load.max(axis=1) < t - 1)
            if not len(hits):
                lo += len(block)
                continue
            hit = int(hits[0])
            r[d[hit]] += 1
            r[join(-diff[hit])] += 1
        c = block[hit : hit + 1]
        member[c] = True
        chosen = np.append(chosen, split(c), axis=0)
        lo += hit + 1
    return join(chosen)


def _greedy_shift_masks(ctx, candidates, s, t) -> list:
    """greedy_kst_free for s >= 3: no (s - 1)-subset of A whose shift masks,
    each with the bit a - c added, keep t bits of c - (A + {c})."""
    masks: list[int] = []
    chosen: list[int] = []
    for c in candidates:
        c = int(c)
        arr = np.asarray(chosen, dtype=np.int64)
        mask_c = indices_to_mask(np.asarray(ctx.sub(c, arr)), ctx.N) | 1
        grown = [m | (1 << int(d)) for m, d in zip(masks, ctx.sub(arr, c))]
        if next(_mask_walk(grown, s - 1, t, mask_c), None) is None:
            masks = grown + [mask_c]
            chosen.append(c)
    return chosen


def random_subset(ctx_or_n, density: float, seed: int) -> SetA:
    if not 0 <= density <= 1:
        raise ValueError(f"density {density} must lie in [0, 1]")
    ctx = CyclicCtx(ctx_or_n) if isinstance(ctx_or_n, numbers.Integral) else ctx_or_n
    rng = spawn_rng(seed, 0x52A2)
    picks = np.nonzero(rng.random(ctx.N) < density)[0]
    return SetA(
        ctx,
        picks,
        provenance={"construction": "random_subset", "density": density, "seed": seed},
    )


def subspace_set(ctx, basis_vectors) -> SetA:
    from .spectral import span

    sub = span(ctx, basis_vectors)
    return SetA(
        ctx,
        sub.element_indices(),
        provenance={"construction": "subspace", "dim": sub.dim},
    )


def equation_free_greedy(eq, n: int, seed: int) -> SetA:
    """Greedy set in [0, n) with only diagonal solutions to the equation.

    Candidates are taken in one seeded order and each is kept iff A + {c}
    still has only the diagonal solutions.  Under a vanishing coefficient
    subsum no two points do (`EquationSpec.vanishing_subsum`), so only the
    first candidate is tried.
    """
    from .counting import count_equation_solutions, padded_modulus

    ctx = CyclicCtx(padded_modulus(eq, n))
    candidates = spawn_rng(seed, 0xEBF3).permutation(n)
    if eq.vanishing_subsum(ctx) is not None:
        candidates = candidates[:1]
    chosen: list[int] = []
    for c in candidates:
        trial = chosen + [int(c)]
        if count_equation_solutions(eq, SetA(ctx, trial)) == len(trial):
            chosen = trial
    A = SetA(
        ctx,
        chosen,
        provenance={
            "construction": "equation_free_greedy",
            "coeffs": list(eq.coeffs),
            "n": n,
            "seed": seed,
        },
        model_n=n,
    )
    assert count_equation_solutions(eq, A) == len(A)
    return A


def construct(kind: str, params: dict, seed: int = 0) -> SetA:
    """Dispatcher used by the CLI; params is a {name: value} dict.

    Numbers may arrive as text; eq is an EquationSpec, ctx a GroupCtx and
    basis a list of element indices, as the CLI parses them.
    """
    if kind == "erdos_turan_sidon":
        M = int(params["M"]) if "M" in params else None
        return erdos_turan_sidon(int(params["p"]), M)
    if kind == "greedy_kst_free":
        return greedy_kst_free(
            int(params["s"]), int(params["t"]), int(params["N"]), seed
        )
    if kind == "random_subset":
        return random_subset(int(params["N"]), float(params["density"]), seed)
    if kind == "equation_free_greedy":
        return equation_free_greedy(params["eq"], int(params["N"]), seed)
    if kind == "subspace":
        return subspace_set(params["ctx"], params.get("basis", []))
    raise ValueError(f"unknown construction kind {kind!r}")


# -- file format ----------------------------------------------------------------------


def save_set(A: SetA, path):
    with open(path, "w") as fh:
        fh.write(f"ctx={A.ctx.describe()}\n")
        if A.model_n != A.ctx.N:
            fh.write(f"# model_n={A.model_n}\n")
        for a in A.indices:
            fh.write(A.ctx.format_element(int(a)) + "\n")


def load_set(path) -> SetA:
    model_n = None
    elems = []
    ctx = None
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("ctx="):
                ctx = parse_ctx(line[4:])
            elif line.startswith("# model_n="):
                model_n = int(line.split("=", 1)[1])
            elif line.startswith("#"):
                continue
            elif ctx is None:
                raise ValueError(f"set file element {line!r} precedes the ctx header")
            else:
                elems.append(ctx.parse_element(line))
    if ctx is None:
        raise ValueError("set file missing ctx header")
    return SetA(ctx, elems, provenance={"construction": "file"}, model_n=model_n)
