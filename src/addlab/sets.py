"""Set representations, freeness checking, and the construction corpus.

A set A is grid-free for parameters (s, t) when no sumset B + C with
|B| = s, |C| = t lands inside A.  The workhorse is the admissible-shift
set of an s-tuple: shifts d with a_i - d in A for every i.  The zero shift
is always admissible, and t admissible shifts (zero included) reconstruct
a violating grid, so the decision procedure flags |shifts| >= t counting 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

import numpy as np

from .functions import Dfn
from .groups import CyclicCtx, GroupCtx, is_prime, parse_ctx
from .util import indices_to_mask, spawn_rng

__all__ = [
    "SetA",
    "FreenessError",
    "GridWitness",
    "SubsetRepStats",
    "rep_diff",
    "rep_tuple",
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
        idx = np.unique(np.asarray(indices, dtype=np.int64))
        if len(idx) and (idx[0] < 0 or idx[-1] >= ctx.N):
            raise ValueError("set element out of range")
        self.ctx = ctx
        self.indices = idx
        self.member = np.zeros(ctx.N, dtype=bool)
        self.member[idx] = True
        self.provenance = dict(provenance or {})
        self.model_n = model_n
        self._shift_masks = None
        self._indicator = None

    def __len__(self):
        return len(self.indices)

    def __contains__(self, idx):
        return bool(self.member[int(idx) % self.ctx.N])

    def __iter__(self):
        return iter(int(i) for i in self.indices)

    def indicator(self) -> Dfn:
        """1_A, built once and shared by every caller together with its
        cached transform, so its values are read-only: never mutate them."""
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
        return SetA(ctx, self.indices, self.provenance, self.model_n)

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


# -- aggregate statistics over distinct u-subsets -----------------------------------


@dataclass
class SubsetRepStats:
    """Aggregates of rep = |admissible nonzero shifts| over distinct u-subsets."""

    u: int
    max_rep: int = 0
    rep_sum: int = 0          # sum of rep over u-subsets
    count_over: int = 0       # subsets with rep > t - 1
    excess_sum: int = 0       # sum of (rep - (t-1))_+ over u-subsets
    subsets: int = 0


def _subset_masks(A: SetA, u: int, floor: int):
    """Yield (positions, mask) for the u-subsets of A whose AND-ed shift mask
    keeps at least `floor` bits, in lexicographic order of positions.

    A prefix below `floor` is pruned together with all its extensions.
    """
    masks = A.shift_masks()
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

    yield from rec(0, (), (1 << A.ctx.N) - 1)


def subset_rep_aggregates(A: SetA, u: int, t: int) -> SubsetRepStats:
    m = len(A)
    st = SubsetRepStats(u=u, subsets=comb(m, u))
    if m < u:
        return st
    if u == 1:
        rep = m - 1
        st.max_rep = rep
        st.rep_sum = m * rep
        st.count_over = m if rep > t - 1 else 0
        st.excess_sum = m * max(rep - (t - 1), 0)
        return st
    if u == 2:
        r = rep_diff(A).values
        nz = r.copy()
        nz[0] = 0
        live = nz[nz > 0]
        st.max_rep = int(live.max()) - 1 if len(live) else 0
        st.rep_sum = int((live * (live - 1)).sum()) // 2
        st.count_over = int(live[live > t].sum()) // 2
        st.excess_sum = int((live * np.maximum(live - t, 0)).sum()) // 2
        return st
    # a subset whose only admissible shift is 0 has rep 0 and adds nothing
    for _, mm in _subset_masks(A, u, 2):
        rep = mm.bit_count() - 1
        st.max_rep = max(st.max_rep, rep)
        st.rep_sum += rep
        if rep > t - 1:
            st.count_over += 1
            st.excess_sum += rep - (t - 1)
    return st


# -- freeness ------------------------------------------------------------------------


def find_kst_violation(A: SetA, s: int, t: int) -> GridWitness | None:
    """First violating grid in canonical order, or None if A is grid-free.

    A distinct s-subset whose admissible-shift set (zero included) has at
    least t elements yields the witness x_i = a_i - d_1, y_j = -(d_j - d_1),
    with d_1 < ... < d_t the first t admissible shifts by residue order.
    """
    if not 2 <= s <= t:
        raise ValueError("need 2 <= s <= t")
    if len(A) < s:
        return None
    if s == 2:
        r = rep_diff(A).values
        nz = r.copy()
        nz[0] = 0
        if nz.max(initial=0) < t:
            return None
    hit = next(_subset_masks(A, s, t), None)
    if hit is None:
        return None
    chosen, mm = hit
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
    max_size: int | None = None,
) -> SetA:
    """Random-order greedy insertion keeping the set grid-free.

    With a plain integer n the set lives in [0, n) inside Z_{2n+1}, padded so
    shifts and differences never wrap.
    """
    rng = spawn_rng(seed, 0x6B5D)
    if ctx is None:
        ctx = CyclicCtx(2 * n + 1)
        candidates = rng.permutation(n)
        model_n = n
    else:
        candidates = rng.permutation(ctx.N)
        model_n = None
    chosen: list[int] = []
    if s == 2:
        r = np.zeros(ctx.N, dtype=np.int64)
        for c in candidates:
            c = int(c)
            if chosen:
                arr = np.array(chosen, dtype=np.int64)
                diffs = np.concatenate(
                    [np.asarray(ctx.sub(c, arr)), np.asarray(ctx.sub(arr, c))]
                )
                trial = r + np.bincount(diffs, minlength=ctx.N)
                if trial[1:].max(initial=0) > t - 1:
                    continue
                r = trial
            chosen.append(c)
            if max_size and len(chosen) >= max_size:
                break
    else:
        for c in candidates:
            trial = SetA(ctx, chosen + [int(c)])
            if find_kst_violation(trial, s, t) is None:
                chosen.append(int(c))
                if max_size and len(chosen) >= max_size:
                    break
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


def random_subset(ctx_or_n, density: float, seed: int) -> SetA:
    ctx = CyclicCtx(ctx_or_n) if isinstance(ctx_or_n, int) else ctx_or_n
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
    """Greedy set in [0, n) with only diagonal solutions to the equation."""
    from .counting import count_equation_solutions, padded_modulus

    ctx = CyclicCtx(padded_modulus(eq, n))
    rng = spawn_rng(seed, 0xEBF3)
    chosen: list[int] = []
    for c in rng.permutation(n):
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
    """Dispatcher used by the CLI; params is a {name: value} dict."""
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
        from .counting import EquationSpec

        coeffs = [int(c) for c in str(params["eq"]).split(",")]
        return equation_free_greedy(EquationSpec(coeffs), int(params["N"]), seed)
    if kind == "subspace":
        ctx = parse_ctx(params["ctx"])
        basis = [ctx.parse_element(b) for b in params.get("basis", "").split("|") if b]
        return subspace_set(ctx, basis)
    raise ValueError(f"unknown construction kind {kind!r}")


# -- file format ----------------------------------------------------------------------


def save_set(A: SetA, path):
    with open(path, "w") as fh:
        fh.write(f"ctx={A.ctx.describe()}\n")
        if A.model_n is not None:
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
