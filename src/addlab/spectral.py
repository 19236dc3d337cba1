"""Large spectra, Bohr sets, subspace spans/annihilators, and a large-sieve check.

Bohr-set membership is decided in exact integer arithmetic: with eps = a/b,
the torus condition ||n*xi/M|| < eps becomes min(k, M-k) * b < a * M for
k = n*xi mod M.  No floating comparison happens at the boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction

import numpy as np

from .functions import Dfn, fourier
from .groups import CyclicCtx, GroupCtx, VectorCtx
from .report import VerificationReport
from .sets import SetA
from .util import as_fraction

__all__ = [
    "Spectrum",
    "BohrSet",
    "Subspace",
    "spectrum",
    "bohr_set",
    "span",
    "annihilator",
    "uniform_measure",
    "large_sieve_check",
    "verify_spectrum_span_bound",
]


@dataclass
class Spectrum:
    """Frequencies xi with |hat 1_A (xi)| >= eps * |A| (ties included)."""

    ctx: GroupCtx
    eps: Fraction
    frequencies: np.ndarray          # sorted by |value| descending, then index
    values: np.ndarray               # hat 1_A at those frequencies
    set_size: int

    def __len__(self):
        return len(self.frequencies)

    def __contains__(self, xi):
        return int(xi) in set(int(f) for f in self.frequencies)


def spectrum(A: SetA, eps) -> Spectrum:
    """Exact scan of all N dual elements; threshold uses >= (ties in)."""
    eps = as_fraction(eps)
    if not 0 < eps <= 1:
        raise ValueError("eps must lie in (0, 1]")
    if len(A) == 0:
        raise ValueError("empty set has no spectrum")
    hat = fourier(A.indicator()).values
    mags = np.abs(hat)
    thr = float(eps) * len(A)
    sel = np.nonzero(mags >= thr)[0]
    order = np.lexsort((sel, -mags[sel]))
    freqs = sel[order]
    return Spectrum(
        ctx=A.ctx,
        eps=eps,
        frequencies=freqs.astype(np.int64),
        values=hat[freqs],
        set_size=len(A),
    )


@dataclass
class BohrSet:
    ctx: CyclicCtx
    model_n: int
    eps: Fraction
    spectrum_frequencies: np.ndarray
    elements: np.ndarray             # residues mod M, sorted
    signed: np.ndarray               # the same elements as signed integers

    def __len__(self):
        return len(self.elements)

    def indicator(self) -> Dfn:
        return Dfn.indicator(self.ctx, self.elements)


def bohr_set(spec: Spectrum, eps, model_n: int) -> BohrSet:
    """B = {n in [-eps*N, eps*N] : ||n*xi/M|| < eps for all spectrum xi}."""
    ctx = spec.ctx
    if not isinstance(ctx, CyclicCtx):
        raise ValueError("Bohr sets live in the cyclic model")
    eps = as_fraction(eps)
    if not 0 < eps < 1:
        raise ValueError("eps must lie in (0, 1)")
    M = ctx.M
    width = int(eps * model_n)  # floor: |n| <= eps*N for integers n
    width = min(width, (M - 1) // 2)
    cand = np.arange(-width, width + 1, dtype=np.int64)
    a, b = eps.numerator, eps.denominator
    freqs = spec.frequencies
    keep = np.ones(len(cand), dtype=bool)
    # exact integer test; fall back to python ints if products could overflow
    overflow = max(a, b) >= (1 << 62) // max(M, 1)
    for chunk_start in range(0, len(freqs), 64):
        chunk = freqs[chunk_start : chunk_start + 64]
        if not keep.any():
            break
        live = np.nonzero(keep)[0]
        if overflow:
            for i in live:
                n = int(cand[i])
                for xi in chunk:
                    k = (n * int(xi)) % M
                    if min(k, M - k) * b >= a * M:
                        keep[i] = False
                        break
        else:
            k = (cand[live, None] * chunk[None, :]) % M
            dist = np.minimum(k, M - k)
            ok = (dist * b < a * M).all(axis=1)
            keep[live] = ok
    members = cand[keep]
    assert 0 in members, "Bohr set must contain 0"
    assert set(members.tolist()) == set((-members).tolist()), "Bohr set not symmetric"
    residues = np.sort(members % M)
    return BohrSet(
        ctx=ctx,
        model_n=model_n,
        eps=eps,
        spectrum_frequencies=freqs.copy(),
        elements=residues.astype(np.int64),
        signed=np.sort(members),
    )


# -- subspaces over F_q ---------------------------------------------------------


@dataclass
class Subspace:
    ctx: VectorCtx
    basis: np.ndarray                # (dim, n) field-element indices, RREF
    _elements: np.ndarray | None = dc_field(default=None, repr=False)

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def size(self) -> int:
        return self.ctx.field.q ** self.dim

    def element_indices(self) -> np.ndarray:
        if self._elements is None:
            ctx = self.ctx
            elems = np.zeros(1, dtype=np.int64)
            for row in self.basis:
                row_idx = int(ctx.from_coords(row))
                scaled = [
                    ctx.scale_field(c, row_idx) for c in range(ctx.field.q)
                ]
                elems = np.concatenate(
                    [np.asarray(ctx.add(elems, sv)) for sv in scaled]
                )
            self._elements = np.sort(np.unique(elems))
            assert len(self._elements) == self.size
        return self._elements

    def contains(self, idx) -> bool:
        return int(idx) in set(int(e) for e in self.element_indices())

    def indicator(self) -> Dfn:
        return Dfn.indicator(self.ctx, self.element_indices())


def _rref(ctx: VectorCtx, rows: np.ndarray) -> np.ndarray:
    """Reduced row echelon form over F_q; returns the nonzero rows."""
    F = ctx.field
    mat = np.array(rows, dtype=np.int64).reshape(-1, ctx.n)
    nrows = len(mat)
    pivot_row = 0
    for col in range(ctx.n):
        sel = None
        for rr in range(pivot_row, nrows):
            if mat[rr, col] != 0:
                sel = rr
                break
        if sel is None:
            continue
        mat[[pivot_row, sel]] = mat[[sel, pivot_row]]
        inv = F.inv(int(mat[pivot_row, col]))
        mat[pivot_row] = F.mul(np.int64(inv), mat[pivot_row])
        for rr in range(nrows):
            if rr != pivot_row and mat[rr, col] != 0:
                factor = int(mat[rr, col])
                mat[rr] = F.sub(mat[rr], F.mul(np.int64(factor), mat[pivot_row]))
        pivot_row += 1
        if pivot_row == nrows:
            break
    nonzero = [r for r in range(len(mat)) if np.any(mat[r])]
    return mat[nonzero]


def span(ctx: VectorCtx, vectors) -> Subspace:
    """F_q-linear span; vectors are element indices or coordinate rows."""
    if len(vectors) == 0:
        return Subspace(ctx, np.zeros((0, ctx.n), dtype=np.int64))
    vecs = np.asarray(vectors, dtype=np.int64)
    coords = ctx.coords(vecs) if vecs.ndim == 1 else vecs
    return Subspace(ctx, _rref(ctx, coords))


def annihilator(V: Subspace) -> Subspace:
    """{x : <x, xi> = 0 for all xi in V} under the F_q dot product."""
    ctx = V.ctx
    F = ctx.field
    n = ctx.n
    if V.dim == 0:
        return Subspace(ctx, _rref(ctx, np.eye(n, dtype=np.int64)))
    mat = _rref(ctx, V.basis)
    pivots = []
    for row in mat:
        col = int(np.nonzero(row)[0][0])
        pivots.append(col)
    free_cols = [c for c in range(n) if c not in pivots]
    null_rows = []
    for fc in free_cols:
        vec = np.zeros(n, dtype=np.int64)
        vec[fc] = 1
        for rr, pc in enumerate(pivots):
            vec[pc] = F.neg(int(mat[rr, fc]))
        null_rows.append(vec)
    if not null_rows:
        return Subspace(ctx, np.zeros((0, n), dtype=np.int64))
    return Subspace(ctx, _rref(ctx, np.array(null_rows, dtype=np.int64)))


def uniform_measure(smoother) -> Dfn:
    """mu = indicator / size, for a BohrSet or Subspace."""
    ind = smoother.indicator()
    return Dfn(ind.ctx, ind.values / len(ind.support()))


def verify_spectrum_span_bound(A: SetA, spec: Spectrum, V: Subspace):
    """dim(V) * (eps |A|)^4 <= N * E_2 with exact rationals on both sides."""
    from .energy import pair_energy

    e2 = pair_energy(A, 2)
    N = A.ctx.N
    eps = spec.eps
    rep = VerificationReport(
        lemma="spectrum_span_dimension",
        inputs={"set": A.provenance, "eps": eps, "N": N},
        quantities={"dim": V.dim, "spectrum_size": len(spec), "E_2": e2},
    )
    rep.check("dim_le_spectrum", V.dim, "<=", len(spec), exact=True)
    lhs = V.dim * (eps * len(A)) ** 4
    rhs = Fraction(N * e2)
    rep.check("dim_energy_bound", lhs, "<=", rhs, exact=True)
    if rhs:
        rep.measured_ratios["dim_bound_fill"] = float(lhs / rhs)
    return rep


# -- large sieve -----------------------------------------------------------------


def large_sieve_check(points, delta, coeffs):
    """S(g) = sum_{n<=N1} a(n) e(n*g); asserts sum |S|^2 <= (N1 + 1/delta) sum |a|^2.

    Points must be pairwise delta-separated mod 1 (open intervals disjoint).
    The asserted constant is the sharp classical one, which is stronger than
    the stated form; a violation that still satisfies twice the bound is
    flagged as a discrepancy rather than silently failed.
    """
    delta = as_fraction(delta)
    if delta <= 0:
        raise ValueError("delta must be positive")
    pts = [as_fraction(p) % 1 for p in points]
    if not pts:
        raise ValueError("need at least one point")
    srt = sorted(pts)
    gaps = [srt[i + 1] - srt[i] for i in range(len(srt) - 1)]
    if len(srt) > 1:
        gaps.append(1 - srt[-1] + srt[0])
        if min(gaps) < 2 * delta:
            raise ValueError("intervals around the points overlap mod 1")
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    N1 = len(coeffs)
    ns = np.arange(1, N1 + 1)
    lhs = 0.0
    for g in pts:
        S = np.exp(2j * np.pi * ns * float(g)) @ coeffs
        lhs += abs(S) ** 2
    rhs = (N1 + 1 / float(delta)) * float((np.abs(coeffs) ** 2).sum())
    rep = VerificationReport(
        lemma="large_sieve",
        inputs={"points": [str(p) for p in pts], "delta": delta, "N1": N1},
        quantities={"lhs": lhs, "rhs": rhs},
    )
    ok = rep.check("sieve_bound", lhs, "<=", rhs, tol=1e-12)
    if not ok and lhs <= 2 * rhs:
        rep.flags.append(
            "sharp-constant violation within the factor-2 relaxation; "
            "classical constant may be the culprit"
        )
    rep.measured_ratios["sieve_fill"] = lhs / rhs if rhs else 0.0
    return rep
