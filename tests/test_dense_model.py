"""Dense model construction and its exactly-checked properties."""

from fractions import Fraction
from functools import reduce
from itertools import product
from operator import and_

import numpy as np
import pytest

from addlab import dense_model, sets
from addlab.dense_model import (
    TRIVIAL_SMOOTHER_FLAG,
    build_dense_model,
    verify_model_properties,
    verify_smoothing_decomposition,
)
from addlab.energy import vanishing_eta
from addlab.functions import convolve
from addlab.groups import CyclicCtx, FieldCtx, VectorCtx
from addlab.sets import (
    SetA,
    FreenessError,
    erdos_turan_sidon,
    greedy_kst_free,
    rep_tuple,
    subspace_set,
)
from addlab.spectral import annihilator, span, spectrum
from addlab.util import indices_to_mask, spawn_rng


CTX34 = VectorCtx(FieldCtx(3, 1), 4)


class TestBuild:
    def test_subspace_is_fixed_point(self):
        # smoothing a subspace by the annihilator of the span of its large
        # spectrum returns it, through the steps build_dense_model takes; the
        # model itself refuses the subspace, which is not K_{2,2}-free
        basis = [CTX34.parse_element("1 0 0 0"), CTX34.parse_element("0 0 1 0")]
        A = subspace_set(CTX34, basis)
        H = annihilator(span(CTX34, spectrum(A, "1/2").frequencies))
        smoothed = convolve(A.indicator(), H.indicator()).values / H.size
        np.testing.assert_array_equal(smoothed, A.indicator().values)
        with pytest.raises(FreenessError):
            build_dense_model(A, 2, 2, "1/2")

    def test_full_spectrum_gives_delta_smoother(self):
        # tiny eps: Spec = everything, V = G, H = {0}, f = N^{1/s} 1_A
        A = greedy_kst_free(2, 2, CTX34.N, seed=2, ctx=CTX34)
        model = build_dense_model(A, 2, 2, Fraction(1, 10**6))
        assert model.smoother_size == 1
        assert np.allclose(model.f.values, CTX34.N**0.5 * A.indicator().values)
        # g = f - N^{1/s} 1_A = 0: the model is flagged, not silently vacuous
        rep = verify_model_properties(model)
        assert rep.flags == [TRIVIAL_SMOOTHER_FLAG]
        assert "flags" not in rep.quantities

    def test_finite_field_model_carries_its_span(self, monkeypatch):
        # integer_f is the coset count 1_A * 1_H, and the properties read the
        # model's V = H^perp rather than span the spectrum again
        A = greedy_kst_free(2, 2, CTX34.N, seed=5, ctx=CTX34)
        model = build_dense_model(A, 2, 2, "1/2")
        assert np.array_equal(model.V.basis, span(CTX34, model.spec.frequencies).basis)
        assert np.array_equal(annihilator(model.V).basis, model.smoother.basis)
        exact = convolve(A.indicator(), model.smoother.indicator()).values
        np.testing.assert_array_equal(model.integer_f.values, exact)

        def no_span(*args):
            raise AssertionError("span ran again")

        monkeypatch.setattr(dense_model, "span", no_span)
        assert verify_model_properties(model).passed
        assert build_dense_model(erdos_turan_sidon(5), 2, 2, "1/4").V is None

    def test_freeness_precondition(self):
        A = SetA(CyclicCtx(30), [0, 1, 2, 3], model_n=10)
        with pytest.raises(FreenessError) as exc:
            build_dense_model(A, 2, 2, "1/4")
        assert exc.value.witness is not None

    def test_integer_model_reembeds(self):
        A = erdos_turan_sidon(5, M=55)
        model = build_dense_model(A, 2, 2, "1/4")
        n = model.A.model_n
        assert model.f.ctx.M >= n + 2 * int(Fraction(1, 4) * n) + 1

    def test_nonnegative_and_mass(self):
        for p in (5, 7):
            A = erdos_turan_sidon(p)
            model = build_dense_model(A, 2, 2, "1/8")
            assert model.f.values.min() >= 0
            assert model.f.values.sum() == pytest.approx(
                model.scale * len(A), rel=1e-12
            )


class TestProperties:
    @pytest.mark.parametrize(
        "p,eps", [(5, "1/4"), (7, "1/8"), (11, "1/6"), (5, "3/5"), (7, "1/2")]
    )
    def test_integer_model(self, p, eps):
        A = erdos_turan_sidon(p)
        model = build_dense_model(A, 2, 2, eps)
        rep = verify_model_properties(model)
        assert rep.passed, [str(a.name) for a in rep.failing()]

    @pytest.mark.parametrize("st,eps", [((2, 2), "1/2"), ((2, 3), "1/3"),
                                         ((2, 2), "1/4")])
    def test_finite_field_model(self, st, eps):
        s, t = st
        A = greedy_kst_free(s, t, CTX34.N, seed=s * 10 + t, ctx=CTX34)
        model = build_dense_model(A, s, t, eps)
        rep = verify_model_properties(model)
        assert rep.passed, [str(a.name) for a in rep.failing()]

    def test_mass_is_exact_integers(self):
        A = greedy_kst_free(2, 2, CTX34.N, seed=7, ctx=CTX34)
        model = build_dense_model(A, 2, 2, "1/2")
        assert int(model.integer_f.values.sum()) == len(A) * model.smoother_size

    def test_finite_field_gap_bound_matches_offspec_scan(self):
        A = greedy_kst_free(2, 2, CTX34.N, seed=5, ctx=CTX34)
        eps = Fraction(1, 2)
        model = build_dense_model(A, 2, 2, eps)
        hat_A = A.indicator().hat()
        V = span(CTX34, model.spec.frequencies)
        off = np.ones(CTX34.N, dtype=bool)
        off[V.element_indices()] = False
        gap = np.abs(model.f.hat() - model.scale * hat_A)
        if off.any():
            assert gap[off].max() <= float(eps) * model.scale * len(A) * (1 + 1e-9)
            assert np.abs(model.f.hat()[off]).max() <= 1e-8 * CTX34.N

    def test_moment_bound_rescaled_chain(self):
        # the all-integer form of the moment property, recomputed by hand
        A = greedy_kst_free(2, 3, CTX34.N, seed=12, ctx=CTX34)
        model = build_dense_model(A, 2, 3, "1/2")
        conv = model.integer_f.values
        S = sum(int(v) ** 2 for v in conv)
        eta = vanishing_eta(A, 2, 3)
        size = model.smoother_size
        assert Fraction(S) <= 3 * Fraction(size) ** 2 + Fraction(eta, 3) * len(A) ** 2 * size


class TestSmoothingDecomposition:
    def test_trivial_smoother(self):
        # H = {0}: S = |A|, and the bound reads |A| <= t + eta|A|^s
        A = greedy_kst_free(2, 2, CTX34.N, seed=3, ctx=CTX34)
        H = span(CTX34, [])
        rep = verify_smoothing_decomposition(A, 2, 2, H)
        assert rep.passed
        assert rep.quantities["S"] == len(A)

    def test_full_group_smoother(self):
        # H = G: 1_A * 1_G is constantly |A|, S = N |A|^s
        ctx = VectorCtx(FieldCtx(3, 1), 3)
        A = greedy_kst_free(2, 2, ctx.N, seed=4, ctx=ctx)
        basis = [ctx.parse_element(v) for v in ("1 0 0", "0 1 0", "0 0 1")]
        H = span(ctx, basis)
        rep = verify_smoothing_decomposition(A, 2, 2, H)
        assert rep.passed
        assert rep.quantities["S"] == ctx.N * len(A) ** 2

    def test_empty_set(self):
        H = span(CTX34, [CTX34.parse_element("1 0 0 0")])
        rep = verify_smoothing_decomposition(SetA(CTX34, []), 2, 2, H)
        assert rep.passed
        assert rep.quantities["S"] == 0

    def test_model_smoother_exhaustive(self):
        A = greedy_kst_free(2, 2, CTX34.N, seed=6, ctx=CTX34)
        model = build_dense_model(A, 2, 2, "1/2")
        rep = verify_smoothing_decomposition(A, 2, 2, model.smoother)
        assert rep.passed
        # exhaustive path must have run the tuple-sum cross check
        assert any(a.name == "tuple_sum_matches_S" for a in rep.assertions)

    def test_identity_sampled_path_flagged(self, monkeypatch):
        # a small tuple budget forces the sampled path; the flag must say so
        monkeypatch.setattr(dense_model, "_TUPLE_BUDGET", 1000)
        ctx = VectorCtx(FieldCtx(3, 1), 5)
        A = greedy_kst_free(2, 2, ctx.N, seed=8, ctx=ctx)
        basis = [ctx.parse_element(v) for v in
                 ("1 0 0 0 0", "0 1 0 0 0", "0 0 1 0 0", "0 0 0 1 0")]
        H = span(ctx, basis)  # |H| = 81, |H|^2 = 6561 tuples
        rep = verify_smoothing_decomposition(A, 2, 2, H)
        assert rep.passed
        assert any("sample" in f for f in rep.flags)


def _spy_rep_tuples(monkeypatch):
    """Route dense_model's batched r_A through a wrapper that compares every
    row with the scalar rep_tuple oracle; returns the batch lengths seen."""
    batches = []

    def spy(A, tuples):
        counts = sets.rep_tuples(A, tuples)
        assert counts.tolist() == [rep_tuple(A, row) for row in tuples]
        batches.append(len(tuples))
        return counts

    monkeypatch.setattr(dense_model, "rep_tuples", spy)
    return batches


class TestBatchedIdentity:
    @pytest.mark.parametrize("q,n", [(3, 3), (3, 4), (5, 2)])
    @pytest.mark.parametrize("s", [2, 3])
    def test_exhaustive_matches_scalar(self, monkeypatch, q, n, s):
        ctx = VectorCtx(FieldCtx(q, 1), n)
        A = greedy_kst_free(s, s, ctx.N, seed=10 * q + n + s, ctx=ctx)
        H = span(ctx, [q**j for j in range(n - 1)])  # |H| = q^(n-1)
        batches = _spy_rep_tuples(monkeypatch)
        rep = verify_smoothing_decomposition(A, s, s, H)
        assert rep.passed
        assert batches == [rep.quantities["identity_checks"]] and batches[0] > 0
        assert any(a.name == "tuple_sum_matches_S" for a in rep.assertions)

    @pytest.mark.parametrize("q,n", [(3, 4), (5, 2)])
    def test_sampled_matches_scalar_across_blocks(self, monkeypatch, q, n):
        monkeypatch.setattr(dense_model, "_TUPLE_BUDGET", 10)
        ctx = VectorCtx(FieldCtx(q, 1), n)
        A = greedy_kst_free(2, 2, ctx.N, seed=q + n, ctx=ctx)
        H = span(ctx, [q**j for j in range(n)])  # H = G: every sampled row counts
        batches = _spy_rep_tuples(monkeypatch)
        rep = verify_smoothing_decomposition(A, 2, 2, H)
        assert rep.passed
        assert any("sample" in f for f in rep.flags)
        assert batches[0] > sets._TUPLE_BLOCK  # more than one block of rows

    def test_off_by_one_count_fails_identity(self, monkeypatch):
        monkeypatch.setattr(
            dense_model, "rep_tuples", lambda A, tuples: sets.rep_tuples(A, tuples) + 1
        )
        A = greedy_kst_free(2, 2, CTX34.N, seed=6, ctx=CTX34)
        H = span(CTX34, [1, 3])
        rep = verify_smoothing_decomposition(A, 2, 2, H)
        (identity,) = [a for a in rep.assertions if a.name == "tuple_identity"]
        assert not identity.passed and not rep.passed


def tuple_loop_oracle(A, s, t, H):
    """The tuple pass one tuple at a time, on Python-int bitsets of the
    translates A + h: (sum of |S_h|, sum of (|S_h| - t)_+, sum of
    |S_h| (|S_h| - t)_+, the checked tuples x - h, their |S_h|)."""
    ctx = A.ctx
    h = H.element_indices()
    if len(h) ** s <= dense_model._TUPLE_BUDGET:
        rows = product(range(len(h)), repeat=s)
    else:
        rows = spawn_rng(0, 0x5DEC).integers(0, len(h), size=(5000, s))
    masks = [indices_to_mask(np.asarray(ctx.add(A.indices, int(x))), ctx.N) for x in h]
    recon = lhs = rhs = 0
    tuples, sizes = [], []
    for row in rows:
        mask = reduce(and_, [masks[j] for j in row])
        sz = mask.bit_count()
        recon += sz
        if sz > t:
            lhs += sz - t
            rhs += sz * (sz - t)
        if sz and len(sizes) < dense_model._IDENTITY_CHECKS:
            x = (mask & -mask).bit_length() - 1
            tuples.append([int(ctx.sub(x, int(h[j]))) for j in row])
            sizes.append(sz)
    return recon, lhs, rhs, tuples, sizes


class TestTuplePass:
    """The block pass over the boolean translate matrix against the per-tuple
    loop: the same sums and the same checked tuples in the same order."""

    def _compare(self, monkeypatch, A, s, t, H):
        seen = []

        def spy(A, tuples):
            seen.append(np.asarray(tuples).tolist())
            return sets.rep_tuples(A, tuples)

        monkeypatch.setattr(dense_model, "rep_tuples", spy)
        rep = verify_smoothing_decomposition(A, s, t, H)
        recon, lhs, rhs, tuples, sizes = tuple_loop_oracle(A, s, t, H)
        assert rep.passed
        assert rep.quantities["identity_checks"] == len(sizes) > 0
        assert seen == [tuples]
        checks = {a.name: a for a in rep.assertions}
        if "tuple_sum_matches_S" in checks:
            assert checks["tuple_sum_matches_S"].lhs == recon
            assert checks["excess_linearization"].lhs == t * lhs
            assert checks["excess_linearization"].rhs == rhs
        return rep

    @pytest.mark.parametrize("s,t,dim", [(2, 2, 2), (2, 3, 3), (3, 3, 3)])
    def test_exhaustive(self, monkeypatch, s, t, dim):
        A = greedy_kst_free(s, t, CTX34.N, seed=5 + s + t, ctx=CTX34)
        H = span(CTX34, [3**j for j in range(dim)])
        rep = self._compare(monkeypatch, A, s, t, H)
        assert "tuple_sum_matches_S" in {a.name for a in rep.assertions}

    def test_sampled(self, monkeypatch):
        monkeypatch.setattr(dense_model, "_TUPLE_BUDGET", 100)
        A = greedy_kst_free(2, 2, CTX34.N, seed=7, ctx=CTX34)
        H = span(CTX34, [1, 3, 9])  # |H|^2 = 729 tuples, 5000 sampled rows
        rep = self._compare(monkeypatch, A, 2, 2, H)
        assert any("sample" in f for f in rep.flags)

    @pytest.mark.parametrize("budget", [None, 100])
    def test_identity_cap(self, monkeypatch, budget):
        # a cap that falls inside the second block of rows
        monkeypatch.setattr(dense_model, "_IDENTITY_CHECKS", dense_model._TUPLE_ROWS + 44)
        if budget:
            monkeypatch.setattr(dense_model, "_TUPLE_BUDGET", budget)
        A = greedy_kst_free(2, 3, CTX34.N, seed=2, ctx=CTX34)
        H = span(CTX34, [1, 3, 9])
        rep = self._compare(monkeypatch, A, 2, 3, H)
        assert rep.quantities["identity_checks"] == dense_model._TUPLE_ROWS + 44
