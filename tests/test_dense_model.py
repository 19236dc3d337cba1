"""Dense model construction and its exactly-checked properties."""

from fractions import Fraction

import numpy as np
import pytest

from addlab import dense_model
from addlab.dense_model import (
    TRIVIAL_SMOOTHER_FLAG,
    build_dense_model,
    verify_model_properties,
    verify_smoothing_decomposition,
)
from addlab.energy import vanishing_eta
from addlab.groups import CyclicCtx, FieldCtx, VectorCtx
from addlab.sets import (
    SetA,
    FreenessError,
    erdos_turan_sidon,
    greedy_kst_free,
    subspace_set,
)
from addlab.spectral import annihilator, span, spectrum


CTX34 = VectorCtx(FieldCtx(3, 1), 4)


class TestBuild:
    def test_subspace_is_fixed_point(self):
        # smoothing a subspace by its own annihilator's annihilator returns it
        basis = [CTX34.parse_element("1 0 0 0"), CTX34.parse_element("0 0 1 0")]
        A = subspace_set(CTX34, basis)
        model = build_dense_model(A, 2, 2, "1/2", check_free=False)
        expect = CTX34.N ** 0.5 * A.indicator().values
        assert np.allclose(model.f.values, expect, rtol=1e-12)
        assert model.diagnostics["mass"] == pytest.approx(CTX34.N**0.5 * len(A))

    def test_full_spectrum_gives_delta_smoother(self):
        # tiny eps: Spec = everything, V = G, H = {0}, f = N^{1/s} 1_A
        A = greedy_kst_free(2, 2, CTX34.N, seed=2, ctx=CTX34)
        model = build_dense_model(A, 2, 2, Fraction(1, 10**6))
        assert model.smoother_size == 1
        assert np.allclose(model.f.values, CTX34.N**0.5 * A.indicator().values)
        # g = f - N^{1/s} 1_A = 0: the model is flagged, not silently vacuous
        assert model.diagnostics["flags"] == [TRIVIAL_SMOOTHER_FLAG]
        rep = verify_model_properties(model)
        assert rep.flags == [TRIVIAL_SMOOTHER_FLAG]
        assert "flags" not in rep.quantities

    def test_freeness_precondition(self):
        A = SetA(CyclicCtx(30), [0, 1, 2, 3])
        with pytest.raises(FreenessError) as exc:
            build_dense_model(A, 2, 2, "1/4", n_model=10)
        assert exc.value.witness is not None

    def test_integer_model_reembeds(self):
        A = erdos_turan_sidon(5, M=55)
        model = build_dense_model(A, 2, 2, "1/4")
        n = model.n_model
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
