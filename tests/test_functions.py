"""Transforms, convolution, and norms against definitional oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from addlab.functions import (
    Dfn,
    _character_matrix,
    convolve,
    fourier,
    fourier_mean_norm,
    inverse_fourier,
    load_dfn,
    norms,
    save_dfn,
)
from addlab.groups import CyclicCtx, FieldCtx, VectorCtx

CTXS = [
    CyclicCtx(12),
    CyclicCtx(64),
    VectorCtx(FieldCtx(3, 1), 4),   # N = 81
    VectorCtx(FieldCtx(5, 1), 3),   # N = 125
]


def definitional_convolve(h1, h2):
    """sum_y h1(y) h2(x - y) for every x at once, the O(N^2) oracle."""
    x = h1.ctx.elements()
    return h2.values[h1.ctx.sub(x[:, None], x[None, :])] @ h1.values


def definitional_inverse(H):
    """(1/N) sum_xi H(xi) character(x, xi), the O(N^2) oracle."""
    return H.values @ np.conj(_character_matrix(H.ctx)) / H.ctx.N


def rand_dfn(ctx, rng, complex_=True):
    v = rng.normal(size=ctx.N)
    if complex_:
        v = v + 1j * rng.normal(size=ctx.N)
    return Dfn(ctx, v)


class TestFourier:
    def test_delta_transforms_to_ones(self):
        for ctx in CTXS:
            h = Dfn.delta(ctx)
            assert np.allclose(fourier(h).values, np.ones(ctx.N), atol=1e-12)

    def test_constant_transforms_to_delta(self):
        Z = CyclicCtx(16)
        hat = fourier(Dfn.constant(Z, 1.0)).values
        expect = np.zeros(16, complex)
        expect[0] = 16
        assert np.allclose(hat, expect, atol=1e-9)

    def test_z4_indicator_values(self):
        Z4 = CyclicCtx(4)
        hat = fourier(Dfn.indicator(Z4, [0, 1])).values
        # |1 + e(-xi/4)|^2 by the direct summation oracle
        assert np.allclose(np.abs(hat) ** 2, [4, 2, 0, 2], atol=1e-12)

    def test_fast_matches_direct(self):
        rng = np.random.default_rng(11)
        for ctx in CTXS:
            for _ in range(5):
                h = rand_dfn(ctx, rng)
                fast = fourier(h, "fast").values
                direct = fourier(h, "direct").values
                scale = np.abs(direct).max()
                assert np.abs(fast - direct).max() < 1e-9 * scale

    def test_roundtrip_random(self):
        rng = np.random.default_rng(3)
        for ctx in CTXS + [CyclicCtx(81), CyclicCtx(125)]:
            worst = 0.0
            for _ in range(25):
                h = rand_dfn(ctx, rng)
                back = inverse_fourier(fourier(h)).values
                worst = max(worst, np.abs(back - h.values).max())
            assert worst < 1e-9

    def test_inverse_matches_definition(self):
        rng = np.random.default_rng(6)
        for ctx in CTXS:
            H = rand_dfn(ctx, rng)
            assert np.allclose(inverse_fourier(H).values, definitional_inverse(H),
                               atol=1e-12)

    def test_inverse_of_ones_is_delta(self):
        Z = CyclicCtx(10)
        back = inverse_fourier(Dfn.constant(Z, 1.0)).values
        expect = np.zeros(10)
        expect[0] = 1
        assert np.allclose(back, expect, atol=1e-12)

    def test_indicator_roundtrip_exact_after_rounding(self):
        rng = np.random.default_rng(5)
        for ctx in CTXS:
            picks = np.nonzero(rng.random(ctx.N) < 0.4)[0]
            h = Dfn.indicator(ctx, picks)
            back = inverse_fourier(fourier(h)).values
            assert np.array_equal(np.round(back.real).astype(int), h.values)

    def test_linearity_and_conjugation(self):
        rng = np.random.default_rng(8)
        for ctx in (CyclicCtx(30), VectorCtx(FieldCtx(3, 2), 1)):
            h1, h2 = rand_dfn(ctx, rng), rand_dfn(ctx, rng)
            a, b = 1.3 - 0.2j, -0.7 + 2j
            lhs = fourier(Dfn(ctx, a * h1.values + b * h2.values)).values
            rhs = a * fourier(h1).values + b * fourier(h2).values
            assert np.allclose(lhs, rhs, atol=1e-9)
            real = Dfn(ctx, rng.normal(size=ctx.N))
            hat = fourier(real).values
            neg = np.asarray(ctx.neg(ctx.elements()))
            assert np.allclose(hat[neg], np.conj(hat), atol=1e-9)


class TestConvolve:
    def test_z8_example(self):
        Z8 = CyclicCtx(8)
        h = Dfn.indicator(Z8, [0, 1])
        assert convolve(h, h).values.tolist() == [1, 2, 1, 0, 0, 0, 0, 0]
        assert definitional_convolve(h, h).tolist() == [1, 2, 1, 0, 0, 0, 0, 0]

    def test_delta_is_identity(self):
        rng = np.random.default_rng(2)
        for ctx in CTXS:
            h = rand_dfn(ctx, rng)
            assert np.allclose(convolve(h, Dfn.delta(ctx)).values, h.values, atol=1e-12)
            assert np.allclose(definitional_convolve(h, Dfn.delta(ctx)), h.values,
                               atol=1e-12)

    def test_difference_count_oracle(self):
        # 1_A * 1_(-A) at d counts ordered pairs with difference d;
        # exhaustive pair enumeration for N up to 256
        rng = np.random.default_rng(4)
        for ctx in (CyclicCtx(37), CyclicCtx(256), VectorCtx(FieldCtx(3, 1), 4)):
            picks = np.nonzero(rng.random(ctx.N) < 0.3)[0]
            A = [int(x) for x in picks]
            left = Dfn.indicator(ctx, picks)
            right = Dfn.indicator(ctx, ctx.neg(picks))
            out = convolve(left, right).values
            oracle = np.zeros(ctx.N, dtype=np.int64)
            for a in A:
                for b in A:
                    oracle[int(ctx.sub(a, b))] += 1
            assert np.array_equal(out, oracle)

    def test_fast_integer_rounding(self):
        rng = np.random.default_rng(9)
        ctx = CyclicCtx(90)
        a = Dfn(ctx, rng.integers(0, 7, size=90))
        b = Dfn(ctx, rng.integers(0, 7, size=90))
        exact = convolve(a, b)
        assert exact.values.dtype == np.int64
        assert np.array_equal(exact.values, definitional_convolve(a, b))

    def test_ctx_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            convolve(Dfn.delta(CyclicCtx(4)), Dfn.delta(CyclicCtx(5)))

    def test_convolution_theorem(self):
        rng = np.random.default_rng(12)
        for ctx in CTXS:
            h1, h2 = rand_dfn(ctx, rng), rand_dfn(ctx, rng)
            conv = convolve(h1, h2)
            lhs = fourier(conv).values
            rhs = fourier(h1).values * fourier(h2).values
            assert np.abs(lhs - rhs).max() < 1e-9 * max(1.0, np.abs(rhs).max())
            direct = definitional_convolve(h1, h2)
            scale = max(1.0, np.abs(direct).max())
            assert np.abs(conv.values - direct).max() < 1e-9 * scale


class TestNorms:
    def test_indicator_norms(self):
        ctx = CyclicCtx(40)
        A = [1, 5, 17, 30]
        h = Dfn.indicator(ctx, A)
        n = norms(h, p=3)
        assert n.l1 == len(A)
        assert n.l2 == pytest.approx(len(A) ** 0.5)
        assert n.lp == pytest.approx(len(A) ** (1 / 3))
        assert n.sup == 1
        # nonnegative h attains its Fourier sup at 0
        assert n.fourier_sup == pytest.approx(len(A))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_parseval(self, seed):
        rng = np.random.default_rng(seed)
        ctx = CTXS[seed % len(CTXS)]
        h = rand_dfn(ctx, rng)
        phys = (np.abs(h.values) ** 2).sum()
        dual = (np.abs(fourier(h).values) ** 2).mean()
        assert abs(phys - dual) < 1e-9 * phys

    def test_pair_energy_identity_example(self):
        # A = {0,1} in Z_4: sum r(d)^2 = 6 = (1/N) sum |hat 1_A|^4
        ctx = CyclicCtx(4)
        h = Dfn.indicator(ctx, [0, 1])
        r = convolve(h, Dfn.indicator(ctx, ctx.neg(np.array([0, 1])))).values
        assert (r.astype(object) ** 2).sum() == 6
        dual = (np.abs(fourier(h).values) ** 4).mean()
        assert dual == pytest.approx(6.0, rel=1e-12)

    def test_fourier_mean_norm(self):
        ctx = CyclicCtx(9)
        h = Dfn.indicator(ctx, [0, 3, 6])
        assert fourier_mean_norm(h, np.inf) == pytest.approx(3.0)
        assert fourier_mean_norm(h, 2.0) == pytest.approx(
            ((np.abs(fourier(h).values) ** 2).mean()) ** 0.5
        )

    def test_p_below_one_rejected(self):
        with pytest.raises(ValueError):
            norms(Dfn.delta(CyclicCtx(4)), p=0.5)


def test_serialization_roundtrip(tmp_path):
    rng = np.random.default_rng(1)
    for ctx in (CyclicCtx(20), VectorCtx(FieldCtx(3, 2), 1)):
        for tag_complex in (False, True):
            h = rand_dfn(ctx, rng, complex_=tag_complex)
            path = tmp_path / f"f_{ctx.N}_{tag_complex}.dfn"
            save_dfn(h, path)
            back = load_dfn(path)
            assert back.ctx == ctx
            assert back.tag == h.tag
            assert np.allclose(back.values, h.values, atol=0)
    ind = Dfn.indicator(CyclicCtx(12), [0, 5])
    path = tmp_path / "ind.dfn"
    save_dfn(ind, path)
    back = load_dfn(path)
    assert back.values.dtype == np.int64
    assert np.array_equal(back.values, ind.values)


def test_tag_follows_dtype():
    ctx = CyclicCtx(6)
    assert Dfn(ctx, np.ones(6)).tag == "real"
    assert Dfn(ctx, np.ones(6) + 1e-6j).tag == "complex"
    assert fourier(Dfn(ctx, np.ones(6))).tag == "complex"
    with pytest.raises(AttributeError):
        Dfn(ctx, np.ones(6)).tag = "complex"
