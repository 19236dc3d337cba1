"""Transforms, convolution, and norms against definitional oracles."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from addlab.functions import (
    Dfn,
    _dual_domain,
    _dual_mean,
    _real_pair_convolutions,
    _real_pair_hats,
    character_matrix,
    convolve,
    fourier,
    fourier_mean_norm,
    inverse_fourier,
    load_dfn,
    save_dfn,
)
from addlab.groups import CyclicCtx, FieldCtx, VectorCtx
from addlab.util import spawn_rng

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
    return H.values @ np.conj(character_matrix(H.ctx)) / H.ctx.N


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
                fast = fourier(h).values
                direct = h.values.astype(complex) @ character_matrix(ctx)
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

    def test_float_entry_past_int64_raises(self):
        # an integer-valued float of 2^63 would wrap to -2^63 in the cast,
        # and so would a uint64 one; -2^63 is refused by the same bound
        ctx = CyclicCtx(5)
        for top in (np.float64(2.0**63), np.float64(-(2.0**63)), np.uint64(1 << 63)):
            big = Dfn(ctx, np.array([top, 0, 0, 0, 0], dtype=top.dtype))
            with pytest.raises(OverflowError, match="2\\^63"):
                convolve(big, Dfn.delta(ctx))

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


PAIR_CTXS = [
    CyclicCtx(16759),               # prime: pocketfft runs Bluestein
    CyclicCtx(12565),               # 5 * 7 * 359: the Good-Thomas split
    CyclicCtx(1000),                # even, so M/2 is its own negative
    VectorCtx(FieldCtx(3, 1), 4),
    VectorCtx(FieldCtx(5, 1), 2),
]


def real_inputs(ctx, seed):
    """delta_0, a symmetric interval, a sparse set, signed and nonnegative
    noise: real functions of l1 norm 1."""
    rng = spawn_rng(seed, 0)
    near = ctx.elements()[: min(ctx.N // 5, 40) + 1]
    interval = np.zeros(ctx.N)
    interval[near] = interval[np.asarray(ctx.neg(near))] = 1.0
    sparse = np.zeros(ctx.N)
    sparse[rng.choice(ctx.N, 12, replace=False)] = 1.0
    out = [Dfn.delta(ctx).values, interval, sparse,
           rng.normal(size=ctx.N), rng.uniform(0, 1, size=ctx.N)]
    return [v / np.abs(v).sum() for v in out]


def assert_sup_close(got, want, rel):
    assert np.abs(got - want).max() <= rel * np.abs(want).max()


class TestRealPairs:
    """Two real functions per complex transform, and dual sums over one xi
    of each pair {xi, -xi}."""

    @pytest.mark.parametrize("ctx", PAIR_CTXS, ids=repr)
    def test_paired_transforms_match_direct(self, ctx):
        # every ordered pair of distinct inputs, with l1 norms 2^40 apart
        # either way: each half within 1e-14 of its own transform's sup.
        # Scaling by a power of two commutes with a transform bit for bit,
        # so each direct transform is taken once, at norm 1.  The inverse
        # pairs invert hat(u) hat(delta_0), whose inverse is u again
        inputs = real_inputs(ctx, 38)
        delta = Dfn.delta(ctx)
        hats = [ctx.fft(u.astype(np.complex128)) for u in inputs]
        backs = [ctx.ifft(U * delta.hat()).real for U in hats]
        for (u, U, bu), (v, V, bv) in itertools.permutations(zip(inputs, hats, backs), 2):
            for e in (40, -40):
                h1, h2 = Dfn(ctx, u * 2.0**e), Dfn(ctx, v)
                _real_pair_hats(h1, h2)
                assert_sup_close(h1.hat(), U * 2.0**e, 1e-14)
                assert_sup_close(h2.hat(), V, 1e-14)
                got_u, got_v = _real_pair_convolutions(
                    (Dfn(ctx, u * 2.0**e)._with_hat(U * 2.0**e), delta),
                    (Dfn(ctx, v)._with_hat(V), delta))
                assert got_u.dtype == got_v.dtype == np.float64
                assert_sup_close(got_u, bu * 2.0**e, 1e-14)
                assert_sup_close(got_v, bv, 1e-14)

    @pytest.mark.parametrize("ctx", PAIR_CTXS, ids=repr)
    def test_paired_self_convolutions_match_direct(self, ctx):
        # u * u beside v * v, the pair energies' use; a flat convolution
        # (uniform noise) beside a spike (delta_0) is the hard case
        inputs = real_inputs(ctx, 38)
        hats = [ctx.fft(u.astype(np.complex128)) for u in inputs]
        backs = [ctx.ifft(U * U).real for U in hats]
        for (u, U, bu), (v, V, bv) in itertools.permutations(zip(inputs, hats, backs), 2):
            for e in (40, -40):
                hu = Dfn(ctx, u * 2.0**e)._with_hat(U * 2.0**e)
                hv = Dfn(ctx, v)._with_hat(V)
                got_u, got_v = _real_pair_convolutions((hu, Dfn(ctx, u)._with_hat(U)),
                                                       (hv, hv))
                assert_sup_close(got_u, bu * 2.0**e, 1e-14)
                assert_sup_close(got_v, bv, 1e-14)

    def test_pairs_with_zero_or_memoized_halves(self):
        ctx = CyclicCtx(31)
        x = spawn_rng(38, 1).normal(size=31)
        for other in (Dfn.zeros(ctx), Dfn(ctx, np.ones(31))._with_hat(ctx.fft(np.ones(31)))):
            memo, h = other._hat, Dfn(ctx, x)
            _real_pair_hats(h, other)
            assert_sup_close(h.hat(), ctx.fft(x.astype(np.complex128)), 1e-14)
            # a memoized transform is kept as it is; a zero one is exactly 0
            assert other.hat() is memo if memo is not None else not other.hat().any()
        h, delta = Dfn(ctx, x), Dfn.delta(ctx)
        back, zero = _real_pair_convolutions((h, delta), (Dfn.zeros(ctx), h))
        assert_sup_close(back, x, 1e-14)
        assert zero.dtype == np.float64 and not zero.any()
        with pytest.raises(ValueError, match="two real functions"):
            _real_pair_hats(Dfn(ctx, x), Dfn(ctx, x + 1j))
        with pytest.raises(ValueError, match="real functions"):
            _real_pair_convolutions((h, h), (h, Dfn(ctx, x + 1j)))

    @pytest.mark.parametrize("ctx", [CyclicCtx(1000), CyclicCtx(999), CyclicCtx(2),
                                     CyclicCtx(1), *PAIR_CTXS[3:],
                                     VectorCtx(FieldCtx(3, 2), 2)], ids=repr)
    def test_half_domain_mean_matches_full(self, ctx):
        # a product of dilated transforms of real functions, summed over one
        # xi of each pair {xi, -xi}, against the sum over every xi
        rng = spawn_rng(38, 2)
        xi = ctx.elements()
        half = _dual_domain(ctx, True)
        assert _dual_domain(ctx, False) == slice(None)
        assert len(xi[half]) == ctx.N // 2 + 1
        assert set(xi[half].tolist()) | set(np.asarray(ctx.neg(xi[half])).tolist()) \
            == set(xi.tolist())
        for _ in range(3):
            prod = np.ones(ctx.N, dtype=np.complex128)
            for a in (1, 1, -2, 3):
                h = Dfn(ctx, rng.normal(size=ctx.N))
                prod *= h.hat()[np.asarray(ctx.scale_int(a, xi))]
            full = prod.sum() / ctx.N
            got = _dual_mean(ctx, prod[half], True)
            assert type(got) is float
            assert abs(got - full.real) <= 1e-13 * max(abs(full), 1e-300)
            assert _dual_mean(ctx, prod, False) == full

    @pytest.mark.parametrize("ctx", PAIR_CTXS[2:], ids=repr)
    def test_fourier_mean_norm_over_half_the_group(self, ctx):
        h = Dfn(ctx, spawn_rng(38, 3).normal(size=ctx.N))
        mags = np.abs(h.hat())
        assert fourier_mean_norm(h, np.inf) == pytest.approx(mags.max(), rel=1e-15)
        for p in (2, 3, 4):
            want = (mags**p).mean() ** (1 / p)
            assert fourier_mean_norm(h, p) == pytest.approx(want, rel=1e-13)


class TestDualMoments:
    @pytest.mark.parametrize("ctx", [CyclicCtx(1000), CyclicCtx(999),
                                     VectorCtx(FieldCtx(3, 1), 3),
                                     VectorCtx(FieldCtx(3, 2), 2)], ids=repr)
    @pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
    def test_memo_matches_fresh(self, ctx, complex_, monkeypatch):
        # the memoized moment, and the norm read from it, against |hat h|
        # spelled out on a transform taken afresh, bit for bit
        h = rand_dfn(ctx, spawn_rng(38, 7), complex_=complex_)
        real = not complex_
        mags = np.abs(ctx.fft(h.values.astype(np.complex128))[_dual_domain(ctx, real)])
        for p in (np.inf, 2, 4):
            want = float(mags.max()) if p == np.inf else _dual_mean(ctx, mags**p, real)
            got = h.dual_moment(p)
            assert type(got) is float and got == want
            norm = want if p == np.inf else float(want ** (1.0 / p))
            assert fourier_mean_norm(h, p) == norm
        # a second ask reads the memo: |hat h| is not taken again
        monkeypatch.setattr("addlab.functions._dual_domain", None)
        assert [h.dual_moment(p) for p in (np.inf, 2, 4)] == [float(mags.max())] + [
            _dual_mean(ctx, mags**p, real) for p in (2, 4)]

    def test_arithmetic_and_with_hat_start_empty(self):
        ctx = CyclicCtx(64)
        rng = spawn_rng(38, 8)
        f, F = rand_dfn(ctx, rng, complex_=False), rand_dfn(ctx, rng, complex_=False)
        before = [(h.dual_moment(np.inf), h.dual_moment(4)) for h in (f, F)]
        g = f - F
        assert g._moments == {}
        fresh = Dfn(ctx, f.values - F.values)
        assert (g.dual_moment(np.inf), g.dual_moment(4)) == (
            fresh.dual_moment(np.inf), fresh.dual_moment(4))
        # a transform attached afterwards drops the moments of the old one
        g._with_hat(2.0 * g.hat())
        assert g._moments == {}
        assert g.dual_moment(np.inf) == float(np.abs(g.hat()[:33]).max())
        assert [(h.dual_moment(np.inf), h.dual_moment(4)) for h in (f, F)] == before


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


@pytest.mark.parametrize("values", [
    [np.inf, np.nan, -np.inf], [1.5, np.inf, 0.0], np.array([3, 4, 5], dtype=np.int64),
    [1e16, 2.0, 3.0]], ids=["non_finite", "mixed", "int64", "large_float"])
def test_serialization_keeps_dtype(tmp_path, values):
    # a file is read as int64 only when every value is a decimal integer,
    # so inf, nan and a float printed without a point stay float64
    h = Dfn(CyclicCtx(3), np.asarray(values))
    path = tmp_path / "h.dfn"
    save_dfn(h, path)
    back = load_dfn(path)
    assert back.values.dtype == h.values.dtype
    assert np.array_equal(back.values, h.values, equal_nan=True)


class TestIntegerValued:
    def test_value_test_runs_once(self, monkeypatch):
        rounds = []
        real_round = np.round

        def counted(*args, **kwargs):
            rounds.append(1)
            return real_round(*args, **kwargs)

        monkeypatch.setattr(np, "round", counted)
        ctx = CyclicCtx(12)
        f = Dfn(ctx, np.arange(12.0))
        F = Dfn(ctx, np.full(12, 0.5))
        assert all(f.is_integer_valued() for _ in range(3))
        assert len(rounds) == 1
        assert not any(F.is_integer_valued() for _ in range(3))
        assert len(rounds) == 2
        # a Dfn made by f - F gets its own answer, not f's
        assert not (f - F).is_integer_valued() and len(rounds) == 3
        assert (f - f).is_integer_valued() and len(rounds) == 4
        # integer dtypes and complex values need no value test
        for v in (np.arange(12), np.ones(12, dtype=bool), np.ones(12) + 0j):
            Dfn(ctx, v).is_integer_valued()
        assert len(rounds) == 4

    @pytest.mark.parametrize("dtype", [bool, np.uint8, np.uint64, np.float32])
    def test_other_integer_dtypes_convolve_as_int64(self, dtype):
        rng = spawn_rng(36, 0)
        for ctx in (CyclicCtx(37), VectorCtx(FieldCtx(3, 1), 4)):
            v = rng.integers(0, 2, size=ctx.N)
            h, ref = Dfn(ctx, v.astype(dtype)), Dfn(ctx, v)
            assert h.is_integer_valued()
            out, want = convolve(h, h).values, convolve(ref, ref).values
            assert out.dtype == np.int64 and np.array_equal(out, want)


def test_tag_follows_dtype():
    ctx = CyclicCtx(6)
    assert Dfn(ctx, np.ones(6)).tag == "real"
    assert Dfn(ctx, np.ones(6) + 1e-6j).tag == "complex"
    assert fourier(Dfn(ctx, np.ones(6))).tag == "complex"
    with pytest.raises(AttributeError):
        Dfn(ctx, np.ones(6)).tag = "complex"
