"""The exact integer convolution kernel against the routes it replaced."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from addlab import functions
from addlab.counting import EquationSpec, count_T
from addlab.functions import _ntt_primes, _pushforward, exact_convolve, values_at_zero
from addlab.groups import CyclicCtx, FieldCtx, VectorCtx, is_prime
from addlab.sets import SetA
from addlab.util import spawn_rng

CTXS = [
    CyclicCtx(1),
    CyclicCtx(2),
    CyclicCtx(31),                  # prime M
    CyclicCtx(64),                  # power-of-two M
    VectorCtx(FieldCtx(3, 1), 4),   # F_3^4
    VectorCtx(FieldCtx(5, 1), 2),   # F_5^2
    VectorCtx(FieldCtx(3, 1), 7),   # F_3^7
    VectorCtx(FieldCtx(3, 2), 2),   # F_9^2: 4 base-3 digit axes
    VectorCtx(FieldCtx(3, 3), 1),   # F_27^1: 3 base-3 digit axes
    VectorCtx(FieldCtx(7, 1), 2),   # F_7^2
    VectorCtx(FieldCtx(101, 1, (0, 1)), 1),  # F_101: one 101 x 101 kernel
]


# -- oracles: the routes the kernel replaced ------------------------------------


def dense_fold_oracle(M, v1, v2):
    """Dense linear np.convolve on Z, folded mod M."""
    lin = np.convolve(v1, v2)
    out = lin[:M].copy()
    tail = lin[M:]
    out[: len(tail)] += tail
    return out


def translate_oracle(ctx, v1, v2):
    """Sum of translates: out[y + x] += v1[y] v2[x] for every y in supp(v1)."""
    out = np.zeros(ctx.N, dtype=np.int64)
    for y in np.nonzero(v1)[0]:
        out[ctx.add(int(y), ctx.elements())] += v1[y] * v2
    return out


@st.composite
def arc_values(draw, ctx):
    """int64 values supported on an arc [start, start + length) mod N, which
    may wrap past 0; empty, single-point and signed supports all occur."""
    v = np.zeros(ctx.N, dtype=np.int64)
    start = draw(st.integers(0, ctx.N - 1))
    length = draw(st.integers(0, ctx.N))
    scale = draw(st.sampled_from([1, 100, 2**12, 2**26]))
    lo = draw(st.sampled_from([0, -scale]))
    if length:
        entries = draw(st.lists(
            st.tuples(st.integers(0, length - 1), st.integers(lo, scale)),
            max_size=min(length, 12),
        ))
        for off, val in entries:
            v[(start + off) % ctx.N] = val
    return v


class TestExactConvolve:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_oracles(self, data):
        ctx = data.draw(st.sampled_from(CTXS))
        v1 = data.draw(arc_values(ctx))
        v2 = data.draw(arc_values(ctx))
        out = exact_convolve(ctx, v1, v2)
        assert out.dtype == np.int64
        assert np.array_equal(out, translate_oracle(ctx, v1, v2))
        if ctx.kind == "cyclic":
            assert np.array_equal(out, dense_fold_oracle(ctx.N, v1, v2))
        assert values_at_zero(ctx, [v1, v2], [[(0, 1), (1, 1)]]) == [out[0]]

    def test_wrapping_support(self):
        ctx = CyclicCtx(1000)
        v = np.zeros(ctx.N, dtype=np.int64)
        v[[998, 999, 0, 1]] = [1, -2, 3, 4]
        w = np.zeros(ctx.N, dtype=np.int64)
        w[[500, 997]] = [5, 7]
        out = exact_convolve(ctx, v, w)
        assert np.array_equal(out, dense_fold_oracle(ctx.N, v, w))

    def test_entry_bounds_up_to_2_28(self):
        # dense signed inputs with entries up to 3, 2^10, 2^20 and 2^28; the
        # last has an entry bound near 2^62
        ctx = CyclicCtx(97)
        rng = np.random.default_rng(5)
        for scale in (3, 2**10, 2**20, 2**28):
            v1 = rng.integers(-scale, scale + 1, size=ctx.N)
            v2 = rng.integers(-scale, scale + 1, size=ctx.N)
            assert np.array_equal(exact_convolve(ctx, v1, v2),
                                  dense_fold_oracle(ctx.N, v1, v2))

    def test_entry_at_the_int64_edge(self):
        ctx = CyclicCtx(11)
        v1 = np.zeros(ctx.N, dtype=np.int64)
        v2 = np.zeros(ctx.N, dtype=np.int64)
        v1[7], v2[9] = -(2**62), 1
        out = exact_convolve(ctx, v1, v2)
        assert int(out[5]) == -(2**62) and np.count_nonzero(out) == 1

    @pytest.mark.parametrize("p", [3, 5, 7, 101, 9973])
    def test_ntt_primes_leave_no_int64_wrap(self, p):
        # P = 1 (mod p) holds the p-th roots of unity; p P^2 < 2^63 bounds every
        # axis contraction; three primes cover any entry bound below 2^63
        primes = _ntt_primes(p, 2**63 - 1)
        assert len(primes) == 3 and len(set(primes)) == 3
        for P in primes:
            assert is_prime(P) and P % p == 1 and p * P * P < 2**63

    def test_three_primes_near_the_int64_edge(self):
        ctx = VectorCtx(FieldCtx(3, 1), 4)
        rng = np.random.default_rng(9)
        v1 = rng.integers(-(2**28), 2**28, size=ctx.N)
        v2 = rng.integers(-(2**28), 2**28, size=ctx.N)
        v1[[0, 5]], v2[[7, 40]] = 2**28, -(2**28)
        bound = min(int(np.abs(v1).sum()), int(np.abs(v2).sum())) * 2**28
        assert 2**61 < bound < 2**63
        assert len(_ntt_primes(3, bound)) == 3
        assert np.array_equal(exact_convolve(ctx, v1, v2), translate_oracle(ctx, v1, v2))

    @pytest.mark.parametrize("ctx", [CyclicCtx(8), VectorCtx(FieldCtx(3, 1), 2)])
    def test_overflow_raises_with_bound(self, ctx):
        v1 = np.zeros(ctx.N, dtype=np.int64)
        v2 = np.zeros(ctx.N, dtype=np.int64)
        # (v1 * v2)(5) = 2^63 in either group: the bound is attained
        v1[[1, 2]] = 2**31
        v2[[3, 4]] = 2**31
        with pytest.raises(OverflowError, match=str(2**63)):
            exact_convolve(ctx, v1, v2)


class TestZMRoutes:
    """The one Z_M route of exact_convolve, the pairwise sums of the two
    supports, against the dense oracle."""

    @staticmethod
    def dilated(M, points, coeff, values):
        """Pushforward of `values` on `points` under x -> coeff x mod M."""
        v = np.zeros(M, dtype=np.int64)
        np.add.at(v, (coeff * np.asarray(points)) % M, values)
        return v

    # 400 points make 80,000 pairs, more than one scatter-add block
    @pytest.mark.parametrize("size", [25, 400])
    @pytest.mark.parametrize("c1, c2", [(1, 2), (2, 3), (3, 3), (1, -2)])
    def test_dilated_signed_wrapping_supports(self, c1, c2, size):
        # sparse sets spread over long arcs by the dilation, some wrapping
        # past 0 after a shift, with values of both signs
        rng = np.random.default_rng(11)
        M = 6007
        for shift in (0, M - 40):
            pts = (np.sort(rng.choice(4 * size, size=size, replace=False)) + shift) % M
            vals = rng.integers(-9, 10, size=size)
            v1 = self.dilated(M, pts, c1, vals)
            v2 = self.dilated(M, pts[::2], c2, vals[::2] ** 2)
            out = exact_convolve(CyclicCtx(M), v1, v2)
            assert np.array_equal(out, dense_fold_oracle(M, v1, v2))

    def test_one_to_1500_points_on_one_arc(self):
        # a fixed arc length with more and more points, from a single point
        # to nearly every slot, signed and unsigned
        rng = np.random.default_rng(4)
        M = 2003
        for count in (1, 8, 60, 400, 1500):
            for lo in (0, -5):
                v1 = np.zeros(M, dtype=np.int64)
                v2 = np.zeros(M, dtype=np.int64)
                v1[rng.choice(1500, size=count, replace=False) - 700] = rng.integers(
                    lo, 6, size=count)
                v2[rng.choice(1500, size=count, replace=False)] = rng.integers(
                    1, 6, size=count)
                out = exact_convolve(CyclicCtx(M), v1, v2)
                assert np.array_equal(out, dense_fold_oracle(M, v1, v2))

    def test_overflow_raised_before_either_route(self, monkeypatch):
        def no_work(*args):
            raise AssertionError("a route ran before the bound was checked")

        monkeypatch.setattr(functions, "_pair_sums", no_work)
        monkeypatch.setattr(functions, "_ntt_convolve", no_work)
        ctx = CyclicCtx(10**5)
        v1 = np.zeros(ctx.N, dtype=np.int64)
        v2 = np.zeros(ctx.N, dtype=np.int64)
        v1[[3, 60_000]] = 2**31   # two points far apart: the sparse side
        v2[[7, 90_000]] = 2**31
        with pytest.raises(OverflowError, match=str(2**63)):
            exact_convolve(ctx, v1, v2)


class TestExactCounts:
    def test_value_at_zero_past_int64(self):
        # one product 2^80 plus one 2^70: wraps int64, exact in Python ints
        ctx = CyclicCtx(5)
        a = np.array([0, 2**40, 2**35, 0, 0])
        b = np.array([0, 0, 0, 2**35, 2**40])
        assert values_at_zero(ctx, [a, b], [[(0, 1), (1, 1)]]) == [2**80 + 2**70]

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_pushforward_matches_dense(self, data):
        # signed weights that cancel once merged, coefficients with
        # gcd(c, M) > 1 (c = M sends every point to 0), empty and one-point
        # sets: the sorted pair holds exactly the nonzeros of the dense array
        ctx = data.draw(st.sampled_from(
            [CyclicCtx(1), CyclicCtx(12), CyclicCtx(30), CyclicCtx(97),
             VectorCtx(FieldCtx(3, 1), 3)]))
        pts = np.array(sorted(data.draw(st.sets(
            st.integers(0, ctx.N - 1), max_size=min(ctx.N, 20)))), dtype=np.int64)
        coeff = data.draw(st.sampled_from([1, -1, 2, 3, 6, -10, 15, ctx.N]))
        weights = np.array(data.draw(st.lists(
            st.integers(-3, 3), min_size=len(pts), max_size=len(pts))), dtype=np.int64)
        dense = np.zeros(ctx.N, dtype=np.int64)
        np.add.at(dense, np.asarray(ctx.scale_int(coeff, pts), dtype=np.int64), weights)
        points, values = _pushforward(ctx, pts, coeff, weights)
        assert np.array_equal(points, np.flatnonzero(dense))
        assert np.array_equal(values, dense[points])

    def test_empty_pushforward_takes_no_product(self, monkeypatch):
        def no_work(*args):
            raise AssertionError("a product ran beside an empty pushforward")

        monkeypatch.setattr(functions, "_exact_product", no_work)
        ctx = CyclicCtx(12)
        g = np.arange(12)
        signs = np.zeros(12, dtype=np.int64)
        signs[1::2] = [1, -1, 1, -1, 1, -1]
        arrays = [g, np.zeros(12, dtype=np.int64), signs]
        # 6 x sends the odd points to 6, where their values cancel
        products = [[(0, 1), (0, 2), (1, 1), (0, 3)], [(2, 6), (0, 1), (0, 1)]]
        assert values_at_zero(ctx, arrays, products) == [0, 0]

    def test_dual_value_at_zero_past_int64(self):
        # 2^93 needs four primes; a mixed-sign term checks the centring
        ctx = VectorCtx(FieldCtx(3, 2), 2)
        x, y = 5, 17
        gs = [np.zeros(ctx.N, dtype=np.int64) for _ in range(3)]
        gs[0][x], gs[1][y], gs[2][ctx.neg(ctx.add(x, y))] = 2**31, 2**31, 2**31
        gs[0][0], gs[1][0], gs[2][0] = -3, 1, 1
        assert len(_ntt_primes(3, 2**93)) == 4
        assert values_at_zero(ctx, gs, [[(0, 1), (1, 1), (2, 1)]]) == [2**93 - 3]

    @pytest.mark.parametrize("ctx", [VectorCtx(FieldCtx(3, 1), 3),
                                     VectorCtx(FieldCtx(5, 1), 2),
                                     VectorCtx(FieldCtx(3, 2), 2),
                                     CyclicCtx(1), CyclicCtx(12), CyclicCtx(97)])
    def test_values_at_zero_match_pushforward_convolutions(self, ctx):
        # a slot (i, c) stands for the pushforward of arrays[i] under x -> c x;
        # the empty product is delta_0, c = 0 (or p on F_q^n) sends every x
        # to 0, on Z_12 the coefficients 2 and 3 merge points, and the zero
        # array makes an empty pushforward
        rng = spawn_rng(8, ctx.N)
        arrays = [rng.integers(-4, 5, size=ctx.N) for _ in range(2)]
        arrays.append(np.zeros(ctx.N, dtype=np.int64))
        products = [[], [(0, 1)], [(0, 2), (1, -1)], [(1, 3), (0, 1), (0, 1)],
                    [(0, 0), (1, 1)], [(1, -2)] * 4, [(0, 1), (2, 1), (1, 1)]]

        def pushed(i, c):
            out = np.zeros(ctx.N, dtype=np.int64)
            np.add.at(out, np.asarray(ctx.scale_int(c, ctx.elements())), arrays[i])
            return out

        expected = []
        for prod in products:
            value = np.zeros(ctx.N, dtype=np.int64)
            value[0] = 1
            for slot in prod:
                value = exact_convolve(ctx, value, pushed(*slot))
            expected.append(int(value[0]))
        assert values_at_zero(ctx, arrays, products) == expected
        assert values_at_zero(ctx, arrays, []) == []

    def test_equation_count_matches_brute_on_wrapping_sets(self):
        # no padding: solutions wrap mod M, so supports and sums wrap past 0
        rng = spawn_rng(7, 3)
        eq = EquationSpec([1, 1, 1, -1, -2])
        for M in (7, 16, 23, 30):
            ctx = CyclicCtx(M)
            for _ in range(3):
                A = SetA(ctx, rng.choice(M, size=min(M, 5), replace=False))
                hs = [A.indicator()] * eq.k
                assert count_T(eq, hs, "fourier") == count_T(eq, hs, "brute")
