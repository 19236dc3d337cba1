"""Spectra, Bohr sets, annihilators, and the large sieve."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from addlab import groups
from addlab.counting import EquationSpec, padded_modulus
from addlab.functions import Dfn, convolve, exact_convolve, fourier
from addlab.groups import CyclicCtx, FieldCtx, VectorCtx
from addlab.sets import SetA, erdos_turan_sidon, greedy_kst_free, subspace_set
from addlab.spectral import (
    Spectrum,
    Subspace,
    annihilator,
    bohr_set,
    large_sieve_check,
    span,
    spectrum,
    uniform_measure,
    verify_spectrum_span_bound,
)
from addlab.util import spawn_rng


class TestSpectrum:
    def test_subspace_spectrum_is_annihilator(self):
        ctx = VectorCtx(FieldCtx(3, 1), 4)
        basis = [ctx.parse_element("1 0 0 0"), ctx.parse_element("0 1 2 0")]
        H = subspace_set(ctx, basis)
        perp = annihilator(span(ctx, basis))
        for eps in ("1/3", "2/3", "9/10"):
            sp = spectrum(H, eps)
            assert sorted(map(int, sp.frequencies)) == sorted(
                map(int, perp.element_indices())
            )
            assert np.allclose(np.abs(sp.values), len(H))
        # at eps = 1 the threshold is an exact tie; the guaranteed member is 0
        sp1 = spectrum(H, 1)
        assert 0 in set(map(int, sp1.frequencies))
        assert np.allclose(np.abs(sp1.values), len(H))

    def test_eps_one_contains_zero(self):
        A = erdos_turan_sidon(5)
        sp = spectrum(A, 1)
        assert 0 in set(map(int, sp.frequencies))
        assert np.all(np.abs(sp.values) >= len(A) - 1e-9)

    def test_matches_direct_scan(self):
        rng = spawn_rng(9, 0)
        for _ in range(10):
            ctx = CyclicCtx(int(rng.integers(20, 80)))
            picks = np.nonzero(rng.random(ctx.N) < 0.3)[0]
            if len(picks) == 0:
                continue
            A = SetA(ctx, picks)
            sp = spectrum(A, "9/10")
            mags = np.abs(fourier(A.indicator()).values)
            expect = np.nonzero(mags >= 0.9 * len(A))[0]
            assert sorted(map(int, sp.frequencies)) == sorted(map(int, expect))

    def test_sorted_by_magnitude(self):
        A = erdos_turan_sidon(7)
        sp = spectrum(A, "1/4")
        mags = np.abs(sp.values)
        assert np.all(np.diff(mags) <= 1e-12)

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            spectrum(SetA(CyclicCtx(5), []), "1/2")

    @pytest.mark.parametrize("build, eps, M", [
        (lambda: erdos_turan_sidon(31), "1/8", 12565),
        (lambda: erdos_turan_sidon(61), "1/8", 49423),
        (lambda: erdos_turan_sidon(101), "1/8", 136363),
        (lambda: greedy_kst_free(2, 2, 8192, seed=0), "1/8", 55297),
        (lambda: greedy_kst_free(2, 3, 1024, seed=0), "1/2", 9217),
    ], ids=["erdos_turan_31", "erdos_turan_61", "erdos_turan_101", "sidon_8192",
            "kst23_free_1024"])
    def test_same_under_prime_factor_split(self, monkeypatch, build, eps, M):
        # each set at the modulus its transference pipeline runs in, where
        # CyclicCtx.fft takes the prime-factor split
        A = build()
        n = A.model_n
        eq = EquationSpec([1, 1, 1, -1, -2])
        assert M == padded_modulus(eq, n + int(Fraction(eps) * n))
        assert M >= groups._PRIME_FACTOR_FLOOR
        assert groups._prime_factor_maps(M) is not None
        split = A.with_ctx(CyclicCtx(M))
        sp_split = spectrum(split, eps)
        monkeypatch.setattr(groups, "_PRIME_FACTOR_FLOOR", M + 1)
        plain = A.with_ctx(CyclicCtx(M))
        sp_plain = spectrum(plain, eps)
        mags = np.abs(plain.indicator().hat())
        assert np.array_equal(plain.indicator().hat(),
                              np.fft.fft(plain.indicator().values.astype(complex)))
        # the same set; the order of equal magnitudes (xi and -xi) may differ
        assert np.array_equal(np.sort(sp_split.frequencies), np.sort(sp_plain.frequencies))
        drift = np.abs(np.abs(split.indicator().hat()) - mags).max()
        margin = np.abs(mags - float(Fraction(eps)) * len(A)).min()
        assert margin > 1e3 * drift


class TestBohrSet:
    def test_zero_spectrum_gives_window(self):
        ctx = CyclicCtx(101)
        sp = Spectrum(ctx=ctx, eps=Fraction(1, 4), frequencies=np.array([0]),
                      values=np.array([1.0 + 0j]), set_size=1)
        B = bohr_set(sp, "1/4", 40)
        assert sorted(B.signed.tolist()) == list(range(-10, 11))

    def test_half_frequency_excludes_odd(self):
        ctx = CyclicCtx(16)
        sp = Spectrum(ctx=ctx, eps=Fraction(1, 2), frequencies=np.array([0, 8]),
                      values=np.ones(2, complex), set_size=1)
        B = bohr_set(sp, "1/2", 7)  # n*8/16 = n/2: ||.|| = 1/2 for odd n
        assert all(n % 2 == 0 for n in B.signed)
        B2 = bohr_set(sp, Fraction(51, 100), 7)
        assert any(n % 2 == 1 for n in B2.signed)

    def test_contains_zero_and_symmetric(self):
        A = erdos_turan_sidon(7)
        for eps in ("1/8", "1/5", "1/3"):
            sp = spectrum(A, eps)
            B = bohr_set(sp, eps, A.model_n)
            assert 0 in B.signed
            assert set(B.signed.tolist()) == set((-B.signed).tolist())

    def test_exact_boundary_rational(self):
        # strict inequality at the torus boundary, decided in integers
        ctx = CyclicCtx(12)
        sp = Spectrum(ctx=ctx, eps=Fraction(1, 3), frequencies=np.array([4]),
                      values=np.ones(1, complex), set_size=1)
        # n*4/12 = n/3: ||.|| = 1/3 for n not divisible by 3 -> excluded at eps=1/3
        B = bohr_set(sp, Fraction(1, 3), 5)
        assert all(n % 3 == 0 for n in B.signed)

    def test_huge_denominator_eps_matches_definition(self):
        # eps = 1/8 + 2^-63: its terms overflow int64 products, and n = 13 sits
        # at ||13 * 1 / 104|| = 1/8 exactly, inside this Bohr set but not at 1/8
        ctx = CyclicCtx(104)
        eps = Fraction(2**60 + 1, 2**63)
        freqs = np.array([1, 9])
        sp = Spectrum(ctx=ctx, eps=eps, frequencies=freqs,
                      values=np.ones(2, complex), set_size=1)
        B = bohr_set(sp, eps, 200)

        def torus_dist(x):
            return min(x - math.floor(x), math.ceil(x) - x)

        expect = [n for n in range(-25, 26)
                  if all(torus_dist(Fraction(n * int(xi), 104)) < eps for xi in freqs)]
        assert B.signed.tolist() == expect
        assert 13 in expect and len(expect) > 1
        assert 13 not in bohr_set(sp, Fraction(1, 8), 200).signed

    def test_collapse_to_zero_in_the_first_block_matches_definition(self):
        # 100 frequencies: the first block of 64 already leaves only n = 0,
        # so the test stops there, and must agree with the definition
        ctx = CyclicCtx(101)
        eps = Fraction(1, 8)
        freqs = np.arange(1, 101)
        sp = Spectrum(ctx=ctx, eps=eps, frequencies=freqs,
                      values=np.ones(len(freqs), complex), set_size=1)
        B = bohr_set(sp, eps, 101)

        def torus_dist(x):
            return min(x - math.floor(x), math.ceil(x) - x)

        expect = [n for n in range(-12, 13)
                  if all(torus_dist(Fraction(n * int(xi), 101)) < eps for xi in freqs)]
        assert B.signed.tolist() == expect == [0]
        first_block = [n for n in range(-12, 13)
                       if all(torus_dist(Fraction(n * int(xi), 101)) < eps
                              for xi in freqs[:64])]
        assert first_block == [0]

    def test_monotone_in_eps(self):
        A = erdos_turan_sidon(5)
        prev_B, prev_S = None, None
        for eps in (Fraction(1, 8), Fraction(1, 6), Fraction(1, 4), Fraction(1, 2)):
            sp = spectrum(A, eps)
            B = bohr_set(sp, eps, A.model_n) if eps < 1 else None
            if prev_S is not None:
                assert set(map(int, sp.frequencies)) <= set(map(int, prev_S.frequencies))
            if prev_B is not None and B is not None:
                assert set(prev_B.signed.tolist()) <= set(B.signed.tolist())
            prev_B, prev_S = B, sp


class TestSubspaces:
    def test_span_annihilator_example(self):
        ctx = VectorCtx(FieldCtx(3, 1), 2)
        V = span(ctx, [ctx.parse_element("1 0")])
        H = annihilator(V)
        assert sorted(ctx.format_element(int(i)) for i in H.element_indices()) == [
            "0 0", "0 1", "0 2",
        ]

    def test_len_is_size(self):
        ctx = VectorCtx(FieldCtx(3, 1), 4)
        H = span(ctx, [ctx.parse_element("1 0 2 0"), ctx.parse_element("0 1 1 1")])
        assert len(H) == H.size == len(H.element_indices()) == 9

    def test_trivial_cases(self):
        ctx = VectorCtx(FieldCtx(5, 1), 3)
        zero = span(ctx, [])
        assert annihilator(zero).size == ctx.N
        full = span(ctx, [ctx.parse_element("1 0 0"), ctx.parse_element("0 1 0"),
                          ctx.parse_element("0 0 1")])
        assert annihilator(full).size == 1

    def test_double_annihilator_and_dims(self):
        rng = spawn_rng(13, 3)
        for field, n in ((FieldCtx(3, 1), 4), (FieldCtx(5, 1), 3), (FieldCtx(3, 2), 2)):
            ctx = VectorCtx(field, n)
            for _ in range(8):
                vecs = rng.integers(0, ctx.N, size=int(rng.integers(1, n + 1)))
                V = span(ctx, vecs)
                H = annihilator(V)
                assert V.dim + H.dim == n
                VV = annihilator(H)
                assert np.array_equal(VV.basis, V.basis)

    def test_annihilator_by_scan(self):
        ctx = VectorCtx(FieldCtx(3, 2), 2)
        vecs = [ctx.parse_element("1,0 0,1")]
        V = span(ctx, vecs)
        H = annihilator(V)
        expect = [
            int(x) for x in ctx.elements()
            if int(ctx.dot(int(x), vecs[0])) == 0
        ]
        assert sorted(map(int, H.element_indices())) == sorted(expect)

    def test_projector_identity(self):
        rng = spawn_rng(14, 1)
        ctx = VectorCtx(FieldCtx(3, 1), 4)
        V = span(ctx, [int(rng.integers(1, ctx.N)) for _ in range(2)])
        H = annihilator(V)
        mu = uniform_measure(H)
        mu_hat = mu.hat()
        on_perp = np.zeros(ctx.N, dtype=bool)
        on_perp[annihilator(H).element_indices()] = True
        assert np.abs(mu_hat[on_perp] - 1).max() < 1e-10
        if (~on_perp).any():
            assert np.abs(mu_hat[~on_perp]).max() < 1e-10
        g = Dfn(ctx, rng.normal(size=ctx.N) + 1j * rng.normal(size=ctx.N))
        lhs = fourier(convolve(g, mu)).values
        rhs = fourier(g).values * on_perp
        assert np.abs(lhs - rhs).max() < 1e-10 * max(1.0, np.abs(rhs).max())

    SPACES = [(FieldCtx(3, 1), 4), (FieldCtx(5, 1), 3), (FieldCtx(3, 2), 2)]

    @pytest.mark.parametrize("field, n", SPACES, ids=repr)
    def test_elements_match_span_enumeration(self, field, n):
        # every combination sum_j c_j v_j, summed by the group's own add
        ctx = VectorCtx(field, n)
        rng = spawn_rng(14, 2)
        for dim in range(n + 1):
            V = span(ctx, rng.integers(0, ctx.N, size=dim))
            rows = [int(ctx.from_coords(row)) for row in V.basis]
            expect = set()
            for cs in itertools.product(range(field.q), repeat=V.dim):
                x = 0
                for c, row in zip(cs, rows):
                    x = ctx.add(x, ctx.scale_field(c, row))
                expect.add(x)
            assert V.element_indices().tolist() == sorted(expect)

    def test_dependent_basis_raises(self):
        # a check that raises, not an assert, so it holds under python -O
        ctx = VectorCtx(FieldCtx(3, 2), 2)
        V = Subspace(ctx, np.array([[1, 0], [2, 0]]))
        with pytest.raises(ValueError, match="span only 9 of 81"):
            V.element_indices()

    @pytest.mark.parametrize("field, n", SPACES, ids=repr)
    def test_coset_counts_are_the_convolution(self, field, n):
        # |A ∩ (x + H)| = (1_A * 1_H)(x) for H = V^perp, against the exact
        # convolution, for V of every dimension and H a random set too
        ctx = VectorCtx(field, n)
        rng = spawn_rng(14, 3)
        for dim in range(n + 1):
            V = span(ctx, rng.integers(0, ctx.N, size=dim))
            H = annihilator(V)
            for density in (0.05, 0.4):
                A = np.flatnonzero(rng.random(ctx.N) < density)
                expect = exact_convolve(ctx, Dfn.indicator(ctx, A).values,
                                        H.indicator().values)
                assert np.array_equal(V.coset_counts(A), expect)
            sub = H.element_indices()
            assert np.array_equal(V.coset_counts(sub),
                                  exact_convolve(ctx, *[H.indicator().values] * 2))

    def test_span_dimension_bound(self):
        ctx = VectorCtx(FieldCtx(3, 1), 4)
        A = greedy_kst_free(2, 2, ctx.N, seed=21, ctx=ctx)
        for eps in ("1/4", "1/2", "3/4"):
            sp = spectrum(A, eps)
            V = span(ctx, sp.frequencies)
            rep = verify_spectrum_span_bound(A, sp, V)
            assert rep.passed


class TestLargeSieve:
    def test_single_point(self):
        rep = large_sieve_check([0], "1/4", np.ones(10))
        assert rep.passed
        assert rep.quantities["lhs"] == pytest.approx(100.0)

    def test_two_points_random(self):
        rng = spawn_rng(15, 2)
        rep = large_sieve_check([0, "1/2"], "1/8", rng.normal(size=30))
        assert rep.passed

    def test_eight_equally_spaced(self):
        pts = [Fraction(i, 8) for i in range(8)]
        coeffs = np.exp(2j * np.pi * np.arange(1, 41) * 0.3)
        rep = large_sieve_check(pts, "1/16", coeffs)
        assert rep.passed
        assert 0 < rep.measured_ratios["sieve_fill"] <= 1

    def test_overlap_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            large_sieve_check([0, "1/10"], "1/8", np.ones(5))

    def test_wraparound_overlap_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            large_sieve_check([Fraction(1, 100), Fraction(99, 100)], "1/16", np.ones(5))
