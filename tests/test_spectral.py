"""Spectra, Bohr sets, annihilators, and the large sieve."""

from fractions import Fraction

import numpy as np
import pytest

from addlab import groups
from addlab.counting import EquationSpec, padded_modulus
from addlab.functions import Dfn, convolve, fourier
from addlab.groups import CyclicCtx, FieldCtx, VectorCtx
from addlab.sets import SetA, erdos_turan_sidon, greedy_kst_free, subspace_set
from addlab.spectral import (
    Spectrum,
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
        assert M == padded_modulus(eq, n, radius=n + int(Fraction(eps) * n))
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
