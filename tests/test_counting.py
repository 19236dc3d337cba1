"""Counting functional, transference machinery, cycles, level sets."""

import functools
import gc
import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from addlab.counting import (
    EquationSpec,
    PaddingError,
    _brute_total,
    _exact_ints,
    _is_invertible,
    _pair_energies,
    _solution_counts,
    _solve_last,
    _verify_transforms_at_zero,
    assert_z_faithful,
    count_T,
    count_all_distinct,
    count_equation_solutions,
    count_k_cycles,
    level_set_extract,
    padded_modulus,
    run_transference_pipeline,
    trivial_solution_value,
    verify_counting_lemma,
    verify_supersaturation,
    verify_telescoping,
)
from addlab.dense_model import TRIVIAL_SMOOTHER_FLAG
from addlab.energy import moment_energy
from addlab.functions import Dfn
from addlab.groups import CyclicCtx, FieldCtx, VectorCtx
from addlab.sets import SetA, equation_free_greedy, erdos_turan_sidon, greedy_kst_free
from addlab.util import spawn_rng

F5 = VectorCtx(FieldCtx(5, 1), 1)
F3_2 = VectorCtx(FieldCtx(3, 1), 2)
F3_3 = VectorCtx(FieldCtx(3, 1), 3)
F3_4 = VectorCtx(FieldCtx(3, 1), 4)
F5_2 = VectorCtx(FieldCtx(5, 1), 2)


class TestEquationSpec:
    def test_valid(self):
        eq = EquationSpec([1, 1, 1, -1, -2])
        assert eq.k == 5 and eq.weight() == 6

    def test_zero_coefficient_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            EquationSpec([1, 0, -1])

    def test_sum_rule(self):
        with pytest.raises(ValueError, match="sum to 0"):
            EquationSpec([1, 1, 1])
        EquationSpec([1, 1, 1], char=3)  # fine mod 3
        with pytest.raises(ValueError, match="characteristic"):
            EquationSpec([1, 3, -4], char=3)

    def test_too_few_variables(self):
        with pytest.raises(ValueError, match="3 variables"):
            EquationSpec([1, -1])

    def test_padded_modulus_coprime(self):
        eq = EquationSpec([2, 3, -5])
        M = padded_modulus(eq, 100)
        assert M > 10 * 100
        for a in (2, 3, 5):
            assert np.gcd(a, M) == 1

    def test_validate_for_vector(self):
        eq = EquationSpec([1, 1, 1, -3])  # -3 = 0 mod 3
        with pytest.raises(ValueError, match="vanishes"):
            eq.validate_for(VectorCtx(FieldCtx(3, 1), 2))

    @pytest.mark.parametrize("coeffs, ctx, subsum", [
        ((1, 1, 1, -1, -2), CyclicCtx(433), (1, -1)),
        ((1, 1, 1, 1, -4), F3_4, (1, -4)),
        ((1, 1, 1, 1, -4), F5_2, None),  # every coefficient is 1 mod 5
        ((1, 1, 6, -8), CyclicCtx(6), (6,)),
    ])
    def test_vanishing_subsum(self, coeffs, ctx, subsum):
        assert EquationSpec(coeffs).vanishing_subsum(ctx) == subsum


@pytest.mark.parametrize("ctx", [CyclicCtx(1), CyclicCtx(12), CyclicCtx(35), F3_3,
                                 VectorCtx(FieldCtx(3, 2), 2), F5_2], ids=repr)
def test_units_are_the_bijective_dilations(ctx):
    # c is a unit exactly when x -> c x permutes the group, and then
    # _solve_last inverts it
    elements = ctx.elements()
    for c in range(-12, 13):
        bijective = len(np.unique(ctx.scale_int(c, elements))) == ctx.N
        assert _is_invertible(ctx, c) == bijective, c
        if bijective:
            solved = _solve_last(ctx, c, elements)
            np.testing.assert_array_equal(ctx.scale_int(c, solved), elements)


def test_signed_residue_scalar_and_array_paths_agree():
    # a scalar, Python or numpy, takes the int path and an array the array
    # path; a scalar gives a Python int, in (-M/2, M/2]
    from addlab.util import signed_residue

    for M in (1, 2, 3, 7, 10):
        xs = range(-3 * M, 3 * M + 1)
        ref = signed_residue(np.array(xs), M)
        assert ref.dtype.kind == "i"
        for x, r in zip(xs, ref.tolist()):
            for value in (x, np.int64(x)):
                got = signed_residue(value, M)
                assert got == r and type(got) is int
            assert -M / 2 < r <= M / 2 and (x - r) % M == 0
    assert signed_residue(True, 3) == 1 and signed_residue(10**30 + 3, 5) == -2


class TestCountT:
    def test_full_group_f5(self):
        eq = EquationSpec([1, 1, 1, 1, 1], char=5)
        hs = [Dfn.indicator(F5, range(5))] * 5
        for method in ("brute", "fourier"):
            assert count_T(eq, hs, method) == 625  # N^{k-1}

    @pytest.mark.parametrize("method", ["brute", "fourier"])
    def test_integer_counts_do_not_wrap(self, method):
        # prod_i sum h_i = 10^20 > 2^63: int64 products would wrap
        eq = EquationSpec([1, 1, 1, -1, -2])
        h = Dfn(CyclicCtx(7), np.array([10**4, 0, 0, 0, 0, 0, 0]))
        count = count_T(eq, [h] * 5, method)
        assert count == 10**20 and type(count) is int

    MASSES = [10001, 123457, pytest.param(np.float64(10001), id="float64")]

    @staticmethod
    def _check_point_mass(mass, method):
        # the counts pass 2^53: a rounded float misses 10001^5 by 27985
        eq = EquationSpec([1, 1, 1, -1, -2])
        h = Dfn(CyclicCtx(7), np.array([mass, 0, 0, 0, 0, 0, 0]))
        count = count_T(eq, [h] * 5, method)
        assert count == int(mass)**5 and type(count) is int

    @pytest.mark.parametrize("mass", MASSES)
    def test_fourier_integer_count_is_exact(self, mass):
        self._check_point_mass(mass, "fourier")

    @pytest.mark.parametrize("mass", MASSES)
    def test_brute_integer_count_is_exact(self, mass):
        self._check_point_mass(mass, "brute")

    @pytest.mark.parametrize("method", ["brute", "fourier"])
    @pytest.mark.parametrize("dtype", [np.int64, np.float64])
    def test_integer_valued_count_past_2_53(self, method, dtype):
        # the float dual sum of this count rounds to 47021807518040209752064
        eq = EquationSpec([1, 1, 1, -1, -2])
        h = Dfn(CyclicCtx(67), np.zeros(67, dtype=dtype))
        h.values[[0, 1, 3, 7, 12, 20]] = 12345
        count = count_T(eq, [h] * 5, method)
        assert count == 47021807518040216362500 and type(count) is int

    @pytest.mark.parametrize("method", ["brute", "fourier"])
    def test_float_entry_past_int64_raises(self, method):
        # numpy's cast would wrap 2^63 to -2^63 with only a warning
        eq = EquationSpec([1, 1, 1, -1, -2])
        big = Dfn(CyclicCtx(7), np.array([2.0**63, 0, 0, 0, 0, 0, 0]))
        one = Dfn.delta(CyclicCtx(7))
        with pytest.raises(OverflowError, match="2\\^63"):
            count_T(eq, [big] + [one] * 4, method)

    @pytest.mark.parametrize("dtype", [bool, np.uint8, np.uint64, np.float32])
    def test_other_integer_dtypes_count_as_int64(self, dtype):
        # a set's bool membership array is an integer-valued input
        A = erdos_turan_sidon(7)
        cases = [(A.ctx, A.member, EquationSpec([1, 1, 1, -1, -2])),
                 (F3_3, np.arange(27) % 2, EquationSpec([1, 1, 1, 1, -4]))]
        for ctx, v, eq in cases:
            h, ref = Dfn(ctx, v.astype(dtype)), Dfn(ctx, v.astype(np.int64))
            for method in ("brute", "fourier"):
                count = count_T(eq, [h] * eq.k, method)
                assert count == count_T(eq, [ref] * eq.k, method) and type(count) is int
            energy = moment_energy([h, h], 2)
            assert energy == moment_energy([ref, ref], 2) and type(energy) is int

    def test_fourier_integer_count_raises_past_entry_bound(self):
        # the 3-fold partial convolution of a point mass 2^22 would reach 2^66
        eq = EquationSpec([1, 1, 1, -1, -2])
        h = Dfn(CyclicCtx(7), np.array([1 << 22, 0, 0, 0, 0, 0, 0]))
        with pytest.raises(OverflowError, match="2\\^63"):
            count_T(eq, [h] * 5, "fourier")
        big = Dfn(CyclicCtx(7), np.array([1 << 62, 1 << 62, 0, 0, 0, 0, 0]))
        with pytest.raises(OverflowError, match="2\\^63"):
            count_T(eq, [big] + [h] * 4, "fourier")

    @pytest.mark.parametrize("ctx", [
        F3_3, F5_2, VectorCtx(FieldCtx(7, 1), 2), VectorCtx(FieldCtx(3, 2), 2),
        VectorCtx(FieldCtx(3, 3), 1),
    ], ids=["F3_3", "F5_2", "F7_2", "F9_2", "F27_1"])
    def test_dual_route_matches_brute_on_signed_inputs(self, ctx):
        # random unit coefficients summing to 0 mod p, and signed int64
        # functions drawn from a pool of two, so slots repeat and differ
        rng = spawn_rng(38, ctx.N, ctx.field.r)
        p = ctx.field.p
        for _ in range(7):
            k = int(rng.integers(3, 6))
            while True:
                coeffs = [int(c) for c in rng.integers(1, p, size=k - 1)]
                last = -sum(coeffs) % p
                if last:
                    break
            eq = EquationSpec(coeffs + [last - p], char=p)
            pool = [Dfn(ctx, rng.integers(-3, 4, size=ctx.N) * (rng.random(ctx.N) < 0.4))
                    for _ in range(2)]
            hs = [pool[i] for i in rng.integers(0, 2, size=k)]
            count = count_T(eq, hs)
            assert count == count_T(eq, hs, "brute") and type(count) is int

    def test_dual_route_passes_2_63(self):
        # (2^25 + 1)^5 passes 2^63: the convolution route of the partial
        # products raised OverflowError here
        v = np.zeros(F3_3.N, dtype=np.int64)
        v[[0, 1]] = [1 << 25, 1]
        eq = EquationSpec([1, 1, 1, 1, -4])
        hs = [Dfn(F3_3, v)] * 5
        count = count_T(eq, hs)
        assert count == count_T(eq, hs, "brute") and type(count) is int
        assert count > 1 << 125

    def test_singleton_diagonal(self):
        eq = EquationSpec([1, 1, 1, 1, 1], char=5)
        hs = [Dfn.indicator(F5, [0])] * 5
        assert count_T(eq, hs, "brute") == 1

    def test_brute_equals_fourier_complex(self):
        rng = spawn_rng(31, 0)
        eq = EquationSpec([1, 1, -2])
        ctx = CyclicCtx(12)
        for _ in range(20):
            hs = [Dfn(ctx, rng.normal(size=12) + 1j * rng.normal(size=12))
                  for _ in range(3)]
            b = count_T(eq, hs, "brute")
            f = count_T(eq, hs, "fourier")
            assert abs(b - f) < 1e-9 * max(1.0, abs(b))

    def test_brute_equals_fourier_indicators(self):
        rng = spawn_rng(31, 1)
        eq = EquationSpec([1, 2, -3, 1, -1])
        for _ in range(10):
            ctx = CyclicCtx(int(rng.integers(20, 40)))
            A = SetA(ctx, np.nonzero(rng.random(ctx.N) < 0.3)[0])
            hs = [A.indicator()] * 5
            b = count_T(eq, hs, "brute")
            f = count_T(eq, hs, "fourier")
            assert b == f

    def test_noninvertible_coefficient_scan_path(self):
        # gcd(2, 12) > 1 for every coefficient: the scan fallback must agree
        eq = EquationSpec([2, 2, -4])
        ctx = CyclicCtx(12)
        rng = spawn_rng(31, 2)
        hs = [Dfn(ctx, rng.normal(size=12)) for _ in range(3)]
        b = count_T(eq, hs, "brute")
        f = count_T(eq, hs, "fourier")
        assert abs(b - f) < 1e-9 * max(1.0, abs(b))

    def test_multilinearity(self):
        rng = spawn_rng(32, 0)
        eq = EquationSpec([1, 1, 1, -1, -2])
        ctx = CyclicCtx(31)
        for _ in range(8):
            hs = [Dfn(ctx, rng.normal(size=31)) for _ in range(5)]
            extra = Dfn(ctx, rng.normal(size=31))
            a, b = map(float, rng.normal(size=2))
            mixed = Dfn(ctx, a * hs[1].values + b * extra.values)
            lhs = count_T(eq, [hs[0], mixed] + hs[2:], "fourier")
            rhs = a * count_T(eq, hs, "fourier") + b * count_T(
                eq, [hs[0], extra] + hs[2:], "fourier"
            )
            assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)

    def test_translation_invariance(self):
        rng = spawn_rng(32, 1)
        eq = EquationSpec([1, 1, 1, -1, -2])
        for ctx in (CyclicCtx(29), F3_2):
            for _ in range(8):
                hs = [Dfn(ctx, rng.normal(size=ctx.N)) for _ in range(5)]
                c = int(rng.integers(1, ctx.N))
                shifted = [h.translate(c) for h in hs]
                t0 = count_T(eq, hs, "fourier")
                t1 = count_T(eq, shifted, "fourier")
                assert t1 == pytest.approx(t0, rel=1e-9, abs=1e-9)

    def test_padding_check_names_minimal_modulus(self):
        eq = EquationSpec([1, 1, -2])
        ctx = CyclicCtx(20)
        A = SetA(ctx, [0, 9])  # radius 9, weight 4 -> need M > 36
        with pytest.raises(PaddingError) as exc:
            assert_z_faithful(eq, A)
        assert exc.value.minimal_modulus == 37
        # a set that wraps past 0 is measured by signed residues: {-3, 2}
        # has radius 3, so M = 20 needs weight 4 * 3 = 12 < 20 and passes,
        # while M = 12 fails with the same radius
        assert_z_faithful(eq, SetA(ctx, [17, 2]))
        with pytest.raises(PaddingError) as exc:
            assert_z_faithful(eq, SetA(CyclicCtx(12), [9, 2]))
        assert exc.value.minimal_modulus == 13
        assert_z_faithful(eq, SetA(ctx, []))

    def test_exact_convolution_route_matches_brute(self):
        rng = spawn_rng(32, 2)
        eq = EquationSpec([1, 1, -2])
        for _ in range(10):
            n = int(rng.integers(8, 20))
            ctx = CyclicCtx(padded_modulus(eq, n))
            A = SetA(ctx, rng.choice(n, size=min(n, 6), replace=False))
            exact = count_equation_solutions(eq, A)
            brute = count_T(eq, [A.indicator()] * 3, "brute")
            assert exact == brute


def brute_scalar(ctx, coeffs, values):
    """_brute_total one enumerated variable at a time: the oracle of its grid."""
    k = len(coeffs)
    supports = [np.nonzero(v)[0] for v in values]
    if any(len(s) == 0 for s in supports):
        return 0
    invertible = [i for i in range(k) if _is_invertible(ctx, coeffs[i])]
    solve = max(invertible, key=lambda i: len(supports[i])) if invertible else None
    enum_idx = sorted(
        (i for i in range(k) if i != solve), key=lambda i: len(supports[i])
    )
    total = 0
    last = enum_idx[-1]

    def rec(depth, partial, weight):
        nonlocal total
        if depth == len(enum_idx) - 1:
            xs = supports[last]
            r = np.asarray(ctx.add(partial, ctx.scale_int(coeffs[last], xs)))
            if solve is None:
                hit = r == 0
                if hit.any():
                    total = total + weight * values[last][xs[hit]].sum()
            else:
                xsol = _solve_last(ctx, coeffs[solve], ctx.neg(r))
                total = total + weight * (values[last][xs] * values[solve][xsol]).sum()
            return
        i = enum_idx[depth]
        for x in supports[i]:
            w = weight * values[i][x]
            if w == 0:
                continue
            rec(depth + 1, ctx.add(partial, ctx.scale_int(coeffs[i], int(x))), w)

    rec(0, 0, 1)
    return total


class TestBruteGrid:
    @pytest.mark.parametrize("coeffs,M,trials", [
        ((1, 1, -2), 12, 20), ((1, 1, 1, -1, -2), 13, 4),
    ])
    def test_float_bits_match_scalar(self, coeffs, M, trials):
        rng = spawn_rng(33, 0)
        ctx = CyclicCtx(M)
        for _ in range(trials):
            values = [rng.normal(size=M) + 1j * rng.normal(size=M) for _ in coeffs]
            values[0][rng.random(M) < 0.3] = 0
            assert _brute_total(ctx, coeffs, values) == brute_scalar(ctx, coeffs, values)
            real = [v.real.copy() for v in values]
            assert _brute_total(ctx, coeffs, real) == brute_scalar(ctx, coeffs, real)

    def test_exact_on_f5_squared(self):
        rng = spawn_rng(33, 1)
        ctx = VectorCtx(FieldCtx(5, 1), 2)
        eq = EquationSpec([1, 1, 1, 1, 1], char=5)
        for density in (0.1, 0.3, 0.6):
            A = SetA(ctx, np.nonzero(rng.random(ctx.N) < density)[0])
            values = [A.indicator().values] * 5
            grid = _brute_total(ctx, eq.coeffs, values)
            assert grid == brute_scalar(ctx, eq.coeffs, values)
            assert grid == count_T(eq, [A.indicator()] * 5, "fourier")

    def test_no_invertible_coefficient(self):
        # gcd(2, 12) > 1 for every coefficient: every variable is enumerated
        rng = spawn_rng(33, 2)
        ctx = CyclicCtx(12)
        for coeffs in ((2, 2, -4), (2, 2, 2, -6)):
            assert not any(_is_invertible(ctx, c) for c in coeffs)
            for _ in range(5):
                ints = [rng.integers(-3, 4, size=12) for _ in coeffs]
                assert _brute_total(ctx, coeffs, ints) == brute_scalar(ctx, coeffs, ints)
                floats = [rng.normal(size=12) for _ in coeffs]
                assert _brute_total(ctx, coeffs, floats) == brute_scalar(ctx, coeffs, floats)

    def test_k3_enumerates_no_outer_level(self):
        # k = 3 with an invertible coefficient: the grid is the whole enumeration
        ctx = CyclicCtx(11)
        coeffs = (1, 1, -2)
        point = np.zeros(11, dtype=np.int64)
        point[4] = 3
        for values in ([point] * 3, [point, np.ones(11, dtype=np.int64), point]):
            assert _brute_total(ctx, coeffs, values) == brute_scalar(ctx, coeffs, values)
        assert _brute_total(ctx, coeffs, [point] * 3) == 27

    def test_object_values_past_int64(self):
        rng = spawn_rng(33, 3)
        ctx = CyclicCtx(7)
        coeffs = (1, 1, 1, -1, -2)
        ints = [rng.integers(10**3, 10**4, size=7) for _ in coeffs]
        values = _exact_ints(ints)
        assert values[0].dtype == object
        total = _brute_total(ctx, coeffs, values)
        assert type(total) is int and total > 1 << 63
        assert total == brute_scalar(ctx, coeffs, values)
        hs = [Dfn(ctx, v) for v in ints]
        for method in ("brute", "fourier"):
            assert count_T(EquationSpec(coeffs), hs, method) == total


class TestTrivialSolutionValue:
    def test_singleton(self):
        eq = EquationSpec([1, 1, 1, -1, -2])
        ctx = CyclicCtx(padded_modulus(eq, 10))
        A = SetA(ctx, [0], model_n=10)
        value, rep = trivial_solution_value(eq, A, s=2)
        assert value == pytest.approx(10 ** (5 / 2))
        assert rep.passed

    def test_equation_free_corpus(self):
        eq = EquationSpec([1, 1, 1, -1, -2])
        for seed in range(3):
            A = equation_free_greedy(eq, 36, seed=seed)
            value, rep = trivial_solution_value(eq, A, s=2)
            assert rep.passed

    def test_planted_solution_detected(self):
        eq = EquationSpec([1, 1, -2])
        ctx = CyclicCtx(padded_modulus(eq, 30))
        A = SetA(ctx, [0, 5, 10], model_n=30)  # 0 + 10 = 2*5
        with pytest.raises(ValueError, match="nontrivial") as exc:
            trivial_solution_value(eq, A, s=2)
        assert "5 solutions in A^3, of which 3 are trivial" in str(exc.value)

    def test_all_distinct_reporting(self):
        eq = EquationSpec([1, 1, -2])
        ctx = CyclicCtx(padded_modulus(eq, 30))
        A = SetA(ctx, [0, 5, 10], model_n=30)
        n = count_all_distinct(eq, A)
        # solutions with all distinct coordinates: (0,10,5) and (10,0,5)
        assert n == 2


# -- oracles for the all-distinct count ---------------------------------------------


def product_oracle(eq, A):
    """All-distinct solutions by listing every tuple of A^k."""
    ctx = A.ctx
    tuples = np.array(list(itertools.product(A.indices.tolist(), repeat=eq.k)),
                      dtype=np.int64).reshape(-1, eq.k)
    acc = functools.reduce(ctx.add, [ctx.scale_int(c, tuples[:, i])
                                     for i, c in enumerate(eq.coeffs)])
    distinct = np.all(np.diff(np.sort(tuples, axis=1), axis=1) != 0, axis=1)
    return int(np.count_nonzero((np.asarray(acc) == 0) & distinct))


def prefix_enumerator(eq, A):
    """The enumerator the Moebius count replaced: m^{k-2} prefixes in Python,
    the last variable solved by inversion (so it must be invertible)."""
    ctx = A.ctx
    if len(A) == 0:
        return 0
    coeffs = eq.coeffs
    assert _is_invertible(ctx, coeffs[-1])
    member = A.member
    sup = A.indices
    total = 0

    def rec(depth, partial, prefix):
        nonlocal total
        if depth == eq.k - 2:
            r = np.asarray(ctx.add(partial, ctx.scale_int(coeffs[depth], sup)))
            xsol = _solve_last(ctx, coeffs[-1], ctx.neg(r))
            ok = member[xsol]
            for x, xs, good in zip(sup, xsol, ok):
                if good and int(x) not in prefix and int(xs) not in prefix and int(x) != int(xs):
                    total += 1
            return
        for x in sup:
            if int(x) in prefix:
                continue
            rec(
                depth + 1,
                ctx.add(partial, ctx.scale_int(coeffs[depth], int(x))),
                prefix | {int(x)},
            )

    rec(0, 0, frozenset())
    return total


def with_invertible_last(eq, ctx):
    """The same equation with an invertible coefficient moved last (the
    all-distinct count is symmetric in the variables), or None."""
    for i, c in enumerate(eq.coeffs):
        if _is_invertible(ctx, c):
            rest = eq.coeffs[:i] + eq.coeffs[i + 1:]
            return EquationSpec(rest + (c,), char=eq.char)
    return None


ZERO_BLOCK_EQS = [(1, -1, 2, -2), (1, -1, 2, 1, -3), (1, -1, 2, -2, 1, -1)]


@st.composite
def equation_and_set(draw):
    """An equation and a set: Z_M unpadded (any M, coefficients may share a
    factor with M) or padded, or F_3^n / F_5^n; k = 3..6; empty and
    one-point sets included."""
    kind = draw(st.sampled_from(["cyclic", "padded", "f3", "f5"]))
    k = draw(st.integers(3, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind in ("f3", "f5"):
        p = 3 if kind == "f3" else 5
        ctx = VectorCtx(FieldCtx(p, 1), int(rng.integers(1, 5 if p == 3 else 3)))
        coeffs = draw(st.lists(st.integers(1 - 2 * p, 2 * p - 1).filter(lambda c: c % p),
                               min_size=k - 1, max_size=k - 1))
        coeffs.append(-sum(coeffs))
        assume(coeffs[-1] % p)
        eq = EquationSpec(coeffs, char=p)
        pool = ctx.N
    else:
        if draw(st.booleans()):
            coeffs = list(draw(st.sampled_from(ZERO_BLOCK_EQS)))
        else:
            coeffs = draw(st.lists(st.integers(-4, 4).filter(bool),
                                   min_size=k - 1, max_size=k - 1))
            coeffs.append(-sum(coeffs))
            assume(coeffs[-1])
        eq = EquationSpec(coeffs)
        if kind == "padded":
            pool = int(rng.integers(1, 17))
            ctx = CyclicCtx(padded_modulus(eq, pool))
        else:
            ctx = CyclicCtx(int(rng.integers(1, 41)))
            pool = ctx.N
    size = int(rng.integers(0, min(pool, {3: 12, 4: 12, 5: 8, 6: 7}[eq.k]) + 1))
    return eq, SetA(ctx, rng.choice(pool, size=size, replace=False))


class TestAllDistinct:
    @settings(max_examples=150, deadline=None)
    @given(equation_and_set())
    def test_moebius_matches_oracles(self, case):
        eq, A = case
        total, distinct = _solution_counts(eq, A)
        assert distinct == count_all_distinct(eq, A)
        assert total == count_T(eq, [A.indicator()] * eq.k, "fourier")
        if len(A) ** eq.k <= 40_000:
            assert distinct == product_oracle(eq, A)
        eq_last = with_invertible_last(eq, A.ctx)
        if eq_last is not None and len(A) ** (eq.k - 2) <= 2_500:
            assert distinct == prefix_enumerator(eq_last, A)

    def test_zero_block_equations_mid_size(self):
        rng = spawn_rng(38, 0)
        for coeffs in ZERO_BLOCK_EQS:
            eq = EquationSpec(coeffs)
            ctx = CyclicCtx(padded_modulus(eq, 60))
            A = SetA(ctx, rng.choice(60, size=14, replace=False))
            assert count_all_distinct(eq, A) == prefix_enumerator(eq, A)

    def test_noninvertible_last_coefficient(self):
        # gcd(2, 12) > 1: the enumerator needed the variables reordered
        eq = EquationSpec([1, 1, -2])
        A = SetA(CyclicCtx(12), [0, 1, 2, 3, 5, 8, 10])
        assert count_all_distinct(eq, A) == product_oracle(eq, A)
        assert count_all_distinct(eq, A) == prefix_enumerator(
            EquationSpec([1, -2, 1]), A)

    def test_sidon_above_old_limit(self):
        # Sidon: x1 + x2 = x3 + x4 only as {x1, x2} = {x3, x4}, so nothing
        # is all-distinct and the total is 2m^2 - m; m^3 > 2e6 here
        A = erdos_turan_sidon(131)
        m = len(A)
        assert m**3 > 2_000_000
        eq = EquationSpec([1, 1, -1, -1])
        assert _solution_counts(eq, A) == (2 * m * m - m, 0)

    @pytest.mark.parametrize("p, M, total, distinct", [
        (101, 136_363, 247_495, 210_498),
        (211, 598_195, 2_245_657, 2_073_108),
    ])
    def test_erdos_turan_literal_counts(self, p, M, total, distinct):
        # the pipeline's padded modulus at eps 1/8, where the exact counts run
        # on supports of a few hundred points in a group of M points
        eq = EquationSpec([1, 1, 1, -1, -2])
        A = erdos_turan_sidon(p)
        ctx = CyclicCtx(padded_modulus(eq, A.model_n + A.model_n // 8))
        assert ctx.M == M
        assert _solution_counts(eq, A.with_ctx(ctx)) == (total, distinct)

    def test_empty_and_single_point(self):
        eq = EquationSpec([1, 1, 1, -1, -2])
        for ctx in (CyclicCtx(1), CyclicCtx(37), F3_2):
            assert _solution_counts(eq, SetA(ctx, [])) == (0, 0)
            assert _solution_counts(eq, SetA(ctx, [0])) == (1, 0)

    @pytest.mark.parametrize("ctx", [CyclicCtx(91), VectorCtx(FieldCtx(3, 1), 4)],
                             ids=["Z_91", "F3_4"])
    def test_counts_leave_no_cyclic_garbage(self, ctx):
        # the partial products go with the call that made them: a memo held
        # by a recursive nested function would form a reference cycle, and
        # keep them until the cyclic collector ran
        eq = EquationSpec([1, 1, 1, 1, -4])
        A = SetA(ctx, spawn_rng(38, 1).choice(18, size=9, replace=False))
        expected = _solution_counts(eq, A)
        enabled = gc.isenabled()
        gc.disable()
        try:
            gc.collect()
            assert _solution_counts(eq, A) == expected
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()


class TestCountingLemma:
    def test_random_dominated_families(self):
        rng = spawn_rng(33, 0)
        for k in (5, 6):
            eq = EquationSpec([1] * (k - 1) + [-(k - 1)])
            ctx = CyclicCtx(padded_modulus(eq, 12))
            for _ in range(6):
                nu_vals = rng.uniform(0.1, 1.0, size=ctx.N)
                nu = Dfn(ctx, nu_vals)
                fs = [Dfn(ctx, nu_vals * rng.uniform(-1, 1, size=ctx.N))
                      for _ in range(k)]
                rep = verify_counting_lemma(eq, nu, fs)
                assert rep.passed, [a.name for a in rep.failing()]

    def test_scaled_indicator_family(self):
        eq = EquationSpec([1, 1, 1, -1, -2])
        A = erdos_turan_sidon(7)
        ctx = CyclicCtx(padded_modulus(eq, A.model_n))
        A = A.with_ctx(ctx)
        nu = Dfn(ctx, A.indicator().values.astype(float))
        fs = [nu] * 5
        rep = verify_counting_lemma(eq, nu, fs)
        assert rep.passed

    def test_zero_slot_gives_zero(self):
        eq = EquationSpec([1, 1, 1, -1, -2])
        ctx = CyclicCtx(padded_modulus(eq, 8))
        nu = Dfn.constant(ctx, 1.0)
        fs = [Dfn.zeros(ctx)] + [nu] * 4
        rep = verify_counting_lemma(eq, nu, fs)
        assert rep.passed
        assert abs(rep.quantities["T"]) < 1e-9

    def test_domination_violation_located(self):
        eq = EquationSpec([1, 1, 1, -1, -2])
        ctx = CyclicCtx(padded_modulus(eq, 8))
        nu = Dfn.constant(ctx, 1.0)
        bad_vals = np.ones(ctx.N)
        bad_vals[3] = 2.0
        fs = [Dfn(ctx, bad_vals)] + [nu] * 4
        with pytest.raises(ValueError, match="x=3"):
            verify_counting_lemma(eq, nu, fs)

    def test_integer_majorant_energy_does_not_wrap(self):
        # (nu * nu)(x)^2 passes 2^63 for nu near 2^20 on Z_67; the physical
        # E_2 of an integer nu is summed in Python ints
        eq = EquationSpec([1, 1, 1, -1, -2])
        ctx = CyclicCtx(67)
        rng = spawn_rng(15, 0)
        nu_vals = rng.integers(2**19, 2**20, size=ctx.N)
        fs = [Dfn(ctx, nu_vals * rng.uniform(-1, 1, size=ctx.N)) for _ in range(5)]
        rep = verify_counting_lemma(eq, Dfn(ctx, nu_vals), fs)
        nu = [int(v) for v in nu_vals]
        conv = [sum(nu[y] * nu[(x - y) % 67] for y in range(67)) for x in range(67)]
        assert rep.quantities["E2_nu_physical"] == sum(c * c for c in conv)
        assert rep.passed, [a.name for a in rep.failing()]

    def test_complex_majorant_rejected(self):
        # its physical E_2 would be Re sum (nu * nu)^2, not sum |nu * nu|^2
        eq = EquationSpec([1, 1, 1, -1, -2])
        ctx = CyclicCtx(67)
        nu = Dfn.constant(ctx, 1 + 0.5j)
        with pytest.raises(ValueError, match="must be real"):
            verify_counting_lemma(eq, nu, [Dfn.constant(ctx, 0.5)] * 5)

    def test_k4_rejected(self):
        eq = EquationSpec([1, 1, -1, -1])
        ctx = CyclicCtx(41)
        nu = Dfn.constant(ctx, 1.0)
        with pytest.raises(ValueError, match="k >= 5"):
            verify_counting_lemma(eq, nu, [nu] * 4)


class TestTelescoping:
    def test_f_equals_F(self):
        eq = EquationSpec([1, 1, 1, -1, -2])
        ctx = CyclicCtx(37)
        rng = spawn_rng(34, 0)
        f = Dfn(ctx, rng.uniform(0, 1, size=37))
        rep = verify_telescoping(eq, f, f)
        assert rep.passed
        assert rep.quantities["T_f"] == pytest.approx(rep.quantities["T_F"])

    def test_F_zero_degenerate(self):
        eq = EquationSpec([1, 1, 1, -1, -2])
        ctx = CyclicCtx(37)
        rng = spawn_rng(34, 1)
        f = Dfn(ctx, rng.uniform(0, 1, size=37))
        rep = verify_telescoping(eq, f, Dfn.zeros(ctx))
        assert rep.passed

    def test_random_pairs(self):
        rng = spawn_rng(34, 2)
        eq = EquationSpec([1, 1, 1, -1, -2])
        ctx = CyclicCtx(61)
        for _ in range(10):
            f = Dfn(ctx, rng.uniform(0, 1, size=61))
            F = Dfn(ctx, rng.uniform(0, 1, size=61))
            rep = verify_telescoping(eq, f, F)
            assert rep.passed, [a.name for a in rep.failing()]

    def test_k3_identity_only(self):
        eq = EquationSpec([1, 1, -2])
        ctx = CyclicCtx(23)
        rng = spawn_rng(34, 3)
        f = Dfn(ctx, rng.normal(size=23))
        F = Dfn(ctx, rng.normal(size=23))
        rep = verify_telescoping(eq, f, F)
        assert rep.passed
        assert rep.flags == ["chain bounds skipped: they need k >= 5, here k = 3"]

    @pytest.mark.parametrize("ctx, eq, match", [
        (VectorCtx(FieldCtx(3, 1), 2), EquationSpec([1, 1, 1, -3]), "vanishes mod 3"),
        (CyclicCtx(23), EquationSpec([1, 1, 1], char=3), "over Z"),
    ], ids=["coefficient_vanishes_mod_p", "char_p_spec_on_Z_M"])
    def test_equation_checked_against_group_for_float_inputs(self, ctx, eq, match):
        rng = spawn_rng(34, 4)
        f, F = (Dfn(ctx, rng.uniform(0, 1, size=ctx.N)) for _ in range(2))
        with pytest.raises(ValueError, match=match):
            verify_telescoping(eq, f, F)

    @staticmethod
    def _half_period_pair(M):
        # F = 1_{0, M/2} has hat F(2 xi) = 2 for every xi on Z_40, so the
        # slot under the coefficient -2 beats its mean norm when 2 is no unit
        F = np.zeros(M)
        F[[0, M // 2]] = 1
        f = F.copy()
        f[0] += 1
        return Dfn(CyclicCtx(M), f), Dfn(CyclicCtx(M), F)

    def test_chain_skipped_for_noninvertible_coefficient(self):
        eq = EquationSpec([1, 1, 1, -1, -2])
        rep = verify_telescoping(eq, *self._half_period_pair(40))
        assert rep.passed, [(a.name, a.lhs, a.rhs) for a in rep.failing()]
        assert [a.name for a in rep.assertions] == ["telescoping_identity"]
        assert rep.flags == ["chain bounds skipped: coefficients [-2] are not "
                             "invertible on cyclic;M=40"]

    def test_complex_terms_sum_to_the_difference(self):
        # the reported terms keep their imaginary parts, so they still add
        # up to T_f - T_F when f and F are complex
        eq = EquationSpec([1, 1, 1, -1, -2])
        ctx = CyclicCtx(67)
        rng = spawn_rng(34, 5)
        f, F = (Dfn(ctx, rng.normal(size=67) + 1j * rng.normal(size=67))
                for _ in range(2))
        q = verify_telescoping(eq, f, F).quantities
        assert abs((q["T_f"] - q["T_F"]).imag) > 1.0
        assert sum(q["terms"]) == pytest.approx(q["T_f"] - q["T_F"], rel=1e-9)

    def test_chain_runs_for_invertible_coefficients(self):
        eq = EquationSpec([1, 1, 1, -1, -2])
        rep = verify_telescoping(eq, *self._half_period_pair(41))
        assert rep.passed
        names = {a.name for a in rep.assertions}
        assert {f"term_bound_{i}" for i in range(5)} | {"transfer_bound"} <= names
        assert rep.flags == []


def assert_same_bits(got, want):
    assert type(got) is type(want) and repr(got) == repr(want), (got, want)


def _reported_counts(eq, f, F, g):
    """(T_f, T_F, terms) as verify_telescoping reports them."""
    q = verify_telescoping(eq, f, F, g).quantities
    return q["T_f"], q["T_F"], q["terms"]


class TestTelescopingCounts:
    """verify_telescoping's counts against one count_T per slot list, bit for bit."""

    CASES = {
        "cyclic": (CyclicCtx(61), EquationSpec([1, 1, 1, -1, -2])),
        "vector": (F3_3, EquationSpec([1, 1, 1, 1, -4])),
    }

    @staticmethod
    def _per_slot(eq, f, F, g):
        k = eq.k
        terms = [[f] * i + [g] + [F] * (k - 1 - i) for i in range(k)]
        T_f, T_F, *rest = (count_T(eq, hs, "fourier")
                           for hs in [[f] * k, [F] * k] + terms)
        return T_f, T_F, rest

    def _check(self, eq, f, F, g):
        T_f, T_F, terms = _reported_counts(eq, f, F, g)
        want_f, want_F, want_terms = self._per_slot(eq, f, F, g)
        assert_same_bits(T_f, want_f)
        assert_same_bits(T_F, want_F)
        assert len(terms) == eq.k
        for got, want in zip(terms, want_terms):
            assert_same_bits(got, want)

    @pytest.mark.parametrize("case", CASES)
    def test_random_real(self, case):
        ctx, eq = self.CASES[case]
        rng = spawn_rng(35, 0)
        for _ in range(4):
            f, F, g = (Dfn(ctx, rng.normal(size=ctx.N)) for _ in range(3))
            self._check(eq, f, F, g)

    @pytest.mark.parametrize("case", CASES)
    def test_F_is_f(self, case):
        ctx, eq = self.CASES[case]
        rng = spawn_rng(35, 1)
        f = Dfn(ctx, rng.uniform(0, 1, size=ctx.N))
        self._check(eq, f, f, f - f)
        self._check(eq, f, f, Dfn(ctx, rng.normal(size=ctx.N)))

    @pytest.mark.parametrize("case", CASES)
    def test_integer_valued_floats_count_exactly(self, case):
        ctx, eq = self.CASES[case]
        rng = spawn_rng(35, 2)
        f, F = (Dfn(ctx, rng.integers(0, 3, size=ctx.N).astype(float)) for _ in range(2))
        self._check(eq, f, F, f - F)
        T_f, T_F, terms = _reported_counts(eq, f, F, f - F)
        assert all(type(t) is int for t in [T_f, T_F, *terms])
        as_ints = [Dfn(ctx, h.values.astype(np.int64)) for h in (f, F, f - F)]
        assert (T_f, T_F, terms) == _reported_counts(eq, *as_ints)

    @pytest.mark.parametrize("case", CASES)
    def test_integer_valued_F_counts_exactly_beside_float_f(self, case):
        ctx, eq = self.CASES[case]
        rng = spawn_rng(35, 4)
        f = Dfn(ctx, rng.uniform(0, 1, size=ctx.N))
        F = Dfn(ctx, 8.0 * rng.integers(0, 2, size=ctx.N))
        self._check(eq, f, F, f - F)
        T_f, T_F, terms = _reported_counts(eq, f, F, f - F)
        exact = count_T(eq, [Dfn(ctx, F.values.astype(np.int64))] * eq.k)
        assert type(T_F) is int and T_F == exact
        assert all(type(t) is float for t in [T_f, *terms])

    @pytest.mark.parametrize("case", CASES)
    def test_integer_arrays_count_exactly(self, case):
        ctx, eq = self.CASES[case]
        rng = spawn_rng(35, 3)
        f, F = (Dfn(ctx, rng.integers(0, 3, size=ctx.N)) for _ in range(2))
        self._check(eq, f, F, f - F)
        self._check(eq, f, F, Dfn(ctx, rng.normal(size=ctx.N)))

    @pytest.mark.parametrize("case", CASES)
    def test_complex_slot_beside_real_ones(self, case):
        # T_f sums over half the dual group, the counts with the complex g
        # over all of it: the shared index arrays are kept apart by domain
        ctx, eq = self.CASES[case]
        rng = spawn_rng(35, 5)
        f, F = (Dfn(ctx, rng.normal(size=ctx.N)) for _ in range(2))
        g = Dfn(ctx, rng.normal(size=ctx.N) + 1j * rng.normal(size=ctx.N))
        self._check(eq, f, F, g)

    @pytest.mark.parametrize("case", CASES)
    def test_each_index_array_built_once(self, case, monkeypatch):
        from addlab import counting

        ctx, eq = self.CASES[case]
        rng = spawn_rng(35, 6)
        f, F = (Dfn(ctx, rng.normal(size=ctx.N)) for _ in range(2))
        dilated_domain = counting._dilated_domain
        built = []

        def spy(ctx, a, real):
            built.append(a)
            return dilated_domain(ctx, a, real)

        monkeypatch.setattr(counting, "_dilated_domain", spy)
        verify_telescoping(eq, f, F, f - F)
        assert sorted(built) == sorted(set(eq.coeffs))


class TestHalfDomain:
    """Dual sums of real inputs over one xi of each pair {xi, -xi}, against
    the sum over every xi."""

    CASES = {
        "odd": (CyclicCtx(61), EquationSpec([1, 1, 1, -1, -2])),
        "even": (CyclicCtx(64), EquationSpec([1, 1, 1, -1, -2])),
        "F3_3": (F3_3, EquationSpec([1, 1, 1, 1, -4])),
        "F5_2": (F5_2, EquationSpec([1, 1, 1, 1, -4])),
    }

    @staticmethod
    def _full(ctx, eq, hs):
        xi = ctx.elements()
        prod = np.ones(ctx.N, dtype=np.complex128)
        for a, h in zip(eq.coeffs, hs):
            prod *= h.hat()[np.asarray(ctx.scale_int(a, xi))]
        return prod.sum() / ctx.N

    @pytest.mark.parametrize("case", CASES)
    def test_count_T_matches_the_full_sum(self, case):
        ctx, eq = self.CASES[case]
        rng = spawn_rng(38, 4)
        for _ in range(4):
            hs = [Dfn(ctx, rng.normal(size=ctx.N)) for _ in range(eq.k)]
            got, full = count_T(eq, hs), self._full(ctx, eq, hs)
            assert type(got) is float
            assert abs(got - full.real) <= 1e-13 * abs(full)
            # a complex input keeps the sum over every xi, bit for bit
            hs[0] = Dfn(ctx, hs[0].values + 1j * rng.normal(size=ctx.N))
            assert count_T(eq, hs) == self._full(ctx, eq, hs)

    @pytest.mark.parametrize("case", CASES)
    def test_real_counts_beside_a_complex_f_keep_count_T_bits(self, case):
        ctx, eq = self.CASES[case]
        rng = spawn_rng(38, 5)
        f = Dfn(ctx, rng.normal(size=ctx.N) + 1j * rng.normal(size=ctx.N))
        F, g = (Dfn(ctx, rng.normal(size=ctx.N)) for _ in range(2))
        T_f, T_F, terms = _reported_counts(eq, f, F, g)
        assert_same_bits(T_F, count_T(eq, [F] * eq.k))
        assert_same_bits(terms[0], count_T(eq, [g] + [F] * (eq.k - 1)))
        assert_same_bits(T_f, count_T(eq, [f] * eq.k))
        assert isinstance(terms[1], complex) and terms[1].imag

    @pytest.mark.parametrize("case", CASES)
    def test_pair_energies(self, case):
        # sum (h*h)^2 for two, three or four inputs, against one
        # moment_energy each and against the dual mean
        ctx, _ = self.CASES[case]
        rng = spawn_rng(38, 6)
        reals = [Dfn(ctx, rng.normal(size=ctx.N) * 2.0**e) for e in (0, 30, -30)]
        ints = Dfn(ctx, rng.integers(0, 3, size=ctx.N))
        cplx = Dfn(ctx, rng.normal(size=ctx.N) + 1j * rng.normal(size=ctx.N))
        for hs in (reals[:2], reals, [ints, *reals, cplx]):
            got = _pair_energies(hs)
            for h, e in zip(hs, got):
                if h is ints:
                    assert e == moment_energy([h, h], 2) and type(e) is int
                    continue
                want = moment_energy([h, h], 2) if h is not cplx else h.dual_moment(4)
                assert e == pytest.approx(want, rel=1e-12)
                dual = (np.abs(h.hat()) ** 4).mean()
                assert h.dual_moment(4) == pytest.approx(dual, rel=1e-13)
                assert e == pytest.approx(dual, rel=1e-12)


class TestLevelSet:
    def test_constant_one(self):
        ctx = CyclicCtx(50)
        A0, rep = level_set_extract(Dfn.constant(ctx, 1.0), 1.0, 2)
        assert len(A0) == 50
        assert rep.passed

    def test_two_point_example(self):
        ctx = CyclicCtx(10)
        vals = np.zeros(10)
        vals[0] = 2.0
        A0, rep = level_set_extract(Dfn(ctx, vals), 0.2, 2)
        assert [int(a) for a in A0.indices] == [0]
        assert rep.passed  # 1 >= (0.1)^2 * 10 = 0.1

    def test_random_batch(self):
        rng = spawn_rng(35, 0)
        for p in (2, 3):
            for _ in range(10):
                n = int(rng.integers(30, 120))
                ctx = CyclicCtx(n)
                vals = rng.uniform(0, 1, size=n) ** 2
                vals *= (n / (vals**p).sum()) ** (1 / p) * rng.uniform(0.3, 1.0)
                delta = float(vals.sum()) / n
                A0, rep = level_set_extract(Dfn(ctx, vals), delta, p)
                assert rep.passed
                pz = (delta / 2) ** (p / (p - 1)) * n
                assert len(A0) >= pz * (1 - 1e-12)

    def test_negative_rejected(self):
        ctx = CyclicCtx(5)
        with pytest.raises(ValueError, match="nonnegative"):
            level_set_extract(Dfn(ctx, np.array([1, -1, 0, 0, 0.0])), 0.1, 2)

    def test_mass_precondition(self):
        ctx = CyclicCtx(5)
        with pytest.raises(ValueError, match="delta"):
            level_set_extract(Dfn.constant(ctx, 0.1), 0.9, 2)


def brute_cycles(eq, sets):
    """Enumerated count of x_1 + ... + x_k = 0 in X_1 x ... x X_k."""
    values = [X.indicator().values for X in sets]
    return int(_brute_total(sets[0].ctx, (1,) * eq.k, values))


class TestCycles:
    def test_zero_set(self):
        eq = EquationSpec([1, 1, 1], char=3)
        ctx = VectorCtx(FieldCtx(3, 1), 2)
        A0 = SetA(ctx, [0])
        assert count_k_cycles(eq, [A0] * 3) == 1

    def test_full_f3(self):
        eq = EquationSpec([1, 1, 1], char=3)
        ctx = VectorCtx(FieldCtx(3, 1), 1)
        X = SetA(ctx, range(3))
        assert count_k_cycles(eq, [X] * 3) == 9  # N^{k-1}
        assert brute_cycles(eq, [X] * 3) == 9

    def test_brute_matches_convolution(self):
        rng = spawn_rng(36, 0)
        eq = EquationSpec([1, 1, 1, -1, -2])
        ctx = VectorCtx(FieldCtx(3, 1), 2)
        for _ in range(5):
            Xs = [SetA(ctx, np.nonzero(rng.random(ctx.N) < 0.5)[0]) for _ in range(5)]
            if any(len(X) == 0 for X in Xs):
                continue
            assert count_k_cycles(eq, Xs) == brute_cycles(eq, Xs)

    def test_brute_matches_sorted_pairs_on_z_m(self):
        # the one kernel counts cycles on Z_M too, sets passed in several
        # slots included
        rng = spawn_rng(36, 2)
        eq = EquationSpec([1, 1, 1, -1, -2])
        ctx = CyclicCtx(17)
        for _ in range(5):
            pool = [SetA(ctx, np.nonzero(rng.random(ctx.N) < 0.4)[0]) for _ in range(3)]
            Xs = [pool[i] for i in rng.integers(0, 3, size=5)]
            assert count_k_cycles(eq, Xs) == brute_cycles(eq, Xs)

    def test_diagonal_lower_bound_random(self):
        rng = spawn_rng(36, 1)
        eq = EquationSpec([1, 1, 1, -1, -2])
        ctx = F3_2
        A0 = SetA(ctx, rng.choice(ctx.N, size=5, replace=False))
        rep = verify_supersaturation(eq, A0)
        assert rep.passed
        assert rep.quantities["cycle_count"] >= 5


def test_exact_counts_leave_no_indicator_on_the_set():
    # the counts read the bool membership array: the memoized int64
    # indicator would stay on the set, 8 bytes per group element
    eq = EquationSpec([1, 1, 1, -1, -2])
    A = SetA(CyclicCtx(padded_modulus(eq, 30)), [0, 5, 10], model_n=30)
    count_equation_solutions(eq, A)
    count_all_distinct(eq, A)
    count_k_cycles(eq, [A] * eq.k)
    B = equation_free_greedy(eq, 36, seed=0)
    trivial_solution_value(eq, B, s=2)
    C = greedy_kst_free(2, 3, 1024, seed=3)
    rep = run_transference_pipeline(C, eq, 2, 3, "1/2")
    assert rep.ledger["smoother_size"] > 1  # F built from the set, not from f
    assert [X for X in (A, B, C) if X._indicator is not None] == []


class TestSupersaturation:
    def test_bijection_and_diagonals(self):
        rng = spawn_rng(37, 0)
        for ctx in (VectorCtx(FieldCtx(3, 1), 3), VectorCtx(FieldCtx(5, 1), 2)):
            eq = EquationSpec([1, 1, 1, -1, -2])
            for density in (0.1, 0.35):
                A0 = SetA(ctx, np.nonzero(rng.random(ctx.N) < density)[0])
                if len(A0) == 0:
                    continue
                rep = verify_supersaturation(eq, A0)
                assert rep.passed, [a.name for a in rep.failing()]

    def test_merged_dilation_fails_the_report(self, monkeypatch):
        # a dilation that maps two elements of A_0 to one point must fail
        # diagonal_coordinates_distinct in the report, not raise
        ctx = VectorCtx(FieldCtx(3, 1), 3)
        eq = EquationSpec([1, 1, 1, 1, -4])
        A0 = greedy_kst_free(2, 2, ctx.N, seed=1, ctx=ctx)
        digits = ctx.digits(A0.indices)
        from_digits = VectorCtx.from_digits

        def merging_from_digits(self, d):
            # the one join of the image -4 A_0 from the digits of A_0
            out = from_digits(self, d)
            if np.shape(d) == digits.shape and np.array_equal(d, -4 * digits % 3):
                out = np.array(out)
                out[1] = out[0]
            return out

        assert verify_supersaturation(eq, A0).passed
        monkeypatch.setattr(VectorCtx, "from_digits", merging_from_digits)
        rep = verify_supersaturation(eq, A0)
        assert "diagonal_coordinates_distinct" in [a.name for a in rep.failing()]

    def test_identity_xi_dilation_fails_the_bijection(self, monkeypatch):
        # the cycles read the transforms of the dilated sets at xi, the
        # solutions read the transform of 1_{A_0} at a xi, through the
        # whole-group dilation: a dual side that forgets the dilation counts
        # x_1 + ... + x_5 = 0 instead
        rng = spawn_rng(37, 1)
        A0 = SetA(F3_4, rng.choice(F3_4.N, size=20, replace=False))
        eq = EquationSpec([1, 1, 1, 1, -4])
        assert verify_supersaturation(eq, A0).passed
        monkeypatch.setattr(VectorCtx, "dilation", lambda self, c: self.elements())
        rep = verify_supersaturation(eq, A0)
        assert [a.name for a in rep.failing()] == ["cycles_equal_solutions"]

    def test_dual_counts_transform_each_array_once_per_prime(self, monkeypatch):
        # on F_q^n every exact count is a dual sum: no _ntt_convolve, no
        # inverse transform, and one forward _ntt per distinct array and prime
        from collections import Counter

        from addlab import functions

        ctx = VectorCtx(FieldCtx(3, 1), 5)
        A = greedy_kst_free(2, 2, ctx.N, seed=0, ctx=ctx)
        eq = EquationSpec([1, 1, 1, 1, -4])
        calls = []
        ntt = functions._ntt

        def spy_ntt(v, p, axes, P, inverse=False):
            calls.append((P, inverse))
            return ntt(v, p, axes, P, inverse)

        def no_convolve(*args):
            raise AssertionError("_ntt_convolve ran")

        monkeypatch.setattr(functions, "_ntt", spy_ntt)
        monkeypatch.setattr(functions, "_ntt_convolve", no_convolve)
        primes = functions._ntt_primes(3, len(A) ** eq.k)
        # one array: 1_A
        for count in (_solution_counts, count_equation_solutions):
            calls.clear()
            count(eq, A)
            assert calls == [(P, False) for P in primes]
        # one call for the cycles and the solutions: 1_A and 1_{-4 A}, the
        # solutions reading the transform of 1_A at -4 xi
        calls.clear()
        assert verify_supersaturation(eq, A).passed
        assert Counter(calls) == {(P, False): 2 for P in primes}

    def test_zero_coefficient_eq_rejected(self):
        eq = EquationSpec([1, 2, -3])
        A0 = SetA(VectorCtx(FieldCtx(3, 1), 2), [0, 1])
        with pytest.raises(ValueError, match="vanishes|0 mod"):
            verify_supersaturation(eq, A0)


class TestPipeline:
    def test_singleton_trivial_ledger(self):
        eq = EquationSpec([1, 1, 1, -1, -2])
        ctx = CyclicCtx(200)
        A = SetA(ctx, [0], model_n=10)
        rep = run_transference_pipeline(A, eq, 2, 2, "1/4")
        assert rep.passed
        assert rep.ledger["T_F"] == pytest.approx(10 ** (5 / 2))
        assert "diagonal_value" in rep.sections

    def test_erdos_turan_11(self):
        eq = EquationSpec([1, 1, 1, -1, -2])
        rep = run_transference_pipeline(erdos_turan_sidon(11), eq, 2, 2, "1/8")
        assert rep.passed
        for key in ("delta", "T_f", "T_F", "g_hat_sup", "diagonal_value",
                    "solutions_in_A"):
            assert key in rep.ledger
        assert rep.ledger["smoother_size"] == 1
        assert TRIVIAL_SMOOTHER_FLAG in rep.flags
        M = rep.inputs["modulus"]
        assert (f"set is not equation-free: the coefficients [1, -1] sum to 0 mod {M}, "
                "so every set with |A| >= 2 has a nontrivial solution") in rep.flags

    @pytest.mark.parametrize("coeffs", [(1, 1, -2), (1, -1, 1, -1)])
    def test_fewer_than_five_variables_skip_the_chain(self, coeffs):
        rep = run_transference_pipeline(erdos_turan_sidon(11), EquationSpec(coeffs),
                                        2, 2, "1/8")
        assert rep.passed
        assert "holder_chain" not in rep.sections
        assert "E2_nu_over_N3" not in rep.ledger
        assert (f"holder chain skipped: it needs k >= 5, here k = {len(coeffs)}"
                in rep.flags)

    def test_no_vanishing_subsum_keeps_the_generic_flag(self):
        # over F_5 every coefficient of 1,1,1,1,-4 is 1: no subsum vanishes,
        # yet the set has nontrivial solutions
        A = greedy_kst_free(2, 2, 25, seed=0, ctx=F5_2)
        rep = run_transference_pipeline(A, EquationSpec([1, 1, 1, 1, -4]), 2, 2, "1/2")
        assert rep.passed
        assert len(A) == 5 and rep.ledger["solutions_in_A"] == 125
        assert [f for f in rep.flags if "equation-free" in f] == [
            "set is not equation-free: T(F) exceeds the diagonal value"]

    @pytest.mark.parametrize("build,s,t,eps,smoother,passes", [
        (lambda: erdos_turan_sidon(31), 2, 2, "1/8", 1, 5),
        (lambda: greedy_kst_free(2, 3, 1024, seed=3), 2, 3, "1/2", 1025, 6),
    ], ids=["point_smoother", "wide_smoother"])
    def test_each_dual_moment_taken_once(self, monkeypatch, build, s, t, eps, smoother,
                                         passes):
        # every |hat h| pass runs through functions._dual_domain (counting's
        # count_T binds its own name): g, f and nu at p = inf or 4, and F
        # beside them unless it is f, each once per (function, p)
        from addlab import functions

        domain, moment = functions._dual_domain, Dfn.dual_moment
        domains, taken = [], []
        monkeypatch.setattr(functions, "_dual_domain",
                            lambda ctx, real: domains.append(real) or domain(ctx, real))

        def counted(h, p):
            if p not in h._moments:
                taken.append((h, p))
            return moment(h, p)

        monkeypatch.setattr(Dfn, "dual_moment", counted)
        rep = run_transference_pipeline(build(), EquationSpec([1, 1, 1, -1, -2]), s, t, eps)
        assert rep.passed and rep.ledger["smoother_size"] == smoother
        assert len(domains) == passes and all(domains)
        assert len({(id(h), p) for h, p in taken}) == len(taken) == passes

    def test_vector_pipeline(self):
        ctx = VectorCtx(FieldCtx(3, 1), 4)
        A = greedy_kst_free(2, 2, ctx.N, seed=19, ctx=ctx)
        eq = EquationSpec([1, 1, 1, 1, -4])
        rep = run_transference_pipeline(A, eq, 2, 2, "1/2")
        assert rep.passed
        assert "supersaturation" in rep.sections
        assert rep.ledger["smoother_size"] > 1
        assert TRIVIAL_SMOOTHER_FLAG not in rep.flags

    @pytest.mark.parametrize("build, s, t, eps", [
        (lambda: erdos_turan_sidon(31), 2, 2, "1/8"),         # one-point smoother
        (lambda: greedy_kst_free(2, 3, 1024, seed=0), 2, 3, "1/2"),  # wide Bohr set
        # equation-free: the diagonal value section runs too
        (lambda: equation_free_greedy(EquationSpec([1, 1, 1, -1, -2]), 40, seed=6),
         2, 2, "1/8"),
    ], ids=["erdos_turan_31", "kst23_free_1024", "equation_free_40"])
    def test_no_transform_repeats(self, monkeypatch, build, s, t, eps):
        # every transform of the cyclic pipeline has an input not seen before
        seen = []
        fft = CyclicCtx.fft

        def recording_fft(ctx, values):
            seen.append(np.ascontiguousarray(values).tobytes())
            return fft(ctx, values)

        monkeypatch.setattr(CyclicCtx, "fft", recording_fft)
        rep = run_transference_pipeline(build(), EquationSpec([1, 1, 1, -1, -2]),
                                        s, t, eps)
        assert rep.passed and seen
        assert len(set(seen)) == len(seen)

    @pytest.mark.parametrize("eps, transforms", [("1/8", 3), ("1/2", 4)],
                             ids=["one_point_smoother", "wide_bohr_set"])
    def test_transform_count(self, monkeypatch, eps, transforms):
        # 1_A is transformed, then f and the smoother as one pair; F, g and
        # nu are not.  The rest are the inverse transforms of the physical
        # pair energies of the float inputs, two per transform: nu and F
        # (g = 0 counts exactly) under a one-point smoother, else nu and g,
        # then F alone
        calls = []
        for name in ("fft", "ifft"):
            method = getattr(CyclicCtx, name)

            def recording(ctx, values, method=method, name=name):
                calls.append(name)
                return method(ctx, values)

            monkeypatch.setattr(CyclicCtx, name, recording)
        rep = run_transference_pipeline(erdos_turan_sidon(31),
                                        EquationSpec([1, 1, 1, -1, -2]), 2, 2, eps)
        assert rep.passed
        assert (rep.ledger["smoother_size"] == 1) == (eps == "1/8")
        assert len(calls) == transforms, calls

    @pytest.mark.parametrize("eps", ["1/8", "1/2"])
    def test_derived_transforms_match_fft(self, monkeypatch, eps):
        attached = []
        with_hat = Dfn._with_hat

        def recording(h, hat):
            attached.append(h)
            return with_hat(h, hat)

        monkeypatch.setattr(Dfn, "_with_hat", recording)
        rep = run_transference_pipeline(erdos_turan_sidon(31),
                                        EquationSpec([1, 1, 1, -1, -2]), 2, 2, eps)
        assert rep.passed
        # f and the smoother from their paired transform, then F, g and nu;
        # F is f itself under a one-point smoother
        assert len(attached) == (4 if rep.ledger["smoother_size"] == 1 else 5)
        for h in attached:
            direct = h.ctx.fft(h.values.astype(np.complex128))
            scale = max(1.0, float(np.abs(direct).max()))
            assert float(np.abs(h.hat() - direct).max()) <= 1e-9 * scale

    @pytest.mark.parametrize("eps", ["1/8", "1/2"])
    def test_report_ties_derived_transforms_to_values(self, eps):
        rep = run_transference_pipeline(erdos_turan_sidon(31),
                                        EquationSpec([1, 1, 1, -1, -2]), 2, 2, eps)
        section = rep.sections["derived_transforms"]
        assert section.passed
        assert [a.name for a in section.assertions] == [
            f"hat_{name}_at_0_is_sum" for name in ("F", "g", "nu")]

    def test_transform_at_zero_catches_a_wrong_transform(self):
        ctx = CyclicCtx(31)
        h = Dfn(ctx, spawn_rng(36, 0).uniform(0, 1, size=31))
        wrong = Dfn(ctx, h.values.copy())._with_hat(2 * h.hat())
        assert _verify_transforms_at_zero({"h": h}).passed
        assert not _verify_transforms_at_zero({"h": wrong}).passed

    def test_pipeline_runs_the_public_telescoping(self, monkeypatch):
        # the pipeline's telescoping goes through verify_telescoping, with the
        # g it built
        from addlab import counting

        calls = []
        tele = counting.verify_telescoping

        def recording(eq, f, F, g=None):
            calls.append(g)
            return tele(eq, f, F, g=g)

        monkeypatch.setattr(counting, "verify_telescoping", recording)
        rep = run_transference_pipeline(erdos_turan_sidon(31),
                                        EquationSpec([1, 1, 1, -1, -2]), 2, 2, "1/2")
        assert rep.passed and len(calls) == 1 and calls[0] is not None
        chain_T = rep.sections["holder_chain"].quantities["T"]
        assert_same_bits(chain_T, rep.sections["telescoping"].quantities["terms"][0])

    @pytest.mark.parametrize("build, N, t, eps", [
        (lambda: greedy_kst_free(2, 2, 64, seed=3), 64, 2, "1/8"),  # f is F
        (lambda: greedy_kst_free(2, 3, 1024, seed=0), 1024, 3, "1/2"),
    ], ids=["sidon_64", "kst23_free_1024"])
    def test_T_F_is_the_scaled_solution_count(self, build, N, t, eps):
        # N^{1/2} is an integer, so F = N^{1/2} 1_A is integer-valued and T(F)
        # is counted exactly, independently of the ledger's solutions in A
        eq = EquationSpec([1, 1, 1, -1, -2])
        rep = run_transference_pipeline(build(), eq, 2, t, eps)
        assert rep.passed
        T_F, solutions = rep.ledger["T_F"], rep.ledger["solutions_in_A"]
        assert type(T_F) is int and type(solutions) is int
        assert T_F == round(N ** (1 / 2)) ** eq.k * solutions

    @pytest.mark.parametrize("build, coeffs, t, eps", [
        (lambda: erdos_turan_sidon(11), [1, 1, 1, -1, -2], 2, "1/8"),
        (lambda: greedy_kst_free(2, 3, 256, seed=1), [1, 1, 1, -1, -2], 3, "1/2"),
        (lambda: greedy_kst_free(2, 2, 243, seed=1, ctx=VectorCtx(FieldCtx(3, 1), 5)),
         [1, 1, 1, 1, -4], 2, "1/2"),
        # equation-free: the diagonal value owns the identity until the
        # wrong total makes the set look otherwise
        (lambda: SetA(CyclicCtx(200), [0], model_n=10), [1, 1, 1, -1, -2], 2, "1/4"),
    ], ids=["erdos_turan_11", "kst23_free_256", "sidon_f3_5", "singleton"])
    def test_solution_count_check_catches_a_wrong_total(self, monkeypatch, build,
                                                        coeffs, t, eps):
        from addlab import counting

        eq, A = EquationSpec(coeffs), build()
        rep = run_transference_pipeline(A, eq, 2, t, eps)
        assert rep.passed
        # one owner for T(F) = N^{k/s} solutions per report
        assert ("diagonal_value" in rep.sections) != ("solution_count" in rep.sections)
        solution_counts = counting._solution_counts

        def one_too_many(eq, A):
            total, distinct = solution_counts(eq, A)
            return total + 1, distinct

        monkeypatch.setattr(counting, "_solution_counts", one_too_many)
        rep = run_transference_pipeline(A, eq, 2, t, eps)
        assert [a.name for a in rep.sections["solution_count"].failing()] == [
            "T_F_is_scaled_solutions"]

    def test_nonfree_input_raises_with_witness(self):
        from addlab.sets import FreenessError

        eq = EquationSpec([1, 1, 1, -1, -2])
        A = SetA(CyclicCtx(40), [0, 1, 2, 3], model_n=10)
        with pytest.raises(FreenessError) as exc:
            run_transference_pipeline(A, eq, 2, 2, "1/4")
        assert exc.value.witness is not None

    def test_all_distinct_in_ledger_above_old_limit(self):
        # |A| = 41: the enumerator returned None from |A| = 38 on at k = 5
        eq = EquationSpec([1, 1, 1, -1, -2])
        A = erdos_turan_sidon(41)
        rep = run_transference_pipeline(A, eq, 2, 2, "1/8")
        assert rep.passed
        distinct = rep.ledger["all_distinct_solutions"]
        assert isinstance(distinct, int)
        assert 0 < distinct <= rep.ledger["solutions_in_A"] - len(A)

    def test_equation_free_pipeline(self):
        eq = EquationSpec([1, 1, 1, -1, -2])
        A = equation_free_greedy(eq, 40, seed=6)
        rep = run_transference_pipeline(A, eq, 2, 2, "1/8")
        assert rep.passed
        assert rep.ledger["solutions_in_A"] == len(A)
        assert not any("equation-free" in f for f in rep.flags)

    def test_equation_free_pipeline_counts_solutions_once(self, monkeypatch):
        # the diagonal value takes the ledger's solution count, not a recount
        from addlab import counting

        eq = EquationSpec([1, 1, 1, -1, -2])
        A = equation_free_greedy(eq, 40, seed=6)
        calls = []
        count = counting.count_equation_solutions

        def recording_count(*args, **kwargs):
            calls.append(args)
            return count(*args, **kwargs)

        monkeypatch.setattr(counting, "count_equation_solutions", recording_count)
        rep = run_transference_pipeline(A, eq, 2, 2, "1/8")
        assert "diagonal_value" in rep.sections and rep.passed
        assert rep.sections["diagonal_value"].quantities["solutions"] == len(A)
        assert calls == []

    def test_N_is_the_group_order_of_a_set_without_model_n(self):
        # the pipeline pads Z_40, but the theorem's N stays 40 in every section
        rep = run_transference_pipeline(
            SetA(CyclicCtx(40), [0, 7]), EquationSpec([1, 1, 1, -1, -2]), 2, 2, "1/8")
        assert rep.passed
        assert rep.inputs["N"] == 40 and rep.inputs["modulus"] > 40
        assert "size_over_model_bound" in rep.sections["size_bound"].measured_ratios

    def test_the_chain_runs_through_verify_counting_lemma(self, monkeypatch):
        from addlab import counting

        calls = []
        chain = counting.verify_counting_lemma

        def recording_chain(*args, **kwargs):
            calls.append(args)
            return chain(*args, **kwargs)

        monkeypatch.setattr(counting, "verify_counting_lemma", recording_chain)
        rep = run_transference_pipeline(
            erdos_turan_sidon(7), EquationSpec([1, 1, 1, -1, -2]), 2, 2, "1/8")
        assert len(calls) == 1
        assert rep.sections["holder_chain"] is not None and rep.passed
