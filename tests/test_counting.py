"""Counting functional, transference machinery, cycles, level sets."""

import functools
import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from addlab.counting import (
    EquationSpec,
    PaddingError,
    _brute_total,
    _is_invertible,
    _solution_counts,
    _solve_last,
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
from addlab.functions import Dfn
from addlab.groups import CyclicCtx, FieldCtx, VectorCtx
from addlab.sets import SetA, equation_free_greedy, erdos_turan_sidon, greedy_kst_free
from addlab.util import spawn_rng

F5 = VectorCtx(FieldCtx(5, 1), 1)
F3_2 = VectorCtx(FieldCtx(3, 1), 2)


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


class TestCountT:
    def test_full_group_f5(self):
        eq = EquationSpec([1, 1, 1, 1, 1], char=5)
        hs = [Dfn.indicator(F5, range(5))] * 5
        for method in ("brute", "fourier"):
            res = count_T(eq, hs, method)
            assert res.total == 625  # N^{k-1}

    @pytest.mark.parametrize("method", ["brute", "fourier"])
    def test_integer_counts_do_not_wrap(self, method):
        # prod_i sum h_i = 10^20 > 2^63: int64 products would wrap
        eq = EquationSpec([1, 1, 1, -1, -2])
        h = Dfn(CyclicCtx(7), np.array([10**4, 0, 0, 0, 0, 0, 0]))
        res = count_T(eq, [h] * 5, method)
        assert res.trivial == 10**20 and type(res.trivial) is int
        if method == "brute":
            assert res.total == 10**20 and type(res.total) is int

    def test_singleton_diagonal(self):
        eq = EquationSpec([1, 1, 1, 1, 1], char=5)
        hs = [Dfn.indicator(F5, [0])] * 5
        res = count_T(eq, hs, "brute")
        assert res.total == 1 and res.trivial == 1

    def test_brute_equals_fourier_complex(self):
        rng = spawn_rng(31, 0)
        eq = EquationSpec([1, 1, -2])
        ctx = CyclicCtx(12)
        for _ in range(20):
            hs = [Dfn(ctx, rng.normal(size=12) + 1j * rng.normal(size=12))
                  for _ in range(3)]
            b = count_T(eq, hs, "brute").total
            f = count_T(eq, hs, "fourier").total
            assert abs(b - f) < 1e-9 * max(1.0, abs(b))

    def test_brute_equals_fourier_indicators(self):
        rng = spawn_rng(31, 1)
        eq = EquationSpec([1, 2, -3, 1, -1])
        for _ in range(10):
            ctx = CyclicCtx(int(rng.integers(20, 40)))
            A = SetA(ctx, np.nonzero(rng.random(ctx.N) < 0.3)[0])
            hs = [A.indicator()] * 5
            b = count_T(eq, hs, "brute").total
            f = count_T(eq, hs, "fourier").total
            assert b == f

    def test_noninvertible_coefficient_scan_path(self):
        # gcd(2, 12) > 1 for every coefficient: the scan fallback must agree
        eq = EquationSpec([2, 2, -4])
        ctx = CyclicCtx(12)
        rng = spawn_rng(31, 2)
        hs = [Dfn(ctx, rng.normal(size=12)) for _ in range(3)]
        b = count_T(eq, hs, "brute").total
        f = count_T(eq, hs, "fourier").total
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
            lhs = count_T(eq, [hs[0], mixed] + hs[2:], "fourier").total
            rhs = a * count_T(eq, hs, "fourier").total + b * count_T(
                eq, [hs[0], extra] + hs[2:], "fourier"
            ).total
            assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)

    def test_translation_invariance(self):
        rng = spawn_rng(32, 1)
        eq = EquationSpec([1, 1, 1, -1, -2])
        for ctx in (CyclicCtx(29), F3_2):
            for _ in range(8):
                hs = [Dfn(ctx, rng.normal(size=ctx.N)) for _ in range(5)]
                c = int(rng.integers(1, ctx.N))
                shifted = [h.translate(c) for h in hs]
                t0 = count_T(eq, hs, "fourier").total
                t1 = count_T(eq, shifted, "fourier").total
                assert t1 == pytest.approx(t0, rel=1e-9, abs=1e-9)

    def test_padding_check_names_minimal_modulus(self):
        eq = EquationSpec([1, 1, -2])
        ctx = CyclicCtx(20)
        A = SetA(ctx, [0, 9])  # radius 9, weight 4 -> need M > 36
        with pytest.raises(PaddingError) as exc:
            assert_z_faithful(eq, [A.indicator()] * 3)
        assert exc.value.minimal_modulus == 37

    def test_exact_convolution_route_matches_brute(self):
        rng = spawn_rng(32, 2)
        eq = EquationSpec([1, 1, -2])
        for _ in range(10):
            n = int(rng.integers(8, 20))
            ctx = CyclicCtx(padded_modulus(eq, n))
            A = SetA(ctx, rng.choice(n, size=min(n, 6), replace=False))
            exact = count_equation_solutions(eq, A)
            brute = count_T(eq, [A.indicator()] * 3, "brute").total
            assert exact == brute


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
        assert "(" in str(exc.value)

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
        assert total == count_equation_solutions(eq, A, check_padding=False)
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

    def test_empty_and_single_point(self):
        eq = EquationSpec([1, 1, 1, -1, -2])
        for ctx in (CyclicCtx(1), CyclicCtx(37), F3_2):
            assert _solution_counts(eq, SetA(ctx, [])) == (0, 0)
            assert _solution_counts(eq, SetA(ctx, [0])) == (1, 0)


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

    def test_chain_runs_for_invertible_coefficients(self):
        eq = EquationSpec([1, 1, 1, -1, -2])
        rep = verify_telescoping(eq, *self._half_period_pair(41))
        assert rep.passed
        names = {a.name for a in rep.assertions}
        assert {f"term_bound_{i}" for i in range(5)} | {"transfer_bound"} <= names
        assert rep.flags == []


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
        res = count_k_cycles(eq, [A0] * 3)
        assert res.total == 1

    def test_full_f3(self):
        eq = EquationSpec([1, 1, 1], char=3)
        ctx = VectorCtx(FieldCtx(3, 1), 1)
        X = SetA(ctx, range(3))
        assert count_k_cycles(eq, [X] * 3).total == 9  # N^{k-1}
        assert brute_cycles(eq, [X] * 3) == 9

    def test_brute_matches_convolution(self):
        rng = spawn_rng(36, 0)
        eq = EquationSpec([1, 1, 1, -1, -2])
        ctx = VectorCtx(FieldCtx(3, 1), 2)
        for _ in range(5):
            Xs = [SetA(ctx, np.nonzero(rng.random(ctx.N) < 0.5)[0]) for _ in range(5)]
            if any(len(X) == 0 for X in Xs):
                continue
            assert count_k_cycles(eq, Xs).total == brute_cycles(eq, Xs)

    def test_diagonal_lower_bound_random(self):
        rng = spawn_rng(36, 1)
        eq = EquationSpec([1, 1, 1, -1, -2])
        ctx = F3_2
        A0 = SetA(ctx, rng.choice(ctx.N, size=5, replace=False))
        rep = verify_supersaturation(eq, A0)
        assert rep.passed
        assert rep.quantities["cycle_count"] >= 5


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
        # equation-free: the diagonal value counts the scaled indicator too
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
