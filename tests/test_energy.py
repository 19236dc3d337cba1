"""Moment-energy verifiers against tuple-enumeration oracles."""

from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from addlab.energy import (
    _tuple_sum,
    moment_energy,
    pair_energy,
    power_sum,
    surjection_count,
    vanishing_eta,
    vanishing_exponent,
    verify_energy_interpolation,
    verify_excess_vanishing,
    verify_heavy_tuple_count,
    verify_kst_energy_bound,
    verify_size_bound,
    verify_trivial_bounds,
)
from addlab.functions import Dfn
from addlab.groups import CyclicCtx, VectorCtx, FieldCtx
from addlab.sets import (
    SetA, erdos_turan_sidon, greedy_kst_free, is_kst_free, random_subset, rep_tuple,
)
from addlab.util import spawn_rng


def brute_energy(A: SetA, s: int) -> int:
    """Count 2s-tuples sharing a common difference, by definition."""
    elems = [int(a) for a in A.indices]
    ctx = A.ctx
    total = 0
    for tup in product(elems, repeat=s):
        for d in range(ctx.N):
            if all(int(ctx.sub(a, d)) in A for a in tup):
                total += 1
    return total


class TestEnergy:
    def test_e1_is_size_power(self):
        A = random_subset(60, 0.3, seed=1)
        fs = [A.indicator(), A.reflected_indicator()]
        assert moment_energy(fs, 1) == len(A) ** 2

    def test_e2_example(self):
        A = SetA(CyclicCtx(4), [0, 1])
        assert pair_energy(A, 2) == 6
        assert moment_energy([A.indicator(), A.reflected_indicator()], 2) == 6

    def test_zero_function(self):
        ctx = CyclicCtx(8)
        assert moment_energy([Dfn.zeros(ctx), Dfn.zeros(ctx)], 3) == 0

    def test_energy_equals_rep_power_sum(self):
        from addlab.sets import rep_diff

        rng = spawn_rng(4, 0)
        for ctx in (CyclicCtx(48), VectorCtx(FieldCtx(3, 1), 3)):
            A = SetA(ctx, np.nonzero(rng.random(ctx.N) < 0.3)[0])
            r = rep_diff(A).values
            for s in (1, 2, 3):
                assert moment_energy(
                    [A.indicator(), A.reflected_indicator()], s
                ) == sum(int(v) ** s for v in r)

    def test_brute_tuple_oracle(self):
        rng = spawn_rng(5, 1)
        for trial in range(6):
            ctx = CyclicCtx(int(rng.integers(10, 24)))
            picks = np.nonzero(rng.random(ctx.N) < 0.4)[0][:8]
            A = SetA(ctx, picks)
            if len(A) < 2:
                continue
            for s in (2, 3):
                assert pair_energy(A, s) == brute_energy(A, s)

    def test_pair_energy_against_generator_form(self):
        from addlab.sets import rep_diff

        rng = spawn_rng(6, 0)
        for M, density in ((40, 0.3), (311, 0.5), (4000, 0.4)):
            A = SetA(CyclicCtx(M), np.nonzero(rng.random(M) < density)[0])
            r = rep_diff(A).values
            for s in range(2, 7):
                assert pair_energy(A, s) == sum(int(v) ** s for v in r[r > 0])
        assert pair_energy(A, 6) > 2**63  # r(0) = |A| > 1448 alone passes int64

    def test_power_sum_against_generator_form(self):
        rng = spawn_rng(7, 0)
        for size, hi in ((50, 10), (1000, 2**12), (300, 2**40)):
            v = rng.integers(-hi, hi, size=size)
            for s in range(1, 7):
                assert power_sum(v, s) == sum(int(x) ** s for x in v)
        assert power_sum(v, 2) > 2**63 and power_sum(v, 6) > 2**63
        small = rng.integers(-5, 5, size=40)
        assert power_sum(small.astype(float), 3) == sum(int(x) ** 3 for x in small)

    def test_signed_integer_moment_against_generator_form(self):
        rng = spawn_rng(8, 0)
        for ctx in (CyclicCtx(37), VectorCtx(FieldCtx(3, 1), 3)):
            vals = [rng.integers(-50, 50, size=ctx.N) for _ in range(3)]
            conv = vals[0].astype(object)
            for v in vals[1:]:  # (a * b)(x) = sum_y a(y) b(x - y), by definition
                conv = [sum(conv[y] * int(v[ctx.sub(x, y)]) for y in range(ctx.N))
                        for x in range(ctx.N)]
            for s in (1, 3, 5):
                value = moment_energy([Dfn(ctx, v) for v in vals], s)
                assert type(value) is int
                assert value == sum(c**s for c in conv)

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            moment_energy([], 2)


class TestTrivialBounds:
    def test_random_sets(self):
        for seed in range(5):
            A = random_subset(72, 0.2, seed=seed)
            rep = verify_trivial_bounds(A, h=2, s=2)
            assert rep.passed

    def test_singleton_tight(self):
        A = SetA(CyclicCtx(12), [5])
        rep = verify_trivial_bounds(A, h=2, s=3)
        assert rep.passed
        assert rep.quantities["value"] == 1  # both bounds tight at |A|^h = 1

    def test_full_group_upper_tight(self):
        M = 9
        A = SetA(CyclicCtx(M), range(M))
        rep = verify_trivial_bounds(A, h=2, s=2)
        assert rep.passed
        assert rep.quantities["value"] == M**3  # = |A|^{sh-s+1}

    def test_higher_fold(self):
        A = random_subset(40, 0.25, seed=3)
        rep = verify_trivial_bounds(A, h=3, s=2)
        assert rep.passed and rep.inputs["pattern"] == "+-+"


class TestInterpolation:
    def test_s2_degenerate(self):
        A = erdos_turan_sidon(7)
        rep = verify_energy_interpolation(A, 2)
        assert rep.passed  # reduces to the definition of K

    def test_random_corpus(self):
        rng = spawn_rng(6, 2)
        for _ in range(100):
            ctx = CyclicCtx(256)
            A = SetA(ctx, np.nonzero(rng.random(256) < rng.uniform(0.05, 0.4))[0])
            if len(A) < 2:
                continue
            rep = verify_energy_interpolation(A, 3)
            assert rep.passed

    def test_full_group_equality(self):
        # f constant: Hoelder is tight; exact comparison must not flip
        A = SetA(CyclicCtx(11), range(11))
        rep = verify_energy_interpolation(A, 3)
        assert rep.passed
        assert rep.measured_ratios["second_moment_slack"] == pytest.approx(1.0)

    def test_s4(self):
        A = greedy_kst_free(3, 3, 48, seed=11)
        rep = verify_energy_interpolation(A, 4)
        assert rep.passed


class TestKstEnergyBound:
    def test_sidon_closed_form(self):
        # E_2 <= 2|A|^2 - |A| exactly on Sidon sets
        for p in (5, 7, 11, 13):
            A = erdos_turan_sidon(p)
            e2 = pair_energy(A, 2)
            assert e2 <= 2 * len(A) ** 2 - len(A)
            rep = verify_kst_energy_bound(A, 2, 2)
            assert rep.passed
            assert rep.quantities["max_distinct_rep"] <= 1

    def test_decomposition_identity_random(self):
        for seed in range(8):
            A = greedy_kst_free(2, 3, 60, seed=seed)
            rep = verify_kst_energy_bound(A, 2, 3)
            assert rep.passed
            got = {a.name for a in rep.assertions if a.passed}
            assert "decomposition_identity" in got

    def test_singleton(self):
        A = SetA(CyclicCtx(10), [3])
        rep = verify_kst_energy_bound(A, 2, 2)
        assert rep.passed
        assert rep.quantities["E_s"] == 1

    def test_greedy_33_corpus(self):
        for seed in (1, 2):
            A = greedy_kst_free(3, 3, 48, seed=seed)
            rep = verify_kst_energy_bound(A, 3, 3)
            assert rep.passed
            assert "degenerate_over_scale" in rep.measured_ratios

    def test_exponent_case_split(self):
        assert vanishing_exponent(2) == 1
        assert vanishing_exponent(3) == Fraction(1, 2)
        assert vanishing_exponent(4) == Fraction(2, 3)
        A = erdos_turan_sidon(5)
        rep = verify_kst_energy_bound(A, 2, 2)
        assert any("c_2" in f for f in rep.flags)


class TestHeavyTuples:
    def test_ap_example_brute(self):
        # arithmetic progression of length 10 in Z_64, s = t = 2
        ctx = CyclicCtx(64)
        A = SetA(ctx, range(0, 20, 2))
        rep = verify_heavy_tuple_count(A, 2, 2)
        if "not-applicable: eta >= 1" not in rep.flags:
            assert rep.passed
        # brute-force both sides
        elems = [int(a) for a in A.indices]
        count = 0
        for a in elems:
            for b in elems:
                reps = sum(
                    1
                    for d in range(1, 64)
                    if int(ctx.sub(a, d)) in A and int(ctx.sub(b, d)) in A
                )
                if reps > 1:
                    count += 1
        e2 = pair_energy(A, 2)
        assert 2 * count <= e2 - len(A) ** 2
        if "heavy_count" in rep.quantities:
            assert rep.quantities["heavy_count"] == count

    def test_singleton(self):
        A = SetA(CyclicCtx(9), [0])
        rep = verify_heavy_tuple_count(A, 2, 2)
        assert rep.passed

    def test_free_corpus(self):
        for seed in range(5):
            A = greedy_kst_free(2, 3, 70, seed=seed + 100)
            rep = verify_heavy_tuple_count(A, 2, 3)
            assert rep.passed


class TestSizeBound:
    def test_erdos_turan(self):
        rep = verify_size_bound(erdos_turan_sidon(11), 2, 2)
        assert rep.passed

    def test_singleton(self):
        A = SetA(CyclicCtx(50), [7])
        rep = verify_size_bound(A, 3, 4)
        assert rep.passed

    def test_greedy_corpus(self):
        for seed in range(6):
            A = greedy_kst_free(2, 3, 100, seed=seed)
            rep = verify_size_bound(A, 2, 3)
            assert rep.passed
            assert rep.measured_ratios["size_over_bound"] <= 1.0


class TestVanishing:
    def test_sidon_distinct_excess_zero(self):
        rep = verify_excess_vanishing(erdos_turan_sidon(7), 2, 2)
        assert rep.passed
        assert rep.quantities["distinct_excess"] == 0

    def test_greedy_23(self):
        A = greedy_kst_free(2, 3, 90, seed=41)
        rep = verify_excess_vanishing(A, 2, 3)
        assert rep.passed
        assert rep.quantities["total_excess"] >= 0

    def test_singleton_zero(self):
        A = SetA(CyclicCtx(6), [0])
        rep = verify_excess_vanishing(A, 2, 2)
        assert rep.passed
        assert rep.quantities["total_excess"] == 0

    def test_eta_matches_definition(self):
        A = greedy_kst_free(2, 2, 50, seed=3)
        eta = vanishing_eta(A, 2, 2)
        ctx = A.ctx
        elems = [int(a) for a in A.indices]
        total = 0
        for a in elems:
            for b in elems:
                reps = sum(
                    1
                    for d in range(1, ctx.N)
                    if int(ctx.sub(a, d)) in A and int(ctx.sub(b, d)) in A
                )
                total += max(reps - 1, 0)
        assert eta == Fraction(total, len(A) ** 2)


def test_surjection_counts():
    # sum over support sizes recovers the number of all ordered tuples
    for s in (2, 3, 4):
        for m in (3, 5, 8):
            from math import comb

            assert sum(comb(m, u) * surjection_count(s, u) for u in range(1, s + 1)) == m**s


def test_tuple_sum_against_definition():
    # every tuple-level sum against weight(rep) summed over itertools.product;
    # E_s = |A|^s + sum of rep holds on grid-free and non-free sets alike
    rng = spawn_rng(19, 7)
    cases = 0
    non_free = 0
    for trial in range(40):
        if trial % 2:
            ctx = VectorCtx(FieldCtx(3, 1), 3)
        else:
            ctx = CyclicCtx(int(rng.integers(12, 30)))
        size = int(rng.integers(1, 8))
        A = SetA(ctx, rng.choice(ctx.N, size=size, replace=False))
        non_free += not is_kst_free(A, 2, 2)
        for s in (2, 3):
            reps = [
                (len(set(tpl)) == s, rep_tuple(A, tpl))
                for tpl in product([int(a) for a in A.indices], repeat=s)
            ]
            assert pair_energy(A, s) == len(A) ** s + _tuple_sum(A, s, lambda rep: rep)
            for t in (2, 3, 4):
                for weight in (
                    lambda rep: rep,
                    lambda rep: int(rep > t - 1),
                    lambda rep: max(rep - (t - 1), 0),
                ):
                    for sizes in (None, [s]):
                        expected = sum(
                            weight(rep) for distinct, rep in reps
                            if distinct or sizes is None
                        )
                        assert _tuple_sum(A, s, weight, sizes) == expected, (
                            f"s={s}, t={t}, sizes={sizes}, A={A.indices.tolist()} "
                            f"in {ctx!r}"
                        )
                        cases += 1
    assert cases == 1440
    assert non_free > 0
