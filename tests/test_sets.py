"""Freeness detection vs the exhaustive grid oracle, plus constructions."""

import os
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from addlab import sets
from addlab.counting import EquationSpec, run_transference_pipeline
from addlab.dense_model import build_dense_model
from addlab.energy import verify_excess_vanishing, verify_kst_energy_bound
from addlab.groups import CyclicCtx, FieldCtx, VectorCtx
from addlab.sets import (
    SetA,
    FreenessError,
    GridWitness,
    equation_free_greedy,
    erdos_turan_sidon,
    find_kst_violation,
    find_kst_violation_exhaustive,
    greedy_kst_free,
    is_kst_free,
    load_set,
    random_subset,
    rep_diff,
    rep_tuple,
    rep_tuples,
    save_set,
    require_kst_free,
    subset_rep_aggregates,
    subspace_set,
    construct,
)
from addlab.util import spawn_rng


def brute_rep_diff(A):
    """Plain double-loop difference counts."""
    counts = {}
    for a in A:
        for b in A:
            d = int(A.ctx.sub(a, b))
            counts[d] = counts.get(d, 0) + 1
    return counts


class TestRepFunctions:
    def test_rep_diff_example(self):
        A = SetA(CyclicCtx(4), [0, 1])
        assert rep_diff(A).values.tolist() == [2, 1, 0, 1]

    def test_rep_diff_properties(self):
        rng = spawn_rng(1, 1)
        for ctx in (CyclicCtx(50), VectorCtx(FieldCtx(3, 1), 3)):
            picks = np.nonzero(rng.random(ctx.N) < 0.3)[0]
            A = SetA(ctx, picks)
            r = rep_diff(A).values
            assert r[0] == len(A)
            assert int(r.sum()) == len(A) ** 2
            oracle = brute_rep_diff(A)
            for d, c in oracle.items():
                assert r[d] == c

    def test_rep_diff_full_group(self):
        ctx = CyclicCtx(9)
        A = SetA(ctx, range(9))
        assert np.all(rep_diff(A).values == 9)

    def test_rep_tuple_examples(self):
        A = SetA(CyclicCtx(8), [0, 1, 2, 3])
        assert rep_tuple(A, (0, 1)) == 2  # shifts {6, 7}
        B = SetA(CyclicCtx(4), [0, 1])
        assert rep_tuple(B, (0, 0)) == 1
        sidon = erdos_turan_sidon(7)
        elems = list(sidon.indices)
        for i in range(len(elems)):
            for j in range(i + 1, len(elems)):
                assert rep_tuple(sidon, (elems[i], elems[j])) <= 1

    def test_rep_tuple_brute_oracle(self):
        rng = spawn_rng(2, 7)
        ctx = CyclicCtx(40)
        A = SetA(ctx, np.nonzero(rng.random(40) < 0.35)[0])
        elems = [int(a) for a in A.indices]
        for _ in range(30):
            tpl = [elems[i] for i in rng.integers(0, len(elems), size=3)]
            expect = sum(
                1
                for d in range(1, 40)
                if all(int(ctx.sub(a, d)) in A for a in tpl)
            )
            assert rep_tuple(A, tpl) == expect

    def test_rep_tuple_requires_membership(self):
        A = SetA(CyclicCtx(10), [0, 2])
        with pytest.raises(ValueError, match="not in A"):
            rep_tuple(A, (0, 1))

    @pytest.mark.parametrize("ctx", [
        VectorCtx(FieldCtx(3, 1), 3), VectorCtx(FieldCtx(3, 1), 4),
        VectorCtx(FieldCtx(5, 1), 2), CyclicCtx(40),
    ], ids=repr)
    @pytest.mark.parametrize("s", [2, 3])
    def test_rep_tuples_match_scalar(self, monkeypatch, ctx, s):
        monkeypatch.setattr(sets, "_TUPLE_BLOCK", 7)  # 60 rows span 9 blocks
        A = greedy_kst_free(s, s, ctx.N, seed=ctx.N + s, ctx=ctx)
        rng = spawn_rng(2, 8)
        tuples = A.indices[rng.integers(0, len(A), size=(60, s))]
        counts = rep_tuples(A, tuples)
        assert counts.dtype == np.int64
        assert counts.tolist() == [rep_tuple(A, row) for row in tuples]

    def test_rep_tuples_requires_membership(self):
        A = SetA(VectorCtx(FieldCtx(3, 1), 2), [0, 2, 4])
        with pytest.raises(ValueError, match="element 1 not in A"):
            rep_tuples(A, [[0, 2], [4, 1]])
        with pytest.raises(ValueError, match="s >= 2"):
            rep_tuples(A, [[0], [2]])
        assert rep_tuples(A, np.zeros((0, 2))).shape == (0,)


def oracle_rep_profile(A, u):
    """{rep: u-subsets with that rep}, rep >= 1, from rep_tuple over
    itertools.combinations."""
    profile = {}
    for sub in combinations([int(a) for a in A.indices], u):
        rep = rep_tuple(A, sub if u > 1 else sub * 2)  # (a, a) has the shifts of {a}
        if rep:
            profile[rep] = profile.get(rep, 0) + 1
    return profile


def profile_aggregates(profile, t):
    """The t-dependent sums that the energy verifiers read off a profile."""
    return {
        "max_rep": max(profile, default=0),
        "rep_sum": sum(n * rep for rep, n in profile.items()),
        "count_over": sum(n for rep, n in profile.items() if rep > t - 1),
        "excess_sum": sum(n * max(rep - (t - 1), 0) for rep, n in profile.items()),
    }


def test_subset_rep_aggregates_oracle():
    rng = spawn_rng(29, 4)
    cases = 0
    for trial in range(60):
        if trial % 3 == 2:
            ctx = VectorCtx(FieldCtx(3, 1), 3)
        else:
            ctx = CyclicCtx(int(rng.integers(12, 30)))
        size = int(rng.integers(0, 12))
        A = SetA(ctx, rng.choice(ctx.N, size=size, replace=False))
        for u in range(1, 5):
            expected = oracle_rep_profile(A, u)
            profile = subset_rep_aggregates(A, u)
            assert dict(profile) == expected, (
                f"u={u}, A={A.indices.tolist()} in {ctx!r}"
            )
            for t in range(2, 5):
                assert profile_aggregates(profile, t) == profile_aggregates(expected, t)
                cases += 1
    assert cases == 720


def test_rep_profile_follows_the_group_and_is_read_only():
    A = SetA(CyclicCtx(7), [0, 1, 3])
    profile = subset_rep_aggregates(A, 2)
    assert dict(profile) == {}  # {0, 1, 3} is Sidon in Z_7
    assert subset_rep_aggregates(A, 2) is profile
    with pytest.raises(TypeError):
        profile[1] = 1
    B = A.with_ctx(CyclicCtx(5))
    assert dict(subset_rep_aggregates(B, 2)) == {1: 2}
    assert not is_kst_free(B, 2, 2)
    assert is_kst_free(A, 2, 2)


def test_with_ctx_shares_the_profile_on_an_equal_group():
    A = erdos_turan_sidon(7)
    B = A.with_ctx(CyclicCtx(A.ctx.M))
    assert subset_rep_aggregates(B, 2) is subset_rep_aggregates(A, 2)
    # the copy keeps its own indicator, and with it its own transform
    assert B.indicator() is not A.indicator()


def _record_walks(monkeypatch, cap=None) -> list:
    """The (u, floor) of every _subset_masks walk from here on; a walk that
    yields more than `cap` subsets fails the test."""
    walks = []
    walk = sets._subset_masks

    def recording(A, u, floor):
        walks.append((u, floor))
        for n, hit in enumerate(walk(A, u, floor), 1):
            assert cap is None or n <= cap, f"walk ({u}, {floor}) passed {cap} subsets"
            yield hit

    monkeypatch.setattr(sets, "_subset_masks", recording)
    return walks


def test_freeness_is_read_from_the_profile(monkeypatch):
    # the checks of a K_{3,3}-free set share the one walk of its 3-subsets
    greedy = greedy_kst_free(3, 3, 72, seed=5)
    A = SetA(greedy.ctx, greedy.indices)
    walks = _record_walks(monkeypatch)
    for _ in range(3):
        require_kst_free(A, 3, 3)
    assert verify_kst_energy_bound(A, 3, 3).passed
    assert verify_excess_vanishing(A, 3, 3).passed
    assert walks == [(3, 2)]


def test_a_large_non_free_set_raises_at_its_first_violation(monkeypatch):
    # about 1.7e8 3-subsets; the profile walk stops at the first violating one
    rng = spawn_rng(3, 3)
    A = SetA(CyclicCtx(2000), rng.choice(2000, size=1000, replace=False))
    walks = _record_walks(monkeypatch, cap=100)
    with pytest.raises(FreenessError) as err:
        require_kst_free(A, 3, 3)
    assert walks == [(3, 2)]
    assert 3 not in A._rep_profiles
    assert err.value.witness.verify(A, 3, 3)


def test_a_stored_profile_and_the_stopped_walk_give_one_witness(monkeypatch):
    A = SetA(CyclicCtx(30), range(8))
    walks = _record_walks(monkeypatch)
    first = find_kst_violation(A, 3, 3)
    assert walks == [(3, 2)] and 3 not in A._rep_profiles
    subset_rep_aggregates(A, 3)
    assert find_kst_violation(A, 3, 3) == first
    assert walks == [(3, 2), (3, 2), (3, 3)]
    assert first.verify(A, 3, 3)


class TestFreeness:
    def test_spec_examples(self):
        Z20 = CyclicCtx(20)
        assert is_kst_free(SetA(Z20, [0, 1, 3, 7]), 2, 2)
        w = find_kst_violation(SetA(Z20, [0, 1, 2, 3]), 2, 2)
        assert w == GridWitness(b=(0, 1), c=(0, 2))
        assert is_kst_free(SetA(Z20, [0]), 2, 2)  # |A| < s

    def test_zero_shift_grid_detected(self):
        # max nonzero-shift count is t-1 here, yet a grid exists (zero shift)
        A = SetA(CyclicCtx(20), [0, 1, 2])
        assert max(subset_rep_aggregates(A, 2)) == 1
        w = find_kst_violation(A, 2, 2)
        assert w is not None and w.verify(A, 2, 2)
        assert find_kst_violation_exhaustive(A, 2, 2) is not None

    def test_witness_always_verifies(self):
        rng = spawn_rng(3, 0)
        for trial in range(60):
            ctx = CyclicCtx(int(rng.integers(16, 48)))
            A = SetA(ctx, np.nonzero(rng.random(ctx.N) < 0.4)[0])
            for s, t in ((2, 2), (2, 3)):
                w = find_kst_violation(A, s, t)
                if w is not None:
                    assert w.verify(A, s, t)

    @pytest.mark.parametrize("s,t", [(2, 2), (2, 3), (3, 3)])
    def test_matches_exhaustive_oracle(self, s, t):
        rng = spawn_rng(17, s, t)
        checked = 0
        for trial in range(220):
            kind = trial % 3
            if kind == 0:
                ctx = CyclicCtx(int(rng.integers(12, 40)))
                A = SetA(ctx, np.nonzero(rng.random(ctx.N) < rng.uniform(0.15, 0.5))[0])
            elif kind == 1:
                A = greedy_kst_free(s, t, int(rng.integers(16, 40)),
                                    seed=int(rng.integers(1 << 30)))
            else:
                ctx = VectorCtx(FieldCtx(3, 1), 3)
                A = SetA(ctx, np.nonzero(rng.random(ctx.N) < 0.3)[0])
            if len(A) > 14:
                A = SetA(A.ctx, A.indices[: 14])
            free_fast = find_kst_violation(A, s, t) is None
            free_oracle = find_kst_violation_exhaustive(A, s, t) is None
            assert free_fast == free_oracle, (
                f"disagreement on |A|={len(A)} in {A.ctx!r}"
            )
            checked += 1
        assert checked >= 200

    def test_free_iff_shift_threshold(self):
        # free <=> every distinct tuple admits at most t-1 shifts counting 0
        rng = spawn_rng(23, 1)
        for _ in range(80):
            ctx = CyclicCtx(int(rng.integers(14, 36)))
            A = SetA(ctx, np.nonzero(rng.random(ctx.N) < 0.35)[0])
            if len(A) < 2:
                continue
            s, t = 2, 2
            free = find_kst_violation(A, s, t) is None
            max_with_zero = max(subset_rep_aggregates(A, s), default=0) + 1
            assert free == (max_with_zero <= t - 1)
            if free:
                # the one-sided bound from the shift-count argument
                assert max(subset_rep_aggregates(A, s), default=0) <= t - 1


class TestConstructions:
    def test_erdos_turan_values(self):
        A = erdos_turan_sidon(5)
        assert [int(a) for a in A.indices] == [0, 11, 24, 34, 41]
        assert A.ctx.M >= 55
        assert is_kst_free(A, 2, 2)
        # the minimal modulus from the construction happens to work at p = 5
        assert is_kst_free(erdos_turan_sidon(5, M=55), 2, 2)

    @pytest.mark.parametrize("p", [5, 7, 11, 13])
    def test_erdos_turan_sidon_family(self, p):
        A = erdos_turan_sidon(p)
        assert len(A) == p
        r = rep_diff(A).values
        assert r[1:].max() <= 1

    def test_erdos_turan_rejects_nonprime(self):
        with pytest.raises(ValueError, match="prime"):
            erdos_turan_sidon(9)

    @pytest.mark.parametrize("s,t", [(2, 2), (2, 3), (3, 3)])
    def test_greedy_post_checked(self, s, t):
        A = greedy_kst_free(s, t, 60, seed=5)
        assert is_kst_free(A, s, t)
        assert len(A) >= s
        assert A.provenance["seed"] == 5

    def test_greedy_deterministic(self):
        a = greedy_kst_free(2, 3, 80, seed=9)
        b = greedy_kst_free(2, 3, 80, seed=9)
        assert np.array_equal(a.indices, b.indices)

    def test_greedy_in_vector_ctx(self):
        ctx = VectorCtx(FieldCtx(3, 1), 3)
        A = greedy_kst_free(2, 2, ctx.N, seed=4, ctx=ctx)
        assert is_kst_free(A, 2, 2)

    def test_subspace_empty_basis(self):
        ctx = VectorCtx(FieldCtx(3, 1), 2)
        A = subspace_set(ctx, [])
        assert [int(a) for a in A.indices] == [0]

    def test_subspace_sizes(self):
        ctx = VectorCtx(FieldCtx(3, 1), 3)
        A = subspace_set(ctx, [ctx.parse_element("1 0 0"), ctx.parse_element("0 1 0")])
        assert len(A) == 9

    def test_equation_free_greedy(self):
        from addlab.counting import EquationSpec, count_equation_solutions

        eq = EquationSpec([1, 1, 1, -1, -2])
        A = equation_free_greedy(eq, 40, seed=2)
        assert count_equation_solutions(eq, A) == len(A)

    def test_random_subset_density(self):
        A = random_subset(400, 0.25, seed=8)
        assert 40 <= len(A) <= 160
        # any integral size names Z_n, numpy's included
        B = random_subset(np.int64(400), 0.25, seed=8)
        assert B.ctx == A.ctx and np.array_equal(B.indices, A.indices)

    def test_random_subset_density_range(self):
        assert len(random_subset(10, 0, seed=0)) == 0
        assert len(random_subset(10, 1, seed=0)) == 10
        for density in (2, -0.1, float("nan")):
            with pytest.raises(ValueError, match=f"density {density} must lie"):
                random_subset(10, density, seed=0)

    def test_construct_dispatcher(self):
        A = construct("erdos_turan_sidon", {"p": 5})
        assert len(A) == 5
        B = construct("greedy_kst_free", {"s": 2, "t": 2, "N": 30}, seed=3)
        assert is_kst_free(B, 2, 2)
        with pytest.raises(ValueError, match="unknown construction"):
            construct("nope", {})

    def test_construct_parses_modulus(self):
        # CLI params arrive as strings
        A = construct("erdos_turan_sidon", {"p": "11", "M": "459"})
        assert A.ctx.M == 459 and A.provenance["M"] == 459



def _greedy_order(n, seed, ctx):
    """The candidate order of greedy_kst_free: one seeded permutation."""
    rng = spawn_rng(seed, 0x6B5D)
    return (CyclicCtx(2 * n + 1), rng.permutation(n)) if ctx is None else (
        ctx, rng.permutation(ctx.N))


def greedy_rebuild_oracle(s, t, n, seed, ctx=None, prefix=None):
    """The greedy with the admission test spelled out: a new SetA and a full
    find_kst_violation for each candidate, stopped after `prefix` admissions
    when one is given."""
    ctx, order = _greedy_order(n, seed, ctx)
    chosen = []
    for c in order:
        if find_kst_violation(SetA(ctx, chosen + [int(c)]), s, t) is None:
            chosen.append(int(c))
            if prefix and len(chosen) >= prefix:
                break
    return sorted(chosen)


def first_admitted(A, n, seed, ctx=None, prefix=None):
    """The first `prefix` elements of a greedy set in its candidate order,
    which are its first admissions, sorted; all of A for None."""
    member = set(A.indices.tolist())
    admitted = [int(c) for c in _greedy_order(n, seed, ctx)[1] if int(c) in member]
    return sorted(admitted[:prefix])


class TestGreedyIncremental:
    @pytest.mark.parametrize("s,t", [(2, 2), (2, 3), (2, 4), (3, 3), (3, 4)])
    @pytest.mark.parametrize("prefix", [None, 9])
    def test_matches_rebuild_oracle_on_z(self, s, t, prefix):
        n = 400 if s == 2 else 60
        for seed in range(4):
            A = greedy_kst_free(s, t, n, seed=seed)
            assert first_admitted(A, n, seed, prefix=prefix) == greedy_rebuild_oracle(
                s, t, n, seed, prefix=prefix), (s, t, seed)

    @pytest.mark.parametrize("p,r,n", [(3, 1, 4), (3, 1, 5), (5, 1, 3), (3, 2, 2)])
    @pytest.mark.parametrize("s,t", [(2, 2), (2, 3), (3, 3)])
    def test_matches_rebuild_oracle_on_fqn(self, p, r, n, s, t):
        ctx = VectorCtx(FieldCtx(p, r), n)
        for seed, prefix in ((0, None), (1, None), (2, 6)):
            A = greedy_kst_free(s, t, ctx.N, seed=seed, ctx=ctx)
            assert first_admitted(A, ctx.N, seed, ctx, prefix) == greedy_rebuild_oracle(
                s, t, ctx.N, seed, ctx=ctx, prefix=prefix), (s, t, seed)

    def test_midpoint_candidate_rejected(self):
        # with {0, 2} kept, c = 1 has r(c - a) = 0 for both a, and only the
        # 2c - a in A term sees that 1 - 0 = 2 - 1 repeats a difference
        seed = next(seed for seed in range(100)
                    if _greedy_order(3, seed, None)[1].tolist()[-1] == 1)
        A = greedy_kst_free(2, 2, 3, seed=seed)
        assert A.indices.tolist() == [0, 2] == greedy_rebuild_oracle(2, 2, 3, seed)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError, match="2 <= s <= t"):
            greedy_kst_free(3, 2, 20, seed=0)


def equation_free_recount_oracle(eq, n, seed):
    """The equation-free greedy with every candidate tried: all solutions of
    A + {c} recounted, mod the padded modulus, for each c."""
    from addlab.counting import count_equation_solutions, padded_modulus

    ctx = CyclicCtx(padded_modulus(eq, n))
    chosen = []
    for c in spawn_rng(seed, 0xEBF3).permutation(n):
        trial = chosen + [int(c)]
        if count_equation_solutions(eq, SetA(ctx, trial)) == len(trial):
            chosen = trial
    return sorted(chosen)


class TestEquationFreeGreedy:
    # only an equation with a vanishing coefficient subsum skips the recount,
    # so only those run at the larger n
    @pytest.mark.parametrize("coeffs, n", [
        ((1, 1, -2), 48), ((1, 2, -3), 48), ((1, 1, 1, -3), 48), ((2, 3, -1, -4), 48),
        ((1, 1, 1, 1, -4), 48), ((1, -1, 1, -1), 48), ((1, -1, 1, -1), 256),
        ((1, 1, 1, -1, -2), 48), ((1, 1, 1, -1, -2), 256),
    ])
    def test_matches_recount_oracle(self, coeffs, n):
        eq = EquationSpec(coeffs)
        for seed in range(3):
            A = equation_free_greedy(eq, n, seed=seed)
            assert A.indices.tolist() == equation_free_recount_oracle(eq, n, seed), seed
            # a vanishing coefficient subsum leaves no room for a second point
            assert (len(A) == 1) == (eq.vanishing_subsum(A.ctx) is not None)

    def test_empty_range(self):
        assert len(equation_free_greedy(EquationSpec((1, 1, -2)), 0, seed=0)) == 0


class TestSetStorage:
    def test_sorted_distinct_indices(self):
        A = SetA(CyclicCtx(10), [7, 3, 9, 3, 0, 7, 7])
        assert A.indices.tolist() == [0, 3, 7, 9] and A.indices.dtype == np.int64
        assert A.member.tolist() == [i in (0, 3, 7, 9) for i in range(10)]
        assert SetA(CyclicCtx(10), np.array([[4, 1], [1, 4]])).indices.tolist() == [1, 4]

    def test_sorted_unique_matches_np_unique(self):
        from addlab.util import sorted_unique

        rng = spawn_rng(3, 1)
        for shape in ((0,), (1,), (50,), (7, 9)):
            a = rng.integers(-20, 20, size=shape)
            got = sorted_unique(a)
            assert got.dtype == np.int64 and got.tolist() == np.unique(a).tolist()

    def test_empty_input(self):
        for empty in ([], np.empty(0, dtype=np.int64), ()):
            A = SetA(CyclicCtx(5), empty)
            assert len(A) == 0 and A.indices.dtype == np.int64
            assert not A.member.any()

    @pytest.mark.parametrize("indices", [[3, -1, 2], [0, 10], [10, 10]])
    def test_out_of_range(self, indices):
        with pytest.raises(ValueError, match="out of range"):
            SetA(CyclicCtx(10), indices)

    def test_building_sets_leaves_numpy_ma_unimported(self):
        # np.unique without return_counts imports numpy.ma on its first call
        src = Path(sets.__file__).resolve().parents[1]
        code = (
            "import sys\n"
            "from addlab.groups import CyclicCtx, FieldCtx, VectorCtx\n"
            "from addlab.sets import SetA, subspace_set\n"
            "SetA(CyclicCtx(10), [3, 1, 3])\n"
            "ctx = VectorCtx(FieldCtx(3, 1), 3)\n"
            "subspace_set(ctx, [1, 3])\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, env={**os.environ, "PYTHONPATH": str(src)})
        assert res.returncode == 0, res.stderr
        assert res.stdout.strip() == "False"


@pytest.mark.parametrize("check", [
    verify_kst_energy_bound,
    verify_excess_vanishing,
    lambda A, s, t: build_dense_model(A, s, t, "1/4"),
    lambda A, s, t: run_transference_pipeline(
        A, EquationSpec([1, 1, 1, -1, -2]), s, t, "1/4"),
], ids=["energy_bound", "excess_vanishing", "dense_model", "pipeline"])
def test_freeness_callers_reject_bad_st(check):
    # find_kst_violation owns the rule 2 <= s <= t, and each caller meets it there
    with pytest.raises(ValueError, match="2 <= s <= t"):
        check(erdos_turan_sidon(5), 3, 2)

def test_set_file_roundtrip(tmp_path):
    for A in (erdos_turan_sidon(5),
              greedy_kst_free(2, 2, 81, seed=1, ctx=VectorCtx(FieldCtx(3, 2), 2))):
        path = tmp_path / "a.set"
        save_set(A, path)
        back = load_set(path)
        assert back.ctx == A.ctx
        assert np.array_equal(back.indices, A.indices)
        assert back.model_n == A.model_n
        # the header line is written only for a set modelled in a padded group
        assert ("# model_n=" in path.read_text()) == (A.model_n != A.ctx.N)


def test_model_n_defaults_to_the_group_order_and_survives_reembedding():
    A = SetA(CyclicCtx(200), [0])
    assert A.model_n == 200
    assert A.with_ctx(CyclicCtx(1000)).model_n == 200


def test_load_set_rejects_bad_files(tmp_path):
    path = tmp_path / "a.set"
    path.write_text("3\nctx=cyclic;M=10\n")
    with pytest.raises(ValueError, match="precedes the ctx header"):
        load_set(path)
    for elem in ("-3", "12"):
        path.write_text(f"ctx=cyclic;M=10\n1\n{elem}\n")
        with pytest.raises(ValueError, match=r"outside \[0, 10\)"):
            load_set(path)


def test_freeness_error_carries_witness():
    from addlab.energy import verify_kst_energy_bound

    A = SetA(CyclicCtx(20), [0, 1, 2, 3])
    with pytest.raises(FreenessError) as exc:
        verify_kst_energy_bound(A, 2, 2)
    assert exc.value.witness.verify(A, 2, 2)
