"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Every tolerance is pinned here, from the contract, not calibrated later.
Run with `pytest tests/test_acceptance.py -v -s` for the per-criterion lines.
"""

import json
import subprocess
import sys
import time

import numpy as np
import pytest

import addlab as al
from addlab.counting import EquationSpec, padded_modulus
from addlab.groups import CyclicCtx, FieldCtx, VectorCtx
from addlab.functions import Dfn, fourier
from addlab.util import spawn_rng


def report_line(num, name, ok, detail=""):
    state = "pass" if ok else "FAIL"
    print(f"ACCEPTANCE {num:2d} [{state}] {name} {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def _character_matrix_oracle(ctx):
    idx = ctx.elements()
    num, den = ctx.char_phase(idx[:, None], idx[None, :])
    return np.exp(-2j * np.pi * np.asarray(num) / den)


def test_criterion_01_fourier_correctness():
    t0 = time.perf_counter()
    ctxs = [
        CyclicCtx(60),
        CyclicCtx(256),
        CyclicCtx(1024),
        VectorCtx(FieldCtx(3, 1), 4),
        VectorCtx(FieldCtx(5, 1), 3),
        VectorCtx(FieldCtx(3, 2), 2),
    ]
    rng = spawn_rng(42, 0xACC, 1)
    worst = 0.0
    worst_par = 0.0
    for ctx in ctxs:
        W = _character_matrix_oracle(ctx)
        batch = rng.normal(size=(100, ctx.N)) + 1j * rng.normal(size=(100, ctx.N))
        oracle = batch @ W
        for i in range(100):
            fast = fourier(Dfn(ctx, batch[i])).values
            scale = float(np.abs(oracle[i]).max())
            worst = max(worst, float(np.abs(fast - oracle[i]).max()) / scale)
            phys = float((np.abs(batch[i]) ** 2).sum())
            dual = float((np.abs(fast) ** 2).mean())
            worst_par = max(worst_par, abs(phys - dual) / phys)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-9 and worst_par < 1e-9 and elapsed < 10.0
    report_line(1, "fourier fast vs direct oracle", ok,
                f"rel_err={worst:.2e} parseval={worst_par:.2e} time={elapsed:.1f}s")


def test_criterion_02_convolution_energy_exactness():
    rng = spawn_rng(42, 0xACC, 2)
    worst = 0.0
    for trial in range(200):
        if trial % 2 == 0:
            ctx = CyclicCtx(int(rng.integers(16, 200)))
        else:
            ctx = VectorCtx(FieldCtx(3, 1), int(rng.integers(2, 5)))
        picks = np.nonzero(rng.random(ctx.N) < rng.uniform(0.1, 0.6))[0]
        if len(picks) == 0:
            continue
        A = al.SetA(ctx, picks)
        r = al.rep_diff(A).values
        lhs = float((r.astype(np.float64) ** 2).sum())
        rhs = float((np.abs(A.indicator().hat()) ** 4).mean())
        worst = max(worst, abs(lhs - rhs) / max(1.0, lhs))
    exact_ok = True
    for trial in range(6):
        ctx = CyclicCtx(int(rng.integers(12, 26)))
        picks = rng.choice(ctx.N, size=min(ctx.N, int(rng.integers(4, 11))),
                           replace=False)
        A = al.SetA(ctx, picks)
        elems = [int(a) for a in A.indices]
        for s in (2, 3, 4):
            # exhaustive tuple enumeration: common-difference 2s-tuples
            oracle = 0
            for d in range(ctx.N):
                hits = sum(1 for a in elems if int(ctx.sub(a, d)) in A)
                oracle += hits**s
            got = al.moment_energy([A.indicator(), A.reflected_indicator()], s)
            exact_ok = exact_ok and (got == oracle)
    ok = worst < 1e-8 and exact_ok
    report_line(2, "convolution/energy exactness", ok,
                f"parseval_rel={worst:.2e} tuple_oracle={'ok' if exact_ok else 'BAD'}")


def test_criterion_03_admissible_shift_bound_and_oracle():
    rng = spawn_rng(42, 0xACC, 3)
    violations = 0
    generated = {}
    for s, t in ((2, 2), (2, 3), (3, 3)):
        count = 0
        for i in range(200):
            if s == 2:
                n = int(rng.integers(30, 90))
            else:
                n = int(rng.integers(20, 34))
            A = al.greedy_kst_free(s, t, n, seed=int(rng.integers(1 << 30)))
            if max(al.sets.subset_rep_aggregates(A, s), default=0) > t - 1:
                violations += 1
            count += 1
        generated[(s, t)] = count
    oracle_ok = True
    checked = {}
    for s, t in ((2, 2), (2, 3), (3, 3)):
        n_checked = 0
        for i in range(200):
            ctx = CyclicCtx(int(rng.integers(12, 36)))
            A = al.SetA(ctx, np.nonzero(rng.random(ctx.N) < rng.uniform(0.15, 0.55))[0])
            if len(A) > 14:
                A = al.SetA(ctx, A.indices[:14])
            fast = al.find_kst_violation(A, s, t) is None
            oracle = al.find_kst_violation_exhaustive(A, s, t) is None
            oracle_ok = oracle_ok and (fast == oracle)
            n_checked += 1
        checked[(s, t)] = n_checked
    ok = violations == 0 and oracle_ok and all(v >= 200 for v in generated.values())
    report_line(3, "admissible-shift bound + oracle agreement", ok,
                f"free_sets={generated} shift_violations={violations} "
                f"oracle_checked={checked}")


def test_criterion_04_sidon_energy_closed_form():
    rng = spawn_rng(42, 0xACC, 4)
    sets = [al.erdos_turan_sidon(p) for p in (5, 7, 11, 13)]
    for i in range(12):
        sets.append(al.greedy_kst_free(2, 2, int(rng.integers(30, 120)),
                                       seed=int(rng.integers(1 << 30))))
    ok = True
    for A in sets:
        e2 = al.pair_energy(A, 2)
        ok = ok and (e2 <= 2 * len(A) ** 2 - len(A))
    report_line(4, "Sidon second-moment bound E2 <= 2|A|^2 - |A|", ok,
                f"sets={len(sets)}")


def _corpus(rng):
    out = []
    for s, t in ((2, 2), (2, 3), (3, 3)):
        for _ in range(12):
            n = int(rng.integers(24, 80)) if s == 2 else int(rng.integers(20, 34))
            out.append((s, t, al.greedy_kst_free(s, t, n,
                                                 seed=int(rng.integers(1 << 30)))))
    for p in (5, 7, 11):
        out.append((2, 2, al.erdos_turan_sidon(p)))
    return out


def test_criterion_05_heavy_tuples_and_size_bound():
    rng = spawn_rng(42, 0xACC, 5)
    failures = []
    for s, t, A in _corpus(rng):
        r1 = al.verify_heavy_tuple_count(A, s, t)
        r2 = al.verify_size_bound(A, s, t)
        if not (r1.passed and r2.passed):
            failures.append(A.provenance)
    report_line(5, "heavy-tuple count + size bound, explicit constants",
                not failures, f"failures={failures}")


def test_criterion_06_dense_model_properties():
    t0 = time.perf_counter()
    rng = spawn_rng(42, 0xACC, 6)
    bad = []
    # integer model on Sidon sets
    for p, eps in ((5, "1/4"), (7, "1/8"), (11, "1/6")):
        A = al.erdos_turan_sidon(p)
        model = al.build_dense_model(A, 2, 2, eps)
        rep = al.verify_model_properties(model)
        names = {a.name for a in rep.assertions}
        if not rep.passed or "mass_exact" not in names or "smoother_factor" not in names:
            bad.append(("integer", p, [a.name for a in rep.failing()]))
    # finite-field model + S-decomposition on F_3^n, n <= 6
    for n in (4, 5, 6):
        ctx = VectorCtx(FieldCtx(3, 1), n)
        for s, t, eps in ((2, 2, "1/2"), (2, 3, "1/4")):
            A = al.greedy_kst_free(s, t, ctx.N, seed=int(rng.integers(1 << 30)),
                                   ctx=ctx)
            model = al.build_dense_model(A, s, t, eps)
            rep = al.verify_model_properties(model)
            names = {a.name for a in rep.assertions}
            if not rep.passed or "gap_bound" not in names:
                bad.append(("ffield", n, s, t, [a.name for a in rep.failing()]))
            dec = al.verify_smoothing_decomposition(A, s, t, model.smoother)
            if not dec.passed:
                bad.append(("decomposition", n, s, t,
                            [a.name for a in dec.failing()]))
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 60.0
    report_line(6, "dense model (i)-(iii) + S-decomposition", ok,
                f"time={elapsed:.1f}s bad={bad}")


def test_criterion_07_counting_routes_and_properties():
    rng = spawn_rng(42, 0xACC, 7)
    ok = True
    # brute = fourier on every tested instance
    eq3 = EquationSpec([1, 1, -2])
    z12 = CyclicCtx(12)
    for _ in range(30):
        hs = [Dfn(z12, rng.normal(size=12) + 1j * rng.normal(size=12))
              for _ in range(3)]
        b = al.count_T(eq3, hs, "brute")
        f = al.count_T(eq3, hs, "fourier")
        ok = ok and abs(b - f) <= 1e-6 * max(1.0, abs(b))
    eq5 = EquationSpec([1, 2, -3, 1, -1])
    for _ in range(10):
        ctx = CyclicCtx(int(rng.integers(18, 40)))
        A = al.SetA(ctx, np.nonzero(rng.random(ctx.N) < 0.25)[0])
        b = al.count_T(eq5, [A.indicator()] * 5, "brute")
        f = al.count_T(eq5, [A.indicator()] * 5, "fourier")
        ok = ok and (b == f)
    # equation-free sets: total = |A| exactly
    eq = EquationSpec([1, 1, 1, -1, -2])
    for seed in range(4):
        A = al.equation_free_greedy(eq, 40, seed=seed)
        ok = ok and al.count_equation_solutions(eq, A) == len(A)
        ok = ok and al.count_T(eq, [A.indicator()] * 5, "brute") == len(A)
    # multilinearity and translation invariance, 100 random instances each
    eqk = EquationSpec([1, 1, 1, -1, -2])
    worst_lin = worst_shift = 0.0
    for trial in range(100):
        ctx = CyclicCtx(int(rng.integers(20, 50)))
        hs = [Dfn(ctx, rng.normal(size=ctx.N)) for _ in range(5)]
        extra = Dfn(ctx, rng.normal(size=ctx.N))
        a, b = map(float, rng.normal(size=2))
        slot = trial % 5
        mixed = Dfn(ctx, a * hs[slot].values + b * extra.values)
        lhs = al.count_T(eqk, hs[:slot] + [mixed] + hs[slot + 1:], "fourier")
        rhs = a * al.count_T(eqk, hs, "fourier") + b * al.count_T(
            eqk, hs[:slot] + [extra] + hs[slot + 1:], "fourier")
        worst_lin = max(worst_lin, abs(lhs - rhs) / max(1.0, abs(lhs)))
    for trial in range(100):
        ctx = CyclicCtx(int(rng.integers(20, 50)))
        hs = [Dfn(ctx, rng.normal(size=ctx.N)) for _ in range(5)]
        c = int(rng.integers(1, ctx.N))
        t0 = al.count_T(eqk, hs, "fourier")
        t1 = al.count_T(eqk, [h.translate(c) for h in hs], "fourier")
        worst_shift = max(worst_shift, abs(t1 - t0) / max(1.0, abs(t0)))
    ok = ok and worst_lin < 1e-9 and worst_shift < 1e-9
    report_line(7, "counting routes + multilinearity + translation", ok,
                f"lin={worst_lin:.2e} shift={worst_shift:.2e}")


def test_criterion_08_counting_lemma_chain():
    rng = spawn_rng(42, 0xACC, 8)
    failures = 0
    for k in (5, 6):
        eq = EquationSpec([1] * (k - 1) + [-(k - 1)])
        for _ in range(100):
            M = padded_modulus(eq, int(rng.integers(10, 16)))
            ctx = CyclicCtx(M)
            nu_vals = rng.uniform(0.05, 1.0, size=ctx.N)
            nu = Dfn(ctx, nu_vals)
            fs = [Dfn(ctx, nu_vals * rng.uniform(-1, 1, size=ctx.N))
                  for _ in range(k)]
            rep = al.verify_counting_lemma(eq, nu, fs)
            if not rep.passed:
                failures += 1
    report_line(8, "dual-side Hoelder chain, every link", failures == 0,
                f"failures={failures}/200")


def test_criterion_09_telescoping_and_transfer():
    rng = spawn_rng(42, 0xACC, 9)
    failures = 0
    eq = EquationSpec([1, 1, 1, -1, -2])
    for _ in range(100):
        ctx = CyclicCtx(int(rng.integers(24, 64)))
        f = Dfn(ctx, rng.uniform(0, 1, size=ctx.N))
        F = Dfn(ctx, rng.uniform(0, 1, size=ctx.N))
        rep = al.verify_telescoping(eq, f, F)
        if not rep.passed:
            failures += 1
    ledger_ok = True
    for A in (al.erdos_turan_sidon(7), al.erdos_turan_sidon(11),
              al.greedy_kst_free(2, 2, 64, seed=5)):
        rep = al.run_transference_pipeline(A, eq, 2, 2, "1/8")
        tele = rep.sections["telescoping"]
        names = {a.name for a in tele.assertions if a.passed}
        ledger_ok = ledger_ok and rep.passed and "transfer_bound" in names
    ok = failures == 0 and ledger_ok
    report_line(9, "telescoping identity + transfer ledger", ok,
                f"identity_failures={failures}/100 ledger={'ok' if ledger_ok else 'BAD'}")


def test_criterion_10_supersaturation():
    rng = spawn_rng(42, 0xACC, 10)
    eq = EquationSpec([1, 1, 1, -1, -2])
    bad = []
    for ctx in (VectorCtx(FieldCtx(3, 1), 7), VectorCtx(FieldCtx(5, 1), 5),
                VectorCtx(FieldCtx(3, 1), 4)):
        assert ctx.N <= 3125
        for density in (0.05, 0.25):
            A0 = al.random_subset(ctx, density, seed=int(rng.integers(1 << 30)))
            if len(A0) == 0:
                continue
            rep = al.verify_supersaturation(eq, A0)
            names = {a.name for a in rep.assertions if a.passed}
            if not rep.passed or "cycles_equal_solutions" not in names \
               or "cycles_ge_diagonal" not in names:
                bad.append((ctx.describe(), density,
                            [a.name for a in rep.failing()]))
    report_line(10, "diagonal cycles + solutions bijection", not bad, f"bad={bad}")


def test_criterion_11_level_set_bound():
    rng = spawn_rng(42, 0xACC, 11)
    failures = 0
    for p in (2, 3):
        for _ in range(100):
            n = int(rng.integers(40, 200))
            ctx = CyclicCtx(n)
            vals = rng.uniform(0, 1, size=n) ** rng.uniform(0.5, 3)
            vals *= (n / (vals**p).sum()) ** (1 / p) * rng.uniform(0.2, 1.0)
            delta = float(vals.sum()) / n
            if delta <= 0:
                continue
            A0, rep = al.level_set_extract(Dfn(ctx, vals), delta, p)
            pz = (delta / 2) ** (p / (p - 1)) * n
            if not rep.passed or len(A0) < pz * (1 - 1e-12):
                failures += 1
    report_line(11, "Paley-Zygmund level-set bound", failures == 0,
                f"failures={failures}/200")


def test_criterion_12_end_to_end_pipeline():
    t0 = time.perf_counter()
    A = al.erdos_turan_sidon(31)
    eq = EquationSpec([1, 1, 1, -1, -2])
    rep = al.run_transference_pipeline(A, eq, 2, 2, "1/8")
    elapsed = time.perf_counter() - t0
    required = {"delta", "T_f", "T_F", "g_hat_sup", "diagonal_value",
                "T_f_over_Nk1", "sum_nu", "E2_nu_over_N3", "smoother_size",
                "solutions_in_A", "level_set_size"}
    ok = rep.passed and required <= set(rep.ledger) and elapsed < 120.0
    detail = (f"N={rep.inputs['N']} |A|={rep.inputs['|A|']} "
              f"sections={len(rep.sections)} time={elapsed:.1f}s")
    report_line(12, "end-to-end pipeline on the p=31 Sidon set", ok, detail)


def test_criterion_13_determinism(tmp_path):
    outs = []
    for run in (1, 2):
        outdir = tmp_path / f"run{run}"
        res = subprocess.run(
            [sys.executable, "-m", "addlab.cli", "verify", "--suite", "all",
             "--seed", "42", "--sizes", "48,64", "--out", str(outdir)],
            capture_output=True, text=True,
        )
        assert res.returncode == 0, res.stderr
        data = json.loads((outdir / "report.json").read_text())
        data.pop("generated_at", None)
        data.pop("elapsed_seconds", None)
        outs.append(json.dumps(data, sort_keys=True))
    ok = outs[0] == outs[1]
    report_line(13, "repeated verify runs identical modulo timestamps", ok,
                f"bytes={len(outs[0])}")
