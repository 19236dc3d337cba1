"""Smoke tests of the benchmark itself, at tiny sizes (a few seconds).

    python3 perfbench/check_smoke.py
    python3 -m pytest perfbench/check_smoke.py

The file name keeps it out of the repository's default test collection.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import child  # noqa: E402

child.import_addlab()

import pins  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def _tiny_work():
    """A cyclic and an F_3^3 pipeline plus one small verify suite."""
    from addlab import cli, counting, sets
    from addlab.groups import FieldCtx, VectorCtx

    eq = counting.EquationSpec([1, 1, 1, -1, -2])
    reports = [counting.run_transference_pipeline(sets.erdos_turan_sidon(7), eq, 2, 2,
                                                  "1/8")]
    ctx = VectorCtx(FieldCtx(3, 1), 3)
    A = sets.greedy_kst_free(2, 2, ctx.N, seed=1, ctx=ctx)
    reports.append(counting.run_transference_pipeline(
        A, counting.EquationSpec([1, 1, 1, 1, -4]), 2, 2, "1/2"))
    code, out, _ = cli.run_suite(cli.SuiteConfig(suites=("energy",), sizes=(16,),
                                                 st_pairs=((2, 2),)))
    assert code == 0
    return reports


def _bindings():
    """Every binding the tracer may touch: module globals, their dicts, classes."""
    from addlab import functions, groups, spectral

    snap = {}
    for name, mod in sys.modules.items():
        if mod is None or not (name == "addlab" or name.startswith("addlab.")):
            continue
        for key, val in vars(mod).items():
            snap[(name, key)] = val
            if isinstance(val, dict) and key != "__builtins__":
                for dkey, dval in val.items():
                    snap[(name, key, dkey)] = dval
    for cls in (groups.VectorCtx, groups.CyclicCtx, functions.Dfn, spectral.Subspace):
        for key, val in vars(cls).items():
            snap[(cls.__name__, key)] = val
    return snap


def test_wrappers_restore_originals():
    from addlab import cli, energy, functions, groups

    before = _bindings()
    original = functions.convolve
    with tracing.Tracer() as tracer:
        assert functions.convolve is not original
        assert energy.convolve is functions.convolve  # bound at import time
        assert cli._SUITES["energy"] is cli.suite_energy
        assert "sub" in vars(groups.VectorCtx)        # inherited method, shadowed
        _tiny_work()
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert not changed, changed
    assert tracer.spans


def test_self_times_sum_to_tree_wall_time():
    tracer = tracing.Tracer()
    with tracer:
        root = tracer.open(tracing.ROOT_PREFIX + "case")
        _tiny_work()
        tracer.close(root)
    selfs = tracer.self_times()
    layers = {span[0] for span in tracer.spans}
    for layer in ("groups.vector_codec", "functions.convolve_exact", "counting.pipeline",
                  "cli.suite.energy", "energy.verify"):
        assert layer in layers, layer
    assert all(s >= -1e-9 for s in selfs)
    # every span belongs to the one tree under `root`
    tree_self = sum(selfs[root:])
    _, _, start, end = tracer.spans[root]
    assert abs(tree_self - (end - start)) <= 1e-9 * max(1.0, end - start)
    summary = tracer.summary()
    covered = sum(v for k, v in summary.items() if k.endswith(".self_s"))
    assert abs(summary["trace.uncovered_s"] - selfs[root]) <= 1e-12
    assert covered + summary["trace.uncovered_s"] <= (end - start) + 1e-9
    assert summary["functions.convolve_exact.dense_ops"] > 0
    assert 0 < summary["functions.convolve_exact.useful_ratio"] <= 1


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    assert e2e == run.END_TO_END
    assert layers == tracing.metric_specs()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_corrupted_pin_raises_error_rate():
    from addlab import counting, sets

    report = counting.run_transference_pipeline(
        sets.erdos_turan_sidon(7), counting.EquationSpec([1, 1, 1, -1, -2]), 2, 2, "1/8")
    leaves = pins.exact_leaves(report)
    assert leaves["ledger.solutions_in_A"] == 169 and leaves["pass"] is True
    paths = sorted(leaves)
    good = {"cases": {"et7": {"seeded": False, "paths": paths,
                              "values": {"all": [leaves[p] for p in paths]}}}}
    case = {"label": "et7", "error": None, "passed": True, "leaves": leaves}

    def error_rate(pinned, got):
        bench = run.Run.__new__(run.Run)
        bench.pins, bench.attempted, bench.failed, bench.problems = pinned, 0, 0, []
        bench.check({"seed": 0, "cases": [got]})
        return bench.failed / bench.attempted

    assert error_rate(good, case) == 0
    corrupt = json.loads(json.dumps(good))
    values = corrupt["cases"]["et7"]["values"]["all"]
    values[paths.index("ledger.solutions_in_A")] += 1
    assert error_rate(corrupt, case) > 0
    missing = dict(case, leaves={k: v for k, v in leaves.items()
                                 if k != "ledger.solutions_in_A"})
    assert error_rate(good, missing) > 0
    retyped = dict(case, leaves=dict(leaves, **{"pass": 1}))
    assert error_rate(good, retyped) > 0


def test_fails_without_sources():
    scratch = HERE.parent / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        shutil.copytree(HERE, Path(tmp) / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(HERE.parent / "BENCHMARK.json", tmp)
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "verify_all",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=60)
    try:
        scratch.rmdir()
    except OSError:
        pass  # a benchmark run is using it
    assert proc.returncode != 0
    assert proc.stdout == ""


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_") and callable(fn):
            fn()
            print(f"ok {name}")
