"""addlab benchmark: end-to-end metrics per workload, or a traced per-layer run.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout; it imports addlab from ``src``.  Each
pass runs every case of the workload once, in a fresh process with BLAS
and OpenMP pools capped at one thread and ``ADDLAB_THREADS`` unset, so the
load is one closed-loop client with one worker.  Passes repeat until
``--seconds`` have gone by and at least two passes ran; pass i builds its
inputs from seed + i, reduced modulo 16.  Every case is checked: it fails
if it raises, if a report has ``pass: false``, or if one of its pinned
exact values (pins/) is missing or differs.

With ``--trace 0`` the metrics are the end-to-end ones, each the median
over the passes; set-up is sampled in extra processes that only import
addlab and build the inputs.  With ``--trace 1`` untraced and traced
passes alternate, and the metrics are the per-layer numbers of the traced
passes.  Temporary files go to ``.perfbench_tmp/`` in the checkout and are
removed on exit.  The last line of standard output is the result JSON; the
line before it gives quartiles, sample counts, the error rate and the
machine.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import pins  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {
    "run_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "top_case_s": "s",
}
SETUP_SAMPLES = 4        # set-up-only processes per run, after one warm-up
MIN_PASSES = 2           # a pass longer than --seconds is still measured twice
RUN_BUDGET_S = 170       # a process still running then is killed and counts as failed


class Run:
    """One benchmark run: spawns passes and checks every case they report."""

    def __init__(self, workload: str, seed: int, tmp: str):
        self.workload = workload
        self.seed = seed
        self.tmp = tmp
        self.pins = pins.load(workload)
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self._spawned = 0
        self.pass_seeds: list = []
        self.deadline = time.monotonic() + RUN_BUDGET_S

    def spawn(self, mode: str, index: int):
        """Run child.py once on the index-th input; its result, or None if it crashed."""
        seed = workloads.input_seed(self.seed, index)
        if mode != "setup":
            self.pass_seeds.append(seed)
        self._spawned += 1
        result = Path(self.tmp) / f"pass{self._spawned}.json"
        log = Path(self.tmp) / f"pass{self._spawned}.log"
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   MKL_NUM_THREADS="1")
        env.pop("ADDLAB_THREADS", None)
        cmd = [sys.executable, str(HERE / "child.py"), self.workload, str(seed),
               mode, repr(time.clock_gettime(time.CLOCK_MONOTONIC)), str(result),
               self.tmp]
        with open(log, "w") as out:
            try:
                proc = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                                      env=env, cwd=ROOT,
                                      timeout=max(1.0, self.deadline - time.monotonic()))
                code = proc.returncode
            except subprocess.TimeoutExpired:
                code = "timeout"
        if code != 0 or not result.exists():
            tail = log.read_text()[-2000:]
            self.problems.append(f"{mode} process failed ({code}):\n{tail}")
            return None
        return dict(json.loads(result.read_text()), seed=seed)

    def check(self, passed: dict | None) -> dict | None:
        """Count the cases of one pass and their failures; None if it crashed."""
        if passed is None:
            n = len(self.pins["cases"])
            self.attempted += n
            self.failed += n
            return None
        for case in passed["cases"]:
            self.attempted += 1
            problem = self._case_problem(case, passed["seed"])
            if problem:
                self.failed += 1
                self.problems.append(f"{case['label']}: {problem}")
        return passed

    def _case_problem(self, case: dict, seed: int):
        if case["error"]:
            return f"raised\n{case['error']}"
        if not case["passed"]:
            return "a report has pass: false"
        pinned = pins.expected(self.pins, case["label"], seed)
        if pinned is None:
            return f"no pinned values for input seed {seed}"
        got = case["leaves"]
        bad = pins.mismatches(pinned, got)
        if bad:
            shown = ", ".join(f"{p}: pinned {pinned[p]!r}, got {got.get(p, 'nothing')!r}"
                              for p in bad[:3])
            return f"{len(bad)} pinned exact values differ ({shown})"
        return None

    def setup_samples(self) -> list:
        self.spawn("setup", 0)  # warm-up: byte-compiles addlab, fills the page cache
        samples = []
        for index in range(SETUP_SAMPLES):
            got = self.spawn("setup", index)
            if got is not None:
                samples.append(got["setup_s"])
        return samples

    def passes(self, seconds: float, modes: tuple, min_cycles: int) -> dict:
        """Cycle through ``modes`` until ``seconds`` are spent and at least
        ``min_cycles`` cycles ran, within the run's deadline; results by mode."""
        out = {mode: [] for mode in modes}
        started = time.monotonic()
        longest = 0.0
        crashed = False
        for cycle in itertools.count(1):
            for mode in modes:
                t0 = time.monotonic()
                got = self.check(self.spawn(mode, cycle - 1))
                longest = max(longest, time.monotonic() - t0)
                if got is None:
                    crashed = True
                else:
                    out[mode].append(got)
            now = time.monotonic()
            done = now - started >= seconds and cycle >= min_cycles
            if done or crashed or now + len(modes) * longest > self.deadline:
                return out


def quartiles(values: list) -> list:
    """First quartile, median, third quartile."""
    return statistics.quantiles(values, n=4) if len(values) > 1 else values * 3


def environment(seed: int) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "seed": seed,
    }


def end_to_end(run: Run, seconds: float):
    setups = run.setup_samples()
    results = run.passes(seconds, ("pass",), MIN_PASSES)["pass"]
    if not results:
        return None
    top = workloads.TOP_CASE[run.workload]
    samples = {
        "run_s": [r["run_s"] for r in results],
        "cpu_s": [r["cpu_s"] for r in results],
        "peak_rss_mb": [r["peak_rss_mb"] for r in results],
        "setup_s": setups + [r["setup_s"] for r in results],
        "top_case_s": [c["wall_s"] for r in results for c in r["cases"]
                       if c["label"] == top],
    }
    return {name: (END_TO_END[name], vals) for name, vals in samples.items()}


def per_layer(run: Run, seconds: float):
    run.spawn("setup", 0)  # warm-up, as in the end-to-end run
    results = run.passes(seconds, ("pass", "traced"), 1)
    plain, traced = results["pass"], results["traced"]
    if not plain or not traced:
        return None
    if traced[0]["untraced_targets"]:
        print("warning: addlab lacks traced names "
              f"{', '.join(traced[0]['untraced_targets'])}", file=sys.stderr)
    specs = tracer.metric_specs()
    samples = {name: [r["layers"][name] for r in traced]
               for name in specs if name != "trace.overhead_ratio"}
    ratio = (statistics.median(r["run_s"] for r in traced)
             / statistics.median(r["run_s"] for r in plain))
    samples["trace.overhead_ratio"] = [ratio]
    return {name: (specs[name][0], samples[name]) for name in specs}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (ROOT / "src" / "addlab" / "__init__.py").is_file():
        print(f"error: no addlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # SIGTERM unwinds like an exception: subprocess.run kills the running
    # pass and the scratch directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(dir=scratch)
    try:
        run = Run(args.workload, args.seed, tmp)
        measure = per_layer if args.trace else end_to_end
        metrics = measure(run, args.seconds)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still uses it
    for problem in run.problems[:5]:
        print(f"FAILED {args.workload}: {problem}", file=sys.stderr)
    if metrics is None:
        print("error: no pass completed; no result", file=sys.stderr)
        return 1

    summary = {"workload": args.workload, "env": environment(args.seed),
               "input_seeds": run.pass_seeds,
               "error_rate": run.failed / run.attempted, "metrics": {}}
    result = {"correct": run.failed == 0, "attempted": run.attempted,
              "failed": run.failed, "metrics": {}}
    for name, (unit, values) in metrics.items():
        q1, med, q3 = quartiles(values)
        summary["metrics"][name] = {"median": med, "q1": q1, "q3": q3,
                                    "n": len(values), "unit": unit}
        result["metrics"][name] = {"value": med, "unit": unit}
    print(json.dumps(summary))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
