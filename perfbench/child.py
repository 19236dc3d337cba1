"""One pass of a workload in a fresh process; run.py starts it.

    python3 perfbench/child.py <workload> <input seed> <setup|pass|traced> \
        <spawn time> <result.json> <scratch dir>

``spawn time`` is the parent's CLOCK_MONOTONIC reading just before the
process was started, so ``setup_s`` covers interpreter start, ``import
addlab`` and building the inputs.  ``setup`` mode stops there; ``pass``
times every case once; ``traced`` does the same under the tracer.  The
result is written as JSON; exact values are extracted after the timed
region.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def import_addlab():
    """Import addlab from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import addlab
    import addlab.cli  # noqa: F401  (the verify workload and the tracer need it)

    origin = Path(addlab.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise ImportError(f"addlab imported from {origin}, not from {src}")
    return addlab


def main(argv) -> int:
    workload, seed, mode, spawned, result_path, tmp = argv
    import_addlab()
    sys.path.insert(0, str(HERE))
    import workloads

    tracer = None
    if mode == "traced":
        import tracer as tracing

        tracer = tracing.Tracer().install()
        setup_span = tracer.open(tracing.ROOT_PREFIX + "setup")
    cases = workloads.build(workload, int(seed), tmp)
    if tracer is not None:
        tracer.close(setup_span)
    result = {"setup_s": time.clock_gettime(time.CLOCK_MONOTONIC) - float(spawned)}
    if mode == "setup":
        _write(result_path, result)
        return 0

    records = []
    reports = []
    cpu0 = time.process_time()
    start = time.perf_counter()
    for case in cases:
        span = tracer.open(tracing.ROOT_PREFIX + "case") if tracer else None
        t0 = time.perf_counter()
        try:
            report, error = case.run(), None
        except Exception:  # a raising case is a failed case, not a failed run
            report, error = None, traceback.format_exc(limit=4)
        wall = time.perf_counter() - t0
        if tracer is not None:
            tracer.close(span)
        records.append({"label": case.label, "wall_s": wall, "error": error})
        reports.append(report)
    result["run_s"] = time.perf_counter() - start
    result["cpu_s"] = time.process_time() - cpu0
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.summary()
        result["untraced_targets"] = tracer.missing

    import pins

    for record, report in zip(records, reports):
        if report is not None:
            record["passed"] = workloads.passed(report)
            record["leaves"] = pins.exact_leaves(report)
    result["cases"] = records
    _write(result_path, result)
    return 0


def _write(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
