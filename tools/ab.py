"""Paired in-process A/B of one benchmark workload: a git revision against
the working tree.

    python3 tools/ab.py REV [--workload W] [--rounds N] [--seed S]

Run it from anywhere inside a checkout.  ``git archive`` writes REV's
``src/addlab`` into a temporary directory as the package ``addlab_parent``,
beside a copy of the working tree's ``src/addlab`` as ``addlab_change``,
and both are imported into this one process.  Each round builds both
trees' cases for one input seed with ``perfbench/workloads.build``, with
``sys.modules["addlab"]`` and its submodules pointing at the tree being
built, then times one pass of each tree's cases, the two passes in an
order shuffled per round and ``gc.collect()`` before each.  Round i reads
input seed S + i, reduced as the benchmark reduces it, and one untimed
round first lets both trees fill their import-time and function caches.

The two passes of a round share the machine's speed phase, so their ratio
change/parent is steadier than either time.  The output is one line per
round, then the median of the paired ratios, a bootstrap 95% interval of
that median, the number of rounds the change won, and, as the last line,
all of it as JSON.  Each case's exact leaves (``perfbench/pins.exact_leaves``)
are compared between the trees, warm-up round included; the exit status is
1 when any differ.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import pkgutil
import random
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import pins  # noqa: E402
import workloads  # noqa: E402

SIDES = ("parent", "change")
BOOTSTRAP = 2000


def _write_trees(rev: str, into: Path):
    """REV's src/addlab as addlab_parent and the working tree's as
    addlab_change, both under `into`."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src/addlab"],
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(into / "archive")
    (into / "archive" / "src" / "addlab").rename(into / "addlab_parent")
    shutil.copytree(ROOT / "src" / "addlab", into / "addlab_change",
                    ignore=shutil.ignore_patterns("__pycache__"))


def _import_tree(name: str) -> dict:
    """The package and every submodule but __main__, as addlab's names."""
    pkg = importlib.import_module(name)
    modules = {"addlab": pkg}
    for info in pkgutil.iter_modules(pkg.__path__):
        if info.name != "__main__":
            modules[f"addlab.{info.name}"] = importlib.import_module(f"{name}.{info.name}")
    return modules


@contextlib.contextmanager
def _as_addlab(modules: dict):
    """Let `import addlab` and `from addlab.x import y` reach one tree."""
    saved = {key: sys.modules.pop(key) for key in list(sys.modules)
             if key == "addlab" or key.startswith("addlab.")}
    sys.modules.update(modules)
    try:
        yield
    finally:
        for key in modules:
            sys.modules.pop(key, None)
        sys.modules.update(saved)


def _pass(modules: dict, cases: list) -> tuple[float, list]:
    with _as_addlab(modules):
        gc.collect()
        start = time.perf_counter()
        reports = [case.run() for case in cases]
        return time.perf_counter() - start, reports


def _leaves(modules: dict, reports: list) -> list:
    with _as_addlab(modules):
        return [pins.exact_leaves(report) for report in reports]


def _bootstrap_median(ratios: list, rng: random.Random) -> tuple[float, float]:
    medians = sorted(statistics.median(rng.choices(ratios, k=len(ratios)))
                     for _ in range(BOOTSTRAP))
    return medians[int(0.025 * BOOTSTRAP)], medians[int(0.975 * BOOTSTRAP) - 1]


def _quartiles(values: list) -> list:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("rev", help="the git revision to compare the working tree against")
    ap.add_argument("--workload", default="ladder_ffield", choices=workloads.WORKLOADS)
    ap.add_argument("--rounds", type=int, default=30)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    if args.rounds < 1:
        ap.error("--rounds must be at least 1")

    rng = random.Random(args.seed)
    times = {side: [] for side in SIDES}
    ratios, mismatches = [], []
    with tempfile.TemporaryDirectory(prefix="addlab_ab_") as tmp:
        tmp = Path(tmp)
        _write_trees(args.rev, tmp)
        sys.path.insert(0, str(tmp))
        trees = {side: _import_tree(f"addlab_{side}") for side in SIDES}
        for rnd in range(-1, args.rounds):
            seed = workloads.input_seed(args.seed, max(rnd, 0))
            cases = {}
            for side in SIDES:
                with _as_addlab(trees[side]):
                    cases[side] = workloads.build(args.workload, seed, str(tmp / side))
            order = list(SIDES)
            rng.shuffle(order)
            wall, reports = {}, {}
            for side in order:
                wall[side], reports[side] = _pass(trees[side], cases[side])
            leaves = {side: _leaves(trees[side], reports[side]) for side in SIDES}
            for case, a, b in zip(cases["parent"], leaves["parent"], leaves["change"]):
                if a != b:
                    mismatches.append(f"round {rnd} (input seed {seed}), case {case.label}")
            if rnd < 0:
                continue
            for side in SIDES:
                times[side].append(wall[side])
            ratios.append(wall["change"] / wall["parent"])
            print(f"round {rnd:3d}  input seed {seed:2d}  first {order[0]:6s}  "
                  f"parent {wall['parent']:.4f} s  change {wall['change']:.4f} s  "
                  f"ratio {ratios[-1]:.3f}", flush=True)

    lo, hi = _bootstrap_median(ratios, rng)
    result = {
        "rev": args.rev,
        "workload": args.workload,
        "rounds": args.rounds,
        "seed": args.seed,
        "ratio_median": statistics.median(ratios),
        "ratio_ci95": [lo, hi],
        "change_wins": sum(r < 1 for r in ratios),
        "parent_s_quartiles": _quartiles(times["parent"]),
        "change_s_quartiles": _quartiles(times["change"]),
        "exact_leaves_equal": not mismatches,
    }
    print(f"change/parent median {result['ratio_median']:.3f}, bootstrap 95% interval "
          f"[{lo:.3f}, {hi:.3f}], change faster in {result['change_wins']} of {args.rounds} rounds")
    for where in mismatches:
        print(f"exact leaves differ: {where}")
    print(json.dumps(result))
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
