"""Record the pinned exact values of every case, for every input seed.

    python3 perfbench/record_pins.py [workload ...]

Run it at a commit whose outputs are trusted; it overwrites
``pins/<workload>.json`` (all workloads when none is named).  Cases run
in-process and untimed, seed-free cases once.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import child  # noqa: E402
import pins  # noqa: E402
import workloads  # noqa: E402


def record(workload: str, tmp: str) -> dict:
    leaves: dict = {}   # label -> {seed key: {path: value}}
    seeded: dict = {}
    for seed in range(workloads.PIN_SEEDS):
        for case in workloads.build(workload, seed, tmp):
            key = str(seed) if case.seeded else "all"
            if key in leaves.get(case.label, {}):
                continue
            report = case.run()
            if not workloads.passed(report):
                raise SystemExit(f"{workload}/{case.label} seed {seed} fails; not pinned")
            leaves.setdefault(case.label, {})[key] = pins.exact_leaves(report)
            seeded[case.label] = case.seeded
        print(f"{workload}: seed {seed} done", file=sys.stderr, flush=True)
    cases = {}
    for label, by_seed in leaves.items():
        paths = sorted(set().union(*by_seed.values()))
        cases[label] = {
            "seeded": seeded[label],
            "paths": paths,
            "values": {k: [v.get(p) for p in paths] for k, v in by_seed.items()},
        }
    return {"workload": workload, "seeds": workloads.PIN_SEEDS, "cases": cases}


def dump(obj: dict) -> str:
    """JSON with one line per path list and per seed's values, for readable diffs."""
    lines = ["{", f'  "workload": {json.dumps(obj["workload"])},',
             f'  "seeds": {obj["seeds"]},', '  "cases": {']
    labels = list(obj["cases"])
    for i, label in enumerate(labels):
        case = obj["cases"][label]
        lines.append(f"    {json.dumps(label)}: {{")
        lines.append(f'      "seeded": {json.dumps(case["seeded"])},')
        lines.append(f'      "paths": {json.dumps(case["paths"])},')
        lines.append('      "values": {')
        keys = list(case["values"])
        for j, k in enumerate(keys):
            sep = "," if j + 1 < len(keys) else ""
            lines.append(f"        {json.dumps(k)}: {json.dumps(case['values'][k])}{sep}")
        lines.append("      }")
        lines.append("    }" + ("," if i + 1 < len(labels) else ""))
    lines += ["  }", "}", ""]
    return "\n".join(lines)


def main(names) -> int:
    child.import_addlab()
    pins.PIN_DIR.mkdir(exist_ok=True)
    scratch = child.ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    for workload in names or workloads.WORKLOADS:
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            text = dump(record(workload, tmp))
        (pins.PIN_DIR / f"{workload}.json").write_text(text)
    scratch.rmdir()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
