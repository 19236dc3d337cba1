#!/usr/bin/env python3
"""Compare two addlab report.json files leaf by leaf.

    python3 tools/report_diff.py OLD NEW

The keys that change from run to run, generated_at and elapsed_seconds, are
dropped.  Every JSON path whose value or type differs is printed, one a
line, as `$.suites.energy[0].report.quantities.T: 12 -> 13`; an int and a
float of equal value differ in type.  The exit status is 1 when any path
differs and 0 when none does.
"""

from __future__ import annotations

import json
import sys

RUN_KEYS = ("generated_at", "elapsed_seconds")


def load(path) -> dict:
    with open(path) as fh:
        report = json.load(fh)
    for key in RUN_KEYS:
        report.pop(key, None)
    return report


def differences(old, new, path="$"):
    """One line for each path at which old and new differ."""
    if type(old) is not type(new):
        yield f"{path}: {type(old).__name__} {old!r} -> {type(new).__name__} {new!r}"
    elif isinstance(old, dict):
        for key in old:
            if key in new:
                yield from differences(old[key], new[key], f"{path}.{key}")
            else:
                yield f"{path}.{key}: only in OLD"
        for key in new:
            if key not in old:
                yield f"{path}.{key}: only in NEW"
    elif isinstance(old, list):
        for i, (a, b) in enumerate(zip(old, new)):
            yield from differences(a, b, f"{path}[{i}]")
        if len(old) != len(new):
            yield f"{path}: length {len(old)} -> {len(new)}"
    elif repr(old) != repr(new):  # repr tells floats apart bit for bit, nan included
        yield f"{path}: {old!r} -> {new!r}"


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    found = 0
    for line in differences(load(args[0]), load(args[1])):
        print(line)
        found += 1
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
