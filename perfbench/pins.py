"""Pinned exact values: the integer, rational and boolean leaves of each case.

A case's report is flattened to ``{path: value}`` with floats, strings and
nulls left out.  Rationals and integers share one canonical form (an int
when the denominator is 1, else ``"p/q"``), so an exact quantity may change
type between int and Fraction without counting as a change.  Lists of named
entries (assertions by ``name``, suite entries by ``label``) are keyed by
name, with ``#n`` on repeats.

The pins live in ``pins/<workload>.json``.  Each case stores its paths
once and, per input seed (or once under ``"all"`` for a seed-free case),
one value per path, null where the path is absent for that seed.  A
correct optimisation leaves every pinned value as it is; a pinned path that
is missing or holds another value is a mismatch, a new path is not.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from pathlib import Path

PIN_DIR = Path(__file__).resolve().parent / "pins"

_RATIONAL = re.compile(r"-?\d+/\d+")


def _canonical(value):
    """Canonical exact form of a JSON-normalised leaf, or None to skip it."""
    import numpy as np

    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, str) and _RATIONAL.fullmatch(value):
        q = Fraction(value)
        return q.numerator if q.denominator == 1 else f"{q.numerator}/{q.denominator}"
    return None


def _key(item, i, seen):
    if isinstance(item, dict):
        name = item.get("label", item.get("name"))
        if isinstance(name, str):
            n = seen.get(name, 0)
            seen[name] = n + 1
            return name if n == 0 else f"{name}#{n}"
    return str(i)


def _walk(node, path, out):
    if isinstance(node, dict):
        for k, v in node.items():
            _walk(v, f"{path}.{k}" if path else str(k), out)
    elif isinstance(node, list):
        seen: dict = {}
        for i, v in enumerate(node):
            k = _key(v, i, seen)
            _walk(v, f"{path}.{k}" if path else k, out)
    else:
        value = _canonical(node)
        if value is not None:
            out[path] = value


def exact_leaves(report) -> dict:
    """Flatten a report object (any addlab report or a dict of them)."""
    from addlab.report import to_jsonable

    out: dict = {}
    _walk(to_jsonable(report), "", out)
    return out


def load(workload: str) -> dict:
    with open(PIN_DIR / f"{workload}.json") as fh:
        return json.load(fh)


def expected(pins: dict, label: str, seed: int):
    """Pinned leaves of one case for an input seed, or None if not pinned."""
    case = pins["cases"].get(label)
    if case is None:
        return None
    values = case["values"].get("all", case["values"].get(str(seed)))
    if values is None:
        return None
    return {p: v for p, v in zip(case["paths"], values) if v is not None}


def mismatches(pinned: dict, got: dict) -> list:
    """Pinned paths whose value is missing or different, in path order."""
    return [path for path in sorted(pinned)
            if path not in got or got[path] != pinned[path]
            or type(got[path]) is not type(pinned[path])]
