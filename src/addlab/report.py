"""Structured verification reports and their JSON / CSV serialization.

Schema (documented, stable field order):

    {"lemma": str,
     "inputs": {...}, "quantities": {...},
     "assertions": [{"name", "lhs", "op", "rhs", "tol", "exact", "pass"}],
     "measured_ratios": {...},
     "flags": [...],
     "pass": bool}

Floats serialize in Python's shortest round-trip form, so integral floats keep
their ".0" and exact integers stay bare; non-finite floats become the strings
"inf", "-inf" and "nan"; exact rationals become "p/q".  `dumps_report` owns
this form: it normalizes each value as it writes it, and `to_jsonable` is the
parse of its text.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from json.encoder import encode_basestring

import numpy as np

__all__ = ["Assertion", "VerificationReport", "dumps_report", "write_csv",
           "to_jsonable"]


@dataclass
class Assertion:
    name: str
    lhs: object
    op: str
    rhs: object
    passed: bool
    exact: bool = False
    tol: float = 0.0

    @property
    def slack(self):
        """Room to `_compare`'s pass boundary, tolerance included: >= 0
        exactly when an assertion whose sides compare as floats passes."""
        try:
            lhs, rhs = float(self.lhs), float(self.rhs)
        except (TypeError, ValueError, OverflowError):
            return None
        room = self.tol * max(1.0, abs(rhs))
        if self.op == "<=":
            return (rhs + room) - lhs
        if self.op == ">=":
            return lhs - (rhs - room)
        return room - abs(lhs - rhs)


def _compare(lhs, op, rhs, tol):
    if tol:
        scale = max(1.0, abs(float(rhs)))
        if op == "<=":
            return float(lhs) <= float(rhs) + tol * scale
        if op == ">=":
            return float(lhs) >= float(rhs) - tol * scale
        if op == "==":
            return abs(float(lhs) - float(rhs)) <= tol * scale
    if op == "<=":
        return lhs <= rhs
    if op == ">=":
        return lhs >= rhs
    if op == "==":
        return lhs == rhs
    raise ValueError(f"unsupported comparison {op!r}")


@dataclass
class VerificationReport:
    lemma: str
    inputs: dict = dc_field(default_factory=dict)
    quantities: dict = dc_field(default_factory=dict)
    assertions: list = dc_field(default_factory=list)
    measured_ratios: dict = dc_field(default_factory=dict)
    flags: list = dc_field(default_factory=list)

    def check(self, name, lhs, op, rhs, tol: float = 0.0, exact: bool = False):
        """Record an assertion; exact ones must be int/Fraction comparisons."""
        if exact and tol:
            raise ValueError("exact assertions take no tolerance")
        ok = bool(_compare(lhs, op, rhs, tol))
        self.assertions.append(
            Assertion(name=name, lhs=lhs, op=op, rhs=rhs, passed=ok,
                      exact=exact, tol=tol)
        )
        return ok

    @property
    def passed(self) -> bool:
        return all(a.passed for a in self.assertions)

    def failing(self):
        return [a for a in self.assertions if not a.passed]

    def summary(self) -> str:
        state = "pass" if self.passed else "FAIL"
        return f"[{state}] {self.lemma}: {len(self.assertions)} assertions"


# -- serialization ------------------------------------------------------------


def _json_form(o):
    """One normalization step for a value of no plain JSON type."""
    if isinstance(o, Fraction):
        return f"{o.numerator}/{o.denominator}"
    if isinstance(o, (np.generic, np.ndarray)):
        return o.tolist()
    if hasattr(o, "as_report_dict"):
        return o.as_report_dict()
    if isinstance(o, VerificationReport):
        return {"lemma": o.lemma, "inputs": o.inputs, "quantities": o.quantities,
                "assertions": o.assertions, "measured_ratios": o.measured_ratios,
                "flags": o.flags, "pass": o.passed}
    if isinstance(o, Assertion):
        return {"name": o.name, "lhs": o.lhs, "op": o.op, "rhs": o.rhs,
                "tol": o.tol, "exact": o.exact, "pass": o.passed}
    if isinstance(o, complex):
        return {"re": o.real, "im": o.imag}
    for plain in (str, int, float, dict, list, tuple):  # IntEnum, defaultdict, ...
        if isinstance(o, plain):
            return plain(o)
    return str(o)


def dumps_report(obj) -> str:
    """Serialize to indented JSON text, normalizing each value as it is written.

    Reports, assertions and ``as_report_dict()`` objects become their fields,
    numpy values their ``.tolist()``, complex numbers {"re", "im"}, dict keys
    str(key) and any other value the string str(value).  The bytes are those
    of json.dumps(..., indent=2, ensure_ascii=False) on the normalized value,
    plus a newline, without running its pure-Python indenting encoder.
    """
    parts = []
    write = parts.append
    encode = encode_basestring
    int_repr = int.__repr__
    float_repr = float.__repr__
    isfinite = math.isfinite

    def emit(o, pad):
        tp = type(o)
        if tp is str:
            write(encode(o))
        elif tp is float:
            write(float_repr(o) if isfinite(o) else '"' + float_repr(o) + '"')
        elif tp is int:
            write(int_repr(o))
        elif o is True:
            write("true")
        elif o is False:
            write("false")
        elif o is None:
            write("null")
        elif tp is list or tp is tuple:
            if not o:
                write("[]")
                return
            inner = pad + "  "
            sep = "[" + inner
            for v in o:
                write(sep)
                sep = "," + inner
                emit(v, inner)
            write(pad + "]")
        elif tp is dict:
            if not o:
                write("{}")
                return
            inner = pad + "  "
            sep = "{" + inner
            for k, v in o.items():
                write(sep + encode(k if type(k) is str else str(k)) + ": ")
                sep = "," + inner
                emit(v, inner)
            write(pad + "}")
        else:
            emit(_json_form(o), pad)

    emit(obj, "\n")
    parts.append("\n")
    return "".join(parts)


def to_jsonable(obj):
    """The parsed JSON form of obj: the value that `dumps_report(obj)` writes."""
    return json.loads(dumps_report(obj))


def write_csv(path, header: list, rows: list):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            cells = []
            for v in row:
                if isinstance(v, (float, np.floating)):
                    cells.append(float.__repr__(float(v)))  # as dumps_report writes it
                elif isinstance(v, Fraction):
                    cells.append(f"{v.numerator}/{v.denominator}")
                else:
                    cells.append(str(v))
            fh.write(",".join(cells) + "\n")
