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
"inf", "-inf" and "nan"; exact rationals become "p/q".
"""

from __future__ import annotations

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
        try:
            return float(self.rhs) - float(self.lhs)
        except (TypeError, ValueError, OverflowError):
            return None


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

# leaves that serialize as they are: most of a report, kept off the slower checks
_PLAIN = frozenset({str, int, bool, type(None)})


def to_jsonable(obj):
    """Normalize values for the documented schema."""
    if type(obj) in _PLAIN:
        return obj
    if hasattr(obj, "as_report_dict"):
        return to_jsonable(obj.as_report_dict())
    if isinstance(obj, VerificationReport):
        return {
            "lemma": obj.lemma,
            "inputs": to_jsonable(obj.inputs),
            "quantities": to_jsonable(obj.quantities),
            "assertions": [to_jsonable(a) for a in obj.assertions],
            "measured_ratios": to_jsonable(obj.measured_ratios),
            "flags": list(obj.flags),
            "pass": obj.passed,
        }
    if isinstance(obj, Assertion):
        return {
            "name": obj.name,
            "lhs": to_jsonable(obj.lhs),
            "op": obj.op,
            "rhs": to_jsonable(obj.rhs),
            "tol": obj.tol,
            "exact": obj.exact,
            "pass": obj.passed,
        }
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        obj = float(obj)
        return obj if math.isfinite(obj) else repr(obj)  # "inf", "-inf", "nan"
    if isinstance(obj, np.ndarray):
        return [to_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, complex):
        return {"re": to_jsonable(obj.real), "im": to_jsonable(obj.imag)}
    return obj


def dumps_report(obj) -> str:
    """Serialize to indented JSON text; floats in shortest round-trip form.

    One recursive pass over `to_jsonable(obj)` writes the bytes of
    json.dumps(..., indent=2, ensure_ascii=False, allow_nan=False,
    default=str), whose indented form runs the pure-Python encoder: strings
    through `encode_basestring`, ints and floats by their repr, `{}` and `[]`
    for empty containers, a ValueError on a non-finite float, and any other
    value as the string str(value).
    """
    parts = []
    write = parts.append
    encode = encode_basestring
    int_repr = int.__repr__
    float_repr = float.__repr__

    def emit(o, pad):
        if isinstance(o, str):
            write(encode(o))
        elif o is None:
            write("null")
        elif o is True:
            write("true")
        elif o is False:
            write("false")
        elif isinstance(o, int):
            write(int_repr(o))
        elif isinstance(o, float):
            if not math.isfinite(o):
                raise ValueError(
                    f"Out of range float values are not JSON compliant: {o!r}")
            write(float_repr(o))
        elif isinstance(o, (list, tuple)):
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
        elif isinstance(o, dict):
            if not o:
                write("{}")
                return
            inner = pad + "  "
            sep = "{" + inner
            for k, v in o.items():
                write(sep + encode(k) + ": ")
                sep = "," + inner
                emit(v, inner)
            write(pad + "}")
        else:
            write(encode(str(o)))

    emit(to_jsonable(obj), "\n")
    parts.append("\n")
    return "".join(parts)


def write_csv(path, header: list, rows: list):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            cells = []
            for v in row:
                if isinstance(v, float):
                    cells.append(repr(v))
                elif isinstance(v, Fraction):
                    cells.append(f"{v.numerator}/{v.denominator}")
                else:
                    cells.append(str(v))
            fh.write(",".join(cells) + "\n")
