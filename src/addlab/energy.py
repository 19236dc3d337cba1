"""Moment energies and their verifiers.

The s-th moment energy of functions f_1, ..., f_h is
sum_n (f_1 * ... * f_h (n))^s.  For indicator inputs every quantity here is
an exact integer, and every inequality with a fractional exponent is
asserted after clearing denominators, so a failure always means the
inequality fails, never roundoff.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

import numpy as np

from .functions import convolve
from .report import VerificationReport
from .sets import SetA, rep_diff, require_kst_free, subset_rep_aggregates

__all__ = [
    "power_sum",
    "moment_energy",
    "pair_energy",
    "verify_trivial_bounds",
    "verify_energy_interpolation",
    "verify_kst_energy_bound",
    "verify_heavy_tuple_count",
    "verify_size_bound",
    "verify_excess_vanishing",
    "vanishing_eta",
    "vanishing_exponent",
    "surjection_count",
]


def moment_energy(fs: list, s: int):
    """sum_n (f_1 * ... * f_h)^s; exact (python ints) for integer inputs."""
    if not fs:
        raise ValueError("need at least one function")
    if s < 1:
        raise ValueError("s must be >= 1")
    ctx = fs[0].ctx
    if any(f.ctx != ctx for f in fs):
        raise ValueError("group context mismatch")
    exact = all(f.is_integer_valued() for f in fs)
    conv = fs[0]
    for f in fs[1:]:
        conv = convolve(conv, f)
    if exact:
        return power_sum(conv.values, s)
    if conv.tag == "complex":
        return complex((conv.values.astype(np.complex128) ** s).sum()).real
    return float((conv.values.astype(np.float64) ** s).sum())


def power_sum(values, s: int) -> int:
    """sum_x values[x]^s, s >= 1, as a Python int; exact for integer values.

    Convolutions of indicators take few distinct values, so the Python-int
    powers run once per distinct nonzero value, weighted by its count.
    """
    values = np.asarray(values)
    distinct, counts = np.unique(values[values != 0], return_counts=True)
    return sum(int(c) * int(v) ** s for v, c in zip(distinct, counts))


def pair_energy(A: SetA, s: int) -> int:
    """E_s of (1_A, 1_{-A}): sum_d r(d)^s, exact."""
    return power_sum(rep_diff(A).values, s)


def surjection_count(s: int, u: int) -> int:
    """Ordered s-tuples with support exactly a given u-set."""
    return sum((-1) ** j * comb(u, j) * (u - j) ** s for j in range(u + 1))


def vanishing_exponent(s: int) -> Fraction:
    """The error-term exponent: (s-2)/(s-1) for s > 2, patched to 1 at s = 2."""
    return Fraction(1) if s == 2 else Fraction(s - 2, s - 1)


def verify_trivial_bounds(A: SetA, h: int, s: int):
    """|A|^h <= E_s(f_1..f_h) <= |A|^{sh-s+1} for f_i = 1_A, 1_-A, 1_A, ..., exact."""
    if h < 2 or s < 1:
        raise ValueError("need h >= 2 and s >= 1")
    pattern = "+-" * (h // 2) + "+" * (h % 2)
    fs = [A.indicator() if c == "+" else A.reflected_indicator() for c in pattern]
    value = moment_energy(fs, s)
    m = len(A)
    rep = VerificationReport(
        lemma="trivial_energy_bounds",
        inputs={"set": A.provenance, "h": h, "s": s, "pattern": pattern, "|A|": m},
        quantities={"value": value},
    )
    rep.check("lower", m**h, "<=", value, exact=True)
    rep.check("upper", value, "<=", m ** (s * h - s + 1), exact=True)
    return rep


def verify_energy_interpolation(A: SetA, s: int):
    """Hoelder consequences of controlling E_s, with the explicit constants.

    With K = E_s/|A|^s the interpolation gives E_2 <= K^{1/(s-1)} |A|^{3-1/(s-1)}
    and, for s >= 3, E_{s-1} <= K^{(s-2)/(s-1)} |A|^{s-(s-2)/(s-1)}; both are
    asserted after raising to the (s-1)-th power so the comparison is exact.
    """
    if s < 2:
        raise ValueError("s must be >= 2")
    m = len(A)
    if m == 0:
        raise ValueError("empty set")
    e_s = pair_energy(A, s)
    e_2 = pair_energy(A, 2)
    K = Fraction(e_s, m**s)
    rep = VerificationReport(
        lemma="energy_interpolation",
        inputs={"set": A.provenance, "s": s, "|A|": m},
        quantities={"E_s": e_s, "E_2": e_2, "K": K},
    )
    rep.check(
        "second_moment",
        e_2 ** (s - 1) * m**s,
        "<=",
        e_s * m ** (3 * s - 4),
        exact=True,
    )
    rhs_float = float(K) ** (1 / (s - 1)) * m ** (3 - 1 / (s - 1))
    rep.measured_ratios["second_moment_slack"] = e_2 / rhs_float if rhs_float else 0.0
    if s >= 3:
        e_prev = pair_energy(A, s - 1)
        rep.quantities["E_s_minus_1"] = e_prev
        rep.check(
            "previous_moment",
            e_prev ** (s - 1) * m ** (s * (s - 2)),
            "<=",
            e_s ** (s - 2) * m ** (s * s - 2 * s + 2),
            exact=True,
        )
        rhs_float = float(K) ** ((s - 2) / (s - 1)) * m ** (s - (s - 2) / (s - 1))
        rep.measured_ratios["previous_moment_slack"] = (
            e_prev / rhs_float if rhs_float else 0.0
        )
    return rep


def _tuple_sum(A: SetA, s: int, weight, sizes=None) -> int:
    """sum of weight(rep) over the s-tuples of A with rep >= 1 whose support
    size lies in `sizes` (default 1..s), from the rep profile of each size."""
    sizes = range(1, s + 1) if sizes is None else sizes
    return sum(surjection_count(s, u) * n * weight(rep)
               for u in sizes for rep, n in subset_rep_aggregates(A, u).items())


def verify_kst_energy_bound(A: SetA, s: int, t: int):
    """Exact decomposition of E_s for a grid-free set.

    E_s = |A|^s (zero shift) + distinct-tuple part (each tuple <= t-1 shifts)
    + degenerate part; asserts E_s <= t|A|^s + degenerate_total exactly and
    reports degenerate_total / |A|^{s-c_s}.
    """
    require_kst_free(A, s, t)
    m = len(A)
    e_s = pair_energy(A, s)
    distinct_total = _tuple_sum(A, s, lambda rep: rep, [s])
    degenerate_total = _tuple_sum(A, s, lambda rep: rep, range(1, s))
    max_rep = max(subset_rep_aggregates(A, s), default=0)
    c_s = vanishing_exponent(s)
    rep = VerificationReport(
        lemma="kst_energy_bound",
        inputs={"set": A.provenance, "s": s, "t": t, "|A|": m},
        quantities={
            "E_s": e_s,
            "distinct_total": distinct_total,
            "degenerate_total": degenerate_total,
            "max_distinct_rep": max_rep,
            "c_s": c_s,
        },
    )
    if s == 2:
        rep.flags.append("s=2 uses the patched exponent c_2 = 1")
    rep.check("admissible_shift_bound", max_rep, "<=", t - 1, exact=True)
    rep.check(
        "decomposition_identity",
        m**s + distinct_total + degenerate_total,
        "==",
        e_s,
        exact=True,
    )
    rep.check(
        "energy_bound", e_s, "<=", t * m**s + degenerate_total, exact=True
    )
    if m:
        rep.measured_ratios["degenerate_over_scale"] = degenerate_total / float(
            m ** (s - float(c_s))
        )
    return rep


def verify_heavy_tuple_count(A: SetA, s: int, t: int):
    """Count of tuples whose rep exceeds t-1, against the explicit bound.

    Heavy tuples each carry at least t reps, so t * count <= sum of reps
    = E_s - |A|^s, i.e. count <= (1 - (1-eta)/t)|A|^s with eta
    = E_s/|A|^s - t; asserted as exact integers.  Requires eta < 1 (else
    reported not-applicable).
    """
    m = len(A)
    if m == 0:
        raise ValueError("empty set")
    e_s = pair_energy(A, s)
    eta = Fraction(e_s, m**s) - t
    rep = VerificationReport(
        lemma="heavy_tuple_count",
        inputs={"set": A.provenance, "s": s, "t": t, "|A|": m},
        quantities={"E_s": e_s, "eta": eta},
    )
    if eta >= 1:
        rep.flags.append("not-applicable: eta >= 1")
        return rep
    count = _tuple_sum(A, s, lambda rep: int(rep > t - 1))
    rep.quantities["heavy_count"] = count
    rep.quantities["bound"] = (1 - (1 - eta) / t) * m**s
    rep.check("count_bound", t * count, "<=", e_s - m**s, exact=True)
    if e_s > m**s:
        rep.measured_ratios["count_over_bound"] = t * count / float(e_s - m**s)
    return rep


def verify_size_bound(A: SetA, s: int, t: int):
    """|A| <= 2 (t^2/(1-eta))^{1/s} N^{1-1/s}, asserted after raising to s."""
    m = len(A)
    if m == 0:
        raise ValueError("empty set")
    N = A.ctx.N
    e_s = pair_energy(A, s)
    eta = Fraction(e_s, m**s) - t
    rep = VerificationReport(
        lemma="size_upper_bound",
        inputs={"set": A.provenance, "s": s, "t": t, "|A|": m, "N": N},
        quantities={"E_s": e_s, "eta": eta},
    )
    if eta >= 1:
        rep.flags.append("not-applicable: eta >= 1")
        return rep
    eta_eff = max(eta, Fraction(0))
    if eta_eff == 0 and eta < 0:
        rep.flags.append("eta <= 0 treated as eta -> 0+")
    lhs = Fraction(m**s) * (1 - eta_eff)
    rhs = Fraction(2**s * t * t * N ** (s - 1))
    rep.check("size_bound", lhs, "<=", rhs, exact=True)
    rep.measured_ratios["size_over_bound"] = m / (
        2.0 * (t * t / float(1 - eta_eff)) ** (1 / s) * N ** (1 - 1 / s)
    )
    if A.model_n != N:
        rep.measured_ratios["size_over_model_bound"] = m / (
            2.0
            * (t * t / float(1 - eta_eff)) ** (1 / s)
            * A.model_n ** (1 - 1 / s)
        )
    return rep


def verify_excess_vanishing(A: SetA, s: int, t: int):
    """sum over tuples of (rep - (t-1))_+: distinct part exactly 0 when free."""
    require_kst_free(A, s, t)
    m = len(A)
    distinct_excess = _tuple_sum(A, s, lambda rep: max(rep - (t - 1), 0), [s])
    total = _tuple_sum(A, s, lambda rep: max(rep - (t - 1), 0))
    c_s = vanishing_exponent(s)
    rep = VerificationReport(
        lemma="excess_vanishing",
        inputs={"set": A.provenance, "s": s, "t": t, "|A|": m},
        quantities={
            "distinct_excess": distinct_excess,
            "total_excess": total,
            "eta": Fraction(total, m**s) if m else Fraction(0),
            "c_s": c_s,
        },
    )
    if s == 2:
        rep.flags.append("s=2 uses the patched exponent c_2 = 1")
    rep.check("distinct_excess_zero", distinct_excess, "==", 0, exact=True)
    if m:
        rep.measured_ratios["excess_over_scale"] = total / float(
            m ** (s - float(c_s))
        )
    return rep


def vanishing_eta(A: SetA, s: int, t: int) -> Fraction:
    """Exact eta with sum over tuples of (rep - (t-1))_+ = eta |A|^s."""
    m = len(A)
    if m == 0:
        return Fraction(0)
    total = _tuple_sum(A, s, lambda rep: max(rep - (t - 1), 0))
    return Fraction(total, m**s)
