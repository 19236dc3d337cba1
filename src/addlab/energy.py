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
        return sum(int(v) ** s for v in conv.values)
    vals = conv.values.astype(np.complex128)
    return complex((vals**s).sum()).real if conv.tag == "complex" else float(
        (conv.values.astype(np.float64) ** s).sum()
    )


def pair_energy(A: SetA, s: int) -> int:
    """E_s of (1_A, 1_{-A}): sum_d r(d)^s, exact."""
    r = rep_diff(A).values
    # r takes few distinct values, so the Python-int powers run per value
    values, counts = np.unique(r[r > 0], return_counts=True)
    return sum(int(c) * int(v) ** s for v, c in zip(values, counts))


def surjection_count(s: int, u: int) -> int:
    """Ordered s-tuples with support exactly a given u-set."""
    return sum((-1) ** j * comb(u, j) * (u - j) ** s for j in range(u + 1))


def vanishing_exponent(s: int) -> Fraction:
    """The error-term exponent: (s-2)/(s-1) for s > 2, patched to 1 at s = 2."""
    return Fraction(1) if s == 2 else Fraction(s - 2, s - 1)


def _alternating_pattern(h: int, pattern: str | None):
    if pattern is None:
        pattern = "".join("+" if i % 2 == 0 else "-" for i in range(h))
    if len(pattern) != h or any(c not in "+-" for c in pattern):
        raise ValueError(f"pattern must be {h} characters of +/-")
    return pattern


def verify_trivial_bounds(A: SetA, h: int, s: int, pattern: str | None = None):
    """|A|^h <= E_s(f_1..f_h) <= |A|^{sh-s+1} for f_i in {1_A, 1_-A}, exact."""
    if h < 2 or s < 1:
        raise ValueError("need h >= 2 and s >= 1")
    pattern = _alternating_pattern(h, pattern)
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


def _tuple_decomposition(A: SetA, s: int, t: int):
    """Per-support-size aggregates, weighted by the surjection counts."""
    stats = {u: subset_rep_aggregates(A, u, t) for u in range(1, s + 1)}
    weighted = {
        u: {
            "rep_sum": surjection_count(s, u) * st.rep_sum,
            "count_over": surjection_count(s, u) * st.count_over,
            "excess_sum": surjection_count(s, u) * st.excess_sum,
        }
        for u, st in stats.items()
    }
    return stats, weighted


def verify_kst_energy_bound(A: SetA, s: int, t: int):
    """Exact decomposition of E_s for a grid-free set.

    E_s = |A|^s (zero shift) + distinct-tuple part (each tuple <= t-1 shifts)
    + degenerate part; asserts E_s <= t|A|^s + degenerate_total exactly and
    reports degenerate_total / |A|^{s-c_s}.
    """
    if not 2 <= s <= t:
        raise ValueError("need 2 <= s <= t")
    require_kst_free(A, s, t)
    m = len(A)
    e_s = pair_energy(A, s)
    stats, weighted = _tuple_decomposition(A, s, t)
    distinct_total = weighted[s]["rep_sum"]
    degenerate_total = sum(weighted[u]["rep_sum"] for u in range(1, s))
    c_s = vanishing_exponent(s)
    rep = VerificationReport(
        lemma="kst_energy_bound",
        inputs={"set": A.provenance, "s": s, "t": t, "|A|": m},
        quantities={
            "E_s": e_s,
            "distinct_total": distinct_total,
            "degenerate_total": degenerate_total,
            "max_distinct_rep": stats[s].max_rep,
            "c_s": c_s,
        },
    )
    if s == 2:
        rep.flags.append("s=2 uses the patched exponent c_2 = 1")
    rep.check("admissible_shift_bound", stats[s].max_rep, "<=", t - 1, exact=True)
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
    _, weighted = _tuple_decomposition(A, s, t)
    count = sum(weighted[u]["count_over"] for u in range(1, s + 1))
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
    if A.model_n:
        rep.measured_ratios["size_over_model_bound"] = m / (
            2.0
            * (t * t / float(1 - eta_eff)) ** (1 / s)
            * A.model_n ** (1 - 1 / s)
        )
    return rep


def verify_excess_vanishing(A: SetA, s: int, t: int):
    """sum over tuples of (rep - (t-1))_+: distinct part exactly 0 when free."""
    if not 2 <= s <= t:
        raise ValueError("need 2 <= s <= t")
    require_kst_free(A, s, t)
    m = len(A)
    _, weighted = _tuple_decomposition(A, s, t)
    distinct_excess = weighted[s]["excess_sum"]
    total = sum(weighted[u]["excess_sum"] for u in range(1, s + 1))
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
    _, weighted = _tuple_decomposition(A, s, t)
    total = sum(weighted[u]["excess_sum"] for u in range(1, s + 1))
    return Fraction(total, m**s)
