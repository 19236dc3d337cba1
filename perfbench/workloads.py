"""The benchmark's workloads: each is a list of cases built from one seed.

A case is one call into addlab's public API that returns a report object.
Cases marked ``seeded=False`` do not depend on the seed (Erdos-Turan sets
are fixed by p), so their pinned exact values are shared by every seed.
Every case runs once per pass; ``TOP_CASE`` names the top of each ladder.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable

# Input seeds are reduced modulo PIN_SEEDS so that every input has recorded
# exact values to compare against (see pins.py); 16 input seeds keep the pin
# files small while each workload still sees 16 different inputs.
PIN_SEEDS = 16

WORKLOADS = ("verify_all", "ladder_cyclic", "ladder_ffield", "dense_cyclic")

TOP_CASE = {
    "verify_all": "verify_all",
    "ladder_cyclic": "erdos_turan_101",
    "ladder_ffield": "sidon_f3_7",
    "dense_cyclic": "kst23_free_4096",
}


@dataclass
class Case:
    label: str
    run: Callable[[], object]   # returns the report object whose exact values are pinned
    seeded: bool = True


def input_seed(seed: int, index: int) -> int:
    """Input seed of a run's index-th process: consecutive pinned inputs.

    Rotating inputs across the passes of a run makes the run's median a
    median over inputs as well as over time, so one unusual input (such as
    a set just past the all-distinct size limit) does not decide it.
    """
    return (seed + index) % PIN_SEEDS


def _verify_all(seed: int, tmp: str) -> list:
    from addlab import cli

    captured = {}
    run_suite = cli.run_suite

    def capture(cfg):
        code, out, first_fail = run_suite(cfg)
        captured["out"] = out
        return code, out, first_fail

    def run():
        # run_suite is captured for its in-memory result: report.json prints
        # integral floats without a decimal point, so only the objects tell
        # exact integers from floats
        cli.run_suite = capture
        try:
            code = cli.main(["verify", "--suite", "all", "--seed", str(seed),
                             "--out", os.path.join(tmp, "verify"), "--threads", "1"])
        finally:
            cli.run_suite = run_suite
        out = captured.pop("out")
        if code != 0:
            raise RuntimeError(f"addlab verify exited with {code}")
        return out["suites"]

    return [Case("verify_all", run)]


def _pipeline_case(label, A, coeffs, s, t, eps, seeded=True):
    from addlab import counting

    eq = counting.EquationSpec(coeffs)
    return Case(label, lambda: counting.run_transference_pipeline(A, eq, s, t, eps),
                seeded)


def _ladder_cyclic(seed: int, tmp: str) -> list:
    from addlab import sets

    eq = (1, 1, 1, -1, -2)
    cases = [_pipeline_case(f"erdos_turan_{p}", sets.erdos_turan_sidon(p), eq, 2, 2,
                            "1/8", seeded=False)
             for p in (31, 61, 101)]
    A = sets.greedy_kst_free(2, 2, 8192, seed=seed)
    cases.append(_pipeline_case("sidon_z_8192", A, eq, 2, 2, "1/8"))
    return cases


def _ladder_ffield(seed: int, tmp: str) -> list:
    from addlab import sets
    from addlab.groups import FieldCtx, VectorCtx

    cases = []
    for n in (5, 6, 7):
        ctx = VectorCtx(FieldCtx(3, 1), n)
        A = sets.greedy_kst_free(2, 2, ctx.N, seed=seed, ctx=ctx)
        cases.append(_pipeline_case(f"sidon_f3_{n}", A, (1, 1, 1, 1, -4), 2, 2, "1/2"))
    return cases


def _dense_cyclic(seed: int, tmp: str) -> list:
    from addlab import sets

    eq = (1, 1, 1, -1, -2)
    cases = [_pipeline_case("erdos_turan_31", sets.erdos_turan_sidon(31), eq, 2, 2,
                            "1/2", seeded=False)]
    for n in (1024, 2048, 4096):
        A = sets.greedy_kst_free(2, 3, n, seed=seed)
        cases.append(_pipeline_case(f"kst23_free_{n}", A, eq, 2, 3, "1/2"))
    return cases


_BUILDERS = {
    "verify_all": _verify_all,
    "ladder_cyclic": _ladder_cyclic,
    "ladder_ffield": _ladder_ffield,
    "dense_cyclic": _dense_cyclic,
}


def build(workload: str, seed: int, tmp: str) -> list:
    """The workload's cases for the given (already reduced) input seed."""
    return _BUILDERS[workload](seed, tmp)


def passed(report) -> bool:
    """A verify result (suite -> entries) or a pipeline report passes."""
    if isinstance(report, dict):
        return all(e["report"].passed for entries in report.values() for e in entries)
    return bool(report.passed)
