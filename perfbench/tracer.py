"""Per-layer tracing of addlab from outside the package.

The tracer wraps public functions and methods of the ``addlab`` modules,
records one span per wrapped call (layer name, parent span, start, end) in
memory, and derives each layer's self time from the span tree once the run
is over: a span's self time is its wall time minus the wall time of its
direct children.  Derived work counts (convolution operation counts, Bohr
tests, cache hits, repeated freeness searches) are computed from the call
arguments here, never from inside the program.

A module-level function is replaced in every ``addlab.*`` namespace that
binds it, including module-level dicts such as ``cli._SUITES``, because
several modules import ``convolve`` and ``find_kst_violation`` at import
time.  ``uninstall`` puts every original back.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict

# layers that report self time and call counts, in report order
LAYERS = (
    "groups.vector_codec",
    "groups.cyclic_ops",
    "groups.fft",
    "functions.convolve_exact",
    "functions.convolve_fft",
    "functions.fourier",
    "sets.find_kst_violation",
    "sets.subset_rep_aggregates",
    "sets.rep_tuple",
    "sets.rep_diff",
    "sets.construct",
    "energy.verify",
    "energy.moment_energy",
    "spectral.spectrum",
    "spectral.bohr_set",
    "spectral.subspace",
    "dense_model.build",
    "dense_model.verify_properties",
    "dense_model.smoothing_decomposition",
    "counting.count_all_distinct",
    "counting.count_equation_solutions",
    "counting.count_k_cycles",
    "counting.verify_supersaturation",
    "counting.count_T",
    "counting.verify_telescoping",
    "counting.verify_counting_lemma",
    "counting.level_set_extract",
    "counting.pipeline",
    "report.dumps_report",
)

SUITES = ("energy", "spectral", "dense_model", "counting", "pipeline")

# counters derived from arguments or return values, reported as counts
COUNTERS = (
    "functions.convolve_exact.useful_ops",
    "functions.convolve_exact.dense_ops",
    "functions.hat.calls",
    "functions.hat.hits",
    "sets.find_kst_violation.distinct",
    "spectral.bohr_set.tests",
    "dense_model.trivial_smoother.cases",
    "counting.count_all_distinct.skipped",
)

ROOT_PREFIX = "bench."  # spans the benchmark opens itself (cases, setup)


def metric_specs() -> dict:
    """Every per-layer metric the traced run reports: name -> (unit, better)."""
    specs = {}
    for layer in LAYERS:
        specs[f"{layer}.self_s"] = ("s", "lower")
        specs[f"{layer}.calls"] = ("count", "lower")
    specs.update({
        "functions.convolve_exact.useful_ops": ("count", "lower"),
        "functions.convolve_exact.dense_ops": ("count", "lower"),
        "functions.convolve_exact.useful_ratio": ("ratio", "higher"),
        "functions.hat.calls": ("count", "lower"),
        "functions.hat.hit_ratio": ("ratio", "higher"),
        "sets.find_kst_violation.repeat_ratio": ("ratio", "lower"),
        "spectral.bohr_set.tests": ("count", "lower"),
        "dense_model.trivial_smoother.cases": ("count", "lower"),
        "counting.count_all_distinct.skipped": ("count", "lower"),
    })
    for suite in SUITES:
        specs[f"cli.suite.{suite}.total_s"] = ("s", "lower")
    specs["trace.overhead_ratio"] = ("ratio", "lower")
    specs["trace.uncovered_s"] = ("s", "lower")
    return specs


def _nnz(values) -> int:
    import numpy as np

    return int(np.count_nonzero(values))


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


# -- argument-derived counters --------------------------------------------------


def _convolve_route(args, kwargs):
    method = args[2] if len(args) > 2 else kwargs.get("method", "fast")
    return "functions.convolve_exact" if method == "direct" else "functions.convolve_fft"


def _count_convolve(tracer, args, kwargs):
    if _convolve_route(args, kwargs) == "functions.convolve_exact":
        tracer.count_ops(args[0].values, args[1].values)


def _count_int_convolve(tracer, args, kwargs):
    tracer.count_ops(args[1], args[2])


def _count_hat(tracer, args, kwargs):
    tracer.counts["functions.hat.calls"] += 1
    if args[0]._hat is not None:
        tracer.counts["functions.hat.hits"] += 1


def _count_kst(tracer, args, kwargs):
    A, s, t = (_arg(args, kwargs, i, n) for i, n in enumerate(("A", "s", "t")))
    tracer.kst_keys.add((A.ctx.describe(), A.indices.tobytes(), int(s), int(t)))


def _count_bohr(tracer, args, kwargs):
    from addlab.util import as_fraction

    spec, eps, model_n = (
        _arg(args, kwargs, i, n) for i, n in enumerate(("spec", "eps", "model_n")))
    width = min(int(as_fraction(eps) * model_n), (spec.ctx.M - 1) // 2)
    tracer.counts["spectral.bohr_set.tests"] += (2 * width + 1) * len(spec.frequencies)


def _after_build(tracer, result):
    if result.smoother_size == 1:
        tracer.counts["dense_model.trivial_smoother.cases"] += 1


def _after_all_distinct(tracer, result):
    if result is None:
        tracer.counts["counting.count_all_distinct.skipped"] += 1


def targets():
    """(owner, attribute, layer, before, after) for every wrapped callable.

    ``layer`` is a layer name, a callable choosing it from the arguments,
    or None for a counted call that opens no span.
    """
    from addlab import (
        cli, counting, dense_model, energy, functions, groups, report, sets, spectral,
    )

    out = []
    for name in ("add", "neg", "sub", "scale_int", "scale_field", "translation",
                 "coords", "from_coords"):
        out.append((groups.VectorCtx, name, "groups.vector_codec", None, None))
    for name in ("add", "neg", "sub", "scale_int", "translation"):
        out.append((groups.CyclicCtx, name, "groups.cyclic_ops", None, None))
    for cls in (groups.CyclicCtx, groups.VectorCtx):
        for name in ("fft", "ifft"):
            out.append((cls, name, "groups.fft", None, None))
    out += [
        (functions, "convolve", _convolve_route, _count_convolve, None),
        # the integer translate-accumulation kernel behind the exact counts
        (counting, "_int_convolve", "functions.convolve_exact", _count_int_convolve,
         None),
        (functions, "fourier", "functions.fourier", None, None),
        (functions, "inverse_fourier", "functions.fourier", None, None),
        (functions.Dfn, "hat", None, _count_hat, None),
        (sets, "find_kst_violation", "sets.find_kst_violation", _count_kst, None),
        (sets, "subset_rep_aggregates", "sets.subset_rep_aggregates", None, None),
        (sets, "rep_tuple", "sets.rep_tuple", None, None),
        (sets, "rep_diff", "sets.rep_diff", None, None),
    ]
    for name in ("construct", "erdos_turan_sidon", "greedy_kst_free", "random_subset",
                 "subspace_set", "equation_free_greedy"):
        out.append((sets, name, "sets.construct", None, None))
    for name in ("verify_trivial_bounds", "verify_energy_interpolation",
                 "verify_kst_energy_bound", "verify_heavy_tuple_count",
                 "verify_size_bound", "verify_excess_vanishing"):
        out.append((energy, name, "energy.verify", None, None))
    out += [
        (energy, "moment_energy", "energy.moment_energy", None, None),
        (spectral, "spectrum", "spectral.spectrum", None, None),
        (spectral, "bohr_set", "spectral.bohr_set", _count_bohr, None),
        (spectral, "span", "spectral.subspace", None, None),
        (spectral, "annihilator", "spectral.subspace", None, None),
        (spectral.Subspace, "element_indices", "spectral.subspace", None, None),
        (dense_model, "build_dense_model", "dense_model.build", None, _after_build),
        (dense_model, "verify_model_properties", "dense_model.verify_properties",
         None, None),
        (dense_model, "verify_smoothing_decomposition",
         "dense_model.smoothing_decomposition", None, None),
        (counting, "count_all_distinct", "counting.count_all_distinct", None,
         _after_all_distinct),
        (counting, "count_equation_solutions", "counting.count_equation_solutions",
         None, None),
        (counting, "count_k_cycles", "counting.count_k_cycles", None, None),
        (counting, "verify_supersaturation", "counting.verify_supersaturation",
         None, None),
        (counting, "count_T", "counting.count_T", None, None),
        (counting, "verify_telescoping", "counting.verify_telescoping", None, None),
        (counting, "verify_counting_lemma", "counting.verify_counting_lemma",
         None, None),
        (counting, "level_set_extract", "counting.level_set_extract", None, None),
        (counting, "run_transference_pipeline", "counting.pipeline", None, None),
        (report, "dumps_report", "report.dumps_report", None, None),
    ]
    for suite in SUITES:
        out.append((cli, f"suite_{suite}", f"cli.suite.{suite}", None, None))
    return out


class Tracer:
    """In-memory span recorder; install() patches, uninstall() restores."""

    def __init__(self):
        # span = [layer, parent index or -1, start, end]
        self.spans: list = []
        self.counts: defaultdict = defaultdict(int)
        self.kst_keys: set = set()
        self._local = threading.local()
        self._patched: list = []  # (container, key, original, was_own_attribute)
        self.missing: list = []   # targets this version of addlab does not define

    # -- spans ---------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, layer: str) -> int:
        stack = self._stack()
        idx = len(self.spans)
        self.spans.append([layer, stack[-1] if stack else -1, time.perf_counter(), 0.0])
        stack.append(idx)
        return idx

    def close(self, idx: int):
        self.spans[idx][3] = time.perf_counter()
        self._stack().pop()

    def count_ops(self, v1, v2):
        self.counts["functions.convolve_exact.useful_ops"] += _nnz(v1) * _nnz(v2)
        self.counts["functions.convolve_exact.dense_ops"] += len(v1) * len(v2)

    # -- patching ------------------------------------------------------------

    def _wrap(self, fn, layer, before, after):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(tracer, args, kwargs)
            name = layer(args, kwargs) if callable(layer) else layer
            if name is None:
                result = fn(*args, **kwargs)
            else:
                idx = tracer.open(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer.close(idx)
            if after is not None:
                after(tracer, result)
            return result

        return wrapper

    def _set(self, container, key, value, original):
        if isinstance(container, dict):
            self._patched.append((container, key, original, True))
            container[key] = value
        else:
            own = key in vars(container)
            self._patched.append((container, key, original, own))
            setattr(container, key, value)

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "addlab" or name.startswith("addlab."))]
        for owner, attr, layer, before, after in targets():
            original = getattr(owner, attr, None)
            if original is None:
                self.missing.append(f"{owner.__name__}.{attr}")
                continue
            if isinstance(owner, type):
                self._set(owner, attr, self._wrap(original, layer, before, after),
                          original)
                continue
            wrapper = self._wrap(original, layer, before, after)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        self._set(mod, key, wrapper, original)
                    elif isinstance(val, dict):
                        for dkey, dval in list(val.items()):
                            if dval is original:
                                self._set(val, dkey, wrapper, original)
        return self

    def uninstall(self):
        for container, key, original, own in reversed(self._patched):
            if isinstance(container, dict):
                container[key] = original
            elif own:
                setattr(container, key, original)
            else:
                delattr(container, key)
        self._patched.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- derived numbers ------------------------------------------------------

    def self_times(self) -> list:
        """Self time of every span: its wall time minus its children's."""
        child = [0.0] * len(self.spans)
        for layer, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i]
                for i, (layer, parent, start, end) in enumerate(self.spans)]

    def summary(self) -> dict:
        """Per-layer totals plus the time the benchmark's own spans leave uncovered."""
        selfs = self.self_times()
        out = {f"{layer}.self_s": 0.0 for layer in LAYERS}
        out.update({f"{layer}.calls": 0 for layer in LAYERS})
        out.update({f"cli.suite.{s}.total_s": 0.0 for s in SUITES})
        uncovered = 0.0
        for (layer, parent, start, end), own in zip(self.spans, selfs):
            if layer.startswith("cli.suite."):
                out[f"{layer}.total_s"] += end - start
            elif layer.startswith(ROOT_PREFIX):
                if layer.startswith(ROOT_PREFIX + "case"):
                    uncovered += own
                continue
            if f"{layer}.self_s" in out:
                out[f"{layer}.self_s"] += own
                out[f"{layer}.calls"] += 1
        counts = {name: self.counts.get(name, 0) for name in COUNTERS}
        counts["sets.find_kst_violation.distinct"] = len(self.kst_keys)
        out.update(counts)
        useful = counts["functions.convolve_exact.useful_ops"]
        dense = counts["functions.convolve_exact.dense_ops"]
        out["functions.convolve_exact.useful_ratio"] = useful / dense if dense else 0.0
        hat_calls = counts["functions.hat.calls"]
        out["functions.hat.hit_ratio"] = (
            counts["functions.hat.hits"] / hat_calls if hat_calls else 0.0)
        kst_calls = out["sets.find_kst_violation.calls"]
        out["sets.find_kst_violation.repeat_ratio"] = (
            kst_calls / len(self.kst_keys) if self.kst_keys else 0.0)
        out["trace.uncovered_s"] = uncovered
        return out
