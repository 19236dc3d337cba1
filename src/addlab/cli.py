"""Command-line front end and the verification-suite orchestrator.

Commands: construct, spectrum, dense-model, count, pipeline, verify.
Exit codes: 0 all hard assertions pass, 1 an assertion or precondition
failed (the failing report path is printed), 2 config/usage error.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import counting, dense_model, energy, functions, sets, spectral
from .counting import EquationSpec, PipelineReport
from .groups import CyclicCtx, FieldCtx, VectorCtx, parse_ctx
from .functions import Dfn, character_matrix, fourier
from .report import VerificationReport, dumps_report, to_jsonable, write_csv
from .util import as_fraction, spawn_rng

SUITE_NAMES = ("energy", "spectral", "dense_model", "counting", "pipeline")


class ConfigError(ValueError):
    pass


@dataclass
class SuiteConfig:
    suites: tuple
    seed: int = 42
    sizes: tuple = (64, 128, 256)
    st_pairs: tuple = ((2, 2), (2, 3), (3, 3))
    equation: tuple = (1, 1, 1, -1, -2)
    out: str | None = None
    plot_data: bool = False

    def validate(self):
        if not self.suites:
            raise ConfigError("empty suite list")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        bad = [s for s in self.suites if s not in SUITE_NAMES]
        if bad:
            raise ConfigError(f"unknown suites: {bad}")
        if not self.sizes or any(n < 8 for n in self.sizes):
            raise ConfigError("sizes must be >= 8")
        for s, t in self.st_pairs:
            if not 2 <= s <= t:
                raise ConfigError(f"bad (s, t) pair ({s}, {t})")
        try:
            EquationSpec(self.equation)
        except ValueError as exc:
            raise ConfigError(f"bad equation {self.equation}: {exc}") from exc

    def to_dict(self):
        # the fields that shape the results; the suites run serially
        return {**{f.name: to_jsonable(getattr(self, f.name)) for f in fields(self)
                   if f.name not in ("out", "plot_data")}, "threads": 1}


def _parse_value(name: str, parse, token: str):
    """parse(token); its ValueError becomes a ConfigError naming name and token."""
    try:
        return parse(token)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"{name} {token!r}: {exc}") from None


def _ints(text: str) -> tuple:
    return tuple(int(x) for x in text.split(","))


def _parse_suites(text: str):
    if text.strip() == "all":
        return SUITE_NAMES
    return tuple(s.strip() for s in text.split(",") if s.strip())


def _parse_st(text: str):
    pairs = []
    for part in text.split(","):
        try:
            s, t = (int(x) for x in part.split(":"))
        except ValueError:
            raise ValueError(f"bad (s, t) pair {part.strip()!r}: expected s:t") from None
        pairs.append((s, t))
    return tuple(pairs)


def _parse_bit(text: str, allowed=("0", "1")) -> bool:
    if text not in allowed:
        raise ValueError(f"expected {' or '.join(allowed)}")
    return text == "1"


# verify's inputs: config-file key, also the dest of the flag that overrides
# it -> (SuiteConfig field or None, parser of the key's text)
_VERIFY_KEYS = {
    "suites": ("suites", _parse_suites),
    "seed": ("seed", int),
    "sizes": ("sizes", _ints),
    "st": ("st_pairs", _parse_st),
    "eq": ("equation", _ints),
    "out": ("out", str),
    # the suites run serially: threads stays a key only for callers passing 1
    "threads": (None, lambda text: _parse_bit(text, ("1",))),
    "plot_data": ("plot_data", _parse_bit),
}


def _parse_config_file(path: str) -> dict:
    out: dict = {}
    with open(path) as fh:
        for ln, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{ln}: expected key=value")
            key, val = (p.strip() for p in line.split("=", 1))
            if key not in _VERIFY_KEYS:
                raise ConfigError(f"{path}:{ln}: unknown key {key!r}")
            out[key] = val
    return out


# -- suites ---------------------------------------------------------------------


def _corpus_for(seed: int, s: int, t: int, sizes):
    out = []
    for j, n in enumerate(sizes):
        n_eff = min(n, 72) if s >= 3 else n
        out.append(
            sets.greedy_kst_free(s, t, n_eff, seed=seed * 1009 + 17 * j + s * 3 + t)
        )
    if (s, t) == (2, 2):
        out.append(sets.erdos_turan_sidon(5))
        out.append(sets.erdos_turan_sidon(7))
    return out


def suite_energy(cfg: SuiteConfig):
    reports = []
    for s, t in cfg.st_pairs:
        for A in _corpus_for(cfg.seed, s, t, cfg.sizes):
            reports.append(energy.verify_trivial_bounds(A, h=2, s=s))
            reports.append(energy.verify_energy_interpolation(A, max(s, 3)))
            reports.append(energy.verify_kst_energy_bound(A, s, t))
            reports.append(energy.verify_heavy_tuple_count(A, s, t))
            reports.append(energy.verify_size_bound(A, s, t))
            reports.append(energy.verify_excess_vanishing(A, s, t))
    return reports


def _fourier_report(ctx, rng, trials: int = 20):
    rep = VerificationReport(
        lemma="fourier_fast_vs_direct", inputs={"ctx": ctx.describe(), "trials": trials}
    )
    # drawn trial by trial, then the direct sums of all trials as one
    # product, by einsum rather than a matrix product: a complex GEMM this
    # small runs slower on a BLAS thread pool than on one thread
    hs = np.array([rng.normal(size=ctx.N) + 1j * rng.normal(size=ctx.N)
                   for _ in range(trials)])
    worst = 0.0
    worst_par = 0.0
    for h, direct in zip(hs, np.einsum("kx,xy->ky", hs, character_matrix(ctx))):
        h = Dfn(ctx, h)
        fast = fourier(h).values
        scale = max(1.0, float(np.abs(direct).max()))
        worst = max(worst, float(np.abs(fast - direct).max()) / scale)
        phys = float((np.abs(h.values) ** 2).sum())
        dual = float((np.abs(fast) ** 2).mean())
        worst_par = max(worst_par, abs(phys - dual) / max(1.0, phys))
    rep.quantities["worst_rel_error"] = worst
    rep.check("fast_matches_direct", worst, "<=", 1e-9)
    rep.check("parseval", worst_par, "<=", 1e-9)
    return rep


def suite_spectral(cfg: SuiteConfig):
    rng = spawn_rng(cfg.seed, 0x5BEC)
    reports = []
    f9 = FieldCtx(3, 2)
    for ctx in (CyclicCtx(60), VectorCtx(FieldCtx(3, 1), 4), VectorCtx(f9, 2)):
        reports.append(_fourier_report(ctx, rng))
    # spectrum scan vs threshold rule, and the span dimension bound
    A = sets.erdos_turan_sidon(7)
    sp = spectral.spectrum(A, "1/4")
    rep = VerificationReport(lemma="spectrum_scan", inputs={"set": A.provenance})
    mags = np.abs(fourier(A.indicator()).values)
    expect = set(np.nonzero(mags >= 0.25 * len(A))[0].tolist())
    rep.check("matches_direct_scan", sorted(map(int, sp.frequencies)) == sorted(expect),
              "==", True, exact=True)
    rep.check("zero_in_spectrum", 0 in set(map(int, sp.frequencies)), "==", True,
              exact=True)
    reports.append(rep)
    # bohr monotonicity across eps
    rep = VerificationReport(lemma="bohr_monotonicity", inputs={"set": A.provenance})
    prev = None
    prev_spec = None
    for eps in ("1/8", "1/6", "1/4", "1/3"):
        spx = spectral.spectrum(A, eps)
        B = spectral.bohr_set(spx, eps, A.model_n)
        if prev is not None:
            rep.check(
                f"bohr_grows_at_{eps}",
                set(prev.signed.tolist()) <= set(B.signed.tolist()),
                "==",
                True,
                exact=True,
            )
            rep.check(
                f"spectrum_shrinks_at_{eps}",
                set(map(int, spx.frequencies)) <= set(map(int, prev_spec.frequencies)),
                "==",
                True,
                exact=True,
            )
        prev, prev_spec = B, spx
    reports.append(rep)
    # annihilators and the exact projector identity in F_3^4
    ctx = VectorCtx(FieldCtx(3, 1), 4)
    V = spectral.span(ctx, [ctx.parse_element("1 0 2 0"), ctx.parse_element("0 1 1 0")])
    H = spectral.annihilator(V)
    rep = VerificationReport(lemma="annihilator_identities", inputs={"ctx": ctx.describe()})
    rep.check("dim_sum", V.dim + H.dim, "==", ctx.n, exact=True)
    VV = spectral.annihilator(H)
    rep.check("double_annihilator", np.array_equal(VV.basis, V.basis), "==", True,
              exact=True)
    g = Dfn(ctx, rng.normal(size=ctx.N))
    mu_h = spectral.uniform_measure(H)
    proj = functions.convolve(g, mu_h)
    lhs = proj.hat()
    mask = np.zeros(ctx.N, dtype=bool)
    mask[spectral.annihilator(H).element_indices()] = True  # H^perp = V
    rhs = g.hat() * mask
    rep.check("fourier_projector", float(np.abs(lhs - rhs).max()), "<=",
              1e-10 * max(1.0, float(np.abs(rhs).max())))
    mu_hat = mu_h.hat()
    rep.check("mu_hat_indicator", float(np.abs(mu_hat - mask).max()), "<=", 1e-10)
    reports.append(rep)
    B22 = sets.greedy_kst_free(2, 2, 64, seed=cfg.seed, ctx=ctx)
    spx = spectral.spectrum(B22, "1/2")
    reports.append(
        spectral.verify_spectrum_span_bound(B22, spx, spectral.span(ctx, spx.frequencies))
    )
    # large sieve battery
    reports.append(spectral.large_sieve_check([0], "1/4", np.ones(12)))
    reports.append(
        spectral.large_sieve_check([0, "1/2"], "1/8", rng.normal(size=24))
    )
    pts = [as_fraction(f"{i}/8") for i in range(8)]
    coeffs = np.exp(2j * np.pi * np.arange(1, 33) * 0.3)
    reports.append(spectral.large_sieve_check(pts, "1/16", coeffs))
    return reports


def suite_dense_model(cfg: SuiteConfig):
    reports = []
    # both a trivial and a genuinely wide Bohr set
    for p, eps in ((5, "1/4"), (7, "1/8"), (7, "1/2")):
        A = sets.erdos_turan_sidon(p)
        model = dense_model.build_dense_model(A, 2, 2, eps)
        reports.append(dense_model.verify_model_properties(model))
    ctx = VectorCtx(FieldCtx(3, 1), 4)
    for st, eps in (((2, 2), "1/2"), ((2, 3), "1/3")):
        s, t = st
        A = sets.greedy_kst_free(s, t, ctx.N, seed=cfg.seed + s + t, ctx=ctx)
        model = dense_model.build_dense_model(A, s, t, eps)
        reports.append(dense_model.verify_model_properties(model))
        H = model.smoother
        reports.append(dense_model.verify_smoothing_decomposition(A, s, t, H))
    return reports


def suite_counting(cfg: SuiteConfig):
    rng = spawn_rng(cfg.seed, 0xC0)
    reports = []
    # brute vs fourier, multilinearity, translation invariance
    rep = VerificationReport(lemma="count_dual_route", inputs={"trials": 12})
    eq3 = EquationSpec([1, 1, -2])
    z12 = CyclicCtx(12)
    worst = 0.0
    for _ in range(6):
        hs = [Dfn(z12, rng.normal(size=12) + 1j * rng.normal(size=12)) for _ in range(3)]
        b = counting.count_T(eq3, hs, "brute")
        f = counting.count_T(eq3, hs, "fourier")
        worst = max(worst, abs(b - f) / max(1.0, abs(b)))
    f5 = VectorCtx(FieldCtx(5, 1), 2)
    eq5 = EquationSpec([1, 1, 1, 1, 1], char=5)
    for _ in range(3):
        A = sets.random_subset(f5, 0.3, seed=int(rng.integers(1 << 30)))
        hs = [A.indicator()] * 5
        b = counting.count_T(eq5, hs, "brute")
        f = counting.count_T(eq5, hs, "fourier")
        worst = max(worst, abs(b - f))
    rep.check("brute_equals_fourier", worst, "<=", 1e-6)
    reports.append(rep)

    rep = VerificationReport(lemma="count_properties", inputs={"trials": 8})
    worst_lin = 0.0
    worst_shift = 0.0
    eqk = EquationSpec([1, 1, 1, -1, -2])
    z40 = CyclicCtx(40)
    for _ in range(8):
        hs = [Dfn(z40, rng.normal(size=40)) for _ in range(5)]
        h2 = Dfn(z40, rng.normal(size=40))
        a, b = rng.normal(), rng.normal()
        mixed = Dfn(z40, a * hs[2].values + b * h2.values)
        t1 = counting.count_T(eqk, hs[:2] + [mixed] + hs[3:], "fourier")
        t2 = (
            a * counting.count_T(eqk, hs, "fourier")
            + b * counting.count_T(eqk, hs[:2] + [h2] + hs[3:], "fourier")
        )
        worst_lin = max(worst_lin, abs(t1 - t2) / max(1.0, abs(t1)))
        c = int(rng.integers(40))
        shifted = [h.translate(c) for h in hs]
        t3 = counting.count_T(eqk, shifted, "fourier")
        worst_shift = max(
            worst_shift,
            abs(t3 - counting.count_T(eqk, hs, "fourier")) / max(1.0, abs(t3)),
        )
    rep.check("multilinearity", worst_lin, "<=", 1e-9)
    rep.check("translation_invariance", worst_shift, "<=", 1e-9)
    reports.append(rep)

    # equation-free sets: count equals |A| exactly
    rep = VerificationReport(lemma="equation_free_counts", inputs={})
    eq = EquationSpec(cfg.equation)
    A = sets.equation_free_greedy(eq, 48, seed=cfg.seed)
    solutions = counting.count_equation_solutions(eq, A)
    rep.check("diagonal_only", solutions, "==", len(A), exact=True)
    if (vanishing := eq.vanishing_subsum(A.ctx)) is not None:
        rep.flags.append(
            f"vacuous: the coefficients {list(vanishing)} sum to 0 mod {A.ctx.exponent}, "
            "so the greedy set has one point and diagonal_only and "
            "diagonal_count_value hold trivially")
    reports.append(rep)
    _, diag_rep = counting.trivial_solution_value(eq, A, s=2, exact=solutions)
    reports.append(diag_rep)

    # Hoelder chain and telescoping on random dominated families
    z64 = CyclicCtx(67)
    eq64 = EquationSpec([1, 1, 1, -1, -2])
    for _ in range(3):
        nu_vals = rng.uniform(0.2, 1.0, size=67)
        nu = Dfn(z64, nu_vals)
        fs = [Dfn(z64, nu_vals * rng.uniform(-1, 1, size=67)) for _ in range(5)]
        reports.append(counting.verify_counting_lemma(eq64, nu, fs))
    for _ in range(3):
        fpair = Dfn(z64, rng.uniform(0, 1, size=67))
        Fpair = Dfn(z64, rng.uniform(0, 1, size=67))
        reports.append(counting.verify_telescoping(eq64, fpair, Fpair))

    # level sets
    rep_count = 0
    for p in (2, 3):
        vals = rng.uniform(0, 1, size=120)
        vals *= (120 / (vals**p).sum()) ** (1 / p) * 0.9
        f = Dfn(CyclicCtx(120), vals)
        delta = float(vals.sum()) / 120
        _, lrep = counting.level_set_extract(f, delta, p)
        reports.append(lrep)
        rep_count += 1

    # supersaturation in F_3^4
    ctx = VectorCtx(FieldCtx(3, 1), 4)
    A0 = sets.random_subset(ctx, 0.15, seed=cfg.seed + 5)
    eqff = EquationSpec([1, 1, 1, -1, -2])
    reports.append(counting.verify_supersaturation(eqff, A0))
    return reports


def suite_pipeline(cfg: SuiteConfig):
    reports = []
    eq = EquationSpec(cfg.equation)
    reports.append(("erdos_turan_11", counting.run_transference_pipeline(
        sets.erdos_turan_sidon(11), eq, 2, 2, "1/8")))
    ctx = VectorCtx(FieldCtx(3, 1), 5)
    A = sets.greedy_kst_free(2, 2, ctx.N, seed=cfg.seed + 9, ctx=ctx)
    eqff = EquationSpec([1, 1, 1, 1, -4])
    reports.append(("ffield_3_5", counting.run_transference_pipeline(
        A, eqff, 2, 2, "1/2")))
    for n in sorted(cfg.sizes):
        A = sets.greedy_kst_free(2, 2, n, seed=cfg.seed * 31 + n)
        reports.append((f"greedy_{n}", counting.run_transference_pipeline(
            A, eq, 2, 2, "1/8")))
    return reports


_SUITES = {
    "energy": suite_energy,
    "spectral": suite_spectral,
    "dense_model": suite_dense_model,
    "counting": suite_counting,
    "pipeline": suite_pipeline,
}


def run_suite(cfg: SuiteConfig):
    """Run the configured suites in order; returns (exit_code, result dict,
    the first failing (suite, label) or None)."""
    cfg.validate()
    out: dict = {"config": cfg.to_dict(), "suites": {}}
    all_pass = True
    first_fail = None
    for name in cfg.suites:
        entries = []
        for item in _SUITES[name](cfg):
            label, rep = item if isinstance(item, tuple) else (item.lemma, item)
            entries.append({"label": label, "report": rep})
            if not rep.passed and first_fail is None:
                first_fail = (name, label)
            all_pass = all_pass and rep.passed
        out["suites"][name] = entries
    out["pass"] = all_pass
    return (0 if all_pass else 1), out, first_fail


def emit_report(obj, path):
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(dumps_report(obj))


def _ratio_rows(out: dict):
    rows = []
    for suite, entries in out["suites"].items():
        for e in entries:
            rep = e["report"]
            ratios = rep.ledger if isinstance(rep, PipelineReport) else rep.measured_ratios
            for k, v in ratios.items():
                if isinstance(v, (int, float)):
                    rows.append([suite, e["label"], k, float(v)])
    return rows


# -- command implementations --------------------------------------------------


# construct's parameters by key; basis parses against the parsed ctx
_CONSTRUCT_PARSERS = {"p": int, "M": int, "s": int, "t": int, "N": int,
                      "density": float, "eq": lambda t: EquationSpec(_ints(t)),
                      "ctx": parse_ctx}


def _parse_equation(text: str, A) -> EquationSpec:
    """count's and pipeline's --eq: coefficients over A's scalar ring."""
    char = A.ctx.field.p if isinstance(A.ctx, VectorCtx) else 0
    return _parse_value("--eq", lambda t: EquationSpec(t.split(","), char=char), text)


def _precondition_failed(exc: sets.FreenessError, report_path) -> int:
    """Write the violated freeness precondition and its witness grid."""
    if report_path:
        emit_report({"error": str(exc), "witness": to_jsonable(vars(exc.witness))},
                    report_path)
    print(f"precondition failed: {exc}", file=sys.stderr)
    return 1


def _cmd_construct(args) -> int:
    if args.seed < 0:
        raise ConfigError(f"seed must be >= 0, got {args.seed}")
    params = {}
    if args.params:
        # values may themselves contain commas (modulus digit lists);
        # a token without '=' continues the previous value
        pieces: list = []
        for tok in args.params.split(","):
            if "=" in tok or not pieces:
                pieces.append(tok)
            else:
                pieces[-1] += "," + tok
        for part in pieces:
            if "=" not in part:
                raise ConfigError(f"--params token {part!r} is not key=value")
            k, v = (x.strip() for x in part.split("=", 1))
            params[k] = _parse_value(f"--params {k}", _CONSTRUCT_PARSERS.get(k, str), v)
    if "basis" in params and "ctx" in params:
        ctx = params["ctx"]
        params["basis"] = _parse_value(
            "--params basis",
            lambda t: [ctx.parse_element(b) for b in t.split("|") if b],
            params["basis"])
    try:
        A = sets.construct(args.kind, params, seed=args.seed)
    except KeyError as exc:
        raise ConfigError(f"{args.kind} needs the parameter {exc.args[0]!r}") from exc
    except ValueError as exc:  # the construction's own rule for its parameters
        raise ConfigError(f"--params {args.params!r}: {exc}") from None
    sets.save_set(A, args.out)
    print(f"wrote {args.out}: |A| = {len(A)} in {A.ctx.describe()}")
    return 0


def _cmd_spectrum(args) -> int:
    A = sets.load_set(args.input)
    eps = _parse_value("--eps", as_fraction, args.eps)
    sp = spectral.spectrum(A, eps)
    payload = {
        "ctx": A.ctx.describe(),
        "eps": eps,
        "set_size": sp.set_size,
        "frequencies": [A.ctx.format_element(int(x)) for x in sp.frequencies],
        "magnitudes": [float(abs(v)) for v in sp.values],
    }
    emit_report(payload, args.out)
    print(f"wrote {args.out}: {len(sp)} frequencies")
    return 0


def _cmd_dense_model(args) -> int:
    A = sets.load_set(args.input)
    eps = _parse_value("--eps", as_fraction, args.eps)
    try:
        model = dense_model.build_dense_model(A, args.s, args.t, eps)
    except sets.FreenessError as exc:
        return _precondition_failed(exc, args.report)
    rep = dense_model.verify_model_properties(model)
    emit_report(rep, args.report)
    if args.emit_f:
        functions.save_dfn(model.f, args.emit_f)
    print(rep.summary())
    return 0 if rep.passed else 1


def _cmd_count(args) -> int:
    A = sets.load_set(args.input)
    eq = _parse_equation(args.eq, A)
    hs = [A.indicator()] * eq.k
    methods = ("brute", "fourier") if args.method == "both" else (args.method,)
    rep = VerificationReport(
        lemma="count",
        inputs={"eq": str(eq), "set": A.provenance, "N": A.ctx.N, "|A|": len(A)},
    )
    totals = {}
    for m in methods:
        totals[m] = rep.quantities[f"total_{m}"] = counting.count_T(eq, hs, method=m)
    if len(totals) == 2:
        # both routes count an indicator in exact integers
        rep.check("methods_agree", totals["brute"], "==", totals["fourier"], exact=True)
    if args.report:
        emit_report(rep, args.report)
    print(rep.summary(), to_jsonable(rep.quantities))
    return 0 if rep.passed else 1


def _cmd_pipeline(args) -> int:
    A = sets.load_set(args.input)
    eq = _parse_equation(args.eq, A)
    eps = _parse_value("--eps", as_fraction, args.eps)
    try:
        rep = counting.run_transference_pipeline(A, eq, args.s, args.t, eps)
    except sets.FreenessError as exc:
        return _precondition_failed(exc, args.report)
    if args.report:
        emit_report(rep, args.report)
    if args.plot_data:
        rows = [[k, float(v)] for k, v in rep.ledger.items()
                if isinstance(v, (int, float))]
        Path(args.plot_data).parent.mkdir(parents=True, exist_ok=True)
        write_csv(args.plot_data, ["quantity", "value"], rows)
    print(rep.summary())
    for name, sec in rep.sections.items():
        print(" ", sec.summary())
    return 0 if rep.passed else 1


def _cmd_verify(args) -> int:
    texts = _parse_config_file(args.config) if args.config else {}
    texts.update({key: str(getattr(args, key)) for key in _VERIFY_KEYS
                  if getattr(args, key) is not None})
    if "suites" not in texts:
        raise ConfigError("no suites selected (use --suite)")
    values = {field: _parse_value(key, parse, texts[key])
              for key, (field, parse) in _VERIFY_KEYS.items() if key in texts}
    values.pop(None, None)  # threads: checked, not kept
    cfg = SuiteConfig(**values)
    t0 = time.time()
    code, out, first_fail = run_suite(cfg)
    out["generated_at"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    out["elapsed_seconds"] = round(time.time() - t0, 3)
    outdir = Path(cfg.out) if cfg.out else None
    n_reports = sum(len(v) for v in out["suites"].values())
    for suite, entries in out["suites"].items():
        for e in entries:
            print(f"{suite:12s} {e['label']:32s} "
                  f"{'pass' if e['report'].passed else 'FAIL'}")
    if outdir:
        report_path = outdir / "report.json"
        emit_report(out, report_path)
        write_csv(outdir / "ratios.csv",
                  ["suite", "report", "ratio", "value"], _ratio_rows(out))
        if cfg.plot_data and "pipeline" in out["suites"]:
            rows = []
            for e in out["suites"]["pipeline"]:
                rep = e["report"]
                if isinstance(rep, PipelineReport) and "greedy_" in e["label"]:
                    n = rep.inputs["N"]
                    rows.append([n, rep.ledger["delta"],
                                 rep.ledger["T_F_over_Nk1"],
                                 rep.ledger["g_hat_sup_over_epsN"]])
            rows.sort(key=lambda r: r[0])  # x,y columns over a monotone N
            write_csv(outdir / "pipeline_ledger.csv",
                      ["N", "delta", "TF_over_Nk1", "ghat_over_epsN"], rows)
        print(f"report: {report_path}")
    if first_fail:
        hint = f" ({outdir / 'report.json'})" if outdir else ""
        print(f"FAILED: {first_fail[0]}/{first_fail[1]}{hint}", file=sys.stderr)
    print(f"{n_reports} reports, exit {code}")
    return code


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="addlab", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="build a corpus set and write it to a file")
    c.add_argument("kind", choices=["erdos_turan_sidon", "greedy_kst_free",
                                    "random_subset", "equation_free_greedy", "subspace"])
    c.add_argument("--params", default="", help="comma-separated key=value pairs")
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--out", required=True)
    c.set_defaults(func=_cmd_construct)

    c = sub.add_parser("spectrum", help="large spectrum of a set")
    c.add_argument("--input", required=True)
    c.add_argument("--eps", required=True, help="rational, e.g. 1/10")
    c.add_argument("--out", required=True)
    c.set_defaults(func=_cmd_spectrum)

    c = sub.add_parser("dense-model", help="build and verify a dense model")
    c.add_argument("--input", required=True)
    c.add_argument("--s", type=int, required=True)
    c.add_argument("--t", type=int, required=True)
    c.add_argument("--eps", required=True)
    c.add_argument("--report", required=True)
    c.add_argument("--emit-f", default=None)
    c.set_defaults(func=_cmd_dense_model)

    c = sub.add_parser("count", help="count equation solutions over a set")
    c.add_argument("--eq", required=True, help="comma-separated coefficients")
    c.add_argument("--input", required=True)
    c.add_argument("--method", choices=["brute", "fourier", "both"], default="both")
    c.add_argument("--report", default=None)
    c.set_defaults(func=_cmd_count)

    c = sub.add_parser("pipeline", help="full transference ledger for one set")
    c.add_argument("--input", required=True)
    c.add_argument("--eq", required=True)
    c.add_argument("--s", type=int, required=True)
    c.add_argument("--t", type=int, required=True)
    c.add_argument("--eps", required=True)
    c.add_argument("--report", default=None)
    c.add_argument("--plot-data", default=None)
    c.set_defaults(func=_cmd_pipeline)

    c = sub.add_parser("verify", help="run verification suites over the corpus")
    c.add_argument("--suite", dest="suites", default=None,
                   help="'all' or comma-separated names")
    c.add_argument("--seed", default=None)
    c.add_argument("--sizes", default=None)
    c.add_argument("--st", default=None, help="e.g. 2:2,2:3")
    c.add_argument("--eq", default=None, help="one equation's coefficients, for the "
                   "cases on Z; ffield_3_5 and most counting cases run fixed ones")
    c.add_argument("--out", default=None)
    c.add_argument("--threads", default=None, help="only 1: the suites run serially")
    c.add_argument("--config", default=None)
    c.add_argument("--plot-data", action="store_const", const=1)
    c.set_defaults(func=_cmd_verify)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
