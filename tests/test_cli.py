"""Report serialization, CLI commands, exit codes, determinism."""

import enum
import json
import math
import os
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import addlab
from addlab import cli
from addlab.cli import ConfigError, SuiteConfig, main, run_suite
from addlab.counting import PipelineReport
from addlab.report import (Assertion, VerificationReport, dumps_report, to_jsonable,
                           write_csv)


def run_cli(*args):
    return main(list(args))


def _reference_jsonable(obj):
    """The schema's normalized tree, built by a walk of its own.

    json.dumps of this tree is the independent encoder that dumps_report's
    bytes are checked against; the writer under test never feeds it.
    """
    if type(obj) in (str, int, bool, type(None)):
        return obj
    if hasattr(obj, "as_report_dict"):
        return _reference_jsonable(obj.as_report_dict())
    if isinstance(obj, VerificationReport):
        return {
            "lemma": obj.lemma,
            "inputs": _reference_jsonable(obj.inputs),
            "quantities": _reference_jsonable(obj.quantities),
            "assertions": [_reference_jsonable(a) for a in obj.assertions],
            "measured_ratios": _reference_jsonable(obj.measured_ratios),
            "flags": list(obj.flags),
            "pass": obj.passed,
        }
    if isinstance(obj, Assertion):
        return {
            "name": obj.name,
            "lhs": _reference_jsonable(obj.lhs),
            "op": obj.op,
            "rhs": _reference_jsonable(obj.rhs),
            "tol": obj.tol,
            "exact": obj.exact,
            "pass": obj.passed,
        }
    if isinstance(obj, dict):
        return {str(k): _reference_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_reference_jsonable(v) for v in obj]
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
        return _reference_jsonable(obj.tolist())  # a 0-d array is a scalar
    if isinstance(obj, (complex, np.complexfloating)):
        return {"re": _reference_jsonable(obj.real), "im": _reference_jsonable(obj.imag)}
    return obj


def _refuse_to_jsonable(obj):
    raise AssertionError("dumps_report called to_jsonable")


@pytest.fixture(scope="module")
def seed_42_suites():
    """run_suite's (code, result, first failure) for every suite at seed 42."""
    return run_suite(SuiteConfig(suites=cli.SUITE_NAMES, seed=42))


class TestReportSerialization:
    def test_round_trip_through_schema(self):
        rep = VerificationReport(
            lemma="demo",
            inputs={"eps": Fraction(1, 8), "n": 12},
            quantities={"value": 6, "ratio": 0.12345678901234567},
        )
        rep.check("bound", 5, "<=", 6, exact=True)
        rep.check("close", 1.0, "==", 1.0 + 1e-12, tol=1e-9)
        text = dumps_report(rep)
        back = json.loads(text)
        assert back["lemma"] == "demo"
        assert back["inputs"]["eps"] == "1/8"
        assert back["pass"] is True
        assert back["assertions"][0]["exact"] is True
        assert back["quantities"]["ratio"] == pytest.approx(
            0.12345678901234567, abs=0
        )

    def test_shortest_round_trip_floats(self):
        floats = [2 / 3, 0.1, 5e-324, 1e22, -0.0, 3.0]
        odd = [float("inf"), -float("inf"), float("nan")]
        rep = VerificationReport(lemma="digits", quantities={
            "floats": floats,
            "odd": odd,
            "odd_numpy": [np.float64(x) for x in odd],
            "odd_complex": complex(float("inf"), float("nan")),
        })
        text = dumps_report(rep)

        def no_constants(name):
            raise AssertionError(f"bare {name} in the report")

        q = json.loads(text, parse_constant=no_constants)["quantities"]
        assert all(type(x) is float for x in q["floats"])
        assert [x.hex() for x in q["floats"]] == [x.hex() for x in floats]
        assert q["odd"] == q["odd_numpy"] == ["inf", "-inf", "nan"]
        assert q["odd_complex"] == {"re": "inf", "im": "nan"}
        assert '"floats": [\n      0.6666666666666666,' in text

    def test_jsonable_exact_leaves(self):
        got = to_jsonable({"b": np.bool_(True), "i": np.int64(-7),
                           "q": Fraction(-3, 4), "t": (1, (2, 3))})
        assert got == {"b": True, "i": -7, "q": "-3/4", "t": [1, [2, 3]]}
        assert type(got["b"]) is bool and type(got["i"]) is int

    def test_empty_report_is_valid_json(self):
        text = dumps_report(VerificationReport(lemma="empty"))
        back = json.loads(text)
        assert back["assertions"] == [] and back["pass"] is True

    @staticmethod
    def _json_dumps(obj):
        return json.dumps(_reference_jsonable(obj), indent=2, ensure_ascii=False,
                          allow_nan=False, default=str) + "\n"

    def test_matches_json_dumps_on_the_seed_42_suites(self, seed_42_suites):
        _, out, _ = seed_42_suites
        assert dumps_report(out) == self._json_dumps(out)

    @pytest.mark.parametrize("obj", [
        {}, [], {"a": {}, "b": [], "c": [[], [{}]], "d": [[1, [2, []]], {"e": {"f": None}}]},
        {"é": "ünïcödé ∑ 𝔽_q", "quote\"back\\slash": "tab\tnew\nline\u0001"},
        [Fraction(-3, 4), Fraction(5), complex(1.5, -0.0), 1j, True, False, None],
        ["inf", "-inf", "nan", float("inf"), np.float64("nan")],
        [2**200, -(2**70), 0, np.int64(-7), np.bool_(False), -0.0, 1e-300, 1e22],
        {"set": frozenset({1}), "path": Path("/x"), "ndarray": np.arange(3)},
        VerificationReport(lemma="λ", inputs={"eps": Fraction(1, 8)}),
        [np.array(3), np.array(0.5), np.array([[1, 2], [3, 4]])],
        [np.bool_(True), np.int8(-3), np.uint64(2**64 - 1), np.float16(0.1),
         np.float32(0.1), np.float64(2 / 3), np.complex64(1 - 2j), np.str_("s")],
        [enum.IntEnum("E", "A B")(2), {"k": enum.IntEnum("F", "X")(1)}],
        [VerificationReport(lemma="a", quantities={"q": Fraction(-1, 3)}),
         {"r": [VerificationReport(lemma="b")]}],
        {1: "one", (2, 3): "pair", 4.5: [], None: 0, Fraction(1, 2): "half"},
    ], ids=["empty-dict", "empty-list", "nested", "text", "exact", "non-finite",
            "numbers", "other", "report", "0-d-array", "numpy-scalars", "int-enum",
            "report-in-list", "non-str-keys"])
    def test_matches_json_dumps(self, obj):
        assert dumps_report(obj) == self._json_dumps(obj)

    def test_written_in_one_pass(self, monkeypatch, seed_42_suites):
        # dumps_report normalizes as it writes; to_jsonable is its parse
        from addlab import report

        _, out, _ = seed_42_suites
        text = dumps_report(out)
        monkeypatch.setattr(report, "to_jsonable", _refuse_to_jsonable)
        assert dumps_report(out) == text

    def test_non_finite_floats_become_strings(self, monkeypatch):
        # the writer itself, not a to_jsonable pass before it, turns
        # non-finite floats into strings: none reaches the text bare
        from addlab import report

        def no_constants(name):
            raise AssertionError(f"bare {name} in the text")

        monkeypatch.setattr(report, "to_jsonable", _refuse_to_jsonable)
        odd = [float("inf"), -float("inf"), float("nan"), np.float64("nan")]
        text = dumps_report({"x": [1.0, *odd], "z": [complex(x, -x) for x in odd]})
        back = json.loads(text, parse_constant=no_constants)
        assert back["x"] == [1.0, "inf", "-inf", "nan", "nan"]
        assert back["z"] == [{"re": "inf", "im": "-inf"}, {"re": "-inf", "im": "inf"},
                             {"re": "nan", "im": "nan"}, {"re": "nan", "im": "nan"}]

    def test_assertion_slack(self):
        a = Assertion(name="x", lhs=3, op="<=", rhs=5, passed=True)
        assert a.slack == 2
        # the room to the pass boundary, for every op and tolerance
        assert Assertion(name="x", lhs=5, op=">=", rhs=3, passed=True).slack == 2
        assert Assertion(name="x", lhs=3, op=">=", rhs=5, passed=False).slack == -2
        assert Assertion(name="x", lhs=4, op="==", rhs=4, passed=True).slack == 0
        assert Assertion(name="x", lhs=4, op="==", rhs=5, passed=False).slack == -1
        rep = VerificationReport(lemma="tol")
        rep.check("le", 10.5, "<=", 10.0, tol=0.1)  # bound 11.0
        rep.check("ge", 9.5, ">=", 10.0, tol=0.1)  # bound 9.0
        rep.check("eq", 10.5, "==", 10.0, tol=0.1)  # room 1.0
        assert [a.slack for a in rep.assertions] == [0.5, 0.5, 0.5]
        assert Assertion(name="x", lhs="a", op="==", rhs="a", passed=True).slack is None

    def test_slack_sign_is_the_verdict_on_the_seed_42_suites(self, seed_42_suites):
        _, out, _ = seed_42_suites

        def assertions(node):
            if isinstance(node, VerificationReport):
                yield from node.assertions
            elif isinstance(node, PipelineReport):
                for rep in node.sections.values():
                    yield from assertions(rep)
            elif isinstance(node, (dict, list)):
                for v in node.values() if isinstance(node, dict) else node:
                    yield from assertions(v)

        found = [a for a in assertions(out["suites"]) if a.slack is not None]
        assert len(found) > 500
        assert [a.name for a in found if (a.slack >= 0) != a.passed] == []

    def test_csv_writer(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["a", "b"], [[1, 0.5], [2, Fraction(1, 3)]])
        lines = path.read_text().splitlines()
        assert lines[0] == "a,b"
        assert lines[2] == "2,1/3"

    def test_csv_writer_numpy_floats(self, tmp_path):
        # every float cell in shortest round-trip form, as the JSON writer
        path = tmp_path / "t.csv"
        write_csv(path, ["x"], [[np.float64(0.5)], [np.float32(0.1)], [2 / 3], [1.0]])
        lines = path.read_text().splitlines()
        assert lines[1:] == ["0.5", repr(float(np.float32(0.1))), "0.6666666666666666",
                             "1.0"]


class TestSuiteRunner:
    def test_empty_suites_rejected(self):
        with pytest.raises(ConfigError, match="empty"):
            SuiteConfig(suites=()).validate()

    def test_unknown_suite_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            SuiteConfig(suites=("nope",)).validate()

    def test_negative_seed_rejected(self, capsys):
        with pytest.raises(ConfigError, match="seed must be >= 0"):
            SuiteConfig(suites=("energy",), seed=-1).validate()
        assert run_cli("verify", "--suite", "energy", "--seed", "-1") == 2
        assert "seed must be >= 0" in capsys.readouterr().err

    def test_run_suite_deterministic(self):
        cfg = SuiteConfig(suites=("energy",), seed=7, sizes=(32, 48))
        code1, out1, _ = run_suite(cfg)
        code2, out2, _ = run_suite(cfg)
        assert code1 == code2 == 0
        assert dumps_report(out1) == dumps_report(out2)

    def test_threads_bound_and_benchmark_hook(self, tmp_path, monkeypatch, capsys):
        # the suites run serially: threads accepts only 1, as a flag or a line
        cfgfile = tmp_path / "cfg.txt"
        cfgfile.write_text("suites=energy\nthreads=0\n")
        assert run_cli("verify", "--suite", "energy", "--threads", "2") == 2
        assert "threads '2'" in capsys.readouterr().err
        assert run_cli("verify", "--config", str(cfgfile)) == 2
        assert "threads '0'" in capsys.readouterr().err
        # a parse error names its key and its token, from a flag or a line
        cfgfile.write_text("suites=energy\nsizes=64,x\n")
        assert run_cli("verify", "--suite", "energy", "--sizes", "64,x") == 2
        assert "sizes '64,x'" in capsys.readouterr().err
        assert run_cli("verify", "--config", str(cfgfile)) == 2
        assert "sizes '64,x'" in capsys.readouterr().err
        # the benchmark captures the result by rebinding cli.run_suite
        captured = {}

        def capture(cfg, run_suite=cli.run_suite):
            code, out, first_fail = run_suite(cfg)
            captured["out"] = out
            return code, out, first_fail

        monkeypatch.setattr(cli, "run_suite", capture)
        assert run_cli("verify", "--suite", "energy", "--seed", "3", "--sizes", "16",
                       "--st", "2:2", "--out", str(tmp_path / "v"),
                       "--threads", "1") == 0
        assert captured["out"]["config"]["threads"] == 1
        assert list(captured["out"]["suites"]) == ["energy"]


class TestCommands:
    def test_construct_and_count(self, tmp_path):
        setfile = tmp_path / "a.set"
        assert run_cli("construct", "erdos_turan_sidon", "--params", "p=5",
                       "--out", str(setfile)) == 0
        report = tmp_path / "count.json"
        assert run_cli("count", "--eq", "1,1,-2", "--input", str(setfile),
                       "--method", "both", "--report", str(report)) == 0
        data = json.loads(report.read_text())
        assert data["pass"] is True
        assert data["quantities"]["total_brute"] == data["quantities"]["total_fourier"]
        assert data["inputs"]["|A|"] == 5
        assert not [key for key in data["quantities"] if key.startswith("trivial")]
        (agree,) = [a for a in data["assertions"] if a["name"] == "methods_agree"]
        assert agree["exact"] is True and agree["op"] == "=="

    def test_spectrum_command(self, tmp_path):
        setfile = tmp_path / "a.set"
        run_cli("construct", "erdos_turan_sidon", "--params", "p=5",
                "--out", str(setfile))
        out = tmp_path / "spec.json"
        assert run_cli("spectrum", "--input", str(setfile), "--eps", "1/4",
                       "--out", str(out)) == 0
        data = json.loads(out.read_text())
        assert data["eps"] == "1/4"
        assert len(data["frequencies"]) == len(data["magnitudes"])

    def test_dense_model_command(self, tmp_path):
        setfile = tmp_path / "a.set"
        run_cli("construct", "greedy_kst_free", "--params", "s=2,t=2,N=50",
                "--seed", "3", "--out", str(setfile))
        rep = tmp_path / "dm.json"
        f_out = tmp_path / "f.dfn"
        assert run_cli("dense-model", "--input", str(setfile), "--s", "2",
                       "--t", "2", "--eps", "1/8",
                       "--report", str(rep), "--emit-f", str(f_out)) == 0
        assert json.loads(rep.read_text())["pass"] is True
        from addlab.functions import load_dfn

        f = load_dfn(f_out)
        assert f.values.min() >= 0

    def test_pipeline_command(self, tmp_path):
        setfile = tmp_path / "a.set"
        run_cli("construct", "erdos_turan_sidon", "--params", "p=7",
                "--out", str(setfile))
        rep = tmp_path / "pipe.json"
        assert run_cli("pipeline", "--input", str(setfile), "--eq", "1,1,1,-1,-2",
                       "--s", "2", "--t", "2", "--eps", "1/8",
                       "--report", str(rep)) == 0
        data = json.loads(rep.read_text())
        assert data["pass"] is True

    def test_planted_violation_exits_1_with_witness(self, tmp_path, capsys):
        # a non-free set fed to the freeness-preconditioned pipeline
        setfile = tmp_path / "bad.set"
        setfile.write_text("ctx=cyclic;M=40\n# model_n=10\n0\n1\n2\n3\n")
        rep = tmp_path / "bad.json"
        code = run_cli("pipeline", "--input", str(setfile), "--eq", "1,1,1,-1,-2",
                       "--s", "2", "--t", "2", "--eps", "1/4",
                       "--report", str(rep))
        assert code == 1
        data = json.loads(rep.read_text())
        assert "witness" in data and "b" in data["witness"]

    def test_verify_exit_codes(self, tmp_path):
        assert run_cli("verify", "--suite", "", "--sizes", "32") == 2
        assert run_cli("verify", "--suite", "bogus") == 2
        assert run_cli("verify", "--suite", "counting", "--seed", "3",
                       "--sizes", "32", "--st", "2:2",
                       "--out", str(tmp_path / "v")) == 0
        assert (tmp_path / "v" / "report.json").exists()
        assert (tmp_path / "v" / "ratios.csv").exists()

    def test_config_file(self, tmp_path):
        cfgfile = tmp_path / "cfg.txt"
        cfgfile.write_text("suites=energy\nseed=11\nsizes=32\nst=2:2\n")
        assert run_cli("verify", "--config", str(cfgfile)) == 0
        bad = tmp_path / "bad.txt"
        bad.write_text("nonsense=1\n")
        assert run_cli("verify", "--config", str(bad)) == 2

    @pytest.mark.parametrize("value, flags, code, ledger", [
        ("0", [], 0, False),
        ("1", [], 0, True),
        ("yes", [], 2, False),
        ("yes", ["--plot-data"], 0, True),  # a flag overrides the file
    ])
    def test_config_plot_data(self, tmp_path, value, flags, code, ledger):
        cfgfile = tmp_path / "cfg.txt"
        cfgfile.write_text(f"suites=pipeline\nseed=4\nsizes=32\nst=2:2\n"
                           f"plot_data={value}\n")
        out = tmp_path / "v"
        assert run_cli("verify", "--config", str(cfgfile), "--out", str(out),
                       *flags) == code
        assert (out / "pipeline_ledger.csv").exists() == ledger

    def test_plot_data_monotone_sizes(self, tmp_path):
        out = tmp_path / "v"
        assert run_cli("verify", "--suite", "pipeline", "--seed", "4",
                       "--sizes", "48,32,64", "--st", "2:2",
                       "--out", str(out), "--plot-data") == 0
        lines = (out / "pipeline_ledger.csv").read_text().splitlines()
        ns = [int(row.split(",")[0]) for row in lines[1:]]
        assert ns == sorted(ns) and len(ns) == 3


def test_cli_entrypoint_subprocess(tmp_path):
    res = subprocess.run(
        [sys.executable, "-m", "addlab.cli", "verify", "--suite", "spectral",
         "--seed", "2", "--sizes", "32"],
        capture_output=True, text=True,
    )
    assert res.returncode == 0, res.stderr
    assert "spectral" in res.stdout


def test_report_diff_tool(tmp_path):
    # tools/report_diff.py ignores the run keys and names every path whose
    # value or type moved, an int against an equal float included
    tool = Path(__file__).resolve().parents[1] / "tools" / "report_diff.py"
    old = {"generated_at": "t0", "elapsed_seconds": 1.5,
           "suites": {"s": [{"v": 1, "w": [1.5, 2], "x": "a"}]}}
    new = {"generated_at": "t1", "elapsed_seconds": 2.5,
           "suites": {"s": [{"v": 1.0, "w": [1.5, 3, 4], "y": None}]}}
    paths = []
    for name, report in (("old", old), ("new", new)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(report))

    def run(a, b):
        return subprocess.run([sys.executable, str(tool), str(a), str(b)],
                              capture_output=True, text=True)

    same = run(paths[0], paths[0])
    assert same.returncode == 0 and same.stdout == ""
    moved = run(*paths)
    assert moved.returncode == 1
    assert moved.stdout.splitlines() == [
        "$.suites.s[0].v: int 1 -> float 1.0",
        "$.suites.s[0].w[1]: 2 -> 3",
        "$.suites.s[0].w: length 2 -> 3",
        "$.suites.s[0].x: only in OLD",
        "$.suites.s[0].y: only in NEW",
    ]


def test_package_runs_as_module():
    # the source tree alone, as in a checkout that was never installed
    src = Path(addlab.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    res = subprocess.run([sys.executable, "-m", "addlab", "--help"],
                         capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr
    assert "verify" in res.stdout


def test_bad_st_flag_is_config_error(capsys):
    assert run_cli("verify", "--suite", "energy", "--st", "banana",
                   "--sizes", "32") == 2
    assert run_cli("verify", "--suite", "energy", "--st", "2:2,2",
                   "--sizes", "32") == 2
    assert "bad (s, t) pair '2'" in capsys.readouterr().err


def test_bad_eq_flag_is_config_error_before_any_suite(monkeypatch, capsys):
    ran = []
    monkeypatch.setattr(cli, "_SUITES", {name: (lambda cfg, name=name: ran.append(name))
                                         for name in cli.SUITE_NAMES})
    assert run_cli("verify", "--suite", "all", "--eq", "1,2,3") == 2
    assert ran == []
    assert "1, 2, 3" in capsys.readouterr().err
    # the suites run one equation, so a second one is refused, not ignored
    assert run_cli("verify", "--suite", "all", "--eq", "1,1,1,-1,-2;1,1,-2") == 2
    assert ran == []
    assert "eq '1,1,1,-1,-2;1,1,-2': invalid literal for int()" in capsys.readouterr().err


@pytest.mark.parametrize("eq", ["1,1,-2", "1,-1,1,-1"])
def test_verify_all_runs_equations_in_fewer_than_five_variables(tmp_path, eq):
    # the pipeline skips the Hoelder chain with a flag below k = 5
    assert run_cli("verify", "--suite", "all", "--eq", eq, "--threads", "1",
                   "--out", str(tmp_path / "v")) == 0
    report = json.loads((tmp_path / "v" / "report.json").read_text())
    flags = [f for case in report["suites"]["pipeline"] for f in case["report"]["flags"]]
    assert f"holder chain skipped: it needs k >= 5, here k = {eq.count(',') + 1}" in flags


@pytest.mark.parametrize("command, name, token", [
    ("count --eq 1,1,x --input {set}", "--eq", "1,1,x"),
    ("count --eq 1,1,1 --input {set}", "--eq", "1,1,1"),  # sums to 3, not 0
    ("pipeline --input {set} --eq 1,1,1,-1,-2 --s 2 --t 2 --eps x", "--eps", "x"),
    ("spectrum --input {set} --eps 1/x --out {out}", "--eps", "1/x"),
    ("spectrum --input {set} --eps 1/0 --out {out}", "--eps", "1/0"),
    ("dense-model --input {set} --s 2 --t 2 --eps x --report {out}", "--eps", "x"),
    ("construct erdos_turan_sidon --params p=x --out {out}", "--params p", "x"),
], ids=["count-eq", "count-eq-sum", "pipeline-eps", "spectrum-eps", "spectrum-eps-zero",
        "dense-model-eps", "construct-params"])
def test_usage_errors_exit_2(tmp_path, capsys, command, name, token):
    setfile = tmp_path / "a.set"
    assert run_cli("construct", "erdos_turan_sidon", "--params", "p=5",
                   "--out", str(setfile)) == 0
    capsys.readouterr()
    out = tmp_path / "out.json"
    argv = shlex.split(command.format(set=setfile, out=out))
    assert run_cli(*argv) == 2
    assert f"config error: {name} {token!r}" in capsys.readouterr().err
    assert not out.exists()


def _readme_commands():
    """The README's "Command line" block, one argv per command."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [ln for ln in block.replace("\\\n", " ").splitlines()
             if ln.strip() and not ln.lstrip().startswith("#")]
    return [shlex.split(ln) for ln in lines]


def test_readme_commands_run(tmp_path, monkeypatch):
    commands = _readme_commands()
    # besides addlab commands, the block only writes config files with printf
    assert all(argv[0] in ("addlab", "printf") for argv in commands)
    assert sum(argv[0] == "addlab" for argv in commands) >= 6
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        if argv[0] == "printf":  # printf FORMAT > FILE
            assert argv[2] == ">" and len(argv) == 4, argv
            Path(argv[3]).write_text(argv[1].replace("\\n", "\n"))
        else:
            assert run_cli(*argv[1:]) == 0, argv


def test_construct_bad_params(tmp_path, capsys):
    out = str(tmp_path / "a.set")
    assert run_cli("construct", "erdos_turan_sidon", "--params", "p=11,M=459",
                   "--out", out) == 0
    assert run_cli("construct", "erdos_turan_sidon", "--params", "p=11,M=300",
                   "--out", out) == 2
    assert "M >= 443" in capsys.readouterr().err
    assert run_cli("construct", "greedy_kst_free", "--params", "s=2,t=2",
                   "--out", out) == 2
    assert "'N'" in capsys.readouterr().err
    assert run_cli("construct", "greedy_kst_free", "--params", "N",
                   "--out", out) == 2
    assert "token 'N' is not key=value" in capsys.readouterr().err
    for kind, params, message in [
        ("equation_free_greedy", "eq=1,1,x,N=10",
         "--params eq '1,1,x': invalid literal for int()"),
        ("equation_free_greedy", "eq=1,1,1,N=10",
         "--params eq '1,1,1': coefficients must sum to 0 over Z"),
        ("subspace", "ctx=vector;p=3;r=1;n=2,basis=1 x",
         "--params basis '1 x': invalid literal for int()"),
        ("subspace", "ctx=vector;p=3;n=2", "--params ctx 'vector;p=3;n=2': "),
        ("subspace", "ctx=vector;p=3;r=2;n=1;mod=1,2,1", "not irreducible"),
        ("random_subset", "N=10,density=2",
         "--params 'N=10,density=2': density 2.0 must lie in [0, 1]"),
        ("random_subset", "N=10,density=-0.5", "density -0.5 must lie in [0, 1]"),
        ("random_subset", "N=10,density=x", "--params density 'x': could not convert"),
    ]:
        assert run_cli("construct", kind, "--params", params, "--out", out) == 2, params
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and message in err, err
    assert run_cli("construct", "random_subset", "--params", "N=10,density=1",
                   "--out", out) == 0
    assert "|A| = 10" in capsys.readouterr().out


def test_construct_negative_seed_is_config_error(tmp_path, capsys):
    out = tmp_path / "a.set"
    assert run_cli("construct", "greedy_kst_free", "--params", "s=2,t=2,N=50",
                   "--seed", "-1", "--out", str(out)) == 2
    assert "seed must be >= 0" in capsys.readouterr().err
    assert not out.exists()


def test_construct_subspace_with_ctx_params(tmp_path):
    out = tmp_path / "sub.set"
    assert run_cli("construct", "subspace", "--params",
                   "ctx=vector;p=3;r=1;n=3,basis=1 0 0|0 1 0",
                   "--out", str(out)) == 0
    from addlab.sets import load_set

    A = load_set(out)
    assert len(A) == 9
    # modulus digit lists survive the comma-separated params format
    out9 = tmp_path / "sub9.set"
    assert run_cli("construct", "subspace", "--params",
                   "ctx=vector;p=3;r=2;n=2;mod=1,0,1,basis=1,0 0,1",
                   "--out", str(out9)) == 0
    assert len(load_set(out9)) == 9


def _equation_free_reports(out):
    counting = {e["label"]: e["report"] for e in out["suites"]["counting"]}
    return counting["equation_free_counts"], counting["diagonal_count_value"]


@pytest.mark.parametrize("equation, subsum", [
    (None, [1, -1]), ((1, -1, 1, -1), [1, -1]), ((1, 1, 1, 1, -4), None)])
def test_vacuous_equation_free_checks_are_flagged(seed_42_suites, equation, subsum):
    # a vanishing coefficient subsum leaves the greedy set one point, so its
    # diagonal checks cannot fail; the counting suite says so
    if equation is None:
        out = seed_42_suites[1]
    else:
        out = run_suite(SuiteConfig(suites=("counting",), seed=42, equation=equation))[1]
    free, diagonal = _equation_free_reports(out)
    assert free.passed and diagonal.passed
    vacuous = [f for f in free.flags if f.startswith("vacuous")]
    if subsum is None:
        assert vacuous == [] and diagonal.quantities["solutions"] > 1
    else:
        assert diagonal.quantities["solutions"] == 1
        (flag,) = vacuous
        assert f"the coefficients {subsum} sum to 0" in flag
        assert "diagonal_only and diagonal_count_value hold trivially" in flag


@pytest.mark.parametrize("equation, cyclic", [
    ((1, 1, 1, -1, -2), (600, 24)), ((1, 1, 1, 1, -4), (322, 48))])
def test_enumerated_counts_report(equation, cyclic):
    # {0, ..., 5} in the padded Z_M of the suite equation, and six points of
    # F_3^2 under 1,1,1,1,-4, against all 6^5 tuples
    rep = cli._enumerated_counts_report(cli.EquationSpec(equation))
    assert rep.passed and rep.flags == []
    got = {a.name: a.lhs for a in rep.assertions}
    assert got == {"solutions_cyclic": cyclic[0], "all_distinct_cyclic": cyclic[1],
                   "solutions_f3_2": 864, "all_distinct_f3_2": 72}
    assert all(a.exact and a.lhs == a.rhs for a in rep.assertions)


def test_enumerated_counts_flag_a_vacuous_distinct_check():
    # x + 9y = 10z has only x = y = z in {0, ..., 5}
    rep = cli._enumerated_counts_report(cli.EquationSpec([1, 9, -10]))
    assert rep.passed
    assert {a.name: a.lhs for a in rep.assertions}["all_distinct_cyclic"] == 0
    (flag,) = rep.flags
    assert flag.startswith("vacuous: the cyclic set") and "all_distinct_cyclic" in flag


def test_all_distinct_fault_fails_the_enumerated_report(monkeypatch):
    # no other seed-42 report reads the all-distinct count
    solution_counts = cli.counting._solution_counts

    def one_too_many(eq, A):
        total, distinct = solution_counts(eq, A)
        return total, distinct + 1

    monkeypatch.setattr(cli.counting, "_solution_counts", one_too_many)
    code, out, first_fail = run_suite(SuiteConfig(suites=cli.SUITE_NAMES, seed=42))
    assert code == 1 and first_fail == ("counting", "enumerated_solution_counts")
    failing = [e["report"] for entries in out["suites"].values() for e in entries
               if not e["report"].passed]
    assert [rep.lemma for rep in failing] == ["enumerated_solution_counts"]
    assert [a.name for a in failing[0].failing()] == [
        "all_distinct_cyclic", "all_distinct_f3_2"]
