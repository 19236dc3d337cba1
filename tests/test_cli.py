"""Report serialization, CLI commands, exit codes, determinism."""

import json
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
from addlab.report import (
    Assertion,
    VerificationReport,
    dumps_report,
    loads_report,
    write_csv,
)


def run_cli(*args):
    return main(list(args))


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
        back = loads_report(text)
        assert back["lemma"] == "demo"
        assert back["inputs"]["eps"] == "1/8"
        assert back["pass"] is True
        assert back["assertions"][0]["exact"] is True
        assert back["quantities"]["ratio"] == pytest.approx(
            0.12345678901234567, abs=0
        )

    def test_seventeen_digit_floats(self):
        rep = VerificationReport(lemma="digits", quantities={"x": 2 / 3})
        text = dumps_report(rep)
        assert "0.66666666666666663" in text

    def test_empty_report_is_valid_json(self):
        text = dumps_report(VerificationReport(lemma="empty"))
        back = loads_report(text)
        assert back["assertions"] == [] and back["pass"] is True

    def test_assertion_slack(self):
        a = Assertion(name="x", lhs=3, op="<=", rhs=5, passed=True)
        assert a.slack == 2

    def test_csv_writer(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["a", "b"], [[1, 0.5], [2, Fraction(1, 3)]])
        lines = path.read_text().splitlines()
        assert lines[0] == "a,b"
        assert lines[2] == "2,1/3"


class TestSuiteRunner:
    def test_empty_suites_rejected(self):
        with pytest.raises(ConfigError, match="empty"):
            SuiteConfig(suites=()).validate()

    def test_unknown_suite_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            SuiteConfig(suites=("nope",)).validate()

    def test_run_suite_deterministic(self):
        cfg = SuiteConfig(suites=("energy",), seed=7, sizes=(32, 48))
        code1, out1, _ = run_suite(cfg)
        code2, out2, _ = run_suite(cfg)
        assert code1 == code2 == 0
        assert dumps_report(out1) == dumps_report(out2)

    def test_threads_match_serial(self):
        cfg1 = SuiteConfig(suites=("energy", "counting"), seed=5, sizes=(32,),
                           st_pairs=((2, 2),))
        cfg2 = SuiteConfig(suites=("energy", "counting"), seed=5, sizes=(32,),
                           st_pairs=((2, 2),), threads=2)
        _, out1, _ = run_suite(cfg1)
        _, out2, _ = run_suite(cfg2)
        d1 = dumps_report(out1)
        d2 = dumps_report(out2).replace('"threads": 2', '"threads": 1')
        assert d1 == d2


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


def test_package_runs_as_module():
    # the source tree alone, as in a checkout that was never installed
    src = Path(addlab.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    res = subprocess.run([sys.executable, "-m", "addlab", "--help"],
                         capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr
    assert "verify" in res.stdout


def test_bad_st_flag_is_config_error():
    assert run_cli("verify", "--suite", "energy", "--st", "banana",
                   "--sizes", "32") == 2


def test_bad_eq_flag_is_config_error_before_any_suite(monkeypatch, capsys):
    ran = []
    monkeypatch.setattr(cli, "_SUITES", {name: (lambda cfg, name=name: ran.append(name))
                                         for name in cli.SUITE_NAMES})
    assert run_cli("verify", "--suite", "all", "--eq", "1,2,3") == 2
    assert ran == []
    assert "1, 2, 3" in capsys.readouterr().err


def _readme_commands():
    """The README's "Command line" block, one argv per command."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [ln for ln in block.replace("\\\n", " ").splitlines()
             if ln.strip() and not ln.lstrip().startswith("#")]
    return [shlex.split(ln) for ln in lines]


def test_readme_commands_run(tmp_path, monkeypatch):
    commands = _readme_commands()
    assert len(commands) >= 6 and all(argv[0] == "addlab" for argv in commands)
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert run_cli(*argv[1:]) == 0, argv


def test_construct_bad_params(tmp_path, capsys):
    out = str(tmp_path / "a.set")
    assert run_cli("construct", "erdos_turan_sidon", "--params", "p=11,M=459",
                   "--out", out) == 0
    assert run_cli("construct", "erdos_turan_sidon", "--params", "p=11,M=300",
                   "--out", out) == 1
    assert "M >= 443" in capsys.readouterr().err
    assert run_cli("construct", "greedy_kst_free", "--params", "s=2,t=2",
                   "--out", out) == 2
    assert "'N'" in capsys.readouterr().err


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
