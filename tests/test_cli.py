"""Command-line interface checks: file emission, determinism, exit codes."""

import functools
import json
import os
import re
import subprocess
import sys

import pytest

import randbell.montecarlo as mc
from randbell.cli import build_parser, main


def _run(args):
    return main(args)


BASE = ["run", "--scenario", "rim", "--alpha-ratio", "1.0",
        "--trials", "20000", "--seed", "42", "--workers", "1"]


class TestRun:
    def test_writes_outputs_and_summary(self, tmp_path, capsys):
        code = _run(BASE + ["--out-dir", str(tmp_path)])
        assert code == 0
        for name in ("histogram.csv", "curve.csv", "histogram.json",
                     "curve.json", "summary.json"):
            assert (tmp_path / name).exists()
        summary = json.loads(capsys.readouterr().out)
        assert summary["total_trials"] == 20000
        assert 0.25 < summary["p_viol"]["1"] < 0.32

    def test_csv_format_only(self, tmp_path):
        code = _run(BASE + ["--out-dir", str(tmp_path), "--format", "csv"])
        assert code == 0
        assert (tmp_path / "histogram.csv").exists()
        assert not (tmp_path / "histogram.json").exists()

    def test_byte_identical_reruns(self, tmp_path, capsys):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        assert _run(BASE + ["--out-dir", str(d1)]) == 0
        assert _run(BASE + ["--out-dir", str(d2)]) == 0
        capsys.readouterr()
        for name in ("histogram.csv", "curve.csv"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_summary_round_trips(self, tmp_path, capsys):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        assert _run(BASE + ["--out-dir", str(d1)]) == 0
        config = json.loads((d1 / "summary.json").read_text())["config"]
        start, stop, step = config["eta_grid"]
        args = ["run",
                "--scenario", config["scenario"],
                "--alpha-ratio", str(config["alpha_ratio"]),
                "--visibility", str(config["visibility"]),
                "--trials", str(config["trials"]),
                "--seed", str(config["master_seed"]),
                "--bins", str(config["histogram_bins"]),
                "--eta-grid", f"{start}:{stop}:{step}",
                "--selection", config["selection_policy"],
                "--workers", str(config["workers"]),
                "--out-dir", str(d2)]
        assert _run(args) == 0
        capsys.readouterr()
        for name in ("histogram.csv", "curve.csv"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_csv_structure(self, tmp_path, capsys):
        assert _run(BASE + ["--out-dir", str(tmp_path), "--bins", "10"]) == 0
        capsys.readouterr()
        lines = (tmp_path / "histogram.csv").read_text().splitlines()
        assert lines[0].startswith("# config: ")
        assert lines[1] == "bin_low,bin_high,count"
        assert len(lines) == 2 + 10
        config = json.loads(lines[0][len("# config: "):])
        assert config["master_seed"] == 42
        curve = (tmp_path / "curve.csv").read_text().splitlines()
        assert curve[1] == "eta,p_viol,ci_low,ci_high"
        assert len(curve) == 2 + 401

    def test_invalid_trials(self, capsys):
        assert _run(["run", "--scenario", "rim", "--trials", "0"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_scenario(self, capsys):
        assert _run(["run", "--scenario", "xyz"]) == 1

    def test_missing_scenario(self, capsys):
        assert _run(["run"]) == 1

    def test_bad_eta_grid(self, capsys):
        assert _run(BASE + ["--eta-grid", "0.6-1.0-0.1"]) == 1

    def test_crashed_worker_exits_2(self, tmp_path, monkeypatch, capsys):
        original = mc._evaluate_chunk

        # wraps keeps the name, so the pool pickles the patched function
        @functools.wraps(original)
        def crashing(config, lo, hi):
            if lo > 0:
                os._exit(1)
            return original(config, lo, hi)

        monkeypatch.setattr(mc, "_evaluate_chunk", crashing)
        code = _run(["run", "--scenario", "rim", "--trials", str(2 * mc.CHUNK_TRIALS),
                     "--workers", "2", "--out-dir", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert re.search(rf"aborted after \d+ of {2 * mc.CHUNK_TRIALS} trials: A process "
                         "in the process pool was terminated abruptly", err), err

    @pytest.mark.parametrize("command", [["run", "--scenario", "rim"],
                                         ["sweep", "--scenario", "rim"],
                                         ["verify"]])
    def test_workers_default_to_usable_cpus(self, monkeypatch, command):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert build_parser().parse_args(command).workers == 1


class TestSweep:
    def test_sweep_outputs(self, tmp_path, capsys):
        code = _run(["sweep", "--scenario", "rim", "--alpha-ratios", "0.5,1.0",
                     "--trials", "5000", "--seed", "7", "--workers", "1",
                     "--out-dir", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "rim_ratio_0.5" / "summary.json").exists()
        assert (tmp_path / "rim_ratio_1.0" / "summary.json").exists()
        combined = (tmp_path / "combined_curves.csv").read_text().splitlines()
        assert combined[1] == "alpha_ratio,eta,p_viol,ci_low,ci_high"
        assert len(combined) == 2 + 2 * 401
        summaries = json.loads(capsys.readouterr().out)
        assert len(summaries) == 2
        # ordinal seed offsets are recorded
        assert summaries[0]["config"]["master_seed"] == 7
        assert summaries[1]["config"]["master_seed"] == 8

    def test_single_ratio_matches_run(self, tmp_path, capsys):
        sweep_dir = tmp_path / "s"
        run_dir = tmp_path / "r"
        assert _run(["sweep", "--scenario", "rom", "--alpha-ratios", "1.0",
                     "--trials", "5000", "--seed", "3", "--workers", "1",
                     "--out-dir", str(sweep_dir)]) == 0
        assert _run(["run", "--scenario", "rom", "--alpha-ratio", "1.0",
                     "--trials", "5000", "--seed", "3", "--workers", "1",
                     "--out-dir", str(run_dir)]) == 0
        capsys.readouterr()
        a = (sweep_dir / "rom_ratio_1.0" / "curve.csv").read_bytes()
        assert a == (run_dir / "curve.csv").read_bytes()

    def test_malformed_ratios(self, capsys):
        assert _run(["sweep", "--scenario", "rim", "--alpha-ratios", "0.5,,1.0",
                     "--trials", "1000"]) == 1
        assert _run(["sweep", "--scenario", "rim", "--alpha-ratios", "abc",
                     "--trials", "1000"]) == 1


class TestVerify:
    def test_verify_passes(self, capsys):
        code = _run(["verify", "--settings", "2", "--workers", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "LHV bound (2 settings)" in out
        assert "FAIL" not in out
        assert out.count("PASS") >= 8

    def test_verify_three_settings(self, capsys):
        code = _run(["verify", "--settings", "3", "--workers", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "72 distinct forms" in out
        lines = out.splitlines()
        for check in ("kernel vs exact route", "threshold sign flip"):
            line = next(line for line in lines if line.startswith(check + ":"))
            assert line.endswith("PASS"), line


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        env = dict(os.environ)
        res = subprocess.run(
            [sys.executable, "-m", "randbell.cli", "run", "--scenario", "rim",
             "--trials", "2000", "--seed", "1", "--workers", "1",
             "--out-dir", str(tmp_path)],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert res.returncode == 0, res.stderr
        assert (tmp_path / "summary.json").exists()
        assert "trials 2000/2000" in res.stderr
