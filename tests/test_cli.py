"""Command-line interface checks: file emission, determinism, exit codes."""

import contextlib
import hashlib
import json
import os
import re
import subprocess
import sys
import time

import numpy as np
import pytest

import randbell
import randbell.cli as cli
import randbell.montecarlo as mc
from randbell import NumericalConsistencyError, chsh
from randbell.cli import _exact_settings, _progress_printer, build_parser, main


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

    @pytest.mark.parametrize("command,ratio_flag", [("run", "--alpha-ratio"),
                                                    ("sweep", "--alpha-ratios")])
    def test_trials_past_2_to_the_64(self, tmp_path, monkeypatch, capsys, command,
                                     ratio_flag):
        def no_work(*args, **kwargs):
            raise AssertionError("the run started")

        monkeypatch.setattr(cli, "run_experiment", no_work)
        monkeypatch.setattr(cli, "sweep", no_work)
        out = tmp_path / "out"
        assert _run([command, "--scenario", "rim", ratio_flag, "0.5",
                     "--trials", str(2**64 + 1), "--out-dir", str(out)]) == 1
        assert "trials must be at most 2**64" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags,message", [
        (["--eta-grid", "0.6:1.0:1e-12"], "eta grid must have at most 100000 points"),
        (["--bins", "10000000000"], "histogram_bins must lie in [1, 100000]"),
    ])
    def test_too_many_points(self, monkeypatch, capsys, flags, message):
        def no_work(*args, **kwargs):
            raise AssertionError("the run started")

        monkeypatch.setattr(cli, "run_experiment", no_work)
        assert _run(BASE + flags) == 1
        err = capsys.readouterr().err
        assert message in err and "usage:" in err

    def test_unknown_scenario(self, capsys):
        assert _run(["run", "--scenario", "xyz"]) == 1

    def test_missing_scenario(self, capsys):
        assert _run(["run"]) == 1

    def test_bad_eta_grid(self, capsys):
        assert _run(BASE + ["--eta-grid", "0.6-1.0-0.1"]) == 1

    def test_crashed_worker_exits_2(self, tmp_path, monkeypatch, capsys):
        original = mc._evaluate_chunk

        def crashing(config, lo, hi, states=None):
            if lo > 0:
                os._exit(1)
            return original(config, lo, hi, states)

        monkeypatch.setattr(mc, "_evaluate_chunk", crashing)
        code = _run(["run", "--scenario", "rim", "--trials", str(2 * mc.CHUNK_TRIALS),
                     "--workers", "2", "--out-dir", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert re.search(rf"aborted after \d+ of {2 * mc.CHUNK_TRIALS} trials: A process "
                         "in the process pool was terminated abruptly", err), err

    def test_abort_message_starts_its_own_line(self, tmp_path, monkeypatch, capsys):
        original = mc._evaluate_chunk

        def failing(config, lo, hi, states=None):
            if lo > 0:
                raise NumericalConsistencyError("injected failure")
            time.sleep(0.5)  # long enough for a progress line
            return original(config, lo, hi, states)

        monkeypatch.setattr(mc, "_evaluate_chunk", failing)
        code = _run(["run", "--scenario", "rim", "--trials", str(2 * mc.CHUNK_TRIALS),
                     "--workers", "1", "--out-dir", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"\rtrials {mc.CHUNK_TRIALS}/{2 * mc.CHUNK_TRIALS}" in err, err
        assert re.search(rf"^aborted after {mc.CHUNK_TRIALS} of {2 * mc.CHUNK_TRIALS} "
                         "trials: injected failure", err, re.M), err

    @pytest.mark.parametrize("command", [
        ["run", "--alpha-ratio", "1.0"],
        ["sweep", "--alpha-ratios", "1.0,0.5"],
    ])
    def test_interrupt_exits_2_without_traceback(self, tmp_path, monkeypatch, capsys,
                                                 command):
        @contextlib.contextmanager
        def interrupting_printer():
            def report(done, total, elapsed):
                raise KeyboardInterrupt  # Ctrl-C after the first chunk

            yield report

        monkeypatch.setattr(cli, "_progress_printer", interrupting_printer)
        # a sweep's two states run in one chunk loop, so its counts double
        states = 2 if command[0] == "sweep" else 1
        trials = 2 * mc.CHUNK_TRIALS
        code = _run(command + ["--scenario", "rim", "--trials", str(trials),
                               "--workers", "1", "--out-dir", str(tmp_path)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == (f"aborted after {states * mc.CHUNK_TRIALS} of "
                                f"{states * trials} trials: interrupted\n")
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("case", [
        ["--scenario", "rim"],
        # the state where ROTM's two policies pick differently
        ["--scenario", "rotm", "--alpha-ratio", "0.5", "--visibility", "0.95",
         "--selection", "min-eta"]], ids=["rim", "rotm-min-eta"])
    def test_summary_manifest_stays_out_of_tables(self, tmp_path, capsys, case):
        # two runs that differ in the worker count and the wall time only;
        # two full chunks and a partial one, so two workers start a pool
        d1, d2 = tmp_path / "a", tmp_path / "b"
        for workers, out_dir in ((1, d1), (2, d2)):
            assert _run(["run", *case, "--trials", str(2 * mc.CHUNK_TRIALS + 5),
                         "--seed", "42", "--workers", str(workers),
                         "--out-dir", str(out_dir)]) == 0
        capsys.readouterr()
        for name in ("histogram.csv", "curve.csv", "histogram.json", "curve.json"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), name
        summaries = [json.loads((d / "summary.json").read_text()) for d in (d1, d2)]
        manifests = [summary["manifest"] for summary in summaries]
        assert set(manifests[0]) == {"randbell", "numpy", "python", "platform",
                                     "usable_cpus", "chunk_trials", "workers"}
        assert [m["workers"] for m in manifests] == [1, 2]
        assert manifests[0]["chunk_trials"] == mc.CHUNK_TRIALS
        assert manifests[0]["randbell"] == randbell.__version__
        # the summaries agree but for the wall time and the worker count
        for summary in summaries:
            del summary["wall_time_s"], summary["config"]["workers"], summary["manifest"]["workers"]
        assert summaries[0] == summaries[1]

    def test_each_sweep_config_shows_progress(self, capsys):
        # a sweep reports one count, out of trials times states, that only
        # grows; shown as if every chunk took 0.25 s
        chunks, chunk = 10, mc.CHUNK_TRIALS
        calls = []
        mc.sweep([mc.ScenarioConfig(scenario="rim", alpha_ratio=ratio, trials=chunks * chunk)
                  for ratio in (0.5, 1.0)],
                 progress=lambda done, total, _elapsed: calls.append((done, total)))
        assert calls == [(2 * k * chunk, 2 * chunks * chunk) for k in range(1, chunks + 1)]
        with _progress_printer() as report:
            for k, (done, total) in enumerate(calls, 1):
                report(done, total, 0.25 * k)
        lines = capsys.readouterr().err.split("\n")
        assert lines[1:] == [""]
        assert lines[0].count("\r") == 5  # at 0.5, 1, 1.5 and 2 s, then the final one
        assert lines[0].endswith(f"\rtrials {2 * chunks * chunk}/{2 * chunks * chunk} "
                                 f"({2 * chunks * chunk / 2.5:,.0f}/s)")

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
        # the sweep line is each entry's config line, with the ratios of all
        assert combined[0].startswith("# sweep: ")
        swept = json.loads(combined[0].removeprefix("# sweep: "))
        assert swept.pop("alpha_ratios") == [0.5, 1.0]
        for entry in ("rim_ratio_0.5", "rim_ratio_1.0"):
            line = (tmp_path / entry / "histogram.csv").read_text().splitlines()[0]
            config = json.loads(line.removeprefix("# config: "))
            del config["alpha_ratio"]
            assert config == swept
        summaries = json.loads(capsys.readouterr().out)
        assert len(summaries) == 2
        # the states share the master seed
        assert [summary["config"]["master_seed"] for summary in summaries] == [7, 7]

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

    def test_malformed_ratios(self, tmp_path, capsys):
        for ratios in ("0.5,,1.0", "abc", "0.5,-1", "0.5,0", "0.5,inf", "0.5,nan", "0.5,0.5",
                       "0.5,0.50"):
            out = tmp_path / "out"
            assert _run(["sweep", "--scenario", "rim", "--alpha-ratios", ratios,
                         "--trials", "1000", "--out-dir", str(out)]) == 1, ratios
            assert not out.exists(), ratios


class TestOutputDigests:
    """The result tables of fixed configs, pinned by SHA-256.  131079 trials
    make two full chunks and a partial one.  A change that alters these
    bytes changes results: it must say so, and only then update the
    digests."""

    @pytest.mark.parametrize("flags,histogram,curve", [
        (["--scenario", "rim"],
         "ce7036bfa89c76c5eace36d2e9fc84ba391bd61853cac46ffb882e917e5f2435",
         "c2511c3e4ec401b9aeb9867722052a16c059343b48e1ae7cdf9cb60a7f31dcb7"),
        (["--scenario", "rom", "--alpha-ratio", "0.5", "--selection", "min-eta"],
         "23ca73c093c83a5933b551d28c1ebbd8ec7ab09fd7cfb322f2567bc82a0018d0",
         "c831657477cd2b77fd249cabf69a575a94a6740970a03be1a4609e7b4cca9c4e"),
        (["--scenario", "rotm", "--alpha-ratio", "0.5", "--visibility", "0.95"],
         "472eef58ff0ec15c4cd7e18d6de4cf9c912ce321a8a10370758b0ef39d35b06c",
         "cd3ad77ff365dfbe6fbbeec26b93463e808e443508d99709578dc872f1a5c0be"),
        (["--scenario", "rotm", "--alpha-ratio", "0.5", "--visibility", "0.95",
          "--selection", "min-eta"],
         "00bdd69f82a95a098c22ae752fb93222aa57222fa12322a3bbbb0d6a2145489f",
         "3a561e13791d81d09fe7e05707c134aa2440443b6bb2e3aa927a23d249459aa9"),
    ])
    def test_tables_match_pinned_digests(self, tmp_path, flags, histogram, curve):
        assert _run(["run", *flags, "--format", "csv", "--trials", "131079",
                     "--seed", "7", "--workers", "1", "--out-dir", str(tmp_path)]) == 0
        for name, digest in (("histogram.csv", histogram), ("curve.csv", curve)):
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


class TestJsonAndSweepDigests:
    """The JSON tables and a sweep's combined_curves.csv, pinned by SHA-256
    as TestOutputDigests pins the CSV tables."""

    def test_json_tables_match_pinned_digests(self, tmp_path):
        assert _run(["run", "--scenario", "rom", "--alpha-ratio", "0.5",
                     "--selection", "min-eta", "--format", "json", "--trials", "131079",
                     "--seed", "7", "--workers", "1", "--out-dir", str(tmp_path)]) == 0
        assert not list(tmp_path.glob("*.csv"))
        for name, digest in (
                ("histogram.json",
                 "6099f57de61abd45290d5ed6616a3c50ffedd8f60e803eef730259cf4e834d44"),
                ("curve.json",
                 "a5abcb735a91233ddcf6a3055a07aeea37d1d6925cace11d80f284a5408a3386")):
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name

    def test_combined_curves_match_pinned_digest(self, tmp_path):
        assert _run(["sweep", "--scenario", "rim", "--alpha-ratios", "0.5,1.0",
                     "--bins", "37", "--eta-grid", "0.61:0.99:0.0007", "--trials", "131079",
                     "--seed", "7", "--workers", "1", "--out-dir", str(tmp_path)]) == 0
        digest = hashlib.sha256((tmp_path / "combined_curves.csv").read_bytes()).hexdigest()
        assert digest == "12527a3cc08b482ce63214770f7a4ab59a7aecd7b6475a498464be7a76eb8263"


class TestIOFailure:
    """main's OSError branch: exit code 3 and a one-line message."""

    def test_run_into_a_path_under_a_file(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert _run(BASE + ["--out-dir", str(blocker / "x")]) == 3
        err = capsys.readouterr().err
        assert "I/O failure: [Errno 20] Not a directory" in err
        assert "Traceback" not in err

    def test_sweep_over_a_file_named_as_an_entry(self, tmp_path, capsys):
        (tmp_path / "rim_ratio_0.5").write_text("")
        assert _run(["sweep", "--scenario", "rim", "--alpha-ratios", "0.5",
                     "--trials", "1000", "--seed", "1", "--workers", "1",
                     "--out-dir", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert "I/O failure: [Errno 17] File exists" in err
        assert "Traceback" not in err


class TestVerify:
    def test_verify_passes(self, capsys):
        # a negative seed is taken mod 2**64, as by run and sweep
        code = _run(["verify", "--settings", "2", "--workers", "1", "--seed", "-3"])
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
        checks = [f"{check} ({policy})" for policy in ("max-i", "min-eta")
                  for check in ("kernel vs exact route", "threshold sign flip")]
        for check in checks + ["table invariants"]:
            line = next(line for line in lines if line.startswith(check + ":"))
            assert line.endswith("PASS"), line
        assert "on 2000 random 3-setting tables" in line, line

    @pytest.mark.parametrize("scenario,row", [("rim", 4), ("rom", 5), ("rotm", 9)])
    def test_sampler_nz_chunks_equal_one_block(self, scenario, row):
        # verify's KS sample is mapped a chunk at a time; the map is
        # elementwise per trial, so the sample is the one-block row
        n = 2 * mc.CHUNK_TRIALS + 123
        rows = mc._SETTINGS_FROM_UNIFORMS[scenario](randbell.sampling.uniform_block(5, 0, n))
        config = mc.ScenarioConfig(scenario=scenario, trials=n, master_seed=5)
        np.testing.assert_array_equal(cli._sampler_nz(config), rows[row])

    def test_exact_settings_match_the_rom_kernel(self):
        # verify runs the RIM and ROTM kernels; ROM takes two triad axes
        config = mc.ScenarioConfig(scenario="rom", alpha_ratio=0.6, master_seed=13)
        forms = chsh.enumerate_forms(config.settings_per_party)
        for trial in range(40):
            a_dirs, b_dirs = _exact_settings(config, trial)
            assert len(a_dirs) == len(b_dirs) == config.settings_per_party
            record = chsh.max_violation(
                chsh.build_probability_table(config.state, a_dirs, b_dirs), forms)
            outcome = mc.run_trial(config, trial)
            assert abs(record.i_value - outcome.i_max) <= 1e-12
            if outcome.violated:
                assert abs(record.eta_req - outcome.eta_req) <= 1e-10


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
