"""The benchmark's own tests: smoke runs and doctored outputs.

    python3 -m pytest -q bench

The smoke runs use one 65,536-trial chunk per config; the doctored-output
tests start from real CLI outputs and change one thing each, which the
matching check must catch.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
from layers import LAYER_METRICS, span_metrics
from run import E2E_METRICS
from workloads import CHUNK, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SEEDS = (1, 2)  # development seed, held-out seed


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "bench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def test_spec_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["end_to_end"]} == E2E_METRICS
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} == LAYER_METRICS


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_prints_every_metric(workload, trace):
    proc = _bench("--workload", workload, "--seed", "1", "--seconds", "0",
                  "--trace", str(trace), "--trials", str(CHUNK))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    for name, m in result["metrics"].items():
        assert f"{name} = {m['value']:.6g} {m['unit']}" in lines


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "rim-mes", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


# ---------------------------------------------------------------------------
# Doctored outputs
# ---------------------------------------------------------------------------

def _cli(workload, seed: int, trials: int, out_dir: Path) -> None:
    args = workload.argv(seed, trials, str(out_dir))
    subprocess.run([sys.executable, "-c",
                    "import sys; from randbell.cli import main; sys.exit(main(sys.argv[1:]))",
                    *args], env=_env(), check=True, capture_output=True, timeout=120)


@pytest.fixture(scope="module", params=SEEDS)
def outputs(request, tmp_path_factory):
    """Real outputs of rim-mes and rom-sweep-par at 2 chunks per config."""
    base = tmp_path_factory.mktemp(f"seed{request.param}")
    trials = 2 * CHUNK
    for name in ("rim-mes", "rom-sweep-par"):
        _cli(WORKLOADS[name], request.param, trials, base / name)
    return base, trials


def _copy(outputs, name: str, dest: Path) -> Path:
    base, _ = outputs
    shutil.copytree(base / name, dest / name)
    return dest / name


def _check(outputs, name: str, out_dir: Path, returncode: int = 0) -> list[str]:
    return checks.check_outputs(WORKLOADS[name], outputs[1], out_dir, returncode)


def _edit_summary(out_dir: Path, edit) -> None:
    path = out_dir / "summary.json"
    summary = json.loads(path.read_text(encoding="utf-8"))
    edit(summary)
    path.write_text(json.dumps(summary), encoding="utf-8")


def _rom_mes_dir(out_dir: Path) -> Path:
    (found,) = [d for d in checks.result_dirs(out_dir) if d.name.endswith("_1.0")]
    return found


def _any(failures: list[str], text: str) -> bool:
    return any(text in f for f in failures)


@pytest.mark.parametrize("name", ["rim-mes", "rom-sweep-par"])
def test_real_outputs_pass(outputs, name):
    base, _ = outputs
    assert _check(outputs, name, base / name) == []


def test_nonzero_exit_fails(outputs):
    base, _ = outputs
    assert _any(_check(outputs, "rim-mes", base / "rim-mes", returncode=2), "exit code 2")


def test_missing_table_fails(outputs, tmp_path):
    out = _copy(outputs, "rom-sweep-par", tmp_path)
    (_rom_mes_dir(out) / "curve.json").unlink()
    assert _any(_check(outputs, "rom-sweep-par", out), "missing curve.json")


def test_config_echo_fails(outputs, tmp_path):
    out = _copy(outputs, "rim-mes", tmp_path)
    _edit_summary(out, lambda s: s["config"].update(visibility=0.9))
    assert _any(_check(outputs, "rim-mes", out), "config visibility")


def test_non_monotone_curve_fails(outputs, tmp_path):
    out = _copy(outputs, "rim-mes", tmp_path)
    path = out / "curve.csv"
    lines = path.read_text(encoding="utf-8").splitlines()
    eta, p, lo, hi = lines[-1].split(",")
    lines[-1] = ",".join([eta, "0.25", lo, hi])
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert _any(_check(outputs, "rim-mes", out), "not monotone")


def test_tsirelson_cap_fails(outputs, tmp_path):
    out = _copy(outputs, "rim-mes", tmp_path)
    _edit_summary(out, lambda s: s["i_max_given_violation"].update(mean=0.21))
    assert _any(_check(outputs, "rim-mes", out), "Tsirelson")


def test_eberhard_floor_fails(outputs, tmp_path):
    out = _copy(outputs, "rom-sweep-par", tmp_path)
    _edit_summary(_rom_mes_dir(out), lambda s: s.update(min_eta_req=0.66))
    assert _any(_check(outputs, "rom-sweep-par", out), "below the floor")


def test_criterion_1_window_fails(outputs, tmp_path):
    out = _copy(outputs, "rim-mes", tmp_path)
    _edit_summary(out, lambda s: s["p_viol"].update({"1": 0.2951}))
    assert _any(_check(outputs, "rim-mes", out), "criterion 1")


def test_criterion_8_window_fails(outputs, tmp_path):
    out = _copy(outputs, "rim-mes", tmp_path)
    path = out / "curve.csv"
    lines = path.read_text(encoding="utf-8").splitlines()
    body = [line.split(",") for line in lines[2:]]
    for row in body:  # push the 5% crossing past 0.91
        if float(row[0]) <= 0.912:
            row[1] = min(row[1], "0.04", key=float)
    path.write_text("\n".join(lines[:2] + [",".join(r) for r in body]) + "\n", encoding="utf-8")
    assert _any(_check(outputs, "rim-mes", out), "criterion 8")


def test_criterion_9_window_fails(outputs, tmp_path):
    out = _copy(outputs, "rim-mes", tmp_path)
    _edit_summary(out, lambda s: s.update(min_eta_req=0.84))
    assert _any(_check(outputs, "rim-mes", out), "criterion 9")


def test_criterion_2_window_fails(outputs, tmp_path):
    out = _copy(outputs, "rom-sweep-par", tmp_path)
    _edit_summary(_rom_mes_dir(out), lambda s: s["p_viol"].update({"1": 0.3999}))
    assert _any(_check(outputs, "rom-sweep-par", out), "criterion 2")


def test_flipped_csv_byte_fails(outputs, tmp_path):
    base, _ = outputs
    reference = checks.csv_bytes(base / "rom-sweep-par")
    assert checks.check_identical(reference, checks.csv_bytes(base / "rom-sweep-par")) == []
    out = _copy(outputs, "rom-sweep-par", tmp_path)
    path = out / "combined_curves.csv"
    data = bytearray(path.read_bytes())
    data[-3] ^= 0x01
    path.write_bytes(bytes(data))
    assert _any(checks.check_identical(reference, checks.csv_bytes(out)),
                "combined_curves.csv differs")


@pytest.fixture(scope="module")
def crosscheck_report(outputs):
    base, _ = outputs
    proc = subprocess.run([sys.executable, str(HERE / "child.py"), "crosscheck",
                           str(base / "rom-sweep-par"), "16"],
                          env=_env(), capture_output=True, text=True, check=True, timeout=120)
    return json.loads(proc.stdout)


def test_real_crosscheck_passes(crosscheck_report):
    assert len(crosscheck_report["configs"]) == 3
    assert sum(c["violating_checked"] for c in crosscheck_report["configs"]) > 0
    assert checks.check_crosscheck(crosscheck_report) == []
    assert crosscheck_report["manifest"]["chunk_trials"] == CHUNK


def test_empty_crosscheck_fails():
    assert _any(checks.check_crosscheck({"configs": []}), "no results")


@pytest.mark.parametrize("field, value, message", [
    ("max_abs_di", 2e-12, "|dI|"),
    ("max_abs_deta", 2e-10, "|d eta|"),
    ("violation_mismatches", 1, "violation flags differ"),
    ("max_i", 0.2072, "above the cap"),
    ("min_eta", 0.6, "below 2/3"),
    ("trials_checked", 0, "no trials checked"),
])
def test_doctored_crosscheck_fails(crosscheck_report, field, value, message):
    doctored = json.loads(json.dumps(crosscheck_report))
    doctored["configs"][0][field] = value
    assert _any(checks.check_crosscheck(doctored), message)


# ---------------------------------------------------------------------------
# Span arithmetic
# ---------------------------------------------------------------------------

def _span(sid, name, parent, start, end, pid=1, **attrs):
    return {"id": sid, "name": name, "parent": parent, "start": start, "end": end,
            "pid": pid, **attrs}


def test_span_metrics_self_times():
    spans = [
        _span("m", "cli.main", None, 0.0, 1.0),
        _span("r", "montecarlo.run_experiment", "m", 0.1, 0.9),
        _span("c", "montecarlo.collect", "r", 0.1, 0.7, workers=2),
        _span("k1", "montecarlo.chunk", "c", 0.1, 0.5, pid=2, trials=10, bytes=160),
        _span("f", "chsh.forms", "k1", 0.1, 0.2, pid=2, rows=8, forms=8),
        _span("u", "sampling.uniform_block", "k1", 0.2, 0.3, pid=2, bytes=640),
        _span("s", "sampling.settings", "k1", 0.3, 0.35, pid=2),
        _span("p", "quantum.probs", "k1", 0.35, 0.4, pid=2),
        _span("k2", "montecarlo.chunk", "c", 0.2, 0.4, pid=3, trials=10, bytes=160),
        _span("u2", "sampling.uniform_block", "k2", 0.2, 0.3, pid=3, bytes=640),
    ]
    m = span_metrics(spans, settings_per_party=2, min_eta=False)
    assert m["chsh.forms.setup_ms"] == pytest.approx(100.0)
    assert m["sampling.uniform_block.ms_per_chunk"] == pytest.approx(100.0)
    assert m["montecarlo.forms_winner.self_ms_per_chunk"] == pytest.approx(100.0)
    layer_sum = sum(m[k] for k in ("sampling.uniform_block.ms_per_chunk",
                                   "sampling.settings.ms_per_chunk",
                                   "quantum.probs.ms_per_chunk",
                                   "montecarlo.forms_winner.self_ms_per_chunk"))
    assert layer_sum == pytest.approx(m["chunk_mean_ms"])
    assert m["montecarlo.collect.busy_s"] == pytest.approx(0.6)
    assert m["montecarlo.pool.wait_s"] == pytest.approx(0.6 - 0.6 / 2)
    assert m["montecarlo.pool.bytes_returned"] == 320
    assert m["montecarlo.aggregate.ms"] == pytest.approx(200.0)
    assert m["cli.output.ms"] == pytest.approx(200.0)
    assert m["chsh.forms.flops_per_chunk"] == 2 * 10 * 8 * 8
