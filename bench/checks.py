"""Output checks for one benchmark invocation.

Every function here reads the program's outputs (or the numbers the
cross-check child measured) and returns a list of failure messages; an empty
list means the check passed.  They use the standard library only, so the
benchmark's parent process stays small and the tests can feed them doctored
outputs.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

TSIRELSON_CAP = 0.2071068
EBERHARD_FLOOR = 2.0 / 3.0
ETA_CRIT_MES = 2.0 / (1.0 + math.sqrt(2.0))
I_TOL = 1e-12
ETA_TOL = 1e-10

# Acceptance windows (README criteria 1, 2, 8 and 9).
RIM_MES_P1 = (0.28, 0.01)
ROM_MES_P1 = (0.41, 0.01)
RIM_MES_ETA5 = (0.89, 0.91)
RIM_MES_MIN_ETA = (ETA_CRIT_MES - 1e-6, 0.835)

TABLE_FILES = {
    "csv": ("histogram.csv", "curve.csv"),
    "json": ("histogram.json", "curve.json"),
    "both": ("histogram.csv", "curve.csv", "histogram.json", "curve.json"),
}


def result_dirs(out_dir: Path) -> list[Path]:
    """Directories holding one experiment's outputs (each has summary.json)."""
    return sorted(p.parent for p in Path(out_dir).rglob("summary.json"))


def read_curve(path: Path) -> tuple[list[float], list[float]]:
    """(eta, p_viol) columns of a curve.csv, skipping the config comment."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = [row for row in csv.reader(fh) if row and not row[0].startswith("#")]
    header, body = rows[0], rows[1:]
    eta_col, p_col = header.index("eta"), header.index("p_viol")
    return [float(r[eta_col]) for r in body], [float(r[p_col]) for r in body]


def check_curve(etas: list[float], p_viol: list[float]) -> list[str]:
    """The violation curve is non-empty, within [0, 1] and non-decreasing."""
    if not p_viol:
        return ["curve is empty"]
    failures = []
    if any(not 0.0 <= p <= 1.0 for p in p_viol):
        failures.append("curve value outside [0, 1]")
    drops = [etas[k + 1] for k in range(len(p_viol) - 1) if p_viol[k + 1] < p_viol[k]]
    if drops:
        failures.append(f"curve not monotone: first drop at eta = {drops[0]}")
    return failures


def check_summary(summary: dict, expected: dict) -> list[str]:
    """Config echo, Tsirelson cap on the reported I and the Eberhard floor."""
    failures = []
    config = summary.get("config", {})
    for key, value in expected.items():
        if config.get(key) != value:
            failures.append(f"config {key} = {config.get(key)!r}, expected {value!r}")
    if summary.get("total_trials") != expected.get("trials"):
        failures.append(f"total_trials = {summary.get('total_trials')!r}")
    stats = summary.get("i_max_given_violation")
    if stats is not None:
        top = max(stats["mean"], stats["median"])
        if not top <= TSIRELSON_CAP:
            failures.append(f"reported I = {top} above the Tsirelson cap {TSIRELSON_CAP}")
    min_eta = summary.get("min_eta_req")
    if min_eta is not None and not min_eta >= EBERHARD_FLOOR:
        failures.append(f"min eta_req = {min_eta} below the floor 2/3")
    return failures


def _window(name: str, value, center: float, half: float) -> list[str]:
    if value is None or not abs(value - center) <= half:
        return [f"{name} = {value} outside {center} +- {half}"]
    return []


def check_rim_mes(summary: dict, etas: list[float], p_viol: list[float]) -> list[str]:
    """Criteria 1, 8 and 9 on the maximally entangled RIM run."""
    failures = _window("criterion 1: P_viol(1)", summary["p_viol"].get("1"), *RIM_MES_P1)
    eta5 = next((e for e, p in zip(etas, p_viol) if p >= 0.05), None)
    lo, hi = RIM_MES_ETA5
    if eta5 is None or not lo <= eta5 <= hi:
        failures.append(f"criterion 8: eta at P_viol >= 5% = {eta5} outside [{lo}, {hi}]")
    min_eta = summary.get("min_eta_req")
    lo, hi = RIM_MES_MIN_ETA
    if min_eta is None or not lo <= min_eta <= hi:
        failures.append(f"criterion 9: min eta_req = {min_eta} outside [{lo:.6f}, {hi}]")
    return failures


def check_rom_mes(summary: dict) -> list[str]:
    """Criterion 2 on the maximally entangled ROM entry of the sweep."""
    return _window("criterion 2: P_viol(1)", summary["p_viol"].get("1"), *ROM_MES_P1)


def check_outputs(workload, trials: int, out_dir: Path, returncode: int) -> list[str]:
    """Every check on one invocation's outputs; `trials` is per config."""
    if returncode != 0:
        return [f"exit code {returncode}"]
    dirs = result_dirs(out_dir)
    expected = workload.expected_configs(trials)
    if len(dirs) != len(expected):
        return [f"{len(dirs)} result directories, expected {len(expected)}"]
    failures = []
    if workload.command == "sweep" and not (Path(out_dir) / "combined_curves.csv").is_file():
        failures.append("combined_curves.csv missing")
    summaries = [json.loads((d / "summary.json").read_text(encoding="utf-8")) for d in dirs]
    by_ratio = {s["config"]["alpha_ratio"]: (d, s) for d, s in zip(dirs, summaries)}
    for want in expected:
        if want["alpha_ratio"] not in by_ratio:
            failures.append(f"no result for alpha_ratio {want['alpha_ratio']}")
            continue
        d, summary = by_ratio[want["alpha_ratio"]]
        tag = d.name if d != Path(out_dir) else "run"
        missing = [f for f in TABLE_FILES[workload.fmt] if not (d / f).is_file()]
        if missing:
            failures.append(f"{tag}: missing {', '.join(missing)}")
            continue
        failures += [f"{tag}: {m}" for m in check_summary(summary, want)]
        etas, p_viol = read_curve(d / "curve.csv")
        failures += [f"{tag}: {m}" for m in check_curve(etas, p_viol)]
        if workload.name == "rim-mes":
            failures += check_rim_mes(summary, etas, p_viol)
        if workload.name == "rom-sweep-par" and want["alpha_ratio"] == 1.0:
            failures += check_rom_mes(summary)
    return failures


def csv_bytes(out_dir: Path) -> dict[str, bytes]:
    """Every CSV an invocation wrote, keyed by path relative to its out dir."""
    return {str(p.relative_to(out_dir)): p.read_bytes()
            for p in sorted(Path(out_dir).rglob("*.csv"))}


def check_identical(reference: dict[str, bytes], other: dict[str, bytes]) -> list[str]:
    """CSVs of a repeated invocation at the same seed are byte-identical."""
    if reference.keys() != other.keys():
        return [f"CSV files differ: {sorted(reference)} vs {sorted(other)}"]
    return [f"{name} differs from the first invocation"
            for name in reference if reference[name] != other[name]]


def check_crosscheck(report: dict) -> list[str]:
    """Kernel vs exact operator route on a sample of each config's trials."""
    if not report["configs"]:
        return ["cross-check found no results"]
    failures = []
    for entry in report["configs"]:
        tag = f"cross-check ratio {entry['alpha_ratio']}"
        if entry["trials_checked"] < 1:
            failures.append(f"{tag}: no trials checked")
        if entry["violation_mismatches"]:
            failures.append(f"{tag}: {entry['violation_mismatches']} violation flags differ")
        if not entry["max_abs_di"] <= I_TOL:
            failures.append(f"{tag}: |dI| = {entry['max_abs_di']:.3e} > {I_TOL}")
        if not entry["max_abs_deta"] <= ETA_TOL:
            failures.append(f"{tag}: |d eta| = {entry['max_abs_deta']:.3e} > {ETA_TOL}")
        if not entry["max_i"] <= TSIRELSON_CAP:
            failures.append(f"{tag}: sampled max I = {entry['max_i']} above the cap")
        if entry["min_eta"] is not None and not entry["min_eta"] >= EBERHARD_FLOOR:
            failures.append(f"{tag}: sampled min eta_req = {entry['min_eta']} below 2/3")
    return failures
