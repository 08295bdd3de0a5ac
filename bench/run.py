"""randbell benchmark: CLI workloads in fresh processes, checked and timed.

    python3 bench/run.py --workload rim-mes --seed 1 --seconds 35 --trace 0

Run from the root of a randbell checkout; the program is imported from its
src directory.  One run:

1. measures: invokes `randbell.cli.main` with the workload's arguments in
   a fresh process, one invocation after another (a closed loop with one
   client), until --seconds have passed and at least three have run; every
   invocation uses the same --seed and writes to a fresh directory;
2. before each untraced invocation, starts one more fresh interpreter that
   times set-up: `import randbell` plus building the form tables.  Spreading
   these starts over the run lets their median see the same machine as the
   invocations; one start before the loop only warms the file cache;
3. checks every invocation's outputs (checks.py), and cross-checks a
   sample of trials of each result against the exact operator route.

With --trace 0 it reports the end-to-end metrics; with --trace 1 every
second invocation records spans around the layer calls, and the run reports
the per-layer metrics, the tracing overhead among them.  The last line of
standard output is the result as JSON; the manifest, the samples and the
failures go to .bench_out/BENCH_<workload>_seed<seed>_trace<0|1>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import check_crosscheck, check_identical, check_outputs, csv_bytes, result_dirs
from layers import LAYER_METRICS, MB, span_metrics
from workloads import WORKLOADS, nproc

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_INVOCATIONS = 3
CROSSCHECK_SAMPLE = 64
# Whole-run limit; the loop stops starting invocations this long before it.
DEADLINE_S = 170.0
RESERVE_S = 45.0

E2E_METRICS = {
    "trials_per_s": ("1/s", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}


class RunAborted(RuntimeError):
    """A child overran the run's deadline or set-up failed: no result."""


def run_child(args: list[str], env: dict, deadline: float, stdout=subprocess.PIPE,
              stderr_path: Path | None = None) -> tuple[int, str]:
    """Run child.py in a fresh interpreter in its own process group; kill the
    group if it outlives the run's deadline."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RunAborted("run deadline passed")
    with open(stderr_path or os.devnull, "w", encoding="utf-8") as err:
        proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), *args],
                                cwd=ROOT, env=env, stdout=stdout, stderr=err,
                                text=True, start_new_session=True)
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise RunAborted(f"child {args[0]} killed at the run deadline") from None
    return proc.returncode, out or ""


def time_setup(env: dict, deadline: float) -> float:
    """Set-up time of one fresh interpreter: import randbell, build the tables."""
    code, out = run_child(["setup"], env, deadline)
    if code != 0:
        raise RunAborted("set-up start failed")
    return json.loads(out)["setup_s"]


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _violating_frac(out_dir: Path) -> float:
    summaries = [json.loads((d / "summary.json").read_text(encoding="utf-8"))
                 for d in result_dirs(out_dir)]
    return (sum(s["violating_trials"] for s in summaries)
            / sum(s["total_trials"] for s in summaries))


def invoke(workload, k: int, traced: bool, seed: int, trials: int, work: Path,
           env: dict, deadline: float, reference: dict | None) -> dict:
    """One checked invocation; returns its record.  An invocation whose
    outputs are well formed is `completed` and counts towards the metrics,
    even when a later check (identical CSVs, cross-check) fails it."""
    inv = work / f"inv-{k}"
    out_dir = inv / "out"
    inv.mkdir()
    opts = [str(inv / "report.json")] + (["--spans-dir", str(inv)] if traced else [])
    cli_args = workload.argv(seed, trials, str(out_dir))
    code, _ = run_child(["invoke", *opts, "--", *cli_args], env, deadline,
                        stdout=subprocess.DEVNULL, stderr_path=inv / "stderr.txt")
    record = {"index": k, "traced": traced, "returncode": code, "completed": False}
    failures = check_outputs(workload, trials, out_dir, code)
    if (inv / "report.json").is_file():
        record.update(json.loads((inv / "report.json").read_text(encoding="utf-8")))
    elif not failures:
        failures.append("no timing report")
    if not failures:
        record["completed"] = True
        record["output_bytes"] = _dir_bytes(out_dir)
        record["violating_frac"] = _violating_frac(out_dir)
        if traced:
            spans = json.loads((inv / "spans.json").read_text(encoding="utf-8"))
            record["layers"] = span_metrics(spans, workload.settings_per_party,
                                            workload.selection == "min-eta")
    if reference is not None:
        failures += check_identical(reference, csv_bytes(out_dir))
    if failures:
        record["stderr_tail"] = (inv / "stderr.txt").read_text(encoding="utf-8")[-2000:]
    record["failures"] = failures
    return record


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def e2e_metrics(records: list[dict], setup: list[float], trials_total: int) -> dict:
    """Median trials/s and set-up time.  The sweep's parent peaks at one of
    two levels, depending on the order in which worker results arrive; the
    lowest invocation peak is the level every run reaches."""
    ok = [r for r in records if r["completed"] and not r["traced"]]
    values = {
        "trials_per_s": statistics.median(trials_total / r["run_s"] for r in ok),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": min(r["peak_rss_kb"] for r in ok) * 1024 / MB,
    }
    return {name: _metric(values[name], unit) for name, (unit, _) in E2E_METRICS.items()}


def layer_metrics(records: list[dict]) -> dict:
    """Medians over the traced invocations; overhead against the untraced."""
    ok = [r for r in records if r["completed"]]
    traced = [r for r in ok if r["traced"]]
    plain = [r for r in ok if not r["traced"]]
    values = {name: statistics.median(r["layers"][name] for r in traced)
              for name in LAYER_METRICS if name in traced[0]["layers"]}
    values["montecarlo.violating_frac"] = statistics.median(r["violating_frac"] for r in traced)
    values["montecarlo.worker_peak_rss_mb"] = statistics.median(
        r["children_peak_rss_kb"] for r in traced) * 1024 / MB
    values["cli.output.bytes"] = statistics.median(r["output_bytes"] for r in traced)
    values["trace.overhead_ms"] = 1e3 * (statistics.median(r["run_s"] for r in traced)
                                         - statistics.median(r["run_s"] for r in plain))
    return {name: _metric(values[name], unit) for name, (unit, _) in LAYER_METRICS.items()}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--trials", type=int, default=None,
                        help="trials per config instead of the workload's (smoke tests)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    src = ROOT / "src"
    if not (src / "randbell" / "__init__.py").is_file():
        print(f"error: {src / 'randbell'} not found; run from a randbell checkout",
              file=sys.stderr)
        return 2
    trials = args.trials or workload.trials
    trials_total = trials * len(workload.ratios)
    tag = f"{workload.name}_seed{args.seed}_trace{args.trace}"
    work = ROOT / ".bench_out" / tag
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    deadline = time.monotonic() + DEADLINE_S
    load_before = os.getloadavg()

    try:
        time_setup(env, deadline)  # warms the file cache; not counted
        setup = []
        records = []
        reference = None
        started = time.monotonic()
        minimum = MIN_INVOCATIONS + args.trace
        while len(records) < minimum or (time.monotonic() - started < args.seconds
                                         and time.monotonic() < deadline - RESERVE_S):
            k = len(records)
            traced = bool(args.trace and k % 2)
            if not args.trace:
                setup.append(time_setup(env, deadline))
            records.append(invoke(workload, k, traced, args.seed, trials, work, env,
                                  deadline, reference))
            if k == 0:
                reference = csv_bytes(work / "inv-0" / "out")
        measured_s = time.monotonic() - started

        code, out = run_child(["crosscheck", str(work / "inv-0" / "out"),
                               str(CROSSCHECK_SAMPLE)], env, deadline,
                              stderr_path=work / "crosscheck.stderr.txt")
    except RunAborted as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    cross = json.loads(out) if code == 0 else {"manifest": {}, "configs": []}
    cross_failures = check_crosscheck(cross) if code == 0 else ["cross-check child failed"]
    for r in records:
        r["failures"] += cross_failures
    for k in range(len(records)):
        shutil.rmtree(work / f"inv-{k}" / "out", ignore_errors=True)

    failed = sum(1 for r in records if r["failures"])
    try:
        metrics = layer_metrics(records) if args.trace else e2e_metrics(records, setup,
                                                                        trials_total)
    except (statistics.StatisticsError, IndexError, KeyError) as exc:
        print(f"error: no metrics: no invocation completed ({exc!r})", file=sys.stderr)
        for r in records:
            for msg in r["failures"]:
                print(f"  invocation {r['index']}: {msg}", file=sys.stderr)
        return 1

    manifest = {**cross["manifest"], "nproc": nproc(),
                "workers": workload.workers(), "trials_per_config": trials,
                "load_before": load_before, "load_after": os.getloadavg()}
    doc = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
           "seconds": args.seconds, "measured_s": measured_s, "manifest": manifest,
           "setup_s_samples": setup, "crosscheck": cross["configs"],
           "invocations": records, "metrics": metrics}
    (ROOT / ".bench_out" / f"BENCH_{tag}.json").write_text(json.dumps(doc, indent=1),
                                                            encoding="utf-8")

    print(f"workload {workload.name}: {len(records)} invocations of "
          f"{trials_total} trials, seed {args.seed}, {failed} failed")
    print("manifest " + json.dumps(manifest, sort_keys=True))
    for r in records:
        for msg in r["failures"]:
            print(f"FAIL invocation {r['index']}: {msg}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    result = {"correct": failed == 0, "attempted": len(records), "failed": failed,
              "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
