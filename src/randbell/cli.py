"""Command-line front end: run, sweep, and verify.

Data goes to files and standard output; progress goes to standard error.
Real numbers in CSV files carry 17 significant digits so outputs are
byte-identical across runs, platforms and worker counts.  Every output file
embeds the run configuration; summary.json alone adds what does not change
results: the worker count, the wall time and a manifest of the software
and machine.

Exit codes: 0 success, 1 invalid arguments, 2 numerical or verification
failure, or an aborted run, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

import numpy as np

from . import chsh, sampling
from .errors import NumericalConsistencyError
from .montecarlo import (
    ExperimentAborted,
    ExperimentResult,
    SCENARIOS,
    ScenarioConfig,
    _SETTINGS_FROM_UNIFORMS,
    _chunk_grid,
    _collect_chunks,
    _trial_rows,
    _usable_cpus,
    run_experiment,
    sweep,
)
from .quantum import NoisyState

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_IO = 3


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad flags; the contract here is 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _table_config(config: ScenarioConfig) -> dict:
    """The config a result table embeds: all of it but the worker count,
    which does not change results and is in summary.json."""
    doc = config.as_dict()
    del doc["workers"]
    return doc


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _csv_text(first_line: str, header: str, rows: list[str]) -> str:
    return "\n".join([first_line, header, *rows]) + "\n"


def _tables(result: ExperimentResult) -> dict:
    """name: (CSV header, CSV rows, JSON fields after the config, arrays left
    for the dump to list) of each of result's tables: histogram, then curve."""
    h, c = result.histogram, result.curve
    return {
        "histogram": (
            "bin_low,bin_high,count",
            [f"{_fmt(low)},{_fmt(high)},{int(count)}"
             for low, high, count in zip(h.bin_edges[:-1], h.bin_edges[1:], h.counts)],
            {"bin_edges": h.bin_edges, "counts": h.counts,
             "total_trials": h.total_trials, "violating_trials": h.violating_trials}),
        "curve": (
            "eta,p_viol,ci_low,ci_high",
            [",".join(map(_fmt, point))
             for point in zip(c.etas, c.p_viol, c.ci_low, c.ci_high)],
            {"eta": c.etas, "p_viol": c.p_viol, "ci_low": c.ci_low, "ci_high": c.ci_high}),
    }


def _emit_result(result: ExperimentResult, tables: dict, out_dir: str, fmt: str) -> None:
    """Write result's `_tables` in fmt into the existing out_dir, then its
    summary."""
    config = _table_config(result.config)
    if fmt in ("csv", "both"):
        line = "# config: " + json.dumps(config, sort_keys=True)
        for name, (header, rows, _) in tables.items():
            _write_text(os.path.join(out_dir, f"{name}.csv"), _csv_text(line, header, rows))
    if fmt in ("json", "both"):
        for name, (_, _, fields) in tables.items():
            _write_text(os.path.join(out_dir, f"{name}.json"),
                        json.dumps({"config": config, **fields}, indent=2,
                                   default=np.ndarray.tolist) + "\n")
    _write_text(os.path.join(out_dir, "summary.json"),
                json.dumps(result.summary, indent=2) + "\n")


@contextlib.contextmanager
def _progress_printer():
    """Progress on one rewritten stderr line; a line left unfinished (an
    aborted run) is ended on exit, so the next message starts its own line."""
    last = [0.0]
    line_open = [False]

    def report(done, total, elapsed):
        if elapsed - last[0] < 0.5 and done != total:
            return
        last[0] = elapsed
        line_open[0] = done != total
        rate = done / elapsed if elapsed > 0 else 0.0
        print(f"\rtrials {done}/{total} ({rate:,.0f}/s)",
              end="" if line_open[0] else "\n", file=sys.stderr, flush=True)

    try:
        yield report
    finally:
        if line_open[0]:
            print(file=sys.stderr)


def _parse_ratios(text: str) -> list[tuple[str, float]]:
    """(token, value) of each ratio in a comma-separated list, no value
    repeated; the config checks the values."""
    tokens = [tok.strip() for tok in text.split(",")]
    if not all(tokens):
        raise ValueError("empty ratio in list")
    values = [float(tok) for tok in tokens]
    if len(set(values)) < len(values):
        raise ValueError("repeated ratio in list")
    return list(zip(tokens, values))


def _parse_eta_grid(text: str) -> tuple[float, float, float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError("eta grid must be START:STOP:STEP")
    return float(parts[0]), float(parts[1]), float(parts[2])


def _config_from_args(args, alpha_ratio: float) -> ScenarioConfig:
    return ScenarioConfig(
        scenario=args.scenario,
        alpha_ratio=alpha_ratio,
        visibility=args.visibility,
        trials=args.trials,
        master_seed=args.seed,
        histogram_bins=args.bins,
        eta_grid=_parse_eta_grid(args.eta_grid),
        selection_policy=args.selection,
        workers=args.workers,
    )


def cmd_run(args) -> int:
    config = _config_from_args(args, args.alpha_ratio)
    # made before the run, so a bad --out-dir fails before any trial
    os.makedirs(args.out_dir, exist_ok=True)
    with _progress_printer() as progress:
        result = run_experiment(config, progress=progress)
    _emit_result(result, _tables(result), args.out_dir, args.format)
    print(json.dumps(result.summary, indent=2))
    return EXIT_OK


def cmd_sweep(args) -> int:
    ratios = _parse_ratios(args.alpha_ratios)
    configs = [_config_from_args(args, value) for _, value in ratios]
    subs = [os.path.join(args.out_dir, f"{args.scenario}_ratio_{token}")
            for token, _ in ratios]
    # made before the sweep, so a bad --out-dir fails before any trial
    for sub in subs:
        os.makedirs(sub, exist_ok=True)
    with _progress_printer() as progress:
        results = sweep(configs, progress=progress)

    # the entries' table config, with the list of ratios in place of one
    doc = _table_config(results[0].config)
    del doc["alpha_ratio"]
    doc["alpha_ratios"] = [v for _, v in ratios]
    combined = []
    summaries = []
    for sub, result in zip(subs, results):
        tables = _tables(result)
        _emit_result(result, tables, sub, args.format)
        summaries.append(result.summary)
        ratio = _fmt(result.config.alpha_ratio)
        combined.extend(f"{ratio},{row}" for row in tables["curve"][1])
    _write_text(os.path.join(args.out_dir, "combined_curves.csv"),
                _csv_text("# sweep: " + json.dumps(doc, sort_keys=True),
                          "alpha_ratio,eta,p_viol,ci_low,ci_high", combined))
    print(json.dumps(summaries, indent=2))
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify: oracle suites over the library
# ---------------------------------------------------------------------------

def _check(name: str, passed: bool, detail: str) -> bool:
    print(f"{name}: {detail} {'PASS' if passed else 'FAIL'}")
    return passed


def _ks_uniform_nz(nz: np.ndarray) -> float:
    """Kolmogorov-Smirnov distance of n_z samples from uniform on [-1, 1]."""
    xs = np.sort(nz)
    cdf = (xs + 1.0) / 2.0
    n = len(xs)
    ecdf_hi = np.arange(1, n + 1) / n
    ecdf_lo = np.arange(0, n) / n
    return float(max(np.abs(ecdf_hi - cdf).max(), np.abs(ecdf_lo - cdf).max()))


def _sampler_nz(config: ScenarioConfig) -> np.ndarray:
    """n_z of one of party A's settings in the kernel's coordinate rows, for
    each of config's trials: the second for ROM, the first for the rest.
    The map is elementwise per trial, so it runs a chunk at a time and keeps
    only that row."""
    s = config.settings_per_party
    row = s * s + (1 if config.scenario == "rom" else 0)
    nz = np.empty(config.trials)
    for lo, hi in _chunk_grid(config.trials):
        nz[lo:hi] = _SETTINGS_FROM_UNIFORMS[config.scenario](
            sampling.uniform_block(config.master_seed, lo, hi))[row]
    return nz


def _exact_settings(config: ScenarioConfig, trial: int):
    """A trial's directions for each party from the scalar samplers, on
    config's trial streams."""
    rng = sampling.RandomSource(config.master_seed, trial)
    if config.scenario == "rim":
        a_dirs = tuple(sampling.sample_direction(rng) for _ in range(2))
        b_dirs = tuple(sampling.sample_direction(rng) for _ in range(2))
        return a_dirs, b_dirs
    # ROM takes the first two axes of each party's triad, ROTM all three
    s = config.settings_per_party
    a = sampling.sample_orthogonal_triad(rng)
    b = sampling.sample_orthogonal_triad(rng)
    return (a.d1, a.d2, a.d3)[:s], (b.d1, b.d2, b.d3)[:s]


def cmd_verify(args) -> int:
    ok = True
    settings = args.settings
    forms = chsh.enumerate_forms(settings)
    expected_forms = {2: 8, 3: 72}[settings]
    ok &= _check(
        f"form count ({settings} settings)",
        len(forms) == expected_forms,
        f"{len(forms)} distinct forms (expect {expected_forms})",
    )

    bound = chsh.lhv_brute_force_bound(settings, forms)
    ok &= _check(
        f"LHV bound ({settings} settings)",
        abs(bound) <= 1e-12,
        f"max I over deterministic strategies = {bound:.6e}",
    )

    # Tsirelson cap and Eberhard floor over a large random sample.
    total = 1_000_000
    i_top = -np.inf
    eta_floor = np.inf
    mix = [("rim", 1.0, 0.4), ("rim", 0.5, 0.3), ("rotm", 1.0, 0.3)]
    for scenario, ratio, fraction in mix:
        config = ScenarioConfig(scenario=scenario, alpha_ratio=ratio,
                                trials=int(total * fraction),
                                master_seed=args.seed, workers=args.workers)
        (merged,) = _collect_chunks(config)
        i_top = max(i_top, merged.i_top)
        eta_floor = min(eta_floor, merged.eta_min)
    cap = chsh.TSIRELSON_BOUND + 1e-12
    ok &= _check("Tsirelson cap", i_top <= cap,
                 f"max I over {total} random trials = {i_top:.9f} (cap {cap:.9f})")
    floor = 2.0 / 3.0 - 1e-9
    ok &= _check("Eberhard floor", eta_floor >= floor,
                 f"min eta_req = {eta_floor:.9f} (floor {floor:.9f})")

    # Sampler uniformity of n_z for each scenario's direction stream.
    for scenario in SCENARIOS:
        ks = _ks_uniform_nz(_sampler_nz(ScenarioConfig(
            scenario=scenario, trials=1_000_000, master_seed=args.seed + 1)))
        ok &= _check(f"sampler uniformity ({scenario})", ks <= 0.005,
                     f"KS distance of n_z = {ks:.5f} (limit 0.005)")

    # Exact-route cross-check and threshold consistency on violating trials,
    # through the kernel for this many settings: RIM for 2, ROTM for 3.  The
    # state is partially entangled and noisy, so N differs between the forms
    # of a setting choice; the selection policy matters for ROTM only.
    scenario = "rim" if settings == 2 else "rotm"
    for policy in ("max-i", "min-eta") if settings == 3 else ("max-i",):
        config = ScenarioConfig(scenario=scenario, alpha_ratio=0.6, visibility=0.95,
                                trials=1, master_seed=args.seed, selection_policy=policy)
        # the kernel's rows of the trials the loop may check, in one chunk
        (i_max,), (eta,) = _trial_rows(config, 0, 20_000)
        checked = 0
        max_di = 0.0
        max_de = 0.0
        sign_ok = True
        trial = 0
        while checked < 500 and trial < len(i_max):
            table = chsh.build_probability_table(
                config.state, *_exact_settings(config, trial))
            record = chsh.max_violation(table, forms, policy=policy)
            max_di = max(max_di, abs(record.i_value - i_max[trial]))
            if i_max[trial] > 0.0:
                checked += 1
                max_de = max(max_de, abs(record.eta_req - eta[trial]))
                above = chsh.efficiency_corrected_value(table, record.form,
                                                        record.eta_req + 1e-6)
                below = chsh.efficiency_corrected_value(table, record.form,
                                                        record.eta_req - 1e-6)
                sign_ok &= above > 0.0 > below
            trial += 1
        ok &= _check(f"kernel vs exact route ({policy})",
                     max_di <= 1e-12 and max_de <= 1e-10,
                     f"|dI| <= {max_di:.2e}, |d eta| <= {max_de:.2e} over {trial} trials")
        ok &= _check(f"threshold sign flip ({policy})", sign_ok,
                     f"corrected value sign at eta_req +- 1e-6 on {checked} violating trials")

    # Table invariants via the exact route, which validates every table it
    # builds, on random states with the settings sampler of the cross-check
    # above; the seed is taken mod 2**64, as ScenarioConfig takes it
    rng_np = np.random.default_rng(args.seed % 2**64 + 2)
    streams = ScenarioConfig(scenario=scenario, master_seed=args.seed + 3)
    table_ok = True
    for _ in range(2_000):
        ratio = float(rng_np.uniform(0.2, 1.0))
        vis = float(rng_np.choice([1.0, rng_np.uniform(0.0, 1.0)]))
        state = NoisyState.from_ratio(ratio, vis)
        directions = _exact_settings(streams, int(rng_np.integers(0, 2 ** 32)))
        try:
            chsh.build_probability_table(state, *directions)
        except NumericalConsistencyError:
            table_ok = False
            break
    ok &= _check("table invariants", table_ok,
                 "normalization and no-signaling within 1e-10 on 2000 random "
                 f"{settings}-setting tables")

    return EXIT_OK if ok else EXIT_NUMERICAL


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="randbell",
                     description="Monte Carlo estimation of loophole-free CHSH "
                                 "violation probabilities under random measurements")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, sweep_mode=False):
        p.add_argument("--scenario", required=True, choices=SCENARIOS)
        if sweep_mode:
            p.add_argument("--alpha-ratios", default="0.5,0.75,1.0",
                           help="comma-separated list of alpha/beta ratios")
        else:
            p.add_argument("--alpha-ratio", type=float, default=1.0)
        p.add_argument("--visibility", type=float, default=1.0)
        p.add_argument("--trials", type=int, default=4_000_000)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--bins", type=int, default=200)
        p.add_argument("--eta-grid", default="0.60:1.00:0.001",
                       help="curve grid as START:STOP:STEP")
        p.add_argument("--selection", choices=["max-i", "min-eta"], default="max-i")
        p.add_argument("--workers", type=int, default=_usable_cpus())
        p.add_argument("--out-dir", default="./results")
        p.add_argument("--format", choices=["csv", "json", "both"], default="both")

    run_p = sub.add_parser("run", help="run one experiment")
    add_common(run_p)
    run_p.set_defaults(func=cmd_run)

    sweep_p = sub.add_parser("sweep", help="run one experiment per state ratio")
    add_common(sweep_p, sweep_mode=True)
    sweep_p.set_defaults(func=cmd_sweep)

    verify_p = sub.add_parser("verify", help="run the oracle self-checks")
    verify_p.add_argument("--settings", type=int, choices=[2, 3], default=2)
    verify_p.add_argument("--seed", type=int, default=0)
    verify_p.add_argument("--workers", type=int, default=_usable_cpus())
    verify_p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except (ValueError,) as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    except ExperimentAborted as exc:
        print(f"aborted after {exc.completed_trials} of {exc.trials} trials: {exc}",
              file=sys.stderr)
        return EXIT_NUMERICAL
    except NumericalConsistencyError as exc:
        print(f"numerical-consistency failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"I/O failure: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
