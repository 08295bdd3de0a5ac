"""The benchmark's work inside fresh interpreters; run.py starts each one.

    child.py setup
        Import randbell and build the form tables for 2 and 3 settings; print
        the time that took, measured from before the import.
    child.py invoke REPORT [--spans-dir DIR] -- CLI ARGS...
        Import randbell.cli, then call randbell.cli.main(CLI ARGS) as the
        `randbell` console script does.  The run is timed from after the
        import until main returns, when the outputs are on disk.  Writes the
        timing and peak RSS to REPORT; with --spans-dir, records spans around
        the layer calls and writes them to DIR/spans.json.
    child.py crosscheck OUT_DIR SAMPLE
        For every result under OUT_DIR, recompute SAMPLE of its trials through
        the exact operator route and compare with the kernel's run_trial.
        Prints the differences and the software manifest as JSON.

The parent sets PYTHONPATH to the checkout's src directory.
"""

from __future__ import annotations

import json
import sys
import time


def setup() -> None:
    t0 = time.perf_counter()
    from randbell import chsh

    for s in (2, 3):
        chsh.form_coefficients(chsh.enumerate_forms(s), s)
    t1 = time.perf_counter()
    print(json.dumps({"setup_s": t1 - t0}))


def invoke(report: str, spans_dir: str | None, cli_args: list[str]) -> int:
    import resource
    from pathlib import Path

    t0 = time.perf_counter()
    from randbell import cli

    main = cli.main
    tracer = None
    if spans_dir is not None:
        from tracing import Tracer, install

        tracer = Tracer(Path(spans_dir))
        main = install(tracer)
    t1 = time.perf_counter()
    code = main(cli_args)
    t2 = time.perf_counter()
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    doc = {"returncode": code, "import_s": t1 - t0, "run_s": t2 - t1,
           "peak_rss_kb": own, "children_peak_rss_kb": workers}
    Path(report).write_text(json.dumps(doc), encoding="utf-8")
    if tracer is not None:
        (Path(spans_dir) / "spans.json").write_text(json.dumps(tracer.all_spans()),
                                                    encoding="utf-8")
    return code


def _blas() -> str:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy < 2 prints its config instead
        return "unknown"


def manifest() -> dict:
    import os
    import platform

    import numpy as np

    import randbell
    from randbell import montecarlo

    return {
        "randbell": randbell.__version__,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "blas": _blas(),
        "blas_env": {k: os.environ[k] for k in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                     if k in os.environ},
        "chunk_trials": montecarlo.CHUNK_TRIALS,
    }


def _exact_settings(scenario: str, rng):
    from randbell import sampling

    if scenario == "rim":
        return tuple(tuple(sampling.sample_direction(rng) for _ in range(2)) for _ in "AB")
    if scenario == "rom":
        return tuple(sampling.sample_orthogonal_pair(rng) for _ in "AB")
    triads = [sampling.sample_orthogonal_triad(rng) for _ in "AB"]
    return tuple((t.d1, t.d2, t.d3) for t in triads)


def crosscheck(out_dir: str, sample: int) -> None:
    from pathlib import Path

    import numpy as np

    from randbell import chsh, sampling
    from randbell.montecarlo import ScenarioConfig, run_trial

    entries = []
    for path in sorted(Path(out_dir).rglob("summary.json")):
        raw = json.loads(path.read_text(encoding="utf-8"))["config"]
        config = ScenarioConfig(**{**raw, "eta_grid": tuple(raw["eta_grid"])})
        forms = chsh.enumerate_forms(config.settings_per_party)
        rng = np.random.default_rng(config.master_seed)
        picks = {0, config.trials - 1}
        picks.update(int(i) for i in rng.choice(config.trials, min(sample, config.trials),
                                               replace=False))
        max_di = max_de = 0.0
        mismatches = violating = 0
        max_i, min_eta = -np.inf, None
        for trial in sorted(picks):
            outcome = run_trial(config, trial)
            a_dirs, b_dirs = _exact_settings(
                config.scenario, sampling.RandomSource(config.master_seed, trial))
            table = chsh.build_probability_table(config.state, a_dirs, b_dirs)
            record = chsh.max_violation(table, forms, policy=config.selection_policy)
            max_di = max(max_di, abs(record.i_value - outcome.i_max))
            max_i = max(max_i, outcome.i_max)
            if (record.eta_req is None) != (outcome.eta_req is None):
                mismatches += 1
            elif outcome.eta_req is not None:
                violating += 1
                max_de = max(max_de, abs(record.eta_req - outcome.eta_req))
                min_eta = outcome.eta_req if min_eta is None else min(min_eta, outcome.eta_req)
        entries.append({"alpha_ratio": config.alpha_ratio, "master_seed": config.master_seed,
                        "trials_checked": len(picks), "violating_checked": violating,
                        "violation_mismatches": mismatches, "max_abs_di": max_di,
                        "max_abs_deta": max_de, "max_i": float(max_i), "min_eta": min_eta})
    print(json.dumps({"manifest": manifest(), "configs": entries}))


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "setup":
        setup()
        return 0
    if mode == "invoke":
        split = argv.index("--")
        opts = argv[1:split]
        spans_dir = opts[opts.index("--spans-dir") + 1] if "--spans-dir" in opts else None
        return invoke(opts[0], spans_dir, argv[split + 1:])
    if mode == "crosscheck":
        crosscheck(argv[1], int(argv[2]))
        return 0
    print(f"unknown mode {mode!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
