"""Trial orchestration, aggregation, and summary statistics.

A trial samples one set of measurement directions per scenario, evaluates
every equivalent form of the inequality on the resulting probability table,
records the highest value, and, when that value is positive, the required
detection efficiency of the winning form.  Trials are embarrassingly
parallel: each one is a pure function of (config, trial index), workers own
disjoint chunks of a fixed chunk grid, each chunk returns only its
violating trials, and aggregation reads them in trial order, so results are
bit-identical for any worker count and memory grows with the violating
trials only.

The per-trial evaluation is vectorized over a chunk and never builds a
direction: the chunk's uniforms come from the counter-based generator in
one shot, the scenario's map in `sampling` turns them straight into
correlator-coordinate rows (each setting's z-component and each setting
pair's in-plane product), the closed-form route in `quantum` turns those
into probability rows, and each form's value is streamed as a signed sum
of probability rows (every coefficient is -1, 0 or +1) into a running
winner, so no per-form matrix is built and no BLAS call is made.  The
exact operator route in `quantum`/`chsh`, fed by the scalar samplers'
directions, computes the same numbers one trial at a time and serves as
the independent cross-check (see tests and the CLI verify command).
"""

from __future__ import annotations

import math
import os
import platform
import signal
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import ExitStack
from dataclasses import dataclass, replace
from functools import lru_cache, partial
from itertools import repeat

import numpy as np

from . import chsh, quantum, sampling
from .errors import NumericalConsistencyError
from .quantum import NoisyState

__all__ = [
    "SCENARIOS",
    "NAMED_ETAS",
    "CHUNK_TRIALS",
    "ScenarioConfig",
    "TrialOutcome",
    "EfficiencyHistogram",
    "ViolationCurve",
    "ExperimentResult",
    "SweepEntry",
    "ExperimentAborted",
    "run_trial",
    "run_experiment",
    "sweep",
    "wilson_interval",
]

SCENARIOS = ("rim", "rom", "rotm")

# Efficiency points quoted in the run summary.
NAMED_ETAS = (0.785, 0.828, 0.9, 1.0)

# Fixed chunk grid; must not depend on the worker count.
CHUNK_TRIALS = 1 << 16

_MASK64 = 0xFFFFFFFFFFFFFFFF

_WILSON_Z = 1.959963984540054  # 97.5th normal percentile


class ExperimentAborted(RuntimeError):
    """A trial error aborted the experiment; carries partial progress."""

    def __init__(self, message: str, completed_trials: int, trials: int):
        super().__init__(message)
        self.partial = True
        self.completed_trials = completed_trials
        self.trials = trials


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything that defines one experiment run."""

    scenario: str
    alpha_ratio: float = 1.0
    visibility: float = 1.0
    trials: int = 4_000_000
    master_seed: int = 0
    histogram_bins: int = 200
    eta_grid: tuple[float, float, float] = (0.60, 1.00, 0.001)
    selection_policy: str = "max-i"
    workers: int = 1

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ValueError(f"scenario must be one of {SCENARIOS}, got {self.scenario!r}")
        if not (self.alpha_ratio > 0) or not math.isfinite(self.alpha_ratio):
            raise ValueError("alpha_ratio must be positive and finite")
        if not (0.0 <= self.visibility <= 1.0):
            raise ValueError("visibility must be in [0, 1]")
        if int(self.trials) <= 0:
            raise ValueError("trials must be positive")
        if int(self.histogram_bins) <= 0:
            raise ValueError("histogram_bins must be positive")
        start, stop, step = self.eta_grid
        if not (start >= 0.6 and stop <= 1.0 and step > 0 and start < stop):
            raise ValueError("eta grid must satisfy 0.6 <= start < stop <= 1.0, step > 0")
        if self.selection_policy not in ("max-i", "min-eta"):
            raise ValueError(f"selection_policy must be 'max-i' or 'min-eta', got {self.selection_policy!r}")
        if int(self.workers) <= 0:
            raise ValueError("workers must be positive")
        object.__setattr__(self, "trials", int(self.trials))
        object.__setattr__(self, "histogram_bins", int(self.histogram_bins))
        object.__setattr__(self, "master_seed", int(self.master_seed) & _MASK64)
        object.__setattr__(self, "workers", int(self.workers))

    @property
    def state(self) -> NoisyState:
        return NoisyState.from_ratio(self.alpha_ratio, self.visibility)

    @property
    def settings_per_party(self) -> int:
        return 3 if self.scenario == "rotm" else 2

    def eta_grid_points(self) -> np.ndarray:
        start, stop, step = self.eta_grid
        n = int(round((stop - start) / step)) + 1
        return np.round(start + step * np.arange(n), 12)

    def as_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "alpha_ratio": self.alpha_ratio,
            "visibility": self.visibility,
            "trials": self.trials,
            "master_seed": self.master_seed,
            "histogram_bins": self.histogram_bins,
            "eta_grid": list(self.eta_grid),
            "selection_policy": self.selection_policy,
            "workers": self.workers,
        }


@dataclass(frozen=True)
class TrialOutcome:
    trial_index: int
    i_max: float
    violated: bool
    eta_req: float | None = None

    def __post_init__(self):
        if self.violated != (self.i_max > 0.0) or self.violated != (self.eta_req is not None):
            raise ValueError("violated must hold exactly when i_max > 0 and eta_req is set")


@dataclass(frozen=True)
class EfficiencyHistogram:
    bin_edges: np.ndarray
    counts: np.ndarray
    total_trials: int
    violating_trials: int


@dataclass(frozen=True)
class ViolationCurve:
    etas: np.ndarray
    p_viol: np.ndarray
    ci_low: np.ndarray
    ci_high: np.ndarray


@dataclass(frozen=True)
class ExperimentResult:
    config: ScenarioConfig
    histogram: EfficiencyHistogram
    curve: ViolationCurve
    summary: dict


@dataclass(frozen=True)
class SweepEntry:
    config: ScenarioConfig
    result: ExperimentResult | None = None
    error: str | None = None


def wilson_interval(successes: int, total: int, z: float = _WILSON_Z):
    """95% Wilson score interval for a binomial proportion."""
    if total <= 0:
        raise ValueError("total must be positive")
    p = successes / total
    z2 = z * z
    denom = 1.0 + z2 / total
    center = (p + z2 / (2.0 * total)) / denom
    half = z * math.sqrt(p * (1.0 - p) / total + z2 / (4.0 * total * total)) / denom
    # the interval contains the point estimate analytically; enforce it
    # against the last-ulp rounding at p = 0 and p = 1
    low = min(max(0.0, center - half), p)
    high = max(min(1.0, center + half), p)
    return low, high


@lru_cache(maxsize=None)
def _form_tables(settings_per_party: int):
    """Per form, the constant and the signed coordinate terms of I and of N.

    A term is (np.add or np.subtract, coordinate row), in coordinate order;
    every coefficient of `chsh.form_coefficients` is -1, 0 or +1.  The
    marginal coefficients n_a and n_b are returned as well, for N of the
    winning form.
    """
    s = settings_per_party
    const, weights, n_const, n_a, n_b = chsh.form_coefficients(chsh.enumerate_forms(s), s)
    n_weights = np.concatenate([np.zeros((len(const), s * s)), n_a, n_b], axis=1).T

    def terms(column):
        return tuple((np.add if c > 0 else np.subtract, row)
                     for row, c in enumerate(column) if c)

    i_terms = tuple(terms(column) for column in weights.T)
    n_terms = tuple(terms(column) for column in n_weights.T)
    return const, i_terms, n_const, n_terms, n_a, n_b


# Each scenario's map from a (B, 8) uniform block to its coordinate rows
# (see `sampling`); looked up at call time.
_SETTINGS_FROM_UNIFORMS = {
    "rim": sampling.rim_coordinates,
    "rom": partial(sampling.triad_coordinates, settings=2),
    "rotm": partial(sampling.triad_coordinates, settings=3),
}


def _signed_sum(out, start, coords, terms):
    """out = start, then each term's coordinate row added or subtracted in turn."""
    out.fill(start)
    for op, row in terms:
        op(out, coords[row], out=out)


def _probabilities(state: NoisyState, settings_per_party: int, rows: np.ndarray):
    """Coordinate rows (in-plane products, z_A, z_B) overwritten, in place,
    with the probability rows of the same layout (p00 for each (x, y), pA0,
    pB0), which are returned."""
    s = settings_per_party
    inplane = rows[:s * s].reshape(s, s, -1)
    z_a, z_b = rows[s * s:s * s + s], rows[s * s + s:]
    inplane[...] = quantum.joint_outcome00(state, z_a[:, None], z_b[None], inplane)
    z_a[...] = quantum.marginal_outcome0(state, z_a, "A")
    z_b[...] = quantum.marginal_outcome0(state, z_b, "B")
    return rows


def _evaluate_chunk(config: ScenarioConfig, lo: int, hi: int):
    """Evaluate trials [lo, hi); returns (i_max, eta_req) arrays, eta NaN
    when the trial is not violated."""
    s = config.settings_per_party
    # the uniforms are freed once they are mapped, before the probabilities
    rows = _SETTINGS_FROM_UNIFORMS[config.scenario](
        sampling.uniform_block(config.master_seed, lo, hi))
    coords = _probabilities(config.state, s, rows)
    finite = np.isfinite(coords).all(axis=0)
    if not finite.all():
        bad = lo + int(np.flatnonzero(~finite)[0])
        raise NumericalConsistencyError(f"non-finite probability at trial {bad}")
    return _forms_winner(coords, s, config.selection_policy)


def _forms_winner(coords, settings_per_party: int, policy: str):
    """(i_max, eta_req) of each trial (column) of the coordinate rows.

    Forms are taken in index order and a winner is replaced only on a strict
    improvement, so ties go to the lowest index.
    """
    s = settings_per_party
    const, i_terms, n_const, n_terms, n_a, n_b = _form_tables(s)
    batch = coords.shape[1]
    min_eta = policy == "min-eta"
    value = np.empty(batch)
    better = np.empty(batch, dtype=bool)
    i_best = np.full(batch, -np.inf)
    winner = np.zeros(batch, dtype=np.intp)
    if min_eta:
        n_value = np.empty(batch)
        denom = np.empty(batch)
        eta_f = np.empty(batch)
        eta_best = np.full(batch, np.inf)
        eta_winner = np.zeros(batch, dtype=np.intp)
        eta_i = np.empty(batch)
    for f, terms in enumerate(i_terms):
        _signed_sum(value, 0.0, coords, terms)
        value += const[f]
        np.greater(value, i_best, out=better)
        np.copyto(i_best, value, where=better)
        np.copyto(winner, f, where=better)
        if min_eta:
            _signed_sum(n_value, n_const[f], coords, n_terms[f])
            eta_f.fill(np.inf)
            np.greater(value, 0.0, out=better)
            np.add(value, n_value, out=denom)
            np.divide(n_value, denom, out=eta_f, where=better)
            np.less(eta_f, eta_best, out=better)
            np.copyto(eta_best, eta_f, where=better)
            np.copyto(eta_winner, f, where=better)
            np.copyto(eta_i, value, where=better)

    violated = i_best > 0.0
    if min_eta:
        # a trial with no violating form keeps its max-i winner
        winner = np.where(violated, eta_winner, winner)
        i_max = np.where(violated, eta_i, i_best)
    else:
        i_max = i_best
    pa0 = coords[s * s:s * s + s].T
    pb0 = coords[s * s + s:].T
    n_win = (
        n_const[winner]
        + np.einsum("bx,bx->b", pa0, n_a[winner])
        + np.einsum("bx,bx->b", pb0, n_b[winner])
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        eta = np.where(violated, n_win / (i_max + n_win), np.nan)
    return i_max, eta


def run_trial(config: ScenarioConfig, trial_index: int) -> TrialOutcome:
    """Outcome of one trial; a pure function of (config, trial_index)."""
    if not (0 <= trial_index):
        raise ValueError("trial_index must be non-negative")
    try:
        i_max, eta = _evaluate_chunk(config, trial_index, trial_index + 1)
    except NumericalConsistencyError as exc:
        raise NumericalConsistencyError(f"trial {trial_index}: {exc}") from exc
    violated = bool(i_max[0] > 0.0)
    return TrialOutcome(
        trial_index=trial_index,
        i_max=float(i_max[0]),
        violated=violated,
        eta_req=float(eta[0]) if violated else None,
    )


def _chunk_grid(trials: int):
    return [(lo, min(lo + CHUNK_TRIALS, trials)) for lo in range(0, trials, CHUNK_TRIALS)]


def _violating_trials(config: ScenarioConfig, lo: int, hi: int):
    """(i_max, eta_req) of the violating trials in [lo, hi), in trial order."""
    i_max, eta = _evaluate_chunk(config, lo, hi)
    violated = i_max > 0.0
    return i_max[violated], eta[violated]


def _collect_chunks(config: ScenarioConfig, progress=None):
    """(i_max, eta_req) of every violating trial, in trial order.

    Chunks are consumed in grid order, in this process for one worker and
    from a process pool otherwise, so peak memory is the violating trials
    plus the chunks in flight.  A trial error, a dead worker process or an
    interrupt aborts the run with the count of trials completed, in order,
    before it; any exception cancels the pending chunks.
    """
    chunks = _chunk_grid(config.trials)
    started = time.perf_counter()
    done_trials = 0
    parts = []
    try:
        with ExitStack() as stack:
            chunk_map = map
            if config.workers > 1 and len(chunks) > 1:
                # an interrupt is the parent's to handle: it cancels the
                # pending chunks, and the workers finish the running ones
                pool = ProcessPoolExecutor(max_workers=config.workers,
                                           initializer=signal.signal,
                                           initargs=(signal.SIGINT, signal.SIG_IGN))
                stack.callback(pool.shutdown, cancel_futures=True)
                chunk_map = pool.map
            los, his = zip(*chunks)
            for hi, part in zip(his, chunk_map(_violating_trials, repeat(config), los, his)):
                parts.append(part)
                done_trials = hi
                if progress is not None:
                    progress(done_trials, config.trials, time.perf_counter() - started)
    except (NumericalConsistencyError, BrokenProcessPool) as exc:
        raise ExperimentAborted(str(exc), completed_trials=done_trials,
                                trials=config.trials) from exc
    except KeyboardInterrupt as exc:
        raise ExperimentAborted("interrupted", completed_trials=done_trials,
                                trials=config.trials) from exc
    i_max, eta = zip(*parts)
    return np.concatenate(i_max), np.concatenate(eta)


def run_experiment(config: ScenarioConfig, progress=None) -> ExperimentResult:
    """Run all trials and aggregate the histogram, curve, and summary.

    `progress`, if given, is called as progress(done, total, elapsed_seconds)
    after each completed chunk.
    """
    started = time.perf_counter()
    i_max_violating, eta_violating = _collect_chunks(config, progress)
    n_viol = len(eta_violating)

    if n_viol and (eta_violating.min() < 0.6 or eta_violating.max() >= 1.0):
        raise NumericalConsistencyError("required efficiency outside [0.6, 1)")

    edges = np.linspace(0.6, 1.0, config.histogram_bins + 1)
    counts, _ = np.histogram(eta_violating, bins=edges)
    histogram = EfficiencyHistogram(
        bin_edges=edges,
        counts=counts,
        total_trials=config.trials,
        violating_trials=n_viol,
    )

    grid = config.eta_grid_points()
    eta_violating.sort()
    cum = np.searchsorted(eta_violating, grid, side="right")
    p_viol = cum / config.trials
    ci = np.array([wilson_interval(int(k), config.trials) for k in cum])
    curve = ViolationCurve(
        etas=grid, p_viol=p_viol, ci_low=ci[:, 0], ci_high=ci[:, 1]
    )

    named_p = {}
    named_ci = {}
    for point in NAMED_ETAS:
        k = int(np.searchsorted(eta_violating, point, side="right"))
        named_p[f"{point:g}"] = k / config.trials
        lo_ci, hi_ci = wilson_interval(k, config.trials)
        named_ci[f"{point:g}"] = [lo_ci, hi_ci]

    state = config.state
    summary = {
        "config": config.as_dict(),
        "state": {
            "alpha": state.pure.alpha,
            "beta": state.pure.beta,
            "concurrence": state.pure.concurrence,
        },
        "total_trials": config.trials,
        "violating_trials": n_viol,
        "p_viol": named_p,
        "wilson_ci_95": named_ci,
        "i_max_given_violation": (
            {
                "mean": float(i_max_violating.mean()),
                "median": float(np.median(i_max_violating, overwrite_input=True)),
            }
            if n_viol
            else None
        ),
        "min_eta_req": float(eta_violating[0]) if n_viol else None,
        "wall_time_s": time.perf_counter() - started,
        "manifest": _manifest(config),
    }
    return ExperimentResult(config=config, histogram=histogram, curve=curve, summary=summary)


def _usable_cpus() -> int:
    """CPUs this process may run on, which under taskset or a cpuset is
    fewer than `os.cpu_count()`."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not available on every platform
        return os.cpu_count() or 1


def _manifest(config: ScenarioConfig) -> dict:
    """What ran a result: software versions, platform and chunk grid."""
    from . import __version__  # the package sets it after importing this module

    return {
        "randbell": __version__,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "usable_cpus": _usable_cpus(),
        "chunk_trials": CHUNK_TRIALS,
        "workers": config.workers,
    }


def sweep(configs: list[ScenarioConfig], progress=None) -> list[SweepEntry]:
    """Run several configs, each on an independent trial-index space.

    The master seed of config k is offset by its ordinal, so a sweep over
    one config is identical to run_experiment on it.  Per-config failures
    are isolated; the remaining configs still run.  An interrupt stops the
    whole sweep with ExperimentAborted, counting the trials of the configs
    that finished and the in-order trials of the interrupted one.
    """
    if not configs:
        raise ValueError("sweep needs at least one config")
    total = sum(config.trials for config in configs)
    done = 0
    entries = []
    for ordinal, config in enumerate(configs):
        effective = replace(config, master_seed=(config.master_seed + ordinal) & _MASK64)
        try:
            result = run_experiment(effective, progress=progress)
            entries.append(SweepEntry(config=effective, result=result))
            done += effective.trials
        except ExperimentAborted as exc:
            if isinstance(exc.__cause__, KeyboardInterrupt):
                raise ExperimentAborted(str(exc), completed_trials=done + exc.completed_trials,
                                        trials=total) from exc.__cause__
            entries.append(SweepEntry(config=effective, error=str(exc)))
        except Exception as exc:  # noqa: BLE001 - isolation is the contract
            entries.append(SweepEntry(config=effective, error=str(exc)))
    if all(entry.result is None for entry in entries):
        raise ExperimentAborted("every sweep config failed", completed_trials=0, trials=total)
    return entries
