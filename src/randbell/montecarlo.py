"""Trial orchestration, aggregation, and summary statistics.

A trial samples one set of measurement directions per scenario, evaluates
every equivalent form of the inequality on the resulting probability table,
records the highest value, and, when that value is positive, the required
detection efficiency of the winning form.  Trials are embarrassingly
parallel: each one is a pure function of (config, trial index), and workers
own disjoint chunks of a fixed chunk grid.  Each chunk reduces its
violating trials to a partial of fixed size (integer counts of eta_req on
the histogram edges, the curve grid and the named etas; the violating
count; the eta_req range and the largest I; the float sum of I; integer
counts of I on a fixed grid, which bound the median), and the partials are
merged in chunk order.  Integer counts add exactly and the float sum is
taken in block order, so results are bit-identical for any worker count,
and a run's memory does not grow with its trial count.

Runs and sweeps take one chunk loop over a set of states that share the
trial streams of one master seed (common random numbers).  Each block's
uniforms, coordinate rows and products z_a z_b are made once, each state
turns them into its own correlator and marginal rows and winners, and each
chunk returns a partial per state.  A run is the one-state set, so a
sweep's result for a state equals a run on that state.  Every block writes
into one workspace of block-sized rows per process (`_workspace`) and is
added into each state's partial as it ends, so a chunk allocates no
per-trial row; single trials and checks read fresh per-trial rows from the
same block loop (`_trial_rows`).

The per-trial evaluation is vectorized over a block of a chunk's trials,
the blocks taken in order so that a block's rows stay cache-resident, and
never builds a direction: the block's uniforms come from the counter-based
generator, the scenario's map in `sampling` turns them straight into
correlator-coordinate rows (each setting's z-component and each setting
pair's in-plane product), the closed-form route in `quantum` turns those
into each state's correlator rows D = 2E and marginal rows, with no
probability p00 formed, and the forms follow in closed form too: on each
choice of two settings per party they are the CHSH expressions
(+-S_k - 2)/4, in four runs of two forms that share the marginal part N,
and each run's best S needs one min or max of two of the choice's
correlator rows (`_form_tables`).  One loop over the runs (`_run_values`)
keeps a running winner in form order, max-i's pick; min-eta also counts each trial's violating runs, and only the
trials with two or more re-pick by the per-run eta_req competition.  No
per-form sum or matrix is built and no BLAS call is made.  The exact
operator route in `quantum`/`chsh`, fed by the scalar samplers'
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
from dataclasses import asdict, dataclass, replace
from functools import lru_cache, partial
from itertools import combinations, product, repeat

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

# Trials per pass within a chunk: a row is 64 KB, so ROTM's 15 coordinate
# and 9 correlator rows (1.5 MB) fit a core's L2 cache.
_BLOCK_TRIALS = 1 << 13

_MASK64 = 0xFFFFFFFFFFFFFFFF

_WILSON_Z = 1.959963984540054  # 97.5th normal percentile

# The median of I given violation comes from integer counts on bins of width
# 2**-16 over [0, 1/4), the last bin open above.  Scaling by a power of two
# is exact, so a value's bin is exact too.
_I_SCALE = 2.0 ** 16
_I_BINS = 1 << 14


class ExperimentAborted(RuntimeError):
    """A trial error aborted the experiment; carries partial progress."""

    def __init__(self, message: str, completed_trials: int, trials: int):
        super().__init__(message)
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
        # floor, not round: a count rounded up puts the last point past stop
        n = math.floor((stop - start) / step + 1e-9) + 1
        return np.round(start + step * np.arange(n), 12)

    def as_dict(self) -> dict:
        return {**asdict(self), "eta_grid": list(self.eta_grid)}


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


@dataclass
class _Partial:
    """What aggregation needs of the violating trials of some chunks.

    Its size is fixed by the config, not by the trials it covers.  The
    counts are cumulative (trials with eta_req below each histogram edge,
    at most each curve point and named eta) or per bin (I), so adding and
    merging are exact integer additions; the float sum of I is added in
    block order.  The defaults are those of no trials.
    """

    below_edges: np.ndarray  # eta_req < each edge; <= for the last, as np.histogram
    at_most: np.ndarray  # eta_req <= each point of `_eta_points`
    i_counts: np.ndarray  # I per bin of width 1 / _I_SCALE; int32 per chunk, int64 merged
    violating: int = 0
    i_sum: float = 0.0
    i_top: float = -math.inf  # the largest I
    eta_min: float = math.inf
    eta_max: float = -math.inf

    @classmethod
    def empty(cls, config: ScenarioConfig, i_dtype) -> "_Partial":
        """The partial of no trials of config, its I counts of i_dtype."""
        return cls(np.zeros(config.histogram_bins + 1, np.intp),
                   np.zeros(len(_eta_points(config)), np.intp), np.zeros(_I_BINS, i_dtype))

    @property
    def nbytes(self) -> int:
        """Bytes of its counts and of its five scalars, 8 each."""
        return self.below_edges.nbytes + self.at_most.nbytes + self.i_counts.nbytes + 5 * 8

    def add_block(self, i_max: np.ndarray, eta: np.ndarray, edges: np.ndarray,
                  points: np.ndarray, spare: np.ndarray) -> None:
        """Add a block's I and eta_req, NaN where I <= 0, of each trial; its
        violating values go to the three rows of `spare`.  Sorted, eta_req
        gives every eta count by a search per edge or point, several times
        cheaper than a search per trial.  I needs no sort: its bin is its
        scaled value, truncated, counted up to the block's largest bin."""
        columns = np.flatnonzero(np.greater(i_max, 0.0, out=spare[2].view(bool)[:len(i_max)]))
        n = len(columns)
        if not n:
            return
        # "clip" writes unbuffered
        i_max = i_max.take(columns, out=spare[0, :n], mode="clip")
        eta = eta.take(columns, out=spare[1, :n], mode="clip")
        eta.sort()
        self.violating += n
        self.below_edges[:-1] += eta.searchsorted(edges[:-1], "left")
        self.below_edges[-1] += eta.searchsorted(edges[-1], "right")
        self.at_most += eta.searchsorted(points, "right")
        self.i_sum += float(i_max.sum())
        self.i_top = max(self.i_top, float(i_max.max()))
        self.eta_min = min(self.eta_min, float(eta[0]))
        self.eta_max = max(self.eta_max, float(eta[-1]))
        # cast as it is computed, with no float temporary: the cast truncates
        bins = np.multiply(i_max, _I_SCALE, out=spare[2, :n].view(np.intp), casting="unsafe")
        np.minimum(bins, _I_BINS - 1, out=bins)
        counts = np.bincount(bins)
        self.i_counts[:len(counts)] += counts

    def merge(self, other: "_Partial") -> "_Partial":
        """Add `other`, the partial of later chunks, into this one."""
        self.violating += other.violating
        self.below_edges += other.below_edges
        self.at_most += other.at_most
        self.i_counts += other.i_counts
        self.i_sum += other.i_sum
        self.i_top = max(self.i_top, other.i_top)
        self.eta_min = min(self.eta_min, other.eta_min)
        self.eta_max = max(self.eta_max, other.eta_max)
        return self


def wilson_interval(successes: int, total: int):
    """95% Wilson score interval for a binomial proportion."""
    if total <= 0:
        raise ValueError("total must be positive")
    p = successes / total
    z2 = _WILSON_Z * _WILSON_Z
    denom = 1.0 + z2 / total
    center = (p + z2 / (2.0 * total)) / denom
    half = _WILSON_Z * math.sqrt(p * (1.0 - p) / total + z2 / (4.0 * total * total)) / denom
    # the interval contains the point estimate analytically; enforce it
    # against the last-ulp rounding at p = 0 and p = 1
    low = min(max(0.0, center - half), p)
    high = max(min(1.0, center + half), p)
    return low, high


@lru_cache(maxsize=None)
def _form_tables(settings_per_party: int):
    """The forms of `chsh.enumerate_forms`, in runs for the closed-form stage.

    Write D = 2E = 8 p00 - 4 pA0 - 4 pB0 + 2 for each setting pair (see
    `quantum.doubled_correlator`).  Every form is I = (sign * S_k - 2) / 4
    on the four pairs of its setting choice, with S_k = T - D_k and
    T = sum(D) / 2 over the choice (the CHSH expressions).  Each choice
    {x0, x1} x {y0, y1} owns 8 consecutive forms, the choices in
    lexicographic order, and they make 4 runs of two forms that share N:
    S3 and S1, -S1 and -S3, S2 and -S0, S0 and -S2 (see `_run_values`).

    Returns (choices, n_const, terms).  Each choice is its four pair rows
    (x0y0, x0y1, x1y0, x1y1).  Runs are numbered in form order across
    choices, and run r's N is that of forms 2r and 2r + 1: its n_const plus,
    for each (row of `_state_rows`, coefficients) of terms, its coefficient
    (-1, 0 or +1) times that marginal row; terms lists every marginal row
    some run uses, pA0 rows before pB0 rows.
    """
    s = settings_per_party
    _, _, n_const, n_a, n_b = chsh.form_coefficients(chsh.enumerate_forms(s), s)
    two = list(combinations(range(s), 2))
    choices = tuple((x0 * s + y0, x0 * s + y1, x1 * s + y0, x1 * s + y1)
                    for (x0, x1), (y0, y1) in product(two, two))
    n_weights = np.concatenate([n_a, n_b], axis=1)[::2]
    terms = tuple((s * s + row, n_weights[:, row])
                  for row in range(2 * s) if n_weights[:, row].any())
    return choices, n_const[::2], terms


# Each scenario's map from a (B, 8) uniform block to its coordinate rows
# (see `sampling`); looked up at call time.
_SETTINGS_FROM_UNIFORMS = {
    "rim": sampling.rim_coordinates,
    "rom": partial(sampling.triad_coordinates, settings=2),
    "rotm": partial(sampling.triad_coordinates, settings=3),
}


def _workspace(settings_per_party: int):
    """One block's buffers for this many settings per party, reused by
    every block, state and chunk of a process, so that no block allocates
    its rows anew or faults them in: (uniforms, coordinate rows, pool),
    views of one array.

    The (B, 8) uniforms live until the settings map has read them, and
    their memory then holds the form stage's `_FORM_ROWS` rows, the first
    three of them then a state's violating values.  The pool's
    rows are the map's scratch, and then the products z_a z_b, one state's
    rows and two rows of bytes for the finite check.  A shorter block takes
    views of the first columns.  One block loop at a time may use them.
    """
    s = settings_per_party
    coords = s * s + 2 * s
    pool = max(sampling.SCRATCH_ROWS, s * s + coords + 2)
    rows = np.empty((8 + coords + pool, _BLOCK_TRIALS))
    return rows[:8].reshape(_BLOCK_TRIALS, 8), rows[8:8 + coords], rows[8 + coords:]


# Made at import, so that no run or memory trace counts them; a process
# that never touches one holds only its address space.
_WORKSPACES = {s: _workspace(s) for s in (2, 3)}


def _state_rows(state: NoisyState, settings_per_party: int, rows: np.ndarray,
                z_products: np.ndarray, out: np.ndarray) -> np.ndarray:
    """One state's rows, written to `out` and returned: D = 2E for each
    setting pair (x, y), then pA0 for each x and pB0 for each y.  They come
    from a block's coordinate rows (in-plane products, z_A, z_B) and its
    products z_a z_b, one row per (x, y); both are only read, so every state
    of the block shares them."""
    s = settings_per_party
    quantum.doubled_correlator(state, rows[:s * s], z_products, out=out[:s * s])
    quantum.marginal_outcome0(state, rows[s * s:s * s + s], "A", out=out[s * s:s * s + s])
    quantum.marginal_outcome0(state, rows[s * s + s:], "B", out=out[s * s + s:])
    return out


def _block_winners(config: ScenarioConfig, lo: int, hi: int, states):
    """Yields (columns, k, i_max, eta_req, spare) for each block of trials
    [lo, hi) of config's trial streams and each state k of `states`, in
    order: columns is the block's slice of [lo, hi), eta_req is NaN where a
    trial is not violated, and spare is three block rows the form stage
    has spent.  The rows are the workspace's, overwritten by the next state
    or block.

    Each block of `_BLOCK_TRIALS` is drawn and mapped to coordinate rows
    once, with the products z_a z_b, and each state writes its correlator
    and marginal rows from them and runs the forms on them.  Every step is
    elementwise per trial and the generator is counter-based, so the blocks
    change no bit and each state's rows are those of a run on that state
    alone.
    """
    s = config.settings_per_party
    noisy = [c.state for c in states]
    uniforms, coords, pool = _WORKSPACES[s]
    for start in range(lo, hi, _BLOCK_TRIALS):
        n = min(_BLOCK_TRIALS, hi - start)
        u = sampling.uniform_block(config.master_seed, start, start + n, out=uniforms[:n])
        rows = _SETTINGS_FROM_UNIFORMS[config.scenario](u, out=coords[:, :n],
                                                        scratch=pool[:, :n])
        # the uniforms and the map's scratch are spent
        form_rows = uniforms.reshape(8, _BLOCK_TRIALS)[:, :n]
        z_products, own = pool[:s * s, :n], pool[s * s:s * s + len(rows), :n]
        flags = pool[-2:].view(bool).reshape(16, -1)[:len(rows) + 1, :n]
        z_a, z_b = rows[s * s:s * s + s], rows[s * s + s:]
        np.multiply(z_a[:, None], z_b[None], out=z_products.reshape(s, s, n))
        for k, state in enumerate(noisy):
            state_rows = _state_rows(state, s, rows, z_products, own)
            finite = np.isfinite(state_rows, out=flags[:-1]).all(axis=0, out=flags[-1])
            if not finite.all():
                bad = start + int(np.flatnonzero(~finite)[0])
                where = "" if len(states) == 1 else (
                    f" (alpha_ratio {states[k].alpha_ratio:g},"
                    f" visibility {states[k].visibility:g})")
                raise NumericalConsistencyError(f"non-finite probability at trial {bad}{where}")
            yield (slice(start - lo, start - lo + n), k,
                   *_forms_winner(state_rows, s, config.selection_policy, form_rows),
                   form_rows[:3])


def _evaluate_chunk(config: ScenarioConfig, lo: int, hi: int, states=None) -> list[_Partial]:
    """The partial of the violating trials of [lo, hi) of config's trial
    streams in each config of `states`, by default config alone.  `states`
    differ from config in alpha_ratio and visibility only.

    Each block is added to its state's partial as it ends, so a chunk holds
    no per-trial row and no violating value beyond the block's.
    """
    states = states or (config,)
    edges = _histogram_edges(config)
    points = _eta_points(config)
    # a chunk's I counts fit int32, which halves what a worker sends
    parts = [_Partial.empty(config, np.int32) for _ in states]
    for _, k, i_max, eta, spare in _block_winners(config, lo, hi, states):
        parts[k].add_block(i_max, eta, edges, points, spare)
    return parts


def _trial_rows(config: ScenarioConfig, lo: int, hi: int, states=None):
    """(i_max, eta_req) of every trial of [lo, hi) in each config of
    `states`, by default config alone, as fresh arrays of shape (states,
    trials), eta NaN where the trial is not violated: the per-trial view of
    `_evaluate_chunk`'s blocks, for single trials and checks."""
    states = states or (config,)
    i_max = np.empty((len(states), hi - lo))
    eta = np.empty((len(states), hi - lo))
    for columns, k, i_block, eta_block, _ in _block_winners(config, lo, hi, states):
        i_max[k, columns] = i_block
        eta[k, columns] = eta_block
    return i_max, eta


def _run_values(rows, settings_per_party: int, work=None):
    """The best S of each run of `_form_tables`, in run order, for each
    trial (column) of a state's rows, in one row that each run overwrites;
    `work`, if given, lends its first three rows.

    With T = sum(D) / 2 over a choice's pairs D0..D3, its four runs' best S
    are T - min(D3, D1), max(D1, D3) - T, max(T - D2, D0 - T) and
    max(T - D0, D2 - T), with no per-form sum.
    """
    t, value, spare = np.empty((3, rows.shape[1])) if work is None else work[:3]
    for p0, p1, p2, p3 in _form_tables(settings_per_party)[0]:
        d0, d1, d2, d3 = rows[p0], rows[p1], rows[p2], rows[p3]
        np.add(d0, d1, out=t)
        t += d2
        t += d3
        t *= 0.5
        np.subtract(t, np.minimum(d3, d1, out=value), out=value)
        yield value
        np.subtract(np.maximum(d1, d3, out=value), t, out=value)
        yield value
        np.subtract(t, d2, out=value)
        yield np.maximum(value, np.subtract(d0, t, out=spare), out=value)
        np.subtract(t, d0, out=value)
        yield np.maximum(value, np.subtract(d2, t, out=spare), out=value)


def _forms_winner(rows, settings_per_party: int, policy: str, work=None):
    """(i_max, eta_req) of each trial (column) of a state's rows: D for each
    setting pair, then pA0 and pB0 (see `_state_rows`); the rows are only
    read.  The results and temporaries are `_FORM_ROWS` rows of `work` if
    given, else fresh.

    Both policies take one pass over the runs of `_run_values`.  I = S / 4
    - 1/2 rounds monotonically (and exactly where I >= -1/4), so the best I
    is that of the best S, and I > 0 exactly where S > 2.  A winner is
    replaced only on a strict improvement, so ties go to the lowest form
    index; it is the largest run number that improved, kept with a maximum
    rather than a masked copy, whose cost grows with how mixed its mask is,
    and its N gives eta_req.  Where at most one run violates, it is the
    unique maximum and so min-eta's pick too: min-eta counts each trial's
    violating runs, and re-picks by `_min_eta_runs` on the columns with two
    or more.
    """
    batch = rows.shape[1]
    if work is None:
        work = np.empty((_FORM_ROWS, batch))
    s_best, n_win, eta = work[3:6]
    # one row's bytes hold the per-trial flags and run numbers
    better_01, step, winner, violating = work[6].view(np.uint8).reshape(8, batch)[:4]
    better = better_01.view(bool)
    s_best.fill(-np.inf)
    winner.fill(0)
    violating.fill(0)
    for run, value in enumerate(_run_values(rows, settings_per_party, work)):
        np.greater(value, s_best, out=better)
        np.maximum(s_best, value, out=s_best)
        np.multiply(better_01, run, out=step)
        np.maximum(winner, step, out=winner)
        if policy == "min-eta":
            np.greater(value, 2.0, out=better)
            violating += better_01
    i_max = s_best
    i_max *= 0.25
    i_max -= 0.5
    # each trial's N term by term, as `chsh.form_coefficients` sums it: its
    # one nonzero pA0 term, then its pB0 term; adding the zero terms is exact
    _, n_const, terms = _form_tables(settings_per_party)
    term = work[0]
    n_const.take(winner, out=n_win, mode="clip")  # "clip" writes unbuffered
    for row, coefficient in terms:
        n_win += np.multiply(coefficient.take(winner, out=term, mode="clip"), rows[row],
                             out=term)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(n_win, np.add(i_max, n_win, out=eta), out=eta)
    np.copyto(eta, np.nan, where=np.less_equal(i_max, 0.0, out=better))
    if policy == "min-eta":
        columns = np.flatnonzero(violating > 1)
        if len(columns):
            i_max[columns], eta[columns] = _min_eta_runs(rows.take(columns, axis=1),
                                                         settings_per_party)
    return i_max, eta


# Rows of `_forms_winner`'s work: `_run_values`' three, the best S (then
# I), N, eta_req and one of byte flags.
_FORM_ROWS = 7


def _min_eta_runs(rows, settings_per_party: int):
    """(I, eta_req) of the least eta_req = N / (I + N) over the runs with
    I > 0, for each trial (column) of a state's rows on which two or more
    runs violate.  Ties go to the lowest form index.
    """
    _, n_const, terms = _form_tables(settings_per_party)
    batch = rows.shape[1]
    i_value = np.empty(batch)
    n_value = np.empty(batch)
    eta_value = np.empty(batch)
    better = np.empty(batch, dtype=bool)
    violating = np.empty(batch, dtype=bool)
    i_best = np.empty(batch)
    eta_best = np.full(batch, np.inf)
    with np.errstate(divide="ignore", invalid="ignore"):
        for run, value in enumerate(_run_values(rows, settings_per_party)):
            np.multiply(value, 0.25, out=i_value)
            i_value -= 0.5
            n_value.fill(n_const[run])
            for row, coefficient in terms:
                if coefficient[run]:
                    (np.add if coefficient[run] > 0 else np.subtract)(
                        n_value, rows[row], out=n_value)
            np.add(i_value, n_value, out=eta_value)
            np.divide(n_value, eta_value, out=eta_value)
            np.less(eta_value, eta_best, out=better)
            np.greater(i_value, 0.0, out=violating)
            better &= violating
            np.copyto(eta_best, eta_value, where=better)
            np.copyto(i_best, i_value, where=better)
    return i_best, eta_best


def run_trial(config: ScenarioConfig, trial_index: int) -> TrialOutcome:
    """Outcome of one trial; a pure function of (config, trial_index)."""
    if not (0 <= trial_index):
        raise ValueError("trial_index must be non-negative")
    [[i_max]], [[eta]] = _trial_rows(config, trial_index, trial_index + 1)
    violated = bool(i_max > 0.0)
    return TrialOutcome(
        trial_index=trial_index,
        i_max=float(i_max),
        violated=violated,
        eta_req=float(eta) if violated else None,
    )


def _chunk_grid(trials: int):
    return [(lo, min(lo + CHUNK_TRIALS, trials)) for lo in range(0, trials, CHUNK_TRIALS)]


def _histogram_edges(config: ScenarioConfig) -> np.ndarray:
    return np.linspace(0.6, 1.0, config.histogram_bins + 1)


def _eta_points(config: ScenarioConfig) -> np.ndarray:
    """The curve grid, then NAMED_ETAS."""
    return np.concatenate([config.eta_grid_points(), NAMED_ETAS])


def _chunk_partial(config: ScenarioConfig, lo: int, hi: int, states) -> list[_Partial]:
    """The pool's task: `_evaluate_chunk`, looked up when it runs."""
    return _evaluate_chunk(config, lo, hi, states)


def _collect_chunks(config: ScenarioConfig, progress=None, states=None):
    """The merged partial of every chunk, one per config of `states`, by
    default config alone.

    `states` share config's trial streams and differ from it in alpha_ratio
    and visibility only.  Chunks are consumed in grid order, in this
    process for one worker and from a process pool otherwise, and each
    state's partial is merged as it arrives into that state's total, which
    starts as the empty partial, so peak memory is one total per state plus
    the chunks in flight, whatever the trial count.  Progress and abort
    counts are trials times states.  A trial error in any state, a dead
    worker process or an interrupt aborts the whole run with the count of
    trials completed, in order, before it; any exception cancels the
    pending chunks.
    """
    states = states or (config,)
    chunks = _chunk_grid(config.trials)
    total = len(states) * config.trials
    started = time.perf_counter()
    done = 0
    # the totals' I counts may outgrow a chunk's int32
    totals = [_Partial.empty(config, np.int64) for _ in states]
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
            parts = chunk_map(_chunk_partial, repeat(config), los, his, repeat(states))
            for hi in his:
                # taken inside the merge, so no name holds a chunk's partials
                # while the next one is made
                totals = [t.merge(p) for t, p in zip(totals, next(parts))]
                done = len(states) * hi
                if progress is not None:
                    progress(done, total, time.perf_counter() - started)
    except (NumericalConsistencyError, BrokenProcessPool) as exc:
        raise ExperimentAborted(str(exc), completed_trials=done, trials=total) from exc
    except KeyboardInterrupt as exc:
        raise ExperimentAborted("interrupted", completed_trials=done, trials=total) from exc
    return totals


def _median_estimate(total: _Partial):
    """(estimate, bound) of the median I of the violating trials.

    The exact median is the middle value, or the mean of the two middle
    values, of the sorted I.  Both lie in the span from the lower edge of
    the first's bin to the upper edge of the second's (or the largest I,
    if less), so its midpoint is within half the span of the median.
    """
    n = total.violating
    cum = np.cumsum(total.i_counts)
    first, second = cum.searchsorted([(n + 1) // 2, n // 2 + 1]).tolist()
    low = first / _I_SCALE
    high = min((second + 1) / _I_SCALE if second + 1 < _I_BINS else math.inf,
               total.i_top)
    return (low + high) / 2, (high - low) / 2


def _results(configs, progress) -> list[ExperimentResult]:
    """The result of each config, all of them run on the first's trial
    streams in one chunk loop."""
    started = time.perf_counter()
    totals = _collect_chunks(configs[0], progress, configs)
    return [_result(config, total, started) for config, total in zip(configs, totals)]


def _result(config: ScenarioConfig, total: _Partial, started: float) -> ExperimentResult:
    """The histogram, curve and summary of config's merged partial."""
    n_viol = total.violating

    if n_viol and (total.eta_min < 0.6 or total.eta_max >= 1.0):
        raise NumericalConsistencyError("required efficiency outside [0.6, 1)")

    histogram = EfficiencyHistogram(
        bin_edges=_histogram_edges(config),
        counts=np.diff(total.below_edges),
        total_trials=config.trials,
        violating_trials=n_viol,
    )

    grid = config.eta_grid_points()
    cum, named_cum = np.split(total.at_most, [len(grid)])
    p_viol = cum / config.trials
    ci = np.array([wilson_interval(int(k), config.trials) for k in cum])
    curve = ViolationCurve(
        etas=grid, p_viol=p_viol, ci_low=ci[:, 0], ci_high=ci[:, 1]
    )

    named_p = {}
    named_ci = {}
    for point, k in zip(NAMED_ETAS, named_cum.tolist()):
        named_p[f"{point:g}"] = k / config.trials
        lo_ci, hi_ci = wilson_interval(k, config.trials)
        named_ci[f"{point:g}"] = [lo_ci, hi_ci]

    if n_viol:
        median, median_bound = _median_estimate(total)
        i_stats = {"mean": total.i_sum / n_viol, "median": median,
                   "median_error_bound": median_bound}
    else:
        i_stats = None

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
        "i_max_given_violation": i_stats,
        "min_eta_req": total.eta_min if n_viol else None,
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


def run_experiment(config: ScenarioConfig, progress=None) -> ExperimentResult:
    """Run all trials and aggregate the histogram, curve, and summary.

    `progress`, if given, is called as progress(done, total, elapsed_seconds)
    after each completed chunk.
    """
    return _results([config], progress)[0]


def sweep(configs: list[ScenarioConfig], progress=None) -> list[ExperimentResult]:
    """Run several states on common random numbers: one trial-index space.

    The configs may differ in alpha_ratio and visibility only, else
    ValueError.  Every state is evaluated on the same trial streams, those
    of the shared master seed, in one chunk loop, so the generator and the
    settings map run once per block for all of them, differences between
    states carry far less noise than between independent runs (Glasserman,
    Monte Carlo Methods in Financial Engineering (2003), 4.1), and result k
    equals run_experiment(configs[k]) byte for byte, but for the wall time.
    Progress counts trials times states.  A non-finite probability in any
    state, a dead worker or an interrupt aborts the whole sweep with
    ExperimentAborted, counting the trials completed, in order, times the
    number of states.
    """
    if not configs:
        raise ValueError("sweep needs at least one config")
    first = configs[0]
    for config in configs[1:]:
        if replace(config, alpha_ratio=first.alpha_ratio, visibility=first.visibility) != first:
            raise ValueError("a sweep's configs may differ in alpha_ratio and visibility only")
    return _results(configs, progress)
