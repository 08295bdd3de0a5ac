"""Trial orchestration, aggregation, and summary statistics.

A trial samples one set of measurement directions per scenario, evaluates
every equivalent form of the inequality on the resulting probability table,
records the highest value, and, when that value is positive, the required
detection efficiency of the winning form.  Trials are embarrassingly
parallel: each one is a pure function of (config, trial index), and workers
own disjoint chunks of a fixed chunk grid.  Each chunk reduces its
violating trials to a partial of fixed size (one array of integer counts of
eta_req up to each threshold, which the histogram, the curve and the named
etas read as slices; the violating count; the eta_req range and the largest
I; the float sum of I; integer counts of I on a fixed grid, which bound the
median), and the partials are merged in chunk order.  Integer counts add
exactly and the float sum is taken in block order, so results are
bit-identical for any worker count, and a run's memory does not grow with
its trial count.

Runs and sweeps take one chunk loop over a set of states that share the
trial streams of one master seed (common random numbers).  Each block's
uniforms, coordinate rows and products z_a z_b are made once, each state
turns them into its own correlator and marginal rows and winners, and each
chunk returns a partial per state.  A run is the one-state set, so a
sweep's result for a state equals a run on that state.  Every block writes
into one workspace of block-sized rows per process (`_workspace`) and is
added into each state's partial as it ends, so a chunk allocates no
per-trial row; every state but the block's last writes its rows to one
reused buffer, and the last writes them over the coordinate rows, which no
later state reads, so a run writes no state row to that buffer.  Single
trials and checks read fresh per-trial rows from the same block loop
(`_trial_rows`).
Chunks run in this process, or, for more than one worker and chunk where
`os.fork` exists, in workers forked straight from it, each sending its
chunks' partials down its own pipe for the parent to read in grid order;
no run loads a pool stack (multiprocessing, sockets, logging).

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
keeps a running winner in form order, max-i's pick; min-eta also counts
each trial's violating runs, and only the trials with two or more re-pick
by the per-run eta_req competition.  No per-form sum or matrix is built
and no BLAS call is made.  The exact operator route in `quantum`/`chsh`,
fed by the scalar samplers' directions, computes the same numbers one
trial at a time and serves as the independent cross-check (see tests and
the CLI verify command).
"""

from __future__ import annotations

import math
import os
import pickle
import platform
import signal
import time
from contextlib import ExitStack
from dataclasses import asdict, dataclass, replace
from functools import lru_cache, partial
from itertools import combinations, cycle, islice, product, starmap

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

# The most histogram bins and curve points a config may ask for: each is a
# threshold that every chunk counts, and a count in each partial.
MAX_POINTS = 100_000

# The median of I given violation comes from integer counts on bins of width
# 2**-16 up to the first edge past the Tsirelson bound, which caps every I,
# the last bin open above.  Scaling by a power of two is exact, so a value's
# bin is exact too.
_I_SCALE = 2.0 ** 16
_I_BINS = math.ceil(chsh.TSIRELSON_BOUND * _I_SCALE)


class ExperimentAborted(RuntimeError):
    """A trial error aborted the experiment; carries partial progress."""

    def __init__(self, message: str, completed_trials: int, trials: int):
        super().__init__(message)
        self.completed_trials = completed_trials
        self.trials = trials


def _whole(name: str, value) -> int:
    """value as an int; ValueError unless it is a whole number (4e6 is)."""
    try:
        whole = int(value)
    except (OverflowError, TypeError, ValueError):
        whole = None
    if whole is None or whole != value:
        raise ValueError(f"{name} must be a whole number, got {value!r}")
    return whole


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
        NoisyState.from_ratio(self.alpha_ratio, self.visibility)  # ValueError if it cannot be made
        for name in ("trials", "histogram_bins", "workers"):
            object.__setattr__(self, name, _whole(name, getattr(self, name)))
        if self.trials <= 0:
            raise ValueError("trials must be positive")
        if self.trials > 2**64:  # the trial streams' index range
            raise ValueError("trials must be at most 2**64")
        if not 0 < self.histogram_bins <= MAX_POINTS:
            raise ValueError(f"histogram_bins must lie in [1, {MAX_POINTS}]")
        start, stop, step = self.eta_grid
        if not (start >= 0.6 and stop <= 1.0 and step > 0 and start < stop):
            raise ValueError("eta grid must satisfy 0.6 <= start < stop <= 1.0, step > 0")
        # eta_grid_points' count, floor(...) + 1, is at most MAX_POINTS, with
        # no overflow for a step too small to count
        if not (stop - start) / step + 1e-9 < MAX_POINTS:
            raise ValueError(f"eta grid must have at most {MAX_POINTS} points")
        if self.selection_policy not in ("max-i", "min-eta"):
            raise ValueError(f"selection_policy must be 'max-i' or 'min-eta', got {self.selection_policy!r}")
        if self.workers <= 0:
            raise ValueError("workers must be positive")
        object.__setattr__(self, "master_seed", int(self.master_seed) & _MASK64)

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
    counts are cumulative (trials with eta_req at most each of
    `_thresholds`) or per bin (I), so adding and merging are exact integer
    additions; the float sum of I is added in block order.  The defaults
    are those of no trials.
    """

    at_most: np.ndarray  # eta_req <= each of `_thresholds`
    i_counts: np.ndarray  # I per bin of width 1 / _I_SCALE; int32 per chunk, int64 merged
    violating: int = 0
    i_sum: float = 0.0
    i_top: float = -math.inf  # the largest I
    eta_min: float = math.inf
    eta_max: float = -math.inf

    @classmethod
    def empty(cls, config: ScenarioConfig, i_dtype) -> "_Partial":
        """The partial of no trials of config, its I counts of i_dtype."""
        return cls(np.zeros(len(_thresholds(config)), np.intp), np.zeros(_I_BINS, i_dtype))

    @property
    def nbytes(self) -> int:
        """Bytes of its counts and of its five scalars, 8 each."""
        return self.at_most.nbytes + self.i_counts.nbytes + 5 * 8

    def add_block(self, i_max: np.ndarray, eta: np.ndarray, thresholds: np.ndarray,
                  spare: np.ndarray) -> None:
        """Add a block's I and eta_req, NaN where I <= 0, of each trial; its
        violating values go to the three rows of `spare`.  Sorted, eta_req
        gives every eta count by one search of the thresholds, several
        times cheaper than a search per trial.  I needs no sort: its bin is
        its scaled value, truncated, counted up to the block's largest bin."""
        columns = np.flatnonzero(np.greater(i_max, 0.0, out=spare[2].view(bool)[:len(i_max)]))
        n = len(columns)
        if not n:
            return
        # "clip" writes unbuffered
        i_max = i_max.take(columns, out=spare[0, :n], mode="clip")
        eta = eta.take(columns, out=spare[1, :n], mode="clip")
        eta.sort()
        self.violating += n
        self.at_most += eta.searchsorted(thresholds, "right")
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
        self.at_most += other.at_most
        self.i_counts += other.i_counts
        self.i_sum += other.i_sum
        self.i_top = max(self.i_top, other.i_top)
        self.eta_min = min(self.eta_min, other.eta_min)
        self.eta_max = max(self.eta_max, other.eta_max)
        return self


def wilson_interval(successes, total: int):
    """95% Wilson score interval (low, high) for a binomial proportion;
    elementwise, as arrays, if successes is an array."""
    if total <= 0:
        raise ValueError("total must be positive")
    if not np.all(np.greater_equal(successes, 0) & np.less_equal(successes, total)):
        raise ValueError("successes must lie in [0, total]")
    p = np.divide(successes, total)
    z2 = _WILSON_Z * _WILSON_Z
    denom = 1.0 + z2 / total
    center = (p + z2 / (2.0 * total)) / denom
    half = _WILSON_Z * np.sqrt(p * (1.0 - p) / total + z2 / (4.0 * total * total)) / denom
    # the interval contains the point estimate analytically; enforce it
    # against the last-ulp rounding at p = 0 and p = 1
    low = np.minimum(np.maximum(0.0, center - half), p)
    high = np.maximum(np.minimum(1.0, center + half), p)
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
    three of them then a state's violating values.  The pool's rows are the
    map's scratch, and then the products z_a z_b and the rows of every
    state but a block's last, which writes its rows over the coordinate
    rows; in all 1,900,544 B at two settings and 3,080,192 B at three.  A
    page is resident only once written, so a one-state run holds the rows
    it touches: 20 for RIM, 36 for ROTM, and all 29 for ROM, whose map's
    scratch spans the state rows' buffer.  A shorter block takes views of
    the first columns.  One block loop at a time may use them.
    """
    s = settings_per_party
    coords = s * s + 2 * s
    pool = max(sampling.SCRATCH_ROWS, s * s + coords)
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
    products z_a z_b, one row per (x, y), which are only read.  Each row of
    `out` is written elementwise from the same row of `rows` alone, so `out`
    may be `rows` itself, when no later state reads them."""
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
    and marginal rows from them and runs the forms on them: every state but
    the last into the pool, the last, whose rows no later state reads, over
    the coordinate rows.  Every step is elementwise per trial and the
    generator is counter-based, so the blocks change no bit and each
    state's rows are those of a run on that state alone.
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
        z_a, z_b = rows[s * s:s * s + s], rows[s * s + s:]
        np.multiply(z_a[:, None], z_b[None], out=z_products.reshape(s, s, n))
        for k, state in enumerate(noisy):
            # the last state writes over the coordinate rows: no later state reads them
            state_rows = _state_rows(state, s, rows, z_products,
                                     own if k < len(noisy) - 1 else rows)
            # the values are bounded, so their sum is finite exactly when they are
            with np.errstate(invalid="ignore"):  # an inf and a -inf sum to NaN
                total = state_rows.sum()
            if not math.isfinite(total):
                finite = np.isfinite(state_rows).all(axis=0)
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
    thresholds = _thresholds(config)
    # a chunk's I counts fit int32, which halves what a worker sends
    parts = [_Partial.empty(config, np.int32) for _ in states]
    for _, k, i_max, eta, spare in _block_winners(config, lo, hi, states):
        parts[k].add_block(i_max, eta, thresholds, spare)
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
    if not 0 <= trial_index < 1 << 64:
        raise ValueError("trial_index must lie in [0, 2**64)")
    [[i_max]], [[eta]] = _trial_rows(config, trial_index, trial_index + 1)
    violated = bool(i_max > 0.0)
    return TrialOutcome(
        trial_index=trial_index,
        i_max=float(i_max),
        violated=violated,
        eta_req=float(eta) if violated else None,
    )


def _chunk_grid(trials: int):
    """(lo, hi) of each chunk, in order, made as they are read."""
    return ((lo, min(lo + CHUNK_TRIALS, trials)) for lo in range(0, trials, CHUNK_TRIALS))


def _histogram_edges(config: ScenarioConfig) -> np.ndarray:
    return np.linspace(0.6, 1.0, config.histogram_bins + 1)


def _thresholds(config: ScenarioConfig) -> np.ndarray:
    """What `_Partial.at_most` counts eta_req up to: each histogram edge but
    the last less one ulp, so that eta_req <= it counts eta_req < the edge;
    the last edge, which np.histogram's last bin includes; the curve grid;
    NAMED_ETAS."""
    edges = _histogram_edges(config)
    return np.concatenate([np.nextafter(edges[:-1], -np.inf), edges[-1:],
                           config.eta_grid_points(), NAMED_ETAS])


def _chunk_partial(config: ScenarioConfig, lo: int, hi: int, states) -> list[_Partial]:
    """The pool's task: `_evaluate_chunk`, looked up when it runs."""
    return _evaluate_chunk(config, lo, hi, states)


class _BrokenPool(RuntimeError):
    """A pool worker died before it sent all its chunks."""


def _work(fd: int, others: list[int], tasks) -> None:
    """A forked worker's life: it ignores SIGINT, since an interrupt is the
    parent's to handle, closes the other workers' read ends, pickles each
    task's partials, or the exception the task raised and its traceback,
    to its pipe `fd`, and leaves by `os._exit`, which runs none of the
    parent's cleanup."""
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        for other in others:
            os.close(other)
        with open(fd, "wb") as pipe:
            for task in tasks:
                try:
                    result = _chunk_partial(*task)
                except Exception as exc:
                    import traceback

                    result = exc, traceback.format_exc()
                pickle.dump(result, pipe)
                pipe.flush()
                if isinstance(result, tuple):
                    break
    finally:
        os._exit(0)


def _receive(pipe):
    """The next chunk's partials from a worker's pipe; the exception its
    chunk raised is raised here, caused by the worker's traceback."""
    try:
        result = pickle.load(pipe)
    except (EOFError, pickle.UnpicklingError) as exc:
        raise _BrokenPool("A process in the process pool was terminated abruptly") from exc
    if isinstance(result, tuple):
        exc, trace = result
        raise exc from RuntimeError(f"in a pool worker:\n{trace}")
    return result


def _reap(pid: int) -> None:
    os.kill(pid, signal.SIGKILL)
    os.waitpid(pid, 0)


def _forked(tasks, workers: int, stack: ExitStack):
    """Each task's partials, in order, from `workers` processes forked from
    this one: worker w runs tasks w, w + workers, ... and the parent reads
    the workers' pipes in turn.  A worker blocks once its pipe is full, so
    it runs at most a chunk or two ahead of the merge.  `stack` kills and
    reaps every worker when it closes.  Forked, not spawned, a worker starts
    at once with this process's modules as they are, any function replaced
    in them included."""
    pipes = []
    for w in range(workers):
        read, write = os.pipe()
        pid = os.fork()
        if pid == 0:
            _work(write, [read, *(pipe.fileno() for pipe in pipes)],
                  islice(tasks, w, None, workers))
        os.close(write)
        stack.callback(_reap, pid)
        pipes.append(stack.enter_context(open(read, "rb")))
    return map(_receive, cycle(pipes))


def _collect_chunks(config: ScenarioConfig, progress=None, states=None):
    """The merged partial of every chunk, one per config of `states`, by
    default config alone.

    `states` share config's trial streams and differ from it in alpha_ratio
    and visibility only.  Chunks are consumed in grid order, in this process
    for one worker or one chunk, or where `os.fork` is missing, and
    otherwise from workers forked from this process, no more than the
    chunks, each sending its chunks' partials down its own pipe.  Each
    state's partial is merged as it arrives into that state's total, which
    starts as the empty partial, so peak memory is one total per state plus
    the chunks in flight, whatever the trial count.  Progress and abort
    counts are trials times states.  A trial error in any state, a dead
    worker process or an interrupt aborts the whole run with the count of
    trials completed, in order, before it.  Every worker is killed and
    reaped before this returns or raises.
    """
    states = states or (config,)
    total = len(states) * config.trials
    started = time.perf_counter()
    done = 0
    # the totals' I counts may outgrow a chunk's int32
    totals = [_Partial.empty(config, np.int64) for _ in states]
    tasks = ((config, lo, hi, states) for lo, hi in _chunk_grid(config.trials))
    workers = min(config.workers, -(-config.trials // CHUNK_TRIALS))
    try:
        with ExitStack() as stack:
            if workers > 1 and hasattr(os, "fork"):
                parts = _forked(tasks, workers, stack)
            else:
                parts = starmap(_chunk_partial, tasks)
            for _, hi in _chunk_grid(config.trials):
                # taken inside the merge, so no name holds a chunk's partials
                # while the next one is made
                totals = [t.merge(p) for t, p in zip(totals, next(parts))]
                done = len(states) * hi
                if progress is not None:
                    progress(done, total, time.perf_counter() - started)
    except (NumericalConsistencyError, _BrokenPool) as exc:
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

    edges = _histogram_edges(config)
    histogram = EfficiencyHistogram(bin_edges=edges, counts=np.diff(total.at_most[:len(edges)]),
                                    total_trials=config.trials, violating_trials=n_viol)

    # the curve grid's counts, then the named etas'
    cum = total.at_most[len(edges):]
    p_viol = cum / config.trials
    ci_low, ci_high = wilson_interval(cum, config.trials)
    grid = config.eta_grid_points()
    n = len(grid)
    curve = ViolationCurve(etas=grid, p_viol=p_viol[:n], ci_low=ci_low[:n], ci_high=ci_high[:n])
    named = [f"{point:g}" for point in NAMED_ETAS]
    named_p = dict(zip(named, p_viol[n:].tolist()))
    named_ci = dict(zip(named, np.stack([ci_low[n:], ci_high[n:]], axis=1).tolist()))

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


def _platform() -> str:
    """System, release, machine and C library, as in
    Linux-6.1.0-x86_64-with-glibc2.36: on Linux the string of
    `platform.platform()` but for its processor field, which it looks up by
    running `uname -p` and which is blank there or repeats the machine."""
    libc = "".join(platform.libc_ver())
    return "-".join(filter(None, [platform.system(), platform.release(), platform.machine(),
                                  libc and "with-" + libc]))


def _manifest(config: ScenarioConfig) -> dict:
    """What ran a result: software versions, platform and chunk grid."""
    from . import __version__  # the package sets it after importing this module

    return {
        "randbell": __version__,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "platform": _platform(),
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
