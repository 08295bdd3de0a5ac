"""Orchestration checks: determinism, kernel vs exact-route agreement,
aggregation invariants, and worker-count independence."""

import itertools
import json
import math
import os
import signal
import subprocess
import sys
import time
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

import randbell.chsh as chsh
import randbell.montecarlo as mc
import randbell.quantum as quantum
from randbell import (
    NumericalConsistencyError,
    ScenarioConfig,
    build_probability_table,
    enumerate_forms,
    joint_probability,
    marginal_probability,
    max_violation,
    projector_from_direction,
    run_experiment,
    run_trial,
    sweep,
    wilson_interval,
)
from randbell.chsh import form_coefficients
from randbell.cli import _exact_settings
from randbell.montecarlo import ExperimentAborted, _evaluate_chunk, _trial_rows
from randbell.sampling import RandomSource, uniform_block


def _exact_trial(config, trial_index):
    """Per-trial evaluation through the exact operator route."""
    a_dirs, b_dirs = _exact_settings(config, trial_index)
    table = build_probability_table(config.state, a_dirs, b_dirs)
    forms = enumerate_forms(config.settings_per_party)
    return max_violation(table, forms, policy=config.selection_policy)


def _assert_same_tables(got, want):
    """Every field of two results' histograms and curves is bit for bit
    the same."""
    for table in ("histogram", "curve"):
        for field in fields(getattr(got, table)):
            np.testing.assert_array_equal(getattr(getattr(got, table), field.name),
                                          getattr(getattr(want, table), field.name),
                                          f"{table}.{field.name}")


def _dense_winner(coords, s, policy):
    """(i_max, eta_req) from every form's value at once: coords @ weights +
    const, then the argmax, or for min-eta the argmin of eta_req over the
    violating forms.  coords holds one trial per row."""
    const, weights, n_const, n_a, n_b = form_coefficients(enumerate_forms(s), s)
    pa0, pb0 = coords[:, s * s:s * s + s], coords[:, s * s + s:]
    values = coords @ weights + const
    n_all = n_const + pa0 @ n_a.T + pb0 @ n_b.T
    winner = np.argmax(values, axis=1)
    if policy == "min-eta":
        with np.errstate(divide="ignore", invalid="ignore"):
            eta_all = np.where(values > 0.0, n_all / (values + n_all), np.inf)
        winner = np.where((values > 0.0).any(axis=1), np.argmin(eta_all, axis=1), winner)
    rows = np.arange(len(coords))
    i_max = values[rows, winner]
    n_win = n_all[rows, winner]
    with np.errstate(divide="ignore", invalid="ignore"):
        eta = np.where(i_max > 0.0, n_win / (i_max + n_win), np.nan)
    return i_max, eta


def _dense_chunk(config, lo, hi):
    """_dense_winner on the closed-form probabilities of trials [lo, hi)."""
    s, state = config.settings_per_party, config.state
    rows = mc._SETTINGS_FROM_UNIFORMS[config.scenario](uniform_block(config.master_seed, lo, hi))
    inplane = rows[:s * s].reshape(s, s, -1)
    z_a, z_b = rows[s * s:s * s + s], rows[s * s + s:]
    coords = np.concatenate([
        quantum.joint_outcome00(state, z_a[:, None], z_b[None], inplane).reshape(s * s, -1),
        quantum.marginal_outcome0(state, z_a, "A"), quantum.marginal_outcome0(state, z_b, "B")])
    return _dense_winner(coords.T, s, config.selection_policy)


def _block_sum(i_max):
    """The float sum of the positive I of a chunk's trials as a chunk takes
    it: one sum per block of `_BLOCK_TRIALS`, added in block order."""
    total = 0.0
    for start in range(0, len(i_max), mc._BLOCK_TRIALS):
        block = i_max[start:start + mc._BLOCK_TRIALS]
        total += float(block[block > 0.0].sum())
    return total


def _violating_runs(config, lo, hi):
    """How many runs of `_run_values` have S > 2, that is I > 0, on each of
    trials [lo, hi), from each block's state rows as `_block_winners`
    writes them."""
    s = config.settings_per_party
    counts = np.zeros(hi - lo, dtype=int)
    for start in range(lo, hi, mc._BLOCK_TRIALS):
        stop = min(start + mc._BLOCK_TRIALS, hi)
        rows = mc._SETTINGS_FROM_UNIFORMS[config.scenario](
            uniform_block(config.master_seed, start, stop))
        z_a, z_b = rows[s * s:s * s + s], rows[s * s + s:]
        z_products = (z_a[:, None] * z_b[None]).reshape(s * s, -1)
        rows = mc._state_rows(config.state, s, rows, z_products, np.empty_like(rows))
        for value in mc._run_values(rows, s):
            counts[start - lo:stop - lo] += value > 2.0
    return counts


def _with_correlators(coords, s):
    """The form stage's rows (D = 8 p00 - 4 pA0 - 4 pB0 + 2 for each (x, y),
    pA0, pB0) of probability coordinates (p00 for each (x, y), pA0, pB0),
    one trial per column; exact on tables in 64ths."""
    pa0, pb0 = coords[s * s:s * s + s], coords[s * s + s:]
    d = 8 * coords[:s * s].reshape(s, s, -1) - 4 * pa0[:, None] - 4 * pb0[None] + 2
    return np.concatenate([d.reshape(s * s, -1), pa0, pb0])


# Probability coordinates (p00 for each (x, y), pA0, pB0), in eighths, on
# which violating forms tie exactly: on the max I but not on N, or on the
# min eta_req but not on I.  Not quantum tables; the form stage needs none.
_TIED_TABLES = {
    2: [[4, 5, 6, 7, 1, 5, 7, 2], [4, 0, 1, 7, 5, 2, 5, 6]],
    3: [[5, 6, 0, 5, 2, 3, 7, 7, 0, 4, 0, 5, 7, 4, 2]],
}


class TestScenarioConfig:
    def test_defaults(self):
        config = ScenarioConfig(scenario="rim")
        assert config.trials == 4_000_000
        assert config.eta_grid_points()[0] == 0.6
        assert config.eta_grid_points()[-1] == 1.0
        assert len(config.eta_grid_points()) == 401

    @pytest.mark.parametrize("grid,points", [
        ((0.6, 1.0, 0.15), [0.6, 0.75, 0.9]),
        ((0.6, 0.7, 0.1), [0.6, 0.7]),  # (stop - start) / step is 0.9999999999999998
    ])
    def test_eta_grid_stays_within_stop(self, grid, points):
        # test_defaults pins the default grid: 401 points from 0.6 to 1.0
        np.testing.assert_array_equal(
            ScenarioConfig(scenario="rim", eta_grid=grid).eta_grid_points(), points)

    def test_state_conversion(self):
        config = ScenarioConfig(scenario="rim", alpha_ratio=0.5)
        state = config.state
        assert state.pure.alpha / state.pure.beta == pytest.approx(0.5, abs=1e-14)

    @pytest.mark.parametrize("kwargs", [
        {"scenario": "bad"},
        {"scenario": "rim", "trials": 0},
        {"scenario": "rim", "alpha_ratio": -1.0},
        {"scenario": "rim", "visibility": 1.5},
        {"scenario": "rim", "eta_grid": (0.5, 1.0, 0.001)},
        {"scenario": "rim", "eta_grid": (0.7, 1.1, 0.001)},
        {"scenario": "rim", "eta_grid": (0.7, 1.0, -0.1)},
        {"scenario": "rim", "selection_policy": "best"},
        {"scenario": "rim", "workers": 0},
        {"scenario": "rim", "histogram_bins": 0},
        {"scenario": "rim", "alpha_ratio": 1e200},
        {"scenario": "rim", "trials": 2.7},
        {"scenario": "rim", "trials": math.inf},
        {"scenario": "rim", "workers": 1.5},
        {"scenario": "rim", "histogram_bins": 10.5},
        {"scenario": "rim", "histogram_bins": mc.MAX_POINTS + 1},
        {"scenario": "rim", "histogram_bins": 10**10},
        {"scenario": "rim", "eta_grid": (0.6, 1.0, 1e-12)},
        {"scenario": "rim", "eta_grid": (0.6, 1.0, 5e-324)},
        {"scenario": "rim", "master_seed": 1.5},
        {"scenario": "rim", "master_seed": "7"},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ScenarioConfig(**kwargs)

    def test_whole_numbers_of_any_type(self):
        config = ScenarioConfig(scenario="rim", trials=4e6, histogram_bins=np.int64(50),
                                workers=2.0, master_seed=7.0)
        fields = (config.trials, config.histogram_bins, config.workers, config.master_seed)
        assert fields == (4_000_000, 50, 2, 7)
        assert all(type(v) is int for v in fields)
        # seeds are taken mod 2**64, negative and large ones too
        for seed, key in ((np.int64(-1), 2**64 - 1), (-(2**64) - 3, 2**64 - 3), (2**64 + 5, 5)):
            assert ScenarioConfig(scenario="rim", master_seed=seed).master_seed == key

    def test_points_up_to_the_cap(self):
        # every histogram edge and curve point is a threshold each chunk
        # counts, so both are capped rather than left to exhaust memory
        config = ScenarioConfig(scenario="rim", histogram_bins=mc.MAX_POINTS,
                                eta_grid=(0.6, 1.0, 0.4 / (mc.MAX_POINTS - 1)))
        assert len(config.eta_grid_points()) == mc.MAX_POINTS
        with pytest.raises(ValueError, match="at most 100000 points"):
            replace(config, eta_grid=(0.6, 1.0, 0.4 / mc.MAX_POINTS))

    def test_trials_within_the_stream_index_range(self):
        # uniform_block serves trial indices below 2**64 only
        assert ScenarioConfig(scenario="rim", trials=2**64).trials == 2**64
        with pytest.raises(ValueError, match=r"trials must be at most 2\*\*64"):
            ScenarioConfig(scenario="rim", trials=2**64 + 1)
        with pytest.raises(ValueError, match="trials must be positive"):
            ScenarioConfig(scenario="rim", trials=-(2**64))


class TestRunTrial:
    def test_bitwise_determinism(self):
        config = ScenarioConfig(scenario="rotm", trials=10, master_seed=3)
        for i in (0, 5, 9):
            a = run_trial(config, i)
            b = run_trial(config, i)
            assert a == b

    def test_zero_visibility_never_violates(self):
        config = ScenarioConfig(scenario="rotm", visibility=0.0, trials=100)
        for i in range(100):
            assert not run_trial(config, i).violated

    def test_rotm_mes_always_violates(self):
        config = ScenarioConfig(scenario="rotm", alpha_ratio=1.0, trials=200)
        outcomes = [run_trial(config, i) for i in range(200)]
        assert all(t.violated for t in outcomes)
        assert all(t.eta_req > 2.0 / (1.0 + np.sqrt(2.0)) - 1e-9 for t in outcomes)

    @pytest.mark.parametrize("scenario,n", [("rim", 200), ("rom", 200), ("rotm", 50)])
    def test_kernel_matches_exact_route(self, scenario, n):
        config = ScenarioConfig(scenario=scenario, alpha_ratio=0.7, trials=n,
                                master_seed=17)
        for i in range(n):
            fast = run_trial(config, i)
            exact = _exact_trial(config, i)
            assert abs(fast.i_max - exact.i_value) < 1e-12
            assert fast.violated == (exact.eta_req is not None)
            if fast.violated:
                assert abs(fast.eta_req - exact.eta_req) < 1e-10

    @pytest.mark.parametrize("scenario,n", [("rim", 150), ("rom", 150), ("rotm", 50)])
    def test_kernel_matches_exact_route_min_eta(self, scenario, n):
        config = ScenarioConfig(scenario=scenario, alpha_ratio=0.6, trials=n,
                                master_seed=23, selection_policy="min-eta")
        for i in range(n):
            fast = run_trial(config, i)
            exact = _exact_trial(config, i)
            assert abs(fast.i_max - exact.i_value) < 1e-12
            assert fast.violated == (exact.eta_req is not None)
            if fast.violated:
                assert abs(fast.eta_req - exact.eta_req) < 1e-10

    @pytest.mark.parametrize("scenario", ["rim", "rom", "rotm"])
    @pytest.mark.parametrize("policy", ["max-i", "min-eta"])
    def test_single_trial_equals_its_chunk_row(self, scenario, policy):
        config = ScenarioConfig(scenario=scenario, alpha_ratio=0.5, visibility=0.95,
                                master_seed=7, selection_policy=policy)
        (i_max,), (eta,) = _trial_rows(config, 0, 40)
        for i in range(40):
            outcome = run_trial(config, i)
            assert outcome.i_max == i_max[i]
            assert outcome.eta_req == (eta[i] if outcome.violated else None)

    @pytest.mark.parametrize("scenario", ["rim", "rom", "rotm"])
    @pytest.mark.parametrize("policy", ["max-i", "min-eta"])
    def test_blocks_change_no_bit(self, scenario, policy):
        # three blocks, the last partial, off the chunk and block grids
        config = ScenarioConfig(scenario=scenario, alpha_ratio=0.5, visibility=0.95,
                                master_seed=7, selection_policy=policy)
        block = mc._BLOCK_TRIALS
        lo = 3 * mc.CHUNK_TRIALS + 1234
        hi = lo + 2 * block + 17
        whole = _trial_rows(config, lo, hi)
        split = zip(_trial_rows(config, lo, lo + 5000),
                    _trial_rows(config, lo + 5000, hi))
        for got, parts in zip(whole, split):
            assert got.tobytes() == np.concatenate(parts, axis=1).tobytes()
        (i_max,), (eta,) = whole
        ends = [lo, lo + block - 1, lo + block, lo + 2 * block - 1, lo + 2 * block, hi - 1]
        inner = np.random.default_rng(0).choice(np.arange(lo + 1, hi - 1), 14, replace=False)
        for trial in ends + inner.tolist():
            outcome = run_trial(config, trial)
            assert outcome.i_max == i_max[trial - lo]
            assert outcome.eta_req == (eta[trial - lo] if outcome.violated else None)

    def test_negative_index(self):
        with pytest.raises(ValueError):
            run_trial(ScenarioConfig(scenario="rim"), -1)

    def test_index_below_2_to_the_64(self):
        # RandomSource reduces a trial index mod 2**64 and the block kernel
        # does not, so past that range the kernel's row is no trial's
        config = ScenarioConfig(scenario="rom", alpha_ratio=0.7, master_seed=7)
        past = (1 << 64) + 5
        assert (uniform_block(7, past, past + 1)[0] != RandomSource(7, past).uniform(8)).any()
        with pytest.raises(ValueError):
            run_trial(config, 1 << 64)
        last = (1 << 64) - 1
        fast = run_trial(config, last)
        exact = _exact_trial(config, last)
        assert abs(fast.i_max - exact.i_value) < 1e-12
        assert fast.violated == (exact.eta_req is not None)
        if fast.violated:
            assert abs(fast.eta_req - exact.eta_req) < 1e-10
        np.testing.assert_array_equal(uniform_block(7, last, last + 1)[0],
                                      RandomSource(7, last).uniform(8))


@pytest.fixture(scope="module")
def small_run():
    config = ScenarioConfig(scenario="rim", trials=40_000, master_seed=5)
    return run_experiment(config)


class TestRunExperiment:

    def test_curve_endpoint_exact(self, small_run):
        curve = small_run.curve
        hist = small_run.histogram
        assert curve.etas[-1] == 1.0
        assert curve.p_viol[-1] == hist.violating_trials / hist.total_trials

    def test_curve_monotone(self, small_run):
        assert (np.diff(small_run.curve.p_viol) >= 0).all()

    def test_curve_ci_brackets(self, small_run):
        c = small_run.curve
        assert (c.ci_low <= c.p_viol + 1e-15).all()
        assert (c.ci_high >= c.p_viol - 1e-15).all()

    def test_histogram_counts(self, small_run):
        h = small_run.histogram
        assert h.counts.sum() == h.violating_trials
        assert h.violating_trials <= h.total_trials
        assert len(h.bin_edges) == len(h.counts) + 1

    def test_summary_fields(self, small_run):
        s = small_run.summary
        assert s["total_trials"] == 40_000
        assert s["violating_trials"] == small_run.histogram.violating_trials
        assert s["p_viol"]["1"] == small_run.curve.p_viol[-1]
        assert s["min_eta_req"] > 2.0 / (1.0 + np.sqrt(2.0)) - 1e-9
        assert s["i_max_given_violation"]["mean"] > 0

    def test_trial_outcomes_match_experiment(self, small_run):
        config = small_run.config
        [[i_max]], _ = _trial_rows(config, 123, 124)
        outcome = run_trial(config, 123)
        assert outcome.i_max == i_max

    def test_rim_mes_probability(self, small_run):
        # loose 6-sigma band around the known random-isotropic value
        p = small_run.curve.p_viol[-1]
        assert abs(p - 0.2835) < 6 * np.sqrt(0.2835 * 0.7165 / 40_000)


class TestChunkKernel:
    @pytest.mark.parametrize("scenario", ["rim", "rom", "rotm"])
    @pytest.mark.parametrize("policy", ["max-i", "min-eta"])
    @pytest.mark.parametrize("visibility", [0.9, 0.0])
    def test_equals_dense_reference(self, scenario, policy, visibility):
        # The closed form sums the rows in another order than the dense
        # matmul, so the values may differ in the last ulp, but no trial may
        # change its violation.  At visibility 0 every form ties.
        config = ScenarioConfig(scenario=scenario, alpha_ratio=0.6, visibility=visibility,
                                master_seed=31, selection_policy=policy)
        for lo, hi in ((0, 4096), (70_000, 70_500)):
            (i_max,), (eta,) = _trial_rows(config, lo, hi)
            ref_i, ref_eta = _dense_chunk(config, lo, hi)
            np.testing.assert_array_equal(i_max > 0.0, ref_i > 0.0)
            np.testing.assert_array_equal(np.isnan(eta), np.isnan(ref_eta))
            assert np.abs(i_max - ref_i).max() <= 1e-15
            violated = ~np.isnan(eta)
            assert np.abs(eta[violated] - ref_eta[violated]).max(initial=0.0) <= 1e-15

    @pytest.mark.parametrize("s", [2, 3])
    @pytest.mark.parametrize("policy", ["max-i", "min-eta"])
    def test_equals_dense_reference_on_tables_in_64ths(self, s, policy):
        # Every sum is exact on these tables, so both routes must agree bit
        # for bit, ties included (exact ties between setting choices are
        # common).  p00 is drawn within its Frechet bounds.
        rng = np.random.default_rng(64 + s)
        n = 100_000
        pa0 = rng.integers(0, 65, size=(s, n))
        pb0 = rng.integers(0, 65, size=(s, n))
        low = np.maximum(0, pa0[:, None] + pb0[None] - 64)
        high = np.minimum(pa0[:, None], pb0[None])
        p00 = low + (rng.random(low.shape) * (high - low + 1)).astype(np.int64)
        coords = np.concatenate([p00.reshape(s * s, n), pa0, pb0]) / 64
        i_max, eta = mc._forms_winner(_with_correlators(coords, s), s, policy)
        ref_i, ref_eta = _dense_winner(coords.T, s, policy)
        np.testing.assert_array_equal(i_max, ref_i)
        np.testing.assert_array_equal(eta, ref_eta)
        assert (i_max > 0.0).any() and (i_max <= 0.0).any()

    @pytest.mark.parametrize("s", [2, 3])
    @pytest.mark.parametrize("policy", ["max-i", "min-eta"])
    def test_exact_ties_go_to_the_lowest_form(self, s, policy):
        coords = np.array(_TIED_TABLES[s], dtype=float) / 8
        i_max, eta = mc._forms_winner(_with_correlators(coords.T, s), s, policy)
        ref_i, ref_eta = _dense_winner(coords, s, policy)
        np.testing.assert_array_equal(i_max, ref_i)
        np.testing.assert_array_equal(eta, ref_eta)

    def test_rom_never_beats_rotm(self):
        # ROM's settings are ROTM's first two axes on the same uniforms, and
        # its 8 forms are among ROTM's 72, so no trial can do better
        lo, hi = 3 * mc.CHUNK_TRIALS, 4 * mc.CHUNK_TRIALS
        i_max = {}
        for scenario in ("rom", "rotm"):
            (i_max[scenario],), _ = _trial_rows(
                ScenarioConfig(scenario=scenario, alpha_ratio=0.5, visibility=0.95,
                               master_seed=19), lo, hi)
        assert (i_max["rom"] <= i_max["rotm"]).all()

    @staticmethod
    def _both_policies(scenario, ratio, visibility, seed):
        rows = []
        for policy in ("max-i", "min-eta"):
            (i_max,), (eta,) = _trial_rows(
                ScenarioConfig(scenario=scenario, alpha_ratio=ratio, visibility=visibility,
                               master_seed=seed, selection_policy=policy),
                0, mc.CHUNK_TRIALS)
            rows.append((i_max, eta))
        return rows

    @pytest.mark.parametrize("scenario", ["rim", "rom"])
    @pytest.mark.parametrize("ratio,visibility,seed", [(1.0, 1.0, 2), (0.5, 1.0, 5),
                                                       (0.5, 0.95, 8)])
    def test_selection_policy_moot_for_two_settings(self, scenario, ratio, visibility, seed):
        # Of a setting pair's 8 forms (+-S_k - 2)/4 at most one is positive,
        # since |S_k| + |S_j| <= 4, so both policies pick the same form.
        (i_a, eta_a), (i_b, eta_b) = self._both_policies(scenario, ratio, visibility, seed)
        np.testing.assert_array_equal(i_a, i_b)
        np.testing.assert_array_equal(eta_a, eta_b)
        # so min-eta's re-pick, which needs two violating runs, never runs
        config = ScenarioConfig(scenario=scenario, alpha_ratio=ratio, visibility=visibility,
                                master_seed=seed)
        counts = _violating_runs(config, 0, mc.CHUNK_TRIALS)
        assert counts.max() == 1

    def test_min_eta_lowers_rotm_eta_req(self):
        # ROTM chooses among 9 setting pairs, so min-eta can beat max-i's form
        (i_a, eta_a), (i_b, eta_b) = self._both_policies("rotm", 0.5, 0.95, 8)
        np.testing.assert_array_equal(i_a > 0, i_b > 0)
        violated = i_a > 0
        assert (eta_b[violated] <= eta_a[violated]).all()
        assert (eta_b[violated] < eta_a[violated]).any()
        # min-eta's max over runs leaves a non-violating trial's I as max-i's,
        # and eta_req is set exactly on the violating trials
        assert i_b[~violated].tobytes() == i_a[~violated].tobytes()
        assert np.isnan(eta_b[~violated]).all()
        assert not np.isnan(eta_b[violated]).any()
        # a lone violating run is the unique maximum, so min-eta keeps
        # max-i's bits there and differs only where two or more runs violate
        counts = _violating_runs(ScenarioConfig(scenario="rotm", alpha_ratio=0.5,
                                                visibility=0.95, master_seed=8),
                                 0, mc.CHUNK_TRIALS)
        np.testing.assert_array_equal(counts > 0, violated)
        one = counts == 1
        assert one.any()
        assert i_b[one].tobytes() == i_a[one].tobytes()
        assert eta_b[one].tobytes() == eta_a[one].tobytes()
        differs = violated & (eta_b != eta_a)
        assert (counts[differs] >= 2).all()

    def test_nan_probability_names_its_trial(self, monkeypatch):
        original = quantum.doubled_correlator
        calls = []

        def poisoned(state, inplane, z_product, out=None):
            d = original(state, inplane, z_product, out=out)
            calls.append(None)
            if len(calls) == 1:  # one correlator of one trial
                d[0, 5] = np.nan
            return d

        monkeypatch.setattr(quantum, "doubled_correlator", poisoned)
        config = ScenarioConfig(scenario="rom", master_seed=3)
        with pytest.raises(NumericalConsistencyError, match="trial 1005"):
            _evaluate_chunk(config, 1000, 1100)

    def test_nan_probability_in_a_later_block_names_its_trial(self, monkeypatch):
        original = quantum.doubled_correlator
        calls = []

        def poisoned(state, inplane, z_product, out=None):
            d = original(state, inplane, z_product, out=out)
            calls.append(None)
            if len(calls) == 2:  # the second block's
                d[0, 5] = np.nan
            return d

        monkeypatch.setattr(quantum, "doubled_correlator", poisoned)
        config = ScenarioConfig(scenario="rom", master_seed=3)
        bad = 1000 + mc._BLOCK_TRIALS + 5
        with pytest.raises(NumericalConsistencyError, match=f"trial {bad}$"):
            _evaluate_chunk(config, 1000, 1000 + 2 * mc._BLOCK_TRIALS)

    def test_failing_trial_is_named_once(self, monkeypatch):
        original = quantum.doubled_correlator

        def poisoned(state, inplane, z_product, out=None):
            d = original(state, inplane, z_product, out=out)
            d[1, 0] = np.nan
            return d

        monkeypatch.setattr(quantum, "doubled_correlator", poisoned)
        with pytest.raises(NumericalConsistencyError) as info:
            run_trial(ScenarioConfig(scenario="rom", master_seed=3), 7)
        assert str(info.value) == "non-finite probability at trial 7"

    def test_nan_marginal_names_its_trial(self, monkeypatch):
        original = quantum.marginal_outcome0

        def poisoned(state, z, party, out=None):
            p = original(state, z, party, out=out)
            if party == "B":
                p[1, 9] = np.nan
            return p

        monkeypatch.setattr(quantum, "marginal_outcome0", poisoned)
        with pytest.raises(NumericalConsistencyError) as info:
            _evaluate_chunk(ScenarioConfig(scenario="rim", master_seed=3), 200, 300)
        assert str(info.value) == "non-finite probability at trial 209"

    def test_opposite_infinities_name_their_trial(self, monkeypatch):
        # their sum is NaN, and numpy warns of it; the check must not
        original = quantum.doubled_correlator

        def poisoned(state, inplane, z_product, out=None):
            d = original(state, inplane, z_product, out=out)
            d[0, 4], d[2, 4] = np.inf, -np.inf
            return d

        monkeypatch.setattr(quantum, "doubled_correlator", poisoned)
        with pytest.raises(NumericalConsistencyError) as info:
            _evaluate_chunk(ScenarioConfig(scenario="rotm", master_seed=3), 50, 90)
        assert str(info.value) == "non-finite probability at trial 54"


class TestFormTables:
    @pytest.mark.parametrize("s", [2, 3])
    def test_setting_choices_split_into_two_n_classes(self, s):
        # Each setting choice {x0, x1} x {y0, y1}, x0 < x1 and y0 < y1, owns 8
        # consecutive forms, in lexicographic order.  Number its pairs
        # k = 0..3 as (x0, y0), (x0, y1), (x1, y0), (x1, y1); (x0, y0) is the
        # pair whose marginals make N.  The 4 forms of class 0, with
        # N = pA0(x0) + pB0(y0), are S1, S2, S3 and -S0, the 4 of class 1, with
        # N = 1 + pA0(x0) - pB0(y0), are S0, -S1, -S2 and -S3, and each is
        # I = (S - 2) / 4 with S_k = T - D_k, T = sum(D) / 2 and
        # D = 8 p00 - 4 pA0 - 4 pB0 + 2.  Within a block the forms come as
        # (class, sign, k) below, which sets the stage's runs.
        order = [(0, 1, 3), (0, 1, 1), (1, -1, 1), (1, -1, 3),
                 (0, 1, 2), (0, -1, 0), (1, 1, 0), (1, -1, 2)]
        n_classes = [(0.0, 1.0), (1.0, -1.0)]  # (n_const, n_b[y0]); n_a[x0] = 1
        const, weights, n_const, n_a, n_b = form_coefficients(enumerate_forms(s), s)
        one = np.eye(s * s + 2 * s + 1)[-1]  # over (coordinates, constant)
        blocks = [(xs, ys) for xs in itertools.combinations(range(s), 2)
                  for ys in itertools.combinations(range(s), 2)]
        assert len(const) == 8 * len(blocks)
        for first, ((x0, x1), (y0, y1)) in zip(range(0, len(const), 8), blocks):
            pairs = [(x0, y0), (x0, y1), (x1, y0), (x1, y1)]
            d = np.zeros((4, len(one)))
            for k, (x, y) in enumerate(pairs):
                d[k, [x * s + y, s * s + x, s * s + s + y, -1]] = 8, -4, -4, 2
            t = d.sum(axis=0) / 2
            for f, (n_class, sign, k) in zip(range(first, first + 8), order):
                n_const_f, n_b_f = n_classes[n_class]
                assert n_const[f] == n_const_f
                np.testing.assert_array_equal(n_a[f], np.eye(s)[x0])
                np.testing.assert_array_equal(n_b[f], n_b_f * np.eye(s)[y0])
                np.testing.assert_array_equal(np.append(weights[:, f], const[f]),
                                              (sign * (t - d[k]) - 2 * one) / 4)
        # the stage's choices: each one's pair rows, in the blocks' order
        assert mc._form_tables(s)[0] == tuple(
            (x0 * s + y0, x0 * s + y1, x1 * s + y0, x1 * s + y1)
            for (x0, x1), (y0, y1) in blocks)

    @pytest.mark.parametrize("s", [2, 3])
    def test_run_values_are_the_best_s_of_each_pair_of_forms(self, s):
        # tables in 64ths, on which every sum below is exact: run r's value
        # is, bit for bit, the larger S = 4I + 2 of forms 2r and 2r + 1 of
        # the dense weights, and the tables' N is those forms' N
        const, weights, n_const, n_a, n_b = form_coefficients(enumerate_forms(s), s)
        rng = np.random.default_rng(8)
        p00, pa0, pb0 = (rng.integers(0, 65, (n, 500)) / 64 for n in (s * s, s, s))
        d = 8 * p00 - 4 * np.repeat(pa0, s, axis=0) - 4 * np.tile(pb0, (s, 1)) + 2
        rows = np.concatenate([d, pa0, pb0])
        s_forms = 4 * (weights.T @ np.concatenate([p00, pa0, pb0]) + const[:, None]) + 2
        n_forms = n_const[:, None] + n_a @ pa0 + n_b @ pb0
        _, run_n_const, terms = mc._form_tables(s)
        values = [value.copy() for value in mc._run_values(rows, s)]
        assert len(values) == len(const) // 2
        for run, value in enumerate(values):
            np.testing.assert_array_equal(value, s_forms[2 * run:2 * run + 2].max(axis=0))
            n = run_n_const[run] + sum(c[run] * rows[row] for row, c in terms)
            np.testing.assert_array_equal(n, n_forms[2 * run])
            np.testing.assert_array_equal(n, n_forms[2 * run + 1])

    @pytest.mark.parametrize("s", [2, 3])
    def test_tables_come_from_the_module_hooks(self, s, monkeypatch):
        # the tables are built through `chsh.form_coefficients` and
        # `chsh.enumerate_forms` as looked up on the module, which a trace
        # can wrap
        calls = []

        def counted(name):
            wrapped = getattr(chsh, name)

            def call(*args):
                calls.append((name, args))
                return wrapped(*args)
            return call

        monkeypatch.setattr(chsh, "enumerate_forms", counted("enumerate_forms"))
        monkeypatch.setattr(chsh, "form_coefficients", counted("form_coefficients"))
        mc._form_tables.cache_clear()
        try:
            mc._form_tables(s)
        finally:
            mc._form_tables.cache_clear()
        (first, (first_s,)), (second, (forms, second_s)) = calls
        assert (first, first_s, second, second_s) == ("enumerate_forms", s, "form_coefficients", s)
        assert forms == enumerate_forms(s)


class TestCoordinateRows:
    # 2,500 trials per scenario: across the first chunk boundary and from
    # trial 2^40 on
    RANGES = [(mc.CHUNK_TRIALS - 1000, mc.CHUNK_TRIALS + 1000), (2 ** 40, 2 ** 40 + 500)]

    @pytest.mark.parametrize("scenario", mc.SCENARIOS)
    def test_rows_are_correlators_of_the_scalar_samplers(self, scenario):
        # a noisy partially entangled state, so that every term counts; the
        # exact route's D is 8 p00 - 4 pA0 - 4 pB0 + 2 of its Born values
        config = ScenarioConfig(scenario=scenario, alpha_ratio=0.6, visibility=0.9,
                                master_seed=17)
        state, s = config.state, config.settings_per_party
        worst_coords = worst_state = 0.0
        for lo, hi in self.RANGES:
            rows = mc._SETTINGS_FROM_UNIFORMS[scenario](uniform_block(config.master_seed, lo, hi))
            z_products = (rows[s * s:s * s + s, None] * rows[None, s * s + s:]).reshape(s * s, -1)
            own = mc._state_rows(state, s, rows, z_products, np.empty_like(rows))
            for k, trial in enumerate(range(lo, hi)):
                a_dirs, b_dirs = _exact_settings(config, trial)
                a, b = np.stack([d.n for d in a_dirs]), np.stack([d.n for d in b_dirs])
                expect = np.concatenate([(a[:, None, :2] * b[None, :, :2]).sum(-1).ravel(),
                                         a[:, 2], b[:, 2]])
                worst_coords = max(worst_coords, np.abs(rows[:, k] - expect).max())
                pa = [projector_from_direction(d) for d in a_dirs]
                pb = [projector_from_direction(d) for d in b_dirs]
                born = np.array([joint_probability(state, m_a, m_b) for m_a in pa for m_b in pb]
                                + [marginal_probability(state, m, "A") for m in pa]
                                + [marginal_probability(state, m, "B") for m in pb])
                worst_state = max(worst_state,
                                  np.abs(own[:, k] - _with_correlators(born[:, None], s)[:, 0]).max())
        assert worst_coords < 1e-12
        assert worst_state < 1e-12


class TestWorkerIndependence:
    @pytest.mark.parametrize("scenario", mc.SCENARIOS)
    @pytest.mark.parametrize("policy", ["max-i", "min-eta"])
    def test_bitwise_identical_across_worker_counts(self, scenario, policy):
        # Result tables must not depend on the worker count: 131079 trials
        # make two full chunks and a partial one, so two workers start a
        # pool.  The state is partially entangled and noisy, where N differs
        # between the forms of a setting choice, so ROTM's two policies pick
        # differently on some trials.
        trials = 2 * mc.CHUNK_TRIALS + 7
        assert len(list(mc._chunk_grid(trials))) > 1
        a, b = (run_experiment(ScenarioConfig(scenario=scenario, alpha_ratio=0.5, visibility=0.95,
                                              trials=trials, selection_policy=policy,
                                              workers=workers))
                for workers in (1, 2))
        _assert_same_tables(a, b)
        # summaries agree but for the wall time and the worker count
        for summary in (a.summary, b.summary):
            del summary["wall_time_s"], summary["config"]["workers"], summary["manifest"]["workers"]
        assert json.dumps(a.summary) == json.dumps(b.summary)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_collect_keeps_violating_trials_in_order(self, workers):
        # the merged partial is that of the violating trials of the
        # concatenated chunks, its float sum of I taken block by block in
        # each chunk and chunk by chunk
        config = ScenarioConfig(scenario="rom", alpha_ratio=0.7, trials=2 * mc.CHUNK_TRIALS + 7,
                                master_seed=12, selection_policy="min-eta", workers=workers)
        rows = [_trial_rows(config, lo, hi) for lo, hi in mc._chunk_grid(config.trials)]
        chunk_sums = [_block_sum(i) for (i,), _ in rows]
        i_max = np.concatenate([i for (i,), _ in rows])
        eta = np.concatenate([e for _, (e,) in rows])
        violated = i_max > 0.0
        i_max, eta = i_max[violated], eta[violated]
        (got,) = mc._collect_chunks(config)
        assert got.i_counts.sum() == violated.sum() > 0
        edges = np.linspace(0.6, 1.0, config.histogram_bins + 1)
        below_edges, at_points = np.split(got.at_most, [len(edges)])
        np.testing.assert_array_equal(np.diff(below_edges), np.histogram(eta, bins=edges)[0])
        assert below_edges[0] == 0
        points = np.concatenate([config.eta_grid_points(), mc.NAMED_ETAS])
        np.testing.assert_array_equal(at_points, [(eta <= p).sum() for p in points])
        i_edges = np.arange(mc._I_BINS + 1) / mc._I_SCALE
        np.testing.assert_array_equal(got.i_counts, np.histogram(i_max, bins=i_edges)[0])
        # a chunk sends its I counts as int32, and the merged total widens them
        assert mc._evaluate_chunk(config, 0, mc.CHUNK_TRIALS, (config,))[0].i_counts.dtype == np.int32
        assert got.i_counts.dtype == np.int64
        assert got.i_sum == sum(chunk_sums)
        assert (got.i_top, got.eta_min, got.eta_max) == (i_max.max(), eta.min(), eta.max())

    def test_pool_starts_no_more_workers_than_chunks(self, monkeypatch):
        # each worker is forked before the first chunk is read, so a run
        # forks no more workers than its chunks, and none over one chunk
        forks = []
        fork = os.fork

        def counting_fork():
            forks.append(None)
            return fork()

        monkeypatch.setattr(os, "fork", counting_fork)
        config = ScenarioConfig(scenario="rom", alpha_ratio=0.7, trials=2 * mc.CHUNK_TRIALS + 7,
                                master_seed=12, workers=4)
        wide = run_experiment(config)
        assert len(forks) == 3
        _assert_same_tables(wide, run_experiment(replace(config, workers=1)))
        assert wide.summary["config"]["workers"] == wide.summary["manifest"]["workers"] == 4
        run_experiment(replace(config, trials=mc.CHUNK_TRIALS))
        assert len(forks) == 3

    def test_run_where_fork_is_missing_stays_in_process(self, monkeypatch):
        # without os.fork a 4-worker run over 3 chunks runs every chunk in
        # this process, leaves no child and makes the 1-worker run's tables
        config = ScenarioConfig(scenario="rom", alpha_ratio=0.7, trials=2 * mc.CHUNK_TRIALS + 7,
                                master_seed=12, workers=4)
        serial = run_experiment(replace(config, workers=1))
        original, pids = mc._evaluate_chunk, []

        def recording(config, lo, hi, states=None):
            pids.append(os.getpid())
            return original(config, lo, hi, states)

        monkeypatch.setattr(mc, "_evaluate_chunk", recording)
        monkeypatch.delattr(os, "fork")
        wide = run_experiment(config)
        assert pids == [os.getpid()] * 3
        _assert_no_child_left()
        _assert_same_tables(wide, serial)

    def test_chunk_grid_fixed(self):
        grid = list(mc._chunk_grid(200_000))
        assert grid[0] == (0, mc.CHUNK_TRIALS)
        assert grid[-1][1] == 200_000
        assert all(hi - lo <= mc.CHUNK_TRIALS for lo, hi in grid)


class TestPartials:
    @pytest.mark.parametrize("scenario,ratio,visibility", [
        ("rim", 1.0, 1.0), ("rom", 0.6, 1.0), ("rotm", 0.5, 0.95)])
    def test_median_within_its_bound_and_mean_of_the_sum(self, scenario, ratio, visibility):
        config = ScenarioConfig(scenario=scenario, alpha_ratio=ratio, visibility=visibility,
                                trials=2 * mc.CHUNK_TRIALS + 13, master_seed=21)
        (i_max,) = np.concatenate([_trial_rows(config, lo, hi)[0]
                                   for lo, hi in mc._chunk_grid(config.trials)], axis=1)
        i_max = i_max[i_max > 0.0]
        stats = run_experiment(config).summary["i_max_given_violation"]
        bound = stats["median_error_bound"]
        # the midpoint of at most two adjacent bins, rounded once
        assert 0.0 < bound <= 1.0 / mc._I_SCALE
        assert abs(stats["median"] - np.median(i_max)) <= bound * (1.0 + 1e-12)
        assert stats["mean"] == pytest.approx(i_max.mean(), rel=1e-15, abs=0.0)

    def test_median_of_an_even_count_spans_both_middle_bins(self):
        w = 1.0 / mc._I_SCALE
        counts = np.zeros(mc._I_BINS, dtype=np.intp)
        counts[[3, 7]] = 1
        total = mc._Partial(at_most=None, i_counts=counts, i_sum=0.0, i_top=7.5 * w,
                            eta_min=0.7, eta_max=0.8)
        # the middle values lie in [3w, 4w) and [7w, 7.5w]
        assert mc._median_estimate(total) == (5.25 * w, 2.25 * w)

    @pytest.mark.parametrize("eta_min,eta_max", [(0.7, 1.0), (np.nextafter(0.6, 0), 0.8)])
    def test_result_refuses_eta_req_outside_its_range(self, eta_min, eta_max):
        config = ScenarioConfig(scenario="rim")
        total = replace(mc._Partial.empty(config, np.int64), eta_min=eta_min, eta_max=eta_max)
        total.i_counts[0] = 1  # one violating trial
        with pytest.raises(NumericalConsistencyError,
                           match=r"^required efficiency outside \[0\.6, 1\)$"):
            mc._result(config, total, 0.0)

    def test_block_counts_ties_as_numpy_does(self):
        # eta_req on a histogram edge or a curve point and I on a bin edge
        # count as np.histogram and <= count them, eta_req one ulp below an
        # inner edge falls in the bin below it, trials with I <= 0 (eta_req
        # NaN) are skipped, and I is summed by numpy, which here differs
        # from the exactly rounded sum
        config = ScenarioConfig(scenario="rim")
        edges = mc._histogram_edges(config)
        points = np.concatenate([config.eta_grid_points(), mc.NAMED_ETAS])
        w = 1.0 / mc._I_SCALE
        i_max = np.array([0.2, 3 * w, w, 0.1, 0.0, -0.1, 0.05] + [1e-17] * 12)
        eta = np.array([edges[1], edges[0], edges[-1], points[7], np.nan, np.nan,
                        np.nextafter(edges[50], 0)] + [0.9123] * 12)
        part = mc._Partial.empty(config, np.int32)
        part.add_block(i_max, eta, mc._thresholds(config), np.empty((3, len(eta))))
        violated = i_max > 0.0
        i_max, eta = i_max[violated], eta[violated]
        assert part.i_counts.sum() == len(eta) == 17
        below_edges, at_points = np.split(part.at_most, [len(edges)])
        assert below_edges[0] == 0
        np.testing.assert_array_equal(np.diff(below_edges), np.histogram(eta, bins=edges)[0])
        # the value one ulp below edges[50] is alone in the bin below it
        assert np.histogram(eta[4:5], bins=edges)[0][49] == np.diff(below_edges)[49] == 1
        np.testing.assert_array_equal(at_points, [(eta <= p).sum() for p in points])
        i_edges = np.arange(mc._I_BINS + 1) / mc._I_SCALE
        np.testing.assert_array_equal(part.i_counts, np.histogram(i_max, bins=i_edges)[0])
        assert part.i_sum == float(i_max.sum()) != math.fsum(i_max)
        assert (part.i_top, part.eta_min, part.eta_max) == (0.2, edges[0], edges[-1])

    def test_memory_does_not_grow_with_the_trial_count(self):
        def peak(chunks):
            config = ScenarioConfig(scenario="rotm", alpha_ratio=0.5, visibility=0.95,
                                    trials=chunks * mc.CHUNK_TRIALS, master_seed=3)
            tracemalloc.start()
            try:
                run_experiment(config)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        mc._form_tables(3)  # built once per process, outside the trace
        assert peak(8) - peak(2) < 1 << 20

    def test_pool_parent_memory_does_not_grow_with_the_chunk_count(self):
        # stopped after its first chunk, a pool run holds at most the
        # chunks its workers have made ahead of the merge, not one task per
        # chunk of the grid
        def peak(chunks):
            config = ScenarioConfig(scenario="rim", trials=chunks * mc.CHUNK_TRIALS, workers=2)
            tracemalloc.start()
            try:
                with pytest.raises(ExperimentAborted):
                    mc._collect_chunks(config, _interrupt_at(1)[0])
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(16_384) - peak(64) < 1 << 20

    def test_i_grid_ends_at_the_tsirelson_bound(self):
        # the ROTM MES reaches I = 0.2070942 here, in the grid's last bin
        config = ScenarioConfig(scenario="rotm", trials=2 * mc.CHUNK_TRIALS + 13, master_seed=21)
        (i_max,), _ = _trial_rows(config, 0, config.trials)
        (got,) = mc._collect_chunks(config)
        i_edges = np.arange(mc._I_BINS + 1) / mc._I_SCALE
        assert i_edges[-1] > chsh.TSIRELSON_BOUND > i_edges[-2]
        np.testing.assert_array_equal(got.i_counts, np.histogram(i_max[i_max > 0.0], bins=i_edges)[0])
        assert got.i_counts[-1] > 0

    def test_chunk_memory_is_its_partial_and_a_block(self):
        # a ROTM chunk at 95% violating trials keeps no row of its trials
        # and no violating value beyond a block's: what it allocates is its
        # partial, of a size fixed by the config, and a block's temporaries
        config = ScenarioConfig(scenario="rotm", alpha_ratio=0.5, visibility=0.95, master_seed=3)
        mc._form_tables(3)
        mc._evaluate_chunk(config, 0, mc.CHUNK_TRIALS, (config,))
        tracemalloc.start()
        try:
            (part,) = mc._evaluate_chunk(config, 0, mc.CHUNK_TRIALS, (config,))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert part.i_counts.sum() > 0.9 * mc.CHUNK_TRIALS
        assert peak < 1 << 20
        (few,) = mc._evaluate_chunk(config, 0, 100, (config,))
        arrays = (part.at_most, part.i_counts)
        assert part.nbytes == few.nbytes == sum(a.nbytes for a in arrays) + 4 * 8

    def test_chunk_memory_grows_little_per_state(self):
        # a chunk keeps a partial per state, not a row of its trials nor
        # its violating values; the block workspace and the form tables are
        # made once per process, before the trace
        base = ScenarioConfig(scenario="rim", master_seed=5)
        many = [replace(base, alpha_ratio=float(ratio)) for ratio in np.linspace(0.2, 1.0, 41)]

        def peak(states):
            tracemalloc.start()
            try:
                mc._evaluate_chunk(base, 0, mc.CHUNK_TRIALS, states)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        mc._evaluate_chunk(base, 0, mc.CHUNK_TRIALS, (base,))
        assert (peak(many) - peak((base,))) / (len(many) - 1) < 128 << 10

    def test_chunk_loop_holds_one_chunk_partial_per_state(self):
        # one worker over 4 chunks keeps each state's int64 total and the
        # partial of the chunk being merged, about 203 KB; a loop that also
        # holds the previous chunk's partials while the next is made reads
        # about 69 KB more
        base = ScenarioConfig(scenario="rim", trials=4 * mc.CHUNK_TRIALS, master_seed=5)
        many = [replace(base, alpha_ratio=float(ratio)) for ratio in np.linspace(0.2, 1.0, 41)]

        def peak(states):
            tracemalloc.start()
            try:
                mc._collect_chunks(base, states=states)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        mc._evaluate_chunk(base, 0, mc.CHUNK_TRIALS, (base,))
        assert (peak(many) - peak((base,))) / (len(many) - 1) < 240 << 10


class TestWorkspace:
    def test_reuse_cannot_leak_between_configs(self):
        # one process runs every scenario, both policies, a sweep and a
        # short last block through the same block buffers; nothing of one
        # config may reach the next
        def config(scenario, trials=mc.CHUNK_TRIALS + 7, **kwargs):
            return ScenarioConfig(scenario=scenario, trials=trials, master_seed=4, **kwargs)

        rim = config("rim")
        rotm = config("rotm", alpha_ratio=0.5, visibility=0.95, selection_policy="min-eta")
        rom = [config("rom", alpha_ratio=ratio, selection_policy="min-eta")
               for ratio in (0.5, 0.75, 1.0)]
        short = config("rim", trials=10_007, alpha_ratio=0.5)
        assert short.trials % mc._BLOCK_TRIALS
        buffers = [a for workspace in mc._WORKSPACES.values() for a in workspace]
        results = []
        for states in ([rim], [rotm], rom, [short], [rim]):
            base = states[0]
            edges = mc._histogram_edges(base)
            points = np.concatenate([base.eta_grid_points(), mc.NAMED_ETAS])
            for lo, hi in mc._chunk_grid(base.trials):
                # each block's reduction against numpy's on the chunk's trial rows
                partials = mc._evaluate_chunk(base, lo, hi, states)
                for got, i_max, eta in zip(partials, *_trial_rows(base, lo, hi, states)):
                    i_sum = _block_sum(i_max)
                    violated = i_max > 0.0
                    i_max, eta = i_max[violated], np.sort(eta[violated])
                    assert got.i_counts.sum() == len(eta)
                    below_edges, at_points = np.split(got.at_most, [len(edges)])
                    np.testing.assert_array_equal(np.diff(below_edges),
                                                  np.histogram(eta, bins=edges)[0])
                    assert below_edges[0] == (eta < edges[0]).sum()
                    np.testing.assert_array_equal(at_points, [(eta <= p).sum() for p in points])
                    bins = np.minimum(np.floor(i_max * mc._I_SCALE).astype(int), mc._I_BINS - 1)
                    np.testing.assert_array_equal(got.i_counts,
                                                  np.bincount(bins, minlength=mc._I_BINS))
                    assert got.i_sum == i_sum
                    if len(eta):
                        assert (got.i_top, got.eta_min, got.eta_max) == (i_max.max(), eta[0],
                                                                         eta[-1])
                    # the partial's arrays are its own, not views of the workspace
                    for a in (got.at_most, got.i_counts):
                        assert not any(np.shares_memory(a, b) for b in buffers)
            results.append(sweep(states))
        first, last = results[0][0], results[-1][0]
        _assert_same_tables(first, last)
        summaries = [{k: v for k, v in r.summary.items() if k != "wall_time_s"}
                     for r in (first, last)]
        assert json.dumps(summaries[0]) == json.dumps(summaries[1])
        # one full-size workspace per settings count, whatever ran
        assert sorted(mc._WORKSPACES) == [2, 3]
        assert all(mc._BLOCK_TRIALS in a.shape for a in buffers)
        # per-trial results are fresh arrays: two held at once share no
        # memory with each other or with the workspace
        held = [*_trial_rows(rim, 0, 100), *_trial_rows(rotm, 0, 100),
                *_trial_rows(short, 9_990, 10_007)]
        for k, a in enumerate(held):
            assert not any(np.shares_memory(a, b) for b in held[k + 1:] + buffers)
        # and so are two partials of one chunk
        first, second = mc._evaluate_chunk(rotm, 0, 1000, [rotm, replace(rotm, alpha_ratio=1.0)])
        for a in (first.at_most, first.i_counts):
            assert not any(np.shares_memory(a, b) for b in (second.at_most, second.i_counts))

    # the map writes no pool row but the products z_a z_b, the first s*s:
    # the triad map keeps its quaternions in rows it writes last and its
    # conjugate product in the uniforms' memory
    @pytest.mark.parametrize("scenario,state_rows", [("rim", 8), ("rom", 8), ("rotm", 15)])
    def test_only_a_block_with_more_states_writes_the_state_row_buffer(self, scenario,
                                                                      state_rows):
        # a block's last state writes its rows over the coordinate rows, so
        # a one-state chunk leaves the buffer of state rows untouched
        config = ScenarioConfig(scenario=scenario, alpha_ratio=0.5, visibility=0.95,
                                trials=mc._BLOCK_TRIALS + 7, master_seed=8)
        s = config.settings_per_party
        _, coords, pool = mc._WORKSPACES[s]
        untouched = pool[s * s:]
        assert len(untouched) == len(coords) == state_rows
        untouched.fill(np.nan)
        (one,) = _evaluate_chunk(config, 0, config.trials)
        assert np.isnan(untouched).all()
        # with two states, the first writes its rows there
        other = replace(config, alpha_ratio=1.0)
        two = _evaluate_chunk(config, 0, config.trials, [config, other])
        assert np.isfinite(untouched).all()
        np.testing.assert_equal([vars(p) for p in two],
                                [vars(one), vars(_evaluate_chunk(other, 0, other.trials)[0])])

    @pytest.mark.parametrize("scenario", mc.SCENARIOS)
    def test_the_map_writes_the_z_products(self, scenario):
        # in the kernel's call, a short block's too, product row k*s + l
        # is z_a[k] z_b[l] of the map's rows, bit for bit, and the rows
        # are those of a call given no buffers
        s = 3 if scenario == "rotm" else 2
        uniforms, coords, pool = mc._workspace(s)
        for n in (mc._BLOCK_TRIALS, 1000):
            u = uniform_block(6, 0, n, out=uniforms[:n])
            want = mc._SETTINGS_FROM_UNIFORMS[scenario](u.copy())
            rows = mc._SETTINGS_FROM_UNIFORMS[scenario](
                u, out=coords[:, :n], spare=u.reshape(8, n), products=pool[:s * s, :n])
            np.testing.assert_array_equal(rows, want)
            z_a, z_b = rows[s * s:s * s + s], rows[s * s + s:]
            for k, l in itertools.product(range(s), repeat=2):
                np.testing.assert_array_equal(pool[k * s + l, :n], z_a[k] * z_b[l])


class TestScalingSanity:
    def test_doubling_trials_consistent(self):
        # estimates from disjoint halves agree within 4 binomial sd
        c1 = ScenarioConfig(scenario="rim", trials=30_000, master_seed=100)
        c2 = ScenarioConfig(scenario="rim", trials=60_000, master_seed=100)
        p1 = run_experiment(c1).curve.p_viol[-1]
        p2 = run_experiment(c2).curve.p_viol[-1]
        sd = np.sqrt(0.2835 * (1 - 0.2835) / 30_000)
        assert abs(p1 - p2) < 4 * sd


class TestSweep:
    def test_single_config_identical_to_run(self):
        config = ScenarioConfig(scenario="rom", trials=20_000, master_seed=7)
        (result,) = sweep([config])
        direct = run_experiment(config)
        np.testing.assert_array_equal(result.curve.p_viol, direct.curve.p_viol)
        np.testing.assert_array_equal(result.histogram.counts, direct.histogram.counts)

    def test_entries_carry_the_master_seed(self):
        config = ScenarioConfig(scenario="rim", trials=5_000, master_seed=40)
        configs = [config, replace(config, alpha_ratio=0.5)]
        results = sweep(configs)
        assert [result.config.master_seed for result in results] == [40, 40]
        assert [result.config for result in results] == configs

    def test_empty_error(self):
        with pytest.raises(ValueError):
            sweep([])

    def test_entanglement_ordering_at_eta_one(self):
        for scenario in ("rim", "rom", "rotm"):
            mes, half = sweep([
                ScenarioConfig(scenario=scenario, alpha_ratio=ratio,
                               trials=20_000, master_seed=55)
                for ratio in (1.0, 0.5)
            ])
            p_mes = mes.curve.p_viol[-1]
            p_half = half.curve.p_viol[-1]
            assert p_mes >= p_half

    @pytest.mark.parametrize("scenario", ["rim", "rom", "rotm"])
    @pytest.mark.parametrize("policy", ["max-i", "min-eta"])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_entry_equals_its_run(self, scenario, policy, workers):
        # the states share the trial streams; 131079 trials end off the
        # chunk and block grids, and the states before the last work on a copy.
        # Each state's trials are compared bit for bit too, so that errors
        # that cancel in a partial cannot pass.
        base = ScenarioConfig(scenario=scenario, trials=2 * mc.CHUNK_TRIALS + 7,
                              master_seed=7, selection_policy=policy, workers=workers)
        configs = [replace(base, alpha_ratio=ratio, visibility=visibility)
                   for ratio, visibility in ((0.5, 0.95), (1.0, 0.95), (1.0, 1.0))]
        results = sweep(configs)
        partials = mc._collect_chunks(base, states=configs)
        rows = zip(*_trial_rows(base, 0, base.trials, configs))
        for config, result, partial, (i_max, eta) in zip(configs, results, partials, rows):
            assert result.config == config
            (i_alone,), (eta_alone,) = _trial_rows(config, 0, config.trials)
            assert i_max.tobytes() == i_alone.tobytes()
            assert eta.tobytes() == eta_alone.tobytes()
            (alone,) = mc._collect_chunks(config)
            for field in fields(mc._Partial):
                np.testing.assert_array_equal(getattr(partial, field.name),
                                              getattr(alone, field.name), field.name)
            direct = run_experiment(config)
            _assert_same_tables(result, direct)
            summaries = [{k: v for k, v in r.summary.items() if k != "wall_time_s"}
                         for r in (result, direct)]
            assert json.dumps(summaries[0]) == json.dumps(summaries[1])

    @pytest.mark.parametrize("change", [{"scenario": "rom"}, {"trials": 4_000},
                                        {"master_seed": 2}, {"selection_policy": "min-eta"}])
    def test_configs_may_differ_in_the_state_only(self, change):
        config = ScenarioConfig(scenario="rim", trials=5_000, master_seed=1)
        with pytest.raises(ValueError, match="alpha_ratio and visibility only"):
            sweep([config, replace(config, alpha_ratio=0.5, **change)])

    @pytest.mark.parametrize("target", [0, 1])
    def test_nan_in_one_state_aborts_the_sweep(self, monkeypatch, target):
        # a NaN in the second chunk of the first or the last state, each
        # reading the shared rows into its own; the count is the first chunk
        # of both states
        configs = [ScenarioConfig(scenario="rom", alpha_ratio=ratio, visibility=0.95,
                                  trials=3 * mc.CHUNK_TRIALS, master_seed=3)
                   for ratio in (0.5, 1.0)]
        poisoned_state = configs[target].state
        original = quantum.doubled_correlator
        calls = []

        def poisoned(state, inplane, z_product, out=None):
            d = original(state, inplane, z_product, out=out)
            if state == poisoned_state:
                calls.append(None)
                if len(calls) == 10:  # the second block of the second chunk
                    d[0, 5] = np.nan
            return d

        monkeypatch.setattr(quantum, "doubled_correlator", poisoned)
        bad = mc.CHUNK_TRIALS + mc._BLOCK_TRIALS + 5
        ratio = configs[target].alpha_ratio
        with pytest.raises(ExperimentAborted) as info:
            sweep(configs)
        assert str(info.value) == (f"non-finite probability at trial {bad} "
                                   f"(alpha_ratio {ratio:g}, visibility 0.95)")
        assert info.value.completed_trials == 2 * mc.CHUNK_TRIALS
        assert info.value.trials == 6 * mc.CHUNK_TRIALS


class TestAbort:
    def test_abort_carries_partial_progress(self, monkeypatch):
        original = mc._evaluate_chunk

        def failing(config, lo, hi, states=None):
            if lo >= mc.CHUNK_TRIALS:
                raise NumericalConsistencyError("injected failure")
            return original(config, lo, hi, states)

        monkeypatch.setattr(mc, "_evaluate_chunk", failing)
        config = ScenarioConfig(scenario="rim", trials=mc.CHUNK_TRIALS * 2)
        with pytest.raises(ExperimentAborted) as info:
            run_experiment(config)
        assert info.value.completed_trials == mc.CHUNK_TRIALS
        assert info.value.trials == mc.CHUNK_TRIALS * 2

    def test_pool_abort_counts_completed_trials_in_order(self, monkeypatch):
        # Chunk 1 of 3 fails at once while chunk 0 is still running: the
        # count is what completed before the failing chunk, in grid order.
        original = mc._evaluate_chunk

        def failing(config, lo, hi, states=None):
            if lo == mc.CHUNK_TRIALS:
                raise NumericalConsistencyError("injected failure")
            time.sleep(0.2)
            return original(config, lo, hi, states)

        monkeypatch.setattr(mc, "_evaluate_chunk", failing)
        config = ScenarioConfig(scenario="rim", trials=3 * mc.CHUNK_TRIALS, workers=2)
        for _ in range(3):
            with pytest.raises(ExperimentAborted) as info:
                run_experiment(config)
            assert info.value.completed_trials == mc.CHUNK_TRIALS
            assert info.value.trials == 3 * mc.CHUNK_TRIALS


# a process pool's stack (multiprocessing, sockets, logging) and subprocess
_POOL_STACK = ("multiprocessing", "concurrent.futures", "subprocess")


def _pool_stack_loaded(code: str) -> list[str]:
    """The modules of `_POOL_STACK` that a fresh interpreter holds after it
    runs code, as the last line it prints."""
    probe = (f"{code}\nimport sys\n"
             f"print(*[m for m in {_POOL_STACK!r} if m in sys.modules])")
    src = os.path.dirname(os.path.dirname(mc.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    res = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env=env, timeout=300)
    assert res.returncode == 0, res.stderr
    return res.stdout.splitlines()[-1].split()


def _cli_run(out_dir, workers: int) -> str:
    """Code that runs the command line over two chunks."""
    argv = ["run", "--scenario", "rim", "--trials", str(2 * mc.CHUNK_TRIALS),
            "--workers", str(workers), "--out-dir", str(out_dir)]
    return f"from randbell.cli import main\nassert main({argv!r}) == 0"


class TestPoolStack:
    # importing the stack takes a process about 15 ms and 0.9 MB; pool
    # workers are forked directly and the manifest runs no command, so no
    # run loads any of it
    RUN = ("from randbell import ScenarioConfig, run_experiment\n"
           "run_experiment(ScenarioConfig(scenario='rim', trials={trials}, workers={workers}))")

    @pytest.mark.parametrize("code", [
        "import randbell",
        RUN.format(trials=2 * mc.CHUNK_TRIALS + 7, workers=1),
        RUN.format(trials=1000, workers=2),  # one chunk: no pool
        RUN.format(trials=2 * mc.CHUNK_TRIALS, workers=2),
    ], ids=["import", "one-worker-run", "one-chunk-run", "pool-run"])
    def test_no_pool_loads_no_pool_stack(self, code):
        assert _pool_stack_loaded(code) == []

    def test_one_worker_cli_run_loads_no_pool_stack(self, tmp_path):
        assert _pool_stack_loaded(_cli_run(tmp_path, 1)) == []

    def test_two_worker_cli_run_loads_no_pool_stack(self, tmp_path):
        assert _pool_stack_loaded(_cli_run(tmp_path, 2)) == []

    def test_pool_workers_ignore_sigint(self, monkeypatch):
        # an interrupt is the parent's to handle; each worker reports the
        # SIGINT handler it runs under as its chunk's error
        def report(config, lo, hi, states=None):
            raise NumericalConsistencyError(f"SIGINT {signal.getsignal(signal.SIGINT)!r}")

        monkeypatch.setattr(mc, "_evaluate_chunk", report)
        with pytest.raises(ExperimentAborted) as info:
            run_experiment(ScenarioConfig(scenario="rim", trials=2 * mc.CHUNK_TRIALS, workers=2))
        assert str(info.value) == f"SIGINT {signal.SIG_IGN!r}"
        assert signal.getsignal(signal.SIGINT) != signal.SIG_IGN


def _fail_in_worker(monkeypatch, fail):
    """Patch `_evaluate_chunk` to call fail() on the second chunk, in a pool
    worker only."""
    original, parent = mc._evaluate_chunk, os.getpid()

    def failing(config, lo, hi, states=None):
        if lo == mc.CHUNK_TRIALS and os.getpid() != parent:
            fail()
        return original(config, lo, hi, states)

    monkeypatch.setattr(mc, "_evaluate_chunk", failing)


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _inject_failure():
    raise NumericalConsistencyError("injected failure")


class TestPoolReaping:
    # every worker is killed and reaped before the chunk loop returns or
    # raises, so no run leaves a child process behind
    CONFIG = ScenarioConfig(scenario="rim", trials=3 * mc.CHUNK_TRIALS, workers=2)

    def _aborted(self, progress=None) -> ExperimentAborted:
        """The run's abort, once no child is left."""
        with pytest.raises(ExperimentAborted) as info:
            run_experiment(self.CONFIG, progress)
        assert info.value.completed_trials == mc.CHUNK_TRIALS
        _assert_no_child_left()
        return info.value

    def test_normal_end(self):
        run_experiment(self.CONFIG)
        _assert_no_child_left()

    def test_trial_error(self, monkeypatch):
        _fail_in_worker(monkeypatch, _inject_failure)
        aborted = self._aborted()
        assert str(aborted) == "injected failure"
        # the worker's traceback comes back as the cause
        remote = str(aborted.__cause__.__cause__)
        assert remote.startswith("in a pool worker:\nTraceback")
        assert "in _inject_failure" in remote

    def test_dead_worker(self, monkeypatch):
        _fail_in_worker(monkeypatch, lambda: os._exit(1))
        assert str(self._aborted()) == "A process in the process pool was terminated abruptly"

    def test_interrupt(self):
        assert str(self._aborted(_interrupt_at(1)[0])) == "interrupted"


def _interrupt_at(call):
    """A progress callback that raises KeyboardInterrupt on its call-th call,
    as Ctrl-C does while the chunk loop waits; it records every call."""
    calls = []

    def progress(done, total, elapsed):
        calls.append((done, total))
        if len(calls) == call:
            raise KeyboardInterrupt

    return progress, calls


class TestInterrupt:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_run_aborts_with_trials_completed_in_order(self, workers):
        progress, calls = _interrupt_at(2)
        config = ScenarioConfig(scenario="rim", trials=3 * mc.CHUNK_TRIALS, workers=workers)
        with pytest.raises(ExperimentAborted, match="^interrupted$") as info:
            run_experiment(config, progress=progress)
        assert isinstance(info.value.__cause__, KeyboardInterrupt)
        assert info.value.completed_trials == 2 * mc.CHUNK_TRIALS
        assert info.value.trials == 3 * mc.CHUNK_TRIALS
        assert len(calls) == 2

    @pytest.mark.parametrize("workers", [1, 2])
    def test_sweep_stops_at_the_interrupt(self, workers):
        # one chunk loop for both states: the count is trials times states
        progress, calls = _interrupt_at(2)
        config = ScenarioConfig(scenario="rim", trials=3 * mc.CHUNK_TRIALS, workers=workers)
        with pytest.raises(ExperimentAborted, match="^interrupted$") as info:
            sweep([config, replace(config, alpha_ratio=0.5)], progress=progress)
        assert isinstance(info.value.__cause__, KeyboardInterrupt)
        assert info.value.completed_trials == 4 * mc.CHUNK_TRIALS
        assert info.value.trials == 6 * mc.CHUNK_TRIALS
        assert calls == [(2 * mc.CHUNK_TRIALS, 6 * mc.CHUNK_TRIALS),
                         (4 * mc.CHUNK_TRIALS, 6 * mc.CHUNK_TRIALS)]


class TestWilson:
    def test_contains_estimate(self):
        for k, n in ((0, 10), (5, 10), (10, 10), (3, 1000)):
            lo, hi = wilson_interval(k, n)
            assert 0.0 <= lo <= k / n <= hi <= 1.0

    def test_known_value(self):
        # half successes at n=100: interval is symmetric around 0.5
        lo, hi = wilson_interval(50, 100)
        assert lo == pytest.approx(1.0 - hi, abs=1e-12)
        assert lo == pytest.approx(0.40383, abs=5e-4)

    def test_bad_total(self):
        with pytest.raises(ValueError):
            wilson_interval(1, 0)
        with pytest.raises(ValueError):
            wilson_interval(np.arange(3), -2)

    @pytest.mark.parametrize("successes", [-1, 8, np.nan, np.array([0, 3, 8]), np.array([-1, 0])])
    def test_successes_outside_the_total(self, successes):
        with pytest.raises(ValueError, match="successes"):
            wilson_interval(successes, 7)

    @pytest.mark.parametrize("n", [1, 7, 4_000_000])
    def test_arrays_equal_scalar_calls(self, n):
        # elementwise over an array, bit for bit the scalar calls and the
        # scalar formula in `math`
        k = np.arange(n + 1) if n < 100 else np.unique(np.concatenate(
            [np.arange(50), n - np.arange(50),
             np.random.default_rng(n).integers(0, n + 1, 500)]))
        low, high = wilson_interval(k, n)
        got = np.stack([low, high], axis=1).tobytes()
        assert got == np.array([wilson_interval(j, n) for j in k.tolist()]).tobytes()
        assert got == np.array([_wilson_formula(j, n) for j in k.tolist()]).tobytes()


def _wilson_formula(successes, total):
    """The Wilson interval of one count, in Python floats."""
    p = successes / total
    z2 = mc._WILSON_Z * mc._WILSON_Z
    denom = 1.0 + z2 / total
    center = (p + z2 / (2.0 * total)) / denom
    half = mc._WILSON_Z * math.sqrt(p * (1.0 - p) / total + z2 / (4.0 * total * total)) / denom
    return min(max(0.0, center - half), p), max(min(1.0, center + half), p)
