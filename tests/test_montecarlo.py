"""Orchestration checks: determinism, kernel vs exact-route agreement,
aggregation invariants, and worker-count independence."""

import numpy as np
import pytest

import randbell.montecarlo as mc
import randbell.quantum as quantum
from randbell import (
    NumericalConsistencyError,
    ScenarioConfig,
    build_probability_table,
    enumerate_forms,
    max_violation,
    run_experiment,
    run_trial,
    sweep,
    wilson_interval,
)
from randbell.chsh import form_coefficients
from randbell.montecarlo import ExperimentAborted, _evaluate_chunk
from randbell.sampling import (
    RandomSource,
    sample_direction,
    sample_orthogonal_pair,
    sample_orthogonal_triad,
    uniform_block,
)


def _exact_trial(config, trial_index):
    """Per-trial evaluation through the exact operator route."""
    rng = RandomSource(config.master_seed, trial_index)
    if config.scenario == "rim":
        a_dirs = tuple(sample_direction(rng) for _ in range(2))
        b_dirs = tuple(sample_direction(rng) for _ in range(2))
    elif config.scenario == "rom":
        a_dirs = sample_orthogonal_pair(rng)
        b_dirs = sample_orthogonal_pair(rng)
    else:
        a_triad = sample_orthogonal_triad(rng)
        b_triad = sample_orthogonal_triad(rng)
        a_dirs = (a_triad.d1, a_triad.d2, a_triad.d3)
        b_dirs = (b_triad.d1, b_triad.d2, b_triad.d3)
    table = build_probability_table(config.state, a_dirs, b_dirs)
    forms = enumerate_forms(config.settings_per_party)
    return max_violation(table, forms, policy=config.selection_policy)


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
    """_dense_winner on the probabilities of trials [lo, hi)."""
    s = config.settings_per_party
    u = uniform_block(config.master_seed, lo, hi)
    a_dirs, b_dirs = mc._SETTINGS_FROM_UNIFORMS[config.scenario](u)
    state = config.state
    p00 = [quantum.joint_outcome00(state, a_dirs[:, x], b_dirs[:, y])
           for x in range(s) for y in range(s)]
    pa0 = quantum.marginal_outcome0(state, a_dirs, "A")
    pb0 = quantum.marginal_outcome0(state, b_dirs, "B")
    return _dense_winner(np.column_stack([*p00, pa0, pb0]), s, config.selection_policy)


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
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ScenarioConfig(**kwargs)


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
            if fast.violated:
                assert abs(fast.eta_req - exact.eta_req) < 1e-10

    @pytest.mark.parametrize("scenario", ["rim", "rom", "rotm"])
    @pytest.mark.parametrize("policy", ["max-i", "min-eta"])
    def test_single_trial_equals_its_chunk_row(self, scenario, policy):
        config = ScenarioConfig(scenario=scenario, alpha_ratio=0.5, visibility=0.95,
                                master_seed=7, selection_policy=policy)
        i_max, eta = _evaluate_chunk(config, 0, 40)
        for i in range(40):
            outcome = run_trial(config, i)
            assert outcome.i_max == i_max[i]
            assert outcome.eta_req == (eta[i] if outcome.violated else None)

    def test_negative_index(self):
        with pytest.raises(ValueError):
            run_trial(ScenarioConfig(scenario="rim"), -1)


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
        i_max, eta = _evaluate_chunk(config, 123, 124)
        outcome = run_trial(config, 123)
        assert outcome.i_max == i_max[0]

    def test_rim_mes_probability(self, small_run):
        # loose 6-sigma band around the known random-isotropic value
        p = small_run.curve.p_viol[-1]
        assert abs(p - 0.2835) < 6 * np.sqrt(0.2835 * 0.7165 / 40_000)


class TestChunkKernel:
    @pytest.mark.parametrize("scenario", ["rim", "rom", "rotm"])
    @pytest.mark.parametrize("policy", ["max-i", "min-eta"])
    @pytest.mark.parametrize("visibility", [0.9, 0.0])
    def test_equals_dense_reference(self, scenario, policy, visibility):
        # Exact: every coefficient is -1, 0 or +1 and both sides add the
        # rows in coordinate order.  At visibility 0 every form ties.
        config = ScenarioConfig(scenario=scenario, alpha_ratio=0.6, visibility=visibility,
                                master_seed=31, selection_policy=policy)
        for lo, hi in ((0, 4096), (70_000, 70_500)):
            i_max, eta = _evaluate_chunk(config, lo, hi)
            ref_i, ref_eta = _dense_chunk(config, lo, hi)
            np.testing.assert_array_equal(i_max, ref_i)
            np.testing.assert_array_equal(eta, ref_eta)

    @pytest.mark.parametrize("s", [2, 3])
    @pytest.mark.parametrize("policy", ["max-i", "min-eta"])
    def test_exact_ties_go_to_the_lowest_form(self, s, policy):
        coords = np.array(_TIED_TABLES[s], dtype=float) / 8
        i_max, eta = mc._forms_winner(np.ascontiguousarray(coords.T), s, policy)
        ref_i, ref_eta = _dense_winner(coords, s, policy)
        np.testing.assert_array_equal(i_max, ref_i)
        np.testing.assert_array_equal(eta, ref_eta)

    def test_nan_probability_names_its_trial(self, monkeypatch):
        original = quantum.joint_outcome00
        calls = []

        def poisoned(state, a, b):
            p = original(state, a, b)
            calls.append(None)
            if len(calls) == 1:  # one probability of one trial
                p[5] = np.nan
            return p

        monkeypatch.setattr(quantum, "joint_outcome00", poisoned)
        config = ScenarioConfig(scenario="rom", master_seed=3)
        with pytest.raises(NumericalConsistencyError, match="trial 1005"):
            _evaluate_chunk(config, 1000, 1100)


class TestWorkerIndependence:
    def test_bitwise_identical_across_worker_counts(self):
        results = {}
        for workers in (1, 4):
            config = ScenarioConfig(scenario="rim", trials=10_000, master_seed=9,
                                    workers=workers, histogram_bins=50)
            results[workers] = run_experiment(config)
        a, b = results[1], results[4]
        np.testing.assert_array_equal(a.histogram.counts, b.histogram.counts)
        np.testing.assert_array_equal(a.curve.p_viol, b.curve.p_viol)
        np.testing.assert_array_equal(a.curve.ci_low, b.curve.ci_low)
        # summaries agree except for the fields that name the run itself
        sa = {k: v for k, v in a.summary.items() if k not in ("wall_time_s", "config")}
        sb = {k: v for k, v in b.summary.items() if k not in ("wall_time_s", "config")}
        assert sa == sb
        ca = {k: v for k, v in a.summary["config"].items() if k != "workers"}
        cb = {k: v for k, v in b.summary["config"].items() if k != "workers"}
        assert ca == cb

    def test_chunk_grid_fixed(self):
        grid = mc._chunk_grid(200_000)
        assert grid[0] == (0, mc.CHUNK_TRIALS)
        assert grid[-1][1] == 200_000
        assert all(hi - lo <= mc.CHUNK_TRIALS for lo, hi in grid)


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
        entry = sweep([config])[0]
        direct = run_experiment(config)
        np.testing.assert_array_equal(entry.result.curve.p_viol, direct.curve.p_viol)
        np.testing.assert_array_equal(entry.result.histogram.counts,
                                      direct.histogram.counts)

    def test_seed_offsets(self):
        config = ScenarioConfig(scenario="rim", trials=5_000, master_seed=40)
        entries = sweep([config, config])
        assert entries[0].config.master_seed == 40
        assert entries[1].config.master_seed == 41

    def test_empty_error(self):
        with pytest.raises(ValueError):
            sweep([])

    def test_entanglement_ordering_at_eta_one(self):
        for scenario in ("rim", "rom", "rotm"):
            entries = sweep([
                ScenarioConfig(scenario=scenario, alpha_ratio=ratio,
                               trials=20_000, master_seed=55)
                for ratio in (1.0, 0.5)
            ])
            p_mes = entries[0].result.curve.p_viol[-1]
            p_half = entries[1].result.curve.p_viol[-1]
            assert p_mes >= p_half

    def test_error_isolation(self, monkeypatch):
        good = ScenarioConfig(scenario="rim", trials=2_000, master_seed=1)
        original = mc._evaluate_chunk

        def flaky(config, lo, hi):
            if config.master_seed == 2:
                raise NumericalConsistencyError("injected failure")
            return original(config, lo, hi)

        monkeypatch.setattr(mc, "_evaluate_chunk", flaky)
        entries = sweep([good, good])  # second gets seed 2
        assert entries[0].result is not None
        assert entries[1].result is None
        assert "injected" in entries[1].error

    def test_all_failed_raises(self, monkeypatch):
        def broken(config, lo, hi):
            raise NumericalConsistencyError("injected failure")

        monkeypatch.setattr(mc, "_evaluate_chunk", broken)
        with pytest.raises(ExperimentAborted) as info:
            sweep([ScenarioConfig(scenario="rim", trials=1_000)] * 2)
        assert info.value.trials == 2_000


class TestAbort:
    def test_abort_carries_partial_progress(self, monkeypatch):
        original = mc._evaluate_chunk

        def failing(config, lo, hi):
            if lo >= mc.CHUNK_TRIALS:
                raise NumericalConsistencyError("injected failure")
            return original(config, lo, hi)

        monkeypatch.setattr(mc, "_evaluate_chunk", failing)
        config = ScenarioConfig(scenario="rim", trials=mc.CHUNK_TRIALS * 2)
        with pytest.raises(ExperimentAborted) as info:
            run_experiment(config)
        assert info.value.partial
        assert info.value.completed_trials == mc.CHUNK_TRIALS
        assert info.value.trials == mc.CHUNK_TRIALS * 2


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
