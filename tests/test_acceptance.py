"""End-to-end acceptance targets.

Each test prints one line: `criterion N: <measured> vs <window> PASS|FAIL`.
The windows pin the headline numbers this simulator is meant to reproduce:
violation probabilities at perfect detection for the three random-measurement
scenarios, the tail probabilities at experimentally relevant efficiencies,
the 5%-probability efficiency for the maximally entangled state, the
empirical required-efficiency floor, and a property suite (LHV bound,
Tsirelson cap, table invariants, threshold consistency, monotonicity, and
bitwise reproducibility across worker counts).
"""

import numpy as np
import pytest

from randbell import (
    MeasurementDirection,
    NoisyState,
    ScenarioConfig,
    build_probability_table,
    efficiency_corrected_value,
    enumerate_forms,
    eta_req,
    lhv_brute_force_bound,
    max_violation,
    run_experiment,
    sweep,
)
from randbell.montecarlo import _collect_chunks
from randbell.sampling import direction_from_angles

ETA_CRIT_MES = 2.0 / (1.0 + np.sqrt(2.0))

SWEEP_RATIOS = (0.5, 0.75, 1.0)


def _report(num: int, detail: str, passed: bool) -> None:
    print(f"criterion {num}: {detail} {'PASS' if passed else 'FAIL'}")
    assert passed, f"criterion {num}: {detail}"


def _run(scenario, ratio, trials, seed=0):
    return run_experiment(
        ScenarioConfig(scenario=scenario, alpha_ratio=ratio, trials=trials,
                       master_seed=seed)
    )


@pytest.fixture(scope="session")
def rim_sweep_4m():
    configs = [ScenarioConfig(scenario="rim", alpha_ratio=r, trials=4_000_000)
               for r in SWEEP_RATIOS]
    return sweep(configs)


@pytest.fixture(scope="session")
def rom_sweep_4m():
    configs = [ScenarioConfig(scenario="rom", alpha_ratio=r, trials=4_000_000)
               for r in SWEEP_RATIOS]
    return sweep(configs)


@pytest.fixture(scope="session")
def rim_mes_1m():
    return _run("rim", 1.0, 1_000_000)


@pytest.fixture(scope="session")
def rotm_mes_1m():
    return _run("rotm", 1.0, 1_000_000)


def _max_over_states(results, eta_key):
    return max(r.summary["p_viol"][eta_key] for r in results)


def test_criterion_1_rim_mes_eta1():
    p = _run("rim", 1.0, 100_000).summary["p_viol"]["1"]
    _report(1, f"RIM MES P_viol(1) = {p:.4f}, window 0.28 +- 0.01",
            abs(p - 0.28) <= 0.01)


def test_criterion_2_rom_mes_eta1():
    p = _run("rom", 1.0, 100_000).summary["p_viol"]["1"]
    _report(2, f"ROM MES P_viol(1) = {p:.4f}, window 0.41 +- 0.01",
            abs(p - 0.41) <= 0.01)


def test_criterion_3_rotm_mes_eta1():
    p = _run("rotm", 1.0, 100_000).summary["p_viol"]["1"]
    _report(3, f"ROTM MES P_viol(1) = {p:.5f}, floor 0.999", p >= 0.999)


def test_criterion_4_rim_tail_0785(rim_sweep_4m):
    p = _max_over_states(rim_sweep_4m, "0.785")
    _report(4, f"RIM max-over-states P_viol(0.785) = {p * 100:.4f}%, "
               f"window 0.005% +- 0.003%",
            0.00002 <= p <= 0.00008)


def test_criterion_5_rim_tail_0828(rim_sweep_4m):
    p = _max_over_states(rim_sweep_4m, "0.828")
    _report(5, f"RIM max-over-states P_viol(0.828) = {p * 100:.4f}%, "
               f"window 0.06% +- 0.02%",
            0.0004 <= p <= 0.0008)


def test_criterion_6_rom_tails(rom_sweep_4m):
    p785 = _max_over_states(rom_sweep_4m, "0.785")
    p828 = _max_over_states(rom_sweep_4m, "0.828")
    ok785 = 0.00005 <= p785 <= 0.00025
    ok828 = 0.00027 <= p828 <= 0.00057
    _report(6, f"ROM max-over-states P_viol(0.785) = {p785 * 100:.4f}% "
               f"(window 0.015% +- 0.01%: {'ok' if ok785 else 'out'}), "
               f"P_viol(0.828) = {p828 * 100:.4f}% "
               f"(window 0.042% +- 0.015%: {'ok' if ok828 else 'out'})",
            ok785 and ok828)


def test_criterion_7_rotm_mes_0828(rotm_mes_1m):
    # Note: for the MES, eta_req = 1/(1 + I) >= 2/(1 + sqrt(2)) ~ 0.82843
    # because I is capped by the Tsirelson bound, so no trial can fall at or
    # below eta = 0.828.  The check is kept at its stated tolerance.
    p = rotm_mes_1m.summary["p_viol"]["0.828"]
    _report(7, f"ROTM MES P_viol(0.828) = {p * 100:.4f}%, window 1.8% +- 0.2%",
            0.016 <= p <= 0.020)


def test_criterion_8_rim_mes_5pct_efficiency(rim_mes_1m):
    curve = rim_mes_1m.curve
    idx = int(np.argmax(curve.p_viol >= 0.05))
    eta5 = float(curve.etas[idx])
    _report(8, f"RIM MES smallest grid eta with P_viol >= 5% = {eta5:.3f}, "
               f"window [0.89, 0.91]",
            curve.p_viol[idx] >= 0.05 and 0.89 <= eta5 <= 0.91)


def test_criterion_9_rim_mes_min_eta(rim_mes_1m):
    lo = rim_mes_1m.summary["min_eta_req"]
    _report(9, f"RIM MES min eta_req = {lo:.6f}, "
               f"window [{ETA_CRIT_MES - 1e-6:.6f}, 0.835]",
            ETA_CRIT_MES - 1e-6 <= lo <= 0.835)


class TestCriterion10:
    """Property suite: each part prints its own `criterion 10x` line."""

    def test_lhv_bounds(self):
        b2 = lhv_brute_force_bound(2, enumerate_forms(2))
        b3 = lhv_brute_force_bound(3, enumerate_forms(3))
        _report(10, f"(a) LHV maxima: {b2:.2e} (2 settings), {b3:.2e} (3 settings), "
                    f"tolerance 1e-12",
                abs(b2) <= 1e-12 and abs(b3) <= 1e-12)

    def test_tsirelson_cap(self):
        top = -np.inf
        mixes = [("rim", 1.0, 400_000), ("rim", 0.5, 300_000), ("rotm", 1.0, 300_000)]
        for scenario, ratio, trials in mixes:
            config = ScenarioConfig(scenario=scenario, alpha_ratio=ratio,
                                    trials=trials, master_seed=1)
            (merged,) = _collect_chunks(config)
            top = max(top, merged.i_top)
        cap = 0.2071068 + 1e-9
        _report(10, f"(b) Tsirelson cap over 10^6 trials: max I = {top:.9f} "
                    f"<= {cap:.9f}",
                top <= cap)

    def test_table_invariants(self):
        rng = np.random.default_rng(2)
        n = 10_000
        worst_norm = 0.0
        worst_ns = 0.0
        for _ in range(n):
            state = NoisyState.from_ratio(rng.uniform(0.2, 1.0),
                                          1.0 if rng.random() < 0.5 else rng.random())
            dirs = direction_from_angles(rng.random(4), rng.random(4))
            table = build_probability_table(
                state,
                tuple(MeasurementDirection(d) for d in dirs[:2]),
                tuple(MeasurementDirection(d) for d in dirs[2:]),
            )
            worst_norm = max(worst_norm,
                             float(np.abs(table.joint.sum(axis=(0, 1)) - 1.0).max()))
            row_a = table.joint.sum(axis=1) - table.marg_a[:, :, None]
            row_b = table.joint.sum(axis=0) - table.marg_b[:, None, :]
            worst_ns = max(worst_ns, float(np.abs(row_a).max()), float(np.abs(row_b).max()))
        _report(10, f"(c) {n} random tables: normalization residue {worst_norm:.2e}, "
                    f"no-signaling residue {worst_ns:.2e}, tolerance 1e-10",
                worst_norm <= 1e-10 and worst_ns <= 1e-10)

    def test_threshold_sign_flip(self):
        rng = np.random.default_rng(3)
        forms = enumerate_forms(2)
        checked = 0
        ok = True
        for _ in range(2_000):
            if checked >= 300:
                break
            state = NoisyState.from_ratio(rng.uniform(0.4, 1.0))
            dirs = direction_from_angles(rng.random(4), rng.random(4))
            table = build_probability_table(
                state,
                tuple(MeasurementDirection(d) for d in dirs[:2]),
                tuple(MeasurementDirection(d) for d in dirs[2:]),
            )
            record = max_violation(table, forms)
            if record.eta_req is None:
                continue
            checked += 1
            e = eta_req(table, record.form)
            ok &= efficiency_corrected_value(table, record.form, e + 1e-6) > 0.0
            ok &= efficiency_corrected_value(table, record.form, e - 1e-6) < 0.0
        _report(10, f"(d) corrected-value sign flip at eta_req +- 1e-6 on "
                    f"{checked} violating trials",
                ok and checked >= 300)

    def test_curve_monotone(self, rim_mes_1m, rotm_mes_1m):
        mono = ((np.diff(rim_mes_1m.curve.p_viol) >= 0).all()
                and (np.diff(rotm_mes_1m.curve.p_viol) >= 0).all())
        _report(10, "(e) violation curves non-decreasing in eta", bool(mono))

    def test_bitwise_reproducible_across_workers(self):
        results = []
        for workers in (1, 4):
            config = ScenarioConfig(scenario="rom", alpha_ratio=0.8,
                                    trials=10_000, master_seed=4, workers=workers)
            results.append(run_experiment(config))
        a, b = results
        same = (
            np.array_equal(a.histogram.counts, b.histogram.counts)
            and np.array_equal(a.curve.p_viol, b.curve.p_viol)
            and np.array_equal(a.curve.ci_low, b.curve.ci_low)
            and np.array_equal(a.curve.ci_high, b.curve.ci_high)
            and a.summary["p_viol"] == b.summary["p_viol"]
            and a.summary["min_eta_req"] == b.summary["min_eta_req"]
            and a.summary["i_max_given_violation"] == b.summary["i_max_given_violation"]
        )
        _report(10, "(f) bitwise identical outputs for worker counts {1, 4} "
                    "at 10^4 trials",
                bool(same))


class TestSweepConsistency:
    """Cross-state sanity on the full-size sweeps (not a numbered criterion)."""

    def test_mes_most_robust_at_eta1(self, rim_sweep_4m, rom_sweep_4m):
        for results in (rim_sweep_4m, rom_sweep_4m):
            p_by_ratio = {r.config.alpha_ratio: r.summary["p_viol"]["1"]
                          for r in results}
            assert p_by_ratio[1.0] >= p_by_ratio[0.75] >= p_by_ratio[0.5]

    def test_mes_floor_in_sweeps(self, rim_sweep_4m):
        mes = [r for r in rim_sweep_4m if r.config.alpha_ratio == 1.0][0]
        assert mes.summary["min_eta_req"] >= ETA_CRIT_MES - 1e-9
