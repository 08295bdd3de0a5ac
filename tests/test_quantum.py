"""State, projector, and Born-rule probability checks, including agreement
between the exact operator route and the closed-form Bloch route."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randbell import (
    MeasurementDirection,
    NoisyState,
    NumericalConsistencyError,
    Projector,
    PureTwoQubitState,
    joint_probability,
    marginal_probability,
    projector_from_direction,
)
from randbell.quantum import doubled_correlator, joint_outcome00, marginal_outcome0
from randbell.sampling import direction_from_angles

MES = NoisyState.from_ratio(1.0)
SQ2 = 1.0 / np.sqrt(2.0)


def _random_directions(rng, n):
    return direction_from_angles(rng.random(n), rng.random(n))


class TestStates:
    def test_normalization_enforced(self):
        with pytest.raises(ValueError):
            PureTwoQubitState(0.9, 0.9)
        with pytest.raises(ValueError):
            PureTwoQubitState(-SQ2, SQ2)

    def test_from_ratio(self):
        s = PureTwoQubitState.from_ratio(0.5)
        assert s.alpha / s.beta == pytest.approx(0.5, abs=1e-14)
        assert s.alpha ** 2 + s.beta ** 2 == pytest.approx(1.0, abs=1e-14)

    def test_concurrence(self):
        assert PureTwoQubitState(SQ2, SQ2).concurrence == pytest.approx(1.0, abs=1e-12)
        assert PureTwoQubitState(1.0, 0.0).concurrence == 0.0

    def test_amplitude_vector(self):
        s = PureTwoQubitState.from_ratio(2.0)
        np.testing.assert_allclose(s.amplitudes, [0, s.alpha, s.beta, 0])

    def test_visibility_range(self):
        with pytest.raises(ValueError):
            NoisyState(MES.pure, 1.5)

    def test_density_matrix(self):
        rho = NoisyState(MES.pure, 0.5).density_matrix
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-14)
        np.testing.assert_allclose(rho, rho.conj().T, atol=1e-15)
        # V=1 recovers the pure projector
        rho1 = NoisyState(MES.pure, 1.0).density_matrix
        np.testing.assert_allclose(rho1 @ rho1, rho1, atol=1e-14)


class TestProjector:
    def test_z_axis(self):
        p = projector_from_direction(MeasurementDirection(np.array([0.0, 0.0, 1.0])))
        np.testing.assert_allclose(p.m, np.diag([1.0, 0.0]), atol=1e-15)

    def test_x_axis(self):
        p = projector_from_direction(MeasurementDirection(np.array([1.0, 0.0, 0.0])))
        np.testing.assert_allclose(p.m, 0.5 * np.ones((2, 2)), atol=1e-15)

    def test_y_axis(self):
        p = projector_from_direction(MeasurementDirection(np.array([0.0, 1.0, 0.0])))
        np.testing.assert_allclose(p.m, 0.5 * np.array([[1, -1j], [1j, 1]]), atol=1e-15)

    def test_invalid_direction(self):
        with pytest.raises(ValueError):
            MeasurementDirection(np.array([1.0, 1.0, 0.0]))

    def test_antipodal_is_complement(self):
        rng = np.random.default_rng(0)
        for n in _random_directions(rng, 20):
            d = MeasurementDirection(n)
            p = projector_from_direction(d)
            q = projector_from_direction(MeasurementDirection(-n))
            np.testing.assert_allclose(p.m + q.m, np.eye(2), atol=1e-14)

    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_projector_properties(self, u, v):
        p = projector_from_direction(MeasurementDirection(direction_from_angles(u, v)))
        m = p.m
        assert np.abs(m - m.conj().T).max() < 1e-12
        assert np.abs(m @ m - m).max() < 1e-12
        assert abs(np.trace(m) - 1.0) < 1e-12

    def test_projector_validation(self):
        with pytest.raises(ValueError):
            Projector(np.array([[1.0, 0.2], [0.0, 0.0]]))  # not Hermitian
        with pytest.raises(ValueError):
            Projector(np.eye(2))  # trace 2


ZP = projector_from_direction(MeasurementDirection(np.array([0.0, 0.0, 1.0])))
ZM = ZP.complement


class TestJointProbability:
    def test_mes_no_00_component(self):
        assert joint_probability(MES, ZP, ZP) == pytest.approx(0.0, abs=1e-14)

    def test_product_state_definite(self):
        s01 = NoisyState(PureTwoQubitState(1.0, 0.0))
        assert joint_probability(s01, ZP, ZM) == pytest.approx(1.0, abs=1e-14)
        assert joint_probability(s01, ZP, ZP) == pytest.approx(0.0, abs=1e-14)

    def test_maximally_mixed(self):
        rng = np.random.default_rng(1)
        state = NoisyState(MES.pure, 0.0)
        for na, nb in zip(_random_directions(rng, 10), _random_directions(rng, 10)):
            pa = projector_from_direction(MeasurementDirection(na))
            pb = projector_from_direction(MeasurementDirection(nb))
            assert joint_probability(state, pa, pb) == pytest.approx(0.25, abs=1e-13)

    def test_marginal_examples(self):
        state = NoisyState.from_ratio(2.0)  # alpha^2 = 0.8
        assert state.pure.alpha ** 2 == pytest.approx(0.8, abs=1e-14)
        assert marginal_probability(state, ZP, "A") == pytest.approx(0.8, abs=1e-12)
        assert marginal_probability(state, ZP, "B") == pytest.approx(0.2, abs=1e-12)

    def test_mes_marginals_half(self):
        rng = np.random.default_rng(2)
        for n in _random_directions(rng, 10):
            p = projector_from_direction(MeasurementDirection(n))
            for party in ("A", "B"):
                assert marginal_probability(MES, p, party) == pytest.approx(0.5, abs=1e-13)

    def test_bad_party(self):
        with pytest.raises(ValueError):
            marginal_probability(MES, ZP, "C")
        with pytest.raises(ValueError):
            marginal_outcome0(MES, np.zeros(3), "C")


N_SAMPLES = 10_000


@pytest.fixture(scope="module")
def samples():
    rng = np.random.default_rng(42)
    ratios = rng.uniform(0.1, 1.0, N_SAMPLES)
    vis = np.where(rng.random(N_SAMPLES) < 0.5, 1.0, rng.random(N_SAMPLES))
    na = _random_directions(rng, N_SAMPLES)
    nb = _random_directions(rng, N_SAMPLES)
    return ratios, vis, na, nb


class TestProbabilityInvariants:

    def test_range_and_completeness(self, samples):
        ratios, vis, na, nb = samples
        for i in range(0, N_SAMPLES, 7):
            state = NoisyState.from_ratio(ratios[i], vis[i])
            pa = projector_from_direction(MeasurementDirection(na[i]))
            pb = projector_from_direction(MeasurementDirection(nb[i]))
            ps = [
                joint_probability(state, pa, pb),
                joint_probability(state, pa, pb.complement),
                joint_probability(state, pa.complement, pb),
                joint_probability(state, pa.complement, pb.complement),
            ]
            assert all(-1e-12 <= p <= 1.0 + 1e-12 for p in ps)
            assert sum(ps) == pytest.approx(1.0, abs=1e-10)
            # joint over one party's outcomes reproduces the other marginal
            assert ps[0] + ps[2] == pytest.approx(
                marginal_probability(state, pb, "B"), abs=1e-10)

    def test_closed_form_matches_exact(self, samples):
        ratios, vis, na, nb = samples
        worst = 0.0
        for i in range(0, N_SAMPLES, 11):
            state = NoisyState.from_ratio(ratios[i], vis[i])
            pa = projector_from_direction(MeasurementDirection(na[i]))
            pb = projector_from_direction(MeasurementDirection(nb[i]))
            exact = joint_probability(state, pa, pb)
            inplane = na[i, 0] * nb[i, 0] + na[i, 1] * nb[i, 1]
            fast = float(joint_outcome00(state, na[i, 2], nb[i, 2], inplane))
            worst = max(worst, abs(exact - fast))
            ma = marginal_probability(state, pa, "A")
            fa = float(marginal_outcome0(state, na[i, 2], "A"))
            worst = max(worst, abs(ma - fa))
            mb = marginal_probability(state, pb, "B")
            fb = float(marginal_outcome0(state, nb[i, 2], "B"))
            worst = max(worst, abs(mb - fb))
            d = float(doubled_correlator(state, inplane, na[i, 2] * nb[i, 2]))
            worst = max(worst, abs(8 * exact - 4 * ma - 4 * mb + 2 - d))
        assert worst < 1e-12

    @given(st.floats(0.0, 1.0), st.floats(0.1, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_visibility_linearity(self, v, ratio, u1, u2):
        pure = PureTwoQubitState.from_ratio(ratio)
        na = direction_from_angles(u1, u2)
        nb = direction_from_angles(u2, u1)
        pa = projector_from_direction(MeasurementDirection(na))
        pb = projector_from_direction(MeasurementDirection(nb))
        p_v = joint_probability(NoisyState(pure, v), pa, pb)
        p_1 = joint_probability(NoisyState(pure, 1.0), pa, pb)
        p_0 = joint_probability(NoisyState(pure, 0.0), pa, pb)
        assert p_v == pytest.approx(v * p_1 + (1.0 - v) * p_0, abs=1e-12)

    def test_imaginary_residue_detected(self):
        # bypass construction checks to exercise the consistency guard
        bad_a = Projector.__new__(Projector)
        object.__setattr__(bad_a, "m", np.array([[0.5, 1j], [0.0, 0.5]]))
        bad_b = Projector.__new__(Projector)
        object.__setattr__(bad_b, "m", np.array([[0.5, 0.0], [1.0, 0.5]]))
        with pytest.raises(NumericalConsistencyError):
            joint_probability(MES, bad_a, bad_b)
