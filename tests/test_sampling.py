"""Sampler correctness: pinned generator values, determinism, and
distributional properties of the direction samplers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from randbell.sampling import (
    MeasurementTriad,
    RandomSource,
    direction_from_angles,
    rim_settings_from_uniforms,
    rom_settings_from_uniforms,
    rotm_settings_from_uniforms,
    sample_direction,
    sample_orthogonal_pair,
    sample_orthogonal_triad,
    uniform_block,
)


class TestPhiloxKernel:
    # Pinned values of numpy's Philox4x64-10 stream as uniform_block reads
    # it; a change here means every result of the package changes.
    PINNED_SEED0_TRIALS01 = [
        [0.011546754286331562, 0.24154919656271812, 0.11142585551493822,
         0.5644146216071337, 0.5023796042735054, 0.27760557688455356,
         0.946544292789214, 0.9860662462666749],
        [0.25382274039248487, 0.19505057563074713, 0.7117099077319217,
         0.13126466534069492, 0.5724548284695403, 0.25500130176597713,
         0.86503878126127, 0.7603306233497902],
    ]
    PINNED_LAST_TRIAL = [
        0.5959302790351219, 0.8894244551180005, 0.10295501925385575,
        0.8618938888675092, 0.7919964328584591, 0.8531168605809879,
        0.6116556044663573, 0.6540690100046681,
    ]

    def test_pinned_values(self):
        np.testing.assert_array_equal(uniform_block(0, 0, 2), self.PINNED_SEED0_TRIALS01)

    def test_pinned_values_last_trial(self):
        last = 2 ** 64 - 1
        np.testing.assert_array_equal(uniform_block(0, last, last + 1)[0],
                                      self.PINNED_LAST_TRIAL)
        np.testing.assert_array_equal(RandomSource(0, last).uniform(8),
                                      self.PINNED_LAST_TRIAL)

    def test_uniform_block_range_and_shape(self):
        u = uniform_block(123, 0, 1000)
        assert u.shape == (1000, 8)
        assert u.min() >= 0.0 and u.max() < 1.0

    def test_block_matches_scalar_source(self):
        # the batched path and the per-trial stream must agree bit for bit
        lo = 2 ** 40
        block = uniform_block(999, lo, lo + 5)
        for k, row in enumerate(block):
            np.testing.assert_array_equal(RandomSource(999, lo + k).uniform(8), row)

    def test_source_raises_past_eighth_draw(self):
        rng = RandomSource(4, 11)
        rng.uniform(8)
        with pytest.raises(ValueError):
            rng.uniform(1)
        with pytest.raises(ValueError):
            RandomSource(4, 11).uniform(9)

    def test_source_is_resumable(self):
        # draws split across calls equal one contiguous draw
        a = RandomSource(5, 2)
        first = np.concatenate([a.uniform(3), a.uniform(5)])
        b = RandomSource(5, 2)
        np.testing.assert_array_equal(first, b.uniform(8))

    def test_distinct_trials_differ(self):
        u = uniform_block(0, 0, 100)
        assert len(np.unique(u[:, 0])) == 100

    def test_seed_changes_stream(self):
        a = RandomSource(1, 0).uniform(4)
        b = RandomSource(2, 0).uniform(4)
        assert not np.array_equal(a, b)


class TestDirectionFromAngles:
    def test_poles(self):
        for u in (0.0, 0.3, 0.99):
            np.testing.assert_allclose(direction_from_angles(u, 0.0), [0.0, 0.0, 1.0], atol=1e-15)
            np.testing.assert_allclose(direction_from_angles(u, 1.0), [0.0, 0.0, -1.0], atol=1e-15)

    def test_equator_point(self):
        # phi = arccos(0)/2 = pi/4 gives (|0> + |1>)/sqrt(2), Bloch +x
        np.testing.assert_allclose(direction_from_angles(0.0, 0.5), [1.0, 0.0, 0.0], atol=1e-15)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            direction_from_angles(-0.1, 0.5)
        with pytest.raises(ValueError):
            direction_from_angles(0.5, 1.1)

    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_unit_norm_and_nz(self, u, v):
        n = direction_from_angles(u, v)
        assert abs(np.linalg.norm(n) - 1.0) < 1e-12
        assert abs(n[2] - (1.0 - 2.0 * v)) < 1e-12

    def test_broadcasts(self):
        n = direction_from_angles(np.linspace(0, 1, 11), np.linspace(0, 1, 11))
        assert n.shape == (11, 3)


def _directions(scenario, n, seed=0):
    u = uniform_block(seed, 0, n)
    return {
        "rim": rim_settings_from_uniforms,
        "rom": rom_settings_from_uniforms,
        "rotm": rotm_settings_from_uniforms,
    }[scenario](u)


def _ks_uniform_nz(nz):
    xs = np.sort(nz)
    n = len(xs)
    cdf = (xs + 1.0) / 2.0
    return max(np.abs(np.arange(1, n + 1) / n - cdf).max(),
               np.abs(np.arange(n) / n - cdf).max())


def _octant_chi2(dirs):
    signs = (dirs > 0).astype(int)
    octant = signs[:, 0] * 4 + signs[:, 1] * 2 + signs[:, 2]
    counts = np.bincount(octant, minlength=8)
    expected = len(dirs) / 8.0
    return ((counts - expected) ** 2 / expected).sum()


CHI2_7_999 = stats.chi2.ppf(1 - 0.001, 7)


@pytest.fixture(scope="module")
def draws():
    a, _ = _directions("rim", 1_000_000, seed=101)
    return a[:, 0]  # first direction of party A


class TestSampleDirection:

    def test_mean_is_zero(self, draws):
        assert np.abs(draws.mean(axis=0)).max() < 0.005

    def test_second_moment(self, draws):
        assert abs((draws[:, 2] ** 2).mean() - 1.0 / 3.0) < 0.002

    def test_nz_uniform_ks(self, draws):
        assert _ks_uniform_nz(draws[:, 2]) < 0.005

    def test_determinism(self):
        d1 = sample_direction(RandomSource(3, 9))
        d2 = sample_direction(RandomSource(3, 9))
        np.testing.assert_array_equal(d1.n, d2.n)

    def test_matches_gaussian_method(self, draws):
        # independent uniform-sphere construction: normalized 3D Gaussians
        rng = np.random.default_rng(7)
        g = rng.standard_normal((200_000, 3))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        r = stats.ks_2samp(draws[:200_000, 2], g[:, 2])
        assert r.pvalue > 0.001
        r = stats.ks_2samp(np.arctan2(draws[:200_000, 1], draws[:200_000, 0]),
                           np.arctan2(g[:, 1], g[:, 0]))
        assert r.pvalue > 0.001


@pytest.fixture(scope="module")
def pairs():
    a, _ = _directions("rom", 1_000_000, seed=202)
    return a


class TestOrthogonalPair:

    def test_orthogonality(self, pairs):
        dots = np.einsum("bi,bi->b", pairs[:, 0], pairs[:, 1])
        assert np.abs(dots).max() < 1e-10

    def test_scalar_api(self):
        d1, d2 = sample_orthogonal_pair(RandomSource(0, 0))
        assert abs(float(d1.n @ d2.n)) < 1e-10

    def test_pole_conditioned_equator(self):
        from randbell.sampling import _perpendicular_circle_point
        d2 = _perpendicular_circle_point(np.array([0.0, 0.0, 1.0]), np.linspace(0, 0.999, 50))
        assert np.abs(d2[:, 2]).max() < 1e-12

    def test_second_direction_uniform(self, pairs):
        # marginal of the in-plane axis is uniform on the sphere
        assert _octant_chi2(pairs[:, 1]) < CHI2_7_999
        assert _ks_uniform_nz(pairs[:, 1, 2]) < 0.005


@pytest.fixture(scope="module")
def triads():
    a, _ = _directions("rotm", 1_000_000, seed=303)
    return a


class TestOrthogonalTriad:

    def test_orthonormal(self, triads):
        sub = triads[:20_000]
        gram = np.einsum("bik,bjk->bij", sub, sub)
        assert np.abs(gram - np.eye(3)).max() < 1e-10

    def test_right_handed(self, triads):
        sub = triads[:20_000]
        assert np.abs(np.cross(sub[:, 0], sub[:, 1]) - sub[:, 2]).max() < 1e-10

    def test_axis_marginal_uniform(self, triads):
        assert _octant_chi2(triads[:, 0]) < CHI2_7_999
        assert _ks_uniform_nz(triads[:, 0, 2]) < 0.005
        assert _ks_uniform_nz(triads[:, 1, 2]) < 0.005

    def test_scalar_api_validates(self):
        triad = sample_orthogonal_triad(RandomSource(1, 5))
        assert isinstance(triad, MeasurementTriad)
        arr = triad.as_array()
        np.testing.assert_allclose(arr @ arr.T, np.eye(3), atol=1e-12)

    def test_triad_validation_rejects_bad(self):
        from randbell.quantum import MeasurementDirection
        x = MeasurementDirection(np.array([1.0, 0.0, 0.0]))
        y = MeasurementDirection(np.array([0.0, 1.0, 0.0]))
        bad = MeasurementDirection(np.array([0.0, 0.0, -1.0]))  # left-handed
        with pytest.raises(ValueError):
            MeasurementTriad(x, y, bad)


class TestReproducibility:
    def test_full_settings_bit_identical(self):
        for scenario in ("rim", "rom", "rotm"):
            a1, b1 = _directions(scenario, 500, seed=11)
            a2, b2 = _directions(scenario, 500, seed=11)
            np.testing.assert_array_equal(a1, a2)
            np.testing.assert_array_equal(b1, b2)

    def test_rows_independent_of_batch_split(self):
        u_all = uniform_block(42, 0, 100)
        u_tail = uniform_block(42, 50, 100)
        np.testing.assert_array_equal(u_all[50:], u_tail)
