"""Tracking tests: process noise, measurements, Kalman steps, covariance health."""

import numpy as np
import pytest

from streams import generator
from subsim import rng as _rng
from subsim.dynamics import transition_matrix
from subsim.tracking import (
    NoiseConfig,
    _filter_model,
    check_posteriors,
    initial_estimate,
    kf_step,
    process_noise,
    simulate_measurement,
)

NOISE = NoiseConfig()


def _gen(seed):
    return generator(_rng.derive(seed))


class TestProcessNoise:
    def test_zero_variance_gives_zero_matrix(self):
        q = process_noise(0.05, NoiseConfig(sigma_ax2=0.0, sigma_ay2=0.0))
        assert np.all(q == 0.0)

    def test_unit_step_unit_variance_block(self):
        q = process_noise(1.0, NoiseConfig(sigma_ax2=1.0, sigma_ay2=1.0))
        expected = np.array(
            [[1 / 20, 1 / 8, 1 / 6], [1 / 8, 1 / 3, 1 / 2], [1 / 6, 1 / 2, 1.0]]
        )
        assert np.allclose(q[:3, :3], expected)
        assert np.allclose(q[3:, 3:], expected)
        assert np.all(q[:3, 3:] == 0.0)

    def test_positive_semidefinite_at_random_parameters(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            dt = float(rng.uniform(0.01, 2.0))
            s2 = float(rng.uniform(0.0, 5.0))
            q = process_noise(dt, NoiseConfig(sigma_ax2=s2, sigma_ay2=s2))
            assert np.min(np.linalg.eigvalsh(q)) >= -1e-12

    def test_rejects_nonpositive_step(self):
        with pytest.raises(ValueError):
            process_noise(0.0, NOISE)

    def test_negative_noise_rejected(self):
        with pytest.raises(ValueError):
            NoiseConfig(sigma_x=-0.1)

    @pytest.mark.parametrize("name", ["sigma_x", "sigma_y", "sigma_ax2", "sigma_ay2"])
    def test_nan_noise_rejected(self, name):
        with pytest.raises(ValueError, match=name):
            NoiseConfig(**{name: np.nan})

    @pytest.mark.parametrize("name", ["sigma_x", "sigma_y", "sigma_ax2", "sigma_ay2"])
    def test_infinite_noise_rejected(self, name):
        # infinite process noise used to reach the filter and fail at its
        # second step, after a scenario run had written its manifest
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            NoiseConfig(**{name: np.inf})
        NoiseConfig(**{name: 1e300})


def _prior(pos_var=100.0, vel_var=25.0, acc_var=1.0):
    cov = np.diag([pos_var, vel_var, acc_var, pos_var, vel_var, acc_var]).astype(float)
    return np.zeros(6), cov


class TestMeasurement:
    def test_selector_rows(self):
        _, _, h, _, _ = _filter_model(0.05, NOISE)
        assert (h @ np.arange(1.0, 7.0)).tolist() == [1.0, 4.0]

    def test_noiseless_measurement(self):
        truth = np.array([12.0, 1.0, 0.0, -7.0, 2.0, 0.0])
        z = simulate_measurement(truth, NoiseConfig(sigma_x=0.0, sigma_y=0.0), [1.5, -0.7])
        assert z.tolist() == [12.0, -7.0]

    def test_noise_standard_deviation(self):
        truth = np.zeros(6)
        ws = _gen(5).standard_normal((10_000, 2))
        xs = np.array([simulate_measurement(truth, NOISE, w)[0] for w in ws])
        assert 0.097 < xs.std(ddof=1) < 0.103

    def test_rejects_non_finite(self):
        # rejected before any arithmetic: a non-finite z reaching the update
        # would raise a RuntimeWarning in the gain product first
        mean, cov = _prior()
        for z in ([np.inf, 0.0], [0.0, -np.inf], [np.nan, 0.0]):
            with pytest.raises(ValueError, match="measurement must be finite"):
                kf_step(mean, cov, np.array(z), 0.05, NOISE)

    @pytest.mark.parametrize("shape", [(), (1,), (3,), (2, 2)], ids=["scalar", "1", "3", "2x2"])
    def test_rejects_misshapen(self, shape):
        # rejected before any arithmetic: a scalar or (1,) z would broadcast
        # onto both position residuals
        mean, cov = _prior()
        with pytest.raises(ValueError, match=r"measurement must be finite and of shape \(2,\)"):
            kf_step(mean, cov, np.ones(shape), 0.05, NOISE)


class TestKfStep:
    def test_huge_measurement_noise_is_pure_prediction(self):
        mean, cov = _prior()
        huge = NoiseConfig(sigma_x=1e9, sigma_y=1e9)
        z = np.array([500.0, -500.0])
        updated, _ = kf_step(mean, cov, z, 0.05, huge)
        predicted, _ = kf_step(mean, cov, None, 0.05, huge)
        assert np.allclose(updated, predicted, atol=1e-3)

    def test_prediction_grows_covariance(self):
        mean, cov = _prior()
        _, out = kf_step(mean, cov, None, 0.05, NOISE)
        assert np.trace(out) > np.trace(cov)

    def test_update_shrinks_measured_coordinates(self):
        mean, cov = _prior()
        z = np.array([1.0, -1.0])
        _, pred = kf_step(mean, cov, None, 0.05, NOISE)
        _, upd = kf_step(mean, cov, z, 0.05, NOISE)
        assert upd[0, 0] <= pred[0, 0]
        assert upd[3, 3] <= pred[3, 3]

    def test_zero_noise_exact_tracking(self):
        quiet = NoiseConfig(sigma_x=0.0, sigma_y=0.0, sigma_ax2=0.0, sigma_ay2=0.0)
        state = np.array([10.0, 3.0, 0.1, -5.0, -2.0, 0.05])
        mean, cov = state, np.zeros((6, 6))
        a = transition_matrix(0.1)
        for _ in range(50):
            state = a @ state
            mean, cov = kf_step(mean, cov, None, 0.1, quiet)
        assert np.allclose(mean, state, rtol=1e-12, atol=1e-12)

    def test_covariance_stays_symmetric_psd(self):
        rng = np.random.default_rng(23)
        mean, cov = _prior()
        gen = _gen(1)
        truth = np.array([0.0, 1.0, 0.0, 0.0, -1.0, 0.0])
        for k in range(1000):
            z = None
            if k % 10 == 0:
                z = simulate_measurement(truth, NOISE, gen.standard_normal(2))
            mean, cov = kf_step(mean, cov, z, 0.05, NOISE)
            assert np.array_equal(cov, cov.T)
            assert np.all(np.diag(cov) >= 0.0)

    def test_stationary_position_error_below_sensor_noise(self):
        # stationary target measured every step: the filtered position error
        # settles below the raw measurement noise
        truth = np.array([5.0, 0.0, 0.0, -2.0, 0.0, 0.0])
        mean, cov = initial_estimate(truth, NOISE, _gen(2).standard_normal(2))
        gen = _gen(3)
        for _ in range(100):
            z = simulate_measurement(truth, NOISE, gen.standard_normal(2))
            mean, cov = kf_step(mean, cov, z, 0.05, NOISE)
        assert np.sqrt(cov[0, 0]) < NOISE.sigma_x

    def test_asymmetric_covariance_rejected(self):
        cov = np.eye(6)
        cov[0, 1] = 0.5
        with pytest.raises(ValueError):
            check_posteriors(np.zeros(6), cov)

    def test_symmetry_check_is_allclose(self):
        # the check accepts exactly the finite covariances that
        # np.allclose(cov, cov.T, rtol=1e-9, atol=1e-12) accepts, including at
        # its tolerance; a non-finite entry is rejected even where allclose
        # would pass it (inf against inf)
        rng = np.random.default_rng(12)
        offsets = [0.0, 5e-13, 1e-12, 3e-12, 1e-9, 2e-9, np.inf, -np.inf, np.nan]
        seen = set()
        for _ in range(2000):
            a = rng.normal(size=(6, 6)) * 10.0 ** rng.uniform(-13, 5)
            a = 0.5 * (a + a.T)
            i, j = rng.integers(0, 6, size=2)
            a[i, j] += rng.choice(offsets) * rng.choice([1.0, abs(a[j, i])])
            if rng.random() < 0.1:
                a[j, i] = a[i, j]
            expected = np.isfinite(a).all() and np.allclose(a, a.T, rtol=1e-9, atol=1e-12)
            try:
                check_posteriors(np.zeros(6), a)
                accepted = True
            except ValueError:
                accepted = False
            assert accepted == expected
            seen.add(expected)
        assert seen == {True, False}

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_non_finite_covariance_rejected(self, value):
        # symmetric, so only the finiteness check can reject it
        cov = np.eye(6)
        cov[0, 0] = value
        with pytest.raises(ValueError, match="finite"):
            check_posteriors(np.zeros(6), cov)

    def test_overflowing_step_rejected(self):
        # a covariance near the float limit overflows to an exactly symmetric
        # inf, which the step's fast path must not let through
        mean, _ = _prior()
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite"):
            kf_step(mean, np.eye(6) * 1e308, None, 0.05, NOISE)


class TestInitialEstimate:
    def test_perfect_init_matches_truth(self):
        truth = np.array([1.0, 2.0, 0.1, 3.0, 4.0, 0.2])
        mean, _ = initial_estimate(truth, NOISE, _gen(0).standard_normal(2), perfect_init=True)
        assert np.array_equal(mean, truth)

    def test_default_init_perturbs_position_only(self):
        t = np.array([1.0, 2.0, 0.1, 3.0, 4.0, 0.2])
        m, _ = initial_estimate(t, NOISE, _gen(0).standard_normal(2))
        assert m[0] != t[0] and m[3] != t[3]
        assert np.all(m[[1, 2, 4, 5]] == t[[1, 2, 4, 5]])
        assert abs(m[0] - t[0]) < 1.0
        assert t.tolist() == [1.0, 2.0, 0.1, 3.0, 4.0, 0.2]  # the truth is not perturbed

    def test_covariance_from_configured_stds(self):
        w = _gen(0).standard_normal(2)
        _, cov = initial_estimate(np.zeros(6), NOISE, w, pos_std=10.0, vel_std=5.0, acc_std=1.0)
        assert np.allclose(np.diag(cov), [100.0, 25.0, 1.0, 100.0, 25.0, 1.0])
