"""Intruder tracking: simulated noisy position measurements and a Kalman filter.

The filter predicts every step through the constant-acceleration transition
with white-noise-jerk process noise, and updates whenever a position
measurement arrives.  It runs on arrays: (6,) states and means, (2,) measured
positions and (6, 6) covariances; `check_posteriors` checks (mean, cov).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .dynamics import transition_matrix


@dataclass(frozen=True)
class NoiseConfig:
    """Measurement standard deviations (m) and acceleration variances (m^2 s^-4)."""

    sigma_x: float = 0.1
    sigma_y: float = 0.1
    sigma_ax2: float = 0.01
    sigma_ay2: float = 0.01

    def __post_init__(self):
        for name in ("sigma_x", "sigma_y", "sigma_ax2", "sigma_ay2"):
            value = getattr(self, name)
            if not 0 <= value < math.inf:  # false for NaN too
                raise ValueError(f"{name} must be finite and non-negative, got {value}")


def check_posteriors(mean, cov) -> None:
    """Raise ValueError unless `mean` is a finite (..., 6) array and `cov` a
    finite (..., 6, 6) one whose matrices are symmetric to within
    `np.allclose(cov, cov.T, rtol=1e-9, atol=1e-12)`."""
    mean, cov = np.asarray(mean, dtype=np.float64), np.asarray(cov, dtype=np.float64)
    if mean.shape[-1:] != (6,) or cov.shape != mean.shape + (6,):
        raise ValueError(f"means must be (..., 6) and covariances 6x6, got {mean.shape}, {cov.shape}")
    if not np.isfinite(mean).all():
        raise ValueError("mean must be finite")
    if not np.isfinite(cov).all():
        raise ValueError("covariance must be finite")
    cov_t = np.swapaxes(cov, -1, -2)
    # kf_step output is exactly symmetric; this test costs 1/7 of allclose
    if not (cov == cov_t).all() and not np.allclose(cov, cov_t, rtol=1e-9, atol=1e-12):
        raise ValueError("covariance must be symmetric")


def process_noise(dt: float, noise: NoiseConfig) -> np.ndarray:
    """White-noise-jerk process covariance, block per axis, scaled by sigma_a^2 / dt."""
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    t2 = dt * dt
    t3 = t2 * dt
    t4 = t3 * dt
    t5 = t4 * dt
    block = np.array(
        [
            [t5 / 20.0, t4 / 8.0, t3 / 6.0],
            [t4 / 8.0, t3 / 3.0, t2 / 2.0],
            [t3 / 6.0, t2 / 2.0, dt],
        ]
    )
    q = np.zeros((6, 6))
    q[:3, :3] = block * (noise.sigma_ax2 / dt)
    q[3:, 3:] = block * (noise.sigma_ay2 / dt)
    return q


def simulate_measurement(truth: np.ndarray, noise: NoiseConfig, w: Sequence[float]) -> np.ndarray:
    """Noisy (2,) position of the (6,) state `truth`: z = H * truth +
    (sigma_x w[0], sigma_y w[1]), from two independent standard normals `w`."""
    return np.array([truth[0] + noise.sigma_x * w[0], truth[3] + noise.sigma_y * w[1]])


@lru_cache(maxsize=16)
def _filter_model(dt: float, noise: NoiseConfig) -> tuple[np.ndarray, ...]:
    """Transition, process noise, H, R and the identity at one (dt, noise).

    Built once per filter configuration instead of once per step, and made
    read-only because every step shares them.
    """
    model = (
        transition_matrix(dt),
        process_noise(dt, noise),
        np.eye(6)[[0, 3]],  # H: the 2x6 selector of the position (x, y)
        np.diag([noise.sigma_x**2, noise.sigma_y**2]),
        np.eye(6),
    )
    for m in model:
        m.flags.writeable = False
    return model


def kf_step(
    mean: np.ndarray,
    cov: np.ndarray,
    z: Optional[np.ndarray],
    dt: float,
    noise: NoiseConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """One predict step, plus an update when a measurement `z` is present.

    Takes and returns the state mean (6,) and covariance (6, 6) as arrays, so
    a filter loop carries no objects between steps.  `z` is the finite (2,)
    measured position or None; any other `z` raises ValueError at once.
    A result that fails `check_posteriors` (a non-finite mean, or a
    covariance that is not finite or not symmetric) is a ValueError too.

    Raises numpy.linalg.LinAlgError if the innovation covariance is singular
    (degenerate measurement noise on a collapsed state); this is surfaced
    rather than silently regularized.
    """
    # a scalar or (1,) z would broadcast onto both position residuals
    if z is not None and (np.shape(z) != (2,) or not np.isfinite(z).all()):
        raise ValueError(f"measurement must be finite and of shape (2,), got {z!r}")
    a, q, h, r, eye = _filter_model(dt, noise)
    mean = a @ mean
    cov = a @ np.asarray(cov) @ a.T + q
    cov = 0.5 * (cov + cov.T)

    if z is not None:
        innovation_cov = h @ cov @ h.T + r
        gain = np.linalg.solve(innovation_cov.T, (cov @ h.T).T).T
        residual = np.asarray(z) - h @ mean
        mean = mean + gain @ residual
        cov = (eye - gain @ h) @ cov
        cov = 0.5 * (cov + cov.T)

    # a finite mean and a finite, exactly symmetric covariance pass every
    # check; anything else goes through the checks.  The sum is finite only
    # if every entry is, and one that overflows only sends it through them.
    if not (math.isfinite(mean.sum() + cov.sum()) and (cov == cov.T).all()):
        check_posteriors(mean, cov)
    return mean, cov


def initial_estimate(
    truth: np.ndarray,
    noise: NoiseConfig,
    w: Sequence[float],
    pos_std: float = 10.0,
    vel_std: float = 5.0,
    acc_std: float = 1.0,
    perfect_init: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Filter initialization (mean, cov) from the (6,) state `truth`: the
    truth with one measurement-noise draw on position.

    The draw is `simulate_measurement`'s, from the two standard normals `w`.
    With `perfect_init` the mean equals the truth exactly and `w` is unused.
    The initial covariance is diagonal from the given standard deviations;
    these are artifact configuration, not physics, and are recorded in
    scenario configs.
    """
    mean = np.array(truth, dtype=np.float64)
    if not perfect_init:
        mean[0] += noise.sigma_x * w[0]
        mean[3] += noise.sigma_y * w[1]
    cov = np.diag(
        [pos_std**2, vel_std**2, acc_std**2, pos_std**2, vel_std**2, acc_std**2]
    ).astype(np.float64)
    return mean, cov
