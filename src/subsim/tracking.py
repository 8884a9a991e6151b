"""Intruder tracking: simulated noisy position measurements and a Kalman filter.

The filter predicts every step through the constant-acceleration transition
with white-noise-jerk process noise, and updates whenever a position
measurement arrives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .dynamics import AircraftState, transition_matrix


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


@dataclass(frozen=True)
class Measurement:
    z: tuple[float, float]

    def __post_init__(self):
        if not np.all(np.isfinite(self.z)):
            raise ValueError(f"measurement must be finite: {self.z}")


@dataclass(frozen=True)
class KalmanEstimate:
    """State mean and 6x6 covariance; covariance kept symmetric by construction."""

    mean: AircraftState
    covariance: np.ndarray

    def __post_init__(self):
        cov = np.asarray(self.covariance, dtype=np.float64)
        if cov.shape != (6, 6):
            raise ValueError(f"covariance must be 6x6, got {cov.shape}")
        if not np.isfinite(cov).all():
            raise ValueError("covariance must be finite")
        same = cov == cov.T
        if same.all():
            return
        # otherwise np.allclose(cov, cov.T, rtol=1e-9, atol=1e-12), spelled
        # out: allclose's own overhead costs more than the check
        close = same | (np.abs(cov - cov.T) <= 1e-12 + 1e-9 * np.abs(cov.T))
        if not close.all():
            raise ValueError("covariance must be symmetric")


def measurement_matrix() -> np.ndarray:
    """2x6 selector picking the planar position out of the state."""
    h = np.zeros((2, 6))
    h[0, 0] = 1.0
    h[1, 3] = 1.0
    return h


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


def simulate_measurement(
    truth: AircraftState, noise: NoiseConfig, w: Sequence[float]
) -> Measurement:
    """Noisy position: z = H * truth + (sigma_x w[0], sigma_y w[1]), from two
    independent standard normals `w`."""
    return Measurement(
        z=(truth.x + noise.sigma_x * w[0], truth.y + noise.sigma_y * w[1])
    )


@lru_cache(maxsize=16)
def _filter_model(dt: float, noise: NoiseConfig) -> tuple[np.ndarray, ...]:
    """Transition, process noise, H, R and the identity at one (dt, noise).

    Built once per filter configuration instead of once per step, and made
    read-only because every step shares them.
    """
    model = (
        transition_matrix(dt),
        process_noise(dt, noise),
        measurement_matrix(),
        np.diag([noise.sigma_x**2, noise.sigma_y**2]),
        np.eye(6),
    )
    for m in model:
        m.flags.writeable = False
    return model


def kf_step(
    mean: np.ndarray,
    cov: np.ndarray,
    measurement: Optional[Measurement],
    dt: float,
    noise: NoiseConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """One predict step, plus an update when a measurement is present.

    Takes and returns the state mean (6,) and covariance (6, 6) as arrays, so
    a filter loop carries no validated objects between steps; wrap a result
    in `KalmanEstimate` where it is queried or recorded.  The step still
    raises what that wrapper would: a non-finite mean, or a covariance that
    is not finite or not symmetric (the `KalmanEstimate` checks), is a
    ValueError here.

    Raises numpy.linalg.LinAlgError if the innovation covariance is singular
    (degenerate measurement noise on a collapsed state); this is surfaced
    rather than silently regularized.
    """
    a, q, h, r, eye = _filter_model(dt, noise)
    mean = a @ mean
    cov = a @ np.asarray(cov) @ a.T + q
    cov = 0.5 * (cov + cov.T)

    if measurement is not None:
        innovation_cov = h @ cov @ h.T + r
        gain = np.linalg.solve(innovation_cov.T, (cov @ h.T).T).T
        residual = np.asarray(measurement.z) - h @ mean
        mean = mean + gain @ residual
        cov = (eye - gain @ h) @ cov
        cov = 0.5 * (cov + cov.T)

    # a finite mean and a finite, exactly symmetric covariance pass every
    # check of the estimate; anything else is put through those checks,
    # which raise on what they reject.  The sum is finite only if every entry
    # is, and one that overflows only sends the step through the checks.
    if not (math.isfinite(mean.sum() + cov.sum()) and (cov == cov.T).all()):
        KalmanEstimate(mean=AircraftState.from_array(mean), covariance=cov)
    return mean, cov


def initial_estimate(
    truth: AircraftState,
    noise: NoiseConfig,
    w: Sequence[float],
    pos_std: float = 10.0,
    vel_std: float = 5.0,
    acc_std: float = 1.0,
    perfect_init: bool = False,
) -> KalmanEstimate:
    """Filter initialization: truth with one measurement-noise draw on position.

    The draw is `simulate_measurement`'s, from the two standard normals `w`.
    With `perfect_init` the mean equals the truth exactly and `w` is unused.
    The initial covariance is diagonal from the given standard deviations;
    these are artifact configuration, not physics, and are recorded in
    scenario configs.
    """
    mean = truth.as_array()
    if not perfect_init:
        mean = mean.copy()
        mean[0] += noise.sigma_x * w[0]
        mean[3] += noise.sigma_y * w[1]
    cov = np.diag(
        [pos_std**2, vel_std**2, acc_std**2, pos_std**2, vel_std**2, acc_std**2]
    ).astype(np.float64)
    return KalmanEstimate(mean=AircraftState.from_array(mean), covariance=cov)
