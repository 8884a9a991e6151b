"""Reference problem: probability that a standard 2D Gaussian draw lands in a disc.

The rare region is a small circle far from the origin, so plain Monte Carlo
with a small budget almost always reports zero while the subset engine walks
sample chains toward the disc.  A quadrature oracle provides the ground truth
for accuracy checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng as _rng
from .engine import (
    RareEventSystem,
    SubsetConfig,
    SubsetResult,
    direct_monte_carlo,
    run_subset_simulation,
)


@dataclass(frozen=True)
class Point2:
    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"coordinates must be finite: {self}")

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y], dtype=np.float64)


@dataclass(frozen=True)
class CircleRegion:
    center: Point2
    radius: float

    def __post_init__(self):
        if not 0 < self.radius < math.inf:
            raise ValueError(f"radius must be positive and finite, got {self.radius}")


def distance_to_center(sample: Point2, region: CircleRegion) -> float:
    """Euclidean distance from the sample to the region center.

    Written as sqrt(dx*dx + dy*dy) so scalar and batch paths agree bit for bit.
    """
    dx = sample.x - region.center.x
    dy = sample.y - region.center.y
    return math.sqrt(dx * dx + dy * dy)


def _distances(xy: np.ndarray, center: np.ndarray) -> np.ndarray:
    d = xy - center
    return np.sqrt(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1])


def dmc_estimate(region: CircleRegion, n: int, seed: _rng.SeedLike) -> float:
    """Plain Monte Carlo estimate: fraction of n standard-normal draws inside
    the disc.  The draws are `ss_toy`'s level 0 at the same seed."""
    return float(direct_monte_carlo(toy_system(region), [n], region.radius, [seed])[0]) / n


def oracle_probability(region: CircleRegion, rel_tol: float = 1e-6) -> float:
    """Standard bivariate normal mass inside the disc, by polar quadrature.

    Simpson's rule in radius, periodic trapezoid in angle, grid doubled until
    successive refinements agree to `rel_tol` (far finer than needed).  A
    non-finite integral raises `ValueError`: refining cannot make it converge.
    """
    cx, cy = region.center.x, region.center.y
    r = region.radius

    def integral(n_rho: int, n_theta: int) -> float:
        rho = np.linspace(0.0, r, n_rho + 1)
        theta = np.linspace(0.0, 2.0 * np.pi, n_theta, endpoint=False)
        x = cx + rho[:, None] * np.cos(theta)
        y = cy + rho[:, None] * np.sin(theta)
        f = np.exp(-0.5 * (x * x + y * y)).mean(axis=1) * rho
        w = np.ones(n_rho + 1)
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        h = r / n_rho
        value = float((h / 3.0) * np.dot(w, f))
        if not math.isfinite(value):
            raise ValueError(f"disc integral is not finite ({value}) for {region}")
        return value

    n_rho, n_theta = 64, 64
    prev = integral(n_rho, n_theta)
    for _ in range(12):
        n_rho *= 2
        n_theta *= 2
        cur = integral(n_rho, n_theta)
        if abs(cur - prev) <= rel_tol * max(abs(cur), 1e-300):
            return cur
        prev = cur
    return prev


def toy_system(region: CircleRegion) -> RareEventSystem:
    """The disc problem as one engine problem: a standard-normal prior (zero
    mean, identity factor) and the distance to the disc center."""
    center = region.center.as_array()

    def evaluate(xy: np.ndarray, problems: np.ndarray) -> np.ndarray:
        return _distances(xy, center)

    return RareEventSystem(np.zeros((1, 2)), np.eye(2)[None], evaluate)


def ss_toy(region: CircleRegion, config: SubsetConfig, seed: _rng.SeedLike) -> SubsetResult:
    """Subset Simulation estimate of the disc probability.

    The descent stops once a level holds N_c samples inside the disc, or at
    `max_levels`; the estimate is D/N * p0^L, with D of the final level L's
    N samples inside the disc.  Level 0 is `dmc_estimate` on the same draws.
    """
    return run_subset_simulation(toy_system(region), config, region.radius, seed)
