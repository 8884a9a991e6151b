"""Reference problem: probability that a standard 2D Gaussian draw lands in a disc.

The rare region is a small circle far from the origin, so plain Monte Carlo
with a small budget almost always reports zero while the subset engine walks
sample chains toward the disc.  A quadrature oracle provides the ground truth
for accuracy checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import rng as _rng
from ._tilt import TiltSpec, resolve_tilt
from .engine import RareEventSystem, SubsetConfig, SubsetResult, run_subset_simulation


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
        if not self.radius > 0:
            raise ValueError(f"radius must be positive, got {self.radius}")


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
    """Plain Monte Carlo estimate: fraction of n standard-normal draws inside the disc."""
    if n < 1:
        raise ValueError(f"sample count must be positive, got {n}")
    gen = _rng.generator(_rng.child(_rng.derive(seed), 0))
    xy = gen.standard_normal((n, 2))
    return float(np.count_nonzero(_distances(xy, region.center.as_array()) <= region.radius)) / n


def _toy_chains(
    seeds_xy: np.ndarray,
    seed_dists: np.ndarray,
    region: CircleRegion,
    thresholds: np.ndarray,
    length: int,
    gens: Sequence[np.random.Generator],
    target_scale: TiltSpec,
) -> tuple[np.ndarray, np.ndarray]:
    """Metropolis-Hastings chains of `length` new samples each under their thresholds.

    Random-walk proposal with unit covariance; the target density is a
    Gaussian about the region center with standard deviation sigma per axis
    (the disc radius unless overridden, see `_tilt`).  A candidate is
    accepted iff it lies within its chain's threshold and its uniform draw is
    below the acceptance ratio.

    The seeds come in len(gens) equal groups.  Group i draws its steps, of
    shape (m_i, length, 2), then its uniforms, of shape (m_i, length), from
    gens[i] in two blocks; chain j of the group takes row j of each, and all
    chains advance together.  Returns the samples (m, length, 2) and their
    distances (m, length).
    """
    seed_dists = np.asarray(seed_dists, dtype=np.float64)
    thresholds = np.asarray(thresholds, dtype=np.float64)
    beyond = np.flatnonzero(seed_dists > thresholds)
    if beyond.size:
        j = beyond[0]
        raise ValueError(
            f"seed {j} violates the threshold: distance {seed_dists[j]:.6g} > {thresholds[j]:.6g}"
        )
    sigma = resolve_tilt(target_scale, region.radius, thresholds)
    sigma2 = sigma * sigma
    m = len(seed_dists)
    per_gen = m // len(gens)
    draws = [
        (gen.standard_normal((per_gen, length, 2)), gen.random((per_gen, length))) for gen in gens
    ]
    steps = np.concatenate([s for s, _ in draws])
    uniforms = np.concatenate([u for _, u in draws])
    center = region.center.as_array()
    cur = np.array(seeds_xy, dtype=np.float64).reshape(m, 2)
    cur_d = seed_dists
    out_xy = np.empty((m, length, 2))
    out_d = np.empty((m, length))
    for k in range(length):
        cand = cur + steps[:, k]
        cand_d = _distances(cand, center)
        # The symmetric random walk's proposal ratio cancels, so the
        # acceptance ratio is the target ratio alone.
        log_beta = (cur_d * cur_d - cand_d * cand_d) / (2.0 * sigma2)
        ok = (cand_d <= thresholds) & (uniforms[:, k] < np.exp(np.minimum(0.0, log_beta)))
        cur = np.where(ok[:, None], cand, cur)
        cur_d = np.where(ok, cand_d, cur_d)
        out_xy[:, k] = cur
        out_d[:, k] = cur_d
    return out_xy, out_d


def oracle_probability(region: CircleRegion, rel_tol: float = 1e-6) -> float:
    """Standard bivariate normal mass inside the disc, by polar quadrature.

    Simpson's rule in radius, periodic trapezoid in angle, grid doubled until
    successive refinements agree to `rel_tol` (far finer than needed).
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
        return float((h / 3.0) * np.dot(w, f))

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


def toy_system(region: CircleRegion, target_scale: TiltSpec = None) -> RareEventSystem:
    """Wire the disc problem into the generic engine.

    Every problem of the system is the same disc; `ss_toy` runs one.
    """
    center = region.center.as_array()

    def sample_prior(gens, n: int) -> np.ndarray:
        return np.concatenate([gen.standard_normal((n, 2)) for gen in gens])

    def evaluate(xy: np.ndarray, problems: np.ndarray) -> np.ndarray:
        return _distances(xy, center)

    def conditional_chains(seeds_xy, seed_dists, thresholds, length, gens, problems):
        xy, d = _toy_chains(seeds_xy, seed_dists, region, thresholds, length, gens, target_scale)
        return xy.reshape(-1, 2), d.reshape(-1)

    return RareEventSystem(
        sample_prior=sample_prior, evaluate=evaluate, conditional_chains=conditional_chains
    )


def ss_toy(
    region: CircleRegion,
    config: SubsetConfig,
    seed: _rng.SeedLike,
    target_scale: TiltSpec = None,
) -> SubsetResult:
    """Subset Simulation estimate of the disc probability.

    All `max_levels` levels run unconditionally (the reference problem's
    descent is not cut short when the disc fills with samples), and the
    probability is read off the final level.  With max_levels = 1 this
    reduces to `dmc_estimate` on the same draws.
    """
    system = toy_system(region, target_scale=target_scale)
    return run_subset_simulation(
        system, config, region.radius, seed, stop_on_rare_count=False
    )
