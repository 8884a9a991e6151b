"""Accuracy and efficiency study: coefficient of variation versus sample budget.

A scenario phase (encounter + time instant) is frozen into a single conflict
query by running the truth/filter loop once; repeated independent estimates
against that fixed query then isolate estimator randomness from filter noise.
All (budget, repetition) pairs of a method go to one `pc_dmc` or `pc_ss`
call, whose lockstep batches may mix budgets, and return their estimates
only, with no CCDF table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .conflict import ConflictQuery, PcResult, encounter_steps, pc_dmc, pc_ss
from .engine import SubsetConfig, is_integer
from .rng import SeedLike, children, pool
from .scenarios import ScenarioSpec, build_head_on


@dataclass(frozen=True)
class CovStudyConfig:
    """Repetition count and sample budgets for both estimators.

    Every budget is checked on construction: an empty list of sizes, a
    repetition count or size that is not an integer, a DMC size below 1, or
    an SS size that makes no valid `SubsetConfig`, is rejected before any
    run.
    """

    phase: ConflictQuery
    repetitions: int = 50
    dmc_sizes: Sequence[int] = (100, 1_000, 10_000)
    ss_sizes: Sequence[int] = (100, 1_000, 3_000)
    max_levels: int = 7

    def __post_init__(self):
        if len(self.dmc_sizes) == 0 or len(self.ss_sizes) == 0:
            raise ValueError(
                f"each method needs a sample size, got DMC {list(self.dmc_sizes)} "
                f"and SS {list(self.ss_sizes)}"
            )
        sizes = (self.repetitions, *self.dmc_sizes, *self.ss_sizes)
        if not all(map(is_integer, sizes)):
            raise ValueError(f"repetitions and sample sizes must be integers, got {list(sizes)}")
        if self.repetitions < 2:
            raise ValueError(
                f"at least 2 repetitions are needed for a spread, got {self.repetitions}"
            )
        if any(n < 1 for n in self.dmc_sizes):
            raise ValueError(f"DMC sizes must be positive, got {list(self.dmc_sizes)}")
        for n in self.ss_sizes:
            self.subset_config(n)

    def subset_config(self, n: int) -> SubsetConfig:
        """The engine config of the SS budget of n samples per level, at the default p0 = 0.1."""
        return SubsetConfig(n_samples=int(n), max_levels=self.max_levels)


@dataclass(frozen=True)
class CovPoint:
    """Aggregate of repeated estimates at one budget for one method."""

    method: str
    requested_n: int
    avg_samples: float
    mean_pc: float
    std_pc: float
    cov: float
    undefined: bool


def coefficient_of_variation(estimates: Sequence[float]) -> tuple[float, float, float, bool]:
    """(mean, std, cov, undefined) of repeated estimates; cov = std / mean.

    All-zero estimates leave the ratio undefined: flagged instead of faked.
    """
    est = np.asarray(estimates, dtype=np.float64)
    mean = float(est.mean())
    std = float(est.std(ddof=1))
    if mean <= 0.0:
        return mean, std, float("nan"), True
    return mean, std, std / mean, False


def binomial_cov(p: float, n: float) -> float:
    """Analytic coefficient of variation of a proportion estimate: sqrt((1-p)/(p*n))."""
    if p <= 0 or n <= 0:
        raise ValueError("p and n must be positive")
    return math.sqrt((1.0 - p) / (p * n))


def freeze_phase(spec: ScenarioSpec, at_time: float, seed: SeedLike) -> ConflictQuery:
    """Run truth, measurements and the filter up to `at_time`, freeze the query.

    The steps, and the query's horizon (the scenario duration), are those of
    `simulate_scenario` at the same seed.
    """
    if not math.isfinite(at_time):
        raise ValueError(f"at_time={at_time} does not land on a simulation step")
    k_float = at_time * spec.sample_rate
    k_stop = round(k_float)
    if abs(k_float - k_stop) > 1e-9 or not 1 <= k_stop <= spec.n_steps:
        raise ValueError(f"at_time={at_time} does not land on a simulation step")
    return next(step for step in encounter_steps(spec, seed) if step.k == k_stop).query(spec)


def _cov_point(method: str, n: int, results: Sequence[PcResult]) -> CovPoint:
    """The summary of one method's repeated estimates at budget n."""
    avg_samples = float(np.mean([res.samples_used for res in results]))
    estimates = [res.pc for res in results]
    return CovPoint(method, int(n), avg_samples, *coefficient_of_variation(estimates))


def cov_study(config: CovStudyConfig, seed: SeedLike) -> list[CovPoint]:
    """Repeated estimates per method and budget against the frozen phase.

    Repetition `rep` at budget index `size_idx` draws from stream
    child(root, 0, size_idx, rep) for DMC and child(root, 1, size_idx, rep)
    for SS, with root the seed's pool.
    """
    root = pool(seed)
    r = config.repetitions
    points: list[CovPoint] = []
    # every (budget, repetition) pair of a method in one call, budget-major
    for key, (method, estimator, sizes, budget) in enumerate(
        [("dmc", pc_dmc, config.dmc_sizes, int), ("ss", pc_ss, config.ss_sizes, config.subset_config)]
    ):
        size_idx, rep = np.divmod(np.arange(len(sizes) * r), r)
        results = estimator(
            [config.phase] * (len(sizes) * r),
            [budget(n) for n in sizes for _ in range(r)],
            children(root, key, size_idx, rep),
        )
        points += [_cov_point(method, n, results[i * r : (i + 1) * r]) for i, n in enumerate(sizes)]
    return points


def phase_p1(seed: SeedLike) -> ConflictQuery:
    """Borderline head-on phase at t = 1 s: conflict probability near 0.5.

    10^5 `pc_dmc` draws read 0.496-0.499 at phase seeds 0, 1, 2 and 11.
    """
    spec = build_head_on(lateral_separation=152.4, longitudinal_separation=2000.0)
    return freeze_phase(spec, at_time=1.0, seed=seed)


def phase_p2(seed: SeedLike) -> ConflictQuery:
    """Long-range head-on phase at t = 100 s: small conflict probability.

    Lateral separation 1000 m, longitudinal 20 km, 200 s duration (which is
    also the prediction horizon).
    """
    spec = build_head_on(
        lateral_separation=1000.0,
        longitudinal_separation=20_000.0,
        duration=200.0,
    )
    return freeze_phase(spec, at_time=100.0, seed=seed)
