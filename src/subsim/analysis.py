"""Accuracy and efficiency study: coefficient of variation versus sample budget.

A scenario phase (encounter + time instant) is frozen into a single conflict
query by running the truth/filter loop once; repeated independent estimates
against that fixed query then isolate estimator randomness from filter noise.
The SS repetitions of one budget run in lockstep groups (`pc_ss_batch`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import rng as _rng
from .conflict import ConflictQuery, encounter_steps, pc_dmc, pc_ss_batch
from .engine import SubsetConfig
from .scenarios import ScenarioSpec, build_head_on


@dataclass(frozen=True)
class CovStudyConfig:
    """Repetition count and sample budgets for both estimators."""

    phase: ConflictQuery
    repetitions: int = 50
    dmc_sizes: Sequence[int] = (100, 1_000, 10_000)
    ss_sizes: Sequence[int] = (100, 1_000, 3_000)
    level_probability: float = 0.1
    max_levels: int = 7

    def __post_init__(self):
        if self.repetitions < 2:
            raise ValueError(
                f"at least 2 repetitions are needed for a spread, got {self.repetitions}"
            )


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


def freeze_phase(
    spec: ScenarioSpec, at_time: float, seed: _rng.SeedLike
) -> ConflictQuery:
    """Run truth, measurements and the filter up to `at_time`, freeze the query.

    The steps, and the query's horizon (the scenario duration), are those of
    `simulate_scenario` at the same seed.
    """
    k_float = at_time * spec.sample_rate
    k_stop = round(k_float)
    if abs(k_float - k_stop) > 1e-9 or not 1 <= k_stop <= spec.n_steps:
        raise ValueError(f"at_time={at_time} does not land on a simulation step")
    for step in encounter_steps(spec, seed):
        if step.k == k_stop:
            return step.query(spec)


def cov_study(config: CovStudyConfig, seed: _rng.SeedLike) -> list[CovPoint]:
    """Repeated estimates per method and budget against the frozen phase."""
    root = _rng.derive(seed)
    points: list[CovPoint] = []
    for size_idx, n in enumerate(config.dmc_sizes):
        estimates = [
            pc_dmc(config.phase, n, _rng.child(root, 0, size_idx, rep)).pc
            for rep in range(config.repetitions)
        ]
        mean, std, cov, undefined = coefficient_of_variation(estimates)
        points.append(
            CovPoint(
                method="dmc",
                requested_n=int(n),
                avg_samples=float(n),
                mean_pc=mean,
                std_pc=std,
                cov=cov,
                undefined=undefined,
            )
        )
    for size_idx, n in enumerate(config.ss_sizes):
        ss_cfg = SubsetConfig(
            n_samples=int(n),
            level_probability=config.level_probability,
            max_levels=config.max_levels,
        )
        reps = range(config.repetitions)
        results = pc_ss_batch(
            [config.phase] * len(reps),
            ss_cfg,
            [_rng.child(root, 1, size_idx, rep) for rep in reps],
        )
        estimates = [res.pc for res, _ in results]
        totals = [res.samples_used for res, _ in results]
        mean, std, cov, undefined = coefficient_of_variation(estimates)
        points.append(
            CovPoint(
                method="ss",
                requested_n=int(n),
                avg_samples=float(np.mean(totals)),
                mean_pc=mean,
                std_pc=std,
                cov=cov,
                undefined=undefined,
            )
        )
    return points


def phase_p1(seed: _rng.SeedLike) -> ConflictQuery:
    """Borderline head-on phase at t = 1 s: conflict probability near 0.5.

    10^5 `pc_dmc` draws read 0.496-0.499 at phase seeds 0, 1, 2 and 11.
    """
    spec = build_head_on(lateral_separation=152.4, longitudinal_separation=2000.0)
    return freeze_phase(spec, at_time=1.0, seed=seed)


def phase_p2(seed: _rng.SeedLike) -> ConflictQuery:
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
