"""Per-time-step probability of conflict between an observer and a tracked intruder.

Intruder states are sampled from the Kalman posterior, propagated over the
prediction horizon alongside the observer's intended track, and scored by
miss distance against the protected radius.  A matched-budget Direct Monte
Carlo estimator and the subset-simulation estimator share the same sampling
machinery, and a scenario driver runs both across a full encounter while the
filter tracks the (noisy-measured) intruder.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import rng as _rng
from .dynamics import AircraftState, propagate, transition_matrix
from .engine import CcdfTable, RareEventSystem, SubsetConfig, run_subset_simulation
from .scenarios import ScenarioSpec, initial_states
from .tracking import (
    KalmanEstimate,
    initial_estimate,
    kf_step,
    simulate_measurement,
)
from ._kernels import miss_distance_batch

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class ConflictQuery:
    """One estimation instant: observer intent, intruder belief, zone and horizon."""

    observer: AircraftState
    intruder_estimate: KalmanEstimate
    protected_radius: float = 152.4
    horizon: float = 20.0
    sample_rate: float = 20.0

    def __post_init__(self):
        if self.protected_radius <= 0:
            raise ValueError(f"protected radius must be positive, got {self.protected_radius}")
        if self.horizon <= 0:
            raise ValueError(f"horizon must be positive, got {self.horizon}")
        steps = self.horizon * self.sample_rate
        if abs(steps - round(steps)) > 1e-9 or round(steps) < 1:
            raise ValueError(f"horizon * sample_rate must be a positive integer, got {steps}")


@dataclass(frozen=True)
class PcResult:
    """Conflict probability with its sampling diagnostics.

    When `floor_reached` is set no conflicting sample was found and `pc` is
    the smallest representable interval: read it as "P_c is below this value".
    """

    pc: float
    conflict_count: int
    levels_used: int
    samples_used: int
    floor_reached: bool


def _observer_positions(query: ConflictQuery) -> np.ndarray:
    traj = propagate(query.observer, f=query.sample_rate, t=query.horizon)
    return traj.positions


def _cholesky_with_jitter(cov: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor, adding the smallest diagonal jitter that works.

    Escalates from 1e-12 to 1e-6 of the largest diagonal entry; anything
    worse than that is treated as a genuinely indefinite covariance.
    """
    cov = np.asarray(cov, dtype=np.float64)
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        pass
    scale = float(np.max(np.abs(np.diag(cov)))) or 1.0
    jitter = 1e-12 * scale
    while jitter <= 1e-6 * scale:
        try:
            factor = np.linalg.cholesky(cov + jitter * np.eye(6))
        except np.linalg.LinAlgError:
            jitter *= 10.0
            continue
        logger.warning("covariance required diagonal jitter %.3e to factorize", jitter)
        return factor
    raise np.linalg.LinAlgError(
        "intruder covariance is not positive semidefinite (jitter up to 1e-6*scale failed)"
    )


def _sample_states(gen: np.random.Generator, n: int, mean: np.ndarray, chol: np.ndarray) -> np.ndarray:
    z = gen.standard_normal((n, 6))
    return mean + z @ chol.T


def pc_dmc(query: ConflictQuery, n: int, seed: _rng.SeedLike) -> PcResult:
    """Direct Monte Carlo: fraction of n posterior draws whose trajectories conflict."""
    if n < 1:
        raise ValueError(f"sample count must be positive, got {n}")
    gen = _rng.generator(_rng.child(_rng.derive(seed), 0))
    mean = query.intruder_estimate.mean.as_array()
    chol = _cholesky_with_jitter(query.intruder_estimate.covariance)
    obs_xy = _observer_positions(query)
    states = _sample_states(gen, n, mean, chol)
    dt = 1.0 / query.sample_rate
    miss, _ = miss_distance_batch(states, obs_xy, dt, query.observer.as_array())
    conflicts = int(np.count_nonzero(miss <= query.protected_radius))
    return PcResult(
        pc=conflicts / n,
        conflict_count=conflicts,
        levels_used=1,
        samples_used=n,
        floor_reached=False,
    )


# Correlation between successive whitened chain states.  0.8 accepted about
# 35% of candidates at the long-range phase p2 of the c.o.v. study.
CHAIN_CORRELATION = 0.8
_INNOVATION_SCALE = math.sqrt(1.0 - CHAIN_CORRELATION**2)


def _conflict_chains(
    seed_states: np.ndarray,
    seed_misses: np.ndarray,
    threshold: float,
    innovations: np.ndarray,
    obs_xy: np.ndarray,
    dt: float,
    observer: np.ndarray,
    mean: np.ndarray,
    chol: np.ndarray,
    chol_inv: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Conditional chains of intruder states whose miss distances stay within `threshold`.

    Conditional sampling in whitened coordinates z = L^-1 (x - mean): each
    standard-normal row xi of a chain's innovations proposes
    z' = rho z + sqrt(1 - rho^2) xi, which moves all six components and
    leaves the posterior invariant, and the candidate is accepted iff its
    miss distance is at most `threshold`.  The chains' stationary law is
    therefore the posterior restricted to the level, as the engine's
    p0^m * D / N read-off assumes.

    Chain j starts at `seed_states[j]` and consumes `innovations[j]`, of
    shape (length, 6).  The chains are independent, so they advance in
    lockstep: one kernel call per step covers every chain.  Whitening goes
    through a stacked matmul, which rounds as a per-chain `chol @ z` does, so
    a chain's values do not depend on which other chains run beside it.

    Returns the states (m, length, 6), their miss distances (m, length) and
    the number of accepted candidates per chain.
    """
    m, length = innovations.shape[:2]
    cur = np.array(seed_states, dtype=np.float64).reshape(m, 6)
    cur_miss = np.array(seed_misses, dtype=np.float64).reshape(m)
    z = (chol_inv @ (cur - mean)[:, :, None])[:, :, 0]
    steps = _INNOVATION_SCALE * innovations
    out_x = np.empty((m, length, 6))
    out_r = np.empty((m, length))
    accepted = np.zeros(m, dtype=np.int64)
    for k in range(length):
        cand_z = CHAIN_CORRELATION * z + steps[:, k]
        cand = mean + (chol @ cand_z[:, :, None])[:, :, 0]
        cand_miss, _ = miss_distance_batch(cand, obs_xy, dt, observer)
        ok = cand_miss <= threshold
        z = np.where(ok[:, None], cand_z, z)
        cur = np.where(ok[:, None], cand, cur)
        cur_miss = np.where(ok, cand_miss, cur_miss)
        accepted += ok
        out_x[:, k] = cur
        out_r[:, k] = cur_miss
    return out_x, out_r, accepted


def conflict_system(query: ConflictQuery) -> RareEventSystem:
    """Wire one conflict query into the generic engine."""
    obs_xy = _observer_positions(query)
    dt = 1.0 / query.sample_rate
    observer = query.observer.as_array()
    mean = query.intruder_estimate.mean.as_array()
    chol = _cholesky_with_jitter(query.intruder_estimate.covariance)
    chol_inv = np.linalg.inv(chol)

    def sample_prior(gen: np.random.Generator, n: int) -> np.ndarray:
        return _sample_states(gen, n, mean, chol)

    def evaluate(states: np.ndarray) -> np.ndarray:
        miss, _ = miss_distance_batch(states, obs_xy, dt, observer)
        return miss

    def conditional_chains(seed_states, seed_misses, threshold, length, gen):
        # Chain j takes innovations[j] of one draw from the level's stream.
        seed_misses = np.asarray(seed_misses, dtype=np.float64)
        beyond = np.flatnonzero(seed_misses > threshold)
        if beyond.size:
            j = beyond[0]
            raise ValueError(
                f"seed {j} violates the threshold: miss {seed_misses[j]:.6g} > {threshold:.6g}"
            )
        innovations = gen.standard_normal((len(seed_misses), length, 6))
        states, misses, _ = _conflict_chains(
            seed_states, seed_misses, threshold, innovations,
            obs_xy, dt, observer, mean, chol, chol_inv,
        )
        return states.reshape(-1, 6), misses.reshape(-1)

    return RareEventSystem(
        sample_prior=sample_prior, evaluate=evaluate, conditional_chains=conditional_chains
    )


def pc_ss(
    query: ConflictQuery,
    config: SubsetConfig,
    seed: _rng.SeedLike,
) -> tuple[PcResult, CcdfTable]:
    """Subset-simulation conflict probability for one query.

    Level 0 is the Direct Monte Carlo machinery on N draws (same stream as
    `pc_dmc` for the same master seed); deeper levels run conditional chains
    against intermediate miss-distance thresholds.
    """
    system = conflict_system(query)
    result = run_subset_simulation(system, config, query.protected_radius, seed)
    d = result.diagnostics
    pc = PcResult(
        pc=result.estimate,
        conflict_count=d.conflict_count,
        levels_used=d.levels_completed,
        samples_used=d.samples_used,
        floor_reached=d.floor_reached,
    )
    return pc, result.table


@dataclass(frozen=True)
class StepRecord:
    """One emitted row of the scenario time series."""

    step: int
    time: float
    pc_ss: PcResult
    pc_dmc: PcResult
    miss_true: float
    observer_truth: AircraftState
    intruder_truth: AircraftState
    estimate: KalmanEstimate


def simulate_scenario(
    spec: ScenarioSpec,
    ss_config: SubsetConfig,
    seed: _rng.SeedLike,
    estimate_steps: Optional[Sequence[int]] = None,
) -> list[StepRecord]:
    """Run a full encounter: truth propagation, measurements, filtering, and a
    matched-budget SS/DMC conflict estimate per step.

    `estimate_steps` restricts which steps (1-based) produce estimates; the
    truth/filter evolution and all random streams are unaffected, so a
    subsampled run reproduces exactly the records of the full run.
    """
    root = _rng.derive(seed)
    observer_truth, intruder_truth = initial_states(spec)
    est = initial_estimate(
        intruder_truth,
        spec.noise,
        _rng.generator(_rng.child(root, 0)),
        pos_std=spec.init_pos_std,
        vel_std=spec.init_vel_std,
        acc_std=spec.init_acc_std,
        perfect_init=spec.perfect_init,
    )
    a = transition_matrix(spec.dt)
    obs = observer_truth.as_array()
    intr = intruder_truth.as_array()
    wanted = None if estimate_steps is None else set(int(s) for s in estimate_steps)
    counter = 0
    records: list[StepRecord] = []
    for k in range(1, spec.n_steps + 1):
        obs = a @ obs
        intr = a @ intr
        measurement = None
        if counter == spec.measurement_stride:
            truth_state = AircraftState.from_array(intr)
            measurement = simulate_measurement(
                truth_state, spec.noise, _rng.generator(_rng.child(root, k, 0))
            )
            counter = 0
        counter += 1
        est = kf_step(est, measurement, spec.dt, spec.noise)

        if wanted is not None and k not in wanted:
            continue
        observer_state = AircraftState.from_array(obs)
        intruder_state = AircraftState.from_array(intr)
        query = ConflictQuery(
            observer=observer_state,
            intruder_estimate=est,
            protected_radius=spec.protected_radius,
            horizon=spec.duration,
            sample_rate=spec.sample_rate,
        )
        ss_res, _ = pc_ss(query, ss_config, _rng.child(root, k, 1))
        dmc_res = pc_dmc(query, ss_res.samples_used, _rng.child(root, k, 2))
        obs_xy = _observer_positions(query)
        miss_true, _ = miss_distance_batch(intr[None, :], obs_xy, spec.dt, obs)
        records.append(
            StepRecord(
                step=k,
                time=k * spec.dt,
                pc_ss=ss_res,
                pc_dmc=dmc_res,
                miss_true=float(miss_true[0]),
                observer_truth=observer_state,
                intruder_truth=intruder_state,
                estimate=est,
            )
        )
    return records
