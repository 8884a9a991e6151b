"""Per-time-step probability of conflict between an observer and a tracked intruder.

Intruder states are sampled from the Kalman posterior, propagated over the
prediction horizon alongside the observer's intended track, and scored by
miss distance against the protected radius.  A matched-budget Direct Monte
Carlo estimator (the engine's level 0 run alone) and the subset-simulation
estimator share one engine system, and `simulate_scenario` runs both across a
full encounter while the filter tracks the (noisy-measured) intruder.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Optional, Sequence

import numpy as np

from . import rng as _rng
from .dynamics import AircraftState, track_positions, transition_matrix
from .engine import (
    CcdfTable,
    RareEventSystem,
    SubsetConfig,
    SubsetResult,
    direct_monte_carlo,
    run_subset_simulations,
)
from .scenarios import ScenarioSpec, initial_states
from .tracking import (
    KalmanEstimate,
    initial_estimate,
    kf_step,
    simulate_measurement,
)
from ._kernels import miss_distance_batch, miss_distance_scan

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
        for name in ("protected_radius", "horizon", "sample_rate"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
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


@dataclass(frozen=True)
class QueryBatch:
    """The arrays of K conflict queries on one grid, built once and shared.

    Row k of each array belongs to query k: the observer state (K, 6), its
    track (K, points, 2), the intruder posterior's mean (K, 6) and Cholesky
    factor (K, 6, 6).  The queries share their protected radius, horizon and
    sample rate, so one failure threshold and one grid step serve them all.
    """

    radius: float
    dt: float
    observer: np.ndarray
    obs_xy: np.ndarray
    mean: np.ndarray
    chol: np.ndarray

    @classmethod
    def from_queries(cls, queries: Sequence[ConflictQuery]) -> "QueryBatch":
        if not queries:
            raise ValueError("at least one query is required")
        grid = {(q.protected_radius, q.horizon, q.sample_rate) for q in queries}
        if len(grid) != 1:
            raise ValueError(
                f"queries of one batch must share radius, horizon and sample rate: {sorted(grid)}"
            )
        rate, horizon = queries[0].sample_rate, queries[0].horizon
        observer = np.array([q.observer.as_array() for q in queries])
        covs = np.array([q.intruder_estimate.covariance for q in queries], dtype=np.float64)
        try:
            chol = np.linalg.cholesky(covs)
        except np.linalg.LinAlgError:
            # query by query, so each jittered factor logs its own warning
            chol = np.array([_cholesky_with_jitter(cov) for cov in covs])
        return cls(
            radius=queries[0].protected_radius,
            dt=1.0 / rate,
            observer=observer,
            obs_xy=track_positions(observer, rate, horizon),
            mean=np.array([q.intruder_estimate.mean.as_array() for q in queries]),
            chol=chol,
        )

    def miss(self, states: np.ndarray, problems: np.ndarray) -> np.ndarray:
        """Miss distance of each state against the track of its query."""
        miss, _ = miss_distance_batch(states, self.obs_xy, self.dt, self.observer, problems)
        return miss


def conflict_system(batch: QueryBatch) -> RareEventSystem:
    """The queries of `batch` as engine problems: query k's intruder posterior
    is problem k's prior and its miss distance the response."""
    return RareEventSystem(batch.mean, batch.chol, batch.miss)


def _dmc(
    batch: QueryBatch, ns: Sequence[int], seeds: Sequence[_rng.SeedLike | _rng.Pool]
) -> list[PcResult]:
    """Direct Monte Carlo on every query of `batch`, query k on `ns[k]` draws
    from `seeds[k]`, in one engine call; result k equals `pc_dmc` of query k."""
    counts = direct_monte_carlo(conflict_system(batch), ns, batch.radius, seeds)
    return [
        PcResult(pc=c / n, conflict_count=c, levels_used=1, samples_used=n, floor_reached=False)
        for n, c in zip(ns, counts.tolist())
    ]


def pc_dmc(query: ConflictQuery, n: int, seed: _rng.SeedLike) -> PcResult:
    """Direct Monte Carlo: fraction of n posterior draws whose trajectories
    conflict.  The draws are those of `pc_ss`'s level 0 at the same seed."""
    return _dmc(QueryBatch.from_queries([query]), [n], [seed])[0]


# Independent problems per lockstep engine run: scenario steps in
# `simulate_scenario`, repetitions and budgets in `pc_ss_batch`.  Each chain
# step makes one kernel call for its whole group, and that call costs about
# 0.2 ms before any per-row work, so per-call overhead falls with the group
# while memory grows with it.  400-step head-on encounters at N = 100 (seeds
# 3, 7, 11, 901 and 1234; median over five processes of each process's median
# encounter, interleaved, on a 2-core Xeon) took, with CCDF tables built only
# when read:
#
#   group  kernel calls  time    peak RSS
#   16     555           0.48 s  40.0 MB
#   32     342           0.45 s  40.6 MB
#   48     271           0.42 s  41.8 MB
#   64     204           0.40 s  43.0 MB
#   100    137           0.37 s  46.5 MB
#
# The steps' records do not depend on the group size.
GROUP_SIZE = 64
# Samples per level of a whole group, at most, unless one problem alone has
# more: `_group_sizes` closes a group before it would pass this, so groups at
# N = 3,000 (the c.o.v. study's largest budget) hold 16 problems, and a
# c.o.v. study's budgets share a group while they fit.
_GROUP_SAMPLES = 48_000


def _group_sizes(ns: Sequence[int]) -> list[int]:
    """Problems per lockstep group, for problems of `ns[i]` samples per level
    taken in order: each group takes consecutive problems while it holds at
    most `GROUP_SIZE` of them and `_GROUP_SAMPLES` samples per level, and
    always at least one."""
    sizes: list[int] = []
    count = samples = 0
    for n in ns:
        if count and (count == GROUP_SIZE or samples + n > _GROUP_SAMPLES):
            sizes.append(count)
            count = samples = 0
        count += 1
        samples += n
    return sizes + [count] if count else sizes


def _group_size(config: SubsetConfig) -> int:
    """Problems per lockstep group when every problem runs under `config`."""
    return _group_sizes([config.n_samples] * GROUP_SIZE)[0]


def _ss(batch: QueryBatch, configs, seeds) -> list[SubsetResult]:
    """SS of every query of `batch`, query k from `seeds[k]` under `configs[k]`
    (or under `configs` itself if it is one config), in one lockstep engine run."""
    return run_subset_simulations(conflict_system(batch), configs, batch.radius, seeds)


def _pc(result: SubsetResult) -> PcResult:
    d = result.diagnostics
    return PcResult(
        pc=result.estimate,
        conflict_count=d.conflict_count,
        levels_used=d.levels_completed,
        samples_used=d.samples_used,
        floor_reached=d.floor_reached,
    )


def pc_ss(
    query: ConflictQuery,
    config: SubsetConfig,
    seed: _rng.SeedLike,
) -> tuple[PcResult, CcdfTable]:
    """Subset-simulation conflict probability for one query.

    Level 0 is `pc_dmc` on N draws at the same seed; deeper levels run
    conditional chains against intermediate miss-distance thresholds.  The
    estimate is D/N * p0^L, with D the conflicts among level L's N samples,
    and the CCDF table merges every level's population.
    """
    (result,) = _ss(QueryBatch.from_queries([query]), config, [seed])
    return _pc(result), result.table


def pc_ss_batch(
    queries: Sequence[ConflictQuery],
    configs: SubsetConfig | Sequence[SubsetConfig],
    seeds: Sequence[_rng.SeedLike],
) -> list[PcResult]:
    """`pc_ss` of each query with its config and seed, without the CCDF tables.

    `configs` is one config per query, or one config for them all; the
    configs must share `level_probability`.  Consecutive queries run in one
    lockstep engine run while the group holds at most `GROUP_SIZE` queries
    and `_GROUP_SAMPLES` samples per level (`_group_sizes`), so a group may
    mix budgets.  Result i equals `pc_ss(queries[i], configs[i], seeds[i])[0]`
    exactly.
    """
    if len(queries) != len(seeds):
        raise ValueError(f"{len(queries)} queries but {len(seeds)} seeds")
    if isinstance(configs, SubsetConfig):
        configs = [configs] * len(queries)
    elif len(configs) != len(queries):
        raise ValueError(f"{len(queries)} queries but {len(configs)} configs")
    out = []
    lo = 0
    for size in _group_sizes([config.n_samples for config in configs]):
        hi = lo + size
        batch = QueryBatch.from_queries(queries[lo:hi])
        out += map(_pc, _ss(batch, configs[lo:hi], seeds[lo:hi]))
        lo = hi
    return out


@dataclass(eq=False)
class EncounterStep:
    """True states after simulation step k and the filter's posterior at that step.

    The posterior is the filter's arrays, `mean` (6,) and `cov` (6, 6); the
    validated `estimate` is built from them on first use, by `query` or a
    `StepRecord`, so steps that are never queried build none.
    """

    k: int
    observer: np.ndarray
    intruder: np.ndarray
    mean: np.ndarray
    cov: np.ndarray

    @cached_property
    def estimate(self) -> KalmanEstimate:
        return KalmanEstimate(mean=AircraftState.from_array(self.mean), covariance=self.cov)

    def query(self, spec: ScenarioSpec) -> ConflictQuery:
        """The conflict query at this step; its horizon is the scenario duration."""
        return ConflictQuery(
            observer=AircraftState.from_array(self.observer),
            intruder_estimate=self.estimate,
            protected_radius=spec.protected_radius,
            horizon=spec.duration,
            sample_rate=spec.sample_rate,
        )


def encounter_steps(spec: ScenarioSpec, seed: _rng.SeedLike) -> Iterator[EncounterStep]:
    """Truth propagation, measurements and filtering of one encounter, step by step.

    Yields steps k = 1..n_steps.  The filter starts from stream child(root, 0)
    and the measurement at step k comes from child(root, k, 0), so every
    consumer of an encounter at one seed sees the same steps.
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
    dt, noise, stride = spec.dt, spec.noise, spec.measurement_stride
    a = transition_matrix(dt)
    obs = observer_truth.as_array()
    intr = intruder_truth.as_array()
    mean, cov = est.mean.as_array(), est.covariance
    counter = 0
    for k in range(1, spec.n_steps + 1):
        obs = a @ obs
        intr = a @ intr
        measurement = None
        if counter == stride:
            measurement = simulate_measurement(
                AircraftState.from_array(intr), noise, _rng.generator(_rng.child(root, k, 0))
            )
            counter = 0
        counter += 1
        # read from the module at every step, so a wrapper set on
        # `subsim.conflict.kf_step` sees each filter step
        mean, cov = kf_step(mean, cov, measurement, dt, noise)
        yield EncounterStep(k=k, observer=obs, intruder=intr, mean=mean, cov=cov)


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


def _estimate_steps(
    spec: ScenarioSpec,
    ss_config: SubsetConfig,
    root: _rng.Pool,
    steps: Sequence[EncounterStep],
) -> list[StepRecord]:
    """SS, matched-budget DMC and the true miss distance of a group of steps.

    The group's tracks and Cholesky factors are built once and shared by the
    three.  `root` is the encounter root's pool, and each step's SS and DMC
    roots are its child pools for (k, 1) and (k, 2), so no `SeedSequence` is
    built here.  SS runs the steps in lockstep and reads no table.  DMC draws
    each step's `samples_used` states from its own stream, child(root, k, 2),
    and scores the draws of consecutive steps together, so each step's DMC
    result equals `pc_dmc(step.query(spec), n, child(root, k, 2))`.  The true
    states go straight to the grid scan: their relative acceleration is zero,
    so the closed form of `miss_distance_batch` would settle none of them.
    """
    queries = [step.query(spec) for step in steps]
    batch = QueryBatch.from_queries(queries)
    step_roots = [_rng.child_pool(root, step.k) for step in steps]
    ss = [_pc(res) for res in _ss(batch, ss_config, _rng.children(step_roots, 1))]
    dmc = _dmc(batch, [res.samples_used for res in ss], _rng.children(step_roots, 2))
    truth = np.array([step.intruder for step in steps])
    miss_true, _ = miss_distance_scan(truth, batch.obs_xy, batch.dt, np.arange(len(steps)))
    return [
        StepRecord(
            step=step.k,
            time=step.k * spec.dt,
            pc_ss=ss_res,
            pc_dmc=dmc_res,
            miss_true=float(miss_true[i]),
            observer_truth=query.observer,
            intruder_truth=AircraftState.from_array(step.intruder),
            estimate=step.estimate,
        )
        for i, (step, query, ss_res, dmc_res) in enumerate(zip(steps, queries, ss, dmc))
    ]


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
    subsampled run reproduces exactly the records of the full run; a step
    requested twice gives one record, and a step outside 1..n_steps raises
    `ValueError`.  Estimated steps go to the engine in groups of
    `_group_size(ss_config)`, `pc_ss_batch`'s rule for one budget, which
    changes no record; no CCDF table is built.
    """
    root = _rng.derive(seed)
    wanted = None if estimate_steps is None else set(int(s) for s in estimate_steps)
    if wanted is not None:
        outside = sorted(k for k in wanted if not 1 <= k <= spec.n_steps)
        if outside:
            raise ValueError(f"estimate_steps outside 1..{spec.n_steps}: {outside}")
    steps = (s for s in encounter_steps(spec, root) if wanted is None or s.k in wanted)
    size = _group_size(ss_config)
    records: list[StepRecord] = []
    root_pool = _rng.pool(root)
    while group := list(itertools.islice(steps, size)):
        records += _estimate_steps(spec, ss_config, root_pool, group)
    return records
