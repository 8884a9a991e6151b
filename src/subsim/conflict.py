"""Per-time-step probability of conflict between an observer and a tracked intruder.

Intruder states are sampled from the Kalman posterior and scored by their
miss distance, the closest approach to the observer's intended
constant-acceleration motion over the prediction horizon in continuous time
(`dynamics.miss_distance_batch`), against the protected radius, the
system's failure threshold.  A query is the filter's arrays, which
`conflict_system` checks and poses as engine problems, as `toy.toy_system`
poses its disc.  Matched-budget Direct Monte
Carlo (`pc_dmc`, the engine's level 0 run alone, counted through
`_counting`) and subset simulation
(`pc_ss`) each run a list of queries as one system in one engine call and
return the engine's summaries, `engine.PcResult`, as they are, and
`simulate_scenario` runs both across a full encounter while the filter
tracks the (noisy-measured) intruder, on one system of every estimated step.
"""

from __future__ import annotations

import dataclasses
import functools
import logging
import math
import numbers
import operator
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Iterator, Optional, Sequence

import numpy as np

from .dynamics import miss_distance_batch, transition_matrix
from .engine import (
    PcResult,
    RareEventSystem,
    SubsetConfig,
    direct_monte_carlo,
    run_subset_simulations,
)
from .rng import Pools, SeedLike, children, pool, standard_normal
from .scenarios import ScenarioSpec, initial_states
from .tracking import (
    check_posteriors,
    initial_estimate,
    kf_step,
    simulate_measurement,
)

logger = logging.getLogger(__name__)


@dataclass(frozen=True, eq=False)
class ConflictQuery:
    """One estimation instant: the observer's state `observer` (6,), the intruder
    posterior's `mean` (6,) and `cov` (6, 6), the zone's radius and the horizon."""

    observer: np.ndarray
    mean: np.ndarray
    cov: np.ndarray
    protected_radius: float = 152.4
    horizon: float = 20.0


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


def conflict_system(queries: Sequence[ConflictQuery]) -> RareEventSystem:
    """The queries as engine problems, as `toy.toy_system` poses the disc:
    query k's intruder posterior is problem k's prior and its miss distance
    (`miss_distance_batch`, the closest approach over [0, horizon] in
    continuous time) to the observer the response.

    The queries must share their protected radius, the system's failure
    threshold; their horizons may differ.  Their arrays are stacked and
    checked once, before any draw: `check_posteriors`, finite observer
    states, and a finite, positive radius and horizon.  The covariances are
    factored in one stacked call, or query by query with jitter.
    """
    if not queries:
        raise ValueError("at least one query is required")
    observer = np.array([q.observer for q in queries], dtype=np.float64)
    mean = np.array([q.mean for q in queries], dtype=np.float64)
    covs = np.array([q.cov for q in queries], dtype=np.float64)
    radii = _real_field(queries, "protected_radius")
    horizon = _real_field(queries, "horizon")
    check_posteriors(mean, covs)
    if observer.shape != mean.shape or not np.isfinite(observer).all():
        raise ValueError(f"observer states must be finite and (6,), got shape {observer.shape[1:]}")
    # radii are checked before they are compared, which two NaNs never equal
    for name, values in (("protected_radius", radii), ("horizon", horizon)):
        bad = values[~((0 < values) & (values < math.inf))]
        if bad.size:
            raise ValueError(f"{name} must be finite and positive, got {bad[0]}")
    radius = float(radii[0])
    if (radii != radius).any():
        shared = sorted(set(radii.tolist()))
        raise ValueError(f"queries of one system must share their protected radius: {shared}")
    try:
        chol = np.linalg.cholesky(covs)
    except np.linalg.LinAlgError:
        # query by query, so each jittered factor logs its own warning
        chol = np.array([_cholesky_with_jitter(cov) for cov in covs])

    def evaluate(states: np.ndarray, problems: np.ndarray, bound=None) -> np.ndarray:
        # read from the module at every call, so a wrapper set on
        # `subsim.conflict.miss_distance_batch` sees each kernel call, with
        # the states and the observers as its first two arguments
        return miss_distance_batch(states, observer, problems, horizon, bound)[0]

    return RareEventSystem(mean, chol, evaluate, threshold=radius)


def _real_field(queries: Sequence[ConflictQuery], name: str) -> np.ndarray:
    """Field `name` of every query as a float64 array.  A value that is not
    a real number raises ValueError: NumPy would parse a numeric string."""
    values = [getattr(q, name) for q in queries]
    for value in values:
        if not isinstance(value, numbers.Real):
            raise ValueError(f"{name} must be a real number, got {value!r}")
    return np.array(values, dtype=np.float64)


def _counting(system: RareEventSystem) -> RareEventSystem:
    """`system` for Direct Monte Carlo, which only counts the responses at
    or below its threshold: the kernel gets the threshold as its `bound`,
    so the draws that a lower bound places beyond it skip the root solve
    and the counts are those of `system` itself."""
    return dataclasses.replace(
        system, evaluate=functools.partial(system.evaluate, bound=system.threshold)
    )


def pc_dmc(
    queries: Sequence[ConflictQuery], ns: Sequence[int], seeds: Sequence[SeedLike] | Pools
) -> list[PcResult]:
    """Direct Monte Carlo: per query k, the fraction of `ns[k]` posterior
    draws from `seeds[k]`, those of `pc_ss`'s level 0, that conflict.  One
    engine call; result k equals query k's own one-query call exactly."""
    return direct_monte_carlo(_counting(conflict_system(queries)), ns, seeds)


def pc_ss(
    queries: Sequence[ConflictQuery],
    configs: SubsetConfig | Sequence[SubsetConfig],
    seeds: Sequence[SeedLike] | Pools,
) -> list[PcResult]:
    """Subset-simulation conflict probability of query k under `configs[k]`,
    or `configs` itself if it is one config, from `seeds[k]`.

    Level 0 is `pc_dmc` on N draws at the same seed; deeper levels run
    conditional chains against intermediate miss-distance thresholds.  The
    estimate is D/N * p0^L, with D the conflicts among level L's N samples.
    One engine call, whose batches may mix budgets; result k equals query
    k's own one-query call exactly.  The run keeps no level blocks
    (`tables=False`), so no CCDF table can be built.
    """
    results = run_subset_simulations(conflict_system(queries), configs, seeds, tables=False)
    return [result.diagnostics for result in results]


@dataclass(eq=False)
class EncounterStep:
    """True states after simulation step k and the filter's posterior at that
    step, as the arrays `observer`, `intruder`, `mean` (6,) and `cov` (6, 6)."""

    k: int
    observer: np.ndarray
    intruder: np.ndarray
    mean: np.ndarray
    cov: np.ndarray

    def query(self, spec: ScenarioSpec) -> ConflictQuery:
        """The conflict query at this step; its horizon is the scenario duration."""
        return ConflictQuery(self.observer, self.mean, self.cov, spec.protected_radius, spec.duration)


def _two_normals(root: Pools, *key: int) -> np.ndarray:
    """The first two standard normals of stream child(root, *key)."""
    return standard_normal(children(root, *key), [2])


def encounter_steps(
    spec: ScenarioSpec, seed: SeedLike | Pools, last_step: Optional[int] = None
) -> Iterator[EncounterStep]:
    """Truth propagation, measurements and filtering of one encounter, step by step.

    Yields steps k = 1..last_step, by default 1..n_steps; only the
    measurements of those steps are drawn, and a last step outside
    1..n_steps raises `ValueError`.  The filter's initial estimate draws
    from stream child(root, 0) and the measurement at step k from
    child(root, k, 0), with root the seed's pool, so every consumer of an
    encounter at one seed sees the same steps.
    """
    last_step = spec.n_steps if last_step is None else last_step
    if not 1 <= last_step <= spec.n_steps:
        raise ValueError(f"last_step must lie in 1..{spec.n_steps}, got {last_step}")
    root = pool(seed)
    obs, intr = initial_states(spec)
    mean, cov = initial_estimate(
        intr,
        spec.noise,
        _two_normals(root, 0),
        pos_std=spec.init_pos_std,
        vel_std=spec.init_vel_std,
        acc_std=spec.init_acc_std,
        perfect_init=spec.perfect_init,
    )
    dt, noise, stride = spec.dt, spec.noise, spec.measurement_stride
    a = transition_matrix(dt)
    # steps stride + 1, 2 stride + 1, ... are measured: every measured
    # step's stream is derived and drawn in one call, row j - 1 being the
    # two normals of step j stride + 1
    measured = np.arange(stride + 1, last_step + 1, stride)
    w = standard_normal(children(root, measured, 0), [1] * len(measured), (2,))
    for k in range(1, last_step + 1):
        obs = a @ obs
        intr = a @ intr
        j, off = divmod(k - 1, stride)
        z = None if off or not j else simulate_measurement(intr, noise, w[j - 1])
        # read from the module at every step, so a wrapper set on
        # `subsim.conflict.kf_step` sees each filter step
        mean, cov = kf_step(mean, cov, z, dt, noise)
        yield EncounterStep(k=k, observer=obs, intruder=intr, mean=mean, cov=cov)


@dataclass(frozen=True, eq=False)
class StepRecord:
    """One emitted row of the scenario time series, with the step's arrays:
    the true `observer` and `intruder` states and the filter's `mean` and `cov`.

    The views `observer_truth`, `intruder_truth` (six-float tuples) and
    `estimate` (`mean` such a tuple, `covariance` the array) exist for the
    `headon` benchmark's `==` check and go with it (ROADMAP item 6).
    """

    step: int
    time: float
    pc_ss: PcResult
    pc_dmc: PcResult
    miss_true: float
    observer: np.ndarray
    intruder: np.ndarray
    mean: np.ndarray
    cov: np.ndarray

    observer_truth = property(lambda self: tuple(self.observer.tolist()))
    intruder_truth = property(lambda self: tuple(self.intruder.tolist()))
    estimate = property(lambda self: SimpleNamespace(mean=tuple(self.mean.tolist()), covariance=self.cov))


def _step_number(step) -> int:
    """`operator.index(step)`, except that a bool, which it reads as 0 or 1, raises too."""
    if isinstance(step, bool):
        raise TypeError(f"{step!r} is a bool, not a step number")
    return operator.index(step)


def simulate_scenario(
    spec: ScenarioSpec,
    ss_config: SubsetConfig,
    seed: SeedLike,
    estimate_steps: Optional[Sequence[int]] = None,
) -> list[StepRecord]:
    """Run a full encounter: truth propagation, measurements, filtering, and a
    matched-budget SS/DMC conflict estimate per step.

    `estimate_steps` restricts which steps (1-based) produce estimates; the
    truth/filter evolution and all random streams are unaffected, so a
    subsampled run reproduces exactly the records of the full run; a step
    requested twice gives one record, and a step that is not an integer
    (`operator.index` rejects it), is a bool or lies outside 1..n_steps
    raises `ValueError`.

    SS, DMC and the true miss distance share one `conflict_system` of the
    estimated steps.  Step k's SS run draws from child(root, k, 1), and its
    DMC result is `pc_dmc` of its query on SS's `samples_used` draws from
    child(root, k, 2), root being the seed's pool.  The SS run keeps no
    level blocks (`tables=False`), so no table is built.
    """
    root = pool(seed)
    try:
        wanted = None if estimate_steps is None else {_step_number(s) for s in estimate_steps}
    except TypeError as exc:  # a float or str step: int() would truncate or parse it
        raise ValueError(f"estimate_steps outside 1..{spec.n_steps}: {exc}") from None
    if wanted is not None:
        outside = sorted(k for k in wanted if not 1 <= k <= spec.n_steps)
        if outside:
            raise ValueError(f"estimate_steps outside 1..{spec.n_steps}: {outside}")
    steps = [s for s in encounter_steps(spec, root) if wanted is None or s.k in wanted]
    if not steps:
        return []
    system = conflict_system([step.query(spec) for step in steps])
    step_roots = children(root, np.array([step.k for step in steps]))
    ss_results = run_subset_simulations(system, ss_config, children(step_roots, 1), tables=False)
    ss = [result.diagnostics for result in ss_results]
    dmc = direct_monte_carlo(
        _counting(system), [res.samples_used for res in ss], children(step_roots, 2)
    )
    miss_true = system.evaluate(np.array([step.intruder for step in steps]), np.arange(len(steps)))
    return [
        StepRecord(s.k, s.k * spec.dt, ss_res, dmc_res, miss, s.observer, s.intruder, s.mean, s.cov)
        for s, ss_res, dmc_res, miss in zip(steps, ss, dmc, miss_true.tolist())
    ]
