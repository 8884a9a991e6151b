"""Generic Subset Simulation engine.

Estimates a small probability P(response <= threshold) by descending through
nested response levels: level 0 is plain Monte Carlo from the prior; each
further level grows Markov chains from the best-performing samples of the
previous one, so the sample population migrates toward the rare region.  The
probability is read off the final level's count of rare samples, and the
per-level populations merge into a CCDF table when a caller reads it.

The engine is parameterized over a system with a Gaussian prior (mean and
Cholesky factor per problem) and a response function.  It owns the one
conditional-sampling chain: in the prior's own coordinates a candidate
x' = rho x + (1 - rho) mean + sqrt(1 - rho^2) L xi leaves the prior
N(mean, L L^T) invariant and is accepted iff its response stays within the
level, so each level samples the prior restricted to that level (Au & Beck
2001).  Samples are ndarrays with a leading sample axis.  Smaller response
means closer to the rare event.
"""

from __future__ import annotations

import logging
import math
import operator
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Callable, Iterator, Sequence

import numpy as np

from . import rng as _rng

logger = logging.getLogger(__name__)


class IntervalVariant(Enum):
    """Probability-interval layout for the CCDF.

    STANDARD assigns (N-n)/N fractions scaled by p0^level, so the last entry
    of a level is 0.  SHIFTED moves the whole ladder up one slot, making the
    last entry p0^level / N.  The estimate is D/N * p0^L under both, and the
    two differ only in the CCDF's probability column and at D = 0, where the
    read-off is the last entry: 0, or SHIFTED's floor ("below this value").
    """

    STANDARD = "standard"
    SHIFTED = "shifted"


@dataclass(frozen=True)
class SubsetConfig:
    """Engine parameters: samples per level, level probability, level cap."""

    n_samples: int
    level_probability: float = 0.1
    max_levels: int = 7
    interval_variant: IntervalVariant = IntervalVariant.SHIFTED

    def __post_init__(self):
        n, p0 = self.n_samples, self.level_probability
        try:  # a float would truncate, or fail deep inside a run
            operator.index(n)
            operator.index(self.max_levels)
        except TypeError as exc:
            raise ValueError(f"n_samples and max_levels must be integers: {exc}") from None
        if n < 1:
            raise ValueError(f"n_samples must be positive, got {n}")
        if not 0.0 < p0 < 1.0:
            raise ValueError(f"level_probability must lie in (0, 1), got {p0}")
        if self.max_levels < 1:
            raise ValueError(f"max_levels must be positive, got {self.max_levels}")
        n_c = p0 * n
        if abs(n_c - round(n_c)) > 1e-9 or round(n_c) < 1:
            raise ValueError(f"p0 * N must be a positive integer, got {n_c}")
        n_s = 1.0 / p0
        if abs(n_s - round(n_s)) > 1e-9:
            raise ValueError(f"1 / p0 must be a positive integer, got {n_s}")
        if round(n_c) * round(n_s) != n:
            raise ValueError(
                f"chain count times chain length must equal N: {round(n_c)} * {round(n_s)} != {n}"
            )

    @property
    def n_chains(self) -> int:
        """Chains per level (seeds promoted from the previous level)."""
        return round(self.level_probability * self.n_samples)

    @property
    def chain_length(self) -> int:
        """Samples generated per chain."""
        return round(1.0 / self.level_probability)


@dataclass(frozen=True)
class CcdfRow:
    probability: float
    response: float
    sample: np.ndarray


@dataclass(frozen=True)
class CcdfTable:
    """Merged CCDF across levels as columns, probabilities non-increasing.

    Row i is (probabilities[i], responses[i], samples[i]); `samples` has a
    leading row axis.
    """

    probabilities: np.ndarray
    responses: np.ndarray
    samples: np.ndarray
    levels_completed: int

    def __post_init__(self):
        if not len(self.probabilities) == len(self.responses) == len(self.samples):
            raise ValueError(
                f"CCDF columns differ in length: {len(self.probabilities)} probabilities, "
                f"{len(self.responses)} responses, {len(self.samples)} samples"
            )

    @property
    def rows(self) -> list[CcdfRow]:
        """The table row by row, built on each access."""
        return [
            CcdfRow(probability=p, response=r, sample=x)
            for p, r, x in zip(self.probabilities.tolist(), self.responses.tolist(), self.samples)
        ]


@dataclass(frozen=True)
class RareEventSystem:
    """K independent problems with Gaussian priors on one sample space.

    Problem k's prior is N(mean[k], chol[k] chol[k]^T): `mean` is (K, d) and
    `chol` the (K, d, d) lower Cholesky factors.  The engine runs the problems
    in lockstep batches (`_batches`), so each call covers several problems;
    evaluate(samples, problems) maps samples (n, d) to scalar responses
    (smaller = closer to the rare event), row i belonging to problem
    problems[i] (0..K-1).  Every response is exact: level 0 sorts them,
    `direct_monte_carlo` counts those at or below the failure threshold and
    `conditional_chains` those at or below each chain's threshold.  A row's
    response must not depend on the rows beside it, so that each problem's
    result equals its own one-problem run.  The conflict system's response
    is the closest approach in continuous time
    (`dynamics.miss_distance_batch`), the toy's the distance to the disc
    centre.
    """

    mean: np.ndarray
    chol: np.ndarray
    evaluate: Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class SubsetDiagnostics:
    """Run summary.  `stalled_levels` counts the levels whose intermediate
    threshold did not fall below the previous level's."""

    levels_completed: int
    conflict_count: int
    samples_used: int
    floor_reached: bool
    thresholds: tuple[float, ...] = field(default_factory=tuple)
    stalled_levels: int = 0


@dataclass(frozen=True, eq=False)
class SubsetResult:
    """One problem's estimate and diagnostics, and its CCDF table on demand.

    The table is assembled (by the module's `assemble_ccdf`) on the first
    read of `table`, then kept.  Until then the result holds its level
    blocks, (sorted responses, sorted samples) pairs that are views of the
    sorted level arrays of the lockstep batch that produced it: an unread
    result pins those arrays for every problem of that batch.  The first
    read releases them.
    """

    estimate: float
    diagnostics: SubsetDiagnostics
    _blocks: list = field(repr=False)
    _config: SubsetConfig = field(repr=False)

    @cached_property
    def table(self) -> CcdfTable:
        table = assemble_ccdf(self._blocks, self._config)
        self._blocks.clear()
        return table


def _level_scale(level: int, config: SubsetConfig) -> float:
    """N * chain_length**level, the exact integer denominator of a level's ladder."""
    if not 0 <= level < config.max_levels:
        raise ValueError(f"level must lie in [0, {config.max_levels}), got {level}")
    return float(config.n_samples * config.chain_length**level)


def probability_intervals(level: int, config: SubsetConfig) -> np.ndarray:
    """Probability ladder for one level, highest first.

    Computed from integer numerators over the exact integer denominator
    N * chain_length**level, so entries like the level-6 floor 1e-8 come out
    exactly (level_probability**level would not).
    """
    n = config.n_samples
    denom = _level_scale(level, config)
    if config.interval_variant is IntervalVariant.SHIFTED:
        numer = np.arange(n, 0, -1, dtype=np.float64)
    else:
        numer = np.arange(n - 1, -1, -1, dtype=np.float64)
    return numer / denom


def intermediate_threshold(sorted_responses: Sequence[float], config: SubsetConfig):
    """Next level's threshold: the (N - N_c)-th largest response (1-based).

    Row-wise over a leading problem axis: K rows of N responses give K
    thresholds.
    """
    r = np.asarray(sorted_responses, dtype=np.float64)
    if r.ndim not in (1, 2) or r.shape[-1] != config.n_samples:
        raise ValueError(f"expected {config.n_samples} responses per row, got shape {r.shape}")
    if (r[..., 1:] > r[..., :-1]).any():
        raise ValueError("responses must be sorted in descending order")
    return r[..., config.n_samples - config.n_chains - 1]


def select_seeds(sorted_samples: np.ndarray, config: SubsetConfig) -> np.ndarray:
    """Per problem of a (K, N, ...) batch of sorted samples, the N_c with the
    smallest responses (the tail of each sorted set): (K, N_c, ...)."""
    if sorted_samples.ndim < 2 or sorted_samples.shape[1] != config.n_samples:
        raise ValueError(
            f"expected (K, {config.n_samples}, ...) samples, got shape {sorted_samples.shape}"
        )
    return np.copy(sorted_samples[:, config.n_samples - config.n_chains :])


def assemble_ccdf(
    level_blocks: Sequence[tuple[np.ndarray, np.ndarray]],
    config: SubsetConfig,
) -> CcdfTable:
    """Merge per-level (sorted responses, sorted samples) blocks.

    Block i is level i, whose rows take the ladder `probability_intervals(i,
    config)`.  Every non-final level drops its last N_c rows (those samples
    were consumed as seeds and are replaced by the next level); the final
    level keeps all N.  The probabilities are then non-increasing: level
    i's last kept entry is at least level i+1's first.  The table's columns
    are new arrays, not views of the blocks.
    """
    if len(level_blocks) == 0:
        raise ValueError("at least one level block is required")
    n, n_c = config.n_samples, config.n_chains
    last = len(level_blocks) - 1
    kept = []
    for i, (responses, samples) in enumerate(level_blocks):
        if not (len(responses) == samples.shape[0] == n):
            raise ValueError(f"level {i} block must have {n} rows")
        keep = n if i == last else n - n_c
        kept.append((probability_intervals(i, config)[:keep], responses[:keep], samples[:keep]))
    intervals, responses, samples = zip(*kept)
    return CcdfTable(
        probabilities=np.concatenate(intervals).astype(np.float64, copy=False),
        responses=np.concatenate(responses).astype(np.float64, copy=False),
        samples=np.concatenate(samples),
        levels_completed=len(level_blocks),
    )


def estimate_probability(conflict_count: int, final_level: int, config: SubsetConfig) -> float:
    """D / (N * chain_length^L): level L's fraction of rare samples times p0^L.

    At level 0 this is plain Monte Carlo.  With D = 0 it is the ladder's last
    entry: 0 under STANDARD, the floor 1 / (N * chain_length^L) under SHIFTED,
    meaning "the probability is below this value".
    """
    n = config.n_samples
    if not 0 <= conflict_count <= n:
        raise ValueError(f"conflict count must lie in [0, {n}], got {conflict_count}")
    scale = _level_scale(final_level, config)
    if conflict_count == 0 and config.interval_variant is IntervalVariant.SHIFTED:
        return 1.0 / scale
    return conflict_count / scale


def _check_system(system: RareEventSystem, k_all: int) -> None:
    """Reject a system whose shapes disagree or that poses other than k_all problems."""
    mean, chol = system.mean, system.chol
    if mean.ndim != 2 or chol.shape != mean.shape + mean.shape[1:]:
        raise ValueError(f"system mean {mean.shape} and Cholesky factors {chol.shape} do not match")
    if len(mean) != k_all:
        raise ValueError(f"system poses {len(mean)} problems but {k_all} seeds were given")


def _level0(
    mean: np.ndarray, chol: np.ndarray, roots: Sequence[_rng.Pool], ns: Sequence[int]
) -> np.ndarray:
    """Level 0, stacked: ns[k] draws of N(mean[k], chol[k] chol[k]^T) from child(roots[k], 0)."""
    z = _rng.standard_normal(_rng.children(roots, 0), ns, mean.shape[1:])
    ends = np.cumsum(ns)[:-1]
    return np.concatenate([m + zk @ c.T for zk, m, c in zip(np.split(z, ends), mean, chol)])


# Problems per batch: `direct_monte_carlo` and `run_subset_simulations` run
# consecutive problems together, such as a scenario's steps or a c.o.v.
# study's repetitions and budgets.  Each chain step makes one kernel call
# for its whole batch, and that call costs about 50-80 us before any
# per-row work, so per-call overhead falls with the batch while memory
# grows with it.  400-step head-on encounters at N = 100 (seeds 3, 7, 11,
# 901 and 1234; median over five processes of each process's median
# encounter, interleaved, on a 2-core Xeon) took, with CCDF tables built
# only when read:
#
#   batch  kernel calls  time    peak RSS
#   16     555           0.27 s  40.7 MB
#   32     342           0.23 s  41.3 MB
#   48     271           0.22 s  42.1 MB
#   64     204           0.20 s  42.2 MB
#   100    137           0.19 s  44.4 MB
#
# A repeat of the whole measurement on the same shared machine read 0.15 to
# 0.22 s, not in this order, so the times order the sizes only roughly.
#
# No result depends on the batch size.
GROUP_SIZE = 64
# Rows a level (DMC: draws) of a whole batch, at most, unless one problem
# alone has more.  It bounds a batch's level arrays, or its draws, while each
# `evaluate` call stays large enough for its per-call cost not to matter; a
# batch at N = 3,000, a c.o.v. study's largest budget, holds 5 problems.
_BATCH_ROWS = 16_384


def _batches(ns: Sequence[int]) -> Iterator[tuple[int, int]]:
    """The batches of problems with `ns[k]` rows a level, as (lo, hi) index
    ranges: consecutive problems, at most `GROUP_SIZE` of them and at most
    `_BATCH_ROWS` rows, and always at least one."""
    lo = 0
    while lo < len(ns):
        hi, rows = lo + 1, ns[lo]
        while hi < len(ns) and hi - lo < GROUP_SIZE and rows + ns[hi] <= _BATCH_ROWS:
            rows += ns[hi]
            hi += 1
        yield lo, hi
        lo = hi


def direct_monte_carlo(
    system: RareEventSystem,
    ns: Sequence[int],
    failure_threshold: float,
    seeds: Sequence[_rng.SeedLike | _rng.Pool],
) -> np.ndarray:
    """Per problem k, how many of its `ns[k]` prior draws respond at or below
    `failure_threshold`.  The draws are level 0 of `run_subset_simulations`
    from `seeds[k]`.  Each batch (`_batches`) is drawn and scored in one
    `evaluate` call, so a problem is never split.  A sample count that is
    not a positive integer, and a non-finite response, raise `ValueError`,
    as at every level of an SS run.
    """
    if len(ns) != len(seeds):
        raise ValueError(f"{len(ns)} sample counts but {len(seeds)} seeds")
    # True would count as one draw, and a float would fail in the stream code
    if len(ns) == 0 or any(isinstance(n, bool) or not hasattr(n, "__index__") or n < 1 for n in ns):
        raise ValueError(f"sample counts must be positive integers, got {list(ns)}")
    _check_system(system, len(ns))
    roots = [_rng.pool(seed) for seed in seeds]
    counts = []
    for lo, hi in _batches(ns):
        problems = np.repeat(np.arange(lo, hi), ns[lo:hi])
        samples = _level0(system.mean[lo:hi], system.chol[lo:hi], roots[lo:hi], ns[lo:hi])
        responses = system.evaluate(samples, problems)
        if not np.all(np.isfinite(responses)):
            raise ValueError("level 0 produced non-finite responses")
        hits = responses <= failure_threshold
        counts.append(np.bincount(problems[hits] - lo, minlength=hi - lo))
    return np.concatenate(counts)


# Correlation between successive chain states.  0.8 accepted about 35% of
# candidates at the long-range phase p2 of the conflict c.o.v. study.
CHAIN_CORRELATION = 0.8
_INNOVATION_SCALE = math.sqrt(1.0 - CHAIN_CORRELATION**2)


def conditional_chains(
    system: RareEventSystem,
    seeds: np.ndarray,
    seed_responses: np.ndarray,
    thresholds: np.ndarray,
    innovations: np.ndarray,
    problems: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Conditional chains whose responses stay within their thresholds.

    Conditional sampling in the prior's own coordinates: with mean and L the
    chain's problem's prior mean and Cholesky factor, each standard-normal
    row xi of a chain's innovations proposes
    x' = rho x + (1 - rho) mean + sqrt(1 - rho^2) L xi, which moves every
    component and leaves the prior N(mean, L L^T) invariant, and the
    candidate is accepted iff its response is at most the chain's threshold.
    The chains' stationary law is therefore the prior restricted to the
    level, as the p0^m * D / N read-off assumes.

    Chain j belongs to problem `problems[j]`, starts at `seeds[j]` and
    consumes `innovations[j]`, of shape (length, d).  The chains are
    independent, so they advance in lockstep: one `evaluate` call per step
    covers every chain.  The drift (1 - rho) mean + sqrt(1 - rho^2) L xi
    does not depend on the chain's state, so every step's is formed up
    front, by one stacked matmul whose products are per chain: a chain's
    values do not depend on which other chains run beside it.  The drifts
    are written into the samples' buffer, where step k reads its column
    before storing its sample there, so they need no (m, length, d) array of
    their own and the caller's innovations are left as they were.

    Returns the samples (m, length, d) and their responses (m, length).
    """
    m, length, d = innovations.shape
    seed_responses = np.array(seed_responses, dtype=np.float64).reshape(m)
    thresholds = np.asarray(thresholds, dtype=np.float64)
    beyond = np.flatnonzero(seed_responses > thresholds)
    if beyond.size:
        j = beyond[0]
        raise ValueError(
            f"seed {j} violates the threshold: response {seed_responses[j]:.6g} > {thresholds[j]:.6g}"
        )
    problems = np.asarray(problems, dtype=np.intp)
    # a contiguous L^T per chain halves the matmul's time against a transposed view
    chol_t = system.chol[problems].transpose(0, 2, 1).copy()
    out_x = np.matmul(innovations, chol_t, dtype=np.float64)
    out_x *= _INNOVATION_SCALE
    out_x += ((1.0 - CHAIN_CORRELATION) * system.mean[problems])[:, None]
    out_r = np.empty((m, length))
    cur = np.array(seeds, dtype=np.float64).reshape(m, d)
    cur_r = seed_responses
    for k in range(length):
        cand = CHAIN_CORRELATION * cur + out_x[:, k]
        cand_r = system.evaluate(cand, problems)
        ok = cand_r <= thresholds
        cur = np.where(ok[:, None], cand, cur)
        cur_r = np.where(ok, cand_r, cur_r)
        out_x[:, k] = cur
        out_r[:, k] = cur_r
    return out_x, out_r


def run_subset_simulation(
    system: RareEventSystem,
    config: SubsetConfig,
    failure_threshold: float,
    seed: _rng.SeedLike | _rng.Pool,
) -> SubsetResult:
    """Run the full multi-level simulation of the one problem of `system`.

    The case K = 1 of `run_subset_simulations`.
    """
    return next(run_subset_simulations(system, config, failure_threshold, [seed]))


@dataclass(eq=False)
class _Cohort:
    """The problems of one config that are still descending, in order, and
    their sorted level arrays, responses (k, N) and samples (k, N, d)."""

    config: SubsetConfig
    active: np.ndarray
    sorted_r: np.ndarray | None = None
    sorted_x: np.ndarray | None = None


def run_subset_simulations(
    system: RareEventSystem,
    configs: SubsetConfig | Sequence[SubsetConfig],
    failure_threshold: float,
    seeds: Sequence[_rng.SeedLike | _rng.Pool],
) -> Iterator[SubsetResult]:
    """Run problems 0..K-1 of `system` in lockstep, problem k from `seeds[k]`
    under `configs[k]`, or under `configs` itself if it is one config.

    Level 0 is `direct_monte_carlo`'s N prior draws per problem.  While
    levels remain, the engine promotes each problem's N_c best samples as chain seeds, grows N
    new conditional samples under its intermediate threshold, and repeats.
    A problem's descent stops as soon as a level holds at least N_c samples
    at or below `failure_threshold`, or at `max_levels`.  Total cost is N per
    level per problem.

    Every input is checked before this returns.  The iterator returned runs
    the problems batch by batch (`_batches`) and yields the results in
    problem order, so a caller that keeps none holds one batch's arrays.

    The configs must share `level_probability`, and so the chain length
    1/p0.  Problems of a batch with equal configs form a cohort, whose level
    arrays are (k, N, ...) blocks; at each level one `rng.standard_normal`
    call draws the innovations of every cohort's chains and one
    `conditional_chains` call steps them all.

    Each problem draws level 0 from `child(root_k, 0)` and its chains'
    (N_c, length, d) innovations at level l from `child(root_k, l)`, with
    root_k its seed's `rng.pool`, through `rng.standard_normal`, whose draws
    equal `rng.generator`'s on each child.  The sort, threshold, seed
    selection and stop test are row-wise within a cohort; so each result
    equals the problem's own one-problem run bit for bit.  No table is
    assembled here: a result builds its own on first read (see `SubsetResult`).
    """
    roots = [_rng.pool(seed) for seed in seeds]
    k_all = len(roots)
    if k_all == 0:
        raise ValueError("at least one seed is required")
    if isinstance(configs, SubsetConfig):
        configs = [configs] * k_all
    elif len(configs) != k_all:
        raise ValueError(f"{len(configs)} configs but {k_all} seeds")
    p0s = sorted({c.level_probability for c in configs})
    if len(p0s) > 1:
        raise ValueError(f"configs of one run must share level_probability, got {p0s}")
    _check_system(system, k_all)

    def stream():  # a generator expression's loop variable would pin a batch
        for lo, hi in _batches([c.n_samples for c in configs]):
            yield from _run_batch(system, configs, failure_threshold, roots, range(lo, hi))

    return stream()


def _run_batch(system, configs, failure_threshold, roots, batch: range):
    """The results of the problems in `batch`, run in lockstep, in order."""
    members: dict[SubsetConfig, list[int]] = {}
    for k in batch:
        members.setdefault(configs[k], []).append(k)
    cohorts = [_Cohort(config, np.array(ks)) for config, ks in members.items()]
    # level 0 is drawn cohort by cohort, so each cohort's rows are contiguous
    order = np.concatenate([c.active for c in cohorts])
    ns = [configs[k].n_samples for k in order.tolist()]
    mean, chol = system.mean[order], system.chol[order]
    samples = _level0(mean, chol, [roots[k] for k in order.tolist()], ns)
    responses = np.asarray(system.evaluate(samples, order.repeat(ns)), dtype=np.float64)
    level = 0
    _sort_level(cohorts, samples, responses, level)
    d = system.mean.shape[1]
    n_s = configs[batch[0]].chain_length
    blocks: dict = {k: [] for k in batch}
    thresholds: dict[int, list[float]] = {k: [] for k in batch}
    results: dict[int, SubsetResult] = {}

    while True:
        stepping, seed_x, seed_r, chain_b, problems, rows = [], [], [], [], [], []
        for c in cohorts:
            config, n_c = c.config, c.config.n_chains
            for j, k in enumerate(c.active.tolist()):
                blocks[k].append((c.sorted_r[j], c.sorted_x[j]))
            conflicts = (c.sorted_r <= failure_threshold).sum(axis=1)
            go = conflicts < n_c
            if level == config.max_levels - 1:
                go[:] = False
            if not go.all():
                for j in np.flatnonzero(~go).tolist():
                    k = int(c.active[j])
                    results[k] = _finish(blocks[k], thresholds[k], int(conflicts[j]), level, config)
                    blocks[k] = None
                if not go.any():
                    continue
                c.active, c.sorted_r, c.sorted_x = c.active[go], c.sorted_r[go], c.sorted_x[go]

            b = intermediate_threshold(c.sorted_r, config)
            for k, bk in zip(c.active.tolist(), b.tolist()):
                thresholds[k].append(bk)
            seed_x.append(select_seeds(c.sorted_x, config).reshape(-1, d))
            seed_r.append(c.sorted_r[:, -n_c:].reshape(-1))
            chain_b.append(b.repeat(n_c))
            problems.append(c.active.repeat(n_c))
            rows += [n_c] * len(c.active)
            stepping.append(c)
        cohorts = stepping
        if not cohorts:
            break
        level += 1

        innovations = _rng.standard_normal(
            _rng.children([roots[k] for c in cohorts for k in c.active.tolist()], level),
            rows,
            (n_s, d),
        )
        chain_b = _joined(chain_b)
        samples, responses = conditional_chains(
            system,
            _joined(seed_x),
            _joined(seed_r),
            chain_b,
            innovations,
            _joined(problems),
        )
        over = responses > chain_b[:, None]
        if over.any():
            j, step = np.argwhere(over)[0]
            raise ValueError(
                f"conditional chains violated their threshold: response "
                f"{responses[j, step]:.6g} > {chain_b[j]:.6g}"
            )
        samples, responses = samples.reshape(-1, d), responses.reshape(-1)
        _sort_level(cohorts, samples, responses, level)
    return [results[k] for k in batch]


def _joined(parts: list[np.ndarray]) -> np.ndarray:
    """The parts end to end; a lone part is returned as it is, uncopied."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _finish(blocks, thresholds, conflicts, level, config) -> SubsetResult:
    """One problem's result once its descent has stopped at `level`."""
    stalled = sum(b >= a for a, b in zip(thresholds, thresholds[1:]))
    if stalled:
        logger.warning(
            "intermediate threshold did not decrease at %d of %d levels; "
            "chains may be stalling",
            stalled,
            len(thresholds),
        )
    estimate = estimate_probability(conflicts, level, config)
    n = config.n_samples
    diagnostics = SubsetDiagnostics(
        levels_completed=level + 1,
        conflict_count=conflicts,
        samples_used=n * (level + 1),
        floor_reached=conflicts == 0,
        thresholds=tuple(thresholds),
        stalled_levels=stalled,
    )
    return SubsetResult(estimate, diagnostics, blocks, config)


def _sort_level(cohorts: list[_Cohort], samples: np.ndarray, responses: np.ndarray, level: int):
    """Sort one level's population, whose rows run cohort by cohort and
    problem by problem, into each cohort's `sorted_r` and `sorted_x`: per
    problem a stable descending sort, ties by draw index."""
    expected = sum(len(c.active) * c.config.n_samples for c in cohorts)
    if responses.shape[0] != expected or samples.shape[0] != expected:
        raise ValueError(
            f"level {level} produced {responses.shape[0]} samples, expected {expected}"
        )
    if not np.all(np.isfinite(responses)):
        raise ValueError(f"level {level} produced non-finite responses")
    lo = 0
    for c in cohorts:
        k, n = len(c.active), c.config.n_samples
        hi = lo + k * n
        order = np.argsort(-responses[lo:hi].reshape(k, n), axis=1, kind="stable")
        rows = (order + np.arange(lo, hi, n)[:, None]).ravel()
        c.sorted_x = samples.take(rows, axis=0).reshape(k, n, *samples.shape[1:])
        c.sorted_r = responses[rows].reshape(k, n)
        lo = hi
