"""Generic Subset Simulation engine.

Estimates a small probability P(response <= threshold) by descending through
nested response levels: level 0 is plain Monte Carlo from the prior; each
further level grows Markov chains from the best-performing samples of the
previous one, so the sample population migrates toward the rare region.  The
per-level populations are merged into a CCDF table from which the probability
is read off.

The engine is parameterized over a system with a Gaussian prior (mean and
Cholesky factor per problem) and a response function.  It owns the one
conditional-sampling chain: in whitened coordinates a candidate
z' = rho z + sqrt(1 - rho^2) xi leaves the prior invariant and is accepted iff
its response stays within the level, so each level samples the prior
restricted to that level (Au & Beck 2001).  Samples are ndarrays with a
leading sample axis.  Smaller response means closer to the rare event.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Sequence

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
    in lockstep, so each call covers the rows of several problems;
    evaluate(samples, problems) maps samples (n, d) to scalar responses
    (smaller = closer to the rare event), row i belonging to problem
    problems[i] (0..K-1).
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


@dataclass(frozen=True)
class SubsetResult:
    estimate: float
    table: CcdfTable
    diagnostics: SubsetDiagnostics


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


def select_seeds(sorted_samples: np.ndarray, config: SubsetConfig, axis: int = 0) -> np.ndarray:
    """The N_c samples with the smallest responses (tail of the sorted set).

    The N sorted samples run along `axis`; axis=1 selects per problem from a
    (K, N, ...) batch.
    """
    if sorted_samples.shape[axis] != config.n_samples:
        raise ValueError(
            f"expected {config.n_samples} samples, got {sorted_samples.shape[axis]}"
        )
    tail = [slice(None)] * sorted_samples.ndim
    tail[axis] = slice(config.n_samples - config.n_chains, None)
    return np.copy(sorted_samples[tuple(tail)])


def assemble_ccdf(
    level_blocks: Sequence[tuple[np.ndarray, np.ndarray, np.ndarray]],
    config: SubsetConfig,
) -> CcdfTable:
    """Merge per-level (intervals, sorted responses, sorted samples) blocks.

    Every non-final level drops its last N_c rows (those samples were consumed
    as seeds and are replaced by the next level); the final level keeps all N.
    The table's columns are new arrays, not views of the blocks.
    """
    if len(level_blocks) == 0:
        raise ValueError("at least one level block is required")
    n, n_c = config.n_samples, config.n_chains
    last = len(level_blocks) - 1
    kept = []
    for i, (intervals, responses, samples) in enumerate(level_blocks):
        if not (len(intervals) == len(responses) == samples.shape[0] == n):
            raise ValueError(f"level {i} block must have {n} rows")
        keep = n if i == last else n - n_c
        kept.append((intervals[:keep], responses[:keep], samples[:keep]))
    intervals, responses, samples = zip(*kept)
    probs = np.concatenate(intervals).astype(np.float64, copy=False)
    if np.any(np.diff(probs) > 0):
        raise ValueError("assembled probabilities must be non-increasing")
    return CcdfTable(
        probabilities=probs,
        responses=np.concatenate(responses).astype(np.float64, copy=False),
        samples=np.concatenate(samples),
        levels_completed=len(level_blocks),
    )


def estimate_probability(
    table: CcdfTable, conflict_count: int, final_level: int, config: SubsetConfig
) -> float:
    """D / (N * chain_length^L): level L's fraction of rare samples times p0^L.

    At level 0 this is plain Monte Carlo.  With D = 0 it is the ladder's last
    entry: 0 under STANDARD, the floor 1 / (N * chain_length^L) under SHIFTED,
    meaning "the probability is below this value".
    """
    n = config.n_samples
    if not 0 <= conflict_count <= n:
        raise ValueError(f"conflict count must lie in [0, {n}], got {conflict_count}")
    if table.levels_completed != final_level + 1:
        raise ValueError(
            f"table has {table.levels_completed} levels but final level is {final_level}"
        )
    scale = _level_scale(final_level, config)
    if conflict_count == 0 and config.interval_variant is IntervalVariant.SHIFTED:
        return 1.0 / scale
    return conflict_count / scale


def sample_gaussian(gen: np.random.Generator, n: int, mean: np.ndarray, chol: np.ndarray) -> np.ndarray:
    """n draws of N(mean, chol chol^T) from `gen`, one (n, d) standard-normal block."""
    z = gen.standard_normal((n, len(mean)))
    return mean + z @ chol.T


def _level0(system: RareEventSystem, roots: Sequence, ns: Sequence[int]) -> np.ndarray:
    """Level 0, stacked: ns[k] prior draws of problem k from child(roots[k], 0)."""
    mean, chol = system.mean, system.chol
    if mean.ndim != 2 or chol.shape != mean.shape + mean.shape[1:]:
        raise ValueError(f"system mean {mean.shape} and Cholesky factors {chol.shape} do not match")
    if len(mean) != len(roots):
        raise ValueError(f"system poses {len(mean)} problems but {len(roots)} seeds were given")
    return np.concatenate(
        [
            sample_gaussian(_rng.generator(_rng.child(root, 0)), n, mean[k], chol[k])
            for k, (root, n) in enumerate(zip(roots, ns))
        ]
    )


def direct_monte_carlo(
    system: RareEventSystem,
    ns: Sequence[int],
    failure_threshold: float,
    seeds: Sequence[_rng.SeedLike],
) -> np.ndarray:
    """Per problem k, how many of its `ns[k]` prior draws respond at or below
    `failure_threshold`.  The draws are level 0 of `run_subset_simulations`
    from `seeds[k]`, and one `evaluate` call scores those of every problem.
    """
    if len(ns) != len(seeds):
        raise ValueError(f"{len(ns)} sample counts but {len(seeds)} seeds")
    if len(ns) == 0 or min(ns) < 1:
        raise ValueError(f"sample counts must be positive, got {list(ns)}")
    problems = np.repeat(np.arange(len(ns)), ns)
    samples = _level0(system, [_rng.derive(seed) for seed in seeds], ns)
    hits = system.evaluate(samples, problems) <= failure_threshold
    return np.bincount(problems[hits], minlength=len(ns))


# Correlation between successive whitened chain states.  0.8 accepted about
# 35% of candidates at the long-range phase p2 of the conflict c.o.v. study.
CHAIN_CORRELATION = 0.8
_INNOVATION_SCALE = math.sqrt(1.0 - CHAIN_CORRELATION**2)


def conditional_chains(
    system: RareEventSystem,
    chol_inv: np.ndarray,
    seeds: np.ndarray,
    seed_responses: np.ndarray,
    thresholds: np.ndarray,
    innovations: np.ndarray,
    problems: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Conditional chains whose responses stay within their thresholds.

    Conditional sampling in whitened coordinates z = L^-1 (x - mean), with L
    the chain's problem's Cholesky factor and `chol_inv` the stacked inverses
    of `system.chol`: each standard-normal row xi of a chain's innovations
    proposes z' = rho z + sqrt(1 - rho^2) xi, which moves every component and
    leaves the prior invariant, and the candidate is accepted iff its response
    is at most the chain's threshold.  The chains' stationary law is
    therefore the prior restricted to the level, as the p0^m * D / N
    read-off assumes.

    Chain j belongs to problem `problems[j]`, starts at `seeds[j]` and
    consumes `innovations[j]`, of shape (length, d).  The chains are
    independent, so they advance in lockstep: one `evaluate` call per step
    covers every chain.  Whitening goes through stacked per-chain matmuls,
    which round as a lone `chol @ z` does, so a chain's values do not depend
    on which other chains run beside it.

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
    mean, chol = system.mean[problems], system.chol[problems]
    cur = np.array(seeds, dtype=np.float64).reshape(m, d)
    cur_r = seed_responses
    z = (chol_inv[problems] @ (cur - mean)[:, :, None])[:, :, 0]
    steps = _INNOVATION_SCALE * innovations
    out_x = np.empty((m, length, d))
    out_r = np.empty((m, length))
    for k in range(length):
        cand_z = CHAIN_CORRELATION * z + steps[:, k]
        cand = mean + (chol @ cand_z[:, :, None])[:, :, 0]
        cand_r = system.evaluate(cand, problems)
        ok = cand_r <= thresholds
        z = np.where(ok[:, None], cand_z, z)
        cur = np.where(ok[:, None], cand, cur)
        cur_r = np.where(ok, cand_r, cur_r)
        out_x[:, k] = cur
        out_r[:, k] = cur_r
    return out_x, out_r


def run_subset_simulation(
    system: RareEventSystem,
    config: SubsetConfig,
    failure_threshold: float,
    seed: _rng.SeedLike,
) -> SubsetResult:
    """Run the full multi-level simulation of the one problem of `system`.

    The case K = 1 of `run_subset_simulations`.
    """
    return run_subset_simulations(system, config, failure_threshold, [seed])[0]


def run_subset_simulations(
    system: RareEventSystem,
    config: SubsetConfig,
    failure_threshold: float,
    seeds: Sequence[_rng.SeedLike],
) -> list[SubsetResult]:
    """Run problems 0..K-1 of `system` in lockstep, problem k from `seeds[k]`.

    Level 0 is `direct_monte_carlo`'s N prior draws per problem.  While
    levels remain, the engine promotes each problem's N_c best samples as chain seeds, grows N
    new conditional samples under its intermediate threshold, and repeats.
    A problem's descent stops as soon as a level holds at least N_c samples
    at or below `failure_threshold`, or at `max_levels`.  Total cost is N per
    level per problem.

    Each problem draws level 0 from `child(root_k, 0)` and its chains'
    (N_c, length, d) innovations at level l from `child(root_k, l)`, with
    root_k derived from its seed, and the sort, threshold, seed selection and
    stop test are row-wise; so each result equals the problem's own
    one-problem run bit for bit.
    """
    roots = [_rng.derive(seed) for seed in seeds]
    k_all = len(roots)
    if k_all == 0:
        raise ValueError("at least one seed is required")
    n, n_c, n_s = config.n_samples, config.n_chains, config.chain_length
    samples = _level0(system, roots, [n] * k_all)
    d = system.mean.shape[1]
    chol_inv = np.linalg.inv(system.chol)

    active = np.arange(k_all)  # problems still descending, in order
    responses = np.asarray(system.evaluate(samples, active.repeat(n)), dtype=np.float64)
    level = 0
    sorted_r, sorted_x = _sort_blocks(samples, responses, k_all, n, level)
    blocks: list = [[] for _ in range(k_all)]
    thresholds: list[list[float]] = [[] for _ in range(k_all)]
    results: list = [None] * k_all

    while True:
        intervals = probability_intervals(level, config)
        for j, k in enumerate(active.tolist()):
            blocks[k].append((intervals, sorted_r[j], sorted_x[j]))
        conflicts = (sorted_r <= failure_threshold).sum(axis=1)
        go = conflicts < n_c
        if level == config.max_levels - 1:
            go[:] = False
        if not go.all():
            for j in np.flatnonzero(~go).tolist():
                k = int(active[j])
                results[k] = _finish(blocks[k], thresholds[k], int(conflicts[j]), level, config)
                blocks[k] = None
            if not go.any():
                break
            active, sorted_r, sorted_x = active[go], sorted_r[go], sorted_x[go]

        b = intermediate_threshold(sorted_r, config)
        for k, bk in zip(active.tolist(), b.tolist()):
            thresholds[k].append(bk)
        seeds_x = select_seeds(sorted_x, config, axis=1)
        seed_r = sorted_r[:, n - n_c :]
        level += 1

        m = len(active)
        innovations = np.concatenate(
            [
                _rng.generator(_rng.child(roots[k], level)).standard_normal((n_c, n_s, d))
                for k in active.tolist()
            ]
        )
        samples, responses = conditional_chains(
            system,
            chol_inv,
            seeds_x.reshape(m * n_c, d),
            seed_r.reshape(-1),
            b.repeat(n_c),
            innovations,
            active.repeat(n_c),
        )
        samples, responses = samples.reshape(m * n, d), responses.reshape(m * n)
        over = responses.reshape(m, n) > b[:, None]
        if over.any():
            i = np.flatnonzero(over)[0]
            raise ValueError(
                f"conditional chains violated their threshold: response "
                f"{responses[i]:.6g} > {b[i // n]:.6g}"
            )
        sorted_r, sorted_x = _sort_blocks(samples, responses, m, n, level)
    return results


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
    table = assemble_ccdf(blocks, config)
    estimate = estimate_probability(table, conflicts, level, config)
    n = config.n_samples
    diagnostics = SubsetDiagnostics(
        levels_completed=level + 1,
        conflict_count=conflicts,
        samples_used=n * (level + 1),
        floor_reached=conflicts == 0,
        thresholds=tuple(thresholds),
        stalled_levels=stalled,
    )
    return SubsetResult(estimate=estimate, table=table, diagnostics=diagnostics)


def _sort_blocks(samples: np.ndarray, responses: np.ndarray, k: int, n: int, level: int):
    """Per problem, a stable descending sort of one level's population, ties by draw index.

    Returns the responses (k, n) and samples (k, n, ...) of the k problems.
    """
    if responses.shape[0] != k * n or samples.shape[0] != k * n:
        raise ValueError(
            f"level {level} produced {responses.shape[0]} samples, expected {k * n}"
        )
    if not np.all(np.isfinite(responses)):
        raise ValueError(f"level {level} produced non-finite responses")
    order = np.argsort(-responses.reshape(k, n), axis=1, kind="stable")
    rows = (order + np.arange(0, k * n, n)[:, None]).ravel()
    sorted_x = samples.take(rows, axis=0).reshape(k, n, *samples.shape[1:])
    return responses[rows].reshape(k, n), sorted_x
