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

import itertools
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
        if not (is_integer(n) and is_integer(self.max_levels)):
            raise ValueError(
                f"n_samples and max_levels must be integers, got {n!r} and {self.max_levels!r}"
            )
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
    """K independent problems with Gaussian priors: P(response <= threshold).

    Problem k's prior is N(mean[k], chol[k] chol[k]^T): `mean` is (K, d) and
    `chol` the (K, d, d) lower Cholesky factors.  The engine runs the problems
    in lockstep batches (`_batches`), so each call covers several problems,
    and summarises each problem in one `PcResult`, from either estimator;
    evaluate(samples, problems) maps samples (n, d) to scalar responses
    (smaller = closer to the rare event), row i belonging to problem
    problems[i] (0..K-1).  Every response is exact: each level selects its
    threshold and seeds from them, `direct_monte_carlo` counts those at or
    below `threshold` and `conditional_chains` those at or below each
    chain's threshold.  A system passed to `direct_monte_carlo` alone, such
    as the conflict system's counting view (`conflict._counting`), may give
    any finite value above `threshold` in place of an exact response above
    it, since only the count is read.  A row's response must not depend on the rows beside
    it, so that each problem's result equals its own one-problem run.  The samples it receives may be a
    view of a buffer that the engine overwrites later, so it copies any it
    keeps.  The conflict system's response is
    the closest approach in continuous time (`dynamics.miss_distance_batch`)
    and its threshold the protected radius; the toy's, the distance to the
    disc centre and the disc's radius.
    """

    mean: np.ndarray
    chol: np.ndarray
    evaluate: Callable[[np.ndarray, np.ndarray], np.ndarray]
    threshold: float


@dataclass(frozen=True)
class PcResult:
    """One problem's estimate and how it was reached, for SS and DMC alike.

    `pc` is the estimate, read off `conflict_count` rare samples among the
    final level's, after `levels_used` levels and `samples_used` draws in
    all.  When `floor_reached` is set no rare sample was found and `pc` is
    the ladder's last entry: read it as "the probability is below this
    value".  `thresholds` are the intermediate thresholds, one per level
    after the first, and `stalled_levels` counts those that did not fall
    below the previous one.  A DMC result is one level, pc = D / N, with no
    floor and no thresholds.  Every field holds Python numbers, also where a
    budget or level cap was given as a NumPy integer.
    """

    pc: float
    conflict_count: int
    levels_used: int
    samples_used: int
    floor_reached: bool
    thresholds: tuple[float, ...] = ()
    stalled_levels: int = 0


@dataclass(frozen=True, eq=False)
class SubsetResult:
    """One problem's summary, and its CCDF table on demand.

    The table is assembled (by the module's `assemble_ccdf`, which sorts
    each level) on the first read of `table`, then kept.  Until then the
    result holds its level blocks, (responses, samples) pairs in draw order
    that are views of the level arrays of the lockstep batch that produced
    it: an unread result pins those arrays for every problem of that batch.
    The first read releases them.  A result of a run with `tables=False`
    holds no blocks (`_blocks` is None), and reading its `table` raises
    `ValueError`.
    """

    diagnostics: PcResult
    _blocks: list | None = field(repr=False)
    _config: SubsetConfig = field(repr=False)

    @property
    def estimate(self) -> float:
        """The summary's `pc`."""
        return self.diagnostics.pc

    @cached_property
    def table(self) -> CcdfTable:
        if self._blocks is None:
            raise ValueError("this result keeps no level blocks: its run passed tables=False")
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


def assemble_ccdf(
    level_blocks: Sequence[tuple[np.ndarray, np.ndarray]],
    config: SubsetConfig,
) -> CcdfTable:
    """Merge per-level (responses, samples) blocks into one table.

    Block i is level i in draw order.  Its rows are sorted by response,
    descending and ties in draw order (a stable sort), and take the ladder
    `probability_intervals(i, config)` in that order.  Every non-final level
    drops its last N_c rows (those samples were consumed as seeds and are
    replaced by the next level); the final level keeps all N.  The
    probabilities are then non-increasing: level i's last kept entry is at
    least level i+1's first.  The table's columns are new arrays, not views
    of the blocks.
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
        rows = np.argsort(-responses, kind="stable")[:keep]
        kept.append((probability_intervals(i, config)[:keep], responses[rows], samples[rows]))
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


def is_integer(value) -> bool:
    """An integer count or size, NumPy's included; not a bool, which would count as one."""
    return not isinstance(value, bool) and hasattr(value, "__index__")


def _check_system(system: RareEventSystem, k_all: int) -> None:
    """Reject a system whose shapes disagree or that poses other than k_all problems."""
    mean, chol = system.mean, system.chol
    if mean.ndim != 2 or chol.shape != mean.shape + mean.shape[1:]:
        raise ValueError(f"system mean {mean.shape} and Cholesky factors {chol.shape} do not match")
    if len(mean) != k_all:
        raise ValueError(f"system poses {len(mean)} problems but {k_all} seeds were given")


def _level0(system: RareEventSystem, roots: _rng.Pools, lo: int, ns: np.ndarray):
    """Level 0 of problems lo, lo + 1, ..., for both estimators: ns[j] draws
    of problem lo + j's prior from child(roots[lo + j], 0), their responses
    and the rows' `_layout`.

    Each run of consecutive problems that share a budget is coloured by one
    stacked matmul, written into the samples, and its means are added in
    place; the products are per problem, so a problem's rows do not depend on
    its neighbours.  The responses must be one finite float per row, as an
    (n,) array, or `ValueError`; the chains of later levels keep their own
    shapes, and their finite thresholds reject a NaN or infinite candidate.
    """
    problems = np.arange(lo, lo + len(ns))
    layout = _layout(problems, ns)
    d = system.mean.shape[1]
    z = _rng.standard_normal(_rng.children(roots[lo : lo + len(ns)], 0), ns.tolist(), (d,))
    samples = np.empty_like(z)
    for row, j, r, n in layout[2]:  # the runs of equal budgets
        k, end = lo + j, row + r * n
        x = samples[row:end].reshape(r, n, d)
        np.matmul(z[row:end].reshape(r, n, d), system.chol[k : k + r].transpose(0, 2, 1), out=x)
        x += system.mean[k : k + r, None]
    del z  # not needed once coloured: freed, they lower the peak while the batch is scored
    responses = np.asarray(system.evaluate(samples, problems.repeat(ns)), dtype=np.float64)
    if responses.shape != (len(samples),):
        raise ValueError(f"level 0 produced {responses.shape} responses, expected {len(samples)}")
    if not np.all(np.isfinite(responses)):
        raise ValueError("level 0 produced non-finite responses")
    return samples, responses, layout


# Rows a level (DMC: draws) of a whole batch, at most, unless one problem
# alone has more.  `direct_monte_carlo` and `run_subset_simulations` run
# consecutive problems together, such as a scenario's steps or a c.o.v.
# study's repetitions and budgets, and each chain step makes one `evaluate`
# call for its whole batch.  The cap bounds a batch's level arrays, or its
# draws, while each call stays large enough for its fixed cost (about 60 us
# a call for the conflict kernel, against about 70 ns a row) not to matter:
# 40,960 rows are ten of the kernel's 4,096-row blocks, and a batch holds
# 409 problems at N = 100 and 13 at N = 3,000, a c.o.v. study's largest
# budget.  A 400-step head-on encounter (seed 901) is then one SS batch and
# 65 kernel calls; a cap of 16,384 rows made that 3 batches and 131 calls,
# and its encounters ran 12% slower (medians of 12 paired 8 s runs, 2-vCPU
# Xeon).  A batch this large fits in memory because runs that read no table
# keep only their current level's arrays (`tables=False`).  No result
# depends on where a batch ends.
_BATCH_ROWS = 40_960


def _batches(ns: Sequence[int]) -> Iterator[tuple[int, int]]:
    """The batches of problems with `ns[k]` rows a level, as (lo, hi) index
    ranges: consecutive problems, at most `_BATCH_ROWS` rows, and always at
    least one."""
    lo = 0
    while lo < len(ns):
        hi, rows = lo + 1, ns[lo]
        while hi < len(ns) and rows + ns[hi] <= _BATCH_ROWS:
            rows += ns[hi]
            hi += 1
        yield lo, hi
        lo = hi


def direct_monte_carlo(
    system: RareEventSystem,
    ns: Sequence[int],
    seeds: Sequence[_rng.SeedLike] | _rng.Pools,
) -> list[PcResult]:
    """Per problem k, the one-level summary of its `ns[k]` prior draws: the
    count D that respond at or below the system's threshold, and pc = D / N.
    The draws are level 0 of `run_subset_simulations` from `seeds[k]`.
    Each batch (`_batches`) is drawn and scored in one `evaluate` call, so a
    problem is never split.  A sample count that is not a positive integer
    raises `ValueError`, and so do responses that are not one finite float
    per draw, as at SS level 0 (`_level0`).
    """
    if len(ns) != len(seeds):
        raise ValueError(f"{len(ns)} sample counts but {len(seeds)} seeds")
    if len(ns) == 0 or any(not is_integer(n) or n < 1 for n in ns):
        raise ValueError(f"sample counts must be positive integers, got {list(ns)}")
    _check_system(system, len(ns))
    roots = _rng.pools(seeds)
    counts = []
    for lo, hi in _batches(ns):
        _, responses, (starts, _, _) = _level0(system, roots, lo, np.array(ns[lo:hi]))
        counts += np.add.reduceat(responses <= system.threshold, starts).tolist()
    return [
        PcResult(pc=c / n, conflict_count=c, levels_used=1, samples_used=n, floor_reached=False)
        for n, c in zip(map(operator.index, ns), counts)
    ]


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
    are written into a step-major (length, m, d) samples buffer, so step k
    works in the contiguous block `xs[k]`: it adds rho x to the drifts there
    to form the candidates, writes their responses into row k of a
    (length, m) buffer, and puts the current state back in the rejected
    rows.  The caller's innovations are left as they were.  A seed whose
    response is not at most its threshold, NaN on either side included, is
    rejected.

    Returns the samples (m, length, d) and their responses (m, length), in
    chain-major order.
    """
    m, length, d = innovations.shape
    seed_responses = np.array(seed_responses, dtype=np.float64).reshape(m)
    thresholds = np.asarray(thresholds, dtype=np.float64)
    beyond = np.flatnonzero(~(seed_responses <= thresholds))
    if beyond.size:
        j = beyond[0]
        raise ValueError(
            f"seed {j} violates the threshold: response {seed_responses[j]:.6g} > {thresholds[j]:.6g}"
        )
    problems = np.asarray(problems, dtype=np.intp)
    # a contiguous L^T per chain halves the matmul's time against a transposed view
    chol_t = system.chol[problems].transpose(0, 2, 1).copy()
    xs = np.empty((length, m, d))
    np.matmul(innovations, chol_t, out=xs.transpose(1, 0, 2), dtype=np.float64)
    xs *= _INNOVATION_SCALE
    xs += (1.0 - CHAIN_CORRELATION) * system.mean[problems]
    rs = np.empty((length, m))
    cur = np.array(seeds, dtype=np.float64).reshape(m, d)
    cur_r = seed_responses
    pull = np.empty((m, d))
    for k in range(length):
        x, r = xs[k], rs[k]
        np.multiply(cur, CHAIN_CORRELATION, out=pull)
        x += pull
        r[...] = system.evaluate(x, problems)
        reject = ~(r <= thresholds)
        np.copyto(x, cur, where=reject[:, None])
        np.copyto(r, cur_r, where=reject)
        cur, cur_r = x, r
    return np.ascontiguousarray(xs.transpose(1, 0, 2)), np.ascontiguousarray(rs.T)


def run_subset_simulations(
    system: RareEventSystem,
    configs: SubsetConfig | Sequence[SubsetConfig],
    seeds: Sequence[_rng.SeedLike] | _rng.Pools,
    *,
    tables: bool = True,
) -> Iterator[SubsetResult]:
    """Run problems 0..K-1 of `system` in lockstep, problem k from `seeds[k]`
    under `configs[k]`, or under `configs` itself if it is one config.

    Level 0 is `direct_monte_carlo`'s N prior draws per problem.  While
    levels remain, each problem's N_c best samples seed chains that grow N
    new samples under its intermediate threshold.  A problem's descent stops
    once a level holds N_c samples at or below the system's threshold, or at
    `max_levels`.  Total cost is N per level per problem.

    Every input is checked before this returns.  The iterator returned runs
    the problems batch by batch (`_batches`) and yields the results in
    problem order, so a caller that keeps none holds one batch's arrays.
    Once it is exhausted, one warning line counts the problems whose
    threshold did not decrease at some level, and those levels, if any.

    The configs must share `level_probability`, and so the chain length
    1/p0.  Each level of a batch is one flat population whose rows run
    problem by problem, whatever their budgets; at each level one
    `rng.standard_normal` call draws the innovations of every problem's
    chains and one `conditional_chains` call steps them all.

    Each problem draws level 0 from `child(root_k, 0)` and its chains'
    (N_c, length, d) innovations at level l from `child(root_k, l)`, with
    root_k row k of `rng.pools(seeds)`, through `rng.standard_normal` (see
    `subsim.rng` for `child`); `seeds` may be that pools array itself.  Each
    level derives the streams of its batch's problems in one
    `rng.children` call.  The threshold, seed selection and stop test
    read each problem's own rows; so each result equals the problem's own
    one-problem run bit for bit.  No table is assembled here: a result
    builds its own on first read (see `SubsetResult`).  With `tables=False`
    the results keep no level blocks, so a batch holds only its current
    level's arrays and no result's `table` can be read; the summaries are
    the same bit for bit.
    """
    roots = _rng.pools(seeds)
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
        stalls: list[int] = []  # each problem's stalled level count
        for lo, hi in _batches([c.n_samples for c in configs]):
            yield from _run_batch(system, configs, roots, stalls, range(lo, hi), tables=tables)
        if any(stalls):
            logger.warning(
                "intermediate threshold did not decrease in %d of %d problems, at %d levels "
                "in all; chains may be stalling", np.count_nonzero(stalls), k_all, sum(stalls)
            )

    return stream()


def _run_batch(system, configs, roots, stalls: list[int], batch: range, *, tables: bool):
    """The results of the problems in `batch`, run in lockstep, in order; each
    one's stalled level count goes on `stalls`.  With `tables` false no level
    block is kept.

    Each level is one population whose rows run problem by problem, in draw
    order, over the problems still descending.  Per-problem arrays hold N,
    N_c and the last level; each problem's rows are read by index
    (`_layout`), so the layout changes only when a problem stops.  Nothing
    sorts a level: `_select` finds each threshold and the seeds, the rare
    count reads the rows as drawn, and each level's rows stay a result's
    block in draw order, sorted only if its table is read.
    """
    lo, hi = batch.start, batch.stop
    active = np.arange(lo, hi)
    ns = np.array([configs[k].n_samples for k in batch])
    n_cs = np.array([configs[k].n_chains for k in batch])
    last = np.array([configs[k].max_levels - 1 for k in batch])
    samples, responses, (starts, spans, runs) = _level0(system, roots, lo, ns)
    d = system.mean.shape[1]
    n_s = configs[lo].chain_length
    blocks: dict = {k: [] if tables else None for k in batch}
    thresholds: dict[int, list[float]] = {k: [] for k in batch}
    results: dict[int, SubsetResult] = {}
    level = 0

    while True:
        if tables:
            for k, start, end in spans:
                blocks[k].append((responses[start:end], samples[start:end]))
        conflicts = np.add.reduceat(responses <= system.threshold, starts)
        stop = (conflicts >= n_cs) | (last == level)
        stopping = stop.any()
        if stopping:
            for j in np.flatnonzero(stop).tolist():
                k = int(active[j])
                results[k] = _finish(blocks[k], thresholds[k], int(conflicts[j]), level, configs[k])
                stalls.append(results[k].diagnostics.stalled_levels)
                blocks[k] = None
            if stop.all():
                break
        go = ~stop
        b, seed_rows = _select(responses, runs, ns, n_cs, go)
        if stopping:  # the next level holds the rows of the stepping problems only
            b, active, ns, n_cs, last = b[go], active[go], ns[go], n_cs[go], last[go]
            starts, spans, runs = _layout(active, ns)
        if stopping or level == 0:
            problems, chain_counts, stepping = active.repeat(n_cs), n_cs.tolist(), active.tolist()
            level_roots = roots[active]

        for k, bk in zip(stepping, b.tolist()):
            thresholds[k].append(bk)
        chain_b = b.repeat(n_cs)
        seed_x, seed_r = samples[seed_rows], responses[seed_rows]
        level += 1
        streams = _rng.children(level_roots, level)
        innovations = _rng.standard_normal(streams, chain_counts, (n_s, d))
        samples, responses = conditional_chains(
            system, seed_x, seed_r, chain_b, innovations, problems
        )
        over = responses > chain_b[:, None]
        if over.any():
            j, step = np.argwhere(over)[0]
            raise ValueError(
                f"conditional chains violated their threshold: response "
                f"{responses[j, step]:.6g} > {chain_b[j]:.6g}"
            )
        samples, responses = samples.reshape(-1, d), responses.reshape(-1)
    return [results[k] for k in batch]


def _finish(blocks, thresholds, conflicts, level, config) -> SubsetResult:
    """One problem's result once its descent has stopped at `level`."""
    diagnostics = PcResult(
        pc=estimate_probability(conflicts, level, config),
        conflict_count=conflicts,
        levels_used=level + 1,
        samples_used=operator.index(config.n_samples) * (level + 1),
        floor_reached=conflicts == 0,
        thresholds=tuple(thresholds),
        stalled_levels=sum(b >= a for a, b in zip(thresholds, thresholds[1:])),
    )
    return SubsetResult(diagnostics, blocks, config)


def _layout(problems: np.ndarray, ns: np.ndarray):
    """Where a population's rows lie, ns[j] rows for each problems[j],
    problem by problem: each problem's first row, (problem, first row, end
    row) triples, and the runs of consecutive problems that share a budget
    as (first row, first index j, problems, N) tuples."""
    ends = np.cumsum(ns)
    starts = ends - ns
    spans = list(zip(problems.tolist(), starts.tolist(), ends.tolist()))
    runs, j = [], 0
    for n, run in itertools.groupby(ns.tolist()):
        r = sum(1 for _ in run)
        runs.append((spans[j][1], j, r, n))
        j += r
    return starts, spans, runs


def _select(responses, runs, ns, n_cs, go):
    """Each problem's threshold, and the rows of the seeds of the problems
    that `go` on, N_c each.

    A level's threshold is its (N_c + 1)-th smallest response, found by
    partitioning each run of equal budgets, its problems' rows side by side.
    The seeds are the N_c rows with the smallest responses, in the order of
    a stable descending sort, which the chains' streams follow: responses
    descending, ties in draw order, so that of the rows that tie at the
    threshold the later draws become seeds.  A stable lexsort of the rows at
    or below their threshold, by problem and then by negated response, gives
    that order, and each problem's last N_c rows there are its seeds.
    """
    b = np.empty(len(ns))
    for row, j, r, n in runs:
        k = n_cs[j]
        b[j : j + r] = np.partition(responses[row : row + r * n].reshape(r, n), k, axis=1)[:, k]
    rows = np.flatnonzero(responses <= b.repeat(ns))
    owner = np.arange(len(ns)).repeat(ns)[rows]
    rows = rows[np.lexsort((-responses[rows], owner))]
    ends = np.cumsum(np.bincount(owner, minlength=len(ns)))
    take = n_cs * go
    return b, rows[np.repeat(ends - np.cumsum(take), take) + np.arange(take.sum())]
