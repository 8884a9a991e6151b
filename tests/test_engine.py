"""Engine unit tests: interval ladders, thresholds, seeds, CCDF assembly, read-off, batches,
and, on each system the engine serves, its contract and its one conditional chain."""

import functools
import math
from dataclasses import astuple, replace

import numpy as np
import pytest

from streams import child, generator
from subsim import engine
from subsim import rng as _rng
from subsim.analysis import freeze_phase
from subsim.conflict import _cholesky_with_jitter, conflict_system, simulate_scenario
from subsim.engine import (
    CHAIN_CORRELATION,
    CcdfTable,
    IntervalVariant,
    RareEventSystem,
    SubsetConfig,
    assemble_ccdf,
    conditional_chains,
    direct_monte_carlo,
    estimate_probability,
    probability_intervals,
    run_subset_simulations,
)
from subsim.scenarios import build_head_on
from subsim.toy import CircleRegion, Point2, toy_system

CFG = SubsetConfig(n_samples=100, level_probability=0.1, max_levels=7)
CFG_STD = SubsetConfig(
    n_samples=100, level_probability=0.1, max_levels=7, interval_variant=IntervalVariant.STANDARD
)
DEEP = SubsetConfig(n_samples=40, level_probability=0.25, max_levels=3)


class TestConfig:
    def test_chain_arithmetic(self):
        assert CFG.n_chains == 10
        assert CFG.chain_length == 10

    def test_other_valid_splits(self):
        cfg = SubsetConfig(n_samples=1000, level_probability=0.1)
        assert cfg.n_chains == 100 and cfg.chain_length == 10
        cfg = SubsetConfig(n_samples=100, level_probability=0.2)
        assert cfg.n_chains == 20 and cfg.chain_length == 5

    @pytest.mark.parametrize(
        "n,p0",
        [(100, 0.3), (0, 0.1), (100, 0.0), (100, 1.0), (50, 0.15), (99, 0.1)],
    )
    def test_invalid_configs_rejected(self, n, p0):
        with pytest.raises(ValueError):
            SubsetConfig(n_samples=n, level_probability=p0)

    @pytest.mark.parametrize(
        "sizes",
        [
            {"n_samples": 100.0},
            {"n_samples": 100, "max_levels": 2.5},
            {"n_samples": 100, "max_levels": True},
        ],
    )
    def test_non_integer_sizes_rejected(self, sizes):
        # a float N would fail inside the stream code, max_levels = 2.5 would
        # let a run descend past its cap and True would run one level: all
        # are rejected before a run
        with pytest.raises(ValueError, match="must be integers"):
            SubsetConfig(**sizes)


class TestProbabilityIntervals:
    def test_shifted_level0_endpoints(self):
        p = probability_intervals(0, CFG)
        assert p[0] == 1.0
        assert p[-1] == 0.01

    def test_shifted_level6_floor_is_exact(self):
        p = probability_intervals(6, CFG)
        assert p[-1] == 1e-8

    def test_standard_level0_last_is_zero(self):
        p = probability_intervals(0, CFG_STD)
        assert p[-1] == 0.0
        assert p[0] == 0.99

    @pytest.mark.parametrize("level", range(7))
    def test_shifted_bounds_and_monotonicity(self, level):
        p = probability_intervals(level, CFG)
        p0i = CFG.level_probability**level
        assert np.all(np.diff(p) < 0)
        assert np.isclose(p[0], p0i, rtol=1e-12)
        assert np.isclose(p[-1], p0i / CFG.n_samples, rtol=1e-12)

    @pytest.mark.parametrize("variant", list(IntervalVariant))
    @pytest.mark.parametrize("n, p0", [(10, 0.1), (100, 0.1), (100, 0.2), (60, 0.5), (3000, 0.1)])
    def test_ladders_descend_across_levels(self, variant, n, p0):
        # assemble_ccdf keeps a non-final level's first N - N_c entries; the
        # last of them is at least the next level's first, so the merged
        # table is non-increasing with no check of its own
        cfg = SubsetConfig(
            n_samples=n, level_probability=p0, max_levels=8, interval_variant=variant
        )
        keep = n - cfg.n_chains
        for level in range(cfg.max_levels):
            ladder = probability_intervals(level, cfg)
            assert len(ladder) == n and np.all(np.diff(ladder) < 0)
            if level + 1 < cfg.max_levels:
                assert ladder[keep - 1] >= probability_intervals(level + 1, cfg)[0]

    def test_level_out_of_range(self):
        with pytest.raises(ValueError):
            probability_intervals(7, CFG)
        with pytest.raises(ValueError):
            probability_intervals(-1, CFG)


def _first_descent(monkeypatch, respond, d=1, seed=1):
    """One problem with a d-dimensional standard-normal prior and response
    `respond(x)`, run to level 1 at N = 100 and p0 = 0.1: its level-0 draws
    and responses, its first threshold and the seeds of its level-1 chains."""
    level0, seeds = [], []

    def evaluate(x, problems):
        r = respond(x)
        if not level0:
            level0.append((x.copy(), r))
        return r

    def spy(system, chain_seeds, *args):
        seeds.append(chain_seeds.copy())
        return conditional_chains(system, chain_seeds, *args)

    monkeypatch.setattr(engine, "conditional_chains", spy)
    system = RareEventSystem(np.zeros((1, d)), np.eye(d)[None], evaluate, threshold=-np.inf)
    (result,) = run_subset_simulations(system, SubsetConfig(100, 0.1, 2), [seed])
    assert result.diagnostics.levels_used == 2 and len(seeds) == 1
    (x, r), = level0
    return x, r, result.diagnostics.thresholds[0], seeds[0]


def _scripted(level0):
    """A response that is `level0` at its first call and 0 at every later one."""
    first = [np.array(level0, dtype=float)]

    def respond(x):
        return first.pop() if first else np.zeros(len(x))

    return respond


class TestIntermediateThreshold:
    """A level's threshold is its (N - N_c)-th largest response (1-based)."""

    def test_descending_sequence(self, monkeypatch):
        # 100..1 descending: the 90th largest is 11
        _, _, b, _ = _first_descent(monkeypatch, _scripted(np.arange(100, 0, -1)))
        assert b == 11.0

    def test_constant_responses(self, monkeypatch):
        _, _, b, _ = _first_descent(monkeypatch, _scripted(np.full(100, 3.5)))
        assert b == 3.5

    def test_matches_brute_force_on_random_instances(self, monkeypatch):
        rng = np.random.default_rng(41)
        for _ in range(100):
            resp = rng.normal(size=100)
            _, _, b, _ = _first_descent(monkeypatch, _scripted(resp))
            # independent oracle: 1-based element N - N_c of the descending sort
            assert b == np.sort(resp)[::-1][100 - 10 - 1]


class TestSelectSeeds:
    """A level's chains start from its N_c samples with the smallest responses."""

    def test_positions_91_to_100(self, monkeypatch):
        x, _, _, seeds = _first_descent(monkeypatch, _scripted(np.arange(100, 0, -1)))
        assert seeds.shape == (10, 1)
        assert np.array_equal(seeds, x[90:])

    def test_single_seed(self):
        # N_c = 1: each level's one chain starts from the best sample
        cfg = SubsetConfig(n_samples=10, level_probability=0.1, max_levels=3)
        system = _line_system(shift=5.0, threshold=0.0)
        (result,) = run_subset_simulations(system, cfg, [9])
        _assert_level_streams(system, result, 9, cfg)

    def test_matches_nearest_brute_force(self, monkeypatch):
        # seeds must be exactly the N_c samples with the smallest responses
        for seed in range(100):
            xy, resp, _, seeds = _first_descent(
                monkeypatch, lambda x: np.hypot(x[:, 0] - 3.0, x[:, 1] + 3.0), d=2, seed=seed
            )
            nearest = xy[np.argsort(resp, kind="stable")][:10]
            assert np.array_equal(np.sort(seeds, axis=0), np.sort(nearest, axis=0))


def _sorted_selection(responses, ns, n_cs, go):
    """The selection of a full level sort: per problem a stable descending
    sort, ties in draw order, whose row N - N_c - 1 holds the threshold and
    whose last N_c rows, for a problem that goes on, are the seeds."""
    thresholds, seeds, start = [], [], 0
    for n, n_c, g in zip(ns, n_cs, go):
        order = start + np.argsort(-responses[start : start + n], kind="stable")
        thresholds.append(responses[order[n - n_c - 1]])
        if g:
            seeds.append(order[n - n_c :])
        start += n
    return np.array(thresholds), np.concatenate(seeds)


class TestSelection:
    """A level's thresholds and seeds, found without sorting it, are those of
    the full sort, ties at the threshold included."""

    @pytest.mark.parametrize("seed", range(6))
    def test_equals_the_full_sort_on_ties(self, seed):
        # budgets 10, 250 and 1,000 at p0 = 0.1 in one population; responses
        # rounded to 0.1, and a fifth of the chains never move, repeating
        # their seed's response; some problems stop here
        gen = np.random.default_rng(seed)
        ns = gen.permutation([10, 250, 1000, 10, 250, 1000])
        n_cs = ns // 10
        go = np.arange(6) != gen.integers(6)
        go[gen.integers(6)] = False
        chains = np.round(np.abs(gen.normal(size=(ns.sum() // 10, 10))), 1)
        stuck = gen.random(len(chains)) < 0.2
        chains[stuck] = chains[stuck, :1]
        responses = chains.reshape(-1)
        *_, runs = engine._layout(np.arange(6), ns)
        b, seeds = engine._select(responses, runs, ns, n_cs, go)
        reference = _sorted_selection(responses, ns, n_cs, go)
        assert np.array_equal(b, reference[0])
        assert np.array_equal(seeds, reference[1])
        # ties straddle the threshold: more rows are at or below it than the
        # threshold row and the seeds
        below = np.add.reduceat(responses <= b.repeat(ns), np.cumsum(ns) - ns)
        assert np.any(below[go] > n_cs[go] + 1)


def _block(level, cfg, offset=0.0):
    responses = np.sort(np.random.default_rng(level + 1).normal(size=cfg.n_samples))[::-1] + offset
    samples = np.arange(cfg.n_samples, dtype=float).reshape(-1, 1)
    return responses, samples


class TestAssembleCcdf:
    def test_two_levels_row_count(self):
        table = assemble_ccdf([_block(0, CFG, 10.0), _block(1, CFG)], CFG)
        assert len(table.rows) == 190
        assert table.levels_completed == 2

    def test_single_level_keeps_all(self):
        table = assemble_ccdf([_block(0, CFG)], CFG)
        assert len(table.rows) == 100

    @pytest.mark.parametrize("m", [1, 2, 3, 5, 7])
    def test_general_row_count(self, m):
        blocks = [_block(i, CFG, offset=10.0 * (m - i)) for i in range(m)]
        table = assemble_ccdf(blocks, CFG)
        assert len(table.rows) == 90 * (m - 1) + 100

    def test_probabilities_non_increasing(self):
        blocks = [_block(i, CFG, offset=10.0 * (3 - i)) for i in range(3)]
        table = assemble_ccdf(blocks, CFG)
        assert np.all(np.diff(table.probabilities) <= 0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            assemble_ccdf([], CFG)

    def test_rows_equal_columns(self):
        blocks = [_block(i, CFG, offset=10.0 * (3 - i)) for i in range(3)]
        table = assemble_ccdf(blocks, CFG)
        rows = table.rows
        assert len(rows) == len(table.probabilities) == 280
        for i, row in enumerate(rows):
            assert row.probability == table.probabilities[i]
            assert row.response == table.responses[i]
            assert np.array_equal(row.sample, table.samples[i])
        # row by row, the kept slices of each level in order
        expected = np.concatenate([b[1][:90] for b in blocks[:2]] + [blocks[2][1]])
        assert np.array_equal(np.array([row.sample for row in rows]), expected)

    def test_samples_are_copies_of_the_blocks(self):
        for m in (1, 3):
            blocks = [_block(i, CFG, offset=10.0 * (m - i)) for i in range(m)]
            table = assemble_ccdf(blocks, CFG)
            before = table.samples.copy()
            for responses, samples in blocks:
                assert not np.shares_memory(table.samples, samples)
                assert not np.shares_memory(table.responses, responses)
                samples += 1.0
            assert np.array_equal(table.samples, before)

    def test_mismatched_columns_rejected(self):
        with pytest.raises(ValueError, match="length"):
            CcdfTable(np.zeros(3), np.zeros(3), np.zeros((2, 1)), levels_completed=1)


class TestEstimateProbability:
    def test_floor_at_level_6(self):
        assert estimate_probability(0, 6, CFG) == 1e-8

    def test_all_conflicting_at_level_0(self):
        assert estimate_probability(100, 0, CFG) == 1.0

    def test_partial_count_at_level_4(self):
        # interval at 1-based position 53 of level 4: 48 / (100 * 10^4)
        assert estimate_probability(48, 4, CFG) == 48.0 / (100 * 10**4)

    def test_count_above_n_rejected(self):
        with pytest.raises(ValueError):
            estimate_probability(101, 0, CFG)

    @pytest.mark.parametrize("n", [100, 1000])
    def test_count_read_off_equals_the_shifted_ladder(self, n):
        # D / (N N_s^L) is the SHIFTED ladder's entry N - D bit for bit, and
        # the D = 0 floor its last entry, so no SHIFTED estimate moved when
        # the read-off stopped indexing the ladder
        cfg = SubsetConfig(n_samples=n, level_probability=0.1, max_levels=8)
        for level in range(8):
            ladder = probability_intervals(level, cfg)
            reads = [estimate_probability(d, level, cfg) for d in range(n + 1)]
            assert reads[0] == ladder[-1]
            assert np.array_equal(reads[1:], ladder[::-1])

    def test_standard_reads_the_count_or_zero(self):
        assert estimate_probability(48, 4, CFG_STD) == 48.0 / (100 * 10**4)
        assert estimate_probability(0, 4, CFG_STD) == 0.0


def _gaussian_system(evaluate, threshold, k=1):
    """K one-dimensional standard-normal problems with the given response and
    failure threshold."""
    return RareEventSystem(np.zeros((k, 1)), np.ones((k, 1, 1)), evaluate, threshold)


def _line_system(shift=0.0, threshold=0.5, decimals=None):
    """1D test system: response = |x - shift|, rounded to `decimals` places
    if given, prior standard normal, failure at or below `threshold`.
    `shift` is one value, or one per problem."""
    shifts = np.atleast_1d(np.asarray(shift, dtype=float))

    def evaluate(x, problems):
        r = np.abs(x[:, 0] - shifts[problems])
        return r if decimals is None else np.round(r, decimals)

    return _gaussian_system(evaluate, threshold, k=len(shifts))


def _assert_level_streams(system, result, seed, cfg):
    """A one-problem run's table equals its replay level by level: level 0 is
    N prior draws from child(root, 0), and level l's chains start from level
    l - 1's N_c best samples and consume one (N_c, length, d) block of
    child(root, l)."""
    n, n_c, n_s = cfg.n_samples, cfg.n_chains, cfg.chain_length
    levels = result.diagnostics.levels_used
    assert levels > 1
    root = _rng.derive(seed)
    d = system.mean.shape[1]
    z = generator(child(root, 0)).standard_normal((n, d))
    x = system.mean[0] + z @ system.chol[0].T
    r = system.evaluate(x, np.zeros(n, dtype=int))
    kept_x, kept_r = [], []
    for level in range(1, levels + 1):
        order = np.argsort(-r, kind="stable")
        x, r = x[order], r[order]
        if level == levels:
            kept_x.append(x)
            kept_r.append(r)
            break
        kept_x.append(x[: n - n_c])
        kept_r.append(r[: n - n_c])
        b = r[n - n_c - 1]
        assert b == result.diagnostics.thresholds[level - 1]
        innovations = generator(child(root, level)).standard_normal((n_c, n_s, d))
        x, r = conditional_chains(
            system, x[-n_c:], r[-n_c:], np.full(n_c, b), innovations, np.zeros(n_c, dtype=int),
        )
        x, r = x.reshape(n, d), r.reshape(n)
    assert np.array_equal(result.table.samples, np.concatenate(kept_x))
    assert np.array_equal(result.table.responses, np.concatenate(kept_r))


def _abs_first_column(x, problems):
    return np.abs(x[:, 0])


def _flat(x, problems):
    return np.ones(len(x))


class TestRunSubsetSimulation:
    def test_non_rare_event_stops_at_level_0(self):
        # threshold at the prior median: about half the draws are below it
        system = _line_system(threshold=0.6745)
        (result,) = run_subset_simulations(system, CFG, [5])
        assert result.diagnostics.levels_used == 1
        assert abs(result.estimate - 0.5) < 0.1

    def test_threshold_above_everything_gives_one(self):
        system = _line_system(threshold=1e9)
        (result,) = run_subset_simulations(system, CFG, [5])
        assert result.estimate == 1.0
        assert result.diagnostics.levels_used == 1
        assert result.diagnostics.samples_used == 100

    def test_rare_event_descends_levels(self):
        # the descent stops at the first level holding N_c rare samples; each
        # level before held fewer, so its threshold lies beyond the system's
        system = _line_system(shift=4.0)
        (result,) = run_subset_simulations(system, CFG, [5])
        d = result.diagnostics
        assert 1 < d.levels_used < CFG.max_levels and d.conflict_count >= CFG.n_chains
        assert all(b > system.threshold for b in d.thresholds)
        assert d.samples_used == 100 * d.levels_used
        assert len(result.table.rows) == 90 * (d.levels_used - 1) + 100
        assert result.estimate == d.pc
        assert d.levels_used == result.table.levels_completed

    def test_stop_exactly_at_chain_count(self):
        # a level 0 with exactly N_c responses at/below the failure threshold
        # stops there (boundary D == N_c); one fewer descends
        system = _line_system(shift=2.0, threshold=0.0)
        cfg = SubsetConfig(n_samples=100, level_probability=0.1, max_levels=5)
        (level0,) = run_subset_simulations(system, SubsetConfig(100, 0.1, 1), [1])
        tenth = level0.table.responses[-10]
        (result,) = run_subset_simulations(replace(system, threshold=tenth), cfg, [1])
        assert result.diagnostics.conflict_count == 10
        assert result.diagnostics.levels_used == 1
        below = replace(system, threshold=np.nextafter(tenth, 0.0))
        (result,) = run_subset_simulations(below, cfg, [1])
        assert result.diagnostics.levels_used > 1

    def test_different_seeds_differ(self):
        system = _line_system(shift=3.0)
        (r1,) = run_subset_simulations(system, CFG, [77])
        (r2,) = run_subset_simulations(system, CFG, [78])
        assert not np.array_equal(r1.table.responses, r2.table.responses)

    def test_chain_threshold_violation_raises(self, monkeypatch):
        def bad_chains(system, seeds, seed_resps, thresholds, innovations, problems):
            # one sample of the whole batch lies beyond its chain's threshold
            m, length, d = innovations.shape
            out = np.repeat(seeds[:, None], length, axis=1)
            resp = np.repeat(np.asarray(seed_resps)[:, None], length, axis=1)
            resp[m // 2, 0] = thresholds[m // 2] + 1.0
            return out, resp

        monkeypatch.setattr(engine, "conditional_chains", bad_chains)
        with pytest.raises(ValueError, match="violated"):
            list(run_subset_simulations(_line_system(threshold=1e-6), CFG, [3]))

    def test_mismatched_prior_shapes_rejected(self):
        bad = RareEventSystem(np.zeros((1, 2)), np.ones((1, 2, 3)), _abs_first_column, 0.5)
        with pytest.raises(ValueError, match="do not match"):
            run_subset_simulations(bad, CFG, [1])

    def test_chains_get_seeds_and_level_stream(self):
        cfg = SubsetConfig(n_samples=100, level_probability=0.1, max_levels=3)
        system = _line_system(shift=5.0, threshold=0.0)
        (result,) = run_subset_simulations(system, cfg, [9])
        _assert_level_streams(system, result, 9, cfg)

    def test_levels_follow_their_streams(self, system):
        # on each system the chain serves, problem 0's levels replay from
        # its level streams and its seeds, several levels deep
        one = replace(system, mean=system.mean[:1], chol=system.chol[:1], threshold=-np.inf)
        (result,) = run_subset_simulations(one, DEEP, [24])
        _assert_level_streams(one, result, 24, DEEP)

    def test_stalled_threshold_logs_warning(self, caplog):
        cfg = SubsetConfig(n_samples=100, level_probability=0.1, max_levels=4)
        with caplog.at_level("WARNING", logger="subsim.engine"):
            list(run_subset_simulations(_gaussian_system(_flat, 0.0), cfg, [1]))
        assert any("did not decrease" in m for m in caplog.messages)

    def test_stalls_reported_once_with_their_count(self, caplog):
        # a flat response makes every level's population the constant 1, so
        # thresholds 2..5 all equal the first: four stalls, one warning line
        cfg = SubsetConfig(n_samples=100, level_probability=0.1, max_levels=6)
        with caplog.at_level("WARNING", logger="subsim.engine"):
            (result,) = run_subset_simulations(_gaussian_system(_flat, 0.0), cfg, [1])
        assert result.diagnostics.stalled_levels == 4
        lines = [m for m in caplog.messages if "did not decrease" in m]
        assert len(lines) == 1
        assert "in 1 of 1 problems, at 4 levels in all" in lines[0]

    def test_stalls_reported_once_per_call(self, caplog, monkeypatch):
        # three stalled problems in two batches: one line naming all three,
        # logged once the results are exhausted
        monkeypatch.setattr(engine, "_BATCH_ROWS", 200)
        system, cfg = _gaussian_system(_flat, 0.0, k=3), SubsetConfig(100, 0.1, 6)
        with caplog.at_level("WARNING", logger="subsim.engine"):
            stream = run_subset_simulations(system, cfg, [1, 2, 3])
            assert next(stream).diagnostics.stalled_levels == 4 and not caplog.messages
            assert [r.diagnostics.stalled_levels for r in stream] == [4, 4]
        assert len(caplog.messages) == 1
        assert "did not decrease in 3 of 3 problems, at 12 levels in all" in caplog.messages[0]

    def test_no_stall_no_warning(self, caplog):
        system = _line_system(shift=4.0, threshold=0.0)
        cfg = SubsetConfig(n_samples=100, level_probability=0.1, max_levels=4)
        with caplog.at_level("WARNING", logger="subsim.engine"):
            (result,) = run_subset_simulations(system, cfg, [5])
        assert result.diagnostics.levels_used == 4
        assert np.all(np.diff(result.diagnostics.thresholds) < 0)
        assert result.diagnostics.stalled_levels == 0
        assert not caplog.messages


def _chol(d, seed):
    a = np.random.default_rng(seed).normal(size=(d, d))
    return np.linalg.cholesky(a @ a.T + d * np.eye(d))


def _prior_system():
    """The hand-made d = 3 prior as two problems with their own means and
    full factors, problem p responding |x_0 - p|."""
    mean = np.array([[1.0, -2.0, 0.5], [0.0, 3.0, -1.0]])
    chol = np.array([_chol(3, 1), _chol(3, 2)])
    return RareEventSystem(mean, chol, lambda x, p: np.abs(x[:, 0] - p), np.inf)


@functools.cache
def _conflict_system():
    """Two frozen filter steps of a head-on encounter: Kalman posteriors
    whose factors have off-diagonal terms, so a transposed factor shows."""
    spec = build_head_on(152.4, 2000.0)
    return conflict_system([freeze_phase(spec, t, seed=3) for t in (4.0, 10.0)])


SYSTEMS = {
    "prior": _prior_system,
    "toy": lambda: toy_system(CircleRegion(Point2(3.0, -3.0), 1.0)),
    "conflict": _conflict_system,
}


@pytest.fixture(params=list(SYSTEMS))
def system(request):
    """Each system the chain serves, with one problem or two."""
    return SYSTEMS[request.param]()


def _prior_draws(system, problems, gen):
    """One draw of problems[j]'s prior per row j: mean + L z, z from `gen`."""
    z = gen.standard_normal((len(problems), system.mean.shape[1]))
    return system.mean[problems] + (system.chol[problems] @ z[:, :, None])[:, :, 0]


def _chains(system, seeds, thresholds, innovations, problems=None):
    """`conditional_chains` from `seeds`, scored by the system, each chain of
    problem 0 unless `problems` says otherwise."""
    seeds = np.atleast_2d(seeds)
    m = len(seeds)
    problems = np.zeros(m, dtype=int) if problems is None else problems
    return conditional_chains(
        system, seeds, system.evaluate(seeds, problems),
        np.broadcast_to(thresholds, (m,)), innovations, problems,
    )


def _drifts(chol, mean, innovations):
    """The state-free part of each step of one chain, (1 - rho) mean +
    sqrt(1 - rho^2) L xi, its (length, d) innovations coloured in one matmul
    by a contiguous L^T, as the engine colours a chain's, so the two round
    alike."""
    colour = innovations @ np.ascontiguousarray(chol.T)
    return math.sqrt(1.0 - CHAIN_CORRELATION**2) * colour + (1.0 - CHAIN_CORRELATION) * mean


def _scalar_chain(system, seed, problem, threshold, innovations):
    """The reference chain: one state at a time, each candidate
    x' = rho x + drift scored by its own `evaluate` call and accepted iff its
    response is at most the threshold."""

    def respond(x):
        return float(system.evaluate(x[None], np.array([problem]))[0])

    cur, cur_r = seed, respond(seed)
    out_x, out_r = [], []
    for drift in _drifts(system.chol[problem], system.mean[problem], innovations):
        cand = CHAIN_CORRELATION * cur + drift
        cand_r = respond(cand)
        if cand_r <= threshold:
            cur, cur_r = cand, cand_r
        out_x.append(cur)
        out_r.append(cur_r)
    return np.array(out_x), np.array(out_r)


class TestConditionalChains:
    """The engine's one chain kernel, on each system it serves."""

    def test_stationary_law_is_the_prior(self):
        # with an infinite threshold every candidate is accepted and the
        # chain samples N(mean, chol chol^T)
        system = _prior_system()
        mean, chol = system.mean[0], system.chol[0]
        innovations = generator(_rng.derive(3)).standard_normal((20, 2_000, 3))
        x, _ = _chains(system, np.tile(mean, (20, 1)), np.inf, innovations)
        x = x[:, 50:].reshape(-1, 3)  # past burn-in
        cov = chol @ chol.T
        # 39,000 states at rho = 0.8 weigh as about 4,300 independent draws:
        # 0.1 standard deviations is more than 4 of their standard errors
        assert np.allclose(x.mean(axis=0), mean, atol=0.1 * np.sqrt(np.diag(cov)))
        scale = np.sqrt(np.outer(np.diag(cov), np.diag(cov)))
        assert np.all(np.abs(np.cov(x.T) - cov) < 0.1 * scale)

    def test_near_singular_prior_keeps_mean_and_covariance(self):
        # a rank-3 covariance in six dimensions factors only with diagonal
        # jitter; the chain needs no inverse of that factor, and with an
        # infinite threshold it keeps the prior's mean and covariance and
        # stays within the jitter's spread off the prior's support
        gen = generator(_rng.derive(5))
        basis = gen.standard_normal((6, 3))
        cov = basis @ basis.T
        chol = _cholesky_with_jitter(cov)
        jitter = (chol @ chol.T - cov)[0, 0]
        assert 0.0 < jitter < 1e-6 * cov.diagonal().max()
        mean = gen.standard_normal((1, 6))
        system = RareEventSystem(mean, chol[None], _abs_first_column, np.inf)
        innovations = gen.standard_normal((20, 2_000, 6))
        x, _ = _chains(system, np.repeat(mean, 20, axis=0), np.inf, innovations)
        x = x[:, 50:].reshape(-1, 6)  # past burn-in
        sd = np.sqrt(cov.diagonal())
        assert np.allclose(x.mean(axis=0), mean[0], atol=0.1 * sd)
        assert np.all(np.abs(np.cov(x.T) - cov) < 0.1 * np.outer(sd, sd))
        off_support = np.linalg.svd(basis)[0][:, 3:]  # the covariance's null space
        assert np.all(np.var((x - mean) @ off_support, axis=0) < 2.0 * jitter)

    def test_replay_equals_scalar_chain(self, system):
        # chain j, of problem j mod K, equals the scalar reference chain on
        # its seed and its innovations[j], states and responses bit for bit
        gen = generator(_rng.derive(4))
        problems = np.arange(5) % len(system.mean)
        seeds = _prior_draws(system, problems, gen)
        innovations = gen.standard_normal((5, 30, system.mean.shape[1]))
        threshold = float(system.evaluate(seeds, problems).max())
        x, r = _chains(system, seeds, threshold, innovations, problems)
        for j, k in enumerate(problems):
            ref_x, ref_r = _scalar_chain(system, seeds[j], k, threshold, innovations[j])
            assert np.array_equal(x[j], ref_x) and np.array_equal(r[j], ref_r)
        moved = np.any(np.diff(np.concatenate([seeds[:, None], x], axis=1), axis=1) != 0.0, axis=2)
        assert 0 < moved.sum() < moved.size  # both branches of the accept step run

    def test_candidate_on_threshold_accepted(self, system):
        # a candidate exactly on the threshold is accepted; one ulp beyond,
        # rejected.  The seed is the prior mean, and the innovation the one
        # of eight whose candidate responds farthest from it.
        mean, chol = system.mean[0], system.chol[0]
        xis = generator(_rng.derive(24)).standard_normal((8, 1, 1, len(mean)))
        cands = [CHAIN_CORRELATION * mean + _drifts(chol, mean, xi[0])[0] for xi in xis]
        respond = system.evaluate(np.array(cands), np.zeros(8, dtype=int))
        best = int(np.argmax(respond))
        xi, cand, b = xis[best], cands[best], float(respond[best])
        assert b > system.evaluate(mean[None], np.zeros(1, dtype=int))[0]  # the seed lies within
        x, r = _chains(system, mean, b, xi)
        assert np.array_equal(x[0, 0], cand) and r[0, 0] == b
        x, _ = _chains(system, mean, np.nextafter(b, 0.0), xi)
        assert np.array_equal(x[0, 0], mean)

    def test_seed_beyond_threshold_rejected(self):
        system = _prior_system()
        with pytest.raises(ValueError, match="violates"):
            _chains(system, system.mean[0], 0.5, np.zeros((1, 3, 3)))

    @pytest.mark.parametrize("where", ["seed", "threshold"])
    def test_nan_seed_or_threshold_rejected(self, where):
        # NaN compares false both ways, so a NaN response or threshold is a
        # violation, not a seed that passes and a chain that never moves
        system = _prior_system()
        seed_response, threshold = (np.nan, 5.0) if where == "seed" else (1.0, np.nan)
        with pytest.raises(ValueError, match="seed 0 violates the threshold"):
            conditional_chains(
                system, system.mean[:1], [seed_response], np.array([threshold]),
                np.zeros((1, 3, 3)), np.zeros(1, dtype=int),
            )

    def test_lockstep_equals_alone(self, system):
        # chains of every problem in one call, each under its own threshold,
        # equal each chain run alone and stay within their thresholds
        gen = generator(_rng.derive(7))
        problems = np.arange(6) % len(system.mean)
        seeds = _prior_draws(system, problems, gen)
        resp = system.evaluate(seeds, problems)
        thresholds = resp * gen.uniform(1.0, 1.3, 6)
        innovations = gen.standard_normal((6, 25, system.mean.shape[1]))
        x, r = conditional_chains(system, seeds, resp, thresholds, innovations, problems)
        assert x.shape == innovations.shape and r.shape == (6, 25)
        for j in range(6):
            one_x, one_r = conditional_chains(
                system, seeds[j : j + 1], resp[j : j + 1], thresholds[j : j + 1],
                innovations[j : j + 1], problems[j : j + 1],
            )
            assert np.array_equal(x[j], one_x[0]) and np.array_equal(r[j], one_r[0])
        assert np.all(r <= thresholds[:, None])
        moved = np.any(x != seeds[:, None], axis=2)
        assert 0 < moved.sum() < moved.size

    @pytest.mark.parametrize("system", ["toy", "conflict"], indirect=True)
    def test_chain_settles_to_the_prior_within_its_level(self, system):
        # seeded at the level's draw farthest out in the prior, the chains
        # settle to the prior restricted to the level: their responses match
        # those of direct draws at or below the threshold
        gen = generator(_rng.derive(60))
        d = system.mean.shape[1]
        z = gen.standard_normal((20_000, d))
        draws = system.mean[0] + z @ system.chol[0].T
        r = system.evaluate(draws, np.zeros(len(draws), dtype=int))
        threshold = float(np.quantile(r, 0.2))
        ref = r[r <= threshold]
        far = np.argmax(np.where(r <= threshold, np.sum(z * z, axis=1), -1.0))
        innovations = gen.standard_normal((10, 1_000, d))
        _, misses = _chains(system, np.tile(draws[far], (10, 1)), threshold, innovations)
        settled = misses[:, 100::10].ravel()  # past burn-in, thinned to near independence
        assert abs(settled.mean() - ref.mean()) < 4 * ref.std() / math.sqrt(len(settled))
        assert 0.8 < settled.std() / ref.std() < 1.2


def _assert_same_result(a, b):
    assert a.estimate == b.estimate
    assert a.diagnostics == b.diagnostics
    assert a.table.levels_completed == b.table.levels_completed
    assert np.array_equal(a.table.probabilities, b.table.probabilities)
    assert np.array_equal(a.table.responses, b.table.responses)
    assert np.array_equal(a.table.samples, b.table.samples)


@pytest.fixture
def eager_tables(monkeypatch):
    """A switch: once called, every engine result assembles its CCDF table
    as soon as its problem's descent stops, before the run goes on."""

    def switch():
        finish = engine._finish

        def eager(*args):
            result = finish(*args)
            result.table
            return result

        monkeypatch.setattr(engine, "_finish", eager)

    return switch


def _descent(system, seed=24):
    """One lockstep run of every problem of `system` with no rare sample to
    stop it: problem k three levels deep, or two for odd k, at N = 40 and
    p0 = 0.25.  The results are lazy: no table has been read."""
    configs = [replace(DEEP, max_levels=3 - k % 2) for k in range(len(system.mean))]
    never = replace(system, threshold=-np.inf)
    return list(run_subset_simulations(never, configs, range(seed, seed + len(configs))))


def _python_types(result):
    return [type(v) for v in astuple(result)] + [type(b) for b in result.thresholds]


class TestSystemContract:
    """What the engine promises for any `RareEventSystem`, tested once, on
    each system of the `system` fixture."""

    def test_level0_is_direct_monte_carlo(self, system):
        # at a threshold amid level 0's responses, one of them, SS stops at
        # level 0 under either ladder with the summary of DMC on the same
        # draws: D of N conflicts, the draw on the threshold among them, and
        # pc = D / N
        seeds = range(5, 5 + len(system.mean))
        ns = [100] * len(seeds)
        probe = run_subset_simulations(system, SubsetConfig(100, 0.1, 1), seeds)
        level0 = np.sort(np.concatenate([r.table.responses for r in probe]))
        at = replace(system, threshold=float(level0[len(level0) // 2]))
        dmc = direct_monte_carlo(at, ns, seeds)
        for cfg in (CFG, CFG_STD):
            assert [r.diagnostics for r in run_subset_simulations(at, cfg, seeds)] == dmc
        assert all(r.levels_used == 1 and CFG.n_chains <= r.conflict_count < 100 for r in dmc)
        assert [r.pc for r in dmc] == [r.conflict_count / 100 for r in dmc]
        # with no draw at or below the threshold, one STANDARD level reads 0, as DMC does
        never = replace(system, threshold=-np.inf)
        one = run_subset_simulations(never, replace(CFG_STD, max_levels=1), seeds)
        assert [r.estimate for r in one] == [r.pc for r in direct_monte_carlo(never, ns, seeds)]
        assert all(r.estimate == 0.0 for r in one)

    def test_rerun_is_identical(self, system):
        for a, b in zip(_descent(system), _descent(system), strict=True):
            _assert_same_result(a, b)
        seeds, ns = range(len(system.mean)), [100] * len(system.mean)
        assert direct_monte_carlo(system, ns, seeds) == direct_monte_carlo(system, ns, seeds)

    def test_tables_are_built_once_on_first_read(self, system, assemble_calls, eager_tables):
        # a table read after the whole run, its problem stopped a level
        # before the next one's, equals the one assembled when it stopped
        lazy = _descent(system)
        assert assemble_calls == []
        tables = [r.table for r in lazy]
        assert len(assemble_calls) == len(lazy)
        # a second read returns the same table without assembling again
        assert all(r.table is t for r, t in zip(lazy, tables))
        assert len(assemble_calls) == len(lazy)
        eager_tables()
        eager = _descent(system)
        assert len(assemble_calls) == 2 * len(lazy)
        for a, b in zip(lazy, eager, strict=True):
            _assert_same_result(a, b)

    def test_rows_reproduce_their_responses(self, system):
        # each table row's response is its sample's, scored apart from the
        # run, and the rows of level l >= 1 lie within that level's threshold
        for k, result in enumerate(_descent(system)):
            table, d = result.table, result.diagnostics
            problems = np.full(len(table.samples), k)
            assert np.array_equal(system.evaluate(table.samples, problems), table.responses)
            kept = np.cumsum([DEEP.n_samples - DEEP.n_chains] * (d.levels_used - 1))
            levels = np.split(table.responses, kept)[1:]
            assert len(levels) == len(d.thresholds) == d.levels_used - 1
            assert all(level.max() <= b for level, b in zip(levels, d.thresholds))

    def test_numpy_counts_give_python_numbers(self, system):
        # a NumPy budget or level cap gives the numbers, and the types, that
        # Python ints give
        k = len(system.mean)
        seeds, never = range(k), replace(system, threshold=-np.inf)

        def ss(config):
            return [r.diagnostics for r in run_subset_simulations(never, config, seeds)]

        dmc = direct_monte_carlo(system, [np.int64(100)] * k, seeds)
        deep = ss(SubsetConfig(np.int64(40), 0.25, np.int32(3)))
        assert [r.levels_used for r in deep] == [3] * k
        for numpy_, python in ((dmc, direct_monte_carlo(system, [100] * k, seeds)), (deep, ss(DEEP))):
            assert numpy_ == python
            assert list(map(_python_types, numpy_)) == list(map(_python_types, python))
            assert all(type(r.pc) is float and type(r.samples_used) is int for r in numpy_)

    def test_mismatches_rejected(self, system):
        k = len(system.mean)
        with pytest.raises(ValueError, match=f"poses {k} problems but {k + 1} seeds"):
            run_subset_simulations(system, CFG, range(k + 1))
        with pytest.raises(ValueError, match=f"poses {k} problems but {k + 1} seeds"):
            direct_monte_carlo(system, [100] * (k + 1), range(k + 1))
        for count in (k - 1, k + 1):
            with pytest.raises(ValueError, match=f"{count} configs but {k} seeds"):
                run_subset_simulations(system, [CFG] * count, range(k))
            with pytest.raises(ValueError, match=f"{count} sample counts but {k} seeds"):
                direct_monte_carlo(system, [100] * count, range(k))


class TestLockstepProblems:
    """K problems run together give each problem exactly its one-problem result."""

    def test_batch_equals_one_problem_runs(self):
        # stops at level 0 (shift 0), mid-descent (shift 4) and at max_levels
        # with no rare sample (shift 50), interleaved in the batch
        shifts = (4.0, 0.0, 50.0, 4.0)
        seeds = (5, 6, 7, 8)
        batch = list(run_subset_simulations(_line_system(shifts), CFG, seeds))
        assert len(batch) == len(shifts)
        levels = [r.diagnostics.levels_used for r in batch]
        assert levels[1] == 1
        assert 1 < levels[0] < CFG.max_levels and 1 < levels[3] < CFG.max_levels
        assert levels[2] == CFG.max_levels and batch[2].diagnostics.floor_reached
        for shift, seed, result in zip(shifts, seeds, batch):
            (alone,) = run_subset_simulations(_line_system(shift), CFG, [seed])
            _assert_same_result(result, alone)

    def test_fixed_level_batch_equals_one_problem_runs(self):
        # problems that never reach the rare count run every level to the cap
        cfg = SubsetConfig(n_samples=100, level_probability=0.1, max_levels=4)
        batch = list(run_subset_simulations(_line_system((0.0, 3.0), 0.0), cfg, (9, 10)))
        for shift, seed, result in zip((0.0, 3.0), (9, 10), batch):
            assert result.diagnostics.levels_used == 4
            (alone,) = run_subset_simulations(_line_system(shift, 0.0), cfg, [seed])
            _assert_same_result(result, alone)

    def test_each_problem_draws_its_own_streams(self):
        # level l of problem k comes from child(derive(seeds[k]), l), whatever
        # else runs beside it
        cfg = SubsetConfig(n_samples=100, level_probability=0.1, max_levels=3)
        batch = list(run_subset_simulations(_line_system((5.0, 6.0), 0.0), cfg, (3, 4)))
        for shift, seed, result in zip((5.0, 6.0), (3, 4), batch):
            _assert_level_streams(_line_system(shift, 0.0), result, seed, cfg)

    def test_no_seeds_rejected(self):
        with pytest.raises(ValueError, match="seed"):
            run_subset_simulations(_line_system(), CFG, [])

    # three budgets, a shorter level cap and the other ladder, interleaved
    MIXED = (
        CFG,
        SubsetConfig(n_samples=200, level_probability=0.1),
        SubsetConfig(n_samples=100, level_probability=0.1, max_levels=4),
        CFG_STD,
        SubsetConfig(n_samples=500, level_probability=0.1),
        CFG,
        SubsetConfig(n_samples=200, level_probability=0.1),
    )

    @pytest.mark.parametrize("decimals", [None, 1], ids=["exact", "rounded"])
    def test_mixed_configs_equal_one_problem_runs(self, decimals):
        # problems stop at level 0 (shift 0), mid-descent (shift 3 and 4) and
        # at max_levels with no rare sample (shift 50), at both level caps;
        # responses rounded to 0.1 tie in every level, across problems of
        # different budgets, and the ties must fall in draw order
        shifts = (4.0, 0.0, 50.0, 4.0, 4.0, 50.0, 3.0)
        seeds = range(20, 27)
        system = _line_system(shifts, decimals=decimals)
        batch = list(run_subset_simulations(system, self.MIXED, seeds))
        levels = [r.diagnostics.levels_used for r in batch]
        assert levels[1] == 1
        assert levels[2] == 4 and batch[2].diagnostics.floor_reached
        assert levels[5] == CFG.max_levels and batch[5].diagnostics.floor_reached
        assert all(1 < levels[k] < CFG.max_levels for k in (0, 3, 4, 6))
        for shift, cfg, seed, result in zip(shifts, self.MIXED, seeds, batch):
            alone = _line_system(shift, decimals=decimals)
            (alone_result,) = run_subset_simulations(alone, cfg, [seed])
            _assert_same_result(result, alone_result)
            if result.diagnostics.levels_used > 1:
                _assert_level_streams(alone, result, seed, cfg)
            if decimals is not None:
                kept = [cfg.n_samples - cfg.n_chains] * (result.diagnostics.levels_used - 1)
                for level in np.split(result.table.responses, np.cumsum(kept)):
                    assert len(np.unique(level)) < len(level)

    def test_mixed_configs_step_together(self, monkeypatch):
        # every level draws the innovations of all the problems' chains in
        # one call and steps them all in one call, whatever their budgets
        draws, chains = [], []
        draw, step = _rng.standard_normal, engine.conditional_chains

        def counting_draw(streams, rows, tail=()):
            draws.append(sum(rows))
            return draw(streams, rows, tail)

        def counting_step(*args, **kwargs):
            chains.append(len(args[2]))
            return step(*args, **kwargs)

        monkeypatch.setattr(_rng, "standard_normal", counting_draw)
        monkeypatch.setattr(engine, "conditional_chains", counting_step)
        shifts = (50.0,) * len(self.MIXED)
        batch = list(run_subset_simulations(_line_system(shifts, 0.0), self.MIXED, range(7)))
        assert [r.diagnostics.levels_used for r in batch] == [7, 7, 4, 7, 7, 7, 7]
        seeds_per_level = [cfg.n_chains for cfg in self.MIXED]
        assert draws[0] == sum(cfg.n_samples for cfg in self.MIXED)  # level 0
        without_short = sum(seeds_per_level) - self.MIXED[2].n_chains
        assert chains == draws[1:] == [sum(seeds_per_level)] * 3 + [without_short] * 3

    def test_equal_budgets_tie_in_draw_order(self):
        # four problems of one budget step in one population, their responses
        # rounded to 0.1 so that every kept level holds ties; each problem's
        # ties must still fall in its own draw order
        shifts = (4.0, 3.0, 4.0, 3.5)
        seeds = range(40, 44)
        batch = list(run_subset_simulations(_line_system(shifts, decimals=1), CFG, seeds))
        kept = CFG.n_samples - CFG.n_chains
        for shift, seed, result in zip(shifts, seeds, batch):
            alone = _line_system(shift, decimals=1)
            (alone_result,) = run_subset_simulations(alone, CFG, [seed])
            _assert_same_result(result, alone_result)
            _assert_level_streams(alone, result, seed, CFG)
            levels = [kept] * (result.diagnostics.levels_used - 1)
            for level in np.split(result.table.responses, np.cumsum(levels)):
                assert len(np.unique(level)) < len(level)

    def test_configs_must_share_level_probability(self):
        configs = [CFG, SubsetConfig(n_samples=100, level_probability=0.2)]
        with pytest.raises(ValueError, match="share level_probability"):
            run_subset_simulations(_line_system((1.0, 2.0)), configs, (1, 2))



class TestDirectMonteCarlo:
    """Plain Monte Carlo runs on the draws of SS level 0."""

    def test_problems_of_one_call_equal_their_own_calls(self):
        shifts, ns, seeds = (0.0, 1.0, 0.0), [50, 1, 300], (3, 4, 5)
        results = direct_monte_carlo(_line_system(shifts, 0.7), ns, seeds)
        for shift, n, seed, result in zip(shifts, ns, seeds, results):
            assert direct_monte_carlo(_line_system(shift, 0.7), [n], [seed]) == [result]

    def test_runs_of_equal_budgets_equal_their_own_calls(self):
        # runs of equal budgets are coloured together; each problem's rows
        # are still mean[k] + z @ chol[k].T of its own draws, bit for bit
        d, ns, seeds = 6, [100, 100, 100, 7, 300, 300, 1], range(30, 37)
        k_all = len(ns)
        gen = generator(_rng.derive(9))
        mean = gen.standard_normal((k_all, d))
        chol = np.array([_chol(d, k) for k in range(k_all)])
        rows = []

        def recording(x, problems):
            rows.append(x.copy())
            return _abs_first_column(x, problems)

        results = direct_monte_carlo(RareEventSystem(mean, chol, recording, 1.0), ns, seeds)
        (x,) = rows
        per_problem = np.split(x, np.cumsum(ns)[:-1])
        for k, (n, seed, result, xk) in enumerate(zip(ns, seeds, results, per_problem)):
            z = generator(child(_rng.derive(seed), 0)).standard_normal((n, d))
            assert np.array_equal(xk, mean[k] + z @ chol[k].T)
            alone = RareEventSystem(mean[k : k + 1], chol[k : k + 1], _abs_first_column, 1.0)
            assert direct_monte_carlo(alone, [n], [seed]) == [result]
        assert 0 < sum(r.conflict_count for r in results) < sum(ns)

    def test_slices_hold_whole_problems(self, monkeypatch, assemble_calls):
        # with a 100-row cap, consecutive problems share a call while they
        # fit, a larger problem is a call of its own, and none is split; with
        # one problem a batch, each problem is a call of its own
        shifts, ns, seeds = (0.0, 1.0, 0.0, 0.5, 2.0), [40, 50, 300, 60, 41], (3, 4, 5, 6, 7)
        system = _line_system(shifts, 0.7)
        calls = []

        def recording(x, problems):
            calls.append(problems.copy())
            return system.evaluate(x, problems)

        recorded = replace(system, evaluate=recording)
        whole = direct_monte_carlo(recorded, ns, seeds)
        assert len(calls) == 1
        calls.clear()
        monkeypatch.setattr(engine, "_BATCH_ROWS", 100)
        sliced = direct_monte_carlo(recorded, ns, seeds)
        assert sliced == whole
        assert min(r.conflict_count for r in whole) > 0
        assert [np.unique(p).tolist() for p in calls] == [[0, 1], [2], [3], [4]]
        assert np.array_equal(np.concatenate(calls), np.repeat(np.arange(5), ns))
        calls.clear()
        monkeypatch.setattr(engine, "_BATCH_ROWS", 1)
        assert direct_monte_carlo(recorded, ns, seeds) == whole
        assert [np.unique(p).tolist() for p in calls] == [[k] for k in range(5)]
        assert assemble_calls == []

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_response_rejected(self, value):
        # a non-finite response is an error, not a miss: SS level 0 raises on
        # the same draws
        def evaluate(x, problems):
            return np.where(x[:, 0] > 1.0, value, np.abs(x[:, 0]))

        system = _gaussian_system(evaluate, 0.5)
        with pytest.raises(ValueError, match="non-finite"):
            direct_monte_carlo(system, [100], [3])
        with pytest.raises(ValueError, match="non-finite"):
            list(run_subset_simulations(system, CFG, [3]))

    @pytest.mark.parametrize("estimator", ["dmc", "ss"])
    @pytest.mark.parametrize(
        "respond",
        [lambda x: np.abs(x[1:, 0]), lambda x: np.abs(x), lambda x: 0.5],
        ids=["short", "column", "scalar"],
    )
    def test_misshapen_responses_rejected(self, estimator, respond):
        # evaluate owes one response per row, as an (n,) array; both
        # estimators check level 0's in one place, with one message
        system = _gaussian_system(lambda x, problems: respond(x), 1e-6)
        with pytest.raises(ValueError, match="level 0 produced .* expected 100"):
            if estimator == "dmc":
                direct_monte_carlo(system, [100], [3])
            else:
                list(run_subset_simulations(system, CFG, [3]))

    # True would count as one draw, and a float would fail in the stream code
    @pytest.mark.parametrize(
        "ns,seeds,match",
        [([0], [1], "positive"), ([], [], "positive"), ([True], [1], "integers"), ([100.0], [1], "integers")],
    )
    def test_invalid_calls_rejected(self, ns, seeds, match):
        with pytest.raises(ValueError, match=match):
            direct_monte_carlo(_line_system(), ns, seeds)


class TestBatches:
    """`run_subset_simulations` runs consecutive problems together, at most
    `_BATCH_ROWS` rows a level, and no result depends on where the batches
    end."""

    SHIFTS = (4.0, 0.0, 50.0, 4.0, 3.0, 5.0, 0.5, 4.0, 50.0)

    @staticmethod
    def _recorded_batches(monkeypatch):
        """The problems of each batch that the engine runs from now on."""
        batches = []
        run = engine._run_batch

        def recording(*args):
            batches.append(list(args[-1]))
            return run(*args)

        monkeypatch.setattr(engine, "_run_batch", recording)
        return batches

    def test_batches_are_transparent(self, monkeypatch):
        seeds = [child(_rng.derive(50), k) for k in range(len(self.SHIFTS))]
        system = _line_system(self.SHIFTS)
        whole = list(run_subset_simulations(system, CFG, seeds))
        batches = self._recorded_batches(monkeypatch)
        monkeypatch.setattr(engine, "_BATCH_ROWS", 400)
        for a, b in zip(run_subset_simulations(system, CFG, seeds), whole, strict=True):
            _assert_same_result(a, b)
        assert batches == [[0, 1, 2, 3], [4, 5, 6, 7], [8]]

    def test_large_n_batches_hold_5_problems(self, monkeypatch):
        # batches shrink with N so that a batch holds at most 16,384 rows a level
        batches = self._recorded_batches(monkeypatch)
        config = SubsetConfig(n_samples=3000, level_probability=0.1, max_levels=1)
        results = run_subset_simulations(_line_system((0.0,) * 12), config, range(12))
        assert len(list(results)) == 12
        assert [len(b) for b in batches] == [5, 5, 2]
        assert [hi - lo for lo, hi in engine._batches([1000] * 20)] == [16, 4]
        assert list(engine._batches([100] * 400)) == [(0, 163), (163, 326), (326, 400)]

    def test_batches_mix_budgets(self, monkeypatch):
        # batches close before passing _BATCH_ROWS rows a level, and may mix
        # budgets
        budgets = (100, 200, 300, 100, 500, 100, 200, 700, 100)
        configs = [SubsetConfig(n, 0.1, max_levels=4) for n in budgets]
        seeds = range(30, 30 + len(budgets))
        alone = [
            result
            for shift, config, seed in zip(self.SHIFTS, configs, seeds)
            for result in run_subset_simulations(_line_system(shift), config, [seed])
        ]
        assert len({res.diagnostics.levels_used for res in alone}) > 2
        batches = self._recorded_batches(monkeypatch)
        monkeypatch.setattr(engine, "_BATCH_ROWS", 600)
        stream = run_subset_simulations(_line_system(self.SHIFTS), configs, seeds)
        for a, b in zip(stream, alone, strict=True):
            _assert_same_result(a, b)
        assert [[budgets[k] for k in b] for b in batches] == [
            [100, 200, 300], [100, 500], [100, 200], [700], [100]
        ]

    def test_results_stream_batch_by_batch(self, monkeypatch):
        # the call checks its inputs and runs nothing; each batch's results
        # are yielded before the next batch's first evaluate call
        events = []
        system = _line_system(self.SHIFTS[:4])

        def evaluate(x, problems):
            events.append(("evaluate", sorted(set(problems.tolist()))))
            return system.evaluate(x, problems)

        monkeypatch.setattr(engine, "_BATCH_ROWS", 200)
        recorded = replace(system, evaluate=evaluate)
        stream = run_subset_simulations(recorded, CFG, range(4))
        assert events == []
        for k, _ in enumerate(stream):
            events.append(("result", k))
        first = events.index(("evaluate", [2, 3]))
        assert events[first - 2 : first] == [("result", 0), ("result", 1)]
        assert all(e[0] == "evaluate" and set(e[1]) <= {0, 1} for e in events[: first - 2])
        assert events[-2:] == [("result", 2), ("result", 3)]

    def test_scenario_batches_change_no_record(self, monkeypatch):
        spec = build_head_on(152.4, 2000.0, duration=1.0, sample_rate=10.0)
        batched = simulate_scenario(spec, CFG, seed=19)
        monkeypatch.setattr(engine, "_BATCH_ROWS", 1)
        single = simulate_scenario(spec, CFG, seed=19)
        assert len(batched) == len(single) == 10
        for a, b in zip(batched, single):
            assert (a.step, a.time, a.pc_ss, a.pc_dmc, a.miss_true) == (
                b.step, b.time, b.pc_ss, b.pc_dmc, b.miss_true
            )
            assert (a.observer_truth, a.intruder_truth, a.estimate.mean) == (
                b.observer_truth, b.intruder_truth, b.estimate.mean
            )
            assert np.array_equal(a.estimate.covariance, b.estimate.covariance)
