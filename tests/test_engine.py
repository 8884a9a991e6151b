"""Engine unit tests: interval ladders, thresholds, seeds, CCDF assembly, read-off."""

import math

import numpy as np
import pytest

from subsim import engine
from subsim import rng as _rng
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
    intermediate_threshold,
    probability_intervals,
    run_subset_simulation,
    run_subset_simulations,
    select_seeds,
)

CFG = SubsetConfig(n_samples=100, level_probability=0.1, max_levels=7)
CFG_STD = SubsetConfig(
    n_samples=100, level_probability=0.1, max_levels=7, interval_variant=IntervalVariant.STANDARD
)


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


class TestIntermediateThreshold:
    def test_descending_sequence(self):
        # 100..1 descending: the 90th largest (1-based N - N_c) is 11
        responses = np.arange(100, 0, -1, dtype=float)
        assert intermediate_threshold(responses, CFG) == 11.0

    def test_constant_responses(self):
        responses = np.full(100, 3.5)
        assert intermediate_threshold(responses, CFG) == 3.5

    def test_rejects_unsorted(self):
        responses = np.arange(100, dtype=float)
        with pytest.raises(ValueError):
            intermediate_threshold(responses, CFG)

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            intermediate_threshold(np.arange(50, 0, -1, dtype=float), CFG)

    def test_matches_brute_force_on_random_instances(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            resp = rng.normal(size=100)
            ordered = np.sort(resp)[::-1]
            # independent oracle: 1-based element N - N_c of the descending sort
            assert intermediate_threshold(ordered, CFG) == ordered[100 - 10 - 1]


class TestSelectSeeds:
    def test_positions_91_to_100(self):
        samples = np.arange(100).reshape(100, 1)
        seeds = select_seeds(samples, CFG)
        assert seeds.shape == (10, 1)
        assert list(seeds[:, 0]) == list(range(90, 100))

    def test_single_seed(self):
        cfg = SubsetConfig(n_samples=10, level_probability=0.1)
        samples = np.arange(10).reshape(10, 1)
        assert select_seeds(samples, cfg)[:, 0].tolist() == [9]

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            select_seeds(np.zeros((50, 2)), CFG)

    def test_matches_nearest_brute_force(self):
        # seeds must be exactly the N_c samples with the smallest responses
        rng = np.random.default_rng(99)
        for _ in range(100):
            xy = rng.normal(size=(100, 2))
            resp = np.hypot(xy[:, 0] - 3.0, xy[:, 1] + 3.0)
            order = np.argsort(-resp, kind="stable")
            seeds = select_seeds(xy[order], CFG)
            nearest = xy[np.argsort(resp, kind="stable")][:10]
            assert np.array_equal(np.sort(seeds, axis=0), np.sort(nearest, axis=0))


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


def _gaussian_system(evaluate, k=1):
    """K one-dimensional standard-normal problems with the given response."""
    return RareEventSystem(np.zeros((k, 1)), np.ones((k, 1, 1)), evaluate)


def _line_system(shift=0.0):
    """1D test system: response = |x - shift|, prior standard normal.
    `shift` is one value, or one per problem."""
    shifts = np.atleast_1d(np.asarray(shift, dtype=float))

    def evaluate(x, problems):
        return np.abs(x[:, 0] - shifts[problems])

    return _gaussian_system(evaluate, k=len(shifts))


def _assert_level_streams(system, result, seed, cfg):
    """A one-problem run's table equals its replay level by level: level 0 is
    N prior draws from child(root, 0), and level l's chains start from level
    l - 1's N_c best samples and consume one (N_c, length, d) block of
    child(root, l)."""
    n, n_c, n_s = cfg.n_samples, cfg.n_chains, cfg.chain_length
    levels = result.diagnostics.levels_completed
    assert levels > 1
    root = _rng.derive(seed)
    d = system.mean.shape[1]
    z = _rng.generator(_rng.child(root, 0)).standard_normal((n, d))
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
        innovations = _rng.generator(_rng.child(root, level)).standard_normal((n_c, n_s, d))
        x, r = conditional_chains(
            system, np.linalg.inv(system.chol), x[-n_c:], r[-n_c:], np.full(n_c, b), innovations,
            np.zeros(n_c, dtype=int),
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
        system = _line_system()
        result = run_subset_simulation(system, CFG, 0.6745, seed=5)
        assert result.diagnostics.levels_completed == 1
        assert abs(result.estimate - 0.5) < 0.1

    def test_threshold_above_everything_gives_one(self):
        system = _line_system()
        result = run_subset_simulation(system, CFG, 1e9, seed=5)
        assert result.estimate == 1.0
        assert result.diagnostics.levels_completed == 1
        assert result.diagnostics.samples_used == 100

    def test_rare_event_descends_levels(self):
        system = _line_system(shift=4.0)
        result = run_subset_simulation(system, CFG, 0.5, seed=5)
        d = result.diagnostics
        assert d.levels_completed > 1
        assert d.samples_used == 100 * d.levels_completed
        assert len(result.table.rows) == 90 * (d.levels_completed - 1) + 100

    def test_stop_exactly_at_chain_count(self):
        # a level 0 with exactly N_c responses at/below the failure threshold
        # stops there (boundary D == N_c); one fewer descends
        system = _line_system(shift=2.0)
        cfg = SubsetConfig(n_samples=100, level_probability=0.1, max_levels=5)
        level0 = run_subset_simulation(system, SubsetConfig(100, 0.1, 1), 0.0, seed=1)
        tenth = level0.table.responses[-10]
        result = run_subset_simulation(system, cfg, tenth, seed=1)
        assert result.diagnostics.conflict_count == 10
        assert result.diagnostics.levels_completed == 1
        result = run_subset_simulation(system, cfg, np.nextafter(tenth, 0.0), seed=1)
        assert result.diagnostics.levels_completed > 1

    def test_deterministic_tables(self):
        system = _line_system(shift=3.0)
        r1 = run_subset_simulation(system, CFG, 0.5, seed=77)
        r2 = run_subset_simulation(system, CFG, 0.5, seed=77)
        assert r1.estimate == r2.estimate
        assert np.array_equal(r1.table.responses, r2.table.responses)
        assert np.array_equal(r1.table.probabilities, r2.table.probabilities)
        for a, b in zip(r1.table.rows, r2.table.rows):
            assert np.array_equal(a.sample, b.sample)

    def test_different_seeds_differ(self):
        system = _line_system(shift=3.0)
        r1 = run_subset_simulation(system, CFG, 0.5, seed=77)
        r2 = run_subset_simulation(system, CFG, 0.5, seed=78)
        assert not np.array_equal(r1.table.responses, r2.table.responses)

    def test_chain_threshold_violation_raises(self, monkeypatch):
        def bad_chains(system, chol_inv, seeds, seed_resps, thresholds, innovations, problems):
            # one sample of the whole batch lies beyond its chain's threshold
            m, length, d = innovations.shape
            out = np.repeat(seeds[:, None], length, axis=1)
            resp = np.repeat(np.asarray(seed_resps)[:, None], length, axis=1)
            resp[m // 2, 0] = thresholds[m // 2] + 1.0
            return out, resp

        monkeypatch.setattr(engine, "conditional_chains", bad_chains)
        with pytest.raises(ValueError, match="violated"):
            run_subset_simulation(_line_system(), CFG, 1e-6, seed=3)

    def test_response_count_violation_raises(self):
        def short(x, problems):
            return np.abs(x[1:, 0])

        with pytest.raises(ValueError, match="expected"):
            run_subset_simulation(_gaussian_system(short), CFG, 1e-6, seed=3)

    def test_problem_count_must_match_seeds(self):
        with pytest.raises(ValueError, match="2 problems but 3 seeds"):
            run_subset_simulations(_line_system((1.0, 2.0)), CFG, 0.5, (1, 2, 3))
        bad = RareEventSystem(np.zeros((1, 2)), np.ones((1, 2, 3)), _abs_first_column)
        with pytest.raises(ValueError, match="do not match"):
            run_subset_simulation(bad, CFG, 0.5, seed=1)

    def test_chains_get_seeds_and_level_stream(self):
        cfg = SubsetConfig(n_samples=100, level_probability=0.1, max_levels=3)
        system = _line_system(shift=5.0)
        result = run_subset_simulation(system, cfg, 0.0, seed=9)
        _assert_level_streams(system, result, 9, cfg)

    def test_level0_estimate_equals_direct_count(self):
        system = _line_system()
        result = run_subset_simulation(system, CFG, 0.6745, seed=12)
        d = result.diagnostics
        assert d.levels_completed == 1
        assert result.estimate == d.conflict_count / 100

    def test_stalled_threshold_logs_warning(self, caplog):
        cfg = SubsetConfig(n_samples=100, level_probability=0.1, max_levels=4)
        with caplog.at_level("WARNING", logger="subsim.engine"):
            run_subset_simulation(_gaussian_system(_flat), cfg, 0.0, seed=1)
        assert any("did not decrease" in m for m in caplog.messages)

    def test_stalls_reported_once_with_their_count(self, caplog):
        # a flat response makes every level's population the constant 1, so
        # thresholds 2..5 all equal the first: four stalls, one warning line
        cfg = SubsetConfig(n_samples=100, level_probability=0.1, max_levels=6)
        with caplog.at_level("WARNING", logger="subsim.engine"):
            result = run_subset_simulation(_gaussian_system(_flat), cfg, 0.0, seed=1)
        assert result.diagnostics.stalled_levels == 4
        lines = [m for m in caplog.messages if "did not decrease" in m]
        assert len(lines) == 1
        assert "at 4 of 5 levels" in lines[0]

    def test_no_stall_no_warning(self, caplog):
        system = _line_system(shift=4.0)
        cfg = SubsetConfig(n_samples=100, level_probability=0.1, max_levels=4)
        with caplog.at_level("WARNING", logger="subsim.engine"):
            result = run_subset_simulation(system, cfg, 0.0, seed=5)
        assert result.diagnostics.levels_completed == 4
        assert np.all(np.diff(result.diagnostics.thresholds) < 0)
        assert result.diagnostics.stalled_levels == 0
        assert not caplog.messages


def _chol(d, seed):
    a = np.random.default_rng(seed).normal(size=(d, d))
    return np.linalg.cholesky(a @ a.T + d * np.eye(d))


class TestConditionalChains:
    """The engine's one chain kernel, on hand-made Gaussian problems."""

    MEAN = np.array([[1.0, -2.0, 0.5]])
    CHOL = _chol(3, 1)[None]

    def _system(self, evaluate=_abs_first_column):
        return RareEventSystem(self.MEAN, self.CHOL, evaluate)

    def _run(self, system, seeds, thresholds, innovations):
        seeds = np.atleast_2d(seeds)
        m = len(seeds)
        return conditional_chains(
            system, np.linalg.inv(system.chol), seeds, system.evaluate(seeds, np.zeros(m, int)),
            np.broadcast_to(thresholds, (m,)), innovations, np.zeros(m, dtype=int),
        )

    def test_stationary_law_is_the_prior(self):
        # with an infinite threshold every candidate is accepted and the
        # chain samples N(mean, chol chol^T)
        system = self._system()
        innovations = _rng.generator(_rng.derive(3)).standard_normal((20, 2_000, 3))
        x, _ = self._run(system, np.repeat(self.MEAN, 20, axis=0), np.inf, innovations)
        x = x[:, 50:].reshape(-1, 3)  # past burn-in
        cov = self.CHOL[0] @ self.CHOL[0].T
        # 39,000 states at rho = 0.8 weigh as about 4,300 independent draws:
        # 0.1 standard deviations is more than 4 of their standard errors
        assert np.allclose(x.mean(axis=0), self.MEAN[0], atol=0.1 * np.sqrt(np.diag(cov)))
        scale = np.sqrt(np.outer(np.diag(cov), np.diag(cov)))
        assert np.all(np.abs(np.cov(x.T) - cov) < 0.1 * scale)

    def test_replay_equals_scalar_chain(self):
        # chain j, one scalar step at a time on its innovations[j]
        system = self._system()
        gen = _rng.generator(_rng.derive(4))
        seeds = self.MEAN + gen.standard_normal((5, 3)) @ self.CHOL[0].T
        innovations = gen.standard_normal((5, 30, 3))
        threshold = float(np.abs(seeds[:, 0]).max())
        x, r = self._run(system, seeds, threshold, innovations)
        chol, mean = self.CHOL[0], self.MEAN[0]
        moved = 0
        for j in range(5):
            z = np.linalg.inv(chol) @ (seeds[j] - mean)
            cur = seeds[j]
            for k in range(30):
                cand_z = CHAIN_CORRELATION * z + math.sqrt(1.0 - CHAIN_CORRELATION**2) * innovations[j, k]
                cand = mean + chol @ cand_z
                if abs(cand[0]) <= threshold:
                    z, cur = cand_z, cand
                    moved += 1
                assert np.array_equal(x[j, k], cur) and r[j, k] == abs(cur[0])
        assert 0 < moved < 5 * 30  # both branches of the accept step run

    def test_candidate_on_threshold_accepted(self):
        # a candidate exactly on the threshold is accepted; one ulp beyond, rejected
        system = self._system()
        xi = np.array([[[0.3, -1.2, 0.7]]])
        cand = self.MEAN[0] + self.CHOL[0] @ (math.sqrt(1.0 - CHAIN_CORRELATION**2) * xi[0, 0])
        b = abs(cand[0])
        assert b > abs(self.MEAN[0, 0])  # the seed lies within both thresholds
        x, r = self._run(system, self.MEAN, b, xi)
        assert np.array_equal(x[0, 0], cand) and r[0, 0] == b
        x, _ = self._run(system, self.MEAN, np.nextafter(b, 0.0), xi)
        assert np.array_equal(x[0, 0], self.MEAN[0])

    def test_seed_beyond_threshold_rejected(self):
        with pytest.raises(ValueError, match="violates"):
            self._run(self._system(), self.MEAN, 0.5, np.zeros((1, 3, 3)))

    def test_lockstep_equals_alone(self):
        # chains of two problems in one call equal each chain run alone
        mean = np.array([[0.0, 0.0], [3.0, -1.0]])
        chol = np.array([_chol(2, 5), _chol(2, 6)])
        system = RareEventSystem(mean, chol, lambda x, p: np.hypot(x[:, 0] - 2.0 * p, x[:, 1]))
        gen = _rng.generator(_rng.derive(7))
        problems = np.array([0, 0, 1, 1, 1])
        seeds = mean[problems] + gen.standard_normal((5, 2))
        resp = system.evaluate(seeds, problems)
        thresholds = resp + 0.5
        innovations = gen.standard_normal((5, 25, 2))
        inv = np.linalg.inv(chol)
        x, r = conditional_chains(system, inv, seeds, resp, thresholds, innovations, problems)
        for j in range(5):
            one_x, one_r = conditional_chains(
                system, inv, seeds[j : j + 1], resp[j : j + 1], thresholds[j : j + 1],
                innovations[j : j + 1], problems[j : j + 1],
            )
            assert np.array_equal(x[j], one_x[0]) and np.array_equal(r[j], one_r[0])
        assert np.all(r <= thresholds[:, None])


def _assert_same_result(a, b):
    assert a.estimate == b.estimate
    assert a.diagnostics == b.diagnostics
    assert a.table.levels_completed == b.table.levels_completed
    assert np.array_equal(a.table.probabilities, b.table.probabilities)
    assert np.array_equal(a.table.responses, b.table.responses)
    assert np.array_equal(a.table.samples, b.table.samples)


class TestLockstepProblems:
    """K problems run together give each problem exactly its one-problem result."""

    def test_batch_equals_one_problem_runs(self):
        # stops at level 0 (shift 0), mid-descent (shift 4) and at max_levels
        # with no rare sample (shift 50), interleaved in the batch
        shifts = (4.0, 0.0, 50.0, 4.0)
        seeds = (5, 6, 7, 8)
        batch = run_subset_simulations(_line_system(shifts), CFG, 0.5, seeds)
        assert len(batch) == len(shifts)
        levels = [r.diagnostics.levels_completed for r in batch]
        assert levels[1] == 1
        assert 1 < levels[0] < CFG.max_levels and 1 < levels[3] < CFG.max_levels
        assert levels[2] == CFG.max_levels and batch[2].diagnostics.floor_reached
        for shift, seed, result in zip(shifts, seeds, batch):
            alone = run_subset_simulation(_line_system(shift), CFG, 0.5, seed)
            _assert_same_result(result, alone)

    def test_fixed_level_batch_equals_one_problem_runs(self):
        # problems that never reach the rare count run every level to the cap
        cfg = SubsetConfig(n_samples=100, level_probability=0.1, max_levels=4)
        batch = run_subset_simulations(_line_system((0.0, 3.0)), cfg, 0.0, (9, 10))
        for shift, seed, result in zip((0.0, 3.0), (9, 10), batch):
            assert result.diagnostics.levels_completed == 4
            _assert_same_result(result, run_subset_simulation(_line_system(shift), cfg, 0.0, seed))

    def test_each_problem_draws_its_own_streams(self):
        # level l of problem k comes from child(derive(seeds[k]), l), whatever
        # else runs beside it
        cfg = SubsetConfig(n_samples=100, level_probability=0.1, max_levels=3)
        batch = run_subset_simulations(_line_system((5.0, 6.0)), cfg, 0.0, (3, 4))
        for shift, seed, result in zip((5.0, 6.0), (3, 4), batch):
            _assert_level_streams(_line_system(shift), result, seed, cfg)

    def test_no_seeds_rejected(self):
        with pytest.raises(ValueError, match="seed"):
            run_subset_simulations(_line_system(), CFG, 0.5, [])

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

    def test_mixed_configs_equal_one_problem_runs(self):
        # problems stop at level 0 (shift 0), mid-descent (shift 3 and 4) and
        # at max_levels with no rare sample (shift 50), at both level caps
        shifts = (4.0, 0.0, 50.0, 4.0, 4.0, 50.0, 3.0)
        seeds = range(20, 27)
        batch = run_subset_simulations(_line_system(shifts), self.MIXED, 0.5, seeds)
        levels = [r.diagnostics.levels_completed for r in batch]
        assert levels[1] == 1
        assert levels[2] == 4 and batch[2].diagnostics.floor_reached
        assert levels[5] == CFG.max_levels and batch[5].diagnostics.floor_reached
        assert all(1 < levels[k] < CFG.max_levels for k in (0, 3, 4, 6))
        for shift, cfg, seed, result in zip(shifts, self.MIXED, seeds, batch):
            alone = run_subset_simulation(_line_system(shift), cfg, 0.5, seed)
            _assert_same_result(result, alone)

    def test_mixed_configs_step_together(self, monkeypatch):
        # every level draws all cohorts' innovations in one call and steps
        # all their chains in one call
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
        batch = run_subset_simulations(_line_system(shifts), self.MIXED, 0.0, range(7))
        assert [r.diagnostics.levels_completed for r in batch] == [7, 7, 4, 7, 7, 7, 7]
        seeds_per_level = [cfg.n_chains for cfg in self.MIXED]
        assert draws[0] == sum(cfg.n_samples for cfg in self.MIXED)  # level 0
        without_short = sum(seeds_per_level) - self.MIXED[2].n_chains
        assert chains == draws[1:] == [sum(seeds_per_level)] * 3 + [without_short] * 3

    def test_configs_must_share_level_probability(self):
        configs = [CFG, SubsetConfig(n_samples=100, level_probability=0.2)]
        with pytest.raises(ValueError, match="share level_probability"):
            run_subset_simulations(_line_system((1.0, 2.0)), configs, 0.5, (1, 2))

    @pytest.mark.parametrize("count", [1, 3])
    def test_config_count_must_match_seeds(self, count):
        with pytest.raises(ValueError, match=f"{count} configs but 2 seeds"):
            run_subset_simulations(_line_system((1.0, 2.0)), [CFG] * count, 0.5, (1, 2))

    def test_tables_are_built_on_first_read(self, assemble_calls, eager_tables):
        # the problems stop at different levels; a table read after the whole
        # run equals the one assembled when its problem stopped
        seeds = (3, 4, 5)
        system = _line_system((0.0, 4.0, 6.0))
        lazy = run_subset_simulations(system, CFG, 0.1, seeds)
        assert len({r.diagnostics.levels_completed for r in lazy}) == 3
        assert assemble_calls == []
        tables = [r.table for r in lazy]
        assert len(assemble_calls) == 3
        # a second read returns the same table without assembling again
        assert all(r.table is t for r, t in zip(lazy, tables))
        assert len(assemble_calls) == 3
        eager_tables()
        eager = run_subset_simulations(system, CFG, 0.1, seeds)
        assert len(assemble_calls) == 6
        for a, b in zip(lazy, eager):
            assert a.estimate == b.estimate and a.diagnostics == b.diagnostics
            assert a.table.levels_completed == b.table.levels_completed
            assert np.array_equal(a.table.probabilities, b.table.probabilities)
            assert np.array_equal(a.table.responses, b.table.responses)
            assert np.array_equal(a.table.samples, b.table.samples)


class TestDirectMonteCarlo:
    """Plain Monte Carlo runs on the draws of SS level 0."""

    def test_counts_are_the_level0_conflicts(self):
        # one-level SS at the same seeds counts the same draws at or below the threshold
        shifts, seeds = (0.0, 1.0, 2.0), (5, 6, 7)
        system = _line_system(shifts)
        counts = direct_monte_carlo(system, [100] * 3, 0.5, seeds)
        one_level = run_subset_simulations(system, SubsetConfig(100, 0.1, 1), 0.5, seeds)
        assert counts.tolist() == [r.diagnostics.conflict_count for r in one_level]
        assert 0 < counts.min() and counts.max() < 100

    def test_problems_of_one_call_equal_their_own_calls(self):
        shifts, ns, seeds = (0.0, 1.0, 0.0), [50, 1, 300], (3, 4, 5)
        counts = direct_monte_carlo(_line_system(shifts), ns, 0.7, seeds)
        for shift, n, seed, count in zip(shifts, ns, seeds, counts.tolist()):
            alone = direct_monte_carlo(_line_system(shift), [n], 0.7, [seed])
            assert alone.tolist() == [count]

    def test_slices_hold_whole_problems(self, monkeypatch, assemble_calls):
        # with a 100-row cap, consecutive problems share a call while they
        # fit, a larger problem is a call of its own, and none is split
        shifts, ns, seeds = (0.0, 1.0, 0.0, 0.5, 2.0), [40, 50, 300, 60, 41], (3, 4, 5, 6, 7)
        system = _line_system(shifts)
        calls = []

        def recording(x, problems):
            calls.append(problems.copy())
            return system.evaluate(x, problems)

        recorded = RareEventSystem(system.mean, system.chol, recording)
        whole = direct_monte_carlo(recorded, ns, 0.7, seeds)
        assert len(calls) == 1
        calls.clear()
        monkeypatch.setattr(engine, "_DMC_SLICE_ROWS", 100)
        sliced = direct_monte_carlo(recorded, ns, 0.7, seeds)
        assert sliced.tolist() == whole.tolist()
        assert whole.min() > 0
        assert [np.unique(p).tolist() for p in calls] == [[0, 1], [2], [3], [4]]
        assert np.array_equal(np.concatenate(calls), np.repeat(np.arange(5), ns))
        assert assemble_calls == []

    @pytest.mark.parametrize(
        "ns,seeds,match",
        [
            ([0], [1], "positive"),
            ([], [], "positive"),
            ([10, 10], [1], "seeds"),
            ([10, 10], [1, 2], "problems"),
        ],
    )
    def test_invalid_calls_rejected(self, ns, seeds, match):
        with pytest.raises(ValueError, match=match):
            direct_monte_carlo(_line_system(), ns, 0.5, seeds)
