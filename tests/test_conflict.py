"""Conflict estimation tests: DMC, conditional chains, subset driver, scenario loop."""

import logging
import math
import re
import tracemalloc

import numpy as np
import pytest

from subsim import conflict
from subsim import rng as _rng
from subsim._kernels import miss_distance_batch, miss_distance_scan
from subsim.conflict import (
    ConflictQuery,
    QueryBatch,
    _cholesky_with_jitter,
    conflict_system,
    pc_dmc,
    pc_ss,
    pc_ss_batch,
    simulate_scenario,
)
from subsim.dynamics import AircraftState, propagate
from subsim.engine import (
    CHAIN_CORRELATION,
    SubsetConfig,
    conditional_chains,
    run_subset_simulation,
)
from subsim.scenarios import build_head_on
from subsim.tracking import KalmanEstimate

CFG = SubsetConfig(n_samples=100, level_probability=0.1, max_levels=7)


def _query(intruder_mean, cov_scale=1.0, horizon=20.0, rate=20.0, radius=152.4):
    cov = np.diag([4.0, 2.0, 0.3, 4.0, 2.0, 0.3]) * cov_scale
    return ConflictQuery(
        observer=AircraftState(0.0, 77.17, 0.0, 0.0, 0.0, 0.0),
        intruder_estimate=KalmanEstimate(
            mean=AircraftState(*intruder_mean), covariance=cov
        ),
        protected_radius=radius,
        horizon=horizon,
        sample_rate=rate,
    )


HEAD_ON_COLLISION = (2000.0, -77.17, 0.0, 0.0, 0.0, 0.0)
HEAD_ON_OFFSET = (2000.0, -77.17, 0.0, 1000.0, 0.0, 0.0)
RECEDING = (-2000.0, -77.17, 0.0, 5000.0, 0.0, 0.0)


def _track(q):
    """The observer's track of one query, as the engine scores against it."""
    return QueryBatch.from_queries([q]).obs_xy[0]


class TestPcDmc:
    def test_collision_course_is_certain(self):
        q = _query(HEAD_ON_COLLISION, cov_scale=1e-6)
        res = pc_dmc(q, 200, seed=1)
        assert res.pc == 1.0
        assert res.conflict_count == 200

    def test_rejects_zero_samples(self):
        with pytest.raises(ValueError):
            pc_dmc(_query(HEAD_ON_COLLISION), 0, seed=1)

    def test_indefinite_covariance_rejected(self):
        cov = np.diag([1.0, 1.0, 1.0, 1.0, 1.0, -1.0])
        q = ConflictQuery(
            observer=AircraftState(0, 77, 0, 0, 0, 0),
            intruder_estimate=KalmanEstimate(
                mean=AircraftState(*HEAD_ON_COLLISION), covariance=cov
            ),
        )
        with pytest.raises(np.linalg.LinAlgError):
            pc_dmc(q, 10, seed=1)

    def test_singular_covariance_gets_jitter(self):
        cov = np.zeros((6, 6))
        cov[0, 0] = 1.0  # rank deficient but PSD
        q = ConflictQuery(
            observer=AircraftState(0, 77, 0, 0, 0, 0),
            intruder_estimate=KalmanEstimate(
                mean=AircraftState(*HEAD_ON_COLLISION), covariance=cov
            ),
        )
        res = pc_dmc(q, 50, seed=1)
        assert 0.0 <= res.pc <= 1.0

    def test_matches_large_reference_within_three_sigma(self):
        # borderline geometry; frozen reference from a 10^6-sample run
        q = _query((2000.0, -77.17, 0.0, 152.4, 0.0, 0.0))
        ref = pc_dmc(q, 1_000_000, seed=999).pc
        n = 2000
        est = pc_dmc(q, n, seed=4).pc
        se = math.sqrt(ref * (1 - ref) / n)
        assert abs(est - ref) <= 3 * se

    def test_diagnostics_shape(self):
        q = _query(HEAD_ON_OFFSET)
        res = pc_dmc(q, 300, seed=2)
        assert res.samples_used == 300
        assert res.levels_used == 1
        assert not res.floor_reached


def _miss(q, states):
    return miss_distance_batch(
        np.atleast_2d(states), _track(q), 1.0 / q.sample_rate, q.observer.as_array()
    )[0]


def _whiten(q, states):
    chol = np.linalg.cholesky(q.intruder_estimate.covariance)
    return np.linalg.solve(chol, (states - q.intruder_estimate.mean.as_array()).T).T


def _batch_chains(batch, seed_states, seed_misses, thresholds, innovations, problems):
    """The engine's chains on the conflict system of `batch`."""
    system = conflict_system(batch)
    return conditional_chains(
        system, np.linalg.inv(system.chol), seed_states, seed_misses, thresholds, innovations,
        problems,
    )


def _run_chains(q, seed_states, threshold, innovations):
    m = len(seed_states)
    return _batch_chains(
        QueryBatch.from_queries([q]), seed_states, _miss(q, seed_states), np.full(m, threshold),
        innovations, np.zeros(m, dtype=int),
    )


def _system_chains(q, seeds, length, threshold, seed):
    """Per-chain (states, misses) of the engine's chains on one query, the
    innovations one (m, length, 6) block of one generator."""
    seeds = np.atleast_2d(seeds)
    innovations = _rng.generator(_rng.derive(seed)).standard_normal((len(seeds), length, 6))
    return list(zip(*_run_chains(q, seeds, threshold, innovations)))


def _run_chain(q, seed_state, threshold, innovations):
    states, misses = _run_chains(q, seed_state[None, :], threshold, innovations[None])
    return states[0], misses[0]


class TestAcceptanceRatio:
    """A candidate is accepted iff its miss distance lies within the level."""

    def test_identical_candidate_gives_unit_ratio(self):
        # at the posterior mean a zero innovation proposes the current state
        # itself; with the state on the threshold the chain stays put
        q = _query(HEAD_ON_OFFSET)
        mean = q.intruder_estimate.mean.as_array()
        threshold = float(_miss(q, mean)[0])
        states, misses = _run_chain(q, mean, threshold, np.zeros((5, 6)))
        assert np.array_equal(states, np.tile(mean, (5, 1)))
        assert np.all(misses == threshold)

    def test_closer_candidate_favored(self):
        # no closeness reward: a candidate farther from the observer than the
        # current state is accepted on the threshold, rejected one ulp beyond it
        q = _query(HEAD_ON_OFFSET)
        mean = q.intruder_estimate.mean.as_array()
        xi = np.array([[0.0, 0.0, 0.0, 0.0, 0.0, 1.0]])
        chol = np.linalg.cholesky(q.intruder_estimate.covariance)
        cand = mean + chol @ (math.sqrt(1.0 - CHAIN_CORRELATION**2) * xi[0])
        cand_miss = float(_miss(q, cand)[0])
        assert cand_miss > float(_miss(q, mean)[0])
        states, misses = _run_chain(q, mean, cand_miss, xi)
        assert np.array_equal(states[0], cand) and misses[0] == cand_miss
        states, misses = _run_chain(q, mean, np.nextafter(cand_miss, 0.0), xi)
        assert np.array_equal(states[0], mean) and misses[0] < cand_miss

    def test_prior_ratio_penalizes_unlikely_states(self):
        # from a state far out in the posterior, candidates centre on rho * z
        q = _query(HEAD_ON_OFFSET)
        far = np.full(6, 3.0)
        chol = np.linalg.cholesky(q.intruder_estimate.covariance)
        seed_state = q.intruder_estimate.mean.as_array() + chol @ far
        xi = _rng.generator(_rng.derive(4)).standard_normal((400, 6))
        cands = np.array([_run_chain(q, seed_state, 1500.0, xi[k : k + 1])[0][0] for k in range(400)])
        z = _whiten(q, cands)
        spread = math.sqrt(1.0 - CHAIN_CORRELATION**2)
        assert np.all(np.abs(z.mean(axis=0) - CHAIN_CORRELATION * far) < 4 * spread / math.sqrt(400))
        assert np.mean(np.sum(z * z, axis=1) < far @ far) > 0.95


def _reference_chain(q, seed_state, threshold, innovations):
    """One chain, one state at a time, with per-state matvecs and the grid scan."""
    obs_xy = _track(q)
    mean = q.intruder_estimate.mean.as_array()
    chol = np.linalg.cholesky(q.intruder_estimate.covariance)
    cur = seed_state
    cur_miss = float(miss_distance_scan(cur[None, :], obs_xy, 1.0 / q.sample_rate)[0][0])
    z = np.linalg.inv(chol) @ (cur - mean)
    steps = math.sqrt(1.0 - CHAIN_CORRELATION**2) * innovations
    out_x, out_r = [], []
    for step in steps:
        cand_z = CHAIN_CORRELATION * z + step
        cand = mean + chol @ cand_z
        cand_miss = float(miss_distance_scan(cand[None, :], obs_xy, 1.0 / q.sample_rate)[0][0])
        if cand_miss <= threshold:
            z, cur, cur_miss = cand_z, cand, cand_miss
        out_x.append(cur)
        out_r.append(cur_miss)
    return np.array(out_x), np.array(out_r)


class TestLockstepChains:
    """Chains advanced together give each chain exactly what it gives alone."""

    def _seeds(self, q, m, seed):
        chol = np.linalg.cholesky(q.intruder_estimate.covariance)
        gen = _rng.generator(_rng.derive(seed))
        seeds = q.intruder_estimate.mean.as_array() + gen.standard_normal((m, 6)) @ chol.T
        return seeds, gen.standard_normal((m, 40, 6))

    def test_m_seeds_equal_m_one_seed_calls(self):
        q = _query(HEAD_ON_OFFSET)
        seeds, innovations = self._seeds(q, 7, 21)
        threshold = float(_miss(q, seeds).max())
        states, misses = _run_chains(q, seeds, threshold, innovations)
        assert states.shape == (7, 40, 6) and misses.shape == (7, 40)
        moved = np.any(np.diff(np.concatenate([seeds[:, None], states], axis=1), axis=1) != 0.0, axis=2)
        assert 0 < moved.sum() < 7 * 40  # both branches of the accept step run
        for j in range(7):
            one_states, one_misses = _run_chain(q, seeds[j], threshold, innovations[j])
            assert np.array_equal(states[j], one_states)
            assert np.array_equal(misses[j], one_misses)

    def test_matches_per_state_reference(self):
        q = _query(HEAD_ON_OFFSET)
        seeds, innovations = self._seeds(q, 5, 22)
        threshold = float(_miss(q, seeds).max())
        states, misses = _run_chains(q, seeds, threshold, innovations)
        for j in range(5):
            ref_states, ref_misses = _reference_chain(q, seeds[j], threshold, innovations[j])
            assert np.array_equal(states[j], ref_states)
            assert np.array_equal(misses[j], ref_misses)

    def test_engine_system_groups_chain_by_chain(self):
        # in an engine run, level 1's chain j takes block[j] of one
        # (N_c, length, 6) draw from the level's stream child(root, 1)
        q = _query(HEAD_ON_OFFSET)
        cfg = SubsetConfig(n_samples=40, level_probability=0.25, max_levels=2)
        result = run_subset_simulation(conflict_system(QueryBatch.from_queries([q])), cfg, 0.0, 24)
        root = _rng.derive(24)
        z = _rng.generator(_rng.child(root, 0)).standard_normal((40, 6))
        chol = np.linalg.cholesky(q.intruder_estimate.covariance)
        level0 = q.intruder_estimate.mean.as_array() + z @ chol.T
        order = np.argsort(-_miss(q, level0), kind="stable")
        seeds = level0[order][-10:]
        threshold = result.diagnostics.thresholds[0]
        block = _rng.generator(_rng.child(root, 1)).standard_normal((10, 4, 6))
        ref_states, ref_misses = _run_chains(q, seeds, threshold, block)
        ref_states, ref_misses = ref_states.reshape(-1, 6), ref_misses.reshape(-1)
        order = np.argsort(-ref_misses, kind="stable")
        assert np.array_equal(result.table.samples[30:], ref_states[order])
        assert np.array_equal(result.table.responses[30:], ref_misses[order])

    def test_queries_of_one_batch_equal_their_own_chains(self):
        # chains of three queries advanced in one call, each query's group
        # on its own block of innovations, equal each query's chains alone
        queries = [_query(HEAD_ON_OFFSET), _query(HEAD_ON_COLLISION, 2.0), _query(RECEDING, 0.5)]
        seeds, thresholds, blocks = [], [], []
        for i, q in enumerate(queries):
            s, _ = self._seeds(q, 3, 30 + i)
            seeds.append(s)
            thresholds.append(float(_miss(q, s).max()))
            blocks.append(_rng.generator(_rng.derive(40 + i)).standard_normal((3, 12, 6)))
        batch = QueryBatch.from_queries(queries)
        seed_misses = np.concatenate([_miss(q, s) for q, s in zip(queries, seeds)])
        states, misses = _batch_chains(
            batch,
            np.concatenate(seeds),
            seed_misses,
            np.repeat(thresholds, 3),
            np.concatenate(blocks),
            np.repeat([0, 1, 2], 3),
        )
        for i, q in enumerate(queries):
            one_states, one_misses = _run_chains(q, seeds[i], thresholds[i], blocks[i])
            assert np.array_equal(states[3 * i : 3 * (i + 1)], one_states)
            assert np.array_equal(misses[3 * i : 3 * (i + 1)], one_misses)


class TestMhConflictSamples:
    def test_seed_beyond_threshold_rejected(self):
        q = _query(HEAD_ON_OFFSET)
        seeds = np.array([q.intruder_estimate.mean.as_array()])
        with pytest.raises(ValueError, match="violates"):
            _system_chains(q, seeds, 10, threshold=10.0, seed=0)

    def test_chains_respect_threshold(self):
        q = _query(HEAD_ON_OFFSET)
        seeds = np.array([q.intruder_estimate.mean.as_array()] * 5)
        threshold = 1500.0
        chains = _system_chains(q, seeds, 50, threshold, seed=3)
        assert len(chains) == 5
        for states, misses in chains:
            assert states.shape == (50, 6)
            assert np.all(misses <= threshold)

    def test_candidates_move_all_six_components(self):
        # with nothing rejected, the whitened states follow z' = rho z + sqrt(1 - rho^2) xi
        # with xi the chain's block of the level's stream
        q = _query(HEAD_ON_OFFSET)
        seed_state = q.intruder_estimate.mean.as_array()
        (states, _), = _system_chains(q, seed_state, 40, np.inf, seed=5)
        xi = _rng.generator(_rng.derive(5)).standard_normal((1, 40, 6))[0]
        z = np.zeros(6)
        expected = []
        for k in range(40):
            z = CHAIN_CORRELATION * z + math.sqrt(1.0 - CHAIN_CORRELATION**2) * xi[k]
            expected.append(z)
        assert np.allclose(_whiten(q, states), expected, rtol=0.0, atol=1e-9)
        assert np.all(np.diff(np.vstack([seed_state, states]), axis=0) != 0.0)

    def test_chain_settles_below_its_seed_miss(self):
        # seeded in the tail, well above the bulk of the miss distribution and
        # below the threshold, the chain settles to the DMC draws under it
        q = _query(HEAD_ON_OFFSET)
        chol = np.linalg.cholesky(q.intruder_estimate.covariance)
        mean = q.intruder_estimate.mean.as_array()
        seed_state = mean + chol @ np.array([0.0, 0.0, 0.0, 0.0, 0.0, 5.0])
        threshold = 1500.0
        draws = mean + _rng.generator(_rng.derive(60)).standard_normal((20_000, 6)) @ chol.T
        ref = _miss(q, draws)
        ref = ref[ref <= threshold]
        seed_miss = float(_miss(q, seed_state)[0])
        assert ref.max() < seed_miss < threshold
        (states, misses), = _system_chains(q, seed_state, 1000, threshold, seed=6)
        moved = np.any(np.diff(states, axis=0) != 0.0, axis=1)
        assert moved.sum() > 50
        settled = misses[100::10]  # past burn-in, thinned to near independence
        assert abs(settled.mean() - ref.mean()) < 4 * ref.std() / math.sqrt(len(settled))
        assert 0.7 < settled.std() / ref.std() < 1.3

    def test_responses_reproduce_exactly(self):
        q = _query(HEAD_ON_OFFSET)
        seed_state = q.intruder_estimate.mean.as_array()
        (states, misses), = _system_chains(q, seed_state, 30, 1500.0, seed=7)
        obs_xy = _track(q)
        again, _ = miss_distance_scan(states, obs_xy, 1.0 / q.sample_rate)
        assert np.array_equal(again, misses)


class TestPcSs:
    def test_certain_conflict_terminates_level_zero(self):
        q = _query(HEAD_ON_COLLISION, cov_scale=1e-6)
        res, table = pc_ss(q, CFG, seed=8)
        assert res.pc == 1.0
        assert res.levels_used == 1
        assert res.samples_used == 100
        assert len(table.rows) == 100

    def test_level_zero_equals_dmc_with_same_seed(self):
        q = _query(HEAD_ON_COLLISION, cov_scale=0.5)
        ss_res, _ = pc_ss(q, CFG, seed=10)
        dmc_res = pc_dmc(q, 100, seed=10)
        assert ss_res.levels_used == 1
        assert dmc_res.pc > 0
        assert ss_res.pc == dmc_res.pc
        assert ss_res.conflict_count == dmc_res.conflict_count

    def test_receding_geometry_reaches_floor(self):
        # intruder behind the observer and flying away: no conflict reachable
        q = _query(RECEDING, cov_scale=0.2)
        res, _ = pc_ss(q, CFG, seed=11)
        assert res.floor_reached
        assert res.levels_used == 7
        assert res.pc == 1e-8
        assert res.conflict_count == 0

    def test_rare_but_reachable_uses_multiple_levels(self):
        q = _query(HEAD_ON_OFFSET)
        res, table = pc_ss(q, CFG, seed=12)
        assert res.levels_used > 1
        assert res.samples_used == 100 * res.levels_used
        assert len(table.rows) == 90 * (res.levels_used - 1) + 100

    def test_mean_matches_dmc_reference(self):
        # 320 m lateral offset; the reference is 986 conflicts in 2*10^6 pc_dmc
        # draws (ten streams _rng.child(_rng.derive(7), k) of 2*10^5 each)
        q = _query((2000.0, -77.17, 0.0, 320.0, 0.0, 0.0))
        n_ref = 2_000_000
        ref = 986 / n_ref
        config = SubsetConfig(n_samples=500, level_probability=0.1, max_levels=7)
        root = _rng.derive(320)
        est = np.array([pc_ss(q, config, seed=_rng.child(root, rep))[0].pc for rep in range(60)])
        se = math.sqrt(est.var(ddof=1) / len(est) + ref * (1 - ref) / n_ref)
        assert abs(est.mean() - ref) <= 3 * se

    def test_deterministic(self):
        q = _query(HEAD_ON_OFFSET)
        r1, t1 = pc_ss(q, CFG, seed=13)
        r2, t2 = pc_ss(q, CFG, seed=13)
        assert r1 == r2
        assert np.array_equal(t1.responses, t2.responses)

    def test_ccdf_rows_reproduce_their_miss_distances(self):
        q = _query(HEAD_ON_OFFSET)
        _, table = pc_ss(q, CFG, seed=14)
        obs_xy = _track(q)
        samples = np.array([row.sample for row in table.rows])
        responses = np.array([row.response for row in table.rows])
        again, _ = miss_distance_scan(samples, obs_xy, 1.0 / q.sample_rate)
        assert np.array_equal(again, responses)

    def test_shrinking_radius_never_increases_conflicts(self):
        q = _query(HEAD_ON_OFFSET, cov_scale=4.0)
        obs_xy = _track(q)
        gen = _rng.generator(_rng.derive(33))
        chol = np.linalg.cholesky(q.intruder_estimate.covariance)
        states = q.intruder_estimate.mean.as_array() + gen.standard_normal((2000, 6)) @ chol.T
        miss, _ = miss_distance_batch(states, obs_xy, 0.05, q.observer.as_array())
        full = np.count_nonzero(miss <= q.protected_radius)
        halved = np.count_nonzero(miss <= q.protected_radius / 2)
        assert halved <= full


def _same_pc(a, b):
    res_a, table_a = a
    res_b, table_b = b
    assert res_a == res_b
    assert np.array_equal(table_a.probabilities, table_b.probabilities)
    assert np.array_equal(table_a.responses, table_b.responses)
    assert np.array_equal(table_a.samples, table_b.samples)


class TestPcSsBatch:
    """Queries run in lockstep give each query exactly its `pc_ss` estimate."""

    QUERIES = (
        _query(HEAD_ON_COLLISION, cov_scale=1e-6),  # stops at level 0
        _query((2000.0, -77.17, 0.0, 320.0, 0.0, 0.0)),  # mid-descent
        _query(RECEDING, cov_scale=0.2),  # floor at max_levels
        _query((2000.0, -77.17, 0.0, 250.0, 0.0, 0.0)),
    )

    def test_batch_equals_one_query_runs(self, assemble_calls):
        seeds = [8, 1, 11, 2]
        batch = pc_ss_batch(self.QUERIES, CFG, seeds)
        assert assemble_calls == []  # the batch reads no table
        levels = [res.levels_used for res in batch]
        assert levels[0] == 1 and 1 < levels[1] < 7 and levels[2] == 7 and 1 < levels[3] < 7
        assert batch[2].floor_reached
        assert batch == [pc_ss(q, CFG, seed)[0] for q, seed in zip(self.QUERIES, seeds)]

    def test_groups_are_transparent(self, monkeypatch):
        seeds = [_rng.child(_rng.derive(50), k) for k in range(4)]
        whole = pc_ss_batch(self.QUERIES, CFG, seeds)
        monkeypatch.setattr(conflict, "GROUP_SIZE", 3)
        assert pc_ss_batch(self.QUERIES, CFG, seeds) == whole

    def test_tables_equal_eager_assembly(self, assemble_calls, eager_tables):
        # the queries stop at different levels; pc_ss assembles each table
        # once, as it returns it, and that table equals the one assembled
        # when its problem stopped
        seeds = [8, 1, 11, 2]
        lazy = [pc_ss(q, CFG, seed) for q, seed in zip(self.QUERIES, seeds)]
        assert len(assemble_calls) == 4
        eager_tables()
        eager = [pc_ss(q, CFG, seed) for q, seed in zip(self.QUERIES, seeds)]
        assert len(assemble_calls) == 8
        for a, b in zip(lazy, eager):
            _same_pc(a, b)

    def test_large_n_groups_hold_16_problems(self, monkeypatch):
        # groups shrink with N so that a group holds at most 48,000 samples a level
        sizes = []
        run = conflict.run_subset_simulations

        def recording(system, config, threshold, seeds):
            sizes.append(len(seeds))
            return run(system, config, threshold, seeds)

        monkeypatch.setattr(conflict, "run_subset_simulations", recording)
        config = SubsetConfig(n_samples=3000, level_probability=0.1, max_levels=1)
        pc_ss_batch([_query(HEAD_ON_COLLISION)] * 20, config, list(range(20)))
        assert sizes == [16, 4]
        assert conflict._group_size(SubsetConfig(1000, 0.1)) == 48
        assert conflict._group_size(CFG) == conflict.GROUP_SIZE == 64

    def test_mixed_configs_equal_one_query_runs(self, monkeypatch):
        # groups close at GROUP_SIZE queries or before passing _GROUP_SAMPLES
        # samples a level, whichever comes first, and may mix budgets
        budgets = (100, 200, 300, 100, 500, 100, 200, 700, 100)
        configs = [SubsetConfig(n, 0.1, max_levels=4) for n in budgets]
        queries = [self.QUERIES[k % len(self.QUERIES)] for k in range(len(budgets))]
        seeds = list(range(30, 30 + len(budgets)))
        alone = [pc_ss(q, c, seed)[0] for q, c, seed in zip(queries, configs, seeds)]
        assert len({res.levels_used for res in alone}) > 2
        groups = []
        run = conflict.run_subset_simulations

        def recording(system, configs, threshold, seeds):
            groups.append([config.n_samples for config in configs])
            return run(system, configs, threshold, seeds)

        monkeypatch.setattr(conflict, "run_subset_simulations", recording)
        monkeypatch.setattr(conflict, "GROUP_SIZE", 3)
        monkeypatch.setattr(conflict, "_GROUP_SAMPLES", 600)
        assert pc_ss_batch(queries, configs, seeds) == alone
        assert groups == [[100, 200, 300], [100, 500], [100, 200], [700], [100]]

    def test_mismatched_seeds_rejected(self):
        with pytest.raises(ValueError, match="seeds"):
            pc_ss_batch(self.QUERIES, CFG, [1, 2])

    def test_mismatched_configs_rejected(self):
        with pytest.raises(ValueError, match="4 queries but 2 configs"):
            pc_ss_batch(self.QUERIES, [CFG, CFG], [1, 2, 3, 4])

    def test_queries_on_different_grids_rejected(self):
        queries = [_query(HEAD_ON_OFFSET), _query(HEAD_ON_OFFSET, radius=100.0)]
        with pytest.raises(ValueError, match="share"):
            QueryBatch.from_queries(queries)

    def test_stacked_build_equals_per_query_build(self, caplog):
        # one broadcast track and one stacked factorisation give each query
        # exactly its own track and factor; a covariance that needs jitter
        # sends the batch query by query, with one warning per jittered query
        singular = np.zeros((6, 6))
        singular[0, 0] = 1.0
        jittered = ConflictQuery(
            observer=AircraftState(-30.0, 70.0, 0.4, 12.0, -3.0, -0.2),
            intruder_estimate=KalmanEstimate(mean=AircraftState(*RECEDING), covariance=singular),
        )
        for queries, warnings in ((self.QUERIES, 0), (self.QUERIES + (jittered,), 1)):
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="subsim.conflict"):
                batch = QueryBatch.from_queries(queries)
            assert sum("jitter" in r.getMessage() for r in caplog.records) == warnings
            for k, q in enumerate(queries):
                assert np.array_equal(batch.observer[k], q.observer.as_array())
                track = propagate(q.observer, f=q.sample_rate, t=q.horizon).positions
                assert np.array_equal(batch.obs_xy[k], track)
                assert np.array_equal(batch.mean[k], q.intruder_estimate.mean.as_array())
                assert np.array_equal(batch.chol[k], _cholesky_with_jitter(q.intruder_estimate.covariance))


class TestSimulateScenario:
    def test_budget_matching_every_step(self):
        spec = build_head_on(152.4, 2000.0, duration=2.0, sample_rate=10.0)
        records = simulate_scenario(spec, CFG, seed=15)
        assert len(records) == 20
        assert all(r.pc_ss.samples_used == r.pc_dmc.samples_used for r in records)

    def test_deterministic_series(self):
        spec = build_head_on(500.0, 2000.0, duration=1.0, sample_rate=10.0)
        r1 = simulate_scenario(spec, CFG, seed=16)
        r2 = simulate_scenario(spec, CFG, seed=16)
        assert [(a.pc_ss.pc, a.pc_dmc.pc, a.miss_true) for a in r1] == [
            (b.pc_ss.pc, b.pc_dmc.pc, b.miss_true) for b in r2
        ]

    def test_subsampled_run_reproduces_full_run(self):
        spec = build_head_on(152.4, 2000.0, duration=1.0, sample_rate=10.0)
        full = simulate_scenario(spec, CFG, seed=17)
        some = simulate_scenario(spec, CFG, seed=17, estimate_steps=[7, 3, 7])
        by_step = {r.step: r for r in full}
        assert [r.step for r in some] == [3, 7]  # one record per step, in step order
        for r in some:
            assert r.pc_ss.pc == by_step[r.step].pc_ss.pc
            assert r.miss_true == by_step[r.step].miss_true

    @pytest.mark.parametrize("steps, named", [([0], "[0]"), ([3, 11, -1], "[-1, 11]")])
    def test_out_of_range_steps_rejected(self, steps, named):
        spec = build_head_on(152.4, 2000.0, duration=1.0, sample_rate=10.0)
        assert spec.n_steps == 10
        with pytest.raises(ValueError, match=r"outside 1\.\.10: " + re.escape(named)):
            simulate_scenario(spec, CFG, seed=17, estimate_steps=steps)

    def test_step_groups_change_no_record(self, monkeypatch):
        spec = build_head_on(152.4, 2000.0, duration=1.0, sample_rate=10.0)
        grouped = simulate_scenario(spec, CFG, seed=19)
        monkeypatch.setattr(conflict, "GROUP_SIZE", 1)
        single = simulate_scenario(spec, CFG, seed=19)
        assert len(grouped) == len(single) == 10
        for a, b in zip(grouped, single):
            assert (a.step, a.time, a.pc_ss, a.pc_dmc, a.miss_true) == (
                b.step, b.time, b.pc_ss, b.pc_dmc, b.miss_true
            )
            assert (a.observer_truth, a.intruder_truth, a.estimate.mean) == (
                b.observer_truth, b.intruder_truth, b.estimate.mean
            )
            assert np.array_equal(a.estimate.covariance, b.estimate.covariance)

    def test_builds_no_table(self, assemble_calls):
        spec = build_head_on(300.0, 2000.0, duration=1.0, sample_rate=10.0)
        records = simulate_scenario(spec, CFG, seed=19)
        assert len(records) == 10 and max(r.pc_ss.levels_used for r in records) > 1
        assert assemble_calls == []

    def test_encounter_peak_memory(self):
        # one 400-step head-on encounter peaks at 5.9 MB of traced
        # allocations with 64 steps a group (3.3 MB with 16 steps and eager
        # tables); the 8 MB bound leaves a 36% margin for NumPy versions
        spec = build_head_on(0.0, 2000.0)
        tracemalloc.start()
        try:
            records = simulate_scenario(spec, CFG, seed=901)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(records) == 400
        assert peak < 8_000_000

    def test_dmc_equals_pc_dmc_of_each_step(self):
        # the group's draws go through one kernel call; each step's result
        # must still be its own pc_dmc at the step's stream
        spec = build_head_on(152.4, 2000.0)
        picks = [3, 40, 200, 333]
        records = simulate_scenario(spec, CFG, seed=23, estimate_steps=picks)
        root = _rng.derive(23)
        steps = {s.k: s for s in conflict.encounter_steps(spec, root) if s.k in picks}
        assert [r.step for r in records] == picks
        for r in records:
            ref = pc_dmc(steps[r.step].query(spec), r.pc_ss.samples_used, _rng.child(root, r.step, 2))
            assert r.pc_dmc == ref
        assert 0 < sum(r.pc_dmc.conflict_count for r in records) < sum(r.pc_dmc.samples_used for r in records)

    def test_collision_course_probability_rises_to_one(self):
        # short encounter whose crossing happens inside the 2 s horizon
        spec = build_head_on(0.0, 300.0, duration=2.0, sample_rate=10.0)
        records = simulate_scenario(spec, CFG, seed=18)
        assert records[0].pc_ss.pc > 0.9
        assert max(r.pc_ss.pc for r in records) == 1.0

    def test_zero_duration_rejected(self):
        with pytest.raises(ValueError):
            build_head_on(0.0, 2000.0, duration=0.0)

    def test_one_kf_step_per_filter_step(self, monkeypatch):
        # the encounter loop calls the module's kf_step once per step, so a
        # wrapper set on subsim.conflict.kf_step sees every filter step
        calls = []
        step = conflict.kf_step

        def counting(*args):
            calls.append(args)
            return step(*args)

        monkeypatch.setattr(conflict, "kf_step", counting)
        spec = build_head_on(152.4, 2000.0, duration=1.0, sample_rate=10.0)
        simulate_scenario(spec, CFG, seed=21, estimate_steps=[4])
        assert len(calls) == spec.n_steps

    def test_estimates_build_no_seed_sequence(self, monkeypatch):
        # the engine and the step groups derive their streams from pools;
        # only the filter's streams, in encounter_steps, build SeedSequences
        spec = build_head_on(152.4, 2000.0, duration=2.0, sample_rate=10.0)
        calls = {"child": 0, "generator": 0}
        for name in calls:
            def counting(*args, _fn=getattr(_rng, name), _name=name):
                calls[_name] += 1
                return _fn(*args)

            monkeypatch.setattr(_rng, name, counting)
        list(conflict.encounter_steps(spec, 21))
        filter_calls = dict(calls)
        assert filter_calls["child"] == filter_calls["generator"] > 1
        calls.update(child=0, generator=0)
        simulate_scenario(spec, CFG, seed=21)
        assert calls == filter_calls

    def test_step_builds_its_estimate_once(self):
        spec = build_head_on(152.4, 2000.0, duration=1.0, sample_rate=10.0)
        step = next(conflict.encounter_steps(spec, 5))
        assert step.query(spec).intruder_estimate is step.estimate is step.estimate
        assert step.estimate.mean == AircraftState.from_array(step.mean)
        assert step.estimate.covariance is step.cov


class TestQueryValidation:
    def test_rejects_bad_horizon(self):
        with pytest.raises(ValueError):
            _query(HEAD_ON_COLLISION, horizon=-1.0)

    def test_rejects_non_integral_grid(self):
        with pytest.raises(ValueError):
            _query(HEAD_ON_COLLISION, horizon=0.123, rate=3.0)

    def test_rejects_bad_radius(self):
        with pytest.raises(ValueError):
            _query(HEAD_ON_COLLISION, radius=0.0)

    @pytest.mark.parametrize(
        "kwarg, name", [("radius", "protected_radius"), ("horizon", "horizon"), ("rate", "sample_rate")]
    )
    def test_rejects_non_finite_values(self, kwarg, name):
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                _query(HEAD_ON_COLLISION, **{kwarg: value})
