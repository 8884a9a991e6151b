"""Conflict estimation tests: DMC, subset runs, query groups, scenario loop.

The engine's contract and its chain are tested once, on this system among
others, in `test_engine.py`."""

import dataclasses
import logging
import math
import re
import tracemalloc

import numpy as np
import pytest

import dense
from streams import child, generator
from subsim import conflict, engine
from subsim import rng as _rng
from subsim.conflict import (
    ConflictQuery,
    conflict_system,
    pc_dmc,
    pc_ss,
    encounter_steps,
    simulate_scenario,
)
from subsim.analysis import CovStudyConfig, cov_study, freeze_phase, phase_p1, phase_p2
from subsim.dynamics import miss_distance_batch
from subsim.engine import (
    SubsetConfig,
    conditional_chains,
    direct_monte_carlo,
    run_subset_simulations,
)
from subsim.scenarios import build_converging, build_head_on, build_overtaking

CFG = SubsetConfig(n_samples=100, level_probability=0.1, max_levels=7)


OBSERVER = np.array([0.0, 77.17, 0.0, 0.0, 0.0, 0.0])


def _query(intruder_mean, cov_scale=1.0, horizon=20.0, radius=152.4):
    cov = np.diag([4.0, 2.0, 0.3, 4.0, 2.0, 0.3]) * cov_scale
    return ConflictQuery(OBSERVER, np.array(intruder_mean), cov, radius, horizon)


def _ss_result(q, config, seed):
    """The engine's result for query `q` alone, CCDF table included."""
    (result,) = run_subset_simulations(conflict_system([q]), config, [seed])
    return result


HEAD_ON_COLLISION = (2000.0, -77.17, 0.0, 0.0, 0.0, 0.0)
HEAD_ON_OFFSET = (2000.0, -77.17, 0.0, 1000.0, 0.0, 0.0)
RECEDING = (-2000.0, -77.17, 0.0, 5000.0, 0.0, 0.0)


class TestPcDmc:
    def test_collision_course_is_certain(self):
        q = _query(HEAD_ON_COLLISION, cov_scale=1e-6)
        (res,) = pc_dmc([q], [200], [1])
        assert res.pc == 1.0
        assert res.conflict_count == 200

    def test_indefinite_covariance_rejected(self):
        cov = np.diag([1.0, 1.0, 1.0, 1.0, 1.0, -1.0])
        q = ConflictQuery(OBSERVER, np.array(HEAD_ON_COLLISION), cov)
        with pytest.raises(np.linalg.LinAlgError):
            pc_dmc([q], [10], [1])

    def test_singular_covariance_gets_jitter(self):
        cov = np.zeros((6, 6))
        cov[0, 0] = 1.0  # rank deficient but PSD
        q = ConflictQuery(OBSERVER, np.array(HEAD_ON_COLLISION), cov)
        (res,) = pc_dmc([q], [50], [1])
        assert 0.0 <= res.pc <= 1.0

    def test_matches_large_reference_within_three_sigma(self):
        # borderline geometry; frozen reference from a 10^6-sample run
        q = _query((2000.0, -77.17, 0.0, 152.4, 0.0, 0.0))
        ref = pc_dmc([q], [1_000_000], [999])[0].pc
        n = 2000
        est = pc_dmc([q], [n], [4])[0].pc
        se = math.sqrt(ref * (1 - ref) / n)
        assert abs(est - ref) <= 3 * se


class TestPcSs:
    def test_certain_conflict_terminates_level_zero(self):
        q = _query(HEAD_ON_COLLISION, cov_scale=1e-6)
        (res,) = pc_ss([q], CFG, [8])
        assert res.pc == 1.0
        assert res.levels_used == 1
        assert res.samples_used == 100
        assert len(_ss_result(q, CFG, 8).table.probabilities) == 100

    def test_receding_geometry_reaches_floor(self):
        # intruder behind the observer and flying away: no conflict reachable
        q = _query(RECEDING, cov_scale=0.2)
        (res,) = pc_ss([q], CFG, [11])
        assert res.floor_reached
        assert res.levels_used == 7
        assert res.pc == 1e-8
        assert res.conflict_count == 0

    def test_rare_but_reachable_uses_multiple_levels(self):
        q = _query(HEAD_ON_OFFSET)
        (res,) = pc_ss([q], CFG, [12])
        assert res.levels_used > 1
        assert res.samples_used == 100 * res.levels_used
        assert len(_ss_result(q, CFG, 12).table.probabilities) == 90 * (res.levels_used - 1) + 100

    def test_mean_matches_dmc_reference(self):
        # 320 m lateral offset; the reference is 986 conflicts in 2*10^6 pc_dmc
        # draws (ten streams child(_rng.derive(7), k) of 2*10^5 each)
        q = _query((2000.0, -77.17, 0.0, 320.0, 0.0, 0.0))
        n_ref = 2_000_000
        ref = 986 / n_ref
        config = SubsetConfig(n_samples=500, level_probability=0.1, max_levels=7)
        root = _rng.derive(320)
        seeds = [child(root, rep) for rep in range(60)]
        est = np.array([res.pc for res in pc_ss([q] * 60, config, seeds)])
        se = math.sqrt(est.var(ddof=1) / len(est) + ref * (1 - ref) / n_ref)
        assert abs(est.mean() - ref) <= 3 * se

    def test_shrinking_radius_never_increases_conflicts(self):
        q = _query(HEAD_ON_OFFSET, cov_scale=4.0)
        gen = generator(_rng.derive(33))
        states = q.mean + gen.standard_normal((2000, 6)) @ np.linalg.cholesky(q.cov).T
        miss = conflict_system([q]).evaluate(states, np.zeros(len(states), np.intp))
        full = np.count_nonzero(miss <= q.protected_radius)
        halved = np.count_nonzero(miss <= q.protected_radius / 2)
        assert halved <= full


def _assert_lists_equal_one_query_calls(queries, budgets, seeds):
    """`pc_ss` and `pc_dmc` of a list give each query exactly its one-query
    call, SS at N = budgets[k] and DMC on budgets[k] draws; returns the SS list."""
    configs = [SubsetConfig(n, 0.1) for n in budgets]
    ss = pc_ss(queries, configs, seeds)
    assert ss == [pc_ss([q], c, [s])[0] for q, c, s in zip(queries, configs, seeds)]
    dmc = pc_dmc(queries, budgets, seeds)
    assert dmc == [pc_dmc([q], [n], [s])[0] for q, n, s in zip(queries, budgets, seeds)]
    assert [res.samples_used for res in dmc] == list(budgets)
    return ss


class TestPcSsBatch:
    """Queries given as one list give each query exactly its one-query
    estimate, for `pc_ss` and `pc_dmc` alike."""

    QUERIES = (
        _query(HEAD_ON_COLLISION, cov_scale=1e-6),  # stops at level 0
        _query((2000.0, -77.17, 0.0, 320.0, 0.0, 0.0)),  # mid-descent
        _query(RECEDING, cov_scale=0.2),  # floor at max_levels
        _query((2000.0, -77.17, 0.0, 250.0, 0.0, 0.0)),
    )

    def test_batch_equals_one_query_runs(self, assemble_calls):
        # mixed budgets; the queries stop at level 0, mid-descent and at max_levels
        seeds = [8, 1, 11, 2]
        batch = _assert_lists_equal_one_query_calls(self.QUERIES, [100, 200, 100, 500], seeds)
        assert assemble_calls == []  # the lists read no table
        levels = [res.levels_used for res in batch]
        assert levels[0] == 1 and 1 < levels[1] < 7 and levels[2] == 7 and 1 < levels[3] < 7
        assert batch[2].floor_reached

    def test_queries_with_different_radii_rejected(self):
        queries = [_query(HEAD_ON_OFFSET), _query(HEAD_ON_OFFSET, radius=100.0)]
        with pytest.raises(ValueError, match="share"):
            conflict_system(queries)

    # at N = 100 a batch closes after _BATCH_ROWS // 100 queries; 162 and
    # 163 put the odd radius inside the first batch, the last two either
    # side of its boundary
    @pytest.mark.parametrize(
        "before", [162, 163, engine._BATCH_ROWS // 100 - 1, engine._BATCH_ROWS // 100]
    )
    def test_list_with_different_radii_rejected(self, before):
        # the whole list is checked for one protected radius, wherever a
        # batch boundary falls
        queries = [_query(HEAD_ON_COLLISION, cov_scale=1e-6)] * before
        queries.append(_query(HEAD_ON_COLLISION, cov_scale=1e-6, radius=100.0))
        with pytest.raises(ValueError, match="must share their protected radius"):
            pc_ss(queries, SubsetConfig(100, 0.1, 2), list(range(before + 1)))
        with pytest.raises(ValueError, match="must share their protected radius"):
            pc_dmc(queries, [100] * (before + 1), list(range(before + 1)))

    def test_mixed_horizons_equal_one_query_runs(self):
        # one lockstep run may mix horizons: each query's CPA is clipped to
        # its own, and each result equals its own one-query call bit for bit
        near = (2000.0, -77.17, 0.0, 250.0, 0.0, 0.0)
        queries = [_query(near), _query(near, horizon=8.0), _query(HEAD_ON_OFFSET, horizon=8.0)]
        batch = _assert_lists_equal_one_query_calls(queries, [100] * 3, [3, 3, 5])
        # the 8 s horizon ends before the pass at about 13 s: far rarer conflicts
        assert batch[1].pc < 1e-3 * batch[0].pc

    def test_stacked_build_equals_per_query_build(self, caplog):
        # one broadcast track and one stacked factorisation give each query
        # exactly its own one-query system; a covariance that needs jitter
        # factors the group query by query, with one warning per jittered query
        singular = np.zeros((6, 6))
        singular[0, 0] = 1.0
        observer = np.array([-30.0, 70.0, 0.4, 12.0, -3.0, -0.2])
        jittered = ConflictQuery(observer, np.array(RECEDING), singular)
        z = generator(_rng.derive(70)).standard_normal((50, 6))
        for queries, warnings in ((self.QUERIES, 0), (self.QUERIES + (jittered,), 1)):
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="subsim.conflict"):
                system = conflict_system(queries)
            assert sum("jitter" in r.getMessage() for r in caplog.records) == warnings
            for k, q in enumerate(queries):
                one = conflict_system([q])
                assert np.array_equal(system.mean[k], one.mean[0])
                assert np.array_equal(system.chol[k], one.chol[0])
                states = one.mean[0] + z @ one.chol[0].T
                alone = one.evaluate(states, np.zeros(len(z), dtype=int))
                assert np.array_equal(system.evaluate(states, np.full(len(z), k)), alone)


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
            # whole summaries, thresholds included
            assert r.pc_ss == by_step[r.step].pc_ss
            assert r.pc_dmc == by_step[r.step].pc_dmc
            assert r.miss_true == by_step[r.step].miss_true

    @pytest.mark.parametrize(
        "steps, named",
        [
            ([0], "[0]"),
            ([3, 11, -1], "[-1, 11]"),
            ([2.7], "'float' object"),  # int() would estimate step 2
            ("12", "'str' object"),  # int() would estimate steps 1 and 2
            ([True], "True is a bool"),  # operator.index would estimate step 1
        ],
    )
    def test_out_of_range_steps_rejected(self, steps, named):
        spec = build_head_on(152.4, 2000.0, duration=1.0, sample_rate=10.0)
        assert spec.n_steps == 10
        with pytest.raises(ValueError, match=r"outside 1\.\.10: " + re.escape(named)):
            simulate_scenario(spec, CFG, seed=17, estimate_steps=steps)

    def test_true_miss_equals_scan_of_true_state(self):
        # each record's miss_true is the kernel's miss of its step's true
        # intruder state against its observer, bit for bit, and lies within
        # the dense scan's tolerance of the 2 kHz grid minimum; the pass
        # falls between steps 259 and 260, after which the closest approach
        # is the present, t = 0
        spec = build_head_on(152.4, 2000.0)
        steps = list(encounter_steps(spec, 3))
        intruders = np.array([s.intruder for s in steps])
        observers = np.array([s.observer for s in steps])
        problem = np.arange(len(steps))
        miss, tca = miss_distance_batch(intruders, observers, problem, np.full(len(steps), spec.duration))
        records = simulate_scenario(spec, CFG, seed=3)
        assert [(r.step, r.miss_true) for r in records] == list(zip(range(1, 401), miss.tolist()))
        grid, _ = dense.miss_distance_scan(intruders, observers, spec.duration, 2000.0, problem)
        rounding, gap = dense.scan_tolerance(intruders, observers, spec.duration, 2000.0, problem)
        assert np.all(grid - miss >= -rounding) and np.all(grid - miss <= gap + rounding)
        assert 12.9 < tca[0] < 13.0 and np.all(tca[:259] > 0.0) and np.all(tca[259:] == 0.0)

    def test_builds_no_table(self, assemble_calls):
        spec = build_head_on(300.0, 2000.0, duration=1.0, sample_rate=10.0)
        records = simulate_scenario(spec, CFG, seed=19)
        assert len(records) == 10 and max(r.pc_ss.levels_used for r in records) > 1
        assert assemble_calls == []

    def test_encounter_peak_memory(self):
        # one 400-step head-on encounter peaks at 5.8 MB of traced
        # allocations (NumPy 2.4): one SS batch that keeps only its current
        # level's arrays.  The 6.5 MB bound leaves a 12% margin for NumPy
        # versions, and fails a batch that keeps every level's arrays for
        # tables (9.6 MB) or a level 0 that keeps its normals while it
        # scores its draws (7.2 MB)
        spec = build_head_on(0.0, 2000.0)
        tracemalloc.start()
        try:
            records = simulate_scenario(spec, CFG, seed=901)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(records) == 400
        assert peak < 6_500_000

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
            query, stream = steps[r.step].query(spec), child(root, r.step, 2)
            assert [r.pc_dmc] == pc_dmc([query], [r.pc_ss.samples_used], [stream])
        assert 0 < sum(r.pc_dmc.conflict_count for r in records) < sum(r.pc_dmc.samples_used for r in records)

    def test_collision_course_probability_rises_to_one(self):
        # short encounter whose crossing happens inside the 2 s horizon
        spec = build_head_on(0.0, 300.0, duration=2.0, sample_rate=10.0)
        records = simulate_scenario(spec, CFG, seed=18)
        assert records[0].pc_ss.pc > 0.9
        assert max(r.pc_ss.pc for r in records) == 1.0

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

    @pytest.mark.parametrize("rate", [20.0, 2.0, 1.0])
    def test_measured_steps_draw_their_own_streams(self, monkeypatch, rate):
        # steps stride + 1, 2 stride + 1, ... are measured, each with the two
        # normals of its stream child(root, k, 0), drawn for all steps at once
        spec = build_head_on(152.4, 2000.0, duration=3.0, sample_rate=20.0, measurement_rate=rate)
        drawn = []
        measure = conflict.simulate_measurement

        def recording(truth, noise, w):
            drawn.append(np.array(w))
            return measure(truth, noise, w)

        monkeypatch.setattr(conflict, "simulate_measurement", recording)
        steps = list(encounter_steps(spec, 21))
        stride, counter, expected = spec.measurement_stride, 0, []
        for k in range(1, spec.n_steps + 1):  # the filter loop's measurement rule
            if counter == stride:
                expected.append(k)
                counter = 0
            counter += 1
        assert len(steps) == spec.n_steps and len(drawn) == len(expected) > 0
        root = _rng.pool(21)
        for k, w in zip(expected, drawn):
            assert np.array_equal(w, conflict._two_normals(root, k, 0))

    def test_estimates_build_no_seed_sequence(self, monkeypatch):
        # every stream of the filter, the engine, the step groups and the
        # study is a pool: no keyed SeedSequence and no generator is built
        spec = build_head_on(152.4, 2000.0, duration=2.0, sample_rate=10.0)
        _rng.standard_normal(_rng.pool(0), [1])  # this thread's one generator
        built = []

        class Sequence(np.random.SeedSequence):
            def __init__(self, *args, **kwargs):
                if kwargs.get("spawn_key"):
                    built.append("SeedSequence")
                super().__init__(*args, **kwargs)

        class Generator(np.random.Generator):
            def __init__(self, *args):
                built.append("Generator")
                super().__init__(*args)

        monkeypatch.setattr(np.random, "SeedSequence", Sequence)
        monkeypatch.setattr(np.random, "Generator", Generator)
        steps = list(conflict.encounter_steps(spec, 21))
        assert any(step.k > spec.measurement_stride for step in steps)  # measured steps ran
        simulate_scenario(spec, CFG, seed=21)
        phase = freeze_phase(spec, at_time=1.5, seed=21)
        cov_study(CovStudyConfig(phase, 2, dmc_sizes=(100,), ss_sizes=(100,), max_levels=2), 21)
        assert built == []
        generator(child(_rng.derive(21), 0))  # the reference stream builds both
        assert built == ["SeedSequence", "Generator"]


def _eye_with(i, j, value):
    cov = np.eye(6)
    cov[i, j] = value
    return cov


class TestQueryValidation:
    """What a query's arrays and numbers must be, checked over the stacked
    queries by `conflict_system`, and so by `pc_dmc`, before any draw."""

    @staticmethod
    def _assert_rejected(monkeypatch, match, q, other=None):
        """`q` alone, and `q` with `other` (or with itself), raise before any draw."""
        draws = []
        monkeypatch.setattr(_rng, "standard_normal", lambda *args: draws.append(args))
        with pytest.raises(ValueError, match=match):
            conflict_system([q])
        with pytest.raises(ValueError, match=match):
            pc_dmc([q, q if other is None else other], [10, 10], [1, 2])
        assert draws == []

    def test_rejects_bad_horizon(self, monkeypatch):
        for value in (-1.0, 0.0):
            q = _query(HEAD_ON_COLLISION, horizon=value)
            self._assert_rejected(monkeypatch, "horizon must be finite and positive", q)

    def test_rejects_bad_radius(self, monkeypatch):
        for value in (-1.0, 0.0):
            q = _query(HEAD_ON_COLLISION, radius=value)
            self._assert_rejected(monkeypatch, "protected_radius must be finite and positive", q)
        # two NaN radii never compare equal, and are still reported as
        # non-finite, not as two radii
        q, other = (_query(HEAD_ON_COLLISION, radius=float("nan")) for _ in range(2))
        assert q.protected_radius is not other.protected_radius
        self._assert_rejected(monkeypatch, "protected_radius must be finite and positive", q, other)

    @pytest.mark.parametrize("kwarg, name", [("radius", "protected_radius"), ("horizon", "horizon")])
    def test_rejects_non_finite_values(self, monkeypatch, kwarg, name):
        for value in (math.nan, math.inf, -math.inf):
            q = _query(HEAD_ON_COLLISION, **{kwarg: value})
            self._assert_rejected(monkeypatch, f"{name} must be finite", q)

    @pytest.mark.parametrize(
        "field, value, match",
        [
            # Cholesky would read the lower triangle only
            ("cov", _eye_with(0, 1, 0.5), "covariance must be symmetric"),
            # np.linalg.cholesky factors a NaN covariance without an error
            ("cov", _eye_with(2, 2, math.nan), "covariance must be finite"),
            ("cov", _eye_with(3, 3, math.inf), "covariance must be finite"),
            ("mean", np.array([2e3, -77.17, math.nan, 0.0, 0.0, 0.0]), "mean must be finite"),
            ("mean", np.zeros(5), r"means must be \(\.\.\., 6\)"),
            ("observer", np.array([0.0, 77.17, 0.0, -math.inf, 0.0, 0.0]), "observer states"),
            ("observer", np.zeros(5), r"observer states must be finite and \(6,\)"),
        ],
        ids=["asymmetric-cov", "nan-cov", "inf-cov", "nan-mean", "short-mean", "inf-observer",
             "short-observer"],
    )
    def test_rejects_bad_arrays(self, monkeypatch, field, value, match):
        q = dataclasses.replace(_query(HEAD_ON_COLLISION), **{field: value})
        self._assert_rejected(monkeypatch, match, q)

    @pytest.mark.parametrize("kwarg, name", [("radius", "protected_radius"), ("horizon", "horizon")])
    def test_rejects_non_real_values(self, monkeypatch, kwarg, name):
        # NumPy parses a numeric string as a number; a query must not
        for value in ("20", "152.4", None, 1j, [20.0]):
            q = _query(HEAD_ON_COLLISION, **{kwarg: value})
            self._assert_rejected(monkeypatch, f"{name} must be a real number", q)

    def test_numeric_string_horizon_rejected(self):
        q = ConflictQuery(np.zeros(6), np.array([2000.0, -77, 0, 0, 0, 0]), np.eye(6), 152.4, "20")
        with pytest.raises(ValueError, match="horizon must be a real number"):
            pc_dmc([q], [100], [1])


def _alone_system(queries):
    """The system of `queries` with each row scored by its own query's
    one-query system, one kernel call per query."""
    alone = [conflict_system([q]) for q in queries]

    def evaluate(x, problems):
        out = np.empty(len(x))
        for k, one in enumerate(alone):
            rows = problems == k
            out[rows] = one.evaluate(x[rows], np.zeros(rows.sum(), dtype=int))
        return out

    return dataclasses.replace(conflict_system(queries), evaluate=evaluate)


def _p2_group():
    return [phase_p2(seed) for seed in (0, 1, 2)]


def _head_on_group():
    spec = build_head_on(152.4, 2000.0)
    return [s.query(spec) for s in encounter_steps(spec, 3) if s.k in (40, 100, 160, 220)]


class TestQueryGroupSystem:
    """Responses read against a bound, the failure threshold or a chain's
    threshold, by a query group's system: every kernel call goes through the
    module attribute `subsim.conflict.miss_distance_batch` with the (n, 6)
    states and the group's (K, 6) observer states as its first two
    arguments, which the benchmark's tracer reads, and each query's counts,
    chain samples and responses equal those of its own one-query system."""

    @pytest.fixture(params=["p2", "head-on"])
    def group(self, request, monkeypatch):
        """(system, calls, alone): a query group's system, the (states,
        observers) shapes of the kernel calls made from now on, and the
        group's `_alone_system`."""
        calls = []
        kernel = conflict.miss_distance_batch

        def recording(*args, **kwargs):
            calls.append((np.shape(args[0]), np.shape(args[1])))
            return kernel(*args, **kwargs)

        monkeypatch.setattr(conflict, "miss_distance_batch", recording)
        queries = _p2_group() if request.param == "p2" else _head_on_group()
        return conflict_system(queries), calls, _alone_system(queries)

    @staticmethod
    def _assert_traced(calls, k, rows):
        """Each recorded call took its states first and the K observers second;
        `rows` is the number of states of each call, in order."""
        assert calls == [((n, 6), (k, 6)) for n in rows]

    def test_dmc_counts(self, group):
        system, calls, alone = group
        k = len(system.mean)
        seeds = [_rng.pool(40 + j) for j in range(k)]
        for threshold in (system.threshold, 4.0 * system.threshold):
            calls.clear()
            at = dataclasses.replace(system, threshold=threshold)
            grouped = direct_monte_carlo(at, [3000] * k, seeds)
            self._assert_traced(calls, k, [3000 * k])
            own_at = dataclasses.replace(alone, threshold=threshold)
            own = direct_monte_carlo(own_at, [3000] * k, seeds)
            assert grouped == own
        assert sum(r.conflict_count for r in grouped) > 0

    def test_chain_samples_and_responses(self, group):
        system, calls, alone = group
        k, m = len(system.mean), 40
        gen = generator(_rng.derive(41))
        problems = np.repeat(np.arange(k), m)
        z = gen.standard_normal((k * m, 6))
        seeds = system.mean[problems] + (system.chol[problems] @ z[:, :, None])[:, :, 0]
        responses = system.evaluate(seeds, problems)
        thresholds = responses * gen.uniform(1.0, 1.3, k * m)
        innovations = gen.standard_normal((k * m, 10, 6))
        calls.clear()
        x, r = conditional_chains(system, seeds, responses, thresholds, innovations, problems)
        self._assert_traced(calls, k, [k * m] * 10)
        ref_x, ref_r = conditional_chains(alone, seeds, responses, thresholds, innovations, problems)
        assert np.array_equal(x, ref_x) and np.array_equal(r, ref_r)
        moved = (x != seeds[:, None]).any(axis=2)
        assert 0 < moved.sum() < moved.size

    def test_subset_runs(self, group):
        system, calls, alone = group
        k = len(system.mean)
        seeds = [_rng.pool(50 + j) for j in range(k)]
        calls.clear()
        grouped = list(run_subset_simulations(system, CFG, seeds))
        assert calls and all(call[1] == (k, 6) for call in calls)
        own = list(run_subset_simulations(alone, CFG, seeds))
        for a, b in zip(grouped, own):
            assert a.estimate == b.estimate and a.diagnostics == b.diagnostics
            assert np.array_equal(a.table.responses, b.table.responses)
            assert np.array_equal(a.table.samples, b.table.samples)

    def test_non_finite_state_still_raises(self):
        queries = _head_on_group()
        system = conflict_system(queries)
        mean = system.mean.copy()
        mean[1, 0] = np.nan
        mean[2, 1] = np.inf  # inf * 0 at t = 0: an invalid operation
        bad = dataclasses.replace(system, mean=mean)
        seeds = [_rng.pool(60 + j) for j in range(len(mean))]
        # a ValueError, not a floating-point warning (which the suite makes an error)
        with pytest.raises(ValueError, match="non-finite"):
            direct_monte_carlo(bad, [100] * len(mean), seeds)
        with pytest.raises(ValueError, match="non-finite"):
            direct_monte_carlo(conflict._counting(bad), [100] * len(mean), seeds)
        with pytest.raises(ValueError, match="level 0 produced non-finite"):
            list(run_subset_simulations(bad, CFG, seeds))


def _geometry_queries(name):
    """The queries of one geometry: a frozen phase, or every step of a
    400-step encounter."""
    if name == "p1":
        return [phase_p1(seed=1)]
    if name == "p2":
        return [phase_p2(seed=2)]
    spec = {
        "head-on": build_head_on(0.0, 2000.0),
        "converging": build_converging(500.0),
        "overtaking": build_overtaking(0.0),
    }[name]
    return [step.query(spec) for step in encounter_steps(spec, 5)]


class TestCountingView:
    """Direct Monte Carlo reads its counts through `conflict._counting`,
    whose kernel calls skip the root solve of the draws that a lower bound
    places beyond the protected radius."""

    @pytest.mark.parametrize("geometry", ["p1", "p2", "head-on", "converging", "overtaking"])
    def test_counts_equal_the_exact_counts(self, geometry, monkeypatch):
        # 10^6 draws per geometry: the counts, and so every PcResult, equal
        # those of the system without the bound
        queries = _geometry_queries(geometry)
        system = conflict_system(queries)
        k = len(queries)
        ns = [1_000_000 // k] * k
        seeds = _rng.children(_rng.pool(70), np.arange(k))
        exact = direct_monte_carlo(system, ns, seeds)
        settled = []
        kernel = conflict.miss_distance_batch

        def recording(*args):
            miss, tca = kernel(*args)
            settled.append((np.isnan(tca).sum(), len(tca), args[4]))
            return miss, tca

        monkeypatch.setattr(conflict, "miss_distance_batch", recording)
        counted = direct_monte_carlo(conflict._counting(system), ns, seeds)
        assert counted == exact
        assert all(bound == system.threshold for _, _, bound in settled)
        # the bound is used: a good share of the draws skip the root solve
        assert sum(s for s, _, _ in settled) > 0.1 * sum(n for _, n, _ in settled)
        if geometry != "p2":
            assert 0 < sum(r.conflict_count for r in exact) < sum(ns)

    def test_pc_dmc_and_scenario_use_the_view(self, monkeypatch):
        bounds = []
        kernel = conflict.miss_distance_batch

        def recording(*args):
            bounds.append(args[4])
            return kernel(*args)

        monkeypatch.setattr(conflict, "miss_distance_batch", recording)
        q = phase_p2(seed=2)
        pc_dmc([q], [1000], [3])
        assert bounds == [q.protected_radius]
        bounds.clear()
        spec = build_head_on(152.4, 2000.0, duration=1.0, sample_rate=10.0)
        simulate_scenario(spec, CFG, seed=21)
        # level 0, the chains and the true states read exact misses; DMC
        # counts through the bound, in its one call
        assert bounds.count(spec.protected_radius) == 1
        assert set(bounds) == {None, spec.protected_radius}
