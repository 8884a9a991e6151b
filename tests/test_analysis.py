"""Spread-study tests: phase freezing, coefficient of variation, budget accounting."""

import math

import numpy as np
import pytest

from streams import child, generator
from subsim import analysis, conflict
from subsim import rng as _rng
from subsim.analysis import (
    CovStudyConfig,
    binomial_cov,
    coefficient_of_variation,
    cov_study,
    freeze_phase,
    phase_p1,
    phase_p2,
)
from subsim.conflict import simulate_scenario
from subsim.dynamics import transition_matrix
from subsim.engine import SubsetConfig
from subsim.scenarios import build_head_on, initial_states
from subsim.tracking import initial_estimate, kf_step, simulate_measurement


class TestCoefficientOfVariation:
    def test_constant_estimates_have_zero_spread(self):
        mean, std, cov, undefined = coefficient_of_variation([0.25] * 10)
        assert std == 0.0
        assert cov == 0.0
        assert not undefined

    def test_scale_invariance(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(0.1, 1.0, size=30)
        _, _, c1, _ = coefficient_of_variation(x)
        _, _, c2, _ = coefficient_of_variation(17.0 * x)
        assert c1 == pytest.approx(c2, rel=1e-12)

    def test_all_zero_flagged(self):
        mean, std, cov, undefined = coefficient_of_variation([0.0] * 5)
        assert undefined
        assert np.isnan(cov)

    def test_binomial_curve(self):
        assert binomial_cov(0.5, 100) == pytest.approx(0.1)
        assert binomial_cov(0.01, 10_000) == pytest.approx(np.sqrt(0.99 / 100))
        with pytest.raises(ValueError):
            binomial_cov(0.0, 10)


class TestFreezePhase:
    def test_misaligned_time_rejected(self):
        spec = build_head_on(152.4)
        for at_time in (0.033, math.nan):
            with pytest.raises(ValueError, match="does not land on a simulation step"):
                freeze_phase(spec, at_time=at_time, seed=1)

    def test_out_of_range_time_rejected(self):
        spec = build_head_on(152.4)
        for at_time in (25.0, math.inf, -math.inf):
            with pytest.raises(ValueError, match="does not land on a simulation step"):
                freeze_phase(spec, at_time=at_time, seed=1)

    @pytest.mark.parametrize("k", [1, 20, 137, 400])
    def test_equals_scenario_step(self, k):
        # the frozen query is step k of the encounter at the same seed
        spec = build_head_on(152.4)
        q = freeze_phase(spec, at_time=k * spec.dt, seed=9)
        config = SubsetConfig(n_samples=100, level_probability=0.1, max_levels=2)
        (record,) = simulate_scenario(spec, config, seed=9, estimate_steps=[k])
        assert record.step == k
        for a, b in ((q.observer, record.observer), (q.mean, record.mean), (q.cov, record.cov)):
            assert np.array_equal(a, b)
        assert q.horizon == spec.duration

    def test_equals_reference_filter_loop(self):
        # the public pieces on the documented streams: the filter starts from
        # child(root, 0), the measurement at step k comes from child(root, k, 0)
        spec = build_head_on(152.4)
        k_stop, seed = 45, 6
        q = freeze_phase(spec, at_time=k_stop * spec.dt, seed=seed)
        root = _rng.derive(seed)
        obs, intr = initial_states(spec)
        mean, cov = initial_estimate(
            intr,
            spec.noise,
            generator(child(root, 0)).standard_normal(2),
            pos_std=spec.init_pos_std,
            vel_std=spec.init_vel_std,
            acc_std=spec.init_acc_std,
        )
        a = transition_matrix(spec.dt)
        measured = []
        for k in range(1, k_stop + 1):
            obs, intr = a @ obs, a @ intr
            z = None
            if k > 1 and (k - 1) % spec.measurement_stride == 0:
                w = generator(child(root, k, 0)).standard_normal(2)
                z = simulate_measurement(intr, spec.noise, w)
                measured.append(k)
            mean, cov = kf_step(mean, cov, z, spec.dt, spec.noise)
        assert measured == [11, 21, 31, 41]
        for a, b in ((q.observer, obs), (q.mean, mean), (q.cov, cov)):
            assert np.array_equal(a, b)

    def test_draws_no_measurement_past_its_step(self, monkeypatch):
        # a freeze at step 137 derives the measurement streams of steps 11,
        # 21, ..., 131 only, and its query is step 137 of the whole encounter
        spec = build_head_on(152.4)
        k = 137
        whole = next(step for step in conflict.encounter_steps(spec, 9) if step.k == k)
        keys, derive = [], conflict.children

        def recording(parents, *key):
            keys.append(key)
            return derive(parents, *key)

        monkeypatch.setattr(conflict, "children", recording)
        q = freeze_phase(spec, at_time=k * spec.dt, seed=9)
        # the initial estimate's stream, then the measurements'
        assert [len(key) for key in keys] == [1, 2]
        assert keys[1][0].tolist() == list(range(11, k + 1, spec.measurement_stride))
        for a, b in ((q.observer, whole.observer), (q.mean, whole.mean), (q.cov, whole.cov)):
            assert np.array_equal(a, b)
        for last_step in (0, spec.n_steps + 1):
            with pytest.raises(ValueError, match=f"last_step must lie in 1..{spec.n_steps}"):
                next(conflict.encounter_steps(spec, 9, last_step))

    def test_deterministic(self):
        spec = build_head_on(152.4)
        q1 = freeze_phase(spec, at_time=1.0, seed=4)
        q2 = freeze_phase(spec, at_time=1.0, seed=4)
        for a, b in ((q1.observer, q2.observer), (q1.mean, q2.mean), (q1.cov, q2.cov)):
            assert np.array_equal(a, b)

    def test_horizon_is_scenario_duration(self):
        q = phase_p2(seed=5)
        assert q.horizon == 200.0

    def test_p1_phase_is_borderline(self):
        q = phase_p1(seed=5)
        assert q.observer[0] == pytest.approx(77.17, abs=0.05)
        assert q.mean[3] == pytest.approx(152.4, abs=2.0)

    def test_covariance_is_psd(self):
        q = phase_p2(seed=5)
        assert np.min(np.linalg.eigvalsh(q.cov)) >= -1e-12


class TestCovStudy:
    def test_requires_repetitions(self):
        q = phase_p1(seed=2)
        with pytest.raises(ValueError):
            CovStudyConfig(phase=q, repetitions=1)

    @pytest.mark.parametrize(
        "budgets",
        [
            {"dmc_sizes": (100, 0)},
            {"ss_sizes": (100, 155)},  # p0 * N is not an integer
            {"ss_sizes": (0,)},
            {"ss_sizes": (5,)},  # p0 * N = 0.5: not one chain
            {"max_levels": 0},
        ],
    )
    def test_bad_budget_rejected(self, budgets):
        with pytest.raises(ValueError):
            CovStudyConfig(phase=phase_p1(seed=2), repetitions=2, **budgets)

    @pytest.mark.parametrize("budgets", [{"dmc_sizes": ()}, {"ss_sizes": ()}])
    def test_empty_sizes_rejected(self, budgets):
        # an empty list would fail only inside the study, at its first run
        with pytest.raises(ValueError, match="each method needs a sample size"):
            CovStudyConfig(phase=phase_p1(seed=2), repetitions=2, **budgets)

    # a float fails mid-study or, as an SS size, truncates to another budget
    @pytest.mark.parametrize(
        "budgets",
        [
            {"repetitions": 2.5},
            {"dmc_sizes": (100, 1e3)},
            {"ss_sizes": (100.5,)},
            {"max_levels": 2.5},
            {"dmc_sizes": (True,), "ss_sizes": (100,)},
            {"max_levels": True},
        ],
    )
    def test_non_integer_budget_rejected(self, budgets):
        with pytest.raises(ValueError, match="must be integers"):
            CovStudyConfig(**{"phase": phase_p1(seed=2), "repetitions": 2, **budgets})

    def test_numpy_integer_budgets_accepted(self):
        n = np.int64(100)
        config = CovStudyConfig(phase_p1(seed=2), np.int64(2), (n,), (np.int32(100),), max_levels=np.int64(2))
        assert [(p.method, p.requested_n) for p in cov_study(config, 3)] == [("dmc", 100), ("ss", 100)]

    def test_point_layout_and_accounting(self):
        q = phase_p1(seed=2)
        config = CovStudyConfig(
            phase=q, repetitions=4, dmc_sizes=(100,), ss_sizes=(100,), max_levels=3
        )
        points = cov_study(config, seed=9)
        assert [p.method for p in points] == ["dmc", "ss"]
        dmc, ss = points
        assert dmc.avg_samples == 100.0
        assert ss.avg_samples >= 100.0
        for p in points:
            assert p.mean_pc >= 0.0
            assert p.undefined or p.cov >= 0.0

    def test_one_pc_dmc_per_dmc_repetition(self, monkeypatch):
        # cov_study reads the module's pc_dmc, so a wrapper set on
        # subsim.analysis.pc_dmc sees every DMC repetition: one call takes one
        # query per budget and repetition, budget-major
        calls = []
        dmc = analysis.pc_dmc

        def counting(queries, ns, seeds):
            calls.append(list(ns))
            return dmc(queries, ns, seeds)

        monkeypatch.setattr(analysis, "pc_dmc", counting)
        q = phase_p1(seed=2)
        config = CovStudyConfig(phase=q, repetitions=3, dmc_sizes=(100, 200), ss_sizes=(100,))
        cov_study(config, seed=11)
        assert calls == [[100] * 3 + [200] * 3]

    def test_one_engine_run_for_every_ss_budget(self, monkeypatch):
        # the SS repetitions of all budgets go through one pc_ss call, read
        # from subsim.analysis, and share one lockstep engine run
        runs, ss_calls = [], []
        run, ss = conflict.run_subset_simulations, analysis.pc_ss

        def counting_run(system, configs, seeds, **options):
            runs.append([config.n_samples for config in configs])
            return run(system, configs, seeds, **options)

        def counting_ss(queries, configs, seeds):
            ss_calls.append([config.n_samples for config in configs])
            return ss(queries, configs, seeds)

        monkeypatch.setattr(conflict, "run_subset_simulations", counting_run)
        monkeypatch.setattr(analysis, "pc_ss", counting_ss)
        config = CovStudyConfig(
            phase=phase_p1(seed=2), repetitions=2, dmc_sizes=(100, 200), ss_sizes=(100, 200, 500)
        )
        cov_study(config, seed=11)
        assert ss_calls == [[100, 100, 200, 200, 500, 500]]
        assert runs == [[100, 100, 200, 200, 500, 500]]

    def test_ss_points_read_each_repetitions_own_stream(self):
        # SS repetition rep of budget i is pc_ss on stream child(root, 1, i, rep)
        config = CovStudyConfig(
            phase=phase_p2(seed=3), repetitions=2, dmc_sizes=(100,), ss_sizes=(100, 200), max_levels=3
        )
        points = cov_study(config, seed=5)
        root = _rng.derive(5)
        for size_idx, n in enumerate(config.ss_sizes):
            streams = [child(root, 1, size_idx, rep) for rep in range(config.repetitions)]
            results = [conflict.pc_ss([config.phase], config.subset_config(n), [s])[0] for s in streams]
            assert points[1 + size_idx] == analysis._cov_point("ss", n, results)
            assert max(res.levels_used for res in results) > 1

    def test_builds_no_table(self, assemble_calls):
        # the SS repetitions return estimates only: no CCDF table is assembled
        q = phase_p1(seed=2)
        config = CovStudyConfig(phase=q, repetitions=3, dmc_sizes=(100,), ss_sizes=(100,))
        cov_study(config, seed=11)
        assert assemble_calls == []

    def test_deterministic(self):
        q = phase_p1(seed=2)
        config = CovStudyConfig(phase=q, repetitions=3, dmc_sizes=(200,), ss_sizes=(100,))
        p1 = cov_study(config, seed=11)
        p2 = cov_study(config, seed=11)
        assert p1 == p2

    def test_methods_match_at_non_rare_phase(self):
        # at a borderline phase both estimators reduce to level-0 sampling,
        # so their spreads agree within a factor of two
        q = phase_p1(seed=2)
        config = CovStudyConfig(phase=q, repetitions=10, dmc_sizes=(100,), ss_sizes=(100,))
        dmc, ss = cov_study(config, seed=13)
        assert not dmc.undefined and not ss.undefined
        assert 0.5 <= ss.cov / dmc.cov <= 2.0

    def test_all_zero_dmc_point_flagged(self):
        # impossible geometry: tiny covariance far from any conflict
        q = phase_p2(seed=3)
        config = CovStudyConfig(phase=q, repetitions=3, dmc_sizes=(10,), ss_sizes=(100,), max_levels=2)
        points = cov_study(config, seed=17)
        dmc = points[0]
        assert dmc.undefined
        assert np.isnan(dmc.cov)
