"""Spread-study tests: phase freezing, coefficient of variation, budget accounting."""

import numpy as np
import pytest

from subsim import analysis, conflict
from subsim import rng as _rng
from subsim.analysis import (
    CovPoint,
    CovStudyConfig,
    binomial_cov,
    coefficient_of_variation,
    cov_study,
    freeze_phase,
    phase_p1,
    phase_p2,
)
from subsim.conflict import simulate_scenario
from subsim.dynamics import AircraftState, transition_matrix
from subsim.engine import SubsetConfig
from subsim.scenarios import build_head_on, initial_states
from subsim.tracking import KalmanEstimate, initial_estimate, kf_step, simulate_measurement


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
        with pytest.raises(ValueError):
            freeze_phase(spec, at_time=0.033, seed=1)

    def test_out_of_range_time_rejected(self):
        spec = build_head_on(152.4)
        with pytest.raises(ValueError):
            freeze_phase(spec, at_time=25.0, seed=1)

    @pytest.mark.parametrize("k", [1, 20, 137, 400])
    def test_equals_scenario_step(self, k):
        # the frozen query is step k of the encounter at the same seed
        spec = build_head_on(152.4)
        q = freeze_phase(spec, at_time=k * spec.dt, seed=9)
        config = SubsetConfig(n_samples=100, level_probability=0.1, max_levels=2)
        (record,) = simulate_scenario(spec, config, seed=9, estimate_steps=[k])
        assert record.step == k
        assert q.observer == record.observer_truth
        assert q.intruder_estimate.mean == record.estimate.mean
        assert np.array_equal(q.intruder_estimate.covariance, record.estimate.covariance)
        assert q.horizon == spec.duration

    def test_equals_reference_filter_loop(self):
        # the public pieces on the documented streams: the filter starts from
        # child(root, 0), the measurement at step k comes from child(root, k, 0)
        spec = build_head_on(152.4)
        k_stop, seed = 45, 6
        q = freeze_phase(spec, at_time=k_stop * spec.dt, seed=seed)
        root = _rng.derive(seed)
        observer, intruder = initial_states(spec)
        est = initial_estimate(
            intruder,
            spec.noise,
            _rng.generator(_rng.child(root, 0)),
            pos_std=spec.init_pos_std,
            vel_std=spec.init_vel_std,
            acc_std=spec.init_acc_std,
        )
        mean, cov = est.mean.as_array(), est.covariance
        a = transition_matrix(spec.dt)
        obs, intr = observer.as_array(), intruder.as_array()
        measured = []
        for k in range(1, k_stop + 1):
            obs, intr = a @ obs, a @ intr
            z = None
            if k > 1 and (k - 1) % spec.measurement_stride == 0:
                gen = _rng.generator(_rng.child(root, k, 0))
                z = simulate_measurement(AircraftState.from_array(intr), spec.noise, gen)
                measured.append(k)
            mean, cov = kf_step(mean, cov, z, spec.dt, spec.noise)
        assert measured == [11, 21, 31, 41]
        assert q.observer == AircraftState.from_array(obs)
        assert q.intruder_estimate.mean == AircraftState.from_array(mean)
        assert np.array_equal(q.intruder_estimate.covariance, cov)

    def test_builds_one_estimate(self, monkeypatch):
        # the filter runs on arrays; only the frozen step's posterior is
        # wrapped in a validated estimate
        built = []

        class Counting(KalmanEstimate):
            def __post_init__(self):
                built.append(self)
                super().__post_init__()

        monkeypatch.setattr(conflict, "KalmanEstimate", Counting)
        q = freeze_phase(build_head_on(152.4), at_time=2.0, seed=1)
        assert len(built) == 1 and built[0] is q.intruder_estimate

    def test_deterministic(self):
        spec = build_head_on(152.4)
        q1 = freeze_phase(spec, at_time=1.0, seed=4)
        q2 = freeze_phase(spec, at_time=1.0, seed=4)
        assert q1.observer == q2.observer
        assert q1.intruder_estimate.mean == q2.intruder_estimate.mean
        assert np.array_equal(q1.intruder_estimate.covariance, q2.intruder_estimate.covariance)

    def test_horizon_is_scenario_duration(self):
        q = phase_p2(seed=5)
        assert q.horizon == 200.0
        assert q.sample_rate == 20.0

    def test_p1_phase_is_borderline(self):
        q = phase_p1(seed=5)
        assert q.observer.x == pytest.approx(77.17, abs=0.05)
        assert q.intruder_estimate.mean.y == pytest.approx(152.4, abs=2.0)

    def test_covariance_is_psd(self):
        q = phase_p2(seed=5)
        assert np.min(np.linalg.eigvalsh(q.intruder_estimate.covariance)) >= -1e-12


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
            {"ss_sizes": (10,), "level_probability": 0.25},  # valid at the default p0 = 0.1
            {"max_levels": 0},
        ],
    )
    def test_bad_budget_rejected(self, budgets):
        with pytest.raises(ValueError):
            CovStudyConfig(phase=phase_p1(seed=2), repetitions=2, **budgets)

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
        # cov_study reads the module's pc_dmc once per repetition and DMC
        # budget, so a wrapper set on subsim.analysis.pc_dmc sees each one
        calls = []
        dmc = analysis.pc_dmc

        def counting(query, n, seed):
            calls.append(n)
            return dmc(query, n, seed)

        monkeypatch.setattr(analysis, "pc_dmc", counting)
        q = phase_p1(seed=2)
        config = CovStudyConfig(phase=q, repetitions=3, dmc_sizes=(100, 200), ss_sizes=(100,))
        cov_study(config, seed=11)
        assert calls == [100] * 3 + [200] * 3

    def test_one_engine_run_for_every_ss_budget(self, monkeypatch):
        # the SS repetitions of all budgets share one lockstep run; DMC keeps
        # one pc_dmc call per budget and repetition
        runs, dmc_calls = [], []
        run, dmc = conflict.run_subset_simulations, analysis.pc_dmc

        def counting_run(system, configs, threshold, seeds):
            runs.append([config.n_samples for config in configs])
            return run(system, configs, threshold, seeds)

        def counting_dmc(query, n, seed):
            dmc_calls.append(n)
            return dmc(query, n, seed)

        monkeypatch.setattr(conflict, "run_subset_simulations", counting_run)
        monkeypatch.setattr(analysis, "pc_dmc", counting_dmc)
        config = CovStudyConfig(
            phase=phase_p1(seed=2), repetitions=2, dmc_sizes=(100, 200), ss_sizes=(100, 200, 500)
        )
        cov_study(config, seed=11)
        assert runs == [[100, 100, 200, 200, 500, 500]]
        assert dmc_calls == [100] * 2 + [200] * 2

    def test_ss_points_read_each_repetitions_own_stream(self):
        # SS repetition rep of budget i is pc_ss on stream child(root, 1, i, rep)
        config = CovStudyConfig(
            phase=phase_p2(seed=3), repetitions=2, dmc_sizes=(100,), ss_sizes=(100, 200), max_levels=3
        )
        points = cov_study(config, seed=5)
        root = _rng.derive(5)
        for size_idx, n in enumerate(config.ss_sizes):
            results = [
                conflict.pc_ss(config.phase, config.subset_config(n), _rng.child(root, 1, size_idx, rep))[0]
                for rep in range(config.repetitions)
            ]
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
