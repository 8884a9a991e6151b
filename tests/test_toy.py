"""Toy disc-problem tests: distances, Monte Carlo estimates, chains, oracle."""

import math

import numpy as np
import pytest

from subsim import rng as _rng
from subsim.engine import (
    IntervalVariant,
    SubsetConfig,
    run_subset_simulation,
    run_subset_simulations,
)
from subsim.toy import (
    CircleRegion,
    Point2,
    dmc_estimate,
    distance_to_center,
    oracle_probability,
    ss_toy,
    toy_system,
)

REGION = CircleRegion(center=Point2(3.0, -3.0), radius=1.0)


def std_config(max_levels, n=100):
    return SubsetConfig(
        n_samples=n,
        level_probability=0.1,
        max_levels=max_levels,
        interval_variant=IntervalVariant.STANDARD,
    )


class TestDistance:
    def test_coincident(self):
        assert distance_to_center(Point2(3.0, -3.0), REGION) == 0.0

    def test_origin(self):
        assert distance_to_center(Point2(0.0, 0.0), REGION) == pytest.approx(math.sqrt(18.0))

    def test_boundary_counts_as_inside(self):
        d = distance_to_center(Point2(4.0, -3.0), REGION)
        assert d == 1.0
        assert d <= REGION.radius

    def test_symmetry_and_triangle(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            a, b, c = (Point2(*rng.normal(size=2)) for _ in range(3))
            d_ab = distance_to_center(a, CircleRegion(b, 1.0))
            d_ba = distance_to_center(b, CircleRegion(a, 1.0))
            assert d_ab == pytest.approx(d_ba)
            d_ac = distance_to_center(a, CircleRegion(c, 1.0))
            d_cb = distance_to_center(c, CircleRegion(b, 1.0))
            assert d_ab <= d_ac + d_cb + 1e-12
            assert d_ab >= 0.0


class TestOracle:
    def test_covers_everything(self):
        wide = CircleRegion(center=Point2(3.0, -3.0), radius=50.0)
        assert oracle_probability(wide) == pytest.approx(1.0, abs=1e-6)

    def test_centered_disc_closed_form(self):
        centered = CircleRegion(center=Point2(0.0, 0.0), radius=1.0)
        assert oracle_probability(centered) == pytest.approx(1.0 - math.exp(-0.5), rel=1e-6)

    def test_benchmark_region_magnitude(self):
        p = oracle_probability(REGION)
        assert 1e-4 < p < 1e-3

    def test_against_noncentral_chi_square(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        delta2 = 18.0
        expected = scipy_stats.ncx2.cdf(REGION.radius**2, 2, delta2)
        assert oracle_probability(REGION) == pytest.approx(expected, rel=1e-6)


class TestDmcEstimate:
    def test_everything_inside(self):
        wide = CircleRegion(center=Point2(0.0, 0.0), radius=1e3)
        assert dmc_estimate(wide, 100, seed=0) == 1.0

    def test_rejects_zero_samples(self):
        with pytest.raises(ValueError):
            dmc_estimate(REGION, 0, seed=0)

    def test_range(self):
        for s in range(5):
            assert 0.0 <= dmc_estimate(REGION, 1000, seed=s) <= 1.0

    def test_large_sample_matches_oracle(self):
        # frozen seed; 3 binomial standard errors around the oracle value
        p = oracle_probability(REGION)
        n = 10**7
        est = dmc_estimate(REGION, n, seed=2024)
        se = math.sqrt(p * (1 - p) / n)
        assert abs(est - p) < 3 * se


def _chains(seeds, length, threshold, seed, target_scale=None):
    """Per-chain (xy, d) from the toy system's chains on one generator."""
    xy = np.array([s.as_array() for s in seeds])
    d = np.array([distance_to_center(s, REGION) for s in seeds])
    gen = _rng.generator(_rng.derive(seed))
    m = len(seeds)
    out_xy, out_d = toy_system(REGION, target_scale).conditional_chains(
        xy, d, np.full(m, threshold), length, [gen], np.zeros(m, dtype=int)
    )
    return list(zip(out_xy.reshape(m, length, 2), out_d.reshape(m, length)))


def _replay_chain(seed, threshold, steps, uniforms, sigma):
    """One chain, one scalar step at a time, on its rows of the level's draws."""
    c = REGION.center.as_array()
    cur = seed.as_array()
    cur_d = distance_to_center(seed, REGION)
    out_xy, out_d = [], []
    for step, u in zip(steps, uniforms):
        cand = cur + step
        dx = cand[0] - c[0]
        dy = cand[1] - c[1]
        cand_d = math.sqrt(dx * dx + dy * dy)
        log_beta = (cur_d * cur_d - cand_d * cand_d) / (2.0 * sigma * sigma)
        if cand_d <= threshold and u < math.exp(min(0.0, log_beta)):
            cur, cur_d = cand, cand_d
        out_xy.append(cur)
        out_d.append(cur_d)
    return np.array(out_xy), np.array(out_d)


class TestMhChains:
    def test_free_random_walk_never_repeats(self):
        # infinite threshold and an enormous target scale cancel every ratio:
        # each candidate is accepted and the chain is a plain random walk
        seeds = [Point2(0.0, 0.0)]
        (xy, d), = _chains(seeds, 200, threshold=np.inf, seed=9, target_scale=np.inf)
        assert xy.shape == (200, 2)
        assert not np.any(np.all(np.diff(xy, axis=0) == 0.0, axis=1))

    def test_free_random_walk_matches_direct_replay(self):
        # chain j is its seed plus the running sum of block[j] of the level's
        # (m, length, 2) step draw
        seeds = [Point2(0.5, -0.5), Point2(-1.0, 2.0), Point2(3.0, 0.25)]
        chains = _chains(seeds, 30, threshold=np.inf, seed=21, target_scale=np.inf)
        steps = _rng.generator(_rng.derive(21)).standard_normal((3, 30, 2))
        for s, (xy, d), block in zip(seeds, chains, steps):
            walk = np.cumsum(np.vstack([s.as_array(), block]), axis=0)[1:]
            assert np.array_equal(xy, walk)
            assert np.array_equal(d, [distance_to_center(Point2(*p), REGION) for p in walk])

    def test_lockstep_chains_equal_per_chain_replay(self):
        # chain j's steps and uniforms are row j of the level's two blocks,
        # drawn steps first; the accept rule is the scalar one, step by step
        seeds = [Point2(2.0, -2.0), Point2(3.5, -3.0), Point2(2.5, -4.0), Point2(3.0, -2.2)]
        threshold = 1.6
        chains = _chains(seeds, 60, threshold, seed=23)
        gen = _rng.generator(_rng.derive(23))
        steps = gen.standard_normal((4, 60, 2))
        uniforms = gen.random((4, 60))
        moved = 0
        for j, (xy, d) in enumerate(chains):
            ref_xy, ref_d = _replay_chain(seeds[j], threshold, steps[j], uniforms[j], REGION.radius)
            assert np.array_equal(xy, ref_xy)
            assert np.array_equal(d, ref_d)
            moved += np.count_nonzero(np.any(np.diff(xy, axis=0) != 0.0, axis=1))
        assert 0 < moved < 4 * 59  # both branches of the accept step run

    def test_threshold_respected(self):
        seeds = [Point2(4.0, -3.0)]  # on the boundary, distance exactly 1
        (xy, d), = _chains(seeds, 500, threshold=REGION.radius, seed=4)
        assert np.all(d <= REGION.radius)

    def test_candidate_on_threshold_accepted(self):
        # with the tilt switched off, a candidate exactly on the threshold is
        # accepted and one a ulp beyond it is rejected
        seeds = [Point2(3.0, -3.0)]
        step = _rng.generator(_rng.derive(24)).standard_normal((1, 1, 2))[0, 0]
        cand = REGION.center.as_array() + step
        d = distance_to_center(Point2(*cand), REGION)
        (xy, _), = _chains(seeds, 1, threshold=d, seed=24, target_scale=np.inf)
        assert np.array_equal(xy[0], cand)
        (xy, _), = _chains(seeds, 1, threshold=np.nextafter(d, 0.0), seed=24, target_scale=np.inf)
        assert np.array_equal(xy[0], seeds[0].as_array())

    def test_seed_beyond_threshold_rejected(self):
        with pytest.raises(ValueError, match="violates"):
            _chains([Point2(0.0, 0.0)], 10, threshold=1.0, seed=0)

    def test_chain_drifts_toward_center(self):
        # a long chain from a far seed: late samples sit closer to the center
        seeds = [Point2(0.0, 0.0)]
        threshold = math.sqrt(18.0)
        (xy, d), = _chains(seeds, 1000, threshold=threshold, seed=8)
        first, last = d[:250], d[-250:]
        assert last.mean() < first.mean()

    def test_chain_count_and_length(self):
        seeds = [Point2(1.0, -1.0), Point2(2.0, -2.0), Point2(3.0, -2.5)]
        chains = _chains(seeds, 10, threshold=10.0, seed=3)
        assert len(chains) == 3
        assert all(xy.shape == (10, 2) and d.shape == (10,) for xy, d in chains)


class TestSsToy:
    def test_single_level_equals_dmc(self):
        for s in (7, 11, 3):
            res = ss_toy(REGION, std_config(1), seed=s)
            assert res.estimate == dmc_estimate(REGION, 100, seed=s)

    def test_deterministic(self):
        r1 = ss_toy(REGION, std_config(3), seed=5)
        r2 = ss_toy(REGION, std_config(3), seed=5)
        assert r1.estimate == r2.estimate
        assert np.array_equal(r1.table.responses, r2.table.responses)

    def test_runs_all_levels(self):
        res = ss_toy(REGION, std_config(5), seed=5)
        assert res.diagnostics.levels_completed == 5
        assert len(res.table.rows) == 90 * 4 + 100

    def test_two_level_estimate_magnitude(self):
        # the 2-level run reads off around the level-1 crossing, near 2e-2
        ests = [ss_toy(REGION, std_config(2), seed=s).estimate for s in range(20)]
        med = float(np.median(ests))
        assert 5e-3 < med < 5e-2

    def test_chain_responses_respect_thresholds(self):
        res = ss_toy(REGION, std_config(4), seed=2)
        thresholds = res.diagnostics.thresholds
        assert len(thresholds) == 3
        # responses contributed by level i are bounded by threshold b_i
        rows = res.table.rows
        level1 = rows[90:180]
        assert all(r.response <= thresholds[0] for r in level1)

    def test_rows_reproduce_their_responses(self):
        res = ss_toy(REGION, std_config(3), seed=6)
        for row in res.table.rows[::7]:
            d = distance_to_center(Point2(row.sample[0], row.sample[1]), REGION)
            assert d == row.response


class TestLockstepProblems:
    """Toy problems run together give each problem exactly its one-problem result."""

    def _assert_same(self, a, b):
        assert a.estimate == b.estimate and a.diagnostics == b.diagnostics
        assert np.array_equal(a.table.probabilities, b.table.probabilities)
        assert np.array_equal(a.table.responses, b.table.responses)
        assert np.array_equal(a.table.samples, b.table.samples)

    def test_fixed_level_batch_equals_ss_toy(self):
        seeds = (5, 6, 7)
        batch = run_subset_simulations(
            toy_system(REGION), std_config(4), REGION.radius, seeds, stop_on_rare_count=False
        )
        for seed, result in zip(seeds, batch):
            self._assert_same(result, ss_toy(REGION, std_config(4), seed=seed))

    def test_early_stops_at_different_levels(self):
        # a threshold-coupled tilt and the rare-count stop: the problems stop
        # after different numbers of levels, each as it would alone
        system = toy_system(REGION, target_scale="threshold")
        seeds = tuple(range(20, 28))
        batch = run_subset_simulations(system, std_config(7), REGION.radius, seeds)
        levels = {r.diagnostics.levels_completed for r in batch}
        assert len(levels) > 1
        for seed, result in zip(seeds, batch):
            alone = run_subset_simulation(system, std_config(7), REGION.radius, seed)
            self._assert_same(result, alone)
