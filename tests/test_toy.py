"""Toy disc-problem tests: distances, Monte Carlo estimates, chains, oracle."""

import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from streams import generator
from subsim import rng as _rng
from subsim import toy
from subsim.engine import (
    CHAIN_CORRELATION,
    IntervalVariant,
    SubsetConfig,
    conditional_chains,
    run_subset_simulations,
)
from subsim.toy import (
    CircleRegion,
    Point2,
    dmc_estimate,
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


def distance_to_center(sample: Point2, region: CircleRegion) -> float:
    """Scalar reference for the toy system's response: the Euclidean distance
    from the sample to the region center.

    Written as sqrt(dx*dx + dy*dy), as the batch path is, so the two agree bit
    for bit.
    """
    dx = sample.x - region.center.x
    dy = sample.y - region.center.y
    return math.sqrt(dx * dx + dy * dy)


def _response(sample: Point2, region: CircleRegion) -> float:
    """The toy system's response at one sample."""
    return float(toy_system(region).evaluate(sample.as_array()[None], np.zeros(1, dtype=int))[0])


class TestDistance:
    def test_coincident(self):
        assert _response(Point2(3.0, -3.0), REGION) == 0.0

    def test_origin(self):
        assert _response(Point2(0.0, 0.0), REGION) == pytest.approx(math.sqrt(18.0))

    def test_boundary_counts_as_inside(self):
        d = _response(Point2(4.0, -3.0), REGION)
        assert d == 1.0
        assert d <= REGION.radius

    def test_symmetry_and_triangle(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            a, b, c = (Point2(*rng.normal(size=2)) for _ in range(3))
            d_ab = _response(a, CircleRegion(b, 1.0))
            assert d_ab == distance_to_center(a, CircleRegion(b, 1.0))
            d_ba = _response(b, CircleRegion(a, 1.0))
            assert d_ab == pytest.approx(d_ba)
            d_ac = _response(a, CircleRegion(c, 1.0))
            d_cb = _response(c, CircleRegion(b, 1.0))
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

    @pytest.mark.parametrize("radius", [0.0, -1.0, math.inf, math.nan])
    def test_radius_must_be_positive_and_finite(self, radius):
        with pytest.raises(ValueError, match="radius"):
            CircleRegion(center=Point2(3.0, -3.0), radius=radius)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_non_finite_integral_raises(self):
        # a disc that slips past CircleRegion's check: its NaN integral is an
        # error at the first grid, not a reason to keep refining
        endless = SimpleNamespace(center=Point2(3.0, -3.0), radius=math.inf)
        with pytest.raises(ValueError, match="not finite"):
            oracle_probability(endless)

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

    def test_numpy_count_gives_a_python_float(self):
        wide = CircleRegion(center=Point2(0.0, 0.0), radius=2.0)
        est = dmc_estimate(wide, np.int64(100), seed=3)
        assert type(est) is float
        assert est == dmc_estimate(wide, 100, seed=3)

    def test_large_sample_matches_oracle(self):
        # frozen seed; 3 binomial standard errors around the oracle value
        p = oracle_probability(REGION)
        n = 10**7
        est = dmc_estimate(REGION, n, seed=2024)
        se = math.sqrt(p * (1 - p) / n)
        assert abs(est - p) < 3 * se


def _chains(seeds, length, threshold, seed):
    """Per-chain (xy, d) of the engine's chains on the toy system, the
    innovations one (m, length, 2) block of one generator."""
    xy = np.array([s.as_array() for s in seeds])
    d = np.array([distance_to_center(s, REGION) for s in seeds])
    gen = generator(_rng.derive(seed))
    m = len(seeds)
    system = toy_system(REGION)
    out_xy, out_d = conditional_chains(
        system, xy, d, np.full(m, threshold),
        gen.standard_normal((m, length, 2)), np.zeros(m, dtype=int),
    )
    return list(zip(out_xy, out_d))


def _replay_chain(seed, threshold, innovations):
    """One chain, one scalar step at a time: z' = rho z + sqrt(1 - rho^2) xi,
    accepted iff the candidate lies within the threshold."""
    c = REGION.center.as_array()
    cur = seed.as_array()
    out_xy, out_d = [], []
    for xi in innovations:
        cand = CHAIN_CORRELATION * cur + math.sqrt(1.0 - CHAIN_CORRELATION**2) * xi
        dx = cand[0] - c[0]
        dy = cand[1] - c[1]
        cand_d = math.sqrt(dx * dx + dy * dy)
        if cand_d <= threshold:
            cur = cand
        out_xy.append(cur)
        out_d.append(distance_to_center(Point2(*cur), REGION))
    return np.array(out_xy), np.array(out_d)


class TestMhChains:
    def test_free_random_walk_never_repeats(self):
        # with an infinite threshold every candidate is accepted
        seeds = [Point2(0.0, 0.0)]
        (xy, d), = _chains(seeds, 200, threshold=np.inf, seed=9)
        assert xy.shape == (200, 2)
        assert not np.any(np.all(np.diff(xy, axis=0) == 0.0, axis=1))

    def test_free_random_walk_matches_direct_replay(self):
        # with nothing rejected, chain j is the autoregression
        # z' = rho z + sqrt(1 - rho^2) xi on block[j] of the level's
        # (m, length, 2) draw
        seeds = [Point2(0.5, -0.5), Point2(-1.0, 2.0), Point2(3.0, 0.25)]
        chains = _chains(seeds, 30, threshold=np.inf, seed=21)
        blocks = generator(_rng.derive(21)).standard_normal((3, 30, 2))
        for s, (xy, d), block in zip(seeds, chains, blocks):
            ref_xy, ref_d = _replay_chain(s, np.inf, block)
            assert np.array_equal(xy, ref_xy)
            assert np.array_equal(d, ref_d)

    def test_lockstep_chains_equal_per_chain_replay(self):
        # chain j's innovations are row j of the level's block; the accept
        # rule is the scalar one, step by step
        seeds = [Point2(2.0, -2.0), Point2(3.5, -3.0), Point2(2.5, -4.0), Point2(3.0, -2.2)]
        threshold = 1.6
        chains = _chains(seeds, 60, threshold, seed=23)
        blocks = generator(_rng.derive(23)).standard_normal((4, 60, 2))
        moved = 0
        for j, (xy, d) in enumerate(chains):
            ref_xy, ref_d = _replay_chain(seeds[j], threshold, blocks[j])
            assert np.array_equal(xy, ref_xy)
            assert np.array_equal(d, ref_d)
            moved += np.count_nonzero(np.any(np.diff(xy, axis=0) != 0.0, axis=1))
        assert 0 < moved < 4 * 59  # both branches of the accept step run

    def test_threshold_respected(self):
        seeds = [Point2(4.0, -3.0)]  # on the boundary, distance exactly 1
        (xy, d), = _chains(seeds, 500, threshold=REGION.radius, seed=4)
        assert np.all(d <= REGION.radius)

    def test_candidate_on_threshold_accepted(self):
        # a candidate exactly on the threshold is accepted and one a ulp
        # beyond it is rejected
        seeds = [Point2(3.0, -3.0)]
        xi = generator(_rng.derive(24)).standard_normal((1, 1, 2))[0, 0]
        cand = CHAIN_CORRELATION * seeds[0].as_array() + math.sqrt(1.0 - CHAIN_CORRELATION**2) * xi
        d = distance_to_center(Point2(*cand), REGION)
        (xy, _), = _chains(seeds, 1, threshold=d, seed=24)
        assert np.array_equal(xy[0], cand)
        (xy, _), = _chains(seeds, 1, threshold=np.nextafter(d, 0.0), seed=24)
        assert np.array_equal(xy[0], seeds[0].as_array())

    def test_seed_beyond_threshold_rejected(self):
        with pytest.raises(ValueError, match="violates"):
            _chains([Point2(0.0, 0.0)], 10, threshold=1.0, seed=0)

    def test_chain_settles_to_the_prior_within_its_level(self):
        # seeded on the edge of the level, far from the prior's bulk inside
        # it, the chain settles to the standard normal restricted to the
        # level: its distances match those of direct draws under the threshold
        threshold = 3.0
        seeds = [Point2(3.0, 0.0)]
        (xy, d), = _chains(seeds, 4000, threshold=threshold, seed=8)
        draws = generator(_rng.derive(80)).standard_normal((200_000, 2))
        ref = np.hypot(draws[:, 0] - 3.0, draws[:, 1] + 3.0)
        ref = ref[ref <= threshold]
        settled = d[100::10]  # past burn-in, thinned to near independence
        assert abs(settled.mean() - ref.mean()) < 4 * ref.std() / math.sqrt(len(settled))
        assert 0.8 < settled.std() / ref.std() < 1.2

    def test_chain_count_and_length(self):
        seeds = [Point2(1.0, -1.0), Point2(2.0, -2.0), Point2(3.0, -2.5)]
        chains = _chains(seeds, 10, threshold=10.0, seed=3)
        assert len(chains) == 3
        assert all(xy.shape == (10, 2) and d.shape == (10,) for xy, d in chains)


class TestSsToy:
    def test_single_level_equals_dmc(self):
        # level 0 is DMC on the same draws: D/N under both ladders.  On this
        # near disc seeds 7, 11 and 3 put 19, 13 and 13 draws inside.
        near = CircleRegion(center=Point2(1.0, -1.0), radius=1.0)
        for variant in IntervalVariant:
            config = replace(std_config(1), interval_variant=variant)
            for s in (7, 11, 3):
                res = ss_toy(near, config, seed=s)
                assert res.diagnostics.conflict_count >= 13
                assert res.estimate == dmc_estimate(near, 100, seed=s)
        # on REGION nothing lands inside: both read 0 under STANDARD
        for s in (7, 11, 3):
            res = ss_toy(REGION, std_config(1), seed=s)
            assert res.estimate == dmc_estimate(REGION, 100, seed=s) == 0.0

    def test_one_toy_system_per_estimate(self, monkeypatch):
        # ss_toy reads the module's toy_system once per estimate, so a
        # wrapper set on subsim.toy.toy_system sees every estimate
        calls = []
        system = toy.toy_system

        def counting(region):
            calls.append(region)
            return system(region)

        monkeypatch.setattr(toy, "toy_system", counting)
        for s in range(3):
            ss_toy(REGION, std_config(3), seed=s)
        assert calls == [REGION] * 3

    def test_table_equals_eager_assembly(self, assemble_calls, eager_tables):
        # the table is assembled on its first read, and equals the table
        # assembled when the descent stopped
        lazy = [ss_toy(REGION, std_config(8), seed=s) for s in (5, 6)]
        assert assemble_calls == []
        tables = [res.table for res in lazy]
        assert len(assemble_calls) == 2
        eager_tables()
        for s, table in zip((5, 6), tables):
            eager = ss_toy(REGION, std_config(8), seed=s).table
            assert eager.levels_completed == table.levels_completed
            assert np.array_equal(eager.probabilities, table.probabilities)
            assert np.array_equal(eager.responses, table.responses)
            assert np.array_equal(eager.samples, table.samples)

    def test_deterministic(self):
        r1 = ss_toy(REGION, std_config(3), seed=5)
        r2 = ss_toy(REGION, std_config(3), seed=5)
        assert r1.estimate == r2.estimate
        assert np.array_equal(r1.table.responses, r2.table.responses)

    def test_stops_on_rare_count(self):
        # the descent ends at the first level holding N_c samples in the disc
        res = ss_toy(REGION, std_config(8), seed=5)
        d = res.diagnostics
        assert 1 < d.levels_used < 8
        assert d.conflict_count >= 10
        assert len(res.table.rows) == 90 * (d.levels_used - 1) + 100
        # fewer than N_c samples in the disc keeps a level's threshold outside it
        assert all(b > REGION.radius for b in d.thresholds)

    def test_two_level_estimate_magnitude(self):
        # two levels cannot reach a 2.5e-4 disc at N=100: the read-off is the
        # level-1 fraction in the disc, at most a few in 1e-3, never the
        # 2e-2 that a chain pulled toward the center reads
        ests = [ss_toy(REGION, std_config(2), seed=s).estimate for s in range(20)]
        assert max(ests) < 5e-3

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


class TestOracleGuard:
    """The estimate tracks the oracle on the benchmark's three discs."""

    @pytest.mark.parametrize("c", [2.5, 3.0, 4.0])
    def test_mean_within_three_se_of_oracle(self, c):
        # N=1000, p0=0.1, up to 8 levels, STANDARD ladder; 60 seeds per disc.
        # The oracles are about 2.6e-3, 2.5e-4 and 6.2e-7.
        region = CircleRegion(center=Point2(c, -c), radius=1.0)
        oracle = oracle_probability(region)
        ests = np.array([ss_toy(region, std_config(8, n=1000), seed=s).estimate for s in range(60)])
        se = ests.std(ddof=1) / math.sqrt(len(ests))
        assert abs(ests.mean() - oracle) <= 3 * se


def _toy_copies(k):
    """K problems, each the toy disc."""
    one = toy_system(REGION)
    return replace(one, mean=np.zeros((k, 2)), chol=np.tile(np.eye(2), (k, 1, 1)))


class TestLockstepProblems:
    """Toy problems run together give each problem exactly its one-problem result."""

    def _assert_same(self, a, b):
        assert a.estimate == b.estimate and a.diagnostics == b.diagnostics
        assert np.array_equal(a.table.probabilities, b.table.probabilities)
        assert np.array_equal(a.table.responses, b.table.responses)
        assert np.array_equal(a.table.samples, b.table.samples)

    def test_fixed_level_batch_equals_ss_toy(self):
        # three levels cannot reach the rare count, so every problem runs to the cap
        seeds = (5, 6, 7)
        batch = list(run_subset_simulations(_toy_copies(len(seeds)), std_config(3), seeds))
        for seed, result in zip(seeds, batch):
            assert result.diagnostics.levels_used == 3
            self._assert_same(result, ss_toy(REGION, std_config(3), seed=seed))

    def test_early_stops_at_different_levels(self):
        # the problems stop after different numbers of levels, each as it would alone
        seeds = tuple(range(20, 28))
        batch = list(run_subset_simulations(_toy_copies(len(seeds)), std_config(7), seeds))
        levels = {r.diagnostics.levels_used for r in batch}
        assert len(levels) > 1
        for seed, result in zip(seeds, batch):
            self._assert_same(result, ss_toy(REGION, std_config(7), seed=seed))
