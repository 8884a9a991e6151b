"""Toy disc-problem tests: distances, Monte Carlo estimates, oracle.

The engine's contract and its chain are tested once, on this system among
others, in `test_engine.py`."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from subsim import toy
from subsim.engine import IntervalVariant, SubsetConfig
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

    def test_large_sample_matches_oracle(self):
        # frozen seed; 3 binomial standard errors around the oracle value
        p = oracle_probability(REGION)
        n = 10**7
        est = dmc_estimate(REGION, n, seed=2024)
        se = math.sqrt(p * (1 - p) / n)
        assert abs(est - p) < 3 * se


class TestSsToy:
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

    def test_two_level_estimate_magnitude(self):
        # two levels cannot reach a 2.5e-4 disc at N=100: the read-off is the
        # level-1 fraction in the disc, at most a few in 1e-3, never the
        # 2e-2 that a chain pulled toward the center reads
        ests = [ss_toy(REGION, std_config(2), seed=s).estimate for s in range(20)]
        assert max(ests) < 5e-3


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
