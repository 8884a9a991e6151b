"""The continuous-time miss-distance kernel, against a dense grid scan.

`dense.miss_distance_scan` at 2 kHz is the reference: the kernel's miss m and
the scan's g satisfy -rounding <= g - m <= gap + rounding per row, the gap
being the relative speed times half the grid step (`dense.scan_tolerance`
derives both terms).
"""

import warnings

import numpy as np
import pytest

import dense
from streams import generator
from subsim import rng as _rng
from subsim.analysis import freeze_phase, phase_p1, phase_p2
from subsim.conflict import _cholesky_with_jitter
from subsim.dynamics import _critical_points, _dots, miss_distance_batch, transition_matrix
from subsim.engine import RareEventSystem, direct_monte_carlo
from subsim.scenarios import build_head_on

DENSE_RATE = 2000.0
OBSERVER = np.array([0.0, 100.0, 0.0, 0.0, 0.0, 0.0])


def _miss(states, observer=OBSERVER, horizon=200.0, problem=None):
    """The kernel on one observer (6,), or on K observers (K, 6) with
    `problem`, all at one horizon."""
    states = np.atleast_2d(states)
    if problem is None:
        observer, problem = observer[None], np.zeros(len(states), np.intp)
    return miss_distance_batch(states, observer, problem, np.full(len(observer), horizon))


def _assert_near_scan(states, observer=OBSERVER, horizon=200.0, problem=None, rate=DENSE_RATE):
    """The kernel within `dense.scan_tolerance` of the dense scan; returns (miss, tca)."""
    states = np.atleast_2d(states)
    miss, tca = _miss(states, observer, horizon, problem)
    grid, _ = dense.miss_distance_scan(states, observer, horizon, rate, problem)
    rounding, gap = dense.scan_tolerance(states, observer, horizon, rate, problem)
    assert np.all(grid - miss >= -rounding)
    assert np.all(grid - miss <= gap + rounding)
    assert np.all((0.0 <= tca) & (tca <= horizon))
    return miss, tca


def _draws(q, n, key):
    """n draws of the intruder posterior of query `q`, from stream `key`."""
    z = generator(_rng.derive(key)).standard_normal((n, 6))
    return q.mean + z @ _cholesky_with_jitter(q.cov).T


def _phase(name):
    if name == "p1":
        return phase_p1(seed=1)
    if name == "p2":
        return phase_p2(seed=2)
    return freeze_phase(build_head_on(0.0, 2000.0), at_time=10.0, seed=3)


def _passing(t_min, offset, speed=50.0, accel=0.2):
    """OBSERVER plus a relative x of speed (t - t_min) + accel/2 (t - t_min)^2
    and a constant relative y: a pass `offset` m abeam at t_min."""
    return OBSERVER + [
        -speed * t_min + 0.5 * accel * t_min * t_min, speed - accel * t_min, accel, offset, 0.0, 0.0
    ]


def _linear_cpa(states, observer, horizon):
    """Closest approach of unaccelerated relative motion q0 + q1 t, by hand."""
    rel = states - observer
    q0, q1 = rel[:, [0, 3]], rel[:, [1, 4]]
    t = np.clip(-(q0 * q1).sum(axis=1) / (q1 * q1).sum(axis=1), 0.0, horizon)
    return np.hypot(*(q0 + q1 * t[:, None]).T), t


class TestKernelShapes:
    """Shapes, degenerate horizons and inputs of the kernel."""

    def test_shapes_and_finiteness(self):
        rng = np.random.default_rng(0)
        states = rng.normal(size=(37, 6)) * np.array([1000.0, 80.0, 1.0, 1000.0, 8.0, 1.0])
        miss, tca = _miss(states, horizon=20.0)
        assert miss.shape == (37,) and tca.shape == (37,)
        assert np.all(np.isfinite(miss)) and np.all(miss >= 0.0)
        assert np.all((0.0 <= tca) & (tca <= 20.0))

    def test_single_point_track(self):
        # a zero horizon leaves one time, t = 0
        states = np.array([[3.0, 10.0, 1.0, 4.0, -5.0, 0.0]])
        miss, tca = _miss(states, np.zeros(6), horizon=0.0)
        assert miss[0] == 5.0 and tca[0] == 0.0

    def test_ties_take_first_index(self):
        # stationary pair: every time ties, and the kernel reports t = 0
        miss, tca = _miss([10.0, 0.0, 0.0, 0.0, 0.0, 0.0], np.zeros(6), horizon=5.0)
        assert miss[0] == 10.0 and tca[0] == 0.0

    # nearly linear motion: the smallest root (candidate 1) and the linear
    # closest approach (candidate 2) lie a few ulps apart at the same squared
    # distance, below that of the largest root (candidate 0, clipped to the
    # horizon)
    NEAR_TIES = np.array([
        [116.0, -59.0, 5e-7, -989.0, 28.0, -3e-7],
        [-1207.0, -78.0, 2e-7, 1757.0, -112.0, 5e-7],
        [970.0, 61.0, -5e-7, 642.0, -131.0, 8e-7],
        [-359.0, -20.0, 2e-7, 369.0, -56.0, 3e-7],
        [-735.0, 121.0, -4e-7, -975.0, 11.0, 0.0],
        [944.0, -96.0, 9e-7, -1088.0, -79.0, 6e-7],
    ])

    def test_tied_later_candidates_take_the_first(self):
        q = self.NEAR_TIES.T.copy()
        q[2::3] *= 0.5
        dots = _dots(q)
        t = np.clip(np.vstack([_critical_points(dots), -dots[4] / dots[2]]), 0.0, 100.0)
        x0, x1, x2, y0, y1, y2 = q
        d2 = ((x2 * t + x1) * t + x0) ** 2 + ((y2 * t + y1) * t + y0) ** 2
        tied = (d2[1] == d2[2]) & (d2[2] < d2[0]) & (t[1] != t[2])
        assert tied.any()
        _, tca = _miss(self.NEAR_TIES, np.zeros(6), horizon=100.0)
        assert np.array_equal(tca[tied], t[1, tied])

    def test_chunking_is_transparent(self):
        # a row's result does not depend on the rows beside it: one call
        # equals one-row calls, bit for bit
        q = phase_p2(seed=2)
        states = _draws(q, 64, 5)
        whole = _miss(states, q.observer, q.horizon)
        for i in range(len(states)):
            one = _miss(states[i], q.observer, q.horizon)
            assert (one[0][0], one[1][0]) == (whole[0][i], whole[1][i])

    def test_input_validation(self):
        with pytest.raises(ValueError, match="states"):
            _miss(np.zeros((3, 5)))
        with pytest.raises(ValueError, match="states"):
            _miss(np.zeros((2, 3, 6)))
        with pytest.raises(ValueError, match="observer"):
            _miss(np.zeros((3, 6)), OBSERVER[:5])
        with pytest.raises(ValueError, match="observer"):
            _miss(np.zeros((3, 6)), np.zeros((1, 2, 6)))


class TestClosedForm:
    """`miss_distance_batch` against the dense scan on constant-acceleration motion."""

    @pytest.mark.parametrize("phase", ["p1", "p2", "head-on"])
    def test_posterior_draws(self, phase):
        q = _phase(phase)
        # p2's 200 s horizon is 400,001 dense points a row
        states = _draws(q, 150 if phase == "p2" else 600, 17)
        observer = q.observer
        miss, _ = _assert_near_scan(states, observer, q.horizon)
        # and never above the 20 Hz grid minimum either
        grid, _ = dense.miss_distance_scan(states, observer, q.horizon, 20.0)
        rounding, _ = dense.scan_tolerance(states, observer, q.horizon, 20.0)
        assert np.all(miss <= grid + rounding)
        assert (miss < grid).any()

    def test_blocks_are_transparent(self):
        # the rows of a batch in another order give the same bits, row by row
        q = phase_p2(seed=2)
        states = _draws(q, 300, 18)
        order = generator(_rng.derive(19)).permutation(300)
        whole = _miss(states, q.observer, q.horizon)
        shuffled = _miss(states[order], q.observer, q.horizon)
        assert np.array_equal(whole[0][order], shuffled[0])
        assert np.array_equal(whole[1][order], shuffled[1])

    def test_minimum_at_either_endpoint(self):
        receding = [500.0, 150.0, 0.1, 50.0, 0.0, 0.0]  # ahead, pulling away
        closing = [-20000.0, 150.0, 0.0, 300.0, -0.5, 0.01]  # passes after the horizon
        _, tca = _assert_near_scan(np.array([receding, closing]))
        assert tca[0] == 0.0 and tca[1] == 200.0

    def test_two_local_minima(self):
        # relative x = 75 - 2t + 0.01t^2 crosses zero at 50 s and at 150 s, the
        # second pass being a re-approach; relative y picks the deeper pass
        x = [75.0, 98.0, 0.02]
        second_deeper = [x + [300.0, -1.5, 0.0]]
        first_deeper = [x + [75.0, 1.5, 0.0]]
        tie = [x + [100.0, 0.0, 0.0]]
        miss, tca = _assert_near_scan(np.array(second_deeper + first_deeper + tie))
        assert tca[0] > 150.0 and tca[1] < 50.0
        # both passes of the tie are 100 m abeam, at 50 s and 150 s
        assert miss[2] == pytest.approx(100.0, rel=1e-12)
        assert min(abs(tca[2] - 50.0), abs(tca[2] - 150.0)) < 1e-6

    def test_min_max_min_row_is_settled(self):
        # relative x = 750 - 20t + 0.1t^2 crosses zero at 50 s and 150 s and
        # swings to -250 m between; relative y = 60 + 0.2t.  |q|^2 has minima
        # near 50 s (70 m, the deeper) and 150 s (90 m) and a maximum near
        # 100 s: the kernel takes the deeper minimum
        state = np.array([[750.0, 80.0, 0.2, 60.0, 0.2, 0.0]])
        miss, tca = _assert_near_scan(state)
        assert 49.5 < tca[0] < 50.5 and 69.0 < miss[0] < 71.0

    @pytest.mark.parametrize("k", [1, 2, 3, 3997, 3998, 3999])
    def test_minimum_next_to_an_end(self, k):
        # passes one to three 20 Hz steps from either end of the horizon
        t_min = k * 0.05
        miss, tca = _assert_near_scan(_passing(t_min, 30.0))
        assert tca[0] == pytest.approx(t_min, abs=1e-9)
        assert miss[0] == pytest.approx(30.0, rel=1e-12)

    def test_first_point_ties_a_later_minimum(self):
        # relative x = -t + 0.01t^2 is exactly 0 at 0 s and at 100 s, 100 m
        # abeam both times
        state = np.array([[0.0, 99.0, 0.02, 100.0, 0.0, 0.0]])
        miss, tca = _assert_near_scan(state)
        assert miss[0] == pytest.approx(100.0, rel=1e-12)
        assert tca[0] == 0.0 or tca[0] == pytest.approx(100.0, abs=1e-6)

    @pytest.mark.parametrize("t_min, accel, end", [(199.9, -1e-9, 0), (0.1, 1e-9, -1)])
    def test_track_end_inside_the_margin(self, t_min, accel, end):
        # a 1 um/s pass 1,000 m abeam near one end of the horizon, the
        # quartic's other minimum beyond that end: the whole curve, out to
        # the far end (the 20 Hz track's point `end`), lies within rounding
        # of 1,000 m, and the kernel stays within it
        state = np.array([_passing(t_min, 1000.0, speed=1e-6, accel=accel)])
        miss, _ = _assert_near_scan(state)
        rounding, _ = dense.scan_tolerance(state, OBSERVER, 200.0, DENSE_RATE)
        tracks = dense.track_positions(np.vstack([state, OBSERVER]), 20.0, 200.0)
        far = tracks[0, end] - tracks[1, end]
        assert abs(miss[0] - 1000.0) <= rounding[0]
        assert abs(np.hypot(*far) - miss[0]) <= rounding[0]

    def test_zero_relative_acceleration(self):
        # the true states of a scenario: no relative acceleration, so the
        # CPA is the linear motion's, clipped to the horizon
        observer = np.array([0.0, 100.0, 0.3, 0.0, 0.0, -0.2])
        states = np.array([[3000.0, -80.0, 0.3, 200.0, 1.0, -0.2], [100.0, 0.0, 0.3, 0.0, 3.0, -0.2]])
        miss, tca = _assert_near_scan(states, observer)
        ref_miss, ref_tca = _linear_cpa(states, observer, 200.0)
        assert np.allclose(miss, ref_miss, rtol=1e-12, atol=0.0)
        assert np.allclose(tca, ref_tca, rtol=1e-12, atol=0.0)

    def test_vanishing_relative_acceleration(self):
        # a tiny relative acceleration makes Cardano's shift b/3a blow up; the
        # linear candidate carries those rows, and the miss tends to the
        # unaccelerated one as the acceleration vanishes
        observer = np.array([0.0, 100.0, 0.3, 0.0, 0.0, -0.2])
        base = np.array([3000.0, -80.0, 0.3, 200.0, 1.0, -0.2])
        accel = np.array([0.0, 1e-20, 1e-16, 1e-12, 1e-8, 1e-4, 1e-1])
        states = np.tile(base, (len(accel), 1))
        states[:, 2] += accel
        miss, _ = _assert_near_scan(states, observer)
        flat, _ = _linear_cpa(base[None], observer, 200.0)
        # a relative acceleration a moves the CPA by at most a t^2 / 2 over the
        # 16.7 s to the pass
        assert np.all(np.abs(miss - flat[0]) <= 0.5 * accel * 16.7**2 + 1e-9)

    def test_identical_motion_takes_index_zero(self):
        observer = np.array([1500.0, 90.0, 0.4, -700.0, 20.0, -0.1])
        miss, tca = _assert_near_scan(np.tile(observer, (3, 1)), observer)
        assert np.all(miss == 0.0) and np.all(tca == 0.0)

    def test_flat_curve(self):
        # nearly identical motion far from the origin: the distances differ
        # by rounding only
        observer = np.array([15000.0, 150.3, 0.37, -8000.0, -90.1, 0.11])
        noise = generator(_rng.derive(19)).standard_normal((100, 6))
        states = observer + noise * np.array([1e-3, 1e-9, 1e-13, 1e-3, 1e-9, 1e-13])
        _assert_near_scan(states, observer, rate=200.0)

    def test_one_point_track(self):
        observer = np.array([10.0, 5.0, 1.0, -3.0, 2.0, 0.5])
        states = np.array([[13.0, 0.0, 0.0, 1.0, 0.0, 0.0], [10.0, 1.0, 2.0, -3.0, 0.0, 0.0]])
        miss, tca = _miss(states, observer, horizon=0.0)
        assert np.array_equal(miss, [5.0, 0.0]) and np.array_equal(tca, [0.0, 0.0])

    def test_inconsistent_track_rejected(self):
        # one horizon per observer
        observers = np.tile(OBSERVER, (2, 1))
        states = np.zeros((4, 6))
        problem = np.array([0, 1, 0, 1])
        for horizon in (20.0, np.full(3, 20.0), np.full((2, 1), 20.0), np.full(4, 20.0)):
            with pytest.raises(ValueError, match="horizon"):
                miss_distance_batch(states, observers, problem, horizon)

    def test_near_double_root(self):
        # relative y = 60 + v t with v near v*, where the maximum of |q|^2 and
        # its later minimum merge: the cubic's two roots there coincide
        def roots_real(v):
            q0, q1, q2 = np.array([750.0, 60.0]), np.array([-20.0, v]), np.array([0.1, 0.0])
            r = np.roots([2 * q2 @ q2, 3 * q1 @ q2, q1 @ q1 + 2 * q0 @ q2, q0 @ q1])
            return np.sum(np.abs(r.imag) < 1e-9)

        lo, hi = 0.0, 50.0  # three real roots at lo, one at hi
        while lo < 0.5 * (lo + hi) < hi:
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if roots_real(mid) == 3 else (lo, mid)
        v = [lo, hi] + [lo + d for d in (-1e-3, -1e-6, -1e-9, 1e-9, 1e-6, 1e-3)]
        states = np.array([[750.0, 80.0, 0.2, 60.0, vk, 0.0] for vk in v])
        _assert_near_scan(states)


class TestBound:
    """What a caller comparing the miss with a bound can rely on."""

    @pytest.mark.parametrize("phase", ["p2", "head-on"])
    def test_posterior_draws(self, phase):
        # at the protected radius and at a chain-like threshold, the kernel
        # counts every conflict the dense scan sees, and the rows where the
        # two disagree lie within the scan's gap of the bound
        q = _phase(phase)
        states = _draws(q, 150 if phase == "p2" else 1000, 21)
        observer = q.observer
        miss, _ = _miss(states, observer, q.horizon)
        grid, _ = dense.miss_distance_scan(states, observer, q.horizon, DENSE_RATE)
        rounding, gap = dense.scan_tolerance(states, observer, q.horizon, DENSE_RATE)
        for bound in (q.protected_radius, np.quantile(miss, 0.3)):
            assert np.all(miss[grid <= bound] <= bound + rounding[grid <= bound])
            differ = (miss <= bound) != (grid <= bound)
            assert np.all(grid[differ] - bound <= gap[differ] + rounding[differ])

    def test_several_tracks_and_blocks(self):
        # rows of three observers with their own horizons: one call equals
        # each observer's own call, and each row lies near its dense scan
        q = phase_p2(seed=2)
        states = _draws(q, 90, 23)
        observers = q.observer + np.array([[0.0] * 6, [50.0, 1.0, 0, 0, 0, 0], [0, 0, 0, -80.0, 0, 0.01]])
        horizons = np.array([200.0, 20.0, 60.0])
        problem = np.arange(90) % 3
        miss, tca = miss_distance_batch(states, observers, problem, horizons)
        for k in range(3):
            rows = problem == k
            one = _assert_near_scan(states[rows], observers[k], horizons[k])
            assert np.array_equal(miss[rows], one[0]) and np.array_equal(tca[rows], one[1])

    def test_misses_bisected_onto_the_bound(self):
        # from a copy of each draw moved onto the observer at its closest
        # approach (miss 0) toward the draw itself, bisected to the last ulp
        # of the step where the miss crosses the radius: the states either
        # side, and their neighbours a few ulps further out, straddle the
        # radius and stay within rounding of it, so no candidate switch
        # makes the miss jump there
        q = phase_p2(seed=2)
        observer = q.observer
        bound = q.protected_radius

        def miss(state):
            return _miss(state, observer, q.horizon)[0][0]

        rows = []
        for state in _draws(q, 10, 24):
            t = _miss(state, observer, q.horizon)[1][0]
            a = transition_matrix(t) if t > 0 else np.eye(6)
            rel = (a @ (state - observer))[[0, 3]]
            onto = state - [rel[0], 0.0, 0.0, rel[1], 0.0, 0.0]
            step = state - onto
            lo, hi = 0.0, 1.0  # miss(onto + lo step) <= bound < miss(onto + hi step)
            assert miss(onto + lo * step) <= bound < miss(onto + hi * step)
            while lo < 0.5 * (lo + hi) < hi:
                mid = 0.5 * (lo + hi)
                lo, hi = (mid, hi) if miss(onto + mid * step) <= bound else (lo, mid)
            for c in (lo, hi):
                for k in range(-3, 4):
                    ck = c
                    for _ in range(abs(k)):
                        ck = np.nextafter(ck, np.sign(k) * np.inf)
                    rows.append(onto + ck * step)
        states = np.array(rows)
        exact, _ = _miss(states, observer, q.horizon)
        assert (exact <= bound).any() and (exact > bound).any()
        rounding, _ = dense.scan_tolerance(states, observer, q.horizon, DENSE_RATE)
        assert np.all(np.abs(exact - bound) <= rounding)

    def test_zero_relative_acceleration_stays_exact(self):
        # posterior means moving with their observers' acceleration: the
        # kernel equals the hand-made linear CPA to rounding
        gen = generator(_rng.derive(25))
        observer = np.array([0.0, 77.17, 0.05, 0.0, 0.0, -0.02])
        states = observer + gen.normal(size=(200, 6)) * [2000.0, 80.0, 0.0, 500.0, 5.0, 0.0]
        miss, tca = _miss(states, observer, 20.0)
        ref_miss, ref_tca = _linear_cpa(states, observer, 20.0)
        rounding, _ = dense.scan_tolerance(states, observer, 20.0, DENSE_RATE)
        assert np.all(np.abs(miss - ref_miss) <= rounding)
        assert np.allclose(tca, ref_tca, rtol=1e-9, atol=1e-9)

    def test_non_finite_state_stays_non_finite(self):
        q = phase_p2(seed=2)
        states = _draws(q, 6, 25)
        states[1, 0] = np.nan
        states[3, 4] = np.inf  # inf * 0 at t = 0: an invalid operation
        states[4, 2] = -np.inf
        # no floating-point warning escapes (the suite makes one an error)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            miss, _ = _miss(states, q.observer, q.horizon)
        assert np.isnan(miss[[1, 3, 4]]).all()
        for i in (0, 2, 5):
            assert miss[i] == _miss(states[i], q.observer, q.horizon)[0][0]

    def test_short_track_stays_exact(self):
        # a 0.1 s horizon: the CPA is clipped to it
        states = OBSERVER + generator(_rng.derive(26)).normal(size=(20, 6)) * [500.0, 5, 0.1, 500, 5, 0.1]
        _, tca = _assert_near_scan(states, horizon=0.1)
        assert (tca == 0.1).any() and (tca == 0.0).any()

    def test_bound_shape_checked(self):
        with pytest.raises(ValueError, match="horizon"):
            miss_distance_batch(np.zeros((3, 6)), OBSERVER[None], np.zeros(3, np.intp), np.zeros(2))


def _with_and_without(states, bound, observer=OBSERVER, horizon=200.0):
    """The kernel on `states` with and without `bound`: the rows that clear
    it have a NaN tca and a miss above it, and every other row is bit for
    bit its exact row; returns (exact miss, cleared mask)."""
    states = np.atleast_2d(states)
    problem = np.zeros(len(states), np.intp)
    args = (states, observer[None], problem, np.array([horizon]))
    miss, tca = miss_distance_batch(*args)
    fast, fast_tca = miss_distance_batch(*args, bound)
    cleared = np.isnan(fast_tca)
    assert np.array_equal(fast <= bound, miss <= bound)
    assert np.all(fast[cleared] > bound) and np.isfinite(fast[cleared]).all()
    assert np.array_equal(fast[~cleared], miss[~cleared])
    assert np.array_equal(fast_tca[~cleared], tca[~cleared])
    return miss, cleared


def _straddling(make, bound, lo, hi):
    """The parameters c around the last bisection step of the kernel's miss
    of `make(c)` across `bound`, from lo (at or inside) to hi (outside),
    three ulps either side of it, and their rows."""
    def miss(c):
        return _miss(make(c))[0][0]

    assert miss(lo) <= bound < miss(hi)
    while lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if miss(mid) <= bound else (lo, mid)
    cs = []
    for c in (lo, hi):
        for k in range(-3, 4):
            ck = c
            for _ in range(abs(k)):
                ck = np.nextafter(ck, np.sign(k) * np.inf)
            cs.append(ck)
    return np.array([make(c) for c in cs])


class TestCountingBound:
    """`miss_distance_batch(..., bound)`: a row cleared by the lower bound
    is above the bound, and the count of rows at or below it never changes."""

    BOUND = 152.4

    @pytest.mark.parametrize("phase", ["p1", "p2", "head-on"])
    def test_posterior_draws(self, phase):
        # at head-on's 10 s every draw is on a collision course
        q = _phase(phase)
        states = _draws(q, 40_000, 27)
        for bound in (q.protected_radius, 10.0 * q.protected_radius, 0.0):
            miss, cleared = _with_and_without(states, bound, q.observer, q.horizon)
            if bound == q.protected_radius:
                assert cleared.any() == (phase != "head-on")
                assert (miss <= bound).any()

    @pytest.mark.parametrize("end", ["start", "end"])
    def test_minimum_at_an_end_bisected_onto_the_bound(self, end):
        # a lateral offset c at the closest end of a straight pass along y,
        # where the hull bound equals the miss: the rows either side of the
        # last ulp of the bisection keep their exact counts
        def make(c):
            if end == "start":  # receding: closest at t = 0
                rel = [0.0, 0.0, 0.0, c, 3.0, 0.0]
            else:  # closing and stopping short: closest at t = H
                rel = [0.0, 0.0, 0.0, c + 600.0, -3.0, 0.0]
            return OBSERVER + rel

        rows = _straddling(make, self.BOUND, 100.0, 200.0)
        miss, _ = _with_and_without(rows, self.BOUND)
        assert (miss <= self.BOUND).any() and (miss > self.BOUND).any()

    @pytest.mark.parametrize("scale", [1.0, 1e3, 1e6, 1e9])
    def test_crossing_rows_and_large_coordinates(self, scale):
        # x runs from +scale / 4 through zero to -3 scale / 4 over the
        # horizon, so its start value is the largest of its hull's; y passes
        # c abeam: the miss is c, at up to 1e9 m coordinates
        def make(c):
            speed = scale / 200.0
            return OBSERVER + [0.25 * scale, -speed, 0.0, c, 0.0, 0.0]

        rows = _straddling(make, self.BOUND, 0.0, 400.0)
        # and far from the origin, where the kernel's rounding is largest
        far = rows + [1e9, 0.0, 0.0, -1e9, 0.0, 0.0]
        observer = OBSERVER + [1e9, 0.0, 0.0, -1e9, 0.0, 0.0]
        _with_and_without(rows, self.BOUND)
        _with_and_without(far, self.BOUND, observer)

    def test_start_above_and_hull_below_zero(self):
        # an axis that starts positive and whose other hull points are
        # negative crosses zero: its bound is 0, never -max(b1, b2)
        rows = OBSERVER + np.array([
            [300.0, -50.0, 0.0, 0.0, 0.0, 0.0],
            [-300.0, 50.0, 0.0, 0.0, 0.0, 0.0],
            [300.0, 0.0, -0.1, 0.0, 0.0, 0.0],
            [-300.0, 0.0, 0.1, 0.0, 0.0, 0.0],
        ])
        miss, cleared = _with_and_without(rows, self.BOUND)
        assert np.all(miss <= self.BOUND) and not cleared.any()

    def test_vanishing_relative_acceleration(self):
        accel = np.array([0.0, 1e-300, 1e-200, 1e-20, 1e-12, 1e-6])
        for c in (self.BOUND * (1.0 - 1e-15), self.BOUND, self.BOUND * (1.0 + 1e-15), 400.0):
            rows = np.tile(OBSERVER + [-3000.0, 30.0, 0.0, c, 0.0, 0.0], (len(accel), 1))
            rows[:, 2] += accel
            rows[:, 5] -= accel
            _with_and_without(rows, self.BOUND)

    def test_non_finite_rows_stay_non_finite(self):
        q = phase_p2(seed=2)
        states = _draws(q, 6, 28)
        states[1, 0] = np.nan
        states[3, 4] = np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            miss, _ = miss_distance_batch(
                states, q.observer[None], np.zeros(6, np.intp), np.array([q.horizon]), 152.4
            )
        assert np.isnan(miss[[1, 3]]).all() and np.isfinite(miss[[0, 2, 4, 5]]).all()

    def test_bound_checked(self):
        args = (np.zeros((3, 6)), OBSERVER[None], np.zeros(3, np.intp), np.full(1, 20.0))
        for bad in (-1.0, np.nan, "152.4", [152.4]):
            with pytest.raises(ValueError, match="bound"):
                miss_distance_batch(*args, bad)
        assert np.isnan(miss_distance_batch(*args, np.inf)[1]).sum() == 0


class TestCriticalPoints:
    """The root helper returns the cubic's two candidate minima per row."""

    def test_three_real_roots_give_the_outer_two(self):
        # q(k) = (k - 1000)(k - 3000) along x: |q|^2 has minima at 1000 and
        # 3000 and its maximum at 2000
        q = np.array([[3e6], [-4000.0], [1.0], [0.0], [0.0], [0.0]])
        with np.errstate(all="ignore"):  # the branch not taken may divide by zero or take sqrt(-p)
            roots = _critical_points(_dots(q))
        assert roots.shape == (2, 1)
        assert np.allclose(roots[:, 0], [3000.0, 1000.0], rtol=1e-12, atol=0.0)

    def test_one_real_root_and_the_pair_real_part(self):
        # q(k) = (k^2, 3 + k): half the derivative of |q|^2 is
        # 2k^3 + k + 3 = (k + 1)(2k^2 - 2k + 3), whose only real root is -1
        # and whose complex pair has real part 0.5
        q = np.array([[0.0], [0.0], [1.0], [3.0], [1.0], [0.0]])
        with np.errstate(all="ignore"):
            roots = _critical_points(_dots(q))
        assert np.allclose(roots[:, 0], [-1.0, 0.5], rtol=1e-12, atol=1e-12)


class TestSmallBatches:
    """Batches of a few rows give each row its one-row result."""

    @pytest.mark.parametrize("rows, t, k", [(1, 20.0, 1), (30, 20.0, 1), (3, 200.0, 1), (5, 20.0, 2)])
    def test_small_batches_take_the_closed_form(self, rows, t, k):
        gen = generator(_rng.derive(62))
        observers = OBSERVER + gen.normal(size=(k, 6)) * [100.0, 5.0, 0.1, 100.0, 5.0, 0.1]
        states = OBSERVER + [2000.0, -180.0, 0.2, 150.0, 1.0, -0.1]
        states = states + gen.normal(size=(rows, 6)) * [200.0, 10.0, 0.1, 200.0, 1.0, 0.1]
        problem = np.arange(rows) % k
        miss, tca = miss_distance_batch(states, observers, problem, np.full(k, t))
        for i in range(rows):
            one = _assert_near_scan(states[i], observers[problem[i]], t)
            assert (one[0][0], one[1][0]) == (miss[i], tca[i])


class TestSeveralTracks:
    """K observers and a row-to-observer index: one call equals K one-observer calls."""

    def _case(self, k=3, rows=400):
        gen = generator(_rng.derive(61))
        observers = gen.normal(size=(k, 6)) * np.array([500.0, 80.0, 0.5, 500.0, 8.0, 0.5])
        states = gen.normal(size=(rows, 6)) * np.array([2000.0, 80.0, 1.0, 2000.0, 8.0, 1.0])
        problem = gen.integers(0, k, size=rows)
        return states, observers, problem, np.full(k, 20.0)

    def test_equals_per_track_calls_and_scan(self):
        states, observers, problem, horizon = self._case()
        miss, tca = miss_distance_batch(states, observers, problem, horizon)
        _assert_near_scan(states, observers, 20.0, problem, rate=200.0)
        for k in range(len(observers)):
            rows = problem == k
            one = _miss(states[rows], observers[k], 20.0)
            assert np.array_equal(miss[rows], one[0]) and np.array_equal(tca[rows], one[1])

    def test_scan_blocks_are_transparent(self, monkeypatch):
        # the dense reference itself: its blocks change no row
        states, observers, problem, horizon = self._case(rows=50)
        whole = dense.miss_distance_scan(states, observers, 20.0, 200.0, problem)
        monkeypatch.setattr(dense, "_BLOCK_POINTS", 9000)  # two rows per block
        parts = dense.miss_distance_scan(states, observers, 20.0, 200.0, problem)
        assert np.array_equal(whole[0], parts[0]) and np.array_equal(whole[1], parts[1])

    def test_unsettled_rows_scan_their_own_track(self):
        # rows moving exactly with their own observer, 50 m to its east, are
        # 50 m away at every time: against the other observers they would not be
        states, observers, problem, horizon = self._case(rows=30)
        states[::3] = observers[problem[::3]] + [50.0, 0.0, 0.0, 0.0, 0.0, 0.0]
        miss, _ = miss_distance_batch(states, observers, problem, horizon)
        assert np.allclose(miss[::3], 50.0, rtol=1e-9, atol=0.0)

    def test_every_track_checked_against_its_state(self):
        states, observers, problem, horizon = self._case(rows=20)
        with pytest.raises(ValueError, match="lie in"):
            miss_distance_batch(states, observers[:2], problem, horizon[:2])
        with pytest.raises(ValueError, match="observer"):
            miss_distance_batch(states, observers[:, :5], problem, horizon)

    def test_non_finite_track_rejected(self):
        # a non-finite observer gives its own rows a non-finite miss, which
        # the engine rejects; the other observers' rows are untouched
        states, observers, problem, horizon = self._case(rows=20)
        bad = observers.copy()
        bad[0, 1] = np.nan
        miss, _ = miss_distance_batch(states, bad, problem, horizon)
        good, _ = miss_distance_batch(states, observers, problem, horizon)
        assert np.isnan(miss[problem == 0]).all()
        assert np.array_equal(miss[problem != 0], good[problem != 0])
        system = RareEventSystem(
            states[:3], np.tile(np.eye(6), (3, 1, 1)),
            lambda x, p: miss_distance_batch(x, bad, p, horizon)[0], 152.4,
        )
        with pytest.raises(ValueError, match="non-finite"):
            direct_monte_carlo(system, [10, 10, 10], [1, 2, 3])

    def test_index_validation(self):
        states, observers, problem, horizon = self._case(rows=20)
        # a float index is not truncated, nor a bool read as 0 and 1
        for bad in (None, problem + 0.9, problem == 1):
            with pytest.raises(ValueError, match="integers"):
                miss_distance_batch(states, observers, bad, horizon)
        with pytest.raises(ValueError, match="lie in"):
            miss_distance_batch(states, observers, np.full(20, 3), horizon)
        with pytest.raises(ValueError, match="one index per state"):
            miss_distance_batch(states, observers, problem[:5], horizon)


class TestAgainstDenseTracks:
    def test_kernel_matches_dense_track_minimum(self):
        # the reference: both tracks at 20 Hz by `track_positions`, then the
        # smallest pointwise distance; the continuous miss lies at most the
        # grid's gap below it, never above
        rng = np.random.default_rng(2)
        obs_state = np.array([0.0, 70.0, 0.1, 0.0, 3.0, -0.05])
        states = rng.normal(size=(40, 6)) * np.array([500.0, 60.0, 0.5, 500.0, 6.0, 0.5])
        miss, tca = _miss(states, obs_state, 10.0)
        d = dense.track_positions(states, 20, 10) - dense.track_positions(obs_state[None], 20, 10)
        grid = np.sqrt((d * d).sum(axis=2)).min(axis=1)
        rounding, gap = dense.scan_tolerance(states, obs_state, 10.0, 20.0)
        assert np.all(miss <= grid + rounding) and np.all(grid - miss <= gap + rounding)
        # the positions at the time of closest approach are `miss` apart
        for s, m, t in zip(states, miss, tca):
            a = transition_matrix(t) if t > 0 else np.eye(6)
            gap = np.hypot(*((a @ s) - (a @ obs_state))[[0, 3]])
            assert gap == pytest.approx(m, rel=1e-9, abs=1e-9)
