"""Miss-distance kernels: the grid scan, and the closed form that must equal it bit for bit."""

import numpy as np
import pytest

from subsim import _kernels
from subsim import rng as _rng
from subsim.analysis import freeze_phase, phase_p1, phase_p2
from subsim.conflict import _cholesky_with_jitter
from subsim.dynamics import AircraftState, min_distance, propagate
from subsim.scenarios import build_head_on


def _random_case(rng, n, n_pts=401, dt=0.05):
    states = rng.normal(size=(n, 6)) * np.array([1000.0, 80.0, 1.0, 1000.0, 8.0, 1.0])
    obs = np.cumsum(rng.normal(size=(n_pts, 2)) * 3.0, axis=0)
    return states, obs, dt


def _track(observer, f=20.0, t=200.0):
    traj = propagate(AircraftState.from_array(observer), f=f, t=t)
    return traj.positions, traj.dt


def _assert_matches_scan(states, observer, f=20.0, t=200.0):
    """Closed form equals the scan bit for bit; returns the scan's (miss, index)."""
    obs_xy, dt = _track(observer, f, t)
    miss, idx = _kernels.miss_distance_batch(states, obs_xy, dt, observer)
    ref_miss, ref_idx = _kernels.miss_distance_scan(states, obs_xy, dt)
    assert np.array_equal(miss, ref_miss)
    assert np.array_equal(idx, ref_idx)
    return ref_miss, ref_idx


class _ScanRows:
    """Counts the rows the closed form hands to the scan."""

    def __init__(self, monkeypatch):
        self.rows = 0
        scan = _kernels.miss_distance_scan

        def counting(states, obs_xy, dt, problem=None):
            self.rows += len(states)
            return scan(states, obs_xy, dt, problem)

        monkeypatch.setattr(_kernels, "miss_distance_scan", counting)


OBSERVER = np.array([0.0, 100.0, 0.0, 0.0, 0.0, 0.0])


class TestNumpyBackend:
    """The grid scan on arbitrary (random-walk) observer tracks."""

    def test_shapes_and_finiteness(self):
        rng = np.random.default_rng(0)
        states, obs, dt = _random_case(rng, 37)
        miss, idx = _kernels.miss_distance_scan(states, obs, dt)
        assert miss.shape == (37,) and idx.shape == (37,)
        assert np.all(np.isfinite(miss)) and np.all(miss >= 0.0)
        assert np.all((0 <= idx) & (idx < 401))

    def test_single_point_track(self):
        states = np.array([[3.0, 0.0, 0.0, 4.0, 0.0, 0.0]])
        obs = np.zeros((1, 2))
        miss, idx = _kernels.miss_distance_scan(states, obs, 0.1)
        assert miss[0] == 5.0 and idx[0] == 0

    def test_ties_take_first_index(self):
        # stationary pair: every index ties, the first must win
        states = np.array([[10.0, 0.0, 0.0, 0.0, 0.0, 0.0]])
        obs = np.zeros((50, 2))
        _, idx = _kernels.miss_distance_scan(states, obs, 0.1)
        assert idx[0] == 0

    def test_chunking_is_transparent(self, monkeypatch):
        rng = np.random.default_rng(5)
        states, obs, dt = _random_case(rng, 64, n_pts=128)
        whole = _kernels.miss_distance_scan(states, obs, dt)
        monkeypatch.setattr(_kernels, "_BLOCK_ELEMS", 256)  # force many tiny blocks
        parts = _kernels.miss_distance_scan(states, obs, dt)
        assert np.array_equal(whole[0], parts[0])
        assert np.array_equal(whole[1], parts[1])

    def test_input_validation(self):
        obs_xy, dt = _track(OBSERVER, t=0.15)
        kernels = ((_kernels.miss_distance_scan, ()), (_kernels.miss_distance_batch, (OBSERVER,)))
        for kernel, extra in kernels:
            with pytest.raises(ValueError):
                kernel(np.zeros((3, 5)), obs_xy, dt, *extra)
            with pytest.raises(ValueError):
                kernel(np.zeros((3, 6)), np.zeros((4, 3)), dt, *extra)
            with pytest.raises(ValueError):
                kernel(np.zeros((3, 6)), np.zeros((0, 2)), dt, *extra)
        with pytest.raises(ValueError):
            _kernels.miss_distance_batch(np.zeros((3, 6)), obs_xy, dt, OBSERVER[:5])


class TestClosedForm:
    """`miss_distance_batch` against the scan on constant-acceleration tracks."""

    @pytest.fixture(autouse=True)
    def _closed_form_for_every_batch(self, monkeypatch):
        monkeypatch.setattr(_kernels, "_SCAN_ELEMS", 0)

    @pytest.mark.parametrize("phase", ["p1", "p2", "head-on"])
    def test_posterior_draws(self, phase, monkeypatch):
        if phase == "p1":
            q = phase_p1(seed=1)
        elif phase == "p2":
            q = phase_p2(seed=2)
        else:
            q = freeze_phase(build_head_on(0.0, 2000.0), at_time=10.0, seed=3)
        chol = _cholesky_with_jitter(q.intruder_estimate.covariance)
        z = _rng.generator(_rng.derive(17)).standard_normal((4000, 6))
        states = q.intruder_estimate.mean.as_array() + z @ chol.T
        scanned = _ScanRows(monkeypatch)
        _assert_matches_scan(states, q.observer.as_array(), q.sample_rate, q.horizon)
        # the closed form settles the draws itself; only the oracle scans them all
        assert scanned.rows == len(states)

    def test_blocks_are_transparent(self, monkeypatch):
        q = phase_p2(seed=2)
        chol = _cholesky_with_jitter(q.intruder_estimate.covariance)
        z = _rng.generator(_rng.derive(18)).standard_normal((300, 6))
        states = q.intruder_estimate.mean.as_array() + z @ chol.T
        obs_xy, dt = _track(q.observer.as_array(), q.sample_rate, q.horizon)
        whole = _kernels.miss_distance_batch(states, obs_xy, dt, q.observer.as_array())
        monkeypatch.setattr(_kernels, "_BLOCK_ROWS", 7)
        parts = _kernels.miss_distance_batch(states, obs_xy, dt, q.observer.as_array())
        assert np.array_equal(whole[0], parts[0])
        assert np.array_equal(whole[1], parts[1])

    def test_minimum_at_either_endpoint(self):
        receding = [500.0, 150.0, 0.1, 50.0, 0.0, 0.0]  # ahead, pulling away
        closing = [-20000.0, 150.0, 0.0, 300.0, -0.5, 0.01]  # passes after the horizon
        _, idx = _assert_matches_scan(np.array([receding, closing]), OBSERVER)
        assert idx[0] == 0 and idx[1] == 4000

    def test_two_local_minima(self):
        # relative x = 75 - 2t + 0.01t^2 crosses zero at 50 s and at 150 s, the
        # second pass being a re-approach; relative y picks the deeper pass
        x = [75.0, 98.0, 0.02]
        second_deeper = [x + [300.0, -1.5, 0.0]]
        first_deeper = [x + [75.0, 1.5, 0.0]]
        tie = [x + [100.0, 0.0, 0.0]]
        miss, idx = _assert_matches_scan(np.array(second_deeper + first_deeper + tie), OBSERVER)
        assert idx[0] > 3000 and idx[1] < 1000
        # both passes of the tie are exactly 100 m: the first index wins
        assert miss[2] == 100.0 and idx[2] == 1000

    def test_min_max_min_row_is_settled(self, monkeypatch):
        # relative x = 750 - 20t + 0.1t^2 crosses zero at 50 s and 150 s and
        # swings to -250 m between; relative y = 60 + 0.2t.  |q|^2 has minima
        # near 50 s (70 m, the deeper) and 150 s (90 m) and a maximum near
        # 100 s, and no window sits at the maximum.
        state = np.array([[750.0, 80.0, 0.2, 60.0, 0.2, 0.0]])
        scanned = _ScanRows(monkeypatch)
        miss, idx = _assert_matches_scan(state, OBSERVER)
        assert scanned.rows == 1  # the oracle's own scan: the closed form settled the row
        assert 990 < idx[0] < 1010 and 69.0 < miss[0] < 71.0
        obs_xy, dt = _track(OBSERVER)
        curve = np.hypot(*(propagate(AircraftState.from_array(state[0]), 20.0, 200.0).positions - obs_xy).T)
        assert curve[2000] > curve[3000] > curve[1000]

    @staticmethod
    def _passing(t_min, offset, speed=50.0, accel=0.2):
        """OBSERVER plus a relative x of speed (t - t_min) + accel/2 (t - t_min)^2
        and a constant relative y: a pass `offset` m abeam at t_min."""
        return OBSERVER + [
            -speed * t_min + 0.5 * accel * t_min * t_min, speed - accel * t_min, accel, offset, 0.0, 0.0
        ]

    @pytest.mark.parametrize("k", [1, 2, 3, 3997, 3998, 3999])
    def test_minimum_next_to_an_end(self, k, monkeypatch):
        # grid points 1-3 and last-3 .. last-1 lie in no end window, only in
        # the root window of a minimum there
        scanned = _ScanRows(monkeypatch)
        _, idx = _assert_matches_scan(np.array([self._passing(k * 0.05, 30.0)]), OBSERVER)
        assert idx[0] == k
        assert scanned.rows == 1

    def test_first_point_ties_a_later_minimum(self, monkeypatch):
        # relative x = -t + 0.01t^2 is exactly 0 at 0 s and at 100 s, 100 m
        # abeam both times: point 0 and grid index 2000 tie, the first wins
        state = np.array([[0.0, 99.0, 0.02, 100.0, 0.0, 0.0]])
        scanned = _ScanRows(monkeypatch)
        miss, idx = _assert_matches_scan(state, OBSERVER)
        assert miss[0] == 100.0 and idx[0] == 0
        assert scanned.rows == 1
        obs_xy, dt = _track(OBSERVER)
        tk = np.array([0.0, 2000.0]) * dt
        d2 = _kernels._squared_distance(state[0][:, None], tk, *obs_xy[[0, 2000]].T)
        assert np.array_equal(d2, [1e4, 1e4])

    @pytest.mark.parametrize("t_min, accel, end", [(199.9, -1e-9, 0), (0.1, 1e-9, -1)])
    def test_track_end_inside_the_margin(self, t_min, accel, end, monkeypatch):
        # a 1 um/s pass 1,000 m abeam near one end of the track, the quartic's
        # other minimum beyond that end: both windows sit there, and the one
        # gap runs to the track's other end, whose distance exceeds the
        # minimum by about 2e-11 m, inside the rounding margin
        state = np.array([self._passing(t_min, 1000.0, speed=1e-6, accel=accel)])
        scanned = _ScanRows(monkeypatch)
        _assert_matches_scan(state, OBSERVER)
        assert scanned.rows == 2
        obs_xy, _ = _track(OBSERVER)
        curve = np.hypot(*(propagate(AircraftState.from_array(state[0]), 20.0, 200.0).positions - obs_xy).T)
        assert 0.0 < curve[end] - curve.min() < 1e-10

    def test_zero_relative_acceleration(self, monkeypatch):
        observer = np.array([0.0, 100.0, 0.3, 0.0, 0.0, -0.2])
        states = np.array([[3000.0, -80.0, 0.3, 200.0, 1.0, -0.2], [100.0, 0.0, 0.3, 0.0, 3.0, -0.2]])
        scanned = _ScanRows(monkeypatch)
        _assert_matches_scan(states, observer)
        assert scanned.rows == 2 + 2  # no quartic: both rows go to the scan

    def test_vanishing_relative_acceleration(self, monkeypatch):
        # the quartic's leading coefficient underflows the root finder's
        # precision: those rows go to the scan, the well-scaled one does not
        observer = np.array([0.0, 100.0, 0.3, 0.0, 0.0, -0.2])
        states = np.array([[3000.0, -80.0, 0.3, 200.0, 1.0, -0.2]] * 4)
        states[:, 2] += [1e-20, 1e-16, 1e-12, 1e-1]
        scanned = _ScanRows(monkeypatch)
        _assert_matches_scan(states, observer)
        assert 4 < scanned.rows < 4 + 4

    def test_identical_motion_takes_index_zero(self):
        observer = np.array([1500.0, 90.0, 0.4, -700.0, 20.0, -0.1])
        miss, idx = _assert_matches_scan(np.tile(observer, (3, 1)), observer)
        assert np.all(miss == 0.0) and np.all(idx == 0)

    def test_flat_curve(self, monkeypatch):
        # nearly identical motion far from the origin: the squared distances
        # differ by rounding only, which no root can predict
        observer = np.array([15000.0, 150.3, 0.37, -8000.0, -90.1, 0.11])
        noise = _rng.generator(_rng.derive(19)).standard_normal((500, 6))
        states = observer + noise * np.array([1e-3, 1e-9, 1e-13, 1e-3, 1e-9, 1e-13])
        scanned = _ScanRows(monkeypatch)
        _assert_matches_scan(states, observer)
        assert scanned.rows > len(states)

    def test_one_point_track(self):
        observer = np.array([10.0, 5.0, 1.0, -3.0, 2.0, 0.5])
        states = np.array([[13.0, 0.0, 0.0, 1.0, 0.0, 0.0], [10.0, 1.0, 2.0, -3.0, 0.0, 0.0]])
        obs_xy = np.array([[10.0, -3.0]])
        miss, idx = _kernels.miss_distance_batch(states, obs_xy, 0.05, observer)
        assert np.array_equal(miss, [5.0, 0.0]) and np.array_equal(idx, [0, 0])

    def test_inconsistent_track_rejected(self):
        obs_xy, dt = _track(OBSERVER)
        states = np.zeros((2, 6))
        for k in (0, -1):
            bad = obs_xy.copy()
            bad[k, 0] = np.nextafter(bad[k, 0], np.inf)
            with pytest.raises(ValueError, match="observer"):
                _kernels.miss_distance_batch(states, bad, dt, OBSERVER)
        with pytest.raises(ValueError, match="observer"):
            _kernels.miss_distance_batch(states, obs_xy, 2.0 * dt, OBSERVER)
        with pytest.raises(ValueError, match="observer"):
            _kernels.miss_distance_batch(states, obs_xy, dt, OBSERVER + [0.0, 0.0, 0.0, 0.0, 0.0, 1e-3])


class TestCriticalPoints:
    """The root helper returns the cubic's two candidate minima per row."""

    def test_three_real_roots_give_the_outer_two(self):
        # q(k) = (k - 1000)(k - 3000) along x: |q|^2 has minima at 1000 and
        # 3000 and its maximum at 2000
        q = np.array([[3e6], [-4000.0], [1.0], [0.0], [0.0], [0.0]])
        with np.errstate(all="ignore"):  # the branch not taken may divide by zero or take sqrt(-p)
            roots = _kernels._critical_points(q)
        assert roots.shape == (2, 1)
        assert np.allclose(roots[:, 0], [3000.0, 1000.0], rtol=1e-12, atol=0.0)

    def test_one_real_root_and_the_pair_real_part(self):
        # q(k) = (k^2, 3 + k): half the derivative of |q|^2 is
        # 2k^3 + k + 3 = (k + 1)(2k^2 - 2k + 3), whose only real root is -1
        # and whose complex pair has real part 0.5
        q = np.array([[0.0], [0.0], [1.0], [3.0], [1.0], [0.0]])
        with np.errstate(all="ignore"):
            roots = _kernels._critical_points(q)
        assert np.allclose(roots[:, 0], [-1.0, 0.5], rtol=1e-12, atol=1e-12)


class TestSmallBatches:
    def test_small_batches_go_to_the_scan(self, monkeypatch):
        def no_closed_form(*args):
            raise AssertionError("closed form used on a small batch")

        obs_xy, dt = _track(OBSERVER, t=20.0)
        states = OBSERVER + np.array([2000.0, -180.0, 0.2, 150.0, 1.0, -0.1])
        small = np.tile(states, (_kernels._SCAN_ELEMS // len(obs_xy), 1))
        with monkeypatch.context() as m:
            m.setattr(_kernels, "_closed_form_block", no_closed_form)
            miss, idx = _kernels.miss_distance_batch(small, obs_xy, dt, OBSERVER)
            with pytest.raises(ValueError, match="observer"):
                _kernels.miss_distance_batch(small, obs_xy[::-1], dt, OBSERVER)
        ref_miss, ref_idx = _kernels.miss_distance_scan(small, obs_xy, dt)
        assert np.array_equal(miss, ref_miss) and np.array_equal(idx, ref_idx)
        # one more row takes the closed form, with the same answer per row
        big_miss, big_idx = _kernels.miss_distance_batch(
            np.vstack([small, states]), obs_xy, dt, OBSERVER
        )
        assert np.all(big_miss == ref_miss[0]) and np.all(big_idx == ref_idx[0])


class TestSeveralTracks:
    """K tracks and a row-to-track index: one call equals K one-track calls."""

    def _case(self, k=3, rows=400, t=20.0):
        gen = _rng.generator(_rng.derive(61))
        observers = gen.normal(size=(k, 6)) * np.array([500.0, 80.0, 0.5, 500.0, 8.0, 0.5])
        tracks = np.array([_track(o, t=t)[0] for o in observers])
        states = gen.normal(size=(rows, 6)) * np.array([2000.0, 80.0, 1.0, 2000.0, 8.0, 1.0])
        problem = gen.integers(0, k, size=rows)
        return states, tracks, observers, problem, 0.05

    @pytest.mark.parametrize("scan_elems", [0, None, 10**9])  # closed form, as dispatched, scan
    def test_equals_per_track_calls_and_scan(self, scan_elems, monkeypatch):
        states, tracks, observers, problem, dt = self._case()
        if scan_elems is not None:
            monkeypatch.setattr(_kernels, "_SCAN_ELEMS", scan_elems)
        miss, idx = _kernels.miss_distance_batch(states, tracks, dt, observers, problem)
        ref_miss, ref_idx = _kernels.miss_distance_scan(states, tracks, dt, problem)
        assert np.array_equal(miss, ref_miss) and np.array_equal(idx, ref_idx)
        for k in range(len(tracks)):
            rows = problem == k
            one = _kernels.miss_distance_batch(states[rows], tracks[k], dt, observers[k])
            assert np.array_equal(miss[rows], one[0]) and np.array_equal(idx[rows], one[1])
            scan = _kernels.miss_distance_scan(states[rows], tracks[k], dt)
            assert np.array_equal(miss[rows], scan[0]) and np.array_equal(idx[rows], scan[1])

    def test_scan_blocks_are_transparent(self, monkeypatch):
        states, tracks, _, problem, dt = self._case(rows=50)
        whole = _kernels.miss_distance_scan(states, tracks, dt, problem)
        monkeypatch.setattr(_kernels, "_BLOCK_ELEMS", 2000)  # a few rows per block
        parts = _kernels.miss_distance_scan(states, tracks, dt, problem)
        assert np.array_equal(whole[0], parts[0]) and np.array_equal(whole[1], parts[1])

    def test_unsettled_rows_scan_their_own_track(self, monkeypatch):
        # rows moving exactly with their observer have no relative
        # acceleration, so the closed form hands them to the scan
        states, tracks, observers, problem, dt = self._case(rows=30)
        states[::3] = observers[problem[::3]] + [50.0, 0.0, 0.0, 0.0, 0.0, 0.0]
        monkeypatch.setattr(_kernels, "_SCAN_ELEMS", 0)
        scanned = _ScanRows(monkeypatch)
        miss, idx = _kernels.miss_distance_batch(states, tracks, dt, observers, problem)
        assert scanned.rows == 10
        assert np.allclose(miss[::3], 50.0, rtol=1e-9, atol=0.0)
        ref = _kernels.miss_distance_scan(states, tracks, dt, problem)
        assert np.array_equal(miss, ref[0]) and np.array_equal(idx, ref[1])

    def test_every_track_checked_against_its_state(self):
        states, tracks, observers, problem, dt = self._case(rows=20)
        bad = observers.copy()
        bad[2, 5] += 1e-3  # only the last track's observer is off
        with pytest.raises(ValueError, match="observer"):
            _kernels.miss_distance_batch(states, tracks, dt, bad, problem)
        with pytest.raises(ValueError, match="observer"):
            _kernels.miss_distance_batch(states, tracks, dt, observers[:2], problem)

    def test_index_validation(self):
        states, tracks, observers, problem, dt = self._case(rows=20)
        kernels = ((_kernels.miss_distance_scan, ()), (_kernels.miss_distance_batch, (observers,)))
        for kernel, extra in kernels:
            with pytest.raises(ValueError, match="index"):
                kernel(states, tracks, dt, *extra)
            with pytest.raises(ValueError, match="lie in"):
                kernel(states, tracks, dt, *extra, np.full(20, 3))
            with pytest.raises(ValueError, match="one index per state"):
                kernel(states, tracks, dt, *extra, problem[:5])


class TestAgainstTrajectoryPath:
    def test_kernel_matches_propagate_plus_min_distance(self):
        rng = np.random.default_rng(2)
        obs_state = AircraftState(0.0, 70.0, 0.1, 0.0, 3.0, -0.05)
        obs_traj = propagate(obs_state, f=20, t=10)
        states = rng.normal(size=(40, 6)) * np.array([500.0, 60.0, 0.5, 500.0, 6.0, 0.5])
        miss, idx = _kernels.miss_distance_batch(states, obs_traj.positions, 0.05, obs_state.as_array())
        for k in range(40):
            traj = propagate(AircraftState.from_array(states[k]), f=20, t=10)
            approach = min_distance(obs_traj, traj)
            assert approach.miss_distance == miss[k]
            assert approach.step_index == idx[k]
