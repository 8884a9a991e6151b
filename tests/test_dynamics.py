"""Kinematics tests: transition matrix, the tests' track positions, closest point of approach."""

import numpy as np
import pytest

import dense
from dense import track_positions
from subsim.dynamics import AircraftState, miss_distance_batch, transition_matrix


class TestTransitionMatrix:
    def test_first_row_at_unit_step(self):
        a = transition_matrix(1.0)
        assert a[0].tolist() == [1.0, 1.0, 0.5, 0.0, 0.0, 0.0]

    def test_small_step_approaches_identity(self):
        a = transition_matrix(1e-12)
        assert np.allclose(a, np.eye(6), atol=1e-11)

    def test_semigroup_property(self):
        dt = 0.05
        assert np.allclose(transition_matrix(2 * dt), transition_matrix(dt) @ transition_matrix(dt))

    def test_rejects_nonpositive_step(self):
        with pytest.raises(ValueError):
            transition_matrix(0.0)
        with pytest.raises(ValueError):
            transition_matrix(-1.0)


def _track(state, f, t):
    """The (t*f + 1, 2) track of one state."""
    return track_positions(state.as_array()[None], f, t)[0]


class TestTrackPositions:
    def test_rest_state_is_fixed_point(self):
        initial = AircraftState(5.0, 0.0, 0.0, -2.0, 0.0, 0.0)
        track = _track(initial, f=10, t=2)
        assert track.shape == (21, 2)
        assert np.all(track == [5.0, -2.0])

    def test_constant_velocity_displacement(self):
        initial = AircraftState(100.0, 77.2, 0.0, 0.0, 0.0, 0.0)
        track = _track(initial, f=20, t=20)
        assert len(track) == 401
        assert track[-1, 0] == pytest.approx(100.0 + 77.2 * 20.0, rel=1e-12)

    def test_constant_acceleration_displacement(self):
        initial = AircraftState(0.0, 0.0, 1.0, 0.0, 0.0, 0.0)
        track = _track(initial, f=20, t=20)
        # exact flow: x(t) = a t^2 / 2
        assert track[-1, 0] == pytest.approx(200.0, rel=1e-12)

    def test_matches_repeated_matrix_application(self):
        initial = AircraftState(1.0, 2.0, 0.3, -4.0, 5.0, -0.6)
        track = _track(initial, f=4, t=3)
        a = transition_matrix(0.25)
        state = initial.as_array()
        for k in range(1, len(track)):
            state = a @ state
            assert np.allclose(track[k], state[[0, 3]], rtol=1e-12, atol=1e-12)

    def test_rejects_non_integral_step_count(self):
        with pytest.raises(ValueError):
            _track(AircraftState(0, 0, 0, 0, 0, 0), f=3, t=0.5)

    def test_rejects_nonpositive_inputs(self):
        with pytest.raises(ValueError):
            _track(AircraftState(0, 0, 0, 0, 0, 0), f=0, t=1)
        with pytest.raises(ValueError):
            _track(AircraftState(0, 0, 0, 0, 0, 0), f=10, t=-1)


def _straight(x0, y0, u, v):
    return AircraftState(x0, u, 0.0, y0, v, 0.0)


def _approach(observer, intruder, t=20):
    """(miss, time of closest approach) of the intruder to the observer over [0, t]."""
    miss, tca = miss_distance_batch(
        intruder.as_array()[None], observer.as_array()[None], np.zeros(1, np.intp), np.full(1, t)
    )
    return float(miss[0]), float(tca[0])


class TestClosestApproach:
    def test_parallel_offset_tracks(self):
        obs = _straight(0.0, 0.0, 77.0, 0.0)
        intr = _straight(0.0, 100.0, 77.0, 0.0)
        miss, _ = _approach(obs, intr)
        assert miss == pytest.approx(100.0)

    def test_head_on_crossing(self):
        obs = _straight(0.0, 0.0, 77.0, 0.0)
        intr = _straight(2000.0, 0.0, -77.0, 0.0)
        miss, t = _approach(obs, intr)
        # they meet at 2000 / 154 s, which no 20 Hz grid point hits
        assert miss < 1e-9
        assert t == pytest.approx(2000.0 / 154.0, rel=1e-12)

    def test_identical_trajectories(self):
        obs = _straight(3.0, 4.0, 10.0, -1.0)
        assert _approach(obs, obs) == (0.0, 0.0)

    def test_symmetric_up_to_point_swap(self):
        obs = _straight(0.0, 0.0, 50.0, 1.0)
        intr = _straight(500.0, 30.0, -50.0, 0.0)
        assert _approach(obs, intr) == _approach(intr, obs)

    def test_never_exceeds_initial_separation(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            o = AircraftState(*(rng.normal(size=6) * [100, 10, 0.5, 100, 10, 0.5]))
            i = AircraftState(*(rng.normal(size=6) * [100, 10, 0.5, 100, 10, 0.5]))
            d0 = np.hypot(i.x - o.x, i.y - o.y)
            assert _approach(o, i, 5)[0] <= d0 + 1e-12

    def test_grid_refinement_bound(self):
        # grid minima at 10 and 20 Hz lie above the continuous miss, by at
        # most half a step of relative motion
        o = AircraftState(0.0, 60.0, 0.0, 0.0, 5.0, 0.0)
        i = AircraftState(1500.0, -70.0, 0.0, 200.0, -8.0, 0.0)
        miss, _ = _approach(o, i, 10)
        v_rel = np.hypot(60 - (-70.0), 5 - (-8.0))
        for f in (10.0, 20.0):
            grid, _ = dense.miss_distance_scan(i.as_array(), o.as_array(), 10.0, f)
            assert 0.0 <= grid[0] - miss <= v_rel * 0.5 / f

    def test_rejects_mismatched_steps(self):
        # one horizon per observer
        obs = _straight(0, 0, 1, 0).as_array()[None]
        with pytest.raises(ValueError, match="horizon"):
            miss_distance_batch(np.zeros((1, 6)), obs, np.zeros(1, np.intp), [2.0, 4.0])

    def test_points_consistent_with_distance(self):
        obs = _straight(0.0, 0.0, 60.0, 2.0)
        intr = _straight(900.0, 50.0, -60.0, -2.0)
        miss, t = _approach(obs, intr)
        dx, dy = ((transition_matrix(t) @ (intr.as_array() - obs.as_array())))[[0, 3]]
        assert np.sqrt(dx * dx + dy * dy) == pytest.approx(miss, rel=1e-12)


class TestStateValidation:
    @pytest.mark.parametrize(
        "value, finite",
        [
            (1.5, True),
            (-3, True),
            (0, True),
            (True, True),
            (np.float64(2.5), True),
            (np.float32(-1.0), True),
            (np.int64(7), True),
            (np.array(4.0), True),
            ("1.0", True),
            (np.inf, False),
            (-np.inf, False),
            (np.nan, False),
            (np.float32("inf"), False),
            (np.float64("nan"), False),
            (1e309, False),
            (None, False),
            ([1.0], False),
            (np.array([1.0]), False),
        ],
    )
    def test_accepts_exactly_finite_reals_in_every_field(self, value, finite):
        for i in range(6):
            fields = [0.0] * 6
            fields[i] = value
            if finite:
                AircraftState(*fields)
            else:
                with pytest.raises(ValueError):
                    AircraftState(*fields)

    def test_from_array_gives_python_floats(self):
        s = AircraftState.from_array(np.array([[1, 2, 3], [4, 5, 6]], dtype=np.int32))
        assert s == AircraftState(1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
        assert all(type(c) is float for c in (s.x, s.u, s.a_x, s.y, s.v, s.a_y))
        with pytest.raises(ValueError):
            AircraftState.from_array([0.0, 1.0, np.nan, 0.0, 0.0, 0.0])


class TestStateRoundTrip:
    def test_state_round_trip(self):
        s = AircraftState(1, 2, 3, 4, 5, 6)
        assert AircraftState.from_array(s.as_array()) == s

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            AircraftState(np.nan, 0, 0, 0, 0, 0)
