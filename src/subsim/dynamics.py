"""Nearly-constant-acceleration point-mass kinematics in 2D Cartesian space.

State ordering is [x, u, a_x, y, v, a_y]: position, velocity and acceleration
per axis, SI units throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class AircraftState:
    """Kinematic state [x, u, a_x, y, v, a_y] in meters / seconds."""

    x: float
    u: float
    a_x: float
    y: float
    v: float
    a_y: float

    def __post_init__(self):
        # float() takes a 1-element array on NumPy < 2.4, so non-scalars are
        # rejected by ndim; plain floats skip that (slower) check.
        try:
            finite = all(
                (type(c) is float or np.ndim(c) == 0) and math.isfinite(float(c))
                for c in (self.x, self.u, self.a_x, self.y, self.v, self.a_y)
            )
        except TypeError:  # None, sequences
            finite = False
        if not finite:
            raise ValueError(f"state components must be finite: {self}")

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.u, self.a_x, self.y, self.v, self.a_y], dtype=np.float64)

    @classmethod
    def from_array(cls, a) -> "AircraftState":
        return cls(*np.asarray(a, dtype=np.float64).reshape(6).tolist())


@dataclass(frozen=True)
class Trajectory:
    """Time-indexed states over a prediction horizon, step k = 0..t*f."""

    states: np.ndarray  # (n_steps + 1, 6)
    dt: float

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.states.ndim != 2 or self.states.shape[1] != 6 or self.states.shape[0] < 1:
            raise ValueError(f"states must be (n, 6) with n >= 1, got {self.states.shape}")

    def __len__(self) -> int:
        return self.states.shape[0]

    @property
    def positions(self) -> np.ndarray:
        """(n, 2) planar positions."""
        return np.ascontiguousarray(self.states[:, (0, 3)])

    def state_at(self, k: int) -> AircraftState:
        return AircraftState.from_array(self.states[k])


@dataclass(frozen=True)
class Approach:
    """Closest point of approach between two equally sampled trajectories."""

    miss_distance: float
    observer_point: tuple[float, float]
    intruder_point: tuple[float, float]
    step_index: int


def transition_matrix(dt: float) -> np.ndarray:
    """One-step constant-acceleration transition matrix (6x6, block per axis)."""
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    half = 0.5 * dt * dt
    block = np.array([[1.0, dt, half], [0.0, 1.0, dt], [0.0, 0.0, 1.0]])
    a = np.zeros((6, 6))
    a[:3, :3] = block
    a[3:, 3:] = block
    return a


def _time_grid(f: float, t: float) -> np.ndarray:
    """The t*f + 1 sample times k/f of a `t`-second horizon at rate `f`."""
    if f <= 0 or t <= 0:
        raise ValueError(f"rate and horizon must be positive, got f={f}, t={t}")
    n_float = t * f
    n_steps = round(n_float)
    if abs(n_float - n_steps) > 1e-9 or n_steps < 1:
        raise ValueError(f"t*f must be a positive integer, got {n_float}")
    return np.arange(n_steps + 1, dtype=np.float64) * (1.0 / f)


def propagate(initial: AircraftState, f: float, t: float) -> Trajectory:
    """Propagate a state at sampling rate `f` over `t` seconds.

    Produces t*f + 1 states (index 0 is the initial state).  Positions and
    velocities follow the exact constant-acceleration flow, which coincides
    with repeated application of `transition_matrix(1/f)` at every grid point.
    """
    tk = _time_grid(f, t)
    s = initial.as_array()
    out = np.empty((len(tk), 6))
    out[:, 0], out[:, 3] = _positions(s[None], tk)[0].T
    out[:, 1] = s[1] + s[2] * tk
    out[:, 2] = s[2]
    out[:, 4] = s[4] + s[5] * tk
    out[:, 5] = s[5]
    return Trajectory(states=out, dt=1.0 / f)


def track_positions(states: np.ndarray, f: float, t: float) -> np.ndarray:
    """Planar positions (K, t*f + 1, 2) of K initial states (K, 6) over `t` seconds.

    One broadcast of the position expression `propagate` also uses, so row k
    equals `propagate(state k, f, t).positions` bit for bit.
    """
    return _positions(np.asarray(states, dtype=np.float64), _time_grid(f, t))


def _positions(s: np.ndarray, tk: np.ndarray) -> np.ndarray:
    """Constant-acceleration positions (K, len(tk), 2) of states (K, 6) at times tk."""
    tk2 = tk * tk
    out = np.empty((len(s), len(tk), 2))
    out[:, :, 0] = s[:, 0:1] + s[:, 1:2] * tk + (0.5 * s[:, 2:3]) * tk2
    out[:, :, 1] = s[:, 3:4] + s[:, 4:5] * tk + (0.5 * s[:, 5:6]) * tk2
    return out


def min_distance(observer: Trajectory, intruder: Trajectory) -> Approach:
    """Miss distance: minimum pointwise planar distance at shared indices.

    Ties are broken by the smallest step index.
    """
    if len(observer) != len(intruder):
        raise ValueError(f"trajectory lengths differ: {len(observer)} vs {len(intruder)}")
    if observer.dt != intruder.dt:
        raise ValueError(f"trajectory steps differ: {observer.dt} vs {intruder.dt}")
    d = intruder.positions - observer.positions
    d2 = d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]
    k = int(np.argmin(d2))
    op = observer.positions[k]
    ip = intruder.positions[k]
    return Approach(
        miss_distance=float(np.sqrt(d2[k])),
        observer_point=(float(op[0]), float(op[1])),
        intruder_point=(float(ip[0]), float(ip[1])),
        step_index=k,
    )

