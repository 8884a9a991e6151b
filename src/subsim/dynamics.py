"""Nearly-constant-acceleration point-mass kinematics in 2D Cartesian space.

State ordering is [x, u, a_x, y, v, a_y]: position, velocity and acceleration
per axis, SI units throughout.
"""

from __future__ import annotations

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
        if not np.all(np.isfinite(self.as_array())):
            raise ValueError(f"state components must be finite: {self}")

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.u, self.a_x, self.y, self.v, self.a_y], dtype=np.float64)

    @classmethod
    def from_array(cls, a) -> "AircraftState":
        a = np.asarray(a, dtype=np.float64).reshape(6)
        return cls(*(float(c) for c in a))


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


def propagate(initial: AircraftState, f: float, t: float) -> Trajectory:
    """Propagate a state at sampling rate `f` over `t` seconds.

    Produces t*f + 1 states (index 0 is the initial state).  Positions and
    velocities follow the exact constant-acceleration flow, which coincides
    with repeated application of `transition_matrix(1/f)` at every grid point.
    """
    if f <= 0 or t <= 0:
        raise ValueError(f"rate and horizon must be positive, got f={f}, t={t}")
    n_float = t * f
    n_steps = round(n_float)
    if abs(n_float - n_steps) > 1e-9 or n_steps < 1:
        raise ValueError(f"t*f must be a positive integer, got {n_float}")
    dt = 1.0 / f
    tk = np.arange(n_steps + 1, dtype=np.float64) * dt
    tk2 = tk * tk
    s = initial.as_array()
    out = np.empty((n_steps + 1, 6))
    out[:, 0] = s[0] + s[1] * tk + (0.5 * s[2]) * tk2
    out[:, 1] = s[1] + s[2] * tk
    out[:, 2] = s[2]
    out[:, 3] = s[3] + s[4] * tk + (0.5 * s[5]) * tk2
    out[:, 4] = s[4] + s[5] * tk
    out[:, 5] = s[5]
    return Trajectory(states=out, dt=dt)


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

