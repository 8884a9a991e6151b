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
