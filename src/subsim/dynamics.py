"""Nearly-constant-acceleration point-mass kinematics in 2D Cartesian space.

State ordering is [x, u, a_x, y, v, a_y]: position, velocity and acceleration
per axis, SI units throughout.

`miss_distance_batch` scores intruder states by their miss distance to an
observer.  Both follow constant-acceleration motion, so their relative
position is q(t) = q0 + q1 t + q2 t^2 per axis and the squared distance
|q(t)|^2 is a quartic in t.  Its minimum over [0, H] lies where the
quartic's cubic derivative vanishes or at an end of the interval: this is the
closest point of approach (CPA) of conflict detection, in continuous time.

The quartic grows without bound on both sides, so it has at most two
minima: the only real root of its derivative, or the largest and the smallest
of three, whose middle root is the maximum between them.  The minimum over
[0, H] is at an interior minimum, or at an end with a minimum beyond it, so
it is at one of those two roots clipped to [0, H].  `miss_distance_batch`
takes them from `_critical_points`, adds the minimiser of the linear motion,
-q0.q1 / |q1|^2, which is the CPA when the relative acceleration is zero and
stands in for the roots where a tiny acceleration makes Cardano's formula
lose its precision, clips each candidate to [0, H], NaN going to 0, and
keeps the smallest squared distance among them.  Every candidate is a
time in [0, H], so an extra one can only bring the result closer to the true
minimum.  Every operation is per row: a row's result never depends on the
rows beside it.
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


# Rows per block: a block's (rows,) and (3, rows) work arrays stay under
# glibc's 128 kB mmap threshold, so numpy reuses their memory instead of
# faulting in fresh pages for every temporary; the (6, rows) coefficients
# and `_dots`' (2, 5, rows) products are the two larger arrays.
_BLOCK_ROWS = 1 << 12
_PAIR = np.array([[1.0], [-0.5]])
_THIRDS = np.array([[0.0], [4.0]]) * (np.pi / 3.0)


def _dots(q):
    """The dot products q2.q2, q1.q2, q1.q1, q0.q2 and q0.q1, (5, n), of the
    coefficients `q` (6, n): rows x0, x1, x2, y0, y1, y2 of
    q(t) = q0 + q1 t + q2 t^2 per axis.  Each is x_a x_b + y_a y_b, and
    both axes' products come in three calls: (q2, q1) q2, (q1, q0) q1 and
    q0 q2."""
    q3 = q.reshape(2, 3, -1)
    prod = np.empty((2, 5, q.shape[1]))
    np.multiply(q3[:, 2:0:-1], q3[:, 2:], out=prod[:, :2])
    np.multiply(q3[:, 1::-1], q3[:, 1:2], out=prod[:, 2::2])
    np.multiply(q3[:, 0], q3[:, 2], out=prod[:, 3])
    dots = prod[0]
    dots += prod[1]
    return dots


def _critical_points(dots, out=None):
    """Candidate minima of |q|^2, (2, n), in the units of q's variable,
    written into `out` if given.

    `dots` holds the `_dots` of q.  Half the derivative of |q|^2 is the cubic
    a t^3 + b t^2 + c t + d with a = 2 q2.q2, b = 3 q1.q2,
    c = q1.q1 + 2 q0.q2 and d = q0.q1.  Its roots come from Cardano's
    formula, with the cancellation-free choice of cube root, when there is
    one real root, and from the trigonometric form when there are three.  As
    a > 0, three real roots are a minimum, the maximum between, and a
    minimum: the rows hold the largest and the smallest.  One real root is
    the only minimum; the second row then holds the real part of the complex
    pair, which is where two nearly coincident real roots sit when rounding
    has moved them off the real line.  Rows with a = 0 and degenerate rows
    come out non-finite.
    """
    q22, q12, q11, q02, q01 = dots
    # shift = b / 3a, c_3 = c / 3a, third_p = c_3 - shift^2,
    # half_q = ((2 shift^2 - 3 c_3) shift + d / a) / 2, disc = half_q^2 + third_p^3
    # and w = cbrt(-half_q - sign(half_q) sqrt(max(disc, 0))), each operation
    # in the order written, its temporaries overwritten in place
    inv_2a = np.divide(0.5, q22)
    shift = q12 * inv_2a
    c_3 = np.multiply(q02, 2.0)
    c_3 += q11
    c_3 *= inv_2a
    c_3 /= 3.0
    half_q = shift * shift
    third_p = c_3 - half_q
    half_q *= 2.0
    c_3 *= 3.0
    half_q -= c_3
    half_q *= shift
    inv_2a *= q01
    half_q += inv_2a
    half_q *= 0.5
    disc = np.multiply(half_q, half_q, out=inv_2a)
    w = np.multiply(third_p, third_p, out=c_3)
    w *= third_p
    disc += w
    np.maximum(disc, 0.0, out=w)
    np.sqrt(w, out=w)
    np.copysign(w, half_q, out=w)
    np.negative(w, out=w)
    w -= half_q
    np.cbrt(w, out=w)
    roots = np.divide(third_p, w)
    np.subtract(w, roots, out=roots)
    roots = np.multiply(roots, _PAIR, out=out)
    # the trigonometric form only where it applies: its cosines cost more
    # than the gather
    three = np.flatnonzero(disc <= 0.0)
    if three.size:
        r = np.sqrt(-third_p.take(three))
        cos_3theta = np.minimum(np.maximum(-half_q.take(three) / (r * r * r), -1.0), 1.0)
        roots[:, three] = (2.0 * r) * np.cos(np.arccos(cos_3theta) / 3.0 - _THIRDS)
    roots -= shift
    return roots


def miss_distance_batch(
    states: np.ndarray, observers: np.ndarray, problem: np.ndarray, horizons: np.ndarray
):
    """Closest approach of each state to its observer over [0, its horizon].

    Each row of `states` (n, 6) and of `observers` (K, 6) is a state
    [x, u, a_x, y, v, a_y]; `problem` (n,) holds row i's observer index in
    [0, K), of an integer dtype, and `horizons` (K,) each observer's horizon
    in seconds.

    Returns (miss, tca): per row the smallest distance between the two
    aircraft over [0, horizon] and the time of that closest approach, the
    first of the candidates (see the module docstring) that reaches it.  A
    non-finite state gives a non-finite miss and no floating-point warning;
    the caller decides what that means.  A row whose miss is NaN has no
    closest candidate, and its tca is the last candidate's time.
    """
    states = np.asarray(states, dtype=np.float64)
    observers = np.asarray(observers, dtype=np.float64)
    problem = np.asarray(problem)
    horizons = np.asarray(horizons, dtype=np.float64)
    if states.ndim != 2 or states.shape[1] != 6:
        raise ValueError(f"states must be (n, 6), got shape {states.shape}")
    if observers.ndim != 2 or observers.shape[1] != 6:
        raise ValueError(f"observers must be (K, 6), got shape {observers.shape}")
    n, k = len(states), len(observers)
    if problem.dtype.kind not in "iu":
        # `take` reads a bool index as 0 or 1 and fails on a float one with a
        # TypeError
        raise ValueError(f"problem indices must be integers, got dtype {problem.dtype}")
    if problem.shape != (n,):
        raise ValueError(f"problem must hold one index per state, got shape {problem.shape}")
    if n and not 0 <= problem.min() <= problem.max() < k:
        raise ValueError(f"problem indices must lie in [0, {k})")
    if horizons.shape != (k,):
        raise ValueError(f"horizons must hold one value per observer, got shape {horizons.shape}")
    horizon = horizons.take(problem)
    miss, tca = np.empty(n), np.empty(n)
    # a non-finite state's row comes out non-finite, and the caller decides
    # what that means: no floating-point warning leaves
    with np.errstate(all="ignore"):
        for lo in range(0, n, _BLOCK_ROWS):
            hi = min(lo + _BLOCK_ROWS, n)
            miss[lo:hi], tca[lo:hi] = _closest_approach(
                states[lo:hi], observers, problem[lo:hi], horizon[lo:hi]
            )
    return miss, tca


def _closest_approach(s, observer, problem, horizon):
    """(miss, tca) of one block of rows; see `miss_distance_batch`."""
    n = len(s)
    # relative coefficients q0, q1, q2 per axis, rows contiguous
    q = np.subtract(s.T, observer.T.take(problem, axis=1), out=np.empty((6, n)))
    q[2::3] *= 0.5
    dots = _dots(q)
    t = np.empty((3, n))
    _critical_points(dots, out=t[:2])
    np.divide(dots[4], dots[2], out=t[2])  # -t of the linear motion's CPA
    np.negative(t[2], out=t[2])
    np.fmax(t, 0.0, out=t)  # NaN goes to 0
    np.fmin(t, horizon, out=t)
    # |q(t)|^2 per candidate, in place
    x0, x1, x2, y0, y1, y2 = q
    d2 = x2 * t
    d2 += x1
    d2 *= t
    d2 += x0
    d2 *= d2
    dy = np.multiply(y2, t, out=dots[:3])  # the dot products are spent
    dy += y1
    dy *= t
    dy += y0
    dy *= dy
    d2 += dy
    # the time of the first candidate that reaches the smallest distance
    miss = d2.min(axis=0)
    tca = t[2]
    np.copyto(tca, t[1], where=d2[1] == miss)
    np.copyto(tca, t[0], where=d2[0] == miss)
    return np.sqrt(miss, out=miss), tca
