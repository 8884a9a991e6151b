"""Dense-grid references for the continuous-time miss-distance kernel.

`track_positions` samples constant-acceleration states on a grid, and
`miss_distance_scan` takes the smallest distance over every grid point, so
it sees the closest approach only up to the grid step.  The kernel under
test finds the continuous minimum instead; the tests bound the gap between
the two (`scan_tolerance`).
"""

import numpy as np

EPS = np.finfo(np.float64).eps
# Rows per scan block: a block's temporaries hold this many grid points each.
_BLOCK_POINTS = 1_000_000


def track_positions(states, f, t):
    """Planar positions (K, t*f + 1, 2) of K states (K, 6) at the times k/f, k = 0..t*f.

    Positions are (x + u*tk) + (0.5*a)*(tk*tk) per axis.
    """
    if f <= 0 or t <= 0:
        raise ValueError(f"rate and horizon must be positive, got f={f}, t={t}")
    n_float = t * f
    n_steps = round(n_float)
    if abs(n_float - n_steps) > 1e-9 or n_steps < 1:
        raise ValueError(f"t*f must be a positive integer, got {n_float}")
    s = np.asarray(states, dtype=np.float64)
    tk = np.arange(n_steps + 1, dtype=np.float64) * (1.0 / f)
    tk2 = tk * tk
    out = np.empty((len(s), len(tk), 2))
    out[:, :, 0] = s[:, 0:1] + s[:, 1:2] * tk + (0.5 * s[:, 2:3]) * tk2
    out[:, :, 1] = s[:, 3:4] + s[:, 4:5] * tk + (0.5 * s[:, 5:6]) * tk2
    return out


def _axis_square(x, u, a, tk, tk2, obs):
    """((x + u*tk) + (0.5*a)*(tk*tk) - obs)^2, in place after the first product."""
    d = u * tk
    d += x
    d += (0.5 * a) * tk2
    d -= obs
    d *= d
    return d


def miss_distance_scan(states, observer, horizon, rate, problem=None):
    """Grid minimum: (miss, time) of each state against its observer over
    the times k/rate, k = 0..horizon*rate, the first grid time on ties.

    `observer` is one state (6,) or K states (K, 6) with `problem[i]` the
    observer of row i; `horizon` is shared.
    """
    states = np.atleast_2d(np.asarray(states, dtype=np.float64))
    observer = np.atleast_2d(np.asarray(observer, dtype=np.float64))
    problem = np.zeros(len(states), dtype=np.intp) if problem is None else np.asarray(problem)
    obs_xy = track_positions(observer, rate, horizon)
    n_pts = obs_xy.shape[1]
    tk = np.arange(n_pts, dtype=np.float64) * (1.0 / rate)
    tk2 = tk * tk
    miss = np.empty(len(states))
    idx = np.empty(len(states), dtype=np.intp)
    block = max(1, _BLOCK_POINTS // n_pts)
    for lo in range(0, len(states), block):
        s = states[lo : lo + block].T[:, :, None]
        obs = obs_xy[problem[lo : lo + block]]
        d2 = _axis_square(s[0], s[1], s[2], tk, tk2, obs[..., 0])
        d2 += _axis_square(s[3], s[4], s[5], tk, tk2, obs[..., 1])
        k = d2.argmin(axis=1)
        idx[lo : lo + block] = k
        miss[lo : lo + block] = np.sqrt(d2[np.arange(len(k)), k])
    return miss, idx * (1.0 / rate)


def scan_tolerance(states, observer, horizon, rate, problem=None):
    """Per row, (rounding, gap): the kernel's continuous miss m and the scan's
    grid miss g satisfy -rounding <= g - m <= gap + rounding.

    g >= m up to rounding, since every grid time is a time in [0, horizon]
    and m is the minimum over all of them.  The grid time nearest the
    closest approach lies within dt/2 of it, dt = 1/rate, and the distance
    changes at most at the relative speed |q1 + 2 q2 t|, which is convex in t
    and so largest at an end of [0, horizon]: g <= m + vmax dt/2 = m + gap.

    Rounding: both sides compute positions whose terms are at most |x|,
    |u| horizon and |a| horizon^2 / 2 per axis and aircraft, and each float
    expression stays within a few ulps of the sum M of those terms.  The
    kernel's candidate times are off the exact minimiser by the rounding of
    its roots, which moves the distance by second order where the minimum
    is interior (the squared distance is flat there) and not at all where
    it is clipped to an end.  `rounding` is 64 eps M, a stated margin over
    those few ulps that the tests then check.
    """
    states = np.atleast_2d(np.asarray(states, dtype=np.float64))
    observer = np.atleast_2d(np.asarray(observer, dtype=np.float64))
    obs = observer[np.zeros(len(states), dtype=np.intp) if problem is None else problem]
    rel = states - obs
    q1, accel = rel[:, [1, 4]], rel[:, [2, 5]]
    vmax = np.maximum(np.hypot(*q1.T), np.hypot(*(q1 + accel * horizon).T))
    weights = np.array([1.0, horizon, 0.5 * horizon * horizon] * 2)
    magnitude = (np.abs(states) + np.abs(obs)) @ weights
    return 64.0 * EPS * magnitude, vmax * (0.5 / rate)
