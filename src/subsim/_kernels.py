"""Miss distance of constant-acceleration states against an observer track.

The observer and every intruder state follow constant-acceleration motion, so
the squared distance between them is a quartic in time.  Between the real
roots of its cubic derivative the quartic is monotone, so the first minimum
over the sampling grid lies next to one of its minima or at an end of the
track.  The quartic has at most two minima: the only real root, or the
largest and the smallest of three, whose middle root is the maximum between
them.  `miss_distance_batch` evaluates the grid scan's own float expression
at ten grid points a row: a window of four around each candidate minimum,
and the track's first and last points.  The quartic is smallest at an edge
of any stretch of grid that holds no minimum, so checking the edges of the
stretches between those points rules all of them out: the maximum between
the minima needs no window, and nor do the neighbours of the track's ends,
since the windows hold every minimum.  Rows it cannot settle (no relative
acceleration, or a curve too flat for rounding to order the grid points) go
to `miss_distance_scan`, which evaluates every grid point and is the
reference for the closed form; so do batches too small for the closed form's
fixed cost to pay.

Both kernels take K observer tracks of one length, (K, points, 2), and a
row-to-track index, so one call serves the states of K independent problems;
a single (points, 2) track is the case K = 1.
"""

from __future__ import annotations

import numpy as np

# Elements per scan block: each of its three (rows, points) temporaries holds
# half of them, about 24 MB.
_BLOCK_ELEMS = 6_000_000
# At or below this many state-points a batch goes to the scan: the closed
# form's fixed cost of about eighty small array operations, 200-300 us a
# call, exceeds the scan's.  Interleaved timings on 1 and 16 tracks of 401
# and 4,001 points put the crossover on either side of this value: on one
# track the scan took 0.56-0.73 of the closed form's time at 12,003-12,431
# state-points (3 rows on 4,001 points, 31 on 401) and stayed cheaper up to
# 19,248-20,005; on 16 tracks, whose scan gathers a track per row, it took
# 0.78 at 12,431 on 401 points but 1.48x the closed form's time at 12,003
# on 4,001 points, and 1.8x from 14,436 on 401.  In use the K > 1 scan is
# rare: a 400-step head-on encounter (seeds 3, 7, 11 and 1234) sends 25 of
# its 555 kernel calls here, 3.4-3.9 ms in all, every one the 16 true
# states of a step group, whose zero relative acceleration would send them
# to the scan anyway; a 2-rep p2 c.o.v. study sends none of its 99.
_SCAN_ELEMS = 12_288
# Rows per closed-form block: about 80 kB per (10 grid points, rows)
# temporary, under glibc's 128 kB mmap threshold.  Against 1,536 rows,
# interleaved on p2 and head-on posterior draws, 1,024 took 1.04-1.12x the
# time on 1,536-3,072 p2 rows but 0.71-0.84x on 2,500-3,072 head-on rows and
# on 10,000 rows of either; 768 rows were slower from 2,500 rows on.
_BLOCK_ROWS = 1 << 10
# A window of grid points around each candidate minimum: the two points
# bracketing the root and one more on either side, so that a root computed up
# to a step off still lies inside.  The ends of the track need one point
# each, and the maximum between two minima none: see the gap check.
_OFFSETS = np.arange(-1, 3)
_SPAN = len(_OFFSETS)
# Relative bound on rounding in distances, and per unit of coordinate
# magnitude in positions; each is several times the worst case of the float
# expression, which stays within a few units in the last place.
_TOL = 8.0 * np.finfo(np.float64).eps
# Roots are computed to within a few ulps of the largest one; beyond this many
# grid steps that error could move a window off the root it is meant to hold.
_ROOT_LIMIT = 2.0**40
_PAIR = np.array([[1.0], [-0.5]])
_THIRDS = np.array([[0.0], [4.0]]) * (np.pi / 3.0)


def _as_c_f64(a, name, ndim):
    a = np.ascontiguousarray(a, dtype=np.float64)
    if a.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-dimensional, got shape {a.shape}")
    return a


def _squared_distance(s, tk, obs_x, obs_y):
    """Squared distance of states at times `tk` from points (obs_x, obs_y).

    `s` holds the six state components [x, u, a_x, y, v, a_y], each
    broadcasting against `tk`, `obs_x` and `obs_y`.  Positions are
    (x + u*tk) + (0.5*a)*(tk*tk) per axis, as in `dynamics.propagate`.  Both
    kernels go through this one expression, so they round identically.
    """
    x, u, a_x, y, v, a_y = s
    tk2 = tk * tk
    # in place, in the expression's order: timed on closed-form blocks, the
    # page faults of fresh block-sized temporaries outweighed the arithmetic
    dx = u * tk
    dx += x
    acc = (0.5 * a_x) * tk2
    dx += acc
    dx -= obs_x
    dx *= dx
    dy = v * tk
    dy += y
    np.multiply(0.5 * a_y, tk2, out=acc)
    dy += acc
    dy -= obs_y
    dy *= dy
    dx += dy
    return dx


def _validate(states, obs_xy, problem):
    """(states, tracks, problem): tracks as (K, points, 2), one index per row."""
    states = _as_c_f64(states, "states", 2)
    obs_xy = np.asarray(obs_xy, dtype=np.float64)
    if obs_xy.ndim == 2:
        obs_xy = obs_xy[None]
    obs_xy = _as_c_f64(obs_xy, "obs_xy", 3)
    if states.shape[1] != 6:
        raise ValueError(f"states must have 6 columns, got {states.shape[1]}")
    if obs_xy.shape[2] != 2:
        raise ValueError(f"obs_xy must have 2 columns, got {obs_xy.shape[2]}")
    if obs_xy.shape[1] == 0:
        raise ValueError("obs_xy must contain at least one point")
    n, k = states.shape[0], obs_xy.shape[0]
    if problem is None:
        if k != 1:
            raise ValueError(f"{k} tracks need a row-to-track index")
        return states, obs_xy, np.zeros(n, dtype=np.intp)
    problem = np.asarray(problem, dtype=np.intp)
    if problem.shape != (n,):
        raise ValueError(f"problem must hold one index per state, got shape {problem.shape}")
    if n and not 0 <= problem.min() <= problem.max() < k:
        raise ValueError(f"problem indices must lie in [0, {k})")
    return states, obs_xy, problem


def miss_distance_scan(states: np.ndarray, obs_xy: np.ndarray, dt: float, problem=None):
    """Grid scan: squared distance at every grid point, first minimum per row.

    Each row of `states` is a kinematic state [x, u, a_x, y, v, a_y] whose
    planar position at step k is evaluated in closed form at t = k*dt and
    compared against point k of its track, which may be any path: `obs_xy`
    is one (points, 2) track, or K tracks (K, points, 2) with `problem[i]`
    the track of row i.

    Returns (miss, index): the minimum pointwise distance per state and the
    step index where it occurs (smallest index on ties).
    """
    states, obs_xy, problem = _validate(states, obs_xy, problem)
    n = states.shape[0]
    n_pts = obs_xy.shape[1]
    tk = np.arange(n_pts, dtype=np.float64) * float(dt)
    miss = np.empty(n, dtype=np.float64)
    idx = np.empty(n, dtype=np.intp)
    block = max(1, _BLOCK_ELEMS // (2 * n_pts))
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        obs = obs_xy[0] if obs_xy.shape[0] == 1 else obs_xy[problem[lo:hi]]
        d2 = _squared_distance(states[lo:hi].T[:, :, None], tk, obs[..., 0], obs[..., 1])
        k = np.argmin(d2, axis=1)  # first index on ties
        idx[lo:hi] = k
        miss[lo:hi] = np.sqrt(d2[np.arange(hi - lo), k])
    return miss, idx


def _critical_points(q):
    """Candidate minima of |q|^2 in grid-index units, (2, n).

    `q` is (6, n): rows x0, x1, x2, y0, y1, y2 hold the per-axis
    coefficients of q(k) = q0 + q1 k + q2 k^2.  Half the derivative of |q|^2
    is the cubic a k^3 + b k^2 + c k + d with a = 2 q2.q2, b = 3 q1.q2,
    c = q1.q1 + 2 q0.q2 and d = q0.q1, each dot product a sum over the two
    axes.  Its roots come from Cardano's formula, with the cancellation-free
    choice of cube root, when there is one real root, and from the
    trigonometric form when there are three.  As a > 0, three real roots are
    a minimum, the maximum between, and a minimum: the rows hold the largest
    and the smallest.  One real root is the only minimum; the second row
    then holds the real part of the complex pair, which is where two nearly
    coincident real roots sit when rounding has moved them off the real
    line.  Rows with a = 0 and degenerate rows come out non-finite.
    """
    x0, x1, x2, y0, y1, y2 = q
    inv_2a = 0.5 / (x2 * x2 + y2 * y2)
    shift = (x1 * x2 + y1 * y2) * inv_2a  # b / 3a
    c_3 = ((x1 * x1 + y1 * y1) + 2.0 * (x0 * x2 + y0 * y2)) * inv_2a / 3.0  # c / 3a
    s2 = shift * shift
    third_p = c_3 - s2
    half_q = ((2.0 * s2 - 3.0 * c_3) * shift + (x0 * x1 + y0 * y1) * inv_2a) * 0.5
    disc = half_q * half_q + third_p * third_p * third_p
    w = np.cbrt(-half_q - np.copysign(np.sqrt(np.maximum(disc, 0.0)), half_q))
    y_one = (w - third_p / w) * _PAIR
    r = np.sqrt(-third_p)
    cos_3theta = np.minimum(np.maximum(-half_q / (r * r * r), -1.0), 1.0)
    y_three = (2.0 * r) * np.cos(np.arccos(cos_3theta) / 3.0 - _THIRDS)
    return np.where(disc > 0.0, y_one, y_three) - shift


def _closed_form_block(s, obs_xy, problem, dt, observer, scale, err_o, err_w):
    """(miss, index, settled) for one block of rows; unsettled rows are garbage.

    Row i of `s` runs against track `problem[i]` of `obs_xy` and state
    `observer[problem[i]]`.  The tracks must have at least _SPAN points.
    Work arrays put the rows last, so every operation runs along the block.
    """
    n = s.shape[0]
    last = obs_xy.shape[1] - 1
    # relative position q0 + q1 k + q2 k^2 per axis, in grid-index units k = t / dt
    roots = _critical_points(((s - observer[problem]) * scale).T)
    settled = (np.abs(roots) < _ROOT_LIMIT).all(axis=0)  # false for non-finite roots too

    # Rows of `idx`: the track's first point, a window of _SPAN points at
    # each candidate minimum, the smaller first, and the track's last point.
    # A window covers b - 1 .. b + 2, with b its root's floor clamped to
    # 1 .. last - 2 (NaN goes to 1) so that it stays on the track; a clamped
    # window still holds its root if the root lies on the track, and one off
    # the track does not matter.  In this order the rows list grid indices
    # such that the first minimum among them is the one with the smallest
    # index.
    inner = np.floor(np.fmin(np.fmax(roots, 1.0), last - 2.0)).astype(np.intp)
    idx = np.empty((2 * _SPAN + 2, n), dtype=np.intp)
    idx[0] = 0
    idx[1 : _SPAN + 1] = np.minimum(inner[0], inner[1]) + _OFFSETS[:, None]
    idx[_SPAN + 1 : -1] = np.maximum(inner[0], inner[1]) + _OFFSETS[:, None]
    idx[-1] = last
    # np.take on the flat tracks, x at even and y at odd offsets, gathers far
    # faster than fancy indexing and needs no per-axis copy of the tracks
    flat = idx + problem * (last + 1)
    flat += flat
    obs_x = np.take(obs_xy, flat)
    flat += 1
    d2 = _squared_distance(s.T, idx * dt, obs_x, np.take(obs_xy, flat))
    first = d2.argmin(axis=0)
    cols = np.arange(n)
    best = d2[first, cols]

    # A grid point outside every window lies in a gap between two of them
    # that holds no minimum of the quartic, only perhaps the maximum between
    # two minima: the stretches before the first root window and after the
    # last hold none, since the root windows hold them all.  On such a gap
    # the quartic falls, rises, or rises then falls, so the exact distance of
    # every point in it is at least that of one of the gap's two edges.
    # Edges whose float distances clear the minimum by the rounding of both
    # therefore rule out the whole gap.  Rows 0, _SPAN and 2 * _SPAN end the
    # first point and the two windows; the rows after them start the next.
    ends, starts = slice(0, -1, _SPAN), slice(1, None, _SPAN)
    gap = idx[starts] - idx[ends] > 1
    edges = np.sqrt(np.minimum(d2[ends], d2[starts]))  # sqrt is monotone
    margin = 2.0 * (err_o[problem] + np.abs(s) @ err_w) + np.sqrt(best) * (1.0 + _TOL)
    clear = edges * (1.0 - _TOL) > margin
    settled &= (clear | ~gap).all(axis=0)
    return np.sqrt(best), idx[first, cols], settled


def miss_distance_batch(states: np.ndarray, obs_xy: np.ndarray, dt: float, observer, problem=None):
    """Miss distance of each state's trajectory against its observer's track.

    `observer` is the observer's constant-acceleration state
    [x, u, a_x, y, v, a_y] and `obs_xy` its `dynamics.propagate` positions at
    step `dt`; or, for K problems at once, K states (K, 6) and their K tracks
    (K, points, 2), with `problem[i]` the problem of row i.  A track whose
    first or last point differs from its state's is rejected.  Each row of
    `states` is an intruder state evaluated at t = k*dt, as in
    `miss_distance_scan`, whose result this equals bit for bit: (miss,
    index), the minimum pointwise distance per state and the first step
    index where it occurs.
    """
    states, obs_xy, problem = _validate(states, obs_xy, problem)
    observer = np.asarray(observer, dtype=np.float64)
    if observer.shape == (6,):
        observer = observer[None]
    if observer.shape != (obs_xy.shape[0], 6):
        raise ValueError(
            f"observer must be one 6-component state per track, got shape {observer.shape}"
        )
    dt = float(dt)
    n_pts = obs_xy.shape[1]
    last = n_pts - 1
    t_end = last * dt
    start = observer[:, (0, 3)]
    end = start + observer[:, (1, 4)] * t_end + (0.5 * observer[:, (2, 5)]) * (t_end * t_end)
    if not ((obs_xy[:, 0] == start).all() and (obs_xy[:, last] == end).all()):
        raise ValueError("obs_xy is not the track of the observer state at this dt")

    if states.shape[0] * n_pts <= _SCAN_ELEMS or n_pts < _SPAN:
        return miss_distance_scan(states, obs_xy, dt, problem)

    # position scale per state component in grid-index units, and the
    # rounding bound of a position per unit of each component's magnitude
    scale = np.array([1.0, dt, 0.5 * dt * dt] * 2)
    err_w = _TOL * np.array([1.0, t_end, 0.5 * t_end * t_end] * 2)
    err_o = np.abs(observer) @ err_w

    n = states.shape[0]
    miss = np.empty(n, dtype=np.float64)
    idx = np.empty(n, dtype=np.intp)
    settled = np.empty(n, dtype=bool)
    with np.errstate(all="ignore"):
        for lo in range(0, n, _BLOCK_ROWS):
            hi = min(lo + _BLOCK_ROWS, n)
            miss[lo:hi], idx[lo:hi], settled[lo:hi] = _closed_form_block(
                states[lo:hi], obs_xy, problem[lo:hi], dt, observer, scale, err_o, err_w
            )
    if not settled.all():
        rows = np.flatnonzero(~settled)
        miss[rows], idx[rows] = miss_distance_scan(states[rows], obs_xy, dt, problem[rows])
    return miss, idx
