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
reference for the closed form; so do tracks too short to hold a window.

Both kernels take K observer tracks of one length, (K, points, 2), and a
row-to-track index, so one call serves the states of K independent problems;
a single (points, 2) track is the case K = 1.  A caller that scores many
batches against the same tracks builds their `Tracks` once, which checks
them and holds the closed form's per-track constants, and passes it to each
`miss_distance_batch` call.

A caller that only asks whether a row's miss is at most some `bound` passes
that bound.  The quartic's minimum over the whole track, continuous in time,
lies at one of the two candidate minima clipped to the track, so the smaller
distance there, less a rounding margin (`_lower_bound`), is at most the
scan's value.  A row whose lower bound exceeds `bound` skips the grid window
and returns that lower bound, with index -1: a value above `bound` and at
most the exact miss.  Every other row is exact, bit for bit, and a row's
result never depends on the rows beside it.
"""

from __future__ import annotations

import numpy as np

# Elements per scan block: each of its three (rows, points) temporaries holds
# half of them, about 24 MB.
_BLOCK_ELEMS = 6_000_000
# Rows per closed-form block: about 80 kB per (10 grid points, rows)
# temporary, under glibc's 128 kB mmap threshold.  Against 1,536 rows,
# interleaved on p2 and head-on posterior draws, 1,024 took 1.04-1.12x the
# time on 1,536-3,072 p2 rows but 0.71-0.84x on 2,500-3,072 head-on rows and
# on 10,000 rows of either; 768 rows were slower from 2,500 rows on.
_BLOCK_ROWS = 1 << 10
# Rows per block of a bounded call, whose critical points and lower bounds
# are computed together before the rows they leave take their windows
# _BLOCK_ROWS at a time.  The bound's work arrays are (rows,) and (2, rows),
# and numpy's per-call cost weighs less on longer ones: on 11,100 p2
# posterior draws bounded at 152.4 m, interleaved, 4,096 rows took 0.75x the
# time of 1,024.
_ROOT_ROWS = 1 << 12
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
# Allowed root error per unit of a row's root reach (see `_lower_bound`): 64
# times the square root of the rounding, the error of a double root.  At p2
# it widens the margin by under a metre, which leaves a row in a thousand or
# fewer to the window.
_ROOT_TOL = 2.0**-20
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
    (x + u*tk) + (0.5*a)*(tk*tk) per axis, as in `dynamics.track_positions`.
    Both kernels go through this one expression, so they round identically.
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


def _as_tracks(obs_xy):
    """`obs_xy` as C-contiguous float64 (K, points, 2) tracks."""
    obs_xy = np.asarray(obs_xy, dtype=np.float64)
    if obs_xy.ndim == 2:
        obs_xy = obs_xy[None]
    obs_xy = _as_c_f64(obs_xy, "obs_xy", 3)
    if obs_xy.shape[2] != 2:
        raise ValueError(f"obs_xy must have 2 columns, got {obs_xy.shape[2]}")
    if obs_xy.shape[1] == 0:
        raise ValueError("obs_xy must contain at least one point")
    return obs_xy


def _rows(states, problem, k):
    """(states, problem): (n, 6) states and one track index in [0, k) per row."""
    states = _as_c_f64(states, "states", 2)
    if states.shape[1] != 6:
        raise ValueError(f"states must have 6 columns, got {states.shape[1]}")
    n = states.shape[0]
    if problem is None:
        if k != 1:
            raise ValueError(f"{k} tracks need a row-to-track index")
        return states, np.zeros(n, dtype=np.intp)
    problem = np.asarray(problem, dtype=np.intp)
    if problem.shape != (n,):
        raise ValueError(f"problem must hold one index per state, got shape {problem.shape}")
    if n and not 0 <= problem.min() <= problem.max() < k:
        raise ValueError(f"problem indices must lie in [0, {k})")
    return states, problem


class Tracks:
    """K observer tracks on one grid step, checked, with the closed form's
    per-track constants.

    `obs_xy` holds the `dynamics.track_positions` rows (K, points, 2) of the
    observer states `observer` (K, 6) at step `dt`; a (points, 2) track and a
    (6,) state are the case K = 1.  Construction rejects tracks of the wrong
    shape, non-finite tracks, and a track whose first or last point differs
    from its state's.
    """

    def __init__(self, obs_xy, dt, observer):
        obs_xy = _as_tracks(obs_xy)
        observer = np.asarray(observer, dtype=np.float64)
        if observer.shape == (6,):
            observer = observer[None]
        if observer.shape != (obs_xy.shape[0], 6):
            raise ValueError(
                f"observer must be one 6-component state per track, got shape {observer.shape}"
            )
        if not np.isfinite(obs_xy).all():
            raise ValueError("obs_xy must be finite")
        dt = float(dt)
        last = obs_xy.shape[1] - 1
        t_end = last * dt
        start = observer[:, (0, 3)]
        end = start + observer[:, (1, 4)] * t_end + (0.5 * observer[:, (2, 5)]) * (t_end * t_end)
        if not ((obs_xy[:, 0] == start).all() and (obs_xy[:, last] == end).all()):
            raise ValueError("obs_xy is not the track of the observer state at this dt")
        self.obs_xy, self.dt, self.observer = obs_xy, dt, observer
        # position scale per state component in grid-index units, and the
        # rounding bound of a position per unit of each component's magnitude
        self.scale = np.array([1.0, dt, 0.5 * dt * dt] * 2)
        self.err_w = _TOL * np.array([1.0, t_end, 0.5 * t_end * t_end] * 2)
        self.err_o = np.abs(observer) @ self.err_w


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
    obs_xy = _as_tracks(obs_xy)
    states, problem = _rows(states, problem, obs_xy.shape[0])
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
    """Candidate minima of |q|^2 in grid-index units, (2, n), and their reach (n,).

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

    The reach is |b/3a| plus twice |w| or the trigonometric radius, at least
    the magnitudes of the terms each formula sums (|p/w| <= |w| with the
    cancellation-free cube root): it bounds the modulus of every root of the
    cubic, and the rounding of each root is a few ulps of it.
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
    one = disc > 0.0
    reach = np.abs(shift) + 2.0 * np.where(one, np.abs(w), r)
    return np.where(one, y_one, y_three) - shift, reach


def _lower_bound(q, roots, reach, pos2, last):
    """A lower bound on each row's scanned miss distance.

    `q` and `roots` are as in `_critical_points`, `reach` the roots' reach,
    `pos2` twice the rounding bound of one distance's positions, 2 (err_o +
    |s|.err_w) as in the gap check, and `last` the track's last grid index.

    The quartic is monotone between its critical points, so its minimum m
    over [0, last] lies at an interior minimum, or at an end with a minimum
    beyond it: at one of the two candidates clipped to the track.  A
    computed root within delta of the exact one moves its clipped candidate
    by at most delta, and the distance by at most lip * delta, with lip =
    |q1| + 2 |q2| last bounding the distance's rate over the track.
    delta = _ROOT_TOL * reach: a simple root's error is a few ulps of the
    reach and a double root's about the square root of the rounding, 2^-26;
    where a triple root's error grows toward the cube root, the quartic is
    flat to fourth order, so the distance there still rises by far less.  The
    smaller candidate distance L carries the rounding of q's coefficients
    and of its evaluation, within one position bound as for any position and
    _TOL relative, and each scanned distance is at least (1 - _TOL)(distance
    - the other position bound), so

        scanned miss >= L (1 - 3 _TOL) - pos2 - lip * delta,

    the third _TOL covering the rounding of this expression.  It holds for
    rows whose roots are finite and within _ROOT_LIMIT; on others it is
    garbage, and the caller must not settle them.
    """
    q3 = q.reshape(2, 3, -1)  # axis, coefficient, row
    k = np.minimum(np.maximum(roots, 0.0), float(last))
    # q0 + (q1 + q2 k) k per axis and candidate, squared
    pt = q3[:, 2, None] * k
    pt += q3[:, 1, None]
    pt *= k
    pt += q3[:, 0, None]
    pt *= pt
    d2 = pt[0] + pt[1]
    norms = np.sqrt(np.square(q3[:, 1:]).sum(axis=0))  # |q1| and |q2|
    lip = norms[0] + (2.0 * last) * norms[1]
    lip *= _ROOT_TOL * reach
    lip += pos2
    return np.sqrt(np.minimum(d2[0], d2[1])) * (1.0 - 3.0 * _TOL) - lip


def _grid_window(s, tracks, problem, roots, pos2, settled):
    """(miss, index, settled) of rows by the ten-point window; unsettled rows
    are garbage.

    Row i of `s` runs against track `problem[i]` of `tracks`, whose grid
    has at least _SPAN points, with candidate minima `roots[:, i]` and twice
    its position rounding bound `pos2[i]`; `settled` is False for rows whose
    roots are non-finite or beyond _ROOT_LIMIT, and is updated in place.
    Work arrays put the rows last, so every operation runs along the block.
    """
    obs_xy, dt = tracks.obs_xy, tracks.dt
    n = s.shape[0]
    last = obs_xy.shape[1] - 1

    # Rows of `idx`: the track's first point, a window of _SPAN points at
    # each candidate minimum, the smaller first, and the track's last point.
    # A window covers b - 1 .. b + 2, with b its root's floor clamped to
    # 1 .. last - 2 (NaN goes to 1) so that it stays on the track; a clamped
    # window still holds its root if the root lies on the track, and one off
    # the track does not matter.  In this order the rows list grid indices
    # such that the first minimum among them is the one with the smallest
    # index.
    inner = np.fmin(np.fmax(roots, 1.0), last - 2.0).astype(np.intp)  # floor, as inner >= 1
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
    margin = pos2 + np.sqrt(best) * (1.0 + _TOL)
    clear = edges * (1.0 - _TOL) > margin
    settled &= (clear | ~gap).all(axis=0)
    return np.sqrt(best), idx[first, cols], settled


def _closed_form_block(s, tracks, problem, bound):
    """(miss, index, settled) for one block of rows; unsettled rows are garbage.

    Row i of `s` runs against track `problem[i]` of `tracks`, whose grid has
    at least _SPAN points.  Without a bound every row takes the grid window.
    With one (a scalar, or one per row), rows whose `_lower_bound` exceeds it
    are settled with that lower bound and index -1, and the others take the
    window, _BLOCK_ROWS at a time.
    """
    # relative position q0 + q1 k + q2 k^2 per axis, in grid-index units k = t / dt;
    # rows of q are contiguous, so that no operation runs along a short axis.
    # take() gathers rows several times faster than fancy indexing.
    q = np.subtract(s.T, tracks.observer.T.take(problem, axis=1), out=np.empty((6, len(s))))
    q *= tracks.scale[:, None]
    roots, reach = _critical_points(q)
    ok = (np.abs(roots) < _ROOT_LIMIT).all(axis=0)  # false for non-finite roots too
    pos2 = 2.0 * (tracks.err_o.take(problem) + np.abs(s) @ tracks.err_w)
    if bound is None:
        return _grid_window(s, tracks, problem, roots, pos2, ok)
    miss = _lower_bound(q, roots, reach, pos2, tracks.obs_xy.shape[1] - 1)
    idx = np.full(len(s), -1, dtype=np.intp)
    settled = np.ones(len(s), dtype=bool)
    near = np.flatnonzero(~((miss > bound) & ok))
    for lo in range(0, len(near), _BLOCK_ROWS):
        rows = near[lo : lo + _BLOCK_ROWS]
        miss[rows], idx[rows], settled[rows] = _grid_window(
            s.take(rows, axis=0),
            tracks,
            problem.take(rows),
            roots.take(rows, axis=1),
            pos2.take(rows),
            ok.take(rows),
        )
    return miss, idx, settled


def miss_distance_batch(
    states: np.ndarray,
    obs_xy: np.ndarray,
    dt: float,
    observer,
    problem=None,
    bound=None,
    *,
    tracks: Tracks | None = None,
):
    """Miss distance of each state's trajectory against its observer's track.

    `observer` is the observer's constant-acceleration state
    [x, u, a_x, y, v, a_y] and `obs_xy` its `dynamics.track_positions` row
    at step `dt`; or, for K problems at once, K states (K, 6) and their K tracks
    (K, points, 2), with `problem[i]` the problem of row i.  A track whose
    first or last point differs from its state's is rejected.  `tracks`,
    when given, is `Tracks(obs_xy, dt, observer)` built once by the caller,
    whose checks and constants then serve this call.  Each row of `states`
    is an intruder state evaluated at t = k*dt, as in `miss_distance_scan`,
    whose result this equals bit for bit: (miss, index), the minimum
    pointwise distance per state and the first step index where it occurs.

    With a `bound` (a scalar, or one per row), a row whose miss provably
    exceeds it may instead return a value above the bound and at most its
    miss, with index -1 (see the module docstring); rows with a non-finite
    root or state, and every row on a track of fewer than _SPAN points,
    stay exact.
    """
    if tracks is None:
        tracks = Tracks(obs_xy, dt, observer)
    states, problem = _rows(states, problem, tracks.obs_xy.shape[0])
    n = states.shape[0]
    if bound is not None:
        bound = np.asarray(bound, dtype=np.float64)
        if bound.shape not in ((), (n,)):
            raise ValueError(f"bound must be a scalar or one value per state, got shape {bound.shape}")
    # a non-finite state's row comes out non-finite, from the scan too, and
    # the caller decides what that means: no floating-point warning leaves
    with np.errstate(all="ignore"):
        if tracks.obs_xy.shape[1] < _SPAN:
            return miss_distance_scan(states, tracks.obs_xy, tracks.dt, problem)
        miss = np.empty(n, dtype=np.float64)
        idx = np.empty(n, dtype=np.intp)
        settled = np.empty(n, dtype=bool)
        block = _BLOCK_ROWS if bound is None else _ROOT_ROWS
        for lo in range(0, n, block):
            hi = min(lo + block, n)
            b = bound if bound is None or bound.ndim == 0 else bound[lo:hi]
            miss[lo:hi], idx[lo:hi], settled[lo:hi] = _closed_form_block(
                states[lo:hi], tracks, problem[lo:hi], b
            )
        if not settled.all():
            rows = np.flatnonzero(~settled)
            miss[rows], idx[rows] = miss_distance_scan(
                states[rows], tracks.obs_xy, tracks.dt, problem[rows]
            )
    return miss, idx
