"""Reference loops that measure the machine's speed alongside the workload.

The benchmark runs on shared vCPUs whose speed changes by itself, by up to 2x,
for stretches of a fraction of a second to minutes (see NOTES.md, Noise).
A run that lands in a slow stretch reads slow however long it is.  So the
runner interleaves a fixed reference loop with the workload and divides each
operation's time by how slow the loop ran around it:

    normalised seconds = measured seconds / slowdown
    slowdown = loop time around the operation / its nominal time

The loop uses only numpy, never subsim, so a change to subsim moves the
workload's time but not the loop's.  Slow stretches do not slow all code
alike: many short numpy calls slow more than sweeps over arrays.  So the loop
has two parts, timed one by one, and each workload names the parts that
match its work; its slowdown is the geometric mean of theirs.
"""

from __future__ import annotations

import importlib
import math
import statistics
from time import perf_counter

import numpy as np

GAP_S = 0.05  # least workload time between two reference loops inside an operation
MIN_LOOPS = 41  # least loops an operation's slowdown is taken over

_T = np.arange(401) * 0.05
_TRACK = np.stack([100.0 * _T, np.zeros_like(_T)], axis=1)
_STATE = np.array([-2000.0, 100.0, 0.5, 30.0, -1.0, 0.2])
_SWEEP = np.linspace(-1.0, 1.0, 40_000)
# The sweep writes into a buffer made once.  Fresh arrays this large come from
# the allocator in a way that depends on what the workload allocated before,
# which would make the loop's time depend on the workload.
_OUT = np.empty_like(_SWEEP)


def _track() -> None:
    """40 closest approaches over a 401-point track: many short numpy calls."""
    for j in range(40):
        s = _STATE + j
        dx = (s[0] + s[1] * _T + (0.5 * s[2]) * _T * _T) - _TRACK[:, 0]
        dy = (s[3] + s[4] * _T + (0.5 * s[5]) * _T * _T) - _TRACK[:, 1]
        d2 = dx * dx + dy * dy
        np.sqrt(d2[np.argmin(d2)])


def _sweep() -> None:
    """8 sweeps of sqrt(x*x + 1) over 40,000 elements, which stay in cache."""
    for _ in range(8):
        np.multiply(_SWEEP, _SWEEP, out=_OUT)
        np.add(_OUT, 1.0, out=_OUT)
        np.sqrt(_OUT, out=_OUT)
        _OUT.sum()


# Each part and its time at the nominal speed: round figures of the order of
# the parts' times on the 2-vCPU Xeon where the benchmark was written, so
# normalised seconds read roughly as that machine's seconds.
PARTS = {"track": (_track, 1.5e-3), "sweep": (_sweep, 1.0e-3)}


class Pacer:
    """Runs the reference loop's `parts` between pieces of work and keeps their times.

    `tick()` runs the loop when at least `GAP_S` has passed since the last
    one; hooks installed on module attributes call it from inside an
    operation.  `spent` is the total time inside the loop, which the runner
    subtracts from operation times.
    """

    def __init__(self, parts):
        self.parts = tuple(parts)
        self.times: list[dict[str, float]] = []  # per loop, each part's time
        self.spent = 0.0
        self._last = float("-inf")
        self._saved: list[tuple] = []

    def tick(self, force: bool = False) -> None:
        t0 = perf_counter()
        if not force and t0 - self._last < GAP_S:
            return
        loop, t = {}, t0
        for name in self.parts:
            PARTS[name][0]()
            t1 = perf_counter()
            loop[name], t = t1 - t, t1
        self.times.append(loop)
        self.spent += t - t0
        self._last = t

    def slowdown(self, lo: int = 0, hi: int | None = None) -> float:
        """Geometric mean over the parts of their median time in loops lo..hi-1 over nominal."""
        loops = self.times[lo:hi]
        logs = [
            math.log(statistics.median(loop[name] for loop in loops) / PARTS[name][1])
            for name in self.parts
        ]
        return math.exp(sum(logs) / len(logs))

    def slowdown_around(self, lo: int, hi: int) -> float:
        """Slowdown over loops lo..hi-1, widened on both sides to at least MIN_LOOPS loops.

        A short operation has only a few loops around it, and dividing by a
        noisy slowdown biases the normalised time upwards.
        """
        n = len(self.times)
        while hi - lo < min(MIN_LOOPS, n):
            lo, hi = max(lo - 1, 0), min(hi + 1, n)
        return self.slowdown(lo, hi)

    def install(self, hooks) -> list[str]:
        """Tick on every call of each (module, attribute); returns the missing targets."""
        missing = []
        for module_name, attr in hooks:
            try:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
            except (ImportError, AttributeError):
                missing.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original))
        return missing

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, fn):
        tick = self.tick

        def paced(*args, **kwargs):
            tick()
            return fn(*args, **kwargs)

        return paced
