"""Per-layer metrics computed from the spans of one traced run.

Counts and busy times are per operation of the timed window, plus whatever
input generation did once (the four p2 phase freezes and their 8,000 Kalman
steps).  Rates and ratios are taken over every traced span.  A span's self
time is its duration minus the durations of its child spans; calls nest on
one thread, so children never overlap.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from spans import INPUTS, ROOT

SPEC = json.loads((Path(__file__).with_name("layers.json")).read_text())["metrics"]

SYSTEM_CALLS = tuple(
    f"{p}.{c}" for p in ("conflict", "toy") for c in ("sample_prior", "evaluate", "chain")
)

# A kernel call reads its states and the observer track, writes miss and
# index, and (in the grid scan) fills one float64 squared distance per state
# and grid point: 8 * (6n + 2P + 2n + nP) bytes.  Computed from array sizes.
BYTES_PER_FLOAT = 8


def _ratio(num: float, den: float) -> float:
    return float(num) / float(den) if den else 0.0


class _Spans:
    def __init__(self, cols: dict, names: list[str], n_ops: int):
        self.cols = cols
        self.names = names
        self.n_ops = n_ops
        self.dur = cols["end"] - cols["start"]
        has_parent = cols["parent"] != ROOT
        child = np.bincount(
            cols["parent"][has_parent], weights=self.dur[has_parent], minlength=len(self.dur)
        )
        self.self_time = self.dur - child
        self.in_ops = cols["op"] >= 0
        self.in_inputs = cols["op"] == INPUTS

    def mask(self, *names: str) -> np.ndarray:
        ids = [self.names.index(n) for n in names if n in self.names]
        return np.isin(self.cols["name"], ids)

    def per_op(self, mask: np.ndarray, values=None) -> float:
        v = np.ones(len(mask)) if values is None else np.asarray(values, dtype=np.float64)
        return _ratio(v[mask & self.in_ops].sum(), self.n_ops) + float(v[mask & self.in_inputs].sum())


def _step_times_ms(s: _Spans, op_windows: list[tuple[float, float]]) -> np.ndarray:
    """Head-on step durations: from one top-level Kalman step to the next.

    `simulate_scenario` runs the filter step first in every loop iteration,
    so consecutive top-level KF starts bracket one scenario step; the last
    step ends with its operation.
    """
    kf = s.mask("tracking.kf") & s.in_ops & (s.cols["parent"] == ROOT)
    out = []
    for op, (_, end) in enumerate(op_windows):
        starts = np.sort(s.cols["start"][kf & (s.cols["op"] == op)])
        if len(starts):
            out.append(np.diff(np.append(starts, end)))
    return np.concatenate(out) * 1e3 if out else np.zeros(0)


def compute(tracer, cols, op_windows, stalls_per_op, diagnostics, overhead_frac):
    """(every per-layer metric of layers.json by name, exact counts of operation 0)."""
    n_ops = len(op_windows)
    s = _Spans(cols, tracer.names, n_ops)
    a1, a2, dur = s.cols["a1"], s.cols["a2"], s.dur
    op_wall = sum(end - start for start, end in op_windows)
    m: dict[str, float] = {}

    k = s.mask("dynamics.kernel")
    m["dynamics.kernel.calls"] = s.per_op(k)
    m["dynamics.kernel.states"] = s.per_op(k, a1)
    m["dynamics.kernel.single.busy_s"] = s.per_op(k & (a1 == 1), dur)
    m["dynamics.kernel.batch.busy_s"] = s.per_op(k & (a1 > 1), dur)
    m["dynamics.kernel.ns_per_state_point"] = _ratio(dur[k].sum() * 1e9, (a1 * a2)[k].sum())
    m["dynamics.kernel.bytes_computed"] = s.per_op(k, BYTES_PER_FLOAT * (8 * a1 + 2 * a2 + a1 * a2))
    m["dynamics.kernel.share"] = _ratio(dur[k & s.in_ops].sum(), op_wall)

    run = s.mask("engine.run")
    system_children = s.mask(*SYSTEM_CALLS)
    sys_time = np.bincount(
        s.cols["parent"][system_children], weights=dur[system_children], minlength=len(dur)
    )
    m["engine.runs"] = s.per_op(run)
    m["engine.levels"] = s.per_op(run, a1)
    m["engine.floor_runs"] = s.per_op(run, a2)
    m["engine.self_s"] = s.per_op(run, dur - sys_time)
    asm = s.mask("engine.assemble")
    m["engine.assemble.busy_s"] = s.per_op(asm, dur)
    m["engine.assemble.rows"] = s.per_op(asm, a1)
    m["engine.stall_warnings"] = (
        _ratio(sum(v for op, v in stalls_per_op.items() if op >= 0), n_ops)
        + stalls_per_op.get(INPUTS, 0)
    )

    gen = s.mask("rng.generator")
    m["rng.generator.calls"] = s.per_op(gen)
    m["rng.generator.busy_s"] = s.per_op(gen, dur)

    m["conflict.pc_ss.busy_s"] = s.per_op(s.mask("conflict.pc_ss"), dur)
    m["conflict.pc_dmc.busy_s"] = s.per_op(s.mask("conflict.pc_dmc"), dur)
    steps = _step_times_ms(s, op_windows)
    m["conflict.step_ms.p50"] = float(np.percentile(steps, 50)) if len(steps) else 0.0
    m["conflict.step_ms.p97_5"] = float(np.percentile(steps, 97.5)) if len(steps) else 0.0
    for prefix in ("conflict", "toy"):
        ch = s.mask(f"{prefix}.chain")
        m[f"{prefix}.chain.steps"] = s.per_op(ch, a1)
        m[f"{prefix}.chain.self_us_per_step"] = _ratio(s.self_time[ch].sum() * 1e6, a1[ch].sum())
        m[f"{prefix}.chain.accept_rate"] = _ratio(a2[ch].sum(), a1[ch].sum())
    run_levels = dict(zip(np.flatnonzero(run).tolist(), a1[run].tolist()))
    m["conflict.level.distinct_frac"] = _ratio(*tracer.level_distinct(run_levels))
    m["conflict.system.busy_s"] = s.per_op(s.mask("conflict.system"), dur)
    m["toy.evaluate.busy_s"] = s.per_op(s.mask("toy.evaluate"), dur)

    kf = s.mask("tracking.kf")
    m["tracking.kf.calls"] = s.per_op(kf)
    m["tracking.kf.us_per_call"] = _ratio(dur[kf].sum() * 1e6, kf.sum())
    m["analysis.freeze.busy_s"] = s.per_op(s.mask("analysis.freeze"), dur)

    m["trace.overhead_frac"] = overhead_frac
    m["trace.spans"] = s.per_op(np.ones(len(dur), dtype=bool))
    for spec in SPEC:
        m.setdefault(spec["name"], float(diagnostics.get(spec["name"], 0.0)))

    op0 = s.cols["op"] == 0
    op0_counts = {
        "kernel_calls": int(np.count_nonzero(k & op0)),
        "stall_warnings": int(stalls_per_op.get(0, 0)),
        "levels": int(a1[run & op0].sum()),
        "floor_steps": int(a2[run & op0].sum()),
        "generators": int(np.count_nonzero(gen & op0)),
    }
    return {spec["name"]: m[spec["name"]] for spec in SPEC}, op0_counts
