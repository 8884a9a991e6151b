"""subsim benchmark: one workload, one process, one client in a closed loop.

    python3 perfbench/run.py --workload headon --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30   # the three in turn

Workloads (see NOTES.md for why each was chosen):
  headon  full 400-step head-on encounters, one `simulate_scenario` each
  p2-cov  the criterion-6 c.o.v. study at phase p2, one `cov_study` each
  toy     `ss_toy` cycling through three discs

With --trace 0 the run reports the end-to-end metrics (throughput, set-up
time, peak memory), with times normalised by a reference loop run alongside
the workload (see reference.py); with --trace 1 it wraps the public functions
of each layer from outside the package and reports per-layer metrics from the
spans.
Every operation's output is checked; the last stdout line is one JSON object
{"correct", "attempted", "failed", "metrics"}.  The exit code is 1 when any
check failed, 2 when subsim cannot be imported from this checkout's `src/`.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
OUT_DIR = HERE / "out"

# One process, at most one BLAS thread: the machine has two cores and the
# kernel's matrices are tiny, so more threads only add scheduling noise.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Set-up is timed once in this process and in fresh interpreters before and
# after the window, so the samples span the run; setup_s is their median.
# Each sample is normalised by reference loops run right after it.
SETUP_PROBES_EACH_SIDE = 3
SETUP_REFERENCE_LOOPS = 7
REFERENCE_SECONDS = 2.0  # untraced time replayed traced to measure tracing overhead
STALL_PREFIX = "intermediate threshold did not decrease"
ELSEWHERE = -2  # operation id of log records outside input generation and the window

WORKLOAD_NAMES = ("headon", "p2-cov", "toy")
E2E = {
    "ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class StallCounter(logging.Handler):
    """Counts subsim log records per operation instead of printing them."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.op = ELSEWHERE
        self.stalls: Counter = Counter()
        self.other: Counter = Counter()

    def emit(self, record):
        if record.getMessage().startswith(STALL_PREFIX):
            self.stalls[self.op] += 1
        else:
            self.other[self.op] += 1


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        p.error("--seed must be non-negative and --seconds positive")
    return args


def set_up(name: str, seed: int, counter: StallCounter, traced: bool):
    """Import, input generation and one warm-up operation, timed together.

    Returns (workload, inputs, tracer or None, seconds).  A tracer is
    installed only while the inputs are generated, so their spans carry
    operation id INPUTS.
    """
    t0 = time.perf_counter()
    sys.path.insert(0, str(CHECKOUT / "src"))
    import subsim

    src = (CHECKOUT / "src").resolve()
    if src not in Path(subsim.__file__).resolve().parents:
        raise ImportError(f"subsim imported from {subsim.__file__}, not from {src}")
    from spans import INPUTS, Tracer
    from workloads import WORKLOADS

    wl = WORKLOADS[name]
    tracer = Tracer() if traced else None
    if tracer:
        tracer.install()
    counter.op = INPUTS
    inp = wl.inputs(seed)
    counter.op = ELSEWHERE
    if tracer:
        tracer.uninstall()
    wl.warm_up(inp)
    return wl, inp, tracer, time.perf_counter() - t0


def setup_sample(wl, raw_s: float) -> tuple[float, float]:
    """(normalised, raw) set-up seconds; the reference loop runs right after set-up."""
    from reference import Pacer

    pacer = Pacer(wl.reference)
    for _ in range(SETUP_REFERENCE_LOOPS):
        pacer.tick(force=True)
    return raw_s / pacer.slowdown(), raw_s


def probe_setup(args) -> tuple[float, float]:
    """Set-up time of a fresh interpreter, measured the same way as this run's."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", "1"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=170, check=True, cwd=CHECKOUT)
    norm, raw = out.stdout.strip().splitlines()[-1].split()
    return float(norm), float(raw)


def run_op(wl, inp, i, errors, pacer=None):
    """One timed operation; returns (seconds, output or None).  Failures go to `errors`.

    Time spent in the pacer's reference loops during the operation is not
    counted.
    """
    spent = pacer.spent if pacer else 0.0
    t0 = time.perf_counter()
    try:
        out = wl.op(inp, i)
    except Exception:  # an operation that raises is counted as failed, not fatal
        out = None
        errors.append(f"op {i} raised:\n{traceback.format_exc()}")
    dt = time.perf_counter() - t0
    if pacer:
        dt -= pacer.spent - spent
    if out is not None:
        errors.extend(f"op {i}: {e}" for e in wl.check(inp, i, out))
    return dt, out


class Op(NamedTuple):
    i: int
    start: float
    end: float  # start plus the operation's time without reference loops
    work: int
    failed: bool
    slowdown: float  # reference loop time around the operation over its nominal time (1 if traced)

    @property
    def normalised_s(self) -> float:
        return (self.end - self.start) / self.slowdown


def window(wl, inp, seconds, counter, tracer=None, pacer=None):
    """Operations back to back while the next one is expected to end within `seconds`.

    The expected length of the next operation is that of the last one, so
    the window ends before `seconds` rather than after it.  With a pacer,
    the reference loop runs before the first operation, after each one, and
    inside each at the pacer's hooks.

    Returns (ops, kept, first, errors): one `Op` per operation, what the
    workload keeps of each output for its diagnostics, the raw output of
    operation 0, and the failure messages.
    """
    ops: list[Op] = []
    kept, first, errors = [], None, []
    start = time.perf_counter()
    last = 0.0
    loops = []  # per operation, the range of reference loops from just before it to just after
    if pacer:
        pacer.tick(force=True)
    while not ops or time.perf_counter() - start + last < seconds:
        i = len(ops)
        counter.op = i
        if tracer:
            tracer.op = i
        n_err = len(errors)
        t_start = time.perf_counter()
        lo = len(pacer.times) - 1 if pacer else 0
        dt, out = run_op(wl, inp, i, errors, pacer)
        if pacer:
            pacer.tick(force=True)
            loops.append((lo, len(pacer.times)))
        last = time.perf_counter() - t_start
        failed = out is None or len(errors) > n_err
        ops.append(Op(i, t_start, t_start + dt, 0 if out is None else wl.work(out), failed, 1.0))
        if out is not None:
            kept.append(wl.keep(out))
            if i == 0:
                first = out
    counter.op = ELSEWHERE
    if pacer:
        ops = [op._replace(slowdown=pacer.slowdown_around(*r)) for op, r in zip(ops, loops)]
    return ops, kept, first, errors


def environment(backend: str, seed: int) -> dict:
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "backend": backend,
        "comparable": backend == "numpy",
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "blas_threads": BLAS_THREADS,
        "seed": seed,
    }


def traced_metrics(args, tracer, ops, before, after, counter, diagnostics, summary):
    """Per-layer metrics from the spans; writes the spans out.

    `before` and `after` are the untraced times of the first operations.
    """
    import layers
    import numpy as np

    n = min(len(before), len(ops))
    traced = min(op.end - op.start for op in ops[:n])
    overhead = traced / min(before[:n] + after[:n]) - 1.0
    cols = tracer.to_arrays()
    metrics, op0 = layers.compute(
        tracer, cols, [(op.start, op.end) for op in ops], counter.stalls, diagnostics, overhead
    )
    summary["op0_counts"] = op0
    summary["absent_layers"] = tracer.absent
    OUT_DIR.mkdir(exist_ok=True)
    np.savez(OUT_DIR / f"spans-{args.workload}.npz", names=np.array(tracer.names), **cols)
    if tracer.absent:
        print(f"# absent layers (hook target missing): {', '.join(tracer.absent)}")
    print(f"# op-0 counts {json.dumps(op0)}")
    ref = json.loads((HERE / "baseline.json").read_text())["op0_reference"]
    if (ref["workload"], ref["seed"]) == (args.workload, args.seed):
        verdict = "match" if ref["counts"] == op0 else "DIFFER FROM"
        print(f"# op-0 counts {verdict} the reference recorded at the benchmark's first commit")
    return metrics, {s["name"]: s["unit"] for s in layers.SPEC}


def run_all(args) -> int:
    """Each workload in its own process, one after another; the worst exit code."""
    codes = [
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=CHECKOUT,
        ).returncode
        for name in WORKLOAD_NAMES
    ]
    return max(codes)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    os.environ["SUBSIM_BACKEND"] = "numpy"
    counter = StallCounter()
    log = logging.getLogger("subsim")
    log.addHandler(counter)
    log.propagate = False

    try:
        wl, inp, tracer, setup_s = set_up(args.workload, args.seed, counter, bool(args.trace))
    except ImportError as exc:
        print(f"cannot import subsim from {CHECKOUT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print("%r %r" % setup_sample(wl, setup_s))
        return 0

    import subsim

    backend = getattr(subsim, "active_backend", lambda: "unknown")()
    env = environment(backend, args.seed)
    print("# env " + json.dumps(env))
    if not env["comparable"]:
        print(f"# NOT COMPARABLE: backend is {backend}, not numpy")

    if args.trace:
        # The first operations run untraced before and after the traced
        # window, which replays them traced; the overhead compares the
        # fastest traced replay with the fastest untraced run.
        ref_errors: list[str] = []
        before = []
        while sum(before) < REFERENCE_SECONDS:
            before.append(run_op(wl, inp, len(before), ref_errors)[0])
        tracer.install()
        ops, kept, first, errors = window(wl, inp, args.seconds, counter, tracer)
        tracer.uninstall()
        after = [run_op(wl, inp, i, ref_errors)[0] for i in range(len(before))]
        errors += ref_errors
    else:
        from reference import Pacer

        setup_samples = [setup_sample(wl, setup_s)]
        setup_samples += [probe_setup(args) for _ in range(SETUP_PROBES_EACH_SIDE)]
        pacer = Pacer(wl.reference)
        unhooked = pacer.install(wl.pace_hooks)
        if unhooked:
            print(f"# pace hooks missing, reference loop runs between operations only: {', '.join(unhooked)}")
        try:
            ops, kept, first, errors = window(wl, inp, args.seconds, counter, pacer=pacer)
        finally:
            pacer.uninstall()
        setup_samples += [probe_setup(args) for _ in range(SETUP_PROBES_EACH_SIDE)]

    attempted = len(ops)
    failed = sum(op.failed for op in ops)
    final_check = getattr(wl, "final_check", None)
    if final_check:
        final = final_check(inp, first) if first is not None else ["operation 0 produced no output"]
        attempted += 1
        failed += bool(final)
        errors += final
    summary = {
        "workload": args.workload,
        "env": env,
        "ops": [op._asdict() for op in ops],
        "stall_warnings": sum(counter.stalls.values()),
        "other_warnings": sum(counter.other.values()),
        "errors": errors[:20],
    }
    print(f"# {attempted} operations attempted, {failed} failed "
          f"(fail_frac {failed / attempted:.4g}); {summary['stall_warnings']} stall warnings counted")
    for e in errors[:5]:
        print(f"# FAILED {e}", file=sys.stderr)

    diagnostics = wl.diagnostics(inp, kept) if kept else {}
    if args.trace:
        metrics, units = traced_metrics(
            args, tracer, ops, before, after, counter, diagnostics, summary
        )
    else:
        good = [op for op in ops if not op.failed]
        work = sum(op.work for op in good)
        raw_s = sum(op.end - op.start for op in good)
        units = E2E
        metrics = {
            "ops_per_s": work / sum(op.normalised_s for op in good) if good else 0.0,
            "setup_s": statistics.median(norm for norm, _ in setup_samples),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        summary["setup_samples"] = [{"normalised_s": n, "raw_s": r} for n, r in setup_samples]
        summary["reference_loop_s"] = pacer.times
        print(f"# {args.workload}.{wl.work_unit}_per_s = {metrics['ops_per_s']:.6g} 1/s normalised "
              f"({work} {wl.work_unit} in {len(good)} operations; measured "
              f"{work / raw_s if raw_s else 0.0:.6g} 1/s, machine slowdown {pacer.slowdown():.3g}x)")
        print(f"# setup raw median {statistics.median(r for _, r in setup_samples):.4g} s")

    prefix = "" if args.trace else f"{args.workload}."
    for name, value in metrics.items():
        print(f"{prefix}{name} = {value:.6g} {units[name]}")
    summary["metrics"] = metrics
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(summary, indent=1) + "\n")

    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
