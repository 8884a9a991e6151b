"""Command-line entry point.

Subcommands:
  toy        estimate the Gaussian-disc probability and emit its CCDF
  scenario   run encounter simulations over a lateral-separation sweep
  cov-study  coefficient-of-variation comparison of both estimators

Every command writes a manifest (resolved parameters, master seed, tool,
python and numpy versions, output paths) before its outputs, sufficient to
reproduce them bit for bit.  Numbers are emitted locale-independently:
distances and times with 3 decimals, probabilities in scientific notation
with 6 significant digits.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import CovStudyConfig, cov_study, phase_p1, phase_p2
from .conflict import simulate_scenario
from .engine import IntervalVariant, SubsetConfig
from .scenarios import (
    build_converging,
    build_head_on,
    build_overtaking,
    load_scenario,
    spec_to_dict,
)
from .toy import CircleRegion, Point2, oracle_probability, ss_toy

_PRESETS = {
    "head-on": build_head_on,
    "overtaking": build_overtaking,
    "converging": build_converging,
}


def _fmt_p(p: float) -> str:
    return f"{p:.5e}"


def _fmt_d(v: float) -> str:
    return f"{v:.3f}"


def _resolve_seed(value) -> int:
    if value is not None:
        seed = int(value)
    else:
        env = os.environ.get("SUBSIM_SEED", "").strip()
        seed = int(env) if env else 0
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    return seed


def _write_manifest(out_dir: Path, command: str, snapshot: dict, seed: int, outputs: list[str]):
    manifest = {
        "command": command,
        "config_snapshot": snapshot,
        "master_seed": seed,
        "tool_version": __version__,
        "python_version": platform.python_version(),
        "numpy_version": np.__version__,
        "outputs": outputs,
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


def cmd_toy(args) -> int:
    seed = _resolve_seed(args.seed)
    # The reference problem reports a plain 0 when nothing lands in the disc
    # (no shifted floor), hence the standard interval ladder.
    config = SubsetConfig(
        n_samples=args.n,
        level_probability=args.p0,
        max_levels=args.levels,
        interval_variant=IntervalVariant.STANDARD,
    )
    region = CircleRegion(center=Point2(args.center_x, args.center_y), radius=args.radius)
    out_dir = Path(args.out)
    snapshot = {
        "n": args.n,
        "levels": args.levels,
        "p0": args.p0,
        "center": [args.center_x, args.center_y],
        "radius": args.radius,
    }
    _write_manifest(out_dir, "toy", snapshot, seed, ["ccdf.csv", "summary.json"])

    result = ss_toy(region, config, seed)
    oracle = oracle_probability(region)
    table = result.table
    lines = ["probability,response"]
    lines += [
        f"{_fmt_p(p)},{_fmt_d(r)}"
        for p, r in zip(table.probabilities.tolist(), table.responses.tolist())
    ]
    (out_dir / "ccdf.csv").write_text("\n".join(lines) + "\n")
    summary = {
        "estimate": result.estimate,
        "oracle": oracle,
        "ratio": result.estimate / oracle if oracle > 0 else None,
        "levels_used": result.diagnostics.levels_used,
        "samples_used": result.diagnostics.samples_used,
        "floor_reached": result.diagnostics.floor_reached,
    }
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    print(
        f"toy: estimate {_fmt_p(result.estimate)} vs oracle {_fmt_p(oracle)} "
        f"({result.diagnostics.levels_used} levels)"
    )
    return 0


_SERIES_HEADER = "t,pc_ss,pc_ss_floor_flag,levels,samples,pc_dmc,D_ss,D_dmc,miss_true"


def _series_csv(records) -> str:
    lines = [_SERIES_HEADER]
    for rec in records:
        lines.append(
            ",".join(
                [
                    _fmt_d(rec.time),
                    _fmt_p(rec.pc_ss.pc),
                    str(int(rec.pc_ss.floor_reached)),
                    str(rec.pc_ss.levels_used),
                    str(rec.pc_ss.samples_used),
                    _fmt_p(rec.pc_dmc.pc),
                    str(rec.pc_ss.conflict_count),
                    str(rec.pc_dmc.conflict_count),
                    _fmt_d(rec.miss_true),
                ]
            )
        )
    return "\n".join(lines) + "\n"


def cmd_scenario(args) -> int:
    seed = _resolve_seed(args.seed)
    if args.scenario:
        base = load_scenario(args.scenario)
        name = base.kind.value
    else:
        base = _PRESETS[args.preset](0.0)
        name = args.preset.replace("-", "_")
    if args.lateral_sep:
        laterals = [float(v) for v in args.lateral_sep.split(",")]
    else:
        laterals = [base.lateral_separation]
    # every spec of the sweep is checked before anything is written
    specs = [replace(base, lateral_separation=la) for la in laterals]
    config = SubsetConfig(
        n_samples=args.n, level_probability=args.p0, max_levels=args.levels
    )
    out_dir = Path(args.out_dir)
    outputs = [f"{name}_la{la:g}.csv" for la in laterals]
    if len(set(outputs)) < len(outputs):
        raise ValueError(f"lateral separations {laterals} would write one csv twice: {outputs}")
    snapshot = {
        "scenario": spec_to_dict(base),
        "lateral_separations": laterals,
        "subset": {"n": args.n, "levels": args.levels, "p0": args.p0},
    }
    _write_manifest(out_dir, "scenario", snapshot, seed, outputs)

    for spec, fname in zip(specs, outputs):
        records = simulate_scenario(spec, config, seed)
        (out_dir / fname).write_text(_series_csv(records))
        print(f"scenario: wrote {fname} ({len(records)} steps)")
    return 0


_COV_HEADER = "method,requested_n,avg_samples,mean_pc,std_pc,cov,undefined_flag"


def cmd_cov_study(args) -> int:
    seed = _resolve_seed(args.seed)
    dmc_sizes = [int(v) for v in args.dmc_sizes.split(",")]
    ss_sizes = [int(v) for v in args.ss_sizes.split(",")]
    phase_fn = phase_p1 if args.phase == "p1" else phase_p2
    config = CovStudyConfig(
        phase=phase_fn(seed), repetitions=args.reps, dmc_sizes=dmc_sizes, ss_sizes=ss_sizes
    )
    out_dir = Path(args.out_dir)
    snapshot = {
        "phase": args.phase,
        "reps": args.reps,
        "dmc_sizes": dmc_sizes,
        "ss_sizes": ss_sizes,
    }
    _write_manifest(out_dir, "cov-study", snapshot, seed, ["cov_study.csv"])

    points = cov_study(config, seed)
    lines = [_COV_HEADER]
    for pt in points:
        cov_txt = "nan" if pt.undefined else _fmt_p(pt.cov)
        lines.append(
            ",".join(
                [
                    pt.method,
                    str(pt.requested_n),
                    f"{pt.avg_samples:.1f}",
                    _fmt_p(pt.mean_pc),
                    _fmt_p(pt.std_pc),
                    cov_txt,
                    str(int(pt.undefined)),
                ]
            )
        )
    (out_dir / "cov_study.csv").write_text("\n".join(lines) + "\n")
    for pt in points:
        print(
            f"cov-study: {pt.method} n={pt.requested_n} avg={pt.avg_samples:.1f} "
            f"mean={_fmt_p(pt.mean_pc)} cov={'nan' if pt.undefined else _fmt_p(pt.cov)}"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subsim",
        description="Rare-event conflict probability estimation via Subset Simulation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    toy = sub.add_parser("toy", help="Gaussian-disc reference problem")
    toy.add_argument("--n", type=int, default=100, help="samples per level")
    toy.add_argument("--levels", type=int, default=5, help="maximum number of levels")
    toy.add_argument("--p0", type=float, default=0.1, help="level probability")
    toy.add_argument("--seed", type=int, default=None, help="master seed (env SUBSIM_SEED fallback)")
    toy.add_argument("--out", default="toy_out", help="output directory")
    toy.add_argument("--center-x", type=float, default=3.0)
    toy.add_argument("--center-y", type=float, default=-3.0)
    toy.add_argument("--radius", type=float, default=1.0)
    toy.set_defaults(func=cmd_toy)

    scen = sub.add_parser("scenario", help="encounter time-series simulation")
    src = scen.add_mutually_exclusive_group(required=True)
    src.add_argument("--scenario", help="scenario JSON file")
    src.add_argument("--preset", choices=sorted(_PRESETS), help="built-in geometry")
    scen.add_argument(
        "--lateral-sep",
        default=None,
        help="comma-separated lateral separations in meters (e.g. 0,100,152,500,1000,1100)",
    )
    scen.add_argument("--n", type=int, default=100)
    scen.add_argument("--levels", type=int, default=7)
    scen.add_argument("--p0", type=float, default=0.1)
    scen.add_argument("--seed", type=int, default=None)
    scen.add_argument("--out-dir", default="scenario_out")
    scen.set_defaults(func=cmd_scenario)

    cov = sub.add_parser("cov-study", help="coefficient-of-variation comparison")
    cov.add_argument("--phase", choices=["p1", "p2"], required=True)
    cov.add_argument("--reps", type=int, default=50)
    cov.add_argument("--seed", type=int, default=None)
    cov.add_argument("--dmc-sizes", default="100,1000,10000")
    cov.add_argument("--ss-sizes", default="100,1000,3000")
    cov.add_argument("--out-dir", default="cov_out")
    cov.set_defaults(func=cmd_cov_study)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"subsim: {exc}", file=sys.stderr)
        return 2
    except (np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"subsim: numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
