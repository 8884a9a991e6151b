"""The benchmark's three workloads: inputs, one operation, and its output checks.

Each workload is one process with one client in a closed loop: the next
operation starts when the previous one has returned.  Inputs come from the
workload seed and fixed workload settings; subsim receives the generated
inputs (a scenario spec, frozen phases, disc regions and integer seeds),
never the workload seed's derivation.

Each workload also names the parts of the reference loop that match its
work (`reference`) and the module attributes whose calls are natural points
to run that loop inside an operation (`pace_hooks`); see reference.py.
"""

from __future__ import annotations

import math
import random
from typing import Any

import numpy as np

from subsim.analysis import CovStudyConfig, cov_study, phase_p2
from subsim.conflict import simulate_scenario
from subsim.engine import IntervalVariant, SubsetConfig
from subsim.scenarios import build_head_on
from subsim.toy import CircleRegion, Point2, oracle_probability, ss_toy


def op_seed(seed: int, i: int) -> int:
    """Seed of operation i; operation 0 uses the workload seed itself."""
    return seed if i == 0 else random.Random(f"{seed}/{i}").getrandbits(31)


class Headon:
    """Full 400-step head-on encounters (criterion 4), one `simulate_scenario` call each."""

    name = "headon"
    work_unit = "steps"
    n_steps = 400
    max_levels = 7
    reference = ("track", "sweep")
    pace_hooks = (("subsim.conflict", "kf_step"),)  # once per scenario step

    def inputs(self, seed: int) -> dict:
        spec = build_head_on(lateral_separation=0.0, longitudinal_separation=2000.0)
        config = SubsetConfig(n_samples=100, level_probability=0.1, max_levels=self.max_levels)
        return {"seed": seed, "spec": spec, "config": config}

    def warm_up(self, inp: dict) -> None:
        simulate_scenario(inp["spec"], inp["config"], inp["seed"], estimate_steps=[200])

    def op(self, inp: dict, i: int) -> list:
        return simulate_scenario(inp["spec"], inp["config"], op_seed(inp["seed"], i))

    def work(self, records: list) -> int:
        return len(records)

    def keep(self, records: list) -> None:
        return None

    def check(self, inp: dict, i: int, records: list) -> list[str]:
        errors = []
        if len(records) != self.n_steps:
            errors.append(f"{len(records)} records, expected {self.n_steps}")
        for r in records:
            ss, dmc = r.pc_ss, r.pc_dmc
            if not (math.isfinite(ss.pc) and 0.0 < ss.pc <= 1.0):
                errors.append(f"step {r.step}: pc_ss {ss.pc!r} outside (0, 1]")
            if ss.samples_used != dmc.samples_used:
                errors.append(f"step {r.step}: SS used {ss.samples_used}, DMC {dmc.samples_used}")
            if ss.floor_reached != (ss.conflict_count == 0):
                errors.append(f"step {r.step}: floor flag {ss.floor_reached} with D={ss.conflict_count}")
            if not 1 <= ss.levels_used <= self.max_levels:
                errors.append(f"step {r.step}: {ss.levels_used} levels")
        return errors

    def final_check(self, inp: dict, first: list) -> list[str]:
        """A subsampled rerun of operation 0 reproduces its records exactly."""
        picks = sorted(random.Random(f"{inp['seed']}/steps").sample(range(1, self.n_steps + 1), 6))
        rerun = simulate_scenario(inp["spec"], inp["config"], op_seed(inp["seed"], 0), estimate_steps=picks)
        full = {r.step: r for r in first}
        errors = []
        if [r.step for r in rerun] != picks:
            return [f"rerun returned steps {[r.step for r in rerun]}, expected {picks}"]
        for r in rerun:
            f = full.get(r.step)
            same = f is not None and (
                (r.time, r.pc_ss, r.pc_dmc, r.miss_true, r.observer_truth, r.intruder_truth)
                == (f.time, f.pc_ss, f.pc_dmc, f.miss_true, f.observer_truth, f.intruder_truth)
                and r.estimate.mean == f.estimate.mean
                and np.array_equal(r.estimate.covariance, f.estimate.covariance)
            )
            if not same:
                errors.append(f"subsampled rerun differs at step {r.step}")
        return errors

    def diagnostics(self, inp: dict, outputs: list) -> dict[str, float]:
        return {}


class P2Cov:
    """Criterion-6 c.o.v. study at phase p2, one `cov_study` call per operation.

    Where the p2 freeze lands depends on its seed, and a study's cost on
    where it lands, by about 10%.  With phases frozen from the workload seed,
    runs over ten seeds spread 9% with or without normalising the machine's
    speed.  So the phases are fixed, like the toy discs and the head-on
    scenario: set-up freezes p2 from each of `phase_seeds`, and operation i
    studies phase i mod 4 with study seeds drawn from the workload seed.
    """

    name = "p2-cov"
    work_unit = "reps"
    repetitions = 2
    phase_seeds = (0, 1, 2, 3)
    dmc_sizes = (100, 1_000, 10_000)
    ss_sizes = (250, 1_000, 2_500)
    reference = ("sweep",)
    pace_hooks = (("subsim.analysis", "pc_dmc"), ("subsim.analysis", "pc_ss"))

    def inputs(self, seed: int) -> dict:
        configs = [
            CovStudyConfig(
                phase=phase_p2(phase_seed),
                repetitions=self.repetitions,
                dmc_sizes=self.dmc_sizes,
                ss_sizes=self.ss_sizes,
            )
            for phase_seed in self.phase_seeds
        ]
        return {"seed": seed, "configs": configs}

    def warm_up(self, inp: dict) -> None:
        phase = inp["configs"][0].phase
        small = CovStudyConfig(phase=phase, repetitions=2, dmc_sizes=(1_000,), ss_sizes=(250,))
        cov_study(small, inp["seed"])

    def op(self, inp: dict, i: int) -> tuple[int, list]:
        k = i % len(self.phase_seeds)
        return k, cov_study(inp["configs"][k], op_seed(inp["seed"], i))

    def work(self, out: tuple[int, list]) -> int:
        return self.repetitions

    def keep(self, out: tuple[int, list]) -> tuple[int, list]:
        return out

    def check(self, inp: dict, i: int, out: tuple[int, list]) -> list[str]:
        _, points = out
        expected = [("dmc", n) for n in self.dmc_sizes] + [("ss", n) for n in self.ss_sizes]
        got = [(p.method, p.requested_n) for p in points]
        if got != expected:
            return [f"cov points {got}, expected {expected}"]
        return [
            f"{p.method} n={p.requested_n}: mean {p.mean_pc!r} outside [0, 1]"
            for p in points
            if not (math.isfinite(p.mean_pc) and 0.0 <= p.mean_pc <= 1.0)
        ]

    def diagnostics(self, inp: dict, outputs: list) -> dict[str, float]:
        """c.o.v. at the top budgets: pooled over every repetition of a phase, then averaged over phases."""
        top = {"analysis.cov.ss_cov": ("ss", self.ss_sizes[-1]),
               "analysis.cov.dmc_cov": ("dmc", self.dmc_sizes[-1])}
        out = {}
        r = self.repetitions
        for metric, key in top.items():
            covs = []
            for k in sorted({k for k, _ in outputs}):
                pts = [p for j, points in outputs if j == k for p in points
                       if (p.method, p.requested_n) == key]
                n = r * len(pts)
                mean = sum(p.mean_pc for p in pts) / len(pts)
                sq = sum((r - 1) * p.std_pc**2 + r * p.mean_pc**2 for p in pts)
                var = max(sq - n * mean * mean, 0.0) / (n - 1)
                covs.append(math.sqrt(var) / mean if mean > 0 else 0.0)
            out[metric] = sum(covs) / len(covs)
        return out


class Toy:
    """`ss_toy` cycling through three discs; one operation is one cycle."""

    name = "toy"
    work_unit = "estimates"
    centers = ((2.5, -2.5), (3.0, -3.0), (4.0, -4.0))
    labels = ("c2.5", "c3", "c4")
    n_samples = 1000
    max_levels = 8
    reference = ("track",)
    pace_hooks = (("subsim.toy", "toy_system"),)  # once per estimate

    def inputs(self, seed: int) -> dict:
        regions = [CircleRegion(Point2(x, y), 1.0) for x, y in self.centers]
        config = SubsetConfig(
            n_samples=self.n_samples,
            level_probability=0.1,
            max_levels=self.max_levels,
            interval_variant=IntervalVariant.STANDARD,
        )
        oracles = [oracle_probability(r) for r in regions]
        return {"seed": seed, "regions": regions, "config": config, "oracles": oracles}

    def warm_up(self, inp: dict) -> None:
        ss_toy(inp["regions"][0], inp["config"], inp["seed"])

    def op(self, inp: dict, i: int) -> list:
        k = len(inp["regions"])
        return [
            ss_toy(region, inp["config"], op_seed(inp["seed"], k * i + j))
            for j, region in enumerate(inp["regions"])
        ]

    def work(self, results: list) -> int:
        return len(results)

    def keep(self, results: list) -> list[float]:
        return [r.estimate for r in results]

    def check(self, inp: dict, i: int, results: list) -> list[str]:
        cfg = inp["config"]
        errors = []
        for label, region, res in zip(self.labels, inp["regions"], results):
            table = res.table
            m = table.levels_completed
            probs = np.asarray(table.probabilities)
            responses = np.asarray(table.responses)
            if not (math.isfinite(res.estimate) and 0.0 <= res.estimate <= 1.0):
                errors.append(f"{label}: estimate {res.estimate!r} outside [0, 1]")
            if np.any(np.diff(probs) > 0):
                errors.append(f"{label}: CCDF probabilities increase")
            rows = (cfg.n_samples - cfg.n_chains) * (m - 1) + cfg.n_samples
            if len(probs) != rows:
                errors.append(f"{label}: {len(probs)} CCDF rows, expected {rows}")
            xy = np.array([row.sample for row in table.rows])
            dist = np.hypot(xy[:, 0] - region.center.x, xy[:, 1] - region.center.y)
            if not np.allclose(dist, responses, rtol=1e-12, atol=0.0):
                errors.append(f"{label}: stored samples do not reproduce their responses")
        return errors

    def diagnostics(self, inp: dict, outputs: list) -> dict[str, float]:
        out = {}
        for j, (label, oracle) in enumerate(zip(self.labels, inp["oracles"])):
            mean = sum(estimates[j] for estimates in outputs) / len(outputs)
            out[f"toy.{label}.mean_over_oracle"] = mean / oracle
        return out


WORKLOADS: dict[str, Any] = {w.name: w for w in (Headon(), P2Cov(), Toy())}
