"""Rare-event probability estimation with Subset Simulation.

Small tail probabilities are estimated as products of larger conditional
probabilities across nested threshold levels, with Metropolis-Hastings chains
supplying the conditional samples.  The flagship application is the
probability of conflict between an observer aircraft and a Kalman-tracked
intruder, with a matched-budget Direct Monte Carlo baseline.
"""

__version__ = "0.4.0"

from .conflict import ConflictQuery, PcResult, pc_dmc, pc_ss, pc_ss_batch, simulate_scenario
from .dynamics import AircraftState, Approach, Trajectory, min_distance, propagate, transition_matrix
from .engine import (
    CcdfRow,
    CcdfTable,
    IntervalVariant,
    RareEventSystem,
    SubsetConfig,
    SubsetResult,
    direct_monte_carlo,
    run_subset_simulation,
    run_subset_simulations,
)
from .scenarios import ScenarioKind, ScenarioSpec, build_converging, build_head_on, build_overtaking
from .toy import CircleRegion, Point2, dmc_estimate, oracle_probability, ss_toy
from .tracking import KalmanEstimate, Measurement, NoiseConfig, kf_step, process_noise

__all__ = [
    "__version__",
    "AircraftState",
    "Approach",
    "CcdfRow",
    "CcdfTable",
    "CircleRegion",
    "ConflictQuery",
    "IntervalVariant",
    "KalmanEstimate",
    "Measurement",
    "NoiseConfig",
    "PcResult",
    "Point2",
    "RareEventSystem",
    "ScenarioKind",
    "ScenarioSpec",
    "SubsetConfig",
    "SubsetResult",
    "Trajectory",
    "build_converging",
    "build_head_on",
    "build_overtaking",
    "direct_monte_carlo",
    "dmc_estimate",
    "kf_step",
    "min_distance",
    "oracle_probability",
    "pc_dmc",
    "pc_ss",
    "pc_ss_batch",
    "process_noise",
    "propagate",
    "run_subset_simulation",
    "run_subset_simulations",
    "simulate_scenario",
    "ss_toy",
    "transition_matrix",
]
