"""Engagement geometries: head-on, overtaking and converging encounters.

Builders produce a complete scenario description (initial geometry, rates,
noise, protected zone) with defaults matching the standard benchmark
engagement: both aircraft at 150 kn, 20 s simulation at 20 Hz, position
measurements at 2 Hz, 152.4 m (500 ft) protected radius.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import asdict, dataclass, field, fields
from enum import Enum
from pathlib import Path
from typing import Optional

from .dynamics import AircraftState
from .tracking import NoiseConfig

KNOT = 1852.0 / 3600.0  # m/s per knot


def knots_to_mps(knots: float) -> float:
    return knots * KNOT


class ScenarioKind(Enum):
    HEAD_ON = "head_on"
    OVERTAKING = "overtaking"
    CONVERGING = "converging"


@dataclass(frozen=True)
class ScenarioSpec:
    """Full description of one encounter simulation."""

    kind: ScenarioKind
    lateral_separation: float
    longitudinal_separation: float
    observer_speed: float
    intruder_speed: float
    observer_heading: float
    intruder_heading: float
    duration: float = 20.0
    sample_rate: float = 20.0
    measurement_rate: float = 2.0
    protected_radius: float = 152.4
    noise: NoiseConfig = field(default_factory=NoiseConfig)
    converging_angle: Optional[float] = None
    # Filter initialization (artifact configuration, recorded for reproducibility).
    init_pos_std: float = 10.0
    init_vel_std: float = 5.0
    init_acc_std: float = 1.0
    perfect_init: bool = False

    def __post_init__(self):
        # a scenario file may put any JSON value in any field: a string
        # "no" would be a true perfect_init, and an integer past float range
        # would overflow in the arithmetic below
        if not isinstance(self.perfect_init, bool):
            raise ValueError(f"perfect_init must be true or false, got {self.perfect_init!r}")
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name in ("kind", "noise", "perfect_init") or (
                f.name == "converging_angle" and value is None
            ):
                continue
            try:
                finite = (
                    isinstance(value, numbers.Real)
                    and not isinstance(value, bool)
                    and math.isfinite(float(value))
                )
            except OverflowError:  # an integer past float range
                finite = False
            if not finite:
                raise ValueError(f"{f.name} must be finite and real, got {value!r}")
        if self.lateral_separation < 0 or self.longitudinal_separation < 0:
            raise ValueError("separations must be non-negative")
        if self.observer_speed <= 0 or self.intruder_speed <= 0:
            raise ValueError("speeds must be positive")
        if self.duration <= 0 or self.sample_rate <= 0 or self.measurement_rate <= 0:
            raise ValueError("duration and rates must be positive")
        if self.protected_radius <= 0:
            raise ValueError("protected radius must be positive")
        steps = self.duration * self.sample_rate
        if abs(steps - round(steps)) > 1e-9:
            raise ValueError(f"duration * sample_rate must be integral, got {steps}")
        ratio = self.sample_rate / self.measurement_rate
        if abs(ratio - round(ratio)) > 1e-9 or round(ratio) < 1:
            raise ValueError(
                f"sample_rate must be an integer multiple of measurement_rate, got {ratio}"
            )
        if self.kind is ScenarioKind.CONVERGING:
            if self.converging_angle is None or not 0.0 < self.converging_angle < 180.0:
                raise ValueError(
                    f"converging scenarios need an angle in (0, 180), got {self.converging_angle}"
                )
            # the geometry follows the heading and the manifest records the angle
            if self.converging_angle != self.intruder_heading:
                raise ValueError(
                    f"converging angle {self.converging_angle} differs from the intruder "
                    f"heading {self.intruder_heading}"
                )
        elif self.converging_angle is not None:
            # it would change no state but still be recorded in the manifest
            raise ValueError(
                f"converging_angle applies only to converging scenarios, not {self.kind.value}"
            )

    @property
    def n_steps(self) -> int:
        return round(self.duration * self.sample_rate)

    @property
    def dt(self) -> float:
        return 1.0 / self.sample_rate

    @property
    def measurement_stride(self) -> int:
        return round(self.sample_rate / self.measurement_rate)


def _velocity(speed: float, heading_deg: float) -> tuple[float, float]:
    rad = math.radians(heading_deg)
    return speed * math.cos(rad), speed * math.sin(rad)


def initial_states(spec: ScenarioSpec) -> tuple[AircraftState, AircraftState]:
    """(observer, intruder) initial states for the given geometry.

    The observer starts at the origin on its heading.  Head-on and overtaking
    intruders start at (L_o, L_a).  Converging intruders aim at the crossing
    point (L_o, 0) on the observer track, starting L_o + L_a short of it, so
    L_a is the along-track delay distance (zero means simultaneous arrival at
    equal speeds).
    """
    ou, ov = _velocity(spec.observer_speed, spec.observer_heading)
    observer = AircraftState(x=0.0, u=ou, a_x=0.0, y=0.0, v=ov, a_y=0.0)
    iu, iv = _velocity(spec.intruder_speed, spec.intruder_heading)
    if spec.kind is ScenarioKind.CONVERGING:
        heading = math.radians(spec.intruder_heading)
        dist = spec.longitudinal_separation + spec.lateral_separation
        ix = spec.longitudinal_separation - dist * math.cos(heading)
        iy = 0.0 - dist * math.sin(heading)
    else:
        ix = spec.longitudinal_separation
        iy = spec.lateral_separation
    intruder = AircraftState(x=ix, u=iu, a_x=0.0, y=iy, v=iv, a_y=0.0)
    return observer, intruder


def build_head_on(
    lateral_separation: float, longitudinal_separation: float = 2000.0, **overrides
) -> ScenarioSpec:
    """Head-on pass: observer heading 0, intruder heading 180, both 150 kn."""
    return ScenarioSpec(
        kind=ScenarioKind.HEAD_ON,
        lateral_separation=lateral_separation,
        longitudinal_separation=longitudinal_separation,
        observer_speed=knots_to_mps(150.0),
        intruder_speed=knots_to_mps(150.0),
        observer_heading=0.0,
        intruder_heading=180.0,
        **overrides,
    )


def build_overtaking(
    lateral_separation: float, longitudinal_separation: float = 1000.0, **overrides
) -> ScenarioSpec:
    """Overtaking: both heading 180, intruder at 300 kn starting behind the observer."""
    return ScenarioSpec(
        kind=ScenarioKind.OVERTAKING,
        lateral_separation=lateral_separation,
        longitudinal_separation=longitudinal_separation,
        observer_speed=knots_to_mps(150.0),
        intruder_speed=knots_to_mps(300.0),
        observer_heading=180.0,
        intruder_heading=180.0,
        **overrides,
    )


def build_converging(
    lateral_separation: float = 0.0,
    longitudinal_separation: float = 1200.0,
    angle: float = 90.0,
    **overrides,
) -> ScenarioSpec:
    """Converging tracks crossing at (L_o, 0); defaults are equal speeds and a
    90 degree crossing with time-coincident arrival inside the default
    20 s window (non-benchmark defaults, chosen for geometry coverage)."""
    return ScenarioSpec(
        kind=ScenarioKind.CONVERGING,
        lateral_separation=lateral_separation,
        longitudinal_separation=longitudinal_separation,
        observer_speed=knots_to_mps(150.0),
        intruder_speed=knots_to_mps(150.0),
        observer_heading=0.0,
        intruder_heading=angle,
        converging_angle=angle,
        **overrides,
    )


def spec_to_dict(spec: ScenarioSpec) -> dict:
    """Flat JSON-ready mapping of the scenario's field names."""
    d = asdict(spec)
    d["kind"] = spec.kind.value
    noise = d.pop("noise")
    d.update(noise)
    return d


def spec_from_dict(d: dict) -> ScenarioSpec:
    d = dict(d)
    kind = ScenarioKind(d.pop("kind"))
    noise = NoiseConfig(**{f.name: d.pop(f.name) for f in fields(NoiseConfig) if f.name in d})
    return ScenarioSpec(kind=kind, noise=noise, **d)


def save_scenario(spec: ScenarioSpec, path) -> None:
    Path(path).write_text(json.dumps(spec_to_dict(spec), indent=2, sort_keys=True) + "\n")


def load_scenario(path) -> ScenarioSpec:
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read scenario file {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError(f"scenario file {path} must hold a JSON object")
    try:
        return spec_from_dict(data)
    except (TypeError, KeyError) as exc:
        raise ValueError(f"scenario file {path} has unknown or missing fields: {exc}") from exc
