"""Scenario geometry tests: builders, closed-form encounter timing, config files."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from dense import track_positions
from subsim.dynamics import miss_distance_batch
from subsim.scenarios import (
    ScenarioKind,
    ScenarioSpec,
    build_converging,
    build_head_on,
    build_overtaking,
    initial_states,
    knots_to_mps,
    load_scenario,
    save_scenario,
    spec_from_dict,
    spec_to_dict,
)
from subsim.tracking import NoiseConfig


def _write_json(path, data):
    path.write_text(json.dumps(data))
    return path


def _sigwrap(value, figures=4):
    from decimal import Decimal

    return float(f"{value:.{figures - 1}e}")


def _true_min_separation(spec):
    obs, intr = initial_states(spec)
    miss, tca = miss_distance_batch(
        intr.as_array()[None], obs.as_array()[None], np.zeros(1, np.intp), np.full(1, spec.duration)
    )
    return float(miss[0]), float(tca[0])


class TestKnots:
    def test_150_knots_to_four_figures(self):
        assert _sigwrap(knots_to_mps(150.0)) == 77.17

    def test_300_knots_to_four_figures(self):
        assert _sigwrap(knots_to_mps(300.0)) == 154.3


class TestHeadOn:
    def test_benchmark_initial_states(self):
        spec = build_head_on(1000.0, 2000.0)
        obs, intr = initial_states(spec)
        assert obs.as_array() == pytest.approx([0.0, 77.17, 0.0, 0.0, 0.0, 0.0], abs=5e-3)
        assert intr.as_array() == pytest.approx(
            [2000.0, -77.17, 0.0, 1000.0, 0.0, 0.0], abs=5e-3
        )

    def test_defaults(self):
        spec = build_head_on(0.0)
        assert spec.duration == 20.0
        assert spec.sample_rate == 20.0
        assert spec.measurement_rate == 2.0
        assert spec.protected_radius == 152.4
        assert spec.noise.sigma_x == 0.1
        assert spec.noise.sigma_ax2 == 0.01

    def test_zero_offset_crossing_time(self):
        spec = build_head_on(0.0, 2000.0)
        miss, tca = _true_min_separation(spec)
        closing = 2 * knots_to_mps(150.0)
        assert tca == pytest.approx(2000.0 / closing, rel=1e-12)
        assert miss < 1e-9

    def test_zero_offset_conflict_entry_time(self):
        # separation falls to the protected radius at (L_o - r_t) / closing speed
        spec = build_head_on(0.0, 2000.0)
        obs, intr = initial_states(spec)
        closing = 2 * knots_to_mps(150.0)
        t_entry = (2000.0 - 152.4) / closing
        assert t_entry == pytest.approx(11.97, abs=0.05)
        sep = abs((intr.x + intr.u * t_entry) - (obs.x + obs.u * t_entry))
        assert sep == pytest.approx(152.4, abs=1e-6)

    def test_wide_offset_never_conflicts(self):
        spec = build_head_on(1100.0, 2000.0)
        miss, _ = _true_min_separation(spec)
        assert miss == pytest.approx(1100.0, abs=1.0)
        assert miss > spec.protected_radius

    def test_negative_separation_rejected(self):
        with pytest.raises(ValueError):
            build_head_on(-5.0)


class TestOvertaking:
    def test_speeds(self):
        spec = build_overtaking(0.0)
        assert spec.intruder_speed == pytest.approx(knots_to_mps(300.0))
        assert spec.observer_speed == pytest.approx(knots_to_mps(150.0))
        assert spec.observer_heading == spec.intruder_heading == 180.0

    def test_pass_time(self):
        spec = build_overtaking(0.0, 1000.0)
        miss, tca = _true_min_separation(spec)
        closing = knots_to_mps(300.0) - knots_to_mps(150.0)
        assert tca == pytest.approx(1000.0 / closing, rel=1e-12)
        assert miss < 1e-9

    def test_parallel_offset_minimum(self):
        spec = build_overtaking(500.0, 1000.0)
        miss, _ = _true_min_separation(spec)
        assert miss == pytest.approx(500.0, abs=0.5)

    def test_conflict_window_matches_closed_form(self):
        spec = build_overtaking(100.0, 1000.0)
        obs, intr = initial_states(spec)
        obs_xy, intr_xy = track_positions(
            [obs.as_array(), intr.as_array()], spec.sample_rate, spec.duration
        )
        d = np.hypot(intr_xy[:, 0] - obs_xy[:, 0], intr_xy[:, 1] - obs_xy[:, 1])
        inside = np.nonzero(d <= spec.protected_radius)[0]
        dv = knots_to_mps(150.0)
        half = math.sqrt(152.4**2 - 100.0**2)
        t_in, t_out = (1000.0 - half) / dv, (1000.0 + half) / dv
        assert inside[0] * spec.dt == pytest.approx(t_in, abs=2 * spec.dt)
        assert inside[-1] * spec.dt == pytest.approx(t_out, abs=2 * spec.dt)


class TestConverging:
    def test_simultaneous_arrival_conflicts(self):
        spec = build_converging(angle=90.0, lateral_separation=0.0)
        miss, _ = _true_min_separation(spec)
        assert miss < spec.protected_radius

    def test_delayed_arrival_clears(self):
        # delay distance large enough that the gap at crossing exceeds r_t
        spec = build_converging(angle=90.0, lateral_separation=500.0)
        miss, _ = _true_min_separation(spec)
        assert miss > spec.protected_radius

    def test_wide_angle_approaches_head_on(self):
        spec = build_converging(angle=179.9, lateral_separation=0.0)
        obs, intr = initial_states(spec)
        assert intr.u == pytest.approx(-knots_to_mps(150.0), rel=1e-4)
        assert abs(intr.v) < 0.3
        assert intr.x == pytest.approx(2 * 1200.0, rel=1e-3)

    def test_degenerate_angle_rejected(self):
        with pytest.raises(ValueError):
            build_converging(angle=0.0)
        with pytest.raises(ValueError):
            build_converging(angle=180.0)


class TestSpecValidation:
    def test_non_integral_steps_rejected(self):
        with pytest.raises(ValueError):
            build_head_on(0.0, duration=1.03, sample_rate=10.0)

    def test_rate_divisibility_enforced(self):
        with pytest.raises(ValueError):
            build_head_on(0.0, sample_rate=20.0, measurement_rate=3.0)

    def test_derived_quantities(self):
        spec = build_head_on(0.0)
        assert spec.n_steps == 400
        assert spec.dt == 0.05
        assert spec.measurement_stride == 10

    @pytest.mark.parametrize(
        "name",
        [
            "lateral_separation",
            "longitudinal_separation",
            "observer_speed",
            "intruder_speed",
            "observer_heading",
            "intruder_heading",
            "duration",
            "sample_rate",
            "measurement_rate",
            "protected_radius",
            "converging_angle",
            "init_pos_std",
            "init_vel_std",
            "init_acc_std",
        ],
    )
    def test_non_finite_field_rejected(self, name):
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                replace(build_converging(), **{name: value})

    @pytest.mark.parametrize("value", ["no", 1, None])
    def test_perfect_init_must_be_bool(self, value):
        # "no" is truthy and would start the filter at the truth
        with pytest.raises(ValueError, match="perfect_init must be true or false"):
            replace(build_head_on(0.0), perfect_init=value)

    @pytest.mark.parametrize(
        "value", ["20", True, None, [20.0], 10**400], ids=["str", "bool", "none", "list", "1e400"]
    )
    def test_non_real_or_overflowing_field_rejected(self, value):
        # an integer past float range would end in an OverflowError
        with pytest.raises(ValueError, match="duration must be finite"):
            replace(build_head_on(0.0), duration=value)

    def test_file_values_of_the_wrong_type_rejected(self, tmp_path):
        for name, value in (("perfect_init", "no"), ("duration", 10**400)):
            d = spec_to_dict(build_head_on(0.0))
            d[name] = value
            with pytest.raises(ValueError, match=name):
                load_scenario(_write_json(tmp_path / f"{name}.json", d))

    def test_lateral_override_helper(self):
        spec = replace(build_head_on(0.0), lateral_separation=750.0)
        assert spec.lateral_separation == 750.0
        assert spec.kind is ScenarioKind.HEAD_ON


class TestConfigFiles:
    def test_round_trip(self, tmp_path):
        spec = build_overtaking(100.0, 1500.0, duration=10.0)
        path = tmp_path / "spec.json"
        save_scenario(spec, path)
        assert load_scenario(path) == spec

    def test_flat_layout(self):
        d = spec_to_dict(build_head_on(10.0))
        assert d["kind"] == "head_on"
        assert "sigma_x" in d and "noise" not in d
        assert spec_from_dict(d) == build_head_on(10.0)

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(ValueError):
            load_scenario(tmp_path / "missing.json")

    def test_malformed_file(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("[1, 2, 3]")
        with pytest.raises(ValueError):
            load_scenario(p)

    def test_missing_noise_fields_take_their_defaults(self):
        spec = build_head_on(10.0, noise=NoiseConfig(sigma_x=0.5))
        d = spec_to_dict(spec)
        del d["sigma_y"], d["sigma_ax2"], d["sigma_ay2"]
        assert spec_from_dict(d) == spec

    def test_converging_angle_differing_from_heading_rejected(self, tmp_path):
        # the geometry follows the intruder heading, the manifest the angle
        d = spec_to_dict(build_converging(angle=60.0))
        assert load_scenario(_write_json(tmp_path / "ok.json", d)) == build_converging(angle=60.0)
        d["converging_angle"] = 90.0
        with pytest.raises(ValueError, match="differs from the intruder heading"):
            load_scenario(_write_json(tmp_path / "mismatch.json", d))

    @pytest.mark.parametrize("build", [build_head_on, build_overtaking])
    def test_converging_angle_on_other_kinds_rejected(self, build, tmp_path):
        # the angle changes no state of these kinds but would be recorded
        with pytest.raises(ValueError, match="only to converging"):
            build(0.0, converging_angle=45.0)
        d = spec_to_dict(build(0.0))
        assert d["converging_angle"] is None
        d["converging_angle"] = 45.0
        with pytest.raises(ValueError, match="only to converging"):
            load_scenario(_write_json(tmp_path / "angle.json", d))

    def test_missing_kind(self, tmp_path):
        d = spec_to_dict(build_head_on(0.0))
        del d["kind"]
        with pytest.raises(ValueError, match="missing fields: 'kind'"):
            load_scenario(_write_json(tmp_path / "kindless.json", d))

    def test_unknown_field(self, tmp_path):
        spec = build_head_on(0.0)
        d = spec_to_dict(spec)
        d["bogus"] = 1
        with pytest.raises(ValueError):
            load_scenario(_write_json(tmp_path / "extra.json", d))
