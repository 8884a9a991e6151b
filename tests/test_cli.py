"""Command-line interface tests: outputs, manifests, exit codes, determinism."""

import json
import os
import platform

import numpy as np
import pytest

import subsim
from subsim.cli import main
from subsim.scenarios import build_converging, build_head_on, save_scenario


def _read(path):
    return path.read_bytes()


class TestToyCommand:
    def test_writes_ccdf_summary_and_manifest(self, tmp_path):
        out = tmp_path / "toy"
        rc = main(["toy", "--n", "100", "--levels", "1", "--seed", "7", "--out", str(out)])
        assert rc == 0
        ccdf = (out / "ccdf.csv").read_text().splitlines()
        assert ccdf[0] == "probability,response"
        assert len(ccdf) == 101
        summary = json.loads((out / "summary.json").read_text())
        assert summary["estimate"] == 0.0  # small-budget run typically finds nothing
        assert summary["oracle"] == pytest.approx(2.54e-4, rel=0.05)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "toy"
        assert manifest["master_seed"] == 7
        assert manifest["tool_version"] == subsim.__version__
        assert manifest["python_version"] == platform.python_version()
        assert manifest["numpy_version"] == np.__version__
        assert set(manifest["outputs"]) == {"ccdf.csv", "summary.json"}

    def test_multi_level_run_is_close_to_oracle(self, tmp_path):
        out = tmp_path / "toy5"
        rc = main(["toy", "--n", "100", "--levels", "5", "--seed", "7", "--out", str(out)])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert 1 / 3 <= summary["ratio"] <= 3.0

    def test_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["toy", "--n", "100", "--levels", "3", "--seed", "5", "--out", str(a)]) == 0
        assert main(["toy", "--n", "100", "--levels", "3", "--seed", "5", "--out", str(b)]) == 0
        for name in ("ccdf.csv", "summary.json", "manifest.json"):
            assert _read(a / name) == _read(b / name)

    @pytest.mark.parametrize("radius", ["inf", "nan", "-1"])
    def test_bad_radius_exits_2_before_the_manifest(self, radius, tmp_path, capsys):
        rc = main(["toy", "--radius", radius, "--seed", "1", "--out", str(tmp_path / "x")])
        assert rc == 2
        assert "radius" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_invalid_n_exits_2(self, tmp_path, capsys):
        rc = main(["toy", "--n", "0", "--seed", "1", "--out", str(tmp_path / "x")])
        assert rc == 2
        assert "subsim:" in capsys.readouterr().err


SCENARIO_ARGS = ["--n", "100", "--levels", "3", "--seed", "3"]


def _small_scenario(tmp_path):
    spec = build_head_on(
        100.0, 400.0, duration=1.0, sample_rate=10.0, measurement_rate=2.0
    )
    path = tmp_path / "small.json"
    save_scenario(spec, path)
    return path


class TestScenarioCommand:
    def test_sweep_writes_one_csv_per_separation(self, tmp_path):
        cfgfile = _small_scenario(tmp_path)
        out = tmp_path / "runs"
        rc = main(
            ["scenario", "--scenario", str(cfgfile), "--lateral-sep", "0,100",
             "--out-dir", str(out), *SCENARIO_ARGS]
        )
        assert rc == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["outputs"] == ["head_on_la0.csv", "head_on_la100.csv"]
        for name in manifest["outputs"]:
            lines = (out / name).read_text().splitlines()
            assert lines[0] == "t,pc_ss,pc_ss_floor_flag,levels,samples,pc_dmc,D_ss,D_dmc,miss_true"
            assert len(lines) == 11
            first = lines[1].split(",")
            assert len(first) == 9

    def test_budgets_match_in_emitted_rows(self, tmp_path):
        cfgfile = _small_scenario(tmp_path)
        out = tmp_path / "runs"
        assert main(["scenario", "--scenario", str(cfgfile), "--out-dir", str(out), *SCENARIO_ARGS]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        rows = (out / manifest["outputs"][0]).read_text().splitlines()[1:]
        for row in rows:
            fields = row.split(",")
            levels, samples = int(fields[3]), int(fields[4])
            assert samples == 100 * levels

    def test_rerun_is_byte_identical(self, tmp_path):
        cfgfile = _small_scenario(tmp_path)
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["scenario", "--scenario", str(cfgfile), "--lateral-sep", "50", *SCENARIO_ARGS]
        assert main(args + ["--out-dir", str(a)]) == 0
        assert main(args + ["--out-dir", str(b)]) == 0
        assert _read(a / "head_on_la50.csv") == _read(b / "head_on_la50.csv")

    @pytest.mark.parametrize("lateral", ["-5", "nan", "inf", "0,nan"])
    def test_negative_separation_exits_2(self, lateral, tmp_path):
        # the whole sweep is checked before the manifest or any csv is written
        rc = main(
            ["scenario", "--preset", "head-on", "--lateral-sep", lateral,
             "--out-dir", str(tmp_path / "x"), *SCENARIO_ARGS]
        )
        assert rc == 2
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize(
        "name, value",
        [("duration", float("inf")), ("protected_radius", float("nan")), ("sigma_ax2", float("inf"))],
    )
    def test_non_finite_scenario_field_exits_2(self, name, value, tmp_path):
        cfgfile = _small_scenario(tmp_path)
        data = json.loads(cfgfile.read_text())
        data[name] = value
        cfgfile.write_text(json.dumps(data))  # written as Infinity or NaN
        rc = main(
            ["scenario", "--scenario", str(cfgfile),
             "--out-dir", str(tmp_path / "x"), *SCENARIO_ARGS]
        )
        assert rc == 2
        assert not (tmp_path / "x").exists()

    def test_unreadable_config_exits_2(self, tmp_path):
        rc = main(
            ["scenario", "--scenario", str(tmp_path / "nope.json"),
             "--out-dir", str(tmp_path / "x"), *SCENARIO_ARGS]
        )
        assert rc == 2

    def test_scenario_without_kind_exits_2(self, tmp_path):
        cfgfile = _small_scenario(tmp_path)
        data = json.loads(cfgfile.read_text())
        del data["kind"]
        cfgfile.write_text(json.dumps(data))
        rc = main(
            ["scenario", "--scenario", str(cfgfile),
             "--out-dir", str(tmp_path / "x"), *SCENARIO_ARGS]
        )
        assert rc == 2
        assert not (tmp_path / "x").exists()

    def test_converging_angle_mismatch_exits_2(self, tmp_path):
        cfgfile = tmp_path / "converging.json"
        save_scenario(build_converging(angle=60.0, duration=1.0), cfgfile)
        data = json.loads(cfgfile.read_text())
        data["intruder_heading"] = 45.0
        cfgfile.write_text(json.dumps(data))
        rc = main(
            ["scenario", "--scenario", str(cfgfile),
             "--out-dir", str(tmp_path / "x"), *SCENARIO_ARGS]
        )
        assert rc == 2
        assert not (tmp_path / "x").exists()

    def test_converging_angle_on_head_on_exits_2(self, tmp_path):
        cfgfile = tmp_path / "head_on.json"
        save_scenario(build_head_on(0.0, duration=1.0), cfgfile)
        data = json.loads(cfgfile.read_text())
        data["converging_angle"] = 45.0
        cfgfile.write_text(json.dumps(data))
        rc = main(
            ["scenario", "--scenario", str(cfgfile),
             "--out-dir", str(tmp_path / "x"), *SCENARIO_ARGS]
        )
        assert rc == 2
        assert not (tmp_path / "x").exists()


class TestCovStudyCommand:
    @pytest.mark.parametrize("budget", [["--ss-sizes", "155"], ["--dmc-sizes", "0"]])
    def test_bad_budget_exits_2_before_the_manifest(self, tmp_path, budget):
        rc = main(
            ["cov-study", "--phase", "p1", "--reps", "2", "--seed", "2",
             "--out-dir", str(tmp_path / "x"), *budget]
        )
        assert rc == 2
        assert not (tmp_path / "x").exists()

    def test_single_rep_exits_2(self, tmp_path):
        rc = main(
            ["cov-study", "--phase", "p1", "--reps", "1", "--seed", "2",
             "--out-dir", str(tmp_path / "x")]
        )
        assert rc == 2

    def test_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["cov-study", "--phase", "p1", "--reps", "3", "--seed", "4",
                "--dmc-sizes", "100", "--ss-sizes", "100,1000"]
        assert main([*args, "--out-dir", str(a)]) == 0
        assert main([*args, "--out-dir", str(b)]) == 0
        for name in ("cov_study.csv", "manifest.json"):
            assert _read(a / name) == _read(b / name)

    def test_small_p1_study(self, tmp_path):
        out = tmp_path / "cov"
        rc = main(
            ["cov-study", "--phase", "p1", "--reps", "3", "--seed", "2",
             "--dmc-sizes", "100", "--ss-sizes", "100", "--out-dir", str(out)]
        )
        assert rc == 0
        lines = (out / "cov_study.csv").read_text().splitlines()
        assert lines[0] == "method,requested_n,avg_samples,mean_pc,std_pc,cov,undefined_flag"
        assert len(lines) == 3
        assert lines[1].startswith("dmc,100,")
        assert lines[2].startswith("ss,100,")


class TestSeedResolution:
    def test_env_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SUBSIM_SEED", "7")
        out_env = tmp_path / "env"
        out_flag = tmp_path / "flag"
        assert main(["toy", "--n", "100", "--levels", "1", "--out", str(out_env)]) == 0
        monkeypatch.delenv("SUBSIM_SEED")
        assert main(["toy", "--n", "100", "--levels", "1", "--seed", "7", "--out", str(out_flag)]) == 0
        assert _read(out_env / "ccdf.csv") == _read(out_flag / "ccdf.csv")
        assert json.loads((out_env / "manifest.json").read_text())["master_seed"] == 7

    def test_negative_seed_exits_2(self, tmp_path):
        rc = main(["toy", "--seed", "-4", "--out", str(tmp_path / "x")])
        assert rc == 2
