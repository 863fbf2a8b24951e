"""Command-line driver: file outputs, determinism, exit codes."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import qincident
from qincident import cli, data, model, qsim, scenario


def run_cli(args):
    return cli.main(args)


class TestGen:
    def test_writes_files_and_reruns_identically(self, tmp_path, capsys):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        for out in (out_a, out_b):
            code = run_cli(
                ["gen", "--zones", "8", "--duration", "180", "--seed", "7", "--out", str(out)]
            )
            assert code == 0
        assert (out_a / "bsm.csv").read_bytes() == (out_b / "bsm.csv").read_bytes()
        assert (out_a / "schedule.json").read_bytes() == (out_b / "schedule.json").read_bytes()

    def test_zero_incidents_prints_zero_prevalence(self, tmp_path, capsys):
        code = run_cli(
            ["gen", "--zones", "6", "--duration", "120", "--seed", "0",
             "--incidents", "0", "--out", str(tmp_path / "o")]
        )
        assert code == 0
        captured = capsys.readouterr().out
        assert "prevalence: 0.0000" in captured

    @pytest.mark.parametrize("zones,duration,seed", [(8, 180, 7), (6, 120, 0)])
    @pytest.mark.parametrize("schedule_file", [False, True])
    def test_prevalence_line_matches_the_labeled_pipeline(
        self, tmp_path, capsys, zones, duration, seed, schedule_file
    ):
        args = ["gen", "--zones", str(zones), "--duration", str(duration), "--seed", str(seed)]
        if schedule_file:
            # a hand-made schedule with an incident in the first and last zone
            path = tmp_path / "schedule.json"
            events = [scenario.IncidentEvent(0, 0, 50), scenario.IncidentEvent(zones - 1, 70, 40)]
            scenario.write_schedule_json(events, path)
            args += ["--schedule", str(path)]
        out = tmp_path / "o"
        assert run_cli(args + ["--out", str(out)]) == 0
        printed = capsys.readouterr().out.splitlines()[-1]
        records = data.read_bsm_csv(out / "bsm.csv")
        events = scenario.read_schedule_json(out / "schedule.json")
        table = data.build_dataset(records, events, zones, 1, duration_s=duration)
        prevalence = table.labels.sum() / len(table)
        assert prevalence > 0
        assert printed == f"feature rows: {len(table)}  positive prevalence: {prevalence:.4f}"

    def test_bsm_csv_parses_back(self, tmp_path):
        out = tmp_path / "o"
        run_cli(["gen", "--zones", "4", "--duration", "60", "--seed", "1", "--out", str(out)])
        records = data.read_bsm_csv(out / "bsm.csv")
        assert len(records) and records.zone.max() < 4


class TestFeatures:
    def make_inputs(self, tmp_path):
        out = tmp_path / "gen"
        run_cli(["gen", "--zones", "6", "--duration", "240", "--seed", "3", "--out", str(out)])
        return out / "bsm.csv", out / "schedule.json"

    def test_produces_full_grid(self, tmp_path):
        bsm, schedule = self.make_inputs(tmp_path)
        out = tmp_path / "features.csv"
        code = run_cli(
            ["features", "--bsm", str(bsm), "--schedule", str(schedule), "--out", str(out)]
        )
        assert code == 0
        assert len(data.read_feature_csv(out)) == 6 * 240

    def test_per_minute_bucket(self, tmp_path):
        bsm, schedule = self.make_inputs(tmp_path)
        out = tmp_path / "features60.csv"
        code = run_cli(
            ["features", "--bsm", str(bsm), "--schedule", str(schedule),
             "--bucket", "60", "--out", str(out)]
        )
        assert code == 0
        assert len(data.read_feature_csv(out)) == 6 * 4

    def test_missing_schedule_warns_all_zero(self, tmp_path, capsys):
        bsm, _ = self.make_inputs(tmp_path)
        out = tmp_path / "nolabel.csv"
        code = run_cli(["features", "--bsm", str(bsm), "--out", str(out)])
        assert code == 0
        assert "warning" in capsys.readouterr().err.lower()
        assert not data.read_feature_csv(out).labels.any()

    def test_missing_file_is_io_error(self, tmp_path):
        code = run_cli(["features", "--bsm", str(tmp_path / "nope.csv"), "--out", "x.csv"])
        assert code == cli.EXIT_IO

    def test_malformed_csv_is_io_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("time_s,vehicle_id,zone_id,speed_mps\n0,a,0,fast\n")
        code = run_cli(["features", "--bsm", str(bad), "--out", str(tmp_path / "o.csv")])
        assert code == cli.EXIT_IO
        assert ":2:" in capsys.readouterr().err


SMALL_EXPERIMENT = [
    "experiment",
    "--zones", "8",
    "--duration", "400",
    "--seed", "5",
    "--splits", "DS-1",
    "--models", "classical",
    "--runs", "2",
    "--epochs", "2",
]


class TestExperiment:
    def test_report_structure(self, tmp_path):
        out = tmp_path / "exp"
        code = run_cli(SMALL_EXPERIMENT + ["--out", str(out)])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["config"]["seed"] == 5
        assert len(report["splits"]) == 1
        table = (out / "tables.txt").read_text()
        assert "DS-1" in table and "classical" in table

    def test_byte_identical_reruns(self, tmp_path):
        out = tmp_path / "exp"
        assert run_cli(SMALL_EXPERIMENT + ["--out", str(out)]) == 0
        first = (out / "report.json").read_bytes()
        assert run_cli(SMALL_EXPERIMENT + ["--out", str(out)]) == 0
        assert (out / "report.json").read_bytes() == first

    def test_config_file_with_flag_override(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({
            "zones": 8, "duration_s": 400, "seed": 5, "splits": ["DS-1"],
            "models": ["classical"], "n_runs": 1, "epochs": 1,
        }))
        out = tmp_path / "exp"
        code = run_cli(["experiment", "--config", str(config_path), "--runs", "2", "--out", str(out)])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["config"]["n_runs"] == 2  # flag wins over file

    def test_invalid_split_name_fails(self, tmp_path):
        code = run_cli(["experiment", "--splits", "DS-9", "--out", str(tmp_path / "o")])
        assert code == cli.EXIT_FAIL

    def test_env_seed_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("QINC_SEED", "5")
        out = tmp_path / "env"
        args = [a for a in SMALL_EXPERIMENT if a not in ("--seed", "5")]
        assert run_cli(args + ["--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["config"]["seed"] == 5

    def test_diverged_training_exits_1_with_a_partial_report(self, tmp_path, monkeypatch, capsys):
        def nan_layer(x, weights):
            values, d_inputs, d_weights = qsim.gradients_batch(x, weights)
            return np.full_like(values, np.nan), d_inputs, d_weights

        monkeypatch.setattr(model, "_QUANTUM_GRADIENTS", nan_layer)
        out = tmp_path / "exp"
        args = [a if a != "classical" else "hybrid-2q" for a in SMALL_EXPERIMENT]
        assert run_cli(args + ["--out", str(out)]) == cli.EXIT_FAIL
        message = "training diverged: loss nan at epoch 1/2, batch 1/"
        assert message in capsys.readouterr().err
        report = json.loads((out / "report.json").read_text())
        assert report["partial"] is True
        assert report["error"].startswith(f"DataError: {message}")
        assert report["error"].endswith("(seed 5)")


    def test_empty_schedule_file_is_used_as_given(self, tmp_path):
        schedule = tmp_path / "schedule.json"
        schedule.write_text("[]")
        config = cli.ExperimentConfig(
            zones=8, duration_s=400, seed=5, splits=("DS-1",), schedule_path=str(schedule)
        )
        split = cli._build_splits(config)["DS-1"]
        assert len(split.train_y) + len(split.test_y) == 8 * 400
        assert split.train_y.sum() + split.test_y.sum() == 0

    @pytest.mark.parametrize(
        "key, value",
        [("n_runs", "3"), ("zones", "8"), ("jobs", True), ("epochs", 2.0),
         ("learning_rate", "0.1"), ("ds3_duration_s", "1500"), ("schedule_path", 1), ("splits", "DS-1")],
    )
    def test_wrong_typed_config_value_exits_1(self, tmp_path, capsys, key, value):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({key: value}))
        code = run_cli(["experiment", "--config", str(config_path), "--out", str(tmp_path / "o")])
        assert code == cli.EXIT_FAIL
        assert f"error: {key} must be " in capsys.readouterr().err

    def test_invalid_config_json_exits_3(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text('{"zones": 8,')
        code = run_cli(["experiment", "--config", str(config_path), "--out", str(tmp_path / "o")])
        assert code == cli.EXIT_IO
        assert f"error: {config_path}: invalid JSON" in capsys.readouterr().err


class TestScheduleFile:
    @pytest.mark.parametrize(
        "text, message",
        [
            ('[{"zone": 1, "start_s": 0', "invalid JSON"),
            ('[{"zone": 1, "start_s": 0, "duration_s": 5}, 3]', "entry 1: expected an object, got 3"),
            ('[{"zone": 1, "start_s": 0}]', "entry 0: missing 'duration_s'"),
            ('[{"zone": true, "start_s": 0, "duration_s": 5}]', "entry 0: zone must be an integer, got True"),
            ('[{"zone": 2.9, "start_s": 0, "duration_s": 5}]', "entry 0: zone must be an integer, got 2.9"),
            ('[{"zone": 1, "start_s": "40", "duration_s": 5}]', "entry 0: start_s must be an integer, got '40'"),
            ('[{"zone": 1, "start_s": 0, "duration_s": "abc"}]', "entry 0: duration_s must be an integer, got 'abc'"),
            ('[{"zone": 1, "start_s": 0, "duration_s": 0}]', "entry 0: duration_s must be > 0, got 0"),
        ],
    )
    @pytest.mark.parametrize("command", ["gen", "features"])
    def test_malformed_schedule_exits_3_naming_path_and_entry(
        self, tmp_path, capsys, command, text, message
    ):
        path = tmp_path / "schedule.json"
        path.write_text(text)
        if command == "gen":
            args = ["gen", "--zones", "4", "--duration", "60", "--out", str(tmp_path / "o")]
        else:
            bsm = tmp_path / "bsm.csv"
            bsm.write_text("time_s,vehicle_id,zone_id,speed_mps\n0,a,0,1.0\n")
            args = ["features", "--bsm", str(bsm), "--out", str(tmp_path / "f.csv")]
        assert run_cli(args + ["--schedule", str(path)]) == cli.EXIT_IO
        assert capsys.readouterr().err.startswith(f"error: {path}: {message}")


class TestSmoke:
    def test_default_scenario_single_run_single_epoch_under_60s(self, tmp_path):
        import time

        start = time.perf_counter()
        code = run_cli(
            ["experiment", "--runs", "1", "--epochs", "1", "--seed", "0",
             "--out", str(tmp_path / "smoke")]
        )
        elapsed = time.perf_counter() - start
        assert code == 0
        assert elapsed < 60.0, f"smoke invocation took {elapsed:.1f}s"
        report = json.loads((tmp_path / "smoke" / "report.json").read_text())
        assert [s["split"] for s in report["splits"]] == ["DS-1", "DS-2", "DS-3"]
        assert all(len(s["models"]) == 3 for s in report["splits"])


class TestGradcheck:
    def test_default_passes(self, capsys):
        assert run_cli(["gradcheck", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 3
        assert "max err" in out

    def test_corrupted_gradient_fails(self, capsys):
        assert run_cli(["gradcheck", "--seed", "0", "--corrupt"]) == cli.EXIT_FAIL
        assert "FAIL" in capsys.readouterr().out


class TestUsage:
    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            run_cli(["frobnicate"])
        assert excinfo.value.code == cli.EXIT_USAGE

    def test_bad_bucket_value_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            run_cli(["features", "--bsm", "x.csv", "--bucket", "30"])
        assert excinfo.value.code == cli.EXIT_USAGE

    def test_non_integer_env_seed_exits_2(self, monkeypatch, capsys):
        monkeypatch.setenv("QINC_SEED", "abc")
        with pytest.raises(SystemExit) as excinfo:
            run_cli(["gradcheck"])
        assert excinfo.value.code == cli.EXIT_USAGE
        assert "QINC_SEED" in capsys.readouterr().err


class TestModuleEntryPoint:
    def test_python_m_runs_without_runtime_warning(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(qincident.__file__)))
        proc = subprocess.run(
            [sys.executable, "-W", "default", "-m", "qincident.cli", "--help"],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0
        assert "usage: qincident" in proc.stdout
        assert "RuntimeWarning" not in proc.stderr

    def test_cli_is_an_attribute_of_the_package(self):
        assert getattr(qincident, "cli") is cli
