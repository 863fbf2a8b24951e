"""Command-line driver: file outputs, determinism, exit codes."""

import argparse
import contextlib
import csv
import dataclasses
import io
import json
import os
import shutil
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import qincident
from qincident import cli, data, model, qsim, scenario


def run_cli(args):
    return cli.main(args)


def read_features(path):
    """The columns of a feature CSV by header name, as float arrays."""
    with open(path, newline="", encoding="utf-8") as handle:
        header, *rows = csv.reader(handle)
    return dict(zip(header, np.array(rows, dtype=float).reshape(-1, len(header)).T))


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
        table = data.grid_dataset(data.aggregate(records, zones, duration), events, 1)
        prevalence = table.labels.sum() / len(table)
        assert prevalence > 0
        assert printed == f"feature rows: {len(table)}  positive prevalence: {prevalence:.4f}"

    def test_corridor_above_the_cell_cap_exits_1_at_once(self, tmp_path, capsys):
        out = tmp_path / "o"
        started = time.perf_counter()
        code = run_cli(["gen", "--zones", "100000", "--duration", "100000", "--out", str(out)])
        assert code == cli.EXIT_FAIL and time.perf_counter() - started < 5.0
        err = capsys.readouterr().err
        assert err.startswith("error: a corridor of 100000 zones x 100000 s has 10000000000 cells")
        assert f"above the cap of {scenario.MAX_CELLS}" in err and "Traceback" not in err
        assert not out.exists()

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
        assert len(read_features(out)["label"]) == 6 * 240

    def gen_queued(self, tmp_path):
        """``gen`` on a corridor where zone 5's incident queues zone 4 into
        cells of 11 records and more; the config and the record CSV."""
        event = scenario.IncidentEvent(5, 0, 60)
        config = scenario.ScenarioConfig(8, 60, (event,), seed=1)
        schedule = tmp_path / "schedule.json"
        scenario.write_schedule_json([event], schedule)
        gen = ["gen", "--zones", "8", "--duration", "60", "--seed", "1", "--schedule", str(schedule)]
        assert run_cli(gen + ["--out", str(tmp_path / "gen")]) == 0
        return config, tmp_path / "gen" / "bsm.csv"

    def test_gen_writes_the_records_generate_returns(self, tmp_path):
        config, bsm = self.gen_queued(tmp_path)
        records, read = scenario.generate(config)[0], data.read_bsm_csv(bsm)
        assert np.bincount(records.time * 8 + records.zone).max() >= 11
        for column in ("time", "vehicle_id", "zone", "speed"):
            want, got = getattr(records, column), getattr(read, column)
            assert got.dtype == want.dtype and np.array_equal(got, want), column

    @pytest.mark.parametrize("bucket", data.BUCKET_SIZES)
    def test_gen_then_features_write_the_rows_of_the_experiment_path(self, tmp_path, bucket):
        config, bsm = self.gen_queued(tmp_path)
        out, want = tmp_path / "f.csv", tmp_path / "want.csv"
        argv = ["features", "--bsm", str(bsm), "--schedule", str(bsm.with_name("schedule.json")),
                "--bucket", str(bucket)]
        assert run_cli(argv + ["--out", str(out)]) == 0
        data.write_feature_csv(scenario.synthetic_dataset(config, bucket), want)
        assert out.read_bytes() == want.read_bytes()

    def test_per_minute_bucket(self, tmp_path):
        bsm, schedule = self.make_inputs(tmp_path)
        out = tmp_path / "features60.csv"
        code = run_cli(
            ["features", "--bsm", str(bsm), "--schedule", str(schedule),
             "--bucket", "60", "--out", str(out)]
        )
        assert code == 0
        assert len(read_features(out)["label"]) == 6 * 4

    def test_missing_schedule_warns_all_zero(self, tmp_path, capsys):
        bsm, _ = self.make_inputs(tmp_path)
        out = tmp_path / "nolabel.csv"
        code = run_cli(["features", "--bsm", str(bsm), "--out", str(out)])
        assert code == 0
        assert "warning" in capsys.readouterr().err.lower()
        assert not read_features(out)["label"].any()

    @pytest.mark.parametrize(
        "entries, message",
        [
            (
                [{"zone": 9, "start_s": 10, "duration_s": 20}, {"zone": 1, "start_s": 500, "duration_s": 20}],
                "incident zone 9 outside [0, 4)",
            ),
            ([{"zone": 1, "start_s": 500, "duration_s": 20}], "incident [500, 520) outside [0, 60)"),
        ],
    )
    def test_schedule_outside_the_records_corridor_exits_1(self, tmp_path, capsys, entries, message):
        out = tmp_path / "gen"
        assert run_cli(["gen", "--zones", "4", "--duration", "60", "--seed", "0", "--out", str(out)]) == 0
        schedule = tmp_path / "schedule.json"
        schedule.write_text(json.dumps(entries))
        features = tmp_path / "features.csv"
        code = run_cli(
            ["features", "--bsm", str(out / "bsm.csv"), "--schedule", str(schedule), "--out", str(features)]
        )
        assert code == cli.EXIT_FAIL
        assert capsys.readouterr().err.startswith(f"error: {schedule}: {message}")
        assert not features.exists()

    @pytest.mark.parametrize(
        "line, message",
        [(b"1,v\xff2,0,2.5", "vehicle_id b'v\\xff2' is not UTF-8"),
         (b"1,v2,0,2.5\xff", "speed_mps b'2.5\\xff' is not UTF-8")],
    )
    def test_bytes_that_are_not_utf8_exit_3_naming_the_line(self, tmp_path, capsys, line, message):
        bsm = tmp_path / "bsm.csv"
        bsm.write_bytes(",".join(data.BSM_HEADER).encode() + b"\n0,v1,0,1.5\n" + line + b"\n2,v3,1,3.5\n")
        out = tmp_path / "features.csv"
        assert run_cli(["features", "--bsm", str(bsm), "--out", str(out)]) == cli.EXIT_IO
        err = capsys.readouterr().err
        assert f"error: {bsm}:3: {message}" in err and "Traceback" not in err
        assert not out.exists()

    def test_zones_flag_keeps_a_trailing_zone_without_records(self, tmp_path):
        bsm, schedule = self.make_inputs(tmp_path)
        records = data.read_bsm_csv(bsm)
        keep = records.zone < 5
        trimmed = tmp_path / "trimmed.csv"
        data.write_bsm_csv(
            data.Records(records.time[keep], records.vehicle_id[keep], records.zone[keep], records.speed[keep]),
            trimmed,
        )
        out = tmp_path / "features.csv"
        code = run_cli(
            ["features", "--bsm", str(trimmed), "--schedule", str(schedule), "--zones", "6", "--out", str(out)]
        )
        assert code == 0
        table = read_features(out)
        assert len(table["label"]) == 6 * 240
        last = table["zone_id"] == 5
        assert last.sum() == 240 and not table["cnt_z"][last].any()

    def test_duration_flag_keeps_trailing_seconds(self, tmp_path):
        bsm, _ = self.make_inputs(tmp_path)
        out = tmp_path / "features.csv"
        assert run_cli(["features", "--bsm", str(bsm), "--duration", "300", "--out", str(out)]) == 0
        table = read_features(out)
        assert len(table["label"]) == 6 * 300
        assert not table["cnt_z"][table["bucket_start_s"] >= 240].any()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--zones", "5"], "zone 5 outside the corridor of 5 zones x 240 s"),
            (["--duration", "200"], "record at 200 s in zone"),
        ],
    )
    def test_records_outside_the_given_corridor_exit_1(self, tmp_path, capsys, flags, message):
        bsm, _ = self.make_inputs(tmp_path)
        out = tmp_path / "features.csv"
        assert run_cli(["features", "--bsm", str(bsm), *flags, "--out", str(out)]) == cli.EXIT_FAIL
        err = capsys.readouterr().err
        assert f"error: {bsm}: record at " in err and message in err
        assert not out.exists()

    def test_records_are_checked_before_the_schedule(self, tmp_path, capsys):
        # both the records from 200 s on and the [250, 270) incident lie outside
        bsm, _ = self.make_inputs(tmp_path)
        schedule = tmp_path / "schedule.json"
        schedule.write_text(json.dumps([{"zone": 1, "start_s": 250, "duration_s": 20}]))
        out = tmp_path / "features.csv"
        args = ["features", "--bsm", str(bsm), "--schedule", str(schedule), "--duration", "200"]
        assert run_cli([*args, "--out", str(out)]) == cli.EXIT_FAIL
        records = data.read_bsm_csv(bsm)
        zone = records.zone[np.argmax(records.time >= 200)]
        assert capsys.readouterr().err == (
            f"error: {bsm}: record at 200 s in zone {zone} outside the corridor of 6 zones x 200 s\n"
        )
        assert not out.exists()

    def test_schedule_is_checked_against_the_given_corridor(self, tmp_path, capsys):
        bsm, _ = self.make_inputs(tmp_path)
        schedule = tmp_path / "schedule.json"
        schedule.write_text(json.dumps([{"zone": 1, "start_s": 250, "duration_s": 20}]))
        out = tmp_path / "features.csv"
        args = ["features", "--bsm", str(bsm), "--schedule", str(schedule), "--out", str(out)]
        assert run_cli(args) == cli.EXIT_FAIL
        assert "incident [250, 270) outside [0, 240)" in capsys.readouterr().err
        assert run_cli([*args, "--duration", "300"]) == 0
        assert read_features(out)["label"].sum() == 20

    @pytest.mark.parametrize("flag", ["--zones", "--duration"])
    def test_non_positive_corridor_flag_exits_1(self, tmp_path, capsys, flag):
        bsm, _ = self.make_inputs(tmp_path)
        assert run_cli(["features", "--bsm", str(bsm), flag, "0", "--out", str(tmp_path / "o.csv")]) == 1
        assert "must be >= 1, got 0" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [[], ["--zones", "4"], ["--duration", "60"]])
    def test_header_only_records_without_the_corridor_exit_1(self, tmp_path, capsys, flags):
        bsm = tmp_path / "bsm.csv"
        bsm.write_text("time_s,vehicle_id,zone_id,speed_mps\n")
        out = tmp_path / "features.csv"
        assert run_cli(["features", "--bsm", str(bsm), *flags, "--out", str(out)]) == cli.EXIT_FAIL
        message = f"error: {bsm}: no records to infer the corridor from; give --zones and --duration"
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_header_only_records_with_the_corridor_give_empty_rows(self, tmp_path):
        bsm = tmp_path / "bsm.csv"
        bsm.write_text("time_s,vehicle_id,zone_id,speed_mps\n")
        out = tmp_path / "features.csv"
        args = ["features", "--bsm", str(bsm), "--zones", "4", "--duration", "60", "--out", str(out)]
        assert run_cli(args) == 0
        labels = read_features(out)["label"]
        assert len(labels) == 240 and not labels.any()

    def test_zone_id_beyond_the_cell_cap_exits_1_at_once(self, tmp_path, capsys):
        # without --zones the corridor would span zone ids 0..10**12
        bsm = tmp_path / "bsm.csv"
        bsm.write_text("time_s,vehicle_id,zone_id,speed_mps\n0,a,1000000000000,1\n")
        out = tmp_path / "features.csv"
        started = time.perf_counter()
        code = run_cli(["features", "--bsm", str(bsm), "--out", str(out)])
        assert code == cli.EXIT_FAIL and time.perf_counter() - started < 5.0
        err = capsys.readouterr().err
        assert err.splitlines()[-1].startswith(f"error: {bsm}: a corridor of 1000000000001 zones x 1 s")
        assert f"above the cap of {scenario.MAX_CELLS}" in err and "Traceback" not in err
        assert not out.exists()

    def test_negative_zone_ids_alone_name_the_record(self, tmp_path, capsys):
        # the corridor the records imply holds at least one zone, so the
        # error is the record outside it, not an inferred corridor of 0 zones
        bsm = tmp_path / "neg.csv"
        bsm.write_text("time_s,vehicle_id,zone_id,speed_mps\n0,a,-1,1\n")
        out = tmp_path / "features.csv"
        assert run_cli(["features", "--bsm", str(bsm), "--out", str(out)]) == cli.EXIT_FAIL
        message = f"error: {bsm}: record at 0 s in zone -1 outside the corridor of 1 zones x 1 s"
        assert capsys.readouterr().err.splitlines()[-1] == message
        assert not out.exists()

    def test_field_beyond_the_csv_limit_exits_3_naming_the_line(self, tmp_path, capsys):
        # a line longer than the reader's 1 MiB window, which pass 1 declines,
        # holding an id longer than csv's field limit
        bad = tmp_path / "long.csv"
        bad.write_text(f"time_s,vehicle_id,zone_id,speed_mps\n0,a,0,1.5\n1,{'v' * (1 << 20)},0,2.5\n")
        out = tmp_path / "o.csv"
        code = run_cli(["features", "--bsm", str(bad), "--zones", "1", "--duration", "2", "--out", str(out)])
        assert code == cli.EXIT_IO
        assert capsys.readouterr().err == f"error: {bad}:3: field larger than field limit (131072)\n"
        assert not out.exists()

    def test_a_quoted_field_over_two_lines_shifts_no_line_number(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text('time_s,vehicle_id,zone_id,speed_mps\n0,"a\nb",0,1.5\n1,c,0,x\n')
        out = tmp_path / "o.csv"
        assert run_cli(["features", "--bsm", str(bad), "--out", str(out)]) == cli.EXIT_IO
        assert capsys.readouterr().err == f"error: {bad}:4: could not convert string to float: 'x'\n"
        assert not out.exists()

    def test_missing_file_is_io_error(self, tmp_path):
        code = run_cli(["features", "--bsm", str(tmp_path / "nope.csv"), "--out", "x.csv"])
        assert code == cli.EXIT_IO

    def test_malformed_csv_is_io_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("time_s,vehicle_id,zone_id,speed_mps\n0,a,0,fast\n")
        code = run_cli(["features", "--bsm", str(bad), "--out", str(tmp_path / "o.csv")])
        assert code == cli.EXIT_IO
        assert ":2:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line", ["99999999999999999999,a,0,1", "0,a,99999999999999999999,1"], ids=["time", "zone"]
    )
    def test_value_beyond_int64_is_io_error(self, tmp_path, capsys, line):
        bad = tmp_path / "bad.csv"
        bad.write_text(f"time_s,vehicle_id,zone_id,speed_mps\n{line}\n")
        out = tmp_path / "o.csv"
        code = run_cli(["features", "--bsm", str(bad), "--out", str(out)])
        assert code == cli.EXIT_IO
        assert f"{bad}:2: " in capsys.readouterr().err
        assert not out.exists()


# -- features over corrupted inputs ------------------------------------------------

# bytes a corruption inserts: field and line breaks, quotes, characters the CSV
# fast path refuses, signs and exponents, non-ASCII and invalid UTF-8
CSV_BYTES = [b",", b"\n", b'"', b"\r", b"\x00", b"#", b"\x1c", b" ", b"-", b"e", b"9", b".",
             "\xe9".encode(), b"\xff"]
CSV_LINES = ["", "x,y", "0,a,0,nan", "-1,a,0,1", "0,a,0,-2.5", "0,a,0,1e999", "1,a,0,1,2",
             "99999999999999999999,a,0,1", "0,a,1000000000000,1", "0,a,-1,1", "0,a\x00,0,1",
             "7,\u2028,2,1.5", "time_s,vehicle_id,zone_id,speed_mps"]
SCHEDULE_TEXTS = [
    "", "[", "{}", "[1]", "[]", "NaN", '[{"zone": 0}]',
    '[{"zone": 0, "start_s": 0, "duration_s": 0}]',
    '[{"zone": 99, "start_s": 0, "duration_s": 5}]',
    '[{"zone": -1, "start_s": 0, "duration_s": 5}]',
    '[{"zone": 0, "start_s": -5, "duration_s": 5}]',
    '[{"zone": 0, "start_s": 100000000000000000000000, "duration_s": 5}]',
    '[{"zone": 0, "start_s": 0, "duration_s": 5, "x": 1}]',
    '[{"zone": true, "start_s": 0, "duration_s": 5}]',
    '[{"zone": 0, "start_s": 1.0, "duration_s": 5}]',
]


@st.composite
def corrupted_features_calls(draw, root):
    """A small generated corridor's record CSV and schedule, each maybe
    corrupted, and a ``features`` argument list over them."""
    zones, duration = draw(st.integers(1, 6)), draw(st.integers(1, 130))
    config = scenario.ScenarioConfig(n_zones=zones, duration_s=duration, seed=draw(st.integers(0, 9)))
    events = scenario.default_schedule(config)
    records, _ = scenario.generate(dataclasses.replace(config, incidents=tuple(events)))
    bsm, schedule = root / "bsm.csv", root / "schedule.json"
    data.write_bsm_csv(records, bsm)
    scenario.write_schedule_json(events, schedule)
    raw = bsm.read_bytes()
    for _ in range(draw(st.integers(0, 3))):
        edit = draw(st.sampled_from(["insert", "line", "truncate"]))
        at = draw(st.integers(0, len(raw)))
        if edit == "insert":
            raw = raw[:at] + draw(st.sampled_from(CSV_BYTES)) + raw[at:]
        elif edit == "line":
            lines = raw.split(b"\n")
            at = draw(st.integers(0, len(lines) - 1))
            lines[at] = draw(st.sampled_from(CSV_LINES)).encode()
            raw = b"\n".join(lines)
        else:
            raw = raw[:at]
    bsm.write_bytes(raw)
    if draw(st.booleans()):
        schedule.write_text(draw(st.sampled_from(SCHEDULE_TEXTS)), encoding="utf-8")
    args = ["features", "--bsm", str(bsm), "--bucket", draw(st.sampled_from(["1", "60"]))]
    which = draw(st.sampled_from(["given", "none", "missing"]))
    if which != "none":
        args += ["--schedule", str(schedule if which == "given" else root / "nope.json")]
    for flag, size in (("--zones", zones), ("--duration", duration)):
        value = draw(st.sampled_from([None, size, size + 1, 0, -1, 10**9]))
        if value is not None:
            args += [flag, str(value)]
    return args + ["--out", str(root / "features.csv")]


class TestFeaturesOverCorruptedInputs:
    """Every call ends in an exit code of 0-3 with no traceback and no Python
    warning, and a rerun writes the same bytes."""

    @staticmethod
    def run(args, out):
        stdout, stderr = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            warnings.simplefilter("always")
            try:
                code = cli.main(args)
            except SystemExit as exc:  # argparse's usage error
                code = exc.code
        written = out.read_bytes() if out.exists() else None
        out.unlink(missing_ok=True)
        return code, stdout.getvalue(), stderr.getvalue(), [str(w.message) for w in caught], written

    @settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(drawn=st.data())
    def test_exit_code_no_traceback_no_warning_same_bytes(self, tmp_path_factory, drawn):
        root = tmp_path_factory.mktemp("features")
        args = drawn.draw(corrupted_features_calls(root))
        first = self.run(args, root / "features.csv")
        code, _, err, caught, written = first
        assert code in (0, 1, 2, 3), err
        assert "Traceback" not in err and not caught, (err, caught)
        assert (code == 0) == (written is not None), err
        assert self.run(args, root / "features.csv") == first


# -- experiment over drawn flags and corrupted configs ------------------------------

# each flag's values: valid ones, then ones the call must refuse
EXPERIMENT_FLAGS = {
    "--splits": (["DS-1", "DS-2", "DS-3", "DS-3,DS-1"], ["DS-1,DS-1", "DS-4", "", "ds-1"]),
    "--models": (["classical", "hybrid-2q", "hybrid-4q", "classical,hybrid-4q"],
                 ["hybrid-4q,hybrid-4q", "hybrid-3q", ""]),
    "--batch": (["1", "4", "16", "1000"], ["0", "-3", "x"]),
    "--lr": (["0.001", "0.1", "1e300"], ["0", "-1", "nan", "inf", "x"]),
}
# a value of the wrong type, or out of range, for some config key
CONFIG_VALUES = ["8", 1.5, True, None, [], {}, -1, 0, 10**30, "DS-1", ["DS-1"], [["DS-1"]], 1e300]
CONFIG_BYTES = [b",", b"}", b"{", b"]", b'"', b":", b"x", b" ", b"\x00", b"\xff"]


@st.composite
def experiment_calls(draw, root):
    """An ``experiment`` argument list over a small corridor (1-6 zones,
    1-130 s, one epoch), with drawn flags and a config file that may be
    corrupted, mistyped or name a corrupted schedule.  Most draws are
    valid, so that most calls train."""
    zones, duration = draw(st.integers(1, 6)), draw(st.integers(1, 130))
    doc = {"zones": zones, "duration_s": duration, "ds3_duration_s": draw(st.integers(60, 600)),
           "seed": draw(st.integers(0, 9)), "n_runs": draw(st.integers(1, 2)), "epochs": 1}
    edit = draw(st.sampled_from(["none"] * 6 + ["value", "key", "schedule", "incidents", "bytes"]))
    if edit == "value":
        doc[draw(st.sampled_from(sorted(dataclasses.asdict(cli.ExperimentConfig()))))] = draw(
            st.sampled_from(CONFIG_VALUES))
    elif edit == "key":
        doc["learning_rte"] = 0.1
    elif edit == "schedule":
        schedule = root / "schedule.json"
        schedule.write_text(draw(st.sampled_from(SCHEDULE_TEXTS)), encoding="utf-8")
        doc["schedule_path"] = str(schedule if draw(st.booleans()) else root / "nope.json")
    elif edit == "incidents":
        doc["n_incidents"] = draw(st.integers(0, 40))
    raw = json.dumps(doc).encode()
    if edit == "bytes":
        at = draw(st.integers(0, len(raw)))
        raw = raw[:at] + (draw(st.sampled_from(CONFIG_BYTES)) if draw(st.booleans()) else b"")
    config = root / "config.json"
    config.write_bytes(raw)
    args = ["experiment", "--config", str(config), "--epochs", "1", "--out", str(root / "exp")]
    if draw(st.booleans()):  # else the config's corridor and run count
        args += ["--zones", str(zones), "--duration", str(duration),
                 "--runs", str(draw(st.integers(1, 2)))]
    for flag, (valid, refused) in EXPERIMENT_FLAGS.items():
        kind = draw(st.sampled_from(["none", "valid", "valid", "valid", "refused"]))
        if kind != "none":
            args += [flag, draw(st.sampled_from(valid if kind == "valid" else refused))]
    return args


class TestExperimentOverDrawnInputs:
    """Every call ends in an exit code of 0-3 with no traceback and no Python
    warning; a report is complete exactly when the call exits 0 (a run that
    diverges exits 1 and leaves a report marked partial), and a rerun gives
    the same code, stdout and bytes."""

    @staticmethod
    def run(args, out):
        stdout, stderr = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            warnings.simplefilter("always")
            try:
                code = cli.main(args)
            except SystemExit as exc:  # argparse's usage error
                code = exc.code
        written = {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.exists() else None
        shutil.rmtree(out, ignore_errors=True)
        return code, stdout.getvalue(), stderr.getvalue(), [str(w.message) for w in caught], written

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(drawn=st.data())
    def test_exit_code_no_traceback_no_warning_same_bytes(self, tmp_path_factory, drawn):
        root = tmp_path_factory.mktemp("experiment")
        args = drawn.draw(experiment_calls(root))
        first = self.run(args, root / "exp")
        code, _, err, caught, written = first
        assert code in (0, 1, 2, 3), err
        assert "Traceback" not in err and not caught, (err, caught)
        report = json.loads(written["report.json"]) if written else None
        if code == 0:
            assert "partial" not in report and written["tables.txt"], err
        else:
            assert report is None or (code == 1 and report["partial"] is True), err
        assert self.run(args, root / "exp") == first


# -- gen over drawn corridors and corrupted schedules --------------------------------

# a schedule entry's value: mostly an integer near the corridor's edge, now and
# then one of the wrong type
SCHEDULE_VALUES = [True, 1.5, "3", None, [], 10**30]
SCHEDULE_BYTES = [b",", b"}", b"{", b"]", b'"', b":", b"-", b"0", b"\x00", b"\xff"]


@st.composite
def gen_calls(draw, root):
    """A ``gen`` argument list over a small corridor (1-6 zones, 1-130 s),
    with a drawn incident count and seed, and maybe a schedule file that is
    corrupted, mistyped or outside the corridor."""
    zones, duration = draw(st.integers(1, 6)), draw(st.integers(1, 130))
    args = ["gen", "--zones", str(zones), "--duration", str(duration), "--out", str(root / "gen")]
    if draw(st.booleans()):
        args += ["--seed", str(draw(st.sampled_from([0, 1, 7, 2**32, 2**70])))]
    if draw(st.booleans()):
        args += ["--incidents", str(draw(st.sampled_from([-1, 0, 1, 2, 3, 8, 40, 10**9])))]
    kind = draw(st.sampled_from(["none", "text", "entries", "entries", "bytes"]))
    if kind == "none":
        return args
    schedule = root / "schedule.json"
    if kind == "text":
        raw = draw(st.sampled_from(SCHEDULE_TEXTS)).encode()
    else:
        def value(low, high):
            roll = draw(st.integers(0, 9))
            return draw(st.sampled_from(SCHEDULE_VALUES)) if roll == 9 else draw(st.integers(low, high))

        entries = [
            {"zone": value(-1, zones), "start_s": value(-1, duration), "duration_s": value(0, duration + 1)}
            for _ in range(draw(st.integers(0, 4)))
        ]
        raw = json.dumps(entries).encode()
        if kind == "bytes":
            at = draw(st.integers(0, len(raw)))
            raw = raw[:at] + (draw(st.sampled_from(SCHEDULE_BYTES)) if draw(st.booleans()) else b"")
    schedule.write_bytes(raw)
    return args + ["--schedule", str(schedule if draw(st.integers(0, 9)) else root / "nope.json")]


class TestGenOverDrawnInputs:
    """Every call ends in an exit code of 0-3 with no traceback and no Python
    warning; it writes its files exactly when it exits 0, and a rerun gives
    the same code, stdout and bytes."""

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(drawn=st.data())
    def test_exit_code_no_traceback_no_warning_same_bytes(self, tmp_path_factory, drawn):
        root = tmp_path_factory.mktemp("gen")
        args = drawn.draw(gen_calls(root))
        first = TestExperimentOverDrawnInputs.run(args, root / "gen")
        code, _, err, caught, written = first
        assert code in (0, 1, 2, 3), err
        assert "Traceback" not in err and not caught, (err, caught)
        assert (code == 0) == (written is not None), err
        assert TestExperimentOverDrawnInputs.run(args, root / "gen") == first


# a value for every experiment flag, none of them its default, as report.json
# gives it back
EXPERIMENT_FLAG_VALUES = {
    "--zones": 3, "--duration": 40, "--seed": 2, "--incidents": 1, "--splits": ["DS-1"],
    "--models": ["hybrid-2q"], "--runs": 2, "--epochs": 1, "--batch": 8, "--lr": 0.01,
    "--out": "exp",
}


def test_every_experiment_flag_lands_on_its_config_field(tmp_path, monkeypatch):
    # the flags are laid over the config by their dests, so a dest that names
    # no ExperimentConfig field would be dropped without a word
    monkeypatch.chdir(tmp_path)
    parser = cli._build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    flags = {
        action.option_strings[0]: action.dest
        for action in commands.choices["experiment"]._actions
        if action.dest not in ("help", "config")
    }
    assert sorted(flags) == sorted(EXPERIMENT_FLAG_VALUES)
    fields = {f.name for f in dataclasses.fields(cli.ExperimentConfig)}
    assert set(flags.values()) <= fields, sorted(set(flags.values()) - fields)
    argv = ["experiment"]
    for flag, value in EXPERIMENT_FLAG_VALUES.items():
        argv += [flag, ",".join(value) if isinstance(value, list) else str(value)]
    assert run_cli(argv) == 0
    config = json.loads((tmp_path / "exp" / "report.json").read_text())["config"]
    assert {flag: config[dest] for flag, dest in flags.items()} == EXPERIMENT_FLAG_VALUES


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

    @pytest.mark.parametrize("flag", ["--splits", "--models"])
    def test_empty_name_list_fails_without_output(self, tmp_path, capsys, flag):
        # an empty list in a config file is refused; the flag's "" is the same list
        out = tmp_path / "o"
        args = ["experiment", "--zones", "2", "--duration", "30", "--runs", "1", "--epochs", "1"]
        assert run_cli(args + [flag, "", "--out", str(out)]) == cli.EXIT_FAIL
        assert "must be a non-empty subset" in capsys.readouterr().err
        assert not out.exists()

    def test_config_seed_ranks_below_the_flag(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({
            "zones": 8, "duration_s": 400, "seed": 5, "splits": ["DS-1"],
            "models": ["classical"], "n_runs": 1, "epochs": 1,
        }))
        seeds = {}
        for name, flags in (("file", []), ("flag", ["--seed", "7"])):
            out = tmp_path / name
            assert run_cli(["experiment", "--config", str(config_path), *flags, "--out", str(out)]) == 0
            seeds[name] = json.loads((out / "report.json").read_text())["config"]["seed"]
        assert seeds == {"file": 5, "flag": 7}

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


    def test_corridor_above_the_cell_cap_exits_1_before_any_generation(self, tmp_path, capsys, monkeypatch):
        # the per-second corridor fits; the per-minute one is refused before
        # either is generated
        def generate(config):
            raise AssertionError("generated before every corridor was checked")

        monkeypatch.setattr(scenario, "generate", generate)
        out = tmp_path / "exp"
        args = ["experiment", "--zones", "1000", "--duration", "1000", "--out", str(out)]
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"ds3_duration_s": 10**6}))
        assert run_cli(args + ["--config", str(config)]) == cli.EXIT_FAIL
        err = capsys.readouterr().err
        assert err.startswith("error: a corridor of 1000 zones x 1000000 s has 1000000000 cells")
        assert not out.exists()

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
        [("n_runs", "3"), ("zones", "8"), ("epochs", 2.0),
         ("learning_rate", "0.1"), ("ds3_duration_s", "1500"), ("schedule_path", 1), ("splits", "DS-1"),
         ("splits", [["DS-1"]]), ("models", [["classical"]]), ("models", [{}])],
    )
    def test_wrong_typed_config_value_exits_1(self, tmp_path, capsys, key, value):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({key: value}))
        code = run_cli(["experiment", "--config", str(config_path), "--out", str(tmp_path / "o")])
        assert code == cli.EXIT_FAIL
        assert f"error: {key} must be " in capsys.readouterr().err

    def test_config_naming_jobs_is_an_unknown_key(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"jobs": 2}))
        code = run_cli(["experiment", "--config", str(config_path), "--out", str(tmp_path / "o")])
        assert code == cli.EXIT_FAIL
        assert "unknown config keys ['jobs']" in capsys.readouterr().err

    def test_schedule_file_with_an_incident_count_exits_1(self, tmp_path, capsys):
        schedule = tmp_path / "schedule.json"
        schedule.write_text("[]")
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({
            "zones": 8, "duration_s": 400, "seed": 5, "splits": ["DS-1"],
            "models": ["classical"], "n_runs": 1, "epochs": 1, "schedule_path": str(schedule),
        }))
        out = tmp_path / "exp"
        code = run_cli(["experiment", "--config", str(config_path), "--incidents", "3", "--out", str(out)])
        assert code == cli.EXIT_FAIL
        err = capsys.readouterr().err
        assert "schedule_path" in err and "n_incidents" in err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "0", "-1", "inf"])
    def test_bad_learning_rate_flag_exits_1_without_a_report(self, tmp_path, capsys, value):
        out = tmp_path / "exp"
        code = run_cli(SMALL_EXPERIMENT + ["--lr", value, "--out", str(out)])
        assert code == cli.EXIT_FAIL
        assert "error: learning_rate must be a finite number > 0, got " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text", ["NaN", "0", "-1"])
    def test_bad_learning_rate_in_a_config_file_exits_1(self, tmp_path, capsys, text):
        config_path = tmp_path / "config.json"
        config_path.write_text(
            '{"zones": 8, "duration_s": 400, "splits": ["DS-1"], "models": ["classical"], '
            '"n_runs": 1, "epochs": 1, "learning_rate": %s}' % text
        )
        out = tmp_path / "exp"
        code = run_cli(["experiment", "--config", str(config_path), "--out", str(out)])
        assert code == cli.EXIT_FAIL
        err = capsys.readouterr().err
        assert f"error: learning_rate must be a finite number > 0, got {text.lower()}" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, value, message",
        [("--zones", "0", "zones must be >= 1, got 0"),
         ("--duration", "0", "duration_s must be >= 1, got 0"),
         ("--incidents", "-2", "n_incidents must be >= 0, got -2"),
         ("--runs", "0", "n_runs must be >= 1, got 0"),
         ("--epochs", "0", "epochs must be >= 1, got 0"),
         ("--batch", "0", "batch_size must be >= 1, got 0")],
    )
    def test_bad_count_flag_exits_1_without_a_report(self, tmp_path, capsys, flag, value, message):
        out = tmp_path / "exp"
        assert run_cli(SMALL_EXPERIMENT + [flag, value, "--out", str(out)]) == cli.EXIT_FAIL
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, value",
        [("zones", 0), ("duration_s", -5), ("ds3_duration_s", 0), ("n_incidents", -1),
         ("epochs", 0), ("batch_size", 0), ("seed", -3)],
    )
    def test_bad_count_in_a_config_file_exits_1_without_a_report(self, tmp_path, capsys, key, value):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({
            "zones": 8, "duration_s": 400, "splits": ["DS-1", "DS-3"], "models": ["classical"],
            "n_runs": 1, "epochs": 1, key: value,
        }))
        out = tmp_path / "exp"
        code = run_cli(["experiment", "--config", str(config_path), "--out", str(out)])
        assert code == cli.EXIT_FAIL
        assert f"error: {key} must be >= " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("where", ["config file", "flag"])
    def test_runs_above_the_cap_exit_1_before_any_output(self, tmp_path, capsys, where):
        # one run above the cap: were the cap not checked, the experiment
        # would run on the 2-zone, 30 s corridor in a few hundred MiB
        out, runs = tmp_path / "exp", cli.MAX_RUNS + 1
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({
            "zones": 2, "duration_s": 30, "splits": ["DS-1"], "models": ["classical"],
            "n_runs": runs if where == "config file" else 1, "epochs": 1, "out_dir": str(out),
        }))
        argv = ["experiment", "--config", str(config_path)]
        if where == "flag":
            argv += ["--runs", str(runs)]
        assert run_cli(argv) == cli.EXIT_FAIL
        assert capsys.readouterr().err == f"error: n_runs must be <= {runs - 1} (cli.MAX_RUNS), got {runs}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, value, repeated",
        [("--models", "classical,classical", "models must not repeat a name, got 'classical' twice"),
         ("--splits", "DS-1,DS-3,DS-1", "splits must not repeat a name, got 'DS-1' twice")],
    )
    def test_repeated_name_flag_exits_1_without_a_report(self, tmp_path, capsys, flag, value, repeated):
        out = tmp_path / "exp"
        assert run_cli(SMALL_EXPERIMENT + [flag, value, "--out", str(out)]) == cli.EXIT_FAIL
        assert f"error: {repeated}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, value, repeated",
        [("models", ["hybrid-2q", "classical", "hybrid-2q"], "'hybrid-2q'"), ("splits", ["DS-3", "DS-3"], "'DS-3'")],
    )
    def test_repeated_name_in_a_config_file_exits_1_without_a_report(
        self, tmp_path, capsys, key, value, repeated
    ):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"zones": 8, "duration_s": 400, "n_runs": 1, "epochs": 1, key: value}))
        out = tmp_path / "exp"
        code = run_cli(["experiment", "--config", str(config_path), "--out", str(out)])
        assert code == cli.EXIT_FAIL
        assert f"error: {key} must not repeat a name, got {repeated} twice" in capsys.readouterr().err
        assert not out.exists()

    def test_diverging_learning_rate_prints_only_the_typed_error(self, tmp_path, capsys):
        out = tmp_path / "exp"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_cli(SMALL_EXPERIMENT + ["--lr", "1e300", "--out", str(out)])
        assert code == cli.EXIT_FAIL
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err
        assert err.startswith("error: training diverged: loss nan at epoch 1/2, batch 2/")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("seed", [2**63 - 1, 2**64])
    def test_run_seeds_beyond_int64_keep_their_values(self, tmp_path, monkeypatch, seed):
        # as int64, run 1 of seed 2^63 - 1 would wrap to -2^63, and 2^64 overflows
        histories, train = [], model.train
        monkeypatch.setattr(model, "train", lambda *args: histories.append(train(*args).history) or args[0])
        assert run_cli(SMALL_EXPERIMENT + ["--seed", str(seed), "--out", str(tmp_path / "exp")]) == 0
        assert histories[0]["seed"] == [seed, seed + 1]

    @pytest.mark.parametrize(
        "batch, message",
        [("16", "training diverged: loss nan at epoch 1/2, batch 2/115 (seed 18446744073709551616)"),
         # one batch an epoch: the accuracy pass finds the divergence, first in run 1
         ("100000", "training diverged by the end of epoch 1/2: "
                    "the model of seed 18446744073709551617 gives output nan for feature row 0")],
    )
    def test_divergence_names_a_seed_beyond_int64(self, tmp_path, capsys, batch, message):
        args = ["--lr", "1e300", "--batch", batch, "--seed", str(2**64), "--out", str(tmp_path / "exp")]
        assert run_cli(SMALL_EXPERIMENT + args) == cli.EXIT_FAIL
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "text, message",
        [('{"zones": 8,', "invalid JSON"), ("[1, 2]", "expected a JSON object")],
        ids=["invalid-json", "not-an-object"],
    )
    def test_invalid_config_json_exits_3(self, tmp_path, capsys, text, message):
        config_path = tmp_path / "config.json"
        config_path.write_text(text)
        code = run_cli(["experiment", "--config", str(config_path), "--out", str(tmp_path / "o")])
        assert code == cli.EXIT_IO
        assert f"error: {config_path}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


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
            ('[{"zone": 1, "start_s": 10, "duration_s": 20, "extra": 1}]', "entry 0: unknown key 'extra'"),
            ('[{"zone": 1, "start": 10, "duration_s": 20}]', "entry 0: unknown key 'start'"),
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


    def test_experiment_schedule_with_an_unknown_key_exits_3(self, tmp_path, capsys):
        path = tmp_path / "schedule.json"
        path.write_text('[{"zone": 1, "start_s": 10, "duration_s": 20, "extra": 1}]')
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({
            "zones": 8, "duration_s": 400, "splits": ["DS-1"], "models": ["classical"],
            "n_runs": 1, "epochs": 1, "schedule_path": str(path),
        }))
        out = tmp_path / "exp"
        code = run_cli(["experiment", "--config", str(config_path), "--out", str(out)])
        assert code == cli.EXIT_IO
        assert capsys.readouterr().err.startswith(f"error: {path}: entry 0: unknown key 'extra'")
        assert not out.exists()

    @pytest.mark.parametrize(
        "entry, message",
        [({"zone": 8, "start_s": 10, "duration_s": 20}, "incident zone 8 outside [0, 8)"),
         ({"zone": 1, "start_s": 390, "duration_s": 20}, "incident [390, 410) outside [0, 400)")],
    )
    def test_experiment_schedule_outside_the_corridor_exits_1_without_a_report(
        self, tmp_path, capsys, entry, message
    ):
        path = tmp_path / "schedule.json"
        path.write_text(json.dumps([entry]))
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({
            "zones": 8, "duration_s": 400, "splits": ["DS-1"], "models": ["classical"],
            "n_runs": 1, "epochs": 1, "schedule_path": str(path),
        }))
        out = tmp_path / "exp"
        code = run_cli(["experiment", "--config", str(config_path), "--out", str(out)])
        assert code == cli.EXIT_FAIL
        corridor = "(the corridor of 8 zones x 400 s)"
        assert capsys.readouterr().err.startswith(f"error: {path}: {message} {corridor}")
        assert not out.exists()

    @pytest.mark.parametrize(
        "entry, message",
        [({"zone": 4, "start_s": 10, "duration_s": 20}, "incident zone 4 outside [0, 4)"),
         ({"zone": 1, "start_s": 50, "duration_s": 20}, "incident [50, 70) outside [0, 60)")],
    )
    def test_gen_schedule_outside_the_corridor_exits_1_without_output(
        self, tmp_path, capsys, entry, message
    ):
        path = tmp_path / "schedule.json"
        path.write_text(json.dumps([entry]))
        out = tmp_path / "gen"
        args = ["gen", "--zones", "4", "--duration", "60", "--schedule", str(path), "--out", str(out)]
        assert run_cli(args) == cli.EXIT_FAIL
        corridor = "(the corridor of 4 zones x 60 s)"
        assert capsys.readouterr().err.startswith(f"error: {path}: {message} {corridor}")
        assert not out.exists()


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

    def test_seed_0_prints_the_golden_lines(self, capsys):
        # any drift in the probes' bits moves a last digit here
        assert run_cli(["gradcheck", "--seed", "0"]) == 0
        assert capsys.readouterr().out == (
            "forward-oracle: PASS  max err 9.159e-16 (tol 1e-10, 120 cases)\n"
            "parameter-shift: PASS  max err 5.551e-11 (tol 1e-06, 50 cases)\n"
            "hybrid-backprop: PASS  max err 4.898e-07 (tol 1e-03, 12052 cases)\n"
        )

    def test_corrupted_gradient_fails(self, capsys, monkeypatch):
        exact = qsim.quantum_gradients

        def corrupted(inputs, weights):
            values, d_inputs, d_weights = exact(inputs, weights)
            d_inputs = d_inputs.copy()
            d_inputs[0, 0] += 1e-3
            return values, d_inputs, d_weights

        monkeypatch.setattr(qsim, "quantum_gradients", corrupted)
        assert run_cli(["gradcheck", "--seed", "0"]) == cli.EXIT_FAIL
        assert "parameter-shift: FAIL" in capsys.readouterr().out


class TestUsage:
    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            run_cli(["frobnicate"])
        assert excinfo.value.code == 2

    def test_corrupt_is_an_unknown_gradcheck_argument(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run_cli(["gradcheck", "--corrupt"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --corrupt" in capsys.readouterr().err

    def test_bad_bucket_value_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            run_cli(["features", "--bsm", "x.csv", "--bucket", "30"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("command", ["gen", "experiment", "gradcheck"])
    def test_negative_seed_flag_exits_2(self, capsys, command):
        with pytest.raises(SystemExit) as excinfo:
            run_cli([command, "--seed", "-1"])
        assert excinfo.value.code == 2
        assert "argument --seed: must be a non-negative integer, got '-1'" in capsys.readouterr().err

    def test_non_integer_seed_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run_cli(["gradcheck", "--seed", "abc"])
        assert excinfo.value.code == 2
        assert "argument --seed: must be a non-negative integer, got 'abc'" in capsys.readouterr().err

    # a seed, a negative number and a non-integer: none of them reaches a command
    @pytest.mark.parametrize("env_seed", ["5", "-1", "abc"])
    @pytest.mark.parametrize("command", [
        ["gen", "--zones", "4", "--duration", "200"],
        ["gradcheck"],
        [a for a in SMALL_EXPERIMENT if a not in ("--seed", "5")],
    ], ids=["gen", "gradcheck", "experiment"])
    def test_the_environment_sets_no_seed(self, tmp_path, monkeypatch, capsys, command, env_seed):
        # without --seed (or a config file) the seed is 0, whatever QINC_SEED says
        monkeypatch.setenv("QINC_SEED", env_seed)
        outputs = {}
        for name, seed in (("none", []), ("zero", ["--seed", "0"]), ("five", ["--seed", "5"])):
            out = tmp_path / name
            assert run_cli(command + seed + (["--out", str(out)] if command[0] != "gradcheck" else [])) == 0
            stdout = capsys.readouterr().out.replace(str(out), "OUT")
            files = {p.name: p.read_bytes().replace(str(out).encode(), b"OUT")
                     for p in sorted(tmp_path.glob(f"{name}/*"))}
            outputs[name] = stdout, files
        assert outputs["none"] == outputs["zero"]
        assert outputs["five"] != outputs["zero"]


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

    def test_python_m_qincident_runs_the_cli(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(qincident.__file__)))
        proc = subprocess.run(
            [sys.executable, "-m", "qincident", "gradcheck", "--help"],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert "usage: qincident gradcheck" in proc.stdout

    def test_cli_is_an_attribute_of_the_package(self):
        assert getattr(qincident, "cli") is cli
