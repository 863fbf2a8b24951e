"""The columnar dataset builder, normalized splits and CSV I/O."""

import csv
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qincident import data, scenario
from qincident.errors import ConfigError, DataError, FormatError, ParseError


def records(*rows):
    """Records from (time, vehicle id, zone, speed) tuples."""
    columns = zip(*rows) if rows else ([], [], [], [])
    return data.Records(*columns)


def at(table, bucket_start, zone_id):
    """The features of the (bucket_start, zone_id) row."""
    hit = (table.bucket_start == bucket_start) & (table.zone_id == zone_id)
    return table.features[np.flatnonzero(hit)[0]]


def table_of(features, labels=None):
    """A Dataset with one row per bucket second, all in zone 0."""
    features = np.asarray(features, dtype=float).reshape(-1, 6)
    n = len(features)
    labels = np.zeros(n, dtype=np.int64) if labels is None else np.asarray(labels)
    return data.Dataset(np.arange(n), np.zeros(n, dtype=np.int64), features, labels)


def assert_records_equal(a, b):
    for column in ("time", "vehicle_id", "zone", "speed"):
        np.testing.assert_array_equal(getattr(a, column), getattr(b, column))


class TestRecords:
    @pytest.mark.parametrize(
        "ids, held",
        [
            (["ab\x00", "ab"], "ab\x00"),  # the str column would merge these two
            (["a", "x\x00y", "\x00"], "x\x00y"),
            (np.array(["ab", "c\x00"], dtype=object), "c\x00"),
        ],
    )
    def test_an_id_holding_nul_is_refused_before_the_column_is_made(self, ids, held):
        with pytest.raises(ValueError, match=f"^vehicle id {re.escape(repr(held))} holds a NUL"):
            data.Records(np.arange(len(ids)), ids, np.zeros(len(ids)), np.ones(len(ids)))

    def test_a_str_array_is_taken_as_it_is(self):
        ids = np.array(["a\x00b", "c"])
        recs = data.Records([0, 1], ids, [0, 0], [1.0, 2.0])
        assert recs.vehicle_id.tolist() == ["a\x00b", "c"] and recs.vehicle_id.dtype == "<U3"


class TestAggregate:
    def test_simple_mean_and_count(self):
        recs = records((12, "a", 5, 20.0), (12, "b", 5, 30.0))
        table = data.build_dataset(recs, [], n_zones=6, bucket_seconds=1, duration_s=13)
        speed, count = at(table, 12, 5)[:2]
        assert speed == pytest.approx(25.0)
        assert count == 2

    def test_empty_bucket_gets_fill(self):
        table = data.build_dataset(records((0, "a", 0, 10.0)), [], 2, 1, duration_s=2)
        speed, count = at(table, 0, 1)[:2]
        assert count == 0
        assert speed == data.EMPTY_SPEED_FILL

    def test_per_minute_constant_stream(self):
        # one vehicle at speed 10 every second: avg 10, count 1
        recs = records(*[(t, f"v{t}", 0, 10.0) for t in range(60)])
        table = data.build_dataset(recs, [], 1, 60, duration_s=60)
        assert len(table) == 1
        assert table.features[0, 0] == pytest.approx(10.0)
        assert table.features[0, 1] == pytest.approx(1.0)

    def test_duplicate_vehicle_within_second_counted_once(self):
        recs = records((3, "dup", 0, 10.0), (3, "dup", 0, 99.0), (3, "x", 0, 20.0))
        table = data.build_dataset(recs, [], 1, 1, duration_s=4)
        speed, count = at(table, 3, 0)[:2]
        assert count == 2
        assert speed == pytest.approx(15.0)

    def test_full_grid_emitted(self):
        table = data.build_dataset(records((0, "a", 0, 1.0)), [], 3, 1, duration_s=5)
        assert len(table) == 15
        keys = list(zip(table.bucket_start.tolist(), table.zone_id.tolist()))
        assert keys == sorted(keys)

    def test_bad_bucket_size(self):
        with pytest.raises(ConfigError):
            data.build_dataset(records(), [], 1, 30, duration_s=10)

    def test_zone_out_of_range(self):
        with pytest.raises(DataError):
            data.build_dataset(records((0, "a", 7, 1.0)), [], 3, 1, duration_s=1)

    @pytest.mark.parametrize("order", ["generated", "shuffled", "repeated"])
    def test_id_codes_are_the_unique_inverse(self, order):
        recs, _ = scenario.generate(scenario.ScenarioConfig(n_zones=6, duration_s=300, seed=1))
        ids = recs.vehicle_id
        rng = np.random.default_rng(0)
        if order == "shuffled":
            ids = ids[rng.permutation(len(ids))]
        elif order == "repeated":  # duplicates, an empty id, and prefixes of others
            ids = np.concatenate((ids, [""], ids[rng.integers(0, len(ids), 500)], ["v0", "v00-1"]))
        codes = data._id_codes(ids)
        assert codes.dtype == np.int64
        np.testing.assert_array_equal(codes, np.unique(ids, return_inverse=True)[1])
        for few in (ids[:0], ids[:1]):
            np.testing.assert_array_equal(data._id_codes(few), np.zeros(len(few), dtype=np.int64))

    def test_id_codes_over_more_rows_than_one_block(self):
        rng = np.random.default_rng(2)
        pool = np.array([f"v{z:02d}-{t}-{o}" for z in range(40) for t in range(30) for o in range(3)])
        ids = pool[rng.integers(0, len(pool), 2 * data._ID_BLOCK + 7)]  # every id drawn ~9 times
        codes = data._id_codes(ids)
        np.testing.assert_array_equal(codes, np.unique(ids, return_inverse=True)[1])

    @pytest.mark.parametrize("block", [1, 2, 5])
    def test_id_codes_at_block_edges(self, monkeypatch, block):
        monkeypatch.setattr(data, "_ID_BLOCK", block)
        ids = np.array(["b", "a", "b", "", "c", "a", "a", "ab", "b", "c", "", "a"])
        for n in range(len(ids) + 1):
            want = np.unique(ids[:n], return_inverse=True)[1]
            np.testing.assert_array_equal(data._id_codes(ids[:n]), want)

    def test_partial_final_minute_divides_by_covered_seconds(self):
        # 30-second tail bucket with one vehicle per second: count stays 1
        recs = records(*[(t, f"v{t}", 0, 10.0) for t in range(90)])
        table = data.build_dataset(recs, [], 1, 60, duration_s=90)
        assert len(table) == 2
        assert table.features[1, 1] == pytest.approx(1.0)


class TestTopology:
    def test_default_two_directions(self):
        # [0, 28) and [28, 56), each in increasing zone order
        up, down = data.neighbor_index(56)
        assert up.tolist() == [0, *range(27), 28, *range(28, 55)]
        assert down.tolist() == [*range(1, 28), 27, *range(29, 56), 55]

    def test_neighbors_interior_and_boundary(self):
        up, down = data.neighbor_index(8)
        assert (up[1], down[1]) == (0, 2)
        assert (up[0], down[0]) == (0, 1)  # no upstream: itself
        assert (up[3], down[3]) == (2, 3)  # no downstream: itself
        assert (up[4], down[4]) == (4, 5)


class TestBuildFeatures:
    def make_table(self):
        # zones 0, 1, 2 of direction [0, 1, 2]: speeds 10/20/30, counts 1/2/3
        recs = records(
            (0, "a", 0, 10.0),
            (0, "b", 1, 15.0), (0, "c", 1, 25.0),
            (0, "d", 2, 30.0), (0, "e", 2, 30.0), (0, "f", 2, 30.0),
        )
        return data.build_dataset(recs, [], n_zones=6, bucket_seconds=1, duration_s=1)

    def test_interior_zone_copies_neighbors(self):
        assert at(self.make_table(), 0, 1).tolist() == [20.0, 2.0, 10.0, 1.0, 30.0, 3.0]

    def test_boundary_self_substitution(self):
        table = self.make_table()
        assert at(table, 0, 0).tolist() == [10.0, 1.0, 10.0, 1.0, 20.0, 2.0]
        assert at(table, 0, 2).tolist() == [30.0, 3.0, 20.0, 2.0, 30.0, 3.0]

    def test_row_count_matches_grid(self):
        recs = records(*[(t, f"v{t}-{z}", z, 25.0) for t in range(10) for z in range(4)])
        assert len(data.build_dataset(recs, [], 4, 1, duration_s=10)) == 40


class TestLabel:
    def labels(self, events, n_zones=3, duration_s=5, bucket_seconds=1):
        table = data.build_dataset(records(), events, n_zones, bucket_seconds, duration_s)
        return table.labels.reshape(-1, n_zones)  # [bucket, zone]

    def test_empty_schedule_all_zero(self):
        assert not self.labels([]).any()

    def test_per_second_interval(self):
        labels = self.labels([scenario.IncidentEvent(3, 100, 60)], n_zones=4, duration_s=170)
        assert labels[:, 3].tolist() == [int(100 <= t < 160) for t in range(170)]
        assert not labels[:, :3].any()

    def test_per_minute_overlap(self):
        labels = self.labels(
            [scenario.IncidentEvent(3, 100, 60)], n_zones=4, duration_s=300, bucket_seconds=60
        )
        # the [100, 160) incident overlaps minutes 1 and 2 only
        assert labels[:, 3].tolist() == [0, 1, 1, 0, 0]

    def test_other_zone_untouched(self):
        labels = self.labels([scenario.IncidentEvent(1, 0, 100)])
        assert (labels == np.array([0, 1, 0])).all()


class TestNormalize:
    def split_from_columns(self, train_col, test_col):
        # DS-1 trains on 4/7 of the rows: the column lengths are chosen so
        # that the first len(train_col) rows train
        column = np.asarray(train_col + test_col, dtype=float)
        features = np.ones((len(column), 6))
        features[:, 0] = column
        out = data.split(table_of(features), "DS-1")
        assert len(out.train_y) == len(train_col)
        return out

    def test_min_max_mapping(self):
        out = self.split_from_columns([10.0, 20.0, 30.0], [0.0, 0.0])
        assert out.train_x[:, 0] == pytest.approx([0.0, 0.5, 1.0])
        assert out.normalization[0][0] == 10.0 and out.normalization[1][0] == 30.0

    def test_constant_column_maps_to_zero(self):
        out = self.split_from_columns([7.0, 7.0], [7.0, 9.0])
        assert out.train_x[:, 0].tolist() == [0.0, 0.0]
        assert out.test_x[:, 0].tolist() == [0.0, 0.0]

    def test_test_rows_not_clamped(self):
        out = self.split_from_columns([10.0, 30.0], [40.0])
        assert out.test_x[0, 0] == pytest.approx(1.5)

    def test_train_rows_in_unit_interval(self):
        rng = np.random.default_rng(0)
        out = data.split(table_of(rng.uniform(-5, 40, (70, 6))), "DS-1")
        assert out.train_x.min() >= 0.0 and out.train_x.max() <= 1.0

    def test_double_normalize_is_identity_on_train(self):
        rng = np.random.default_rng(1)
        once = data.split(table_of(rng.uniform(0, 30, (28, 6))), "DS-1")
        twice = data.split(table_of(np.vstack([once.train_x, once.test_x])), "DS-1")
        np.testing.assert_allclose(twice.train_x, once.train_x, atol=1e-12)

    def test_empty_train_rejected(self):
        with pytest.raises(DataError):
            data.split(table_of(np.empty((0, 6))), "DS-1")


class TestSplit:
    def make_rows(self, n):
        features = np.ones((n, 6))
        features[:, 0] = np.arange(n)
        return table_of(features, labels=np.arange(n) % 2)

    def test_canonical_ds1(self):
        out = data.split(self.make_rows(70000), "DS-1")
        assert (len(out.train_y), len(out.test_y)) == (40000, 30000)

    def test_canonical_ds2(self):
        out = data.split(self.make_rows(70000), "DS-2")
        assert (len(out.train_y), len(out.test_y)) == (15000, 55000)

    def test_canonical_ds3(self):
        out = data.split(self.make_rows(1400), "DS-3")
        assert (len(out.train_y), len(out.test_y)) == (150, 1250)

    def test_proportional_scaling(self):
        out = data.split(self.make_rows(7000), "DS-1")
        assert (len(out.train_y), len(out.test_y)) == (4000, 3000)

    def test_prefix_is_chronological(self):
        table = self.make_rows(1400)
        out = data.split(table, "DS-3")
        np.testing.assert_array_equal(out.train_y, table.labels[:150])
        np.testing.assert_array_equal(out.test_y, table.labels[150:])
        # the first column counts rows, and the train rows span [0, 149]
        np.testing.assert_allclose(out.train_x[:, 0] * 149, np.arange(150))
        np.testing.assert_allclose(out.test_x[:, 0] * 149, np.arange(150, 1400))

    def test_too_few_rows(self):
        with pytest.raises(DataError):
            data.split(self.make_rows(1), "DS-1")

    def test_unknown_name(self):
        with pytest.raises(ConfigError):
            data.split(self.make_rows(100), "DS-9")

    def test_unordered_rows_rejected(self):
        table = self.make_rows(100)
        table.bucket_start[[0, 50]] = table.bucket_start[[50, 0]]
        with pytest.raises(DataError):
            data.split(table, "DS-1")

    def test_unordered_zones_within_a_bucket_rejected(self):
        table = self.make_rows(100)
        table.bucket_start[:] = 0
        table.zone_id[:] = np.arange(100)
        table.zone_id[[0, 50]] = table.zone_id[[50, 0]]
        with pytest.raises(DataError):
            data.split(table, "DS-1")


class TestCsvRoundTrip:
    def test_bsm_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        recs = data.Records(
            rng.integers(0, 100, 1000),
            [f"veh{i}" for i in range(1000)],
            rng.integers(0, 8, 1000),
            rng.uniform(0, 40, 1000),
        )
        path = tmp_path / "bsm.csv"
        data.write_bsm_csv(recs, path)
        assert_records_equal(data.read_bsm_csv(path), recs)

    def test_empty_file_with_header(self, tmp_path):
        path = tmp_path / "bsm.csv"
        path.write_text("time_s,vehicle_id,zone_id,speed_mps\n")
        assert len(data.read_bsm_csv(path)) == 0

    def test_negative_speed_is_parse_error(self, tmp_path):
        path = tmp_path / "bsm.csv"
        path.write_text("time_s,vehicle_id,zone_id,speed_mps\n0,a,0,-1.0\n")
        with pytest.raises(ParseError, match=r":2:"):
            data.read_bsm_csv(path)

    def test_malformed_line_names_line_number(self, tmp_path):
        path = tmp_path / "bsm.csv"
        path.write_text("time_s,vehicle_id,zone_id,speed_mps\n0,a,0,1.0\nnot,good\n")
        with pytest.raises(ParseError, match=r":3:"):
            data.read_bsm_csv(path)

    @pytest.mark.parametrize(
        "line,message",
        [
            ("0,a,0,1.0,9", "expected 4 fields"),
            ("x,a,0,1.0", "invalid literal for int() with base 10: 'x'"),
            ("0,a,1.5,1.0", "invalid literal for int() with base 10: '1.5'"),
            ("0,a,0,fast", "could not convert string to float: 'fast'"),
            ("-1,a,0,1.0", "time must be >= 0, got -1"),
            ("0,a,0,nan", "speed must be finite and >= 0, got nan"),
            ("0,a,0,inf", "speed must be finite and >= 0, got inf"),
            ("0,a\x00,0,1.0", "vehicle id contains a NUL character"),
            ("99999999999999999999,a,0,1", "time 99999999999999999999 is beyond the int64 range"),
            ("0,a,99999999999999999999,1", "zone id 99999999999999999999 is beyond the int64 range"),
        ],
    )
    def test_bad_field_message(self, tmp_path, line, message):
        path = tmp_path / "bsm.csv"
        path.write_text(f"time_s,vehicle_id,zone_id,speed_mps\n0,a,0,1.0\n\n{line}\n")
        with pytest.raises(ParseError) as excinfo:
            data.read_bsm_csv(path)
        assert str(excinfo.value) == f"{path}:4: {message}"

    def test_unknown_header_is_format_error(self, tmp_path):
        path = tmp_path / "bsm.csv"
        path.write_text("a,b,c,d\n")
        with pytest.raises(FormatError):
            data.read_bsm_csv(path)


# -- the CSV fast paths against the csv-module reference ------------------------------

def csv_writer_bytes(path, header, rows):
    """The bytes ``csv.writer`` gives for a header and rows, floats as repr."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    return path.read_bytes()


def bsm_writer_bytes(path, recs):
    return csv_writer_bytes(
        path, data.BSM_HEADER,
        zip(recs.time.tolist(), recs.vehicle_id.tolist(), recs.zone.tolist(),
            map(repr, recs.speed.tolist())),
    )


WRITER_FLOATS = [0.0, -0.0, 5e-324, 1e-05, 1e16, 0.1 + 0.2, 27.640955015519577]


class TestCsvWriterBytes:
    def test_bsm_bytes(self, tmp_path):
        ids = ["v00-0-0", "v00-0-1", "", "sp ace", "#hash", "tab\t", "ünï", "a\x85b", "e\u2028f"]
        ids += [" lead", "trail "]
        n = len(ids)
        speeds = (WRITER_FLOATS * n)[:n]
        recs = data.Records(np.arange(n) * 7, ids, np.arange(n) % 3, speeds)
        data.write_bsm_csv(recs, tmp_path / "new.csv")
        assert (tmp_path / "new.csv").read_bytes() == bsm_writer_bytes(tmp_path / "old.csv", recs)

    @pytest.mark.parametrize("bad", ["a,b", 'quo"te', "new\nline", "cr\rid"])
    def test_bsm_refuses_an_id_csv_would_quote(self, tmp_path, bad):
        ids = ["plain", "ünï", bad, "x,y"]
        recs = data.Records(np.arange(4), ids, np.zeros(4), np.ones(4))
        with pytest.raises(DataError, match=f"^vehicle id {re.escape(repr(bad))} holds"):
            data.write_bsm_csv(recs, tmp_path / "new.csv")
        assert not (tmp_path / "new.csv").exists()

    @pytest.mark.parametrize("ids", [["a\x00b", "c"], ["\x00x", "c", "longest-id"]])
    def test_bsm_refuses_an_id_holding_nul(self, tmp_path, ids):
        # read_bsm_csv refuses such a file; the NULs that pad the shorter
        # ids of the column are not part of any id.  Records takes a str
        # array as it is, interior NULs included.
        recs = data.Records(
            np.arange(len(ids)), np.array(ids), np.zeros(len(ids)), np.ones(len(ids))
        )
        with pytest.raises(DataError, match=f"^vehicle id {re.escape(repr(ids[0]))} holds a NUL"):
            data.write_bsm_csv(recs, tmp_path / "new.csv")
        assert not (tmp_path / "new.csv").exists()

    def test_bsm_bytes_across_chunks(self, tmp_path):
        recs, _ = scenario.generate(scenario.ScenarioConfig(n_zones=6, duration_s=400, seed=4))
        assert len(recs) > data._CHUNK_ROWS
        data.write_bsm_csv(recs, tmp_path / "new.csv")
        assert (tmp_path / "new.csv").read_bytes() == bsm_writer_bytes(tmp_path / "old.csv", recs)

    def test_feature_bytes(self, tmp_path):
        rng = np.random.default_rng(5)
        values = np.array(WRITER_FLOATS + [np.nan, np.inf, -np.inf, 3.0, 2.0])
        # repeated values, within rows and across them, as the neighbor columns give
        n = data._CHUNK_ROWS + 100
        features = values[rng.integers(0, len(values), (n, 6))]
        features[:, 2:4] = features[:, 0:2]
        table = data.Dataset(np.arange(n) // 3, np.arange(n) % 3, features, rng.integers(0, 2, n))
        data.write_feature_csv(table, tmp_path / "new.csv")
        want = csv_writer_bytes(
            tmp_path / "old.csv", data.FEATURE_HEADER,
            ([b, z, *map(repr, f), lab] for b, z, f, lab in zip(
                table.bucket_start.tolist(), table.zone_id.tolist(),
                table.features.tolist(), table.labels.tolist())),
        )
        assert (tmp_path / "new.csv").read_bytes() == want


class TestCsvFastPath:
    """A clean file must be read by the column parse, not the row loop."""

    @pytest.fixture
    def no_row_loop(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the row loop read a clean file")

        monkeypatch.setattr(data, "_read_csv", refuse)

    def test_generated_bsm_takes_the_fast_path(self, tmp_path, no_row_loop):
        recs, _ = scenario.generate(scenario.ScenarioConfig(n_zones=6, duration_s=120, seed=2))
        data.write_bsm_csv(recs, tmp_path / "bsm.csv")
        back = data.read_bsm_csv(tmp_path / "bsm.csv")
        assert_records_equal(back, recs)
        assert back.vehicle_id.dtype == recs.vehicle_id.dtype

    @pytest.mark.parametrize("final_newline", [True, False])
    def test_generated_bsm_of_many_blocks_takes_the_fast_path(
        self, tmp_path, no_row_loop, final_newline
    ):
        recs, _ = scenario.generate(scenario.ScenarioConfig(n_zones=8, duration_s=2000, seed=3))
        path = tmp_path / "bsm.csv"
        data.write_bsm_csv(recs, path)
        if not final_newline:
            path.write_bytes(path.read_bytes()[:-1])
        assert path.stat().st_size > 2 * data._BLOCK_BYTES
        back = data.read_bsm_csv(path)
        assert_records_equal(back, recs)
        assert back.vehicle_id.dtype == recs.vehicle_id.dtype

    def test_header_only_file_takes_the_fast_path(self, tmp_path, no_row_loop):
        path = tmp_path / "bsm.csv"
        path.write_text(",".join(data.BSM_HEADER) + "\n")
        back = data.read_bsm_csv(path)
        assert len(back) == 0 and back.vehicle_id.dtype == "<U1"


class TestCsvMemory:
    """The CSV code holds one block of rows as temporaries, not the file:
    tracemalloc peaks against the columns, on the pipeline's corridor."""

    @pytest.fixture(scope="class")
    def pipeline_files(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("pipeline") / "bsm.csv"
        config = scenario.ScenarioConfig(n_zones=56, duration_s=1250, seed=0)
        data.write_bsm_csv(scenario.generate(config)[0], path)
        return path

    @staticmethod
    def peak(call, *args):
        tracemalloc.start()
        try:
            result = call(*args)
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_reader_peak(self, pipeline_files):
        # 1.28x measured (numpy 2.4, Python 3.11); 2.36x with a whole-file parse
        recs, peak = self.peak(data.read_bsm_csv, pipeline_files)
        held = sum(column.nbytes for column in vars(recs).values())
        assert peak <= 1.75 * held

    def test_feature_writer_peak(self, pipeline_files, tmp_path):
        # 1.01x measured; 5.3x with a whole-table text array
        table = data.build_dataset(data.read_bsm_csv(pipeline_files), [], 56, 1, 1250)
        _, peak = self.peak(data.write_feature_csv, table, tmp_path / "features.csv")
        assert peak <= 2 * table.features.nbytes


def read_outcome(read, path):
    """What a reader gives for a file: every column's dtype, shape and bytes
    (so -0.0 differs from 0.0), or the exception's type and message."""
    try:
        result = read(path)
    except Exception as exc:
        return type(exc), str(exc)
    return {
        name: (column.dtype.str, column.shape, column.tobytes())
        for name, column in vars(result).items()
    }


INT_TEXTS = ["0", "7", "-1", "-0", "1_000", "+5", " 5", "5 ", "1.0", "\u0663", "\x1c5", "",
             "x", "99999999999999999999"]
FLOAT_TEXTS = ["0.0", "1.5", "nan", "inf", "-inf", "-0.0", "1e-05", "5e-324", " 2.5", "+5",
               "1_0.5", "Infinity", "\x1f1", "", "fast", "-1.0", "1e500"]
# characters on which csv.reader, np.loadtxt, str.splitlines and int/float
# part ways
SPECIAL = ',"#\x00\r\n \t\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029\xa0'


def field(values, texts):
    """Mostly a valid value's repr, now and then one of ``texts``."""
    return st.integers(0, 30).flatmap(
        lambda roll: st.sampled_from(texts) if roll == 30 else values.map(repr)
    )


vehicle_ids = st.integers(0, 4).flatmap(
    lambda roll: st.text(alphabet="av0-" + SPECIAL, max_size=5) if roll == 4
    else st.sampled_from(["v00-0-0", "v12-345-6", "a", "", " a ", "x y", "\xe9", "a\x85b"])
)
bsm_fields = st.tuples(
    field(st.integers(0, 10**6), INT_TEXTS),
    vehicle_ids,
    field(st.integers(0, 60), INT_TEXTS),
    field(st.floats(0.0, 50.0), FLOAT_TEXTS),
)


@st.composite
def csv_files(draw, header, rows, min_rows=0, max_rows=8):
    """A file's text: a header (now and then padded or wrong), ``min_rows``
    to ``max_rows`` rows, then now and then an edit: a blank line, CRLF line
    ends, no final newline, a field too many or too few, or a stray
    character."""
    names = list(header)
    if draw(st.integers(0, 3)) == 3:
        at = draw(st.integers(0, len(names) - 1))
        names[at] = draw(st.sampled_from([f" {names[at]} ", names[at].upper()]))
    lines = [",".join(names)]
    for fields in draw(st.lists(rows, min_size=min_rows, max_size=max_rows)):
        if draw(st.integers(0, 30)) == 30:
            fields = fields[:-1] if draw(st.booleans()) else [*fields, "9"]
        lines.append(",".join(fields))
    if draw(st.integers(0, 5)) == 5:
        lines.insert(draw(st.integers(1, len(lines))), "")
    text = "\r\n".join(lines) if draw(st.integers(0, 5)) == 5 else "\n".join(lines)
    text += "" if draw(st.integers(0, 3)) == 3 else "\n"
    while draw(st.integers(0, 4)) == 4:
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(SPECIAL)) + text[at:]
    return text


class TestCsvReaderAgreement:
    """The record reader and the csv-module row loop give the same arrays
    (dtype included) or the same error, word for word."""

    @settings(max_examples=300, deadline=None)
    @given(text=csv_files(data.BSM_HEADER, bsm_fields))
    def test_bsm(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("bsm") / "bsm.csv"
        path.write_bytes(text.encode("utf-8"))
        assert read_outcome(data.read_bsm_csv, path) == read_outcome(data._read_bsm_rows, path)

    @settings(max_examples=300, deadline=None)
    @given(text=csv_files(data.BSM_HEADER, bsm_fields, min_rows=4, max_rows=24), block=st.integers(1, 3))
    def test_bsm_across_blocks(self, tmp_path_factory, text, block):
        path = tmp_path_factory.mktemp("bsm") / "bsm.csv"
        path.write_bytes(text.encode("utf-8"))
        with mock.patch.object(data, "_BLOCK_LINES", block):
            got = read_outcome(data.read_bsm_csv, path)
        assert got == read_outcome(data._read_bsm_rows, path)

    @pytest.mark.parametrize("block_lines, block_bytes", [(1, 1 << 20), (2, 1 << 20), (3, 40)])
    def test_non_ascii_ids_across_blocks(self, tmp_path, block_lines, block_bytes):
        # the widest id in bytes (6) is not the widest in characters (5)
        ids = ["\xe9\xe9\xe9", "abcd", "a\x85b", "v00-0-0"[:5], "\u2028", "x"]
        text = "".join(f"{t},{vid},{t % 3},{t}.5\n" for t, vid in enumerate(ids))
        path = tmp_path / "bsm.csv"
        path.write_text(",".join(data.BSM_HEADER) + "\n" + text, encoding="utf-8")
        with mock.patch.object(data, "_BLOCK_LINES", block_lines), \
                mock.patch.object(data, "_BLOCK_BYTES", block_bytes):
            assert data._read_bsm_blocks(path) is not None
            got = read_outcome(data.read_bsm_csv, path)
        assert got == read_outcome(data._read_bsm_rows, path)
        assert got["vehicle_id"][0] == "<U5"


# -- the builder against a per-row reference ----------------------------------------

def reference_rows(rows, events, n_zones, bucket_seconds, duration):
    """(bucket_start, zone, six features, label) per row, one row at a time."""
    first_seen = {}  # (zone, second) -> {vehicle: speed of its first record}
    for time, vehicle, zone, speed in rows:
        first_seen.setdefault((zone, time), {}).setdefault(vehicle, speed)
    half = (n_zones + 1) // 2

    def neighbors(zone):
        lo, hi = (0, half - 1) if zone < half else (half, n_zones - 1)
        return (zone - 1 if zone > lo else zone), (zone + 1 if zone < hi else zone)

    out = []
    for start in range(0, duration, bucket_seconds):
        seconds = range(start, min(start + bucket_seconds, duration))
        own = []
        for zone in range(n_zones):
            speeds = [s for t in seconds for s in first_seen.get((zone, t), {}).values()]
            mean = sum(speeds) / len(speeds) if speeds else data.EMPTY_SPEED_FILL
            own.append((mean, len(speeds) / len(seconds)))
        for zone in range(n_zones):
            up, down = neighbors(zone)
            hit = any(
                e.zone == zone and e.start_s < start + bucket_seconds and start < e.end_s
                for e in events
            )
            out.append((start, zone, [*own[zone], *own[up], *own[down]], int(hit)))
    return out


@st.composite
def corridors(draw):
    n_zones = draw(st.integers(1, 6))
    duration = draw(st.integers(1, 130))
    bucket = draw(st.sampled_from(data.BUCKET_SIZES))
    # few vehicle ids and seconds, so (vehicle, zone, second) repeats and cells empty
    row = st.tuples(
        st.integers(0, duration - 1),
        st.sampled_from(["a", "b", "v1", "v10", "v2"]),
        st.integers(0, n_zones - 1),
        st.floats(0.0, 50.0),
    )
    rows = draw(st.lists(row, max_size=60))
    event = st.builds(
        scenario.IncidentEvent,
        st.integers(-1, n_zones),
        st.integers(0, duration + 5),
        st.integers(1, 90),
    )
    events = draw(st.lists(event, max_size=3))
    return rows, events, n_zones, bucket, duration


class TestBuilderProperties:
    @settings(max_examples=150, deadline=None)
    @given(corridors())
    def test_matches_the_per_row_reference(self, corridor):
        rows, events, n_zones, bucket, duration = corridor
        table = data.build_dataset(records(*rows), events, n_zones, bucket, duration_s=duration)
        want = reference_rows(rows, events, n_zones, bucket, duration)
        assert len(table) == len(want)
        assert table.bucket_start.tolist() == [r[0] for r in want]
        assert table.zone_id.tolist() == [r[1] for r in want]
        assert table.labels.tolist() == [r[3] for r in want]
        # counts are exact; mean speeds may differ in summation order only
        features = np.array([r[2] for r in want]).reshape(-1, 6)
        np.testing.assert_array_equal(table.features[:, 1::2], features[:, 1::2])
        np.testing.assert_allclose(table.features[:, 0::2], features[:, 0::2], rtol=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(corridors())
    def test_counts_are_conserved(self, corridor):
        rows, events, n_zones, bucket, duration = corridor
        table = data.build_dataset(records(*rows), events, n_zones, bucket, duration_s=duration)
        covered = np.minimum(table.bucket_start + bucket, duration) - table.bucket_start
        distinct = {(vehicle, zone, time) for time, vehicle, zone, _ in rows}
        assert np.sum(table.features[:, 1] * covered) == pytest.approx(len(distinct))
