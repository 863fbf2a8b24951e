"""The columnar dataset builder, normalized splits and CSV I/O."""

import csv
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qincident import data, scenario
from qincident.errors import ConfigError, DataError, FormatError, ParseError


def records(*rows):
    """Records from (time, vehicle code, zone, speed) tuples."""
    columns = zip(*rows) if rows else ([], [], [], [])
    return data.Records(*columns)


def dataset(recs, events, n_zones, bucket_seconds, duration_s):
    """The labeled rows of ``recs``: ``aggregate``'s grids, then ``grid_dataset``."""
    return data.grid_dataset(data.aggregate(recs, n_zones, duration_s), events, bucket_seconds)


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
    def test_vehicle_codes_are_int64(self):
        recs = data.Records([0, 1], [3, 0], [0, 0], [1.0, 2.0])
        assert recs.vehicle_id.dtype == np.int64 and recs.vehicle_id.tolist() == [3, 0]

    def test_a_negative_vehicle_code_is_refused(self):
        with pytest.raises(ValueError, match="^vehicle codes must be >= 0$"):
            data.Records([0, 1], [0, -1], [0, 0], [1.0, 2.0])


class TestAggregate:
    def test_simple_mean_and_count(self):
        recs = records((12, 0, 5, 20.0), (12, 1, 5, 30.0))
        table = dataset(recs, [], n_zones=6, bucket_seconds=1, duration_s=13)
        speed, count = at(table, 12, 5)[:2]
        assert speed == pytest.approx(25.0)
        assert count == 2

    def test_empty_bucket_gets_fill(self):
        table = dataset(records((0, 0, 0, 10.0)), [], 2, 1, duration_s=2)
        speed, count = at(table, 0, 1)[:2]
        assert count == 0
        assert speed == data.EMPTY_SPEED_FILL

    def test_per_minute_constant_stream(self):
        # one vehicle at speed 10 every second: avg 10, count 1
        recs = records(*[(t, t, 0, 10.0) for t in range(60)])
        table = dataset(recs, [], 1, 60, duration_s=60)
        assert len(table) == 1
        assert table.features[0, 0] == pytest.approx(10.0)
        assert table.features[0, 1] == pytest.approx(1.0)

    def test_duplicate_vehicle_within_second_counted_once(self):
        recs = records((3, 4, 0, 10.0), (3, 4, 0, 99.0), (3, 0, 0, 20.0))
        table = dataset(recs, [], 1, 1, duration_s=4)
        speed, count = at(table, 3, 0)[:2]
        assert count == 2
        assert speed == pytest.approx(15.0)

    def test_full_grid_emitted(self):
        table = dataset(records((0, 0, 0, 1.0)), [], 3, 1, duration_s=5)
        assert len(table) == 15
        keys = list(zip(table.bucket_start.tolist(), table.zone_id.tolist()))
        assert keys == sorted(keys)

    def test_bad_bucket_size(self):
        with pytest.raises(ConfigError):
            dataset(records(), [], 1, 30, duration_s=10)

    @pytest.mark.parametrize("time, zone", [(0, -1), (0, 3), (5, 0)], ids=["zone-1", "zone-3", "time-5"])
    def test_the_first_record_outside_the_corridor_is_named(self, time, zone):
        # the corridor is 3 zones x [0, 5 s); the last record is outside too
        recs = records((4, 0, 2, 1.0), (time, 1, zone, 2.0), (0, 2, 7, 3.0))
        with pytest.raises(DataError) as excinfo:
            data.aggregate(recs, 3, 5)
        assert str(excinfo.value) == f"record at {time} s in zone {zone} outside the corridor of 3 zones x 5 s"

    def test_a_corridor_without_zones_refuses_every_record(self):
        with pytest.raises(DataError) as excinfo:
            data.aggregate(records((2, 0, 0, 1.0)), 0, 5)
        assert str(excinfo.value) == "record at 2 s in zone 0 outside the corridor of 0 zones x 5 s"

    def test_a_cell_sums_its_speeds_in_code_order(self):
        # 1e16 + 1 rounds back to 1e16, so the sum's bits follow its order:
        # codes 0 and 1 come first although their records come last
        recs = records((0, 2, 0, 1e16), (0, 0, 0, 1.0), (0, 1, 0, 1.0))
        speed_sum = data.aggregate(recs, 1, 1)[1]
        assert speed_sum[0, 0] == 1.0 + 1.0 + 1e16 != 1e16 + 1.0 + 1.0

    @pytest.mark.parametrize("block", [1, 2, 5, data._SORTED_BLOCK])
    def test_first_observations_at_block_edges_match_np_unique(self, monkeypatch, block):
        monkeypatch.setattr(data, "_SORTED_BLOCK", block)
        rng = np.random.default_rng(4)
        n = 60  # about three observations of each (vehicle, zone, second)
        recs = records(*zip(rng.integers(0, 3, n), rng.integers(0, 3, n), rng.integers(0, 2, n),
                            rng.uniform(0, 30, n)))
        key = (recs.vehicle_id * 2 + recs.zone) * 3 + recs.time
        first = np.unique(key, return_index=True)[1]
        cell = recs.zone[first] * 3 + recs.time[first]
        count = np.bincount(cell, minlength=6).reshape(2, 3)
        speed_sum = np.bincount(cell, weights=recs.speed[first], minlength=6).reshape(2, 3)
        got_count, got_speed_sum = data.aggregate(recs, 2, 3)
        assert got_count.tobytes() == count.astype(float).tobytes()
        assert got_speed_sum.tobytes() == speed_sum.tobytes()

    @pytest.mark.parametrize("n_zones, duration", [(1, 2), (3, 7), (56, 1250)])
    def test_codes_that_overflow_the_key_are_refused(self, n_zones, duration):
        cells = n_zones * duration
        largest = (np.iinfo(np.int64).max - cells + 1) // cells  # its last cell's key fits
        fits = records((duration - 1, largest, n_zones - 1, 1.0))
        assert data.aggregate(fits, n_zones, duration)[0, -1, -1] == 1.0
        with pytest.raises(DataError, match=f"^vehicle code {largest + 1} overflows"):
            data.aggregate(records((0, largest + 1, 0, 1.0)), n_zones, duration)

    @pytest.mark.parametrize("order", ["generated", "shuffled", "repeated"])
    def test_id_codes_are_the_unique_inverse(self, order):
        recs, _ = scenario.generate(scenario.ScenarioConfig(n_zones=6, duration_s=300, seed=1))
        ids = np.char.add("v", recs.vehicle_id.astype(str))  # unpadded: "v10" < "v9"
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
        ids = pool[rng.integers(0, len(pool), 2 * data._SORTED_BLOCK + 7)]  # every id drawn ~9 times
        codes = data._id_codes(ids)
        np.testing.assert_array_equal(codes, np.unique(ids, return_inverse=True)[1])

    @pytest.mark.parametrize("block", [1, 2, 5])
    def test_id_codes_at_block_edges(self, monkeypatch, block):
        monkeypatch.setattr(data, "_SORTED_BLOCK", block)
        ids = np.array(["b", "a", "b", "", "c", "a", "a", "ab", "b", "c", "", "a"])
        for n in range(len(ids) + 1):
            want = np.unique(ids[:n], return_inverse=True)[1]
            np.testing.assert_array_equal(data._id_codes(ids[:n]), want)

    def test_id_codes_peak_over_many_blocks(self):
        # the codes, the sort order and its run flags, with the ranks made a
        # block at a time: 18.5 bytes per id measured (numpy 2.4, Python
        # 3.11), 33 with one cumulative sum over every id
        n = 1 << 18
        ids = np.char.add(b"v", np.random.default_rng(0).integers(0, n // 4, n).astype("S"))
        want = np.unique(ids, return_inverse=True)[1]
        data._id_codes(ids[:2])  # numpy's lazy imports, outside the trace
        tracemalloc.start()
        try:
            codes = data._id_codes(ids)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(codes, want)
        assert peak <= 24 * n

    def test_partial_final_minute_divides_by_covered_seconds(self):
        # 30-second tail bucket with one vehicle per second: count stays 1
        recs = records(*[(t, t, 0, 10.0) for t in range(90)])
        table = dataset(recs, [], 1, 60, duration_s=90)
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
            (0, 0, 0, 10.0),
            (0, 1, 1, 15.0), (0, 2, 1, 25.0),
            (0, 3, 2, 30.0), (0, 4, 2, 30.0), (0, 5, 2, 30.0),
        )
        return dataset(recs, [], n_zones=6, bucket_seconds=1, duration_s=1)

    def test_interior_zone_copies_neighbors(self):
        assert at(self.make_table(), 0, 1).tolist() == [20.0, 2.0, 10.0, 1.0, 30.0, 3.0]

    def test_boundary_self_substitution(self):
        table = self.make_table()
        assert at(table, 0, 0).tolist() == [10.0, 1.0, 10.0, 1.0, 20.0, 2.0]
        assert at(table, 0, 2).tolist() == [30.0, 3.0, 20.0, 2.0, 30.0, 3.0]

    def test_row_count_matches_grid(self):
        recs = records(*[(t, 4 * t + z, z, 25.0) for t in range(10) for z in range(4)])
        assert len(dataset(recs, [], 4, 1, duration_s=10)) == 40


class TestLabel:
    def labels(self, events, n_zones=3, duration_s=5, bucket_seconds=1):
        table = dataset(records(), events, n_zones, bucket_seconds, duration_s)
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
        # the bounds are the training rows' (10, 30), so the test rows' 0 maps to -0.5
        assert out.test_x[:, 0] == pytest.approx([-0.5, -0.5])

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


@st.composite
def dense_codes(draw):
    """Vehicle codes in shuffled order, each below the largest present at
    least once, the largest drawn around the steps from 1 to 2 and from 2 to
    3 digits."""
    top = draw(st.one_of(st.sampled_from([0, 8, 9, 10, 98, 99, 100]), st.integers(0, 300)))
    repeats = draw(st.lists(st.integers(0, top), max_size=20))
    return draw(st.permutations(list(range(top + 1)) + repeats))


class TestCsvRoundTrip:
    @settings(max_examples=100, deadline=None)
    @given(codes=dense_codes())
    def test_codes_round_trip(self, tmp_path_factory, codes):
        # the zero-padded ids sort as the codes do, so their ranks are the codes
        n = len(codes)
        recs = data.Records(np.arange(n) % 5, codes, np.arange(n) % 3, np.arange(n) / 4)
        path = tmp_path_factory.mktemp("bsm") / "bsm.csv"
        data.write_bsm_csv(recs, path)
        assert_records_equal(data.read_bsm_csv(path), recs)
        assert_records_equal(data._read_bsm_rows(path), recs)

    def test_bsm_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        recs = data.Records(
            rng.integers(0, 100, 1000),
            rng.permutation(1000),
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
    """Each code spelled ``v`` plus the code, zero-padded to the widest code."""
    width = len(str(max(recs.vehicle_id.tolist(), default=0)))
    return csv_writer_bytes(
        path, data.BSM_HEADER,
        zip(recs.time.tolist(), [f"v{code:0{width}d}" for code in recs.vehicle_id.tolist()],
            recs.zone.tolist(), map(repr, recs.speed.tolist())),
    )


WRITER_FLOATS = [0.0, -0.0, 5e-324, 1e-05, 1e16, 0.1 + 0.2, 27.640955015519577]


class TestCsvWriterBytes:
    @pytest.mark.parametrize("codes", [[0], [0, 0, 3], [9, 10, 2, 10], [7, 0, 120, 99, 100, 5]])
    def test_bsm_bytes(self, tmp_path, codes):
        n = len(codes)
        speeds = (WRITER_FLOATS * n)[:n]
        recs = data.Records(np.arange(n) * 7, codes, np.arange(n) % 3, speeds)
        data.write_bsm_csv(recs, tmp_path / "new.csv")
        assert (tmp_path / "new.csv").read_bytes() == bsm_writer_bytes(tmp_path / "old.csv", recs)

    def test_bsm_bytes_of_no_records(self, tmp_path):
        data.write_bsm_csv(records(), tmp_path / "new.csv")
        assert (tmp_path / "new.csv").read_text() == ",".join(data.BSM_HEADER) + "\n"

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

        monkeypatch.setattr(data, "_read_bsm_rows", refuse)

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
        recs, _ = scenario.generate(scenario.ScenarioConfig(n_zones=10, duration_s=2000, seed=3))
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
        assert len(back) == 0 and back.vehicle_id.dtype == np.int64


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
        # the held columns plus the parsed id column of UTF-8 bytes that
        # ``_id_codes`` sorts: 17.05 MiB peak against 10.38 MiB, 1.64x (numpy
        # 2.4, Python 3.11); 22.65 MiB when the ids were parsed as str
        recs, peak = self.peak(data.read_bsm_csv, pipeline_files)
        held = sum(column.nbytes for column in vars(recs).values())
        widest_id = len("v") + len(str(recs.vehicle_id.max()))
        ids = len(recs) * np.dtype(f"S{widest_id}").itemsize
        assert peak <= 1.75 * (held + ids)

    def test_feature_writer_peak(self, pipeline_files, tmp_path):
        # 1.01x measured; 5.3x with a whole-table text array
        table = dataset(data.read_bsm_csv(pipeline_files), [], 56, 1, 1250)
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
        codes = np.unique(ids, return_inverse=True)[1].astype(np.int64)
        assert got["vehicle_id"] == ("<i8", (len(ids),), codes.tobytes())

    @pytest.mark.parametrize("block_lines", [1, 2, data._BLOCK_LINES])
    @pytest.mark.parametrize(
        "line",
        # bytes that are not UTF-8: stray ones, an encoded surrogate, an
        # overlong and a cut-off sequence
        [b"1,v\xff,0,2.5", b"1,v2,0,2.5\xff", b"1\xff,v2,0,2.5", b"1,v2,\xc30,2.5",
         b"1,v\xe9,0,2.5", b"1,v\xed\xa0\x80,0,2.5", b"1,v\xc0\xaf,0,2.5", b"1,v\xe2\x82,0,2.5",
         # a NUL, which the parsed id would drop at its end
         b"1,v\x00,0,2.5", b"1,v\x002,0,2.5"],
    )
    def test_lines_the_parse_declines_get_the_row_loops_error(self, tmp_path, line, block_lines):
        path = tmp_path / "bsm.csv"
        path.write_bytes(",".join(data.BSM_HEADER).encode() + b"\n0,v1,0,1.5\n" + line + b"\n2,v3,1,3.5\n")
        with mock.patch.object(data, "_BLOCK_LINES", block_lines):
            assert data._read_bsm_blocks(path) is None
            got = read_outcome(data.read_bsm_csv, path)
        assert got == read_outcome(data._read_bsm_rows, path)
        assert got[0] is ParseError and got[1].startswith(f"{path}:3: ")

    @pytest.mark.parametrize(
        "line, parses",
        [("0,a#b,0,1.5", True), ("0,#,0,1.5", True),  # in an id
         ("0,a,0,1.5#", False), ("0,a,#0,1.5", False),  # in a number
         ("#0,a,0,1.5", False)],  # at a line's start
    )
    def test_hash_takes_the_fast_path(self, tmp_path, line, parses):
        # np.loadtxt runs with comments=None, so "#" starts no comment: pass 1
        # keeps the file, and its parse agrees with the row loop or declines
        path = tmp_path / "bsm.csv"
        path.write_text(",".join(data.BSM_HEADER) + f"\n1,v,2,3.0\n{line}\n", encoding="utf-8")
        assert data._bsm_blocks(path.read_bytes()) is not None
        assert (data._read_bsm_blocks(path) is not None) == parses
        got = read_outcome(data.read_bsm_csv, path)
        assert got == read_outcome(data._read_bsm_rows, path)
        assert isinstance(got, dict) if parses else got[0] is ParseError


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
    # few vehicle codes and seconds, so (vehicle, zone, second) repeats and cells empty
    row = st.tuples(
        st.integers(0, duration - 1),
        st.integers(0, 4),
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
        table = dataset(records(*rows), events, n_zones, bucket, duration_s=duration)
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
        table = dataset(records(*rows), events, n_zones, bucket, duration_s=duration)
        covered = np.minimum(table.bucket_start + bucket, duration) - table.bucket_start
        distinct = {(vehicle, zone, time) for time, vehicle, zone, _ in rows}
        assert np.sum(table.features[:, 1] * covered) == pytest.approx(len(distinct))
