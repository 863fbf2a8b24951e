"""The columnar dataset builder, normalized splits and CSV I/O."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qincident import data
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
        labels = self.labels([(3, 100, 60)], n_zones=4, duration_s=170)
        assert labels[:, 3].tolist() == [int(100 <= t < 160) for t in range(170)]
        assert not labels[:, :3].any()

    def test_per_minute_overlap(self):
        labels = self.labels([(3, 100, 60)], n_zones=4, duration_s=300, bucket_seconds=60)
        # the [100, 160) incident overlaps minutes 1 and 2 only
        assert labels[:, 3].tolist() == [0, 1, 1, 0, 0]

    def test_other_zone_untouched(self):
        labels = self.labels([(1, 0, 100)])
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

    def test_feature_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        table = data.Dataset(
            np.arange(500), rng.integers(0, 5, 500), rng.uniform(0, 30, (500, 6)),
            rng.integers(0, 2, 500),
        )
        path = tmp_path / "features.csv"
        data.write_feature_csv(table, path)
        back = data.read_feature_csv(path)
        for column in ("bucket_start", "zone_id", "features", "labels"):
            np.testing.assert_array_equal(getattr(back, column), getattr(table, column))

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

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_feature_is_parse_error(self, tmp_path, value):
        path = tmp_path / "features.csv"
        header = ",".join(data.FEATURE_HEADER)
        path.write_text(f"{header}\n0,0,1.0,2.0,3.0,4.0,5.0,6.0,0\n1,0,1.0,2.0,{value},4.0,5.0,6.0,1\n")
        with pytest.raises(ParseError, match=r"features.csv:3: non-finite feature spd_up"):
            data.read_feature_csv(path)


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
                z == zone and s < start + bucket_seconds and start < s + d for z, s, d in events
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
    event = st.tuples(st.integers(-1, n_zones), st.integers(0, duration + 5), st.integers(1, 90))
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
