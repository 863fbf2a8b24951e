"""Aggregation, feature construction, labeling, normalization, splits, I/O."""

import numpy as np
import pytest

from qincident import data
from qincident.errors import ConfigError, DataError, FormatError, ParseError


def rec(time, vid, zone, speed):
    return data.BsmRecord(time=time, vehicle_id=vid, zone_id=zone, speed=speed)


class TestAggregate:
    def test_simple_mean_and_count(self):
        records = [rec(12, "a", 5, 20.0), rec(12, "b", 5, 30.0)]
        aggs = data.aggregate(records, 1, n_zones=6, duration_s=13)
        by_key = {(a.zone_id, a.bucket_start): a for a in aggs}
        hit = by_key[(5, 12)]
        assert hit.avg_speed == pytest.approx(25.0)
        assert hit.count == 2

    def test_empty_bucket_gets_fill(self):
        aggs = data.aggregate([rec(0, "a", 0, 10.0)], 1, n_zones=2, duration_s=2)
        by_key = {(a.zone_id, a.bucket_start): a for a in aggs}
        assert by_key[(1, 0)].count == 0
        assert by_key[(1, 0)].avg_speed == data.EMPTY_SPEED_FILL

    def test_per_minute_constant_stream(self):
        # one vehicle at speed 10 every second: avg 10, count 1
        records = [rec(t, f"v{t}", 0, 10.0) for t in range(60)]
        aggs = data.aggregate(records, 60, n_zones=1, duration_s=60)
        assert len(aggs) == 1
        assert aggs[0].avg_speed == pytest.approx(10.0)
        assert aggs[0].count == pytest.approx(1.0)

    def test_duplicate_vehicle_within_second_counted_once(self):
        records = [rec(3, "dup", 0, 10.0), rec(3, "dup", 0, 99.0), rec(3, "x", 0, 20.0)]
        aggs = data.aggregate(records, 1, n_zones=1, duration_s=4)
        hit = [a for a in aggs if a.bucket_start == 3][0]
        assert hit.count == 2
        assert hit.avg_speed == pytest.approx(15.0)

    def test_full_grid_emitted(self):
        aggs = data.aggregate([rec(0, "a", 0, 1.0)], 1, n_zones=3, duration_s=5)
        assert len(aggs) == 15
        keys = [(a.bucket_start, a.zone_id) for a in aggs]
        assert keys == sorted(keys)

    def test_bad_bucket_size(self):
        with pytest.raises(ConfigError):
            data.aggregate([], 30, n_zones=1, duration_s=10)

    def test_zone_out_of_range(self):
        with pytest.raises(DataError):
            data.aggregate([rec(0, "a", 7, 1.0)], 1, n_zones=3, duration_s=1)

    def test_partial_final_minute_divides_by_covered_seconds(self):
        # 30-second tail bucket with one vehicle per second: count stays 1
        records = [rec(t, f"v{t}", 0, 10.0) for t in range(90)]
        aggs = data.aggregate(records, 60, n_zones=1, duration_s=90)
        assert len(aggs) == 2
        assert aggs[1].count == pytest.approx(1.0)


class TestTopology:
    def test_default_two_directions(self):
        topo = data.default_topology(56)
        assert topo.directions[0] == list(range(28))
        assert topo.directions[1] == list(range(28, 56))

    def test_neighbors_interior_and_boundary(self):
        topo = data.default_topology(8)
        assert topo.neighbors(1) == (0, 2)
        assert topo.neighbors(0) == (None, 1)
        assert topo.neighbors(3) == (2, None)
        assert topo.neighbors(4) == (None, 5)

    def test_duplicate_zone_rejected(self):
        with pytest.raises(ConfigError):
            data.ZoneTopology([[0, 1], [1, 2]])


class TestBuildFeatures:
    def make_aggs(self):
        # 3 zones, 1 bucket, distinct values
        return [
            data.ZoneAggregate(0, 0, 10.0, 1.0),
            data.ZoneAggregate(1, 0, 20.0, 2.0),
            data.ZoneAggregate(2, 0, 30.0, 3.0),
        ]

    def test_interior_zone_copies_neighbors(self):
        rows = data.build_features(self.make_aggs(), data.ZoneTopology([[0, 1, 2]]))
        mid = [r for r in rows if r.zone_id == 1][0]
        assert mid.features().tolist() == [20.0, 2.0, 10.0, 1.0, 30.0, 3.0]

    def test_boundary_self_substitution(self):
        rows = data.build_features(self.make_aggs(), data.ZoneTopology([[0, 1, 2]]))
        first = [r for r in rows if r.zone_id == 0][0]
        assert first.features().tolist() == [10.0, 1.0, 10.0, 1.0, 20.0, 2.0]
        last = [r for r in rows if r.zone_id == 2][0]
        assert last.features().tolist() == [30.0, 3.0, 20.0, 2.0, 30.0, 3.0]

    def test_unknown_zone_rejected(self):
        with pytest.raises(DataError):
            data.build_features(self.make_aggs(), data.ZoneTopology([[0, 1]]))

    def test_row_count_matches_grid(self):
        records = [rec(t, f"v{t}-{z}", z, 25.0) for t in range(10) for z in range(4)]
        aggs = data.aggregate(records, 1, n_zones=4, duration_s=10)
        rows = data.build_features(aggs, data.default_topology(4))
        assert len(rows) == len(aggs) == 40


class TestLabel:
    def make_rows(self, buckets=5, zones=3, bucket_seconds=1):
        return [
            data.FeatureRow(b * bucket_seconds, z, 1, 1, 1, 1, 1, 1)
            for b in range(buckets)
            for z in range(zones)
        ]

    def test_empty_schedule_all_zero(self):
        rows = data.label(self.make_rows(), [])
        assert all(r.label == 0 for r in rows)

    def test_per_second_interval(self):
        rows = [data.FeatureRow(t, 3, 1, 1, 1, 1, 1, 1) for t in range(90, 170)]
        labeled = data.label(rows, [(3, 100, 60)], bucket_seconds=1)
        for row in labeled:
            assert row.label == (1 if 100 <= row.bucket_start < 160 else 0)

    def test_per_minute_overlap(self):
        rows = [data.FeatureRow(m * 60, 3, 1, 1, 1, 1, 1, 1) for m in range(5)]
        labeled = data.label(rows, [(3, 100, 60)], bucket_seconds=60)
        # the [100, 160) incident overlaps minutes 1 and 2 only
        assert [r.label for r in labeled] == [0, 1, 1, 0, 0]

    def test_other_zone_untouched(self):
        rows = self.make_rows()
        labeled = data.label(rows, [(1, 0, 100)], bucket_seconds=1)
        assert all(r.label == (1 if r.zone_id == 1 else 0) for r in labeled)


class TestNormalize:
    def split_from_columns(self, train_col, test_col):
        def mk(vals):
            return [
                data.FeatureRow(i, 0, v, 1.0, 1.0, 1.0, 1.0, 1.0) for i, v in enumerate(vals)
            ]

        return data.DatasetSplit("DS-1", mk(train_col), mk(test_col))

    def test_min_max_mapping(self):
        out = data.normalize(self.split_from_columns([10.0, 20.0, 30.0], []))
        got = [r.avg_speed_zone for r in out.train_rows]
        assert got == pytest.approx([0.0, 0.5, 1.0])

    def test_constant_column_maps_to_zero(self):
        out = data.normalize(self.split_from_columns([7.0, 7.0], [7.0, 9.0]))
        assert [r.avg_speed_zone for r in out.train_rows] == [0.0, 0.0]
        assert [r.avg_speed_zone for r in out.test_rows] == [0.0, 0.0]

    def test_test_rows_not_clamped(self):
        out = data.normalize(self.split_from_columns([10.0, 30.0], [40.0]))
        assert out.test_rows[0].avg_speed_zone == pytest.approx(1.5)

    def test_train_rows_in_unit_interval(self):
        rng = np.random.default_rng(0)
        rows = [
            data.FeatureRow(i, 0, *rng.uniform(-5, 40, 6)) for i in range(50)
        ]
        out = data.normalize(data.DatasetSplit("DS-1", rows, []))
        mat = np.array([r.features() for r in out.train_rows])
        assert mat.min() >= 0.0 and mat.max() <= 1.0

    def test_double_normalize_is_identity_on_train(self):
        rng = np.random.default_rng(1)
        rows = [data.FeatureRow(i, 0, *rng.uniform(0, 30, 6)) for i in range(20)]
        once = data.normalize(data.DatasetSplit("DS-1", rows, []))
        twice = data.normalize(once)
        a = np.array([r.features() for r in once.train_rows])
        b = np.array([r.features() for r in twice.train_rows])
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_empty_train_rejected(self):
        with pytest.raises(DataError):
            data.normalize(data.DatasetSplit("DS-1", [], []))


class TestSplit:
    def make_rows(self, n):
        return [data.FeatureRow(i, 0, 1, 1, 1, 1, 1, 1) for i in range(n)]

    def test_canonical_ds1(self):
        out = data.split(self.make_rows(70000), "DS-1")
        assert (len(out.train_rows), len(out.test_rows)) == (40000, 30000)

    def test_canonical_ds2(self):
        out = data.split(self.make_rows(70000), "DS-2")
        assert (len(out.train_rows), len(out.test_rows)) == (15000, 55000)

    def test_canonical_ds3(self):
        out = data.split(self.make_rows(1400), "DS-3")
        assert (len(out.train_rows), len(out.test_rows)) == (150, 1250)

    def test_proportional_scaling(self):
        out = data.split(self.make_rows(7000), "DS-1")
        assert (len(out.train_rows), len(out.test_rows)) == (4000, 3000)

    def test_prefix_is_chronological(self):
        rows = self.make_rows(1400)
        out = data.split(rows, "DS-3")
        assert out.train_rows == rows[:150]
        assert out.test_rows == rows[150:]

    def test_too_few_rows(self):
        with pytest.raises(DataError):
            data.split(self.make_rows(1), "DS-1")

    def test_unknown_name(self):
        with pytest.raises(ConfigError):
            data.split(self.make_rows(100), "DS-9")

    def test_unordered_rows_rejected(self):
        rows = self.make_rows(100)
        rows[0], rows[50] = rows[50], rows[0]
        with pytest.raises(DataError):
            data.split(rows, "DS-1")


class TestCsvRoundTrip:
    def test_bsm_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        records = [
            rec(int(rng.integers(0, 100)), f"veh{i}", int(rng.integers(0, 8)), float(rng.uniform(0, 40)))
            for i in range(1000)
        ]
        path = tmp_path / "bsm.csv"
        data.write_bsm_csv(records, path)
        back = data.read_bsm_csv(path)
        assert back == records

    def test_feature_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        rows = [
            data.FeatureRow(i, int(rng.integers(0, 5)), *rng.uniform(0, 30, 6), label=int(rng.integers(0, 2)))
            for i in range(500)
        ]
        path = tmp_path / "features.csv"
        data.write_feature_csv(rows, path)
        assert data.read_feature_csv(path) == rows

    def test_empty_file_with_header(self, tmp_path):
        path = tmp_path / "bsm.csv"
        path.write_text("time_s,vehicle_id,zone_id,speed_mps\n")
        assert data.read_bsm_csv(path) == []

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

    def test_topology_round_trip(self, tmp_path):
        topo = data.default_topology(10)
        path = tmp_path / "topo.json"
        data.write_topology_json(topo, path)
        back = data.read_topology_json(path)
        assert back.directions == topo.directions
