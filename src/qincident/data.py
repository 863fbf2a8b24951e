"""Feature pipeline: zone aggregation of raw vehicle records, six-feature
construction with upstream/downstream neighbors, incident labeling,
min-max normalization, and the DS-1/DS-2/DS-3 train/test splits.

File formats (all UTF-8, LF):

* vehicle records CSV, header ``time_s,vehicle_id,zone_id,speed_mps``;
* feature CSV, header
  ``bucket_start_s,zone_id,spd_z,cnt_z,spd_up,cnt_up,spd_dn,cnt_dn,label``;
* zone topology JSON: ``{"directions": [[zone ids in travel order], ...]}``.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, DataError, FormatError, ParseError

BSM_HEADER = ["time_s", "vehicle_id", "zone_id", "speed_mps"]
FEATURE_HEADER = [
    "bucket_start_s",
    "zone_id",
    "spd_z",
    "cnt_z",
    "spd_up",
    "cnt_up",
    "spd_dn",
    "cnt_dn",
    "label",
]
BUCKET_SIZES = (1, 60)
EMPTY_SPEED_FILL = 0.0


@dataclass(slots=True)
class BsmRecord:
    """One vehicle observation: where it was and how fast it moved."""

    time: int
    vehicle_id: str
    zone_id: int
    speed: float

    def __post_init__(self):
        if self.time < 0:
            raise ValueError(f"time must be >= 0, got {self.time}")
        if not math.isfinite(self.speed) or self.speed < 0:
            raise ValueError(f"speed must be finite and >= 0, got {self.speed}")


@dataclass(slots=True)
class ZoneAggregate:
    """Per (zone, bucket) mean speed and vehicle count.

    For one-second buckets the count is the number of distinct vehicles seen
    that second; per-minute buckets carry the mean of the per-second counts
    (which keeps both aggregation levels on the same scale) and the mean
    speed over all member observations.  An empty bucket has count 0 and the
    configured fill speed.
    """

    zone_id: int
    bucket_start: int
    avg_speed: float
    count: float


@dataclass(slots=True)
class FeatureRow:
    """Six features of a (zone, bucket) plus its incident label."""

    bucket_start: int
    zone_id: int
    avg_speed_zone: float
    count_zone: float
    avg_speed_up: float
    count_up: float
    avg_speed_down: float
    count_down: float
    label: int = 0

    def features(self) -> np.ndarray:
        return np.array(
            [
                self.avg_speed_zone,
                self.count_zone,
                self.avg_speed_up,
                self.count_up,
                self.avg_speed_down,
                self.count_down,
            ],
            dtype=float,
        )


@dataclass
class ZoneTopology:
    """Ordered zone ids per travel direction."""

    directions: list[list[int]]

    def __post_init__(self):
        seen: set[int] = set()
        for direction in self.directions:
            for zone in direction:
                if zone in seen:
                    raise ConfigError(f"zone {zone} appears in two directions")
                seen.add(zone)
        self._zones = seen

    def covers(self, zone: int) -> bool:
        return zone in self._zones

    def neighbors(self, zone: int) -> tuple[int | None, int | None]:
        """(upstream, downstream) in travel order; None at a boundary."""
        for direction in self.directions:
            if zone in direction:
                k = direction.index(zone)
                up = direction[k - 1] if k > 0 else None
                down = direction[k + 1] if k + 1 < len(direction) else None
                return up, down
        raise DataError(f"zone {zone} not in topology")


def default_topology(n_zones: int) -> ZoneTopology:
    """Two equal directions: [0 .. n/2) and [n/2 .. n)."""
    half = (n_zones + 1) // 2
    return ZoneTopology([list(range(half)), list(range(half, n_zones))])


@dataclass
class DatasetSplit:
    """A named train/test split; ``normalization`` holds the per-feature
    (mins, maxs) fitted on the training rows once ``normalize`` has run."""

    name: str
    train_rows: list[FeatureRow]
    test_rows: list[FeatureRow]
    normalization: tuple[np.ndarray, np.ndarray] | None = None


# -- aggregation ---------------------------------------------------------------

def _record_arrays(records) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    times = np.fromiter((r.time for r in records), dtype=np.int64, count=len(records))
    zones = np.fromiter((r.zone_id for r in records), dtype=np.int64, count=len(records))
    speeds = np.fromiter((r.speed for r in records), dtype=float, count=len(records))
    vids = np.array([r.vehicle_id for r in records], dtype=object)
    return times, zones, speeds, vids


def aggregate(
    records: list[BsmRecord],
    bucket_seconds: int,
    n_zones: int,
    duration_s: int | None = None,
    empty_speed_fill: float = EMPTY_SPEED_FILL,
) -> list[ZoneAggregate]:
    """One aggregate per (zone, bucket) over the full time range, empties included.

    The time range is [0, duration_s); when not given, the duration is
    inferred as the latest record time + 1.  Duplicate observations of the
    same vehicle within the same (zone, second) are dropped so counts are
    distinct-vehicle counts.
    """
    if bucket_seconds not in BUCKET_SIZES:
        raise ConfigError(f"bucket_seconds must be one of {BUCKET_SIZES}, got {bucket_seconds}")
    if n_zones < 1:
        raise ConfigError("n_zones must be >= 1")
    if not records and duration_s is None:
        return []
    if records:
        times, zones, speeds, vids = _record_arrays(records)
        if zones.min() < 0 or zones.max() >= n_zones:
            raise DataError(f"zone id outside [0, {n_zones}) in records")
        duration = int(duration_s) if duration_s is not None else int(times.max()) + 1
        if times.max() >= duration:
            raise DataError("record time beyond the stated duration")
        # distinct (zone, second, vehicle): keep the first observation
        _, vid_codes = np.unique(vids, return_inverse=True)
        key = (vid_codes.astype(np.int64) * n_zones + zones) * duration + times
        _, first = np.unique(key, return_index=True)
        times, zones, speeds = times[first], zones[first], speeds[first]
    else:
        duration = int(duration_s)
        times = zones = speeds = np.empty(0)

    speed_sum = np.zeros((n_zones, duration))
    count = np.zeros((n_zones, duration))
    if len(times):
        np.add.at(speed_sum, (zones, times), speeds)
        np.add.at(count, (zones, times), 1.0)

    n_buckets = math.ceil(duration / bucket_seconds)
    out: list[ZoneAggregate] = []
    for bucket in range(n_buckets):
        start = bucket * bucket_seconds
        stop = min(start + bucket_seconds, duration)
        seconds_covered = stop - start
        bucket_counts = count[:, start:stop].sum(axis=1)
        bucket_speed_sum = speed_sum[:, start:stop].sum(axis=1)
        for zone in range(n_zones):
            n_obs = bucket_counts[zone]
            if n_obs > 0:
                avg_speed = bucket_speed_sum[zone] / n_obs
            else:
                avg_speed = empty_speed_fill
            out.append(
                ZoneAggregate(
                    zone_id=zone,
                    bucket_start=start,
                    avg_speed=float(avg_speed),
                    count=float(n_obs / seconds_covered) if bucket_seconds > 1 else float(n_obs),
                )
            )
    return out


def build_features(
    aggregates: list[ZoneAggregate], topology: ZoneTopology
) -> list[FeatureRow]:
    """Six-feature rows: own (speed, count), then upstream, then downstream.

    A boundary zone without an upstream or downstream neighbor substitutes
    its own values on the missing side.
    """
    by_key: dict[tuple[int, int], ZoneAggregate] = {}
    for agg in aggregates:
        if not topology.covers(agg.zone_id):
            raise DataError(f"zone {agg.zone_id} not covered by the topology")
        by_key[(agg.zone_id, agg.bucket_start)] = agg

    rows = []
    for agg in aggregates:
        up, down = topology.neighbors(agg.zone_id)
        row_vals = []
        for neighbor in (up, down):
            if neighbor is None:
                row_vals.append((agg.avg_speed, agg.count))
                continue
            other = by_key.get((neighbor, agg.bucket_start))
            if other is None:
                raise DataError(
                    f"missing aggregate for zone {neighbor} at bucket {agg.bucket_start}"
                )
            row_vals.append((other.avg_speed, other.count))
        (up_speed, up_count), (down_speed, down_count) = row_vals
        rows.append(
            FeatureRow(
                bucket_start=agg.bucket_start,
                zone_id=agg.zone_id,
                avg_speed_zone=agg.avg_speed,
                count_zone=agg.count,
                avg_speed_up=up_speed,
                count_up=up_count,
                avg_speed_down=down_speed,
                count_down=down_count,
            )
        )
    rows.sort(key=lambda r: (r.bucket_start, r.zone_id))
    return rows


def label(rows: list[FeatureRow], schedule, bucket_seconds: int = 1) -> list[FeatureRow]:
    """Label 1 for every row whose zone has an incident overlapping its bucket.

    ``schedule`` entries need ``zone``, ``start_s`` and ``duration_s``
    attributes (or are (zone, start_s, duration_s) triples).  A bucket of
    any length counts as positive on any overlap.
    """
    events = []
    for event in schedule:
        if hasattr(event, "zone"):
            events.append((event.zone, event.start_s, event.duration_s))
        else:
            events.append(tuple(event))
    by_zone: dict[int, list[tuple[int, int]]] = {}
    for zone, start, duration in events:
        by_zone.setdefault(zone, []).append((start, start + duration))
    out = []
    for row in rows:
        bucket_end = row.bucket_start + bucket_seconds
        hit = any(
            start < bucket_end and row.bucket_start < end
            for start, end in by_zone.get(row.zone_id, ())
        )
        out.append(replace(row, label=1 if hit else 0))
    return out


# -- normalization and splits ---------------------------------------------------

def _feature_matrix(rows: list[FeatureRow]) -> np.ndarray:
    return np.array([r.features() for r in rows], dtype=float)


def apply_normalization(features: np.ndarray, normalization) -> np.ndarray:
    """x' = (x - min) / (max - min); a constant feature maps to 0."""
    mins, maxs = normalization
    span = maxs - mins
    safe = np.where(span > 0, span, 1.0)
    scaled = (features - mins) / safe
    return np.where(span > 0, scaled, 0.0)


def normalize(split: DatasetSplit) -> DatasetSplit:
    """Min-max fit on the training rows only; test rows are not clamped."""
    if not split.train_rows:
        raise DataError("cannot normalize a split with an empty training set")
    train = _feature_matrix(split.train_rows)
    mins = train.min(axis=0)
    maxs = train.max(axis=0)

    def transform(rows: list[FeatureRow]) -> list[FeatureRow]:
        if not rows:
            return []
        mat = apply_normalization(_feature_matrix(rows), (mins, maxs))
        return [
            replace(
                row,
                avg_speed_zone=mat[i, 0],
                count_zone=mat[i, 1],
                avg_speed_up=mat[i, 2],
                count_up=mat[i, 3],
                avg_speed_down=mat[i, 4],
                count_down=mat[i, 5],
            )
            for i, row in enumerate(rows)
        ]

    return DatasetSplit(
        name=split.name,
        train_rows=transform(split.train_rows),
        test_rows=transform(split.test_rows),
        normalization=(mins, maxs),
    )


# canonical (train, total) sizes; other source sizes scale proportionally
SPLIT_SIZES = {
    "DS-1": (40000, 70000),
    "DS-2": (15000, 70000),
    "DS-3": (150, 1400),
}


def split(rows: list[FeatureRow], name: str) -> DatasetSplit:
    """Chronological prefix split: the first rows train, the rest test."""
    if name not in SPLIT_SIZES:
        raise ConfigError(f"unknown split {name!r}; expected one of {sorted(SPLIT_SIZES)}")
    keys = [(r.bucket_start, r.zone_id) for r in rows]
    if any(keys[i] > keys[i + 1] for i in range(len(keys) - 1)):
        raise DataError("rows must be ordered by (bucket_start, zone_id)")
    train_canonical, total_canonical = SPLIT_SIZES[name]
    n = len(rows)
    if n == total_canonical:
        train_size = train_canonical
    else:
        train_size = round(n * train_canonical / total_canonical)
    if train_size < 1 or train_size >= n:
        raise DataError(
            f"cannot split {n} rows into {name} (train size {train_size})"
        )
    return DatasetSplit(name=name, train_rows=rows[:train_size], test_rows=rows[train_size:])


# -- CSV and JSON interchange ----------------------------------------------------

def write_bsm_csv(records: list[BsmRecord], path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(BSM_HEADER)
        for r in records:
            writer.writerow([r.time, r.vehicle_id, r.zone_id, repr(float(r.speed))])


def read_bsm_csv(path) -> list[BsmRecord]:
    records = []
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != BSM_HEADER:
            raise FormatError(f"{path}: expected header {','.join(BSM_HEADER)}")
        for lineno, fields in enumerate(reader, start=2):
            if not fields:
                continue
            try:
                if len(fields) != len(BSM_HEADER):
                    raise ValueError(f"expected {len(BSM_HEADER)} fields")
                records.append(
                    BsmRecord(
                        time=int(fields[0]),
                        vehicle_id=fields[1],
                        zone_id=int(fields[2]),
                        speed=float(fields[3]),
                    )
                )
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: {exc}") from exc
    return records


def write_feature_csv(rows: list[FeatureRow], path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(FEATURE_HEADER)
        for r in rows:
            writer.writerow(
                [
                    r.bucket_start,
                    r.zone_id,
                    repr(float(r.avg_speed_zone)),
                    repr(float(r.count_zone)),
                    repr(float(r.avg_speed_up)),
                    repr(float(r.count_up)),
                    repr(float(r.avg_speed_down)),
                    repr(float(r.count_down)),
                    r.label,
                ]
            )


def read_feature_csv(path) -> list[FeatureRow]:
    rows = []
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != FEATURE_HEADER:
            raise FormatError(f"{path}: expected header {','.join(FEATURE_HEADER)}")
        for lineno, fields in enumerate(reader, start=2):
            if not fields:
                continue
            try:
                if len(fields) != len(FEATURE_HEADER):
                    raise ValueError(f"expected {len(FEATURE_HEADER)} fields")
                lab = int(fields[8])
                if lab not in (0, 1):
                    raise ValueError(f"label must be 0 or 1, got {lab}")
                values = [float(v) for v in fields[2:8]]
                bad = [name for name, v in zip(FEATURE_HEADER[2:8], values) if not math.isfinite(v)]
                if bad:
                    raise ValueError(f"non-finite feature {', '.join(bad)}")
                rows.append(FeatureRow(int(fields[0]), int(fields[1]), *values, label=lab))
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: {exc}") from exc
    return rows


def write_topology_json(topology: ZoneTopology, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"directions": topology.directions}, handle, indent=2, sort_keys=True)
        handle.write("\n")


def read_topology_json(path) -> ZoneTopology:
    with open(path, "r", encoding="utf-8") as handle:
        doc = json.load(handle)
    if not isinstance(doc, dict) or "directions" not in doc:
        raise FormatError(f"{path}: expected an object with a 'directions' array")
    return ZoneTopology([list(map(int, d)) for d in doc["directions"]])
