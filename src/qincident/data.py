"""Feature pipeline, in columns from the vehicle records to the splits.

``Records`` holds vehicle observations as parallel arrays.  One builder,
``build_dataset``, turns them into a ``Dataset`` in three array stages:
``aggregate`` sums per (zone, second) grids of distinct-vehicle counts and
speeds into one- or sixty-second buckets; ``build_features`` forms six
features per (bucket, zone), the zone's own mean speed and count then its
upstream and downstream neighbor's; ``label`` marks rows that overlap an
incident.  ``split`` cuts a ``Dataset`` into the chronological
DS-1/DS-2/DS-3 regimes, min-max scaled by ``normalize`` with bounds fitted
on the training rows.

File formats (all UTF-8, LF):

* vehicle records CSV, header ``time_s,vehicle_id,zone_id,speed_mps``;
* feature CSV, header
  ``bucket_start_s,zone_id,spd_z,cnt_z,spd_up,cnt_up,spd_dn,cnt_dn,label``.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

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


@dataclass(eq=False)
class Records:
    """Vehicle observations as parallel columns: the second, the vehicle id,
    the zone and the speed of each."""

    time: np.ndarray  # int64
    vehicle_id: np.ndarray  # str
    zone: np.ndarray  # int64
    speed: np.ndarray  # float64

    def __post_init__(self):
        self.time = np.asarray(self.time, dtype=np.int64)
        self.vehicle_id = np.asarray(self.vehicle_id, dtype=str)
        self.zone = np.asarray(self.zone, dtype=np.int64)
        self.speed = np.asarray(self.speed, dtype=np.float64)
        if not len(self.time) == len(self.vehicle_id) == len(self.zone) == len(self.speed):
            raise ValueError("record columns differ in length")
        if np.any(self.time < 0):
            raise ValueError("record times must be >= 0")
        if not np.all(np.isfinite(self.speed) & (self.speed >= 0)):
            raise ValueError("record speeds must be finite and >= 0")

    def __len__(self) -> int:
        return len(self.time)


@dataclass(eq=False)
class Dataset:
    """Labeled feature rows in (bucket_start, zone_id) order.

    ``features`` columns: own mean speed and count, upstream speed and
    count, downstream speed and count.
    """

    bucket_start: np.ndarray  # int64 [N]
    zone_id: np.ndarray  # int64 [N]
    features: np.ndarray  # float64 [N, 6]
    labels: np.ndarray  # int64 [N], 0 or 1

    def __len__(self) -> int:
        return len(self.labels)


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

    def neighbor_index(self, n_zones: int) -> tuple[np.ndarray, np.ndarray]:
        """(upstream, downstream) zone of each zone in [0, n_zones), in
        travel order; a boundary zone is its own neighbor on the missing side."""
        missing = sorted(set(range(n_zones)) - self._zones)
        if missing:
            raise DataError(f"zone {missing[0]} not covered by the topology")
        up, down = np.arange(n_zones), np.arange(n_zones)
        for direction in self.directions:
            up[direction[1:]] = direction[:-1]
            down[direction[:-1]] = direction[1:]
        return up, down


def default_topology(n_zones: int) -> ZoneTopology:
    """Two equal directions: [0 .. n/2) and [n/2 .. n)."""
    half = (n_zones + 1) // 2
    return ZoneTopology([list(range(half)), list(range(half, n_zones))])


# -- the builder ----------------------------------------------------------------

def build_dataset(
    records: Records,
    events,
    n_zones: int,
    bucket_seconds: int,
    duration_s: int | None = None,
) -> Dataset:
    """One labeled row per (bucket, zone) over [0, duration_s), empties
    included: ``aggregate``, then ``build_features`` over the default
    topology, then ``label``.

    When ``duration_s`` is not given it is the latest record time + 1 (0
    without records).  ``events`` entries need ``zone``, ``start_s`` and
    ``duration_s`` attributes (or are (zone, start_s, duration_s) triples).
    """
    starts, speed, count = aggregate(records, bucket_seconds, n_zones, duration_s)
    bucket_start = np.repeat(starts, n_zones)
    zone_id = np.tile(np.arange(n_zones), len(starts))
    return Dataset(
        bucket_start=bucket_start,
        zone_id=zone_id,
        features=build_features(speed, count, default_topology(n_zones)),
        labels=label(bucket_start, zone_id, events, bucket_seconds),
    )


def aggregate(
    records: Records, bucket_seconds: int, n_zones: int, duration_s: int | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(bucket starts [B], mean speed [B, n_zones], count [B, n_zones]).

    Repeated observations of a vehicle within one (zone, second) count once,
    so one-second counts are distinct-vehicle counts; a longer bucket's
    count is the mean of its per-second counts over the seconds it covers,
    and its speed the mean over all its observations.  An empty bucket has
    count 0 and speed ``EMPTY_SPEED_FILL``.
    """
    if bucket_seconds not in BUCKET_SIZES:
        raise ConfigError(f"bucket_seconds must be one of {BUCKET_SIZES}, got {bucket_seconds}")
    if n_zones < 1:
        raise ConfigError("n_zones must be >= 1")
    times, zones = records.time, records.zone
    if np.any((zones < 0) | (zones >= n_zones)):
        raise DataError(f"zone id outside [0, {n_zones}) in records")
    duration = int(duration_s) if duration_s is not None else int(times.max(initial=-1)) + 1
    if np.any(times >= duration):
        raise DataError("record time beyond the stated duration")

    # distinct (vehicle, zone, second): keep the first observation.  The kept
    # records come in vehicle-id order, and each cell sums its speeds in
    # that order.
    _, vid_codes = np.unique(records.vehicle_id, return_inverse=True)
    key = (vid_codes.astype(np.int64) * n_zones + zones) * duration + times
    _, first = np.unique(key, return_index=True)
    cell = zones[first] * duration + times[first]
    grid_size = n_zones * duration
    grids = np.stack(
        [
            np.bincount(cell, minlength=grid_size).astype(float),
            np.bincount(cell, weights=records.speed[first], minlength=grid_size),
        ]
    ).reshape(2, n_zones, duration)

    starts = np.arange(0, duration, bucket_seconds)
    sums = np.empty((2, len(starts), n_zones))
    for b, start in enumerate(starts):
        sums[:, b] = grids[:, :, start : start + bucket_seconds].sum(axis=2)
    count, speed_sum = sums
    speed = np.where(count > 0, speed_sum / np.where(count > 0, count, 1.0), EMPTY_SPEED_FILL)
    covered = np.minimum(starts + bucket_seconds, duration) - starts
    return starts, speed, count / covered[:, np.newaxis]


def build_features(speed: np.ndarray, count: np.ndarray, topology: ZoneTopology) -> np.ndarray:
    """Six features per (bucket, zone) row, buckets outer: own (speed,
    count), then upstream, then downstream.  A boundary zone substitutes
    its own values for the missing neighbor."""
    up, down = topology.neighbor_index(speed.shape[1])
    features = np.stack(
        [speed, count, speed[:, up], count[:, up], speed[:, down], count[:, down]], axis=-1
    )
    return features.reshape(-1, 6)


def label(bucket_start: np.ndarray, zone_id: np.ndarray, events, bucket_seconds: int) -> np.ndarray:
    """1 for every row whose zone has an event overlapping its bucket at all."""
    labels = np.zeros(len(zone_id), dtype=np.int64)
    for event in events:
        zone, start, length = (
            (event.zone, event.start_s, event.duration_s) if hasattr(event, "zone") else event
        )
        overlap = (start < bucket_start + bucket_seconds) & (bucket_start < start + length)
        labels[overlap & (zone_id == zone)] = 1
    return labels


# -- splits -----------------------------------------------------------------------

@dataclass(eq=False)
class DatasetSplit:
    """A named chronological train/test split, min-max normalized with the
    per-feature (mins, maxs) of its training rows."""

    name: str
    train_x: np.ndarray
    train_y: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray
    normalization: tuple[np.ndarray, np.ndarray]


# canonical (train, total) sizes; other source sizes scale proportionally
SPLIT_SIZES = {
    "DS-1": (40000, 70000),
    "DS-2": (15000, 70000),
    "DS-3": (150, 1400),
}


def normalize(train: np.ndarray, test: np.ndarray) -> tuple[np.ndarray, np.ndarray, tuple]:
    """Min-max scaling fitted on the training rows: (train', test', (mins,
    maxs)) with x' = (x - min) / (max - min).  A constant feature maps to 0;
    test rows are not clamped."""
    mins, maxs = train.min(axis=0), train.max(axis=0)
    span = maxs - mins
    safe = np.where(span > 0, span, 1.0)

    def scale(features: np.ndarray) -> np.ndarray:
        return np.where(span > 0, (features - mins) / safe, 0.0)

    return scale(train), scale(test), (mins, maxs)


def split(table: Dataset, name: str) -> DatasetSplit:
    """Chronological prefix split: the first rows train, the rest test,
    both scaled by ``normalize``."""
    if name not in SPLIT_SIZES:
        raise ConfigError(f"unknown split {name!r}; expected one of {sorted(SPLIT_SIZES)}")
    b, z = table.bucket_start, table.zone_id
    if np.any((b[1:] < b[:-1]) | ((b[1:] == b[:-1]) & (z[1:] < z[:-1]))):
        raise DataError("rows must be ordered by (bucket_start, zone_id)")
    train_canonical, total_canonical = SPLIT_SIZES[name]
    n = len(table)
    if n == total_canonical:
        train_size = train_canonical
    else:
        train_size = round(n * train_canonical / total_canonical)
    if train_size < 1 or train_size >= n:
        raise DataError(
            f"cannot split {n} rows into {name} (train size {train_size})"
        )
    train_x, test_x, normalization = normalize(
        table.features[:train_size], table.features[train_size:]
    )
    return DatasetSplit(
        name=name,
        train_x=train_x,
        train_y=table.labels[:train_size],
        test_x=test_x,
        test_y=table.labels[train_size:],
        normalization=normalization,
    )


# -- CSV interchange ---------------------------------------------------------------

def write_bsm_csv(records: Records, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(BSM_HEADER)
        writer.writerows(
            zip(
                records.time.tolist(),
                records.vehicle_id.tolist(),
                records.zone.tolist(),
                map(repr, records.speed.tolist()),
            )
        )


def read_bsm_csv(path) -> Records:
    times, vids, zones, speeds = [], [], [], []
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
                time, zone, speed = int(fields[0]), int(fields[2]), float(fields[3])
                if "\x00" in fields[1]:
                    # numpy strings drop trailing NULs, which would merge ids
                    raise ValueError("vehicle id contains a NUL character")
                if time < 0:
                    raise ValueError(f"time must be >= 0, got {time}")
                if not math.isfinite(speed) or speed < 0:
                    raise ValueError(f"speed must be finite and >= 0, got {speed}")
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: {exc}") from exc
            times.append(time)
            vids.append(fields[1])
            zones.append(zone)
            speeds.append(speed)
    return Records(times, vids, zones, speeds)


def write_feature_csv(table: Dataset, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(FEATURE_HEADER)
        writer.writerows(
            [bucket, zone, *map(repr, values), label]
            for bucket, zone, values, label in zip(
                table.bucket_start.tolist(),
                table.zone_id.tolist(),
                table.features.tolist(),
                table.labels.tolist(),
            )
        )


def read_feature_csv(path) -> Dataset:
    buckets, zones, features, labels = [], [], [], []
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
                bucket, zone = int(fields[0]), int(fields[1])
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: {exc}") from exc
            buckets.append(bucket)
            zones.append(zone)
            features.append(values)
            labels.append(lab)
    return Dataset(
        bucket_start=np.array(buckets, dtype=np.int64),
        zone_id=np.array(zones, dtype=np.int64),
        features=np.array(features, dtype=float).reshape(-1, 6),
        labels=np.array(labels, dtype=np.int64),
    )
