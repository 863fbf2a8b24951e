"""Feature pipeline, in columns from the vehicle records to the splits.

``Records`` holds vehicle observations as parallel arrays.  One builder,
``build_dataset``, turns them into a ``Dataset`` in three array stages:
``aggregate`` sums per (zone, second) grids of distinct-vehicle counts and
speeds into one- or sixty-second buckets; ``build_features`` forms six
features per (bucket, zone), the zone's own mean speed and count then its
upstream and downstream neighbor's; ``label`` marks rows that overlap an
incident.  The corridor's two directions of travel are fixed, zones
[0, ceil(n/2)) and [ceil(n/2), n), and ``neighbor_index`` gives each zone's
neighbors along them.  ``split`` cuts a ``Dataset`` into the chronological
DS-1/DS-2/DS-3 regimes, min-max scaled by ``normalize`` with bounds fitted
on the training rows.

File formats (all UTF-8, LF):

* vehicle records CSV, header ``time_s,vehicle_id,zone_id,speed_mps``;
* feature CSV, header
  ``bucket_start_s,zone_id,spd_z,cnt_z,spd_up,cnt_up,spd_dn,cnt_dn,label``.

The writers give the bytes ``csv.writer`` would, floats as ``repr``, a
chunk of rows at a time; the feature writer takes one ``repr`` per distinct
value of a chunk.  The record writer refuses a vehicle id that
``csv.writer`` would quote or that holds a NUL.  Only the record CSV is
read back, in two passes over its lines, a block at a time.  The first
checks the bytes and finds the widest id; the second parses each block with
``np.loadtxt`` into fixed-width rows and copies them into columns allocated
once, so no more than a block is ever held as Python objects.  A file that
parse could read differently from ``csv.reader`` (a quote, CR, NUL, ``#``,
\x1c-\x1f, a blank or overlong line, a line without three commas), or
whose values fail a check, is read again row by row through ``csv.reader``,
which returns the same values or raises the same ``path:line: message``
error.
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
    the zone and the speed of each.  Ids given other than as a numpy str
    array must hold no NUL, which the str column would drop at an id's end."""

    time: np.ndarray  # int64
    vehicle_id: np.ndarray  # str
    zone: np.ndarray  # int64
    speed: np.ndarray  # float64

    def __post_init__(self):
        self.time = np.asarray(self.time, dtype=np.int64)
        if not (isinstance(self.vehicle_id, np.ndarray) and self.vehicle_id.dtype.kind == "U"):
            # numpy's str column drops trailing NULs, which would merge ids
            held = next((vid for vid in self.vehicle_id if "\x00" in str(vid)), None)
            if held is not None:
                raise ValueError(f"vehicle id {held!r} holds a NUL character")
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


def neighbor_index(n_zones: int) -> tuple[np.ndarray, np.ndarray]:
    """(upstream, downstream) zone of each zone in [0, n_zones).  The
    corridor has two directions of travel, [0, ceil(n/2)) and
    [ceil(n/2), n), each in increasing zone order; the first zone of a
    direction is its own upstream and the last its own downstream."""
    zones = np.arange(n_zones)
    half = (n_zones + 1) // 2
    up = np.where((zones == 0) | (zones == half), zones, zones - 1)
    down = np.where((zones == half - 1) | (zones == n_zones - 1), zones, zones + 1)
    return up, down


# -- the builder ----------------------------------------------------------------

def build_dataset(
    records: Records,
    events,
    n_zones: int,
    bucket_seconds: int,
    duration_s: int,
) -> Dataset:
    """One labeled row per (bucket, zone) over [0, duration_s), empties
    included: ``aggregate``, then ``build_features``, then ``label``.

    ``events`` are ``scenario.IncidentEvent``s.
    """
    starts, speed, count = aggregate(records, bucket_seconds, n_zones, duration_s)
    bucket_start = np.repeat(starts, n_zones)
    zone_id = np.tile(np.arange(n_zones), len(starts))
    return Dataset(
        bucket_start=bucket_start,
        zone_id=zone_id,
        features=build_features(speed, count),
        labels=label(bucket_start, zone_id, events, bucket_seconds),
    )


def aggregate(
    records: Records, bucket_seconds: int, n_zones: int, duration_s: int
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
    duration = int(duration_s)
    if np.any(times >= duration):
        raise DataError("record time beyond the stated duration")

    # distinct (vehicle, zone, second): keep the first observation.  The kept
    # records come in vehicle-id order, and each cell sums its speeds in
    # that order.
    key = _id_codes(records.vehicle_id)
    key *= n_zones
    key += zones
    key *= duration
    key += times
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


# sorted neighbours ``_id_codes`` compares at once
_ID_BLOCK = 1 << 14


def _id_codes(ids: np.ndarray) -> np.ndarray:
    """Each id's rank among the distinct ids, as int64: the inverse that
    ``np.unique(ids, return_inverse=True)`` gives.  The sort is stable, so it
    runs fast on ids that come partly in order, as generated records do.
    Neighbours in sorted order are gathered ``_ID_BLOCK`` at a time, so no
    sorted copy of the ids is made."""
    order = np.argsort(ids, kind="stable")
    # changed[i]: the id at sorted position i + 1 differs from the one before
    changed = np.empty(max(len(ids) - 1, 0), dtype=bool)
    for start in range(0, len(changed), _ID_BLOCK):
        ordered = ids[order[start : start + _ID_BLOCK + 1]]
        changed[start : start + _ID_BLOCK] = ordered[1:] != ordered[:-1]
    codes = np.zeros(len(ids), dtype=np.int64)
    # the first id in sorted order has rank 0; each change of id adds one
    codes[order[1:]] = np.cumsum(changed)
    return codes


def build_features(speed: np.ndarray, count: np.ndarray) -> np.ndarray:
    """Six features per (bucket, zone) row, buckets outer: own (speed,
    count), then upstream, then downstream (``neighbor_index``).  A
    boundary zone substitutes its own values for the missing neighbor."""
    up, down = neighbor_index(speed.shape[1])
    features = np.stack(
        [speed, count, speed[:, up], count[:, up], speed[:, down], count[:, down]], axis=-1
    )
    return features.reshape(-1, 6)


def label(bucket_start: np.ndarray, zone_id: np.ndarray, events, bucket_seconds: int) -> np.ndarray:
    """1 for every row whose zone has an event overlapping its bucket at all."""
    labels = np.zeros(len(zone_id), dtype=np.int64)
    for event in events:
        overlap = (event.start_s < bucket_start + bucket_seconds) & (bucket_start < event.end_s)
        labels[overlap & (zone_id == event.zone)] = 1
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
#
# ``_read_csv``, the row loop over ``csv.reader``, is the reference reader:
# it decides every error and its message.

_CHUNK_ROWS = 8192
# characters for which ``csv.writer`` quotes a field (or may: \r); the record
# writer refuses a vehicle id that holds one
_CSV_QUOTED = ',"\n\r'
# bytes on which ``np.loadtxt`` could split or parse a file differently from
# ``csv.reader`` and ``int``/``float``: quotes, CR line ends and NULs change
# csv's fields, ``#`` starts a comment when comments are on, and numpy
# strips \x1c-\x1f around a number where ``int``/``float`` reject them
_LOADTXT_UNSAFE = (b'"', b"\r", b"\x00", b"#", b"\x1c", b"\x1d", b"\x1e", b"\x1f")
# longer lines go to the row loop: ``int`` takes at most 640 digits at
# Python's lowest limit setting, and csv caps a field's length
_LOADTXT_LINE_MAX = 640

# a block of the record reader: at most this many lines, within this many bytes
_BLOCK_LINES = 1 << 15
_BLOCK_BYTES = 1 << 20

_INT64 = np.iinfo(np.int64)


def _write_lines(path, header: list[str], n_rows: int, lines) -> None:
    """The header, then ``lines(start, stop)``, the text of rows [start,
    stop), one chunk at a time."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(",".join(header) + "\n")
        for start in range(0, n_rows, _CHUNK_ROWS):
            handle.write(lines(start, start + _CHUNK_ROWS))


def _read_csv(path, header: list[str], parse_row) -> None:
    """Check the header, then hand each non-blank line's fields to
    ``parse_row``; a ``ValueError`` from a line becomes a ``ParseError``
    naming the path and line number."""
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        first = next(reader, None)
        if first is None or [h.strip() for h in first] != header:
            raise FormatError(f"{path}: expected header {','.join(header)}")
        for lineno, fields in enumerate(reader, start=2):
            if not fields:
                continue
            try:
                if len(fields) != len(header):
                    raise ValueError(f"expected {len(header)} fields")
                parse_row(fields)
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: {exc}") from exc


def _bsm_blocks(raw: bytes) -> tuple[int, list, int] | None:
    """Pass 1 of the record reader over a file's bytes: the header's length,
    each block's (bytes, lines) and the widest id in bytes; or None where
    ``np.loadtxt`` cannot stand in for the row loop: a header other than
    ``BSM_HEADER``, a byte of ``_LOADTXT_UNSAFE``, a blank or overlong line,
    or a line without exactly three commas.  A block is at most
    ``_BLOCK_LINES`` whole lines within ``_BLOCK_BYTES`` bytes."""
    if any(byte in raw for byte in _LOADTXT_UNSAFE):
        return None
    head = raw.find(b"\n") + 1 or len(raw)
    if [h.strip() for h in raw[:head].decode("utf-8").rstrip("\n").split(",")] != BSM_HEADER:
        return None
    buf = np.frombuffer(raw, dtype=np.uint8)
    blocks, width, start = [], 0, head
    while start < len(raw):
        window = buf[start : start + _BLOCK_BYTES]
        ends = np.flatnonzero(window == ord("\n"))
        if start + len(window) == len(raw) and raw[-1] != ord("\n"):
            ends = np.append(ends, len(window))  # the last line, unterminated
        ends = ends[:_BLOCK_LINES]
        if not len(ends):  # a line longer than the window
            return None
        lengths = np.diff(ends, prepend=-1) - 1
        commas = np.flatnonzero(window[: ends[-1]] == ord(","))
        per_line = np.diff(np.searchsorted(commas, ends), prepend=0)
        if lengths.min() < 1 or lengths.max() > _LOADTXT_LINE_MAX or np.any(per_line != 3):
            return None
        commas = commas.reshape(-1, 3)  # the id lies between a line's first two
        width = max(width, int((commas[:, 1] - commas[:, 0]).max()) - 1)
        blocks.append((int(ends[-1]) + 1, len(ends)))
        start += int(ends[-1]) + 1
    return head, blocks, width


def _read_bsm_blocks(path) -> Records | None:
    """The records of a CSV parsed by ``np.loadtxt`` one block of lines at a
    time, or None where that parse cannot stand in for the row loop: pass 1
    (``_bsm_blocks``) refuses the file, ``np.loadtxt`` fails, or ``Records``
    refuses a value.

    The file's bytes are dropped after pass 1.  Pass 2 allocates the four
    columns once, then reads each block again, parses it into rows whose id
    has the widest id's byte width, and copies them into the columns, so no
    Python object or parsed row outlives its block.  A byte width
    over-counts a non-ASCII id, so such a column is narrowed to its widest
    id in characters, the width the row loop's column has.
    """
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
        plan = _bsm_blocks(raw)
        ascii_ids = raw.isascii()
        del raw
        if plan is None:
            return None
        head, blocks, width = plan
        n = sum(lines for _, lines in blocks)
        columns = (np.empty(n, np.int64), np.empty(n, f"U{max(width, 1)}"),
                   np.empty(n, np.int64), np.empty(n, np.float64))
        row = np.dtype([(str(i), column.dtype) for i, column in enumerate(columns)])
        done = 0
        with open(path, "rb") as handle:
            handle.seek(head)
            for size, lines in blocks:
                rows = np.loadtxt(
                    handle.read(size).decode("utf-8").split("\n"),
                    dtype=row, delimiter=",", comments=None, ndmin=1,
                )
                if len(rows) != lines:
                    return None
                for name, column in zip(row.names, columns):
                    column[done : done + lines] = rows[name]
                done += lines
                del rows  # before the next block is parsed
        time, vehicle_id, zone, speed = columns
        if not ascii_ids:
            chars = int(np.char.str_len(vehicle_id).max(initial=1))
            vehicle_id = vehicle_id.astype(f"U{chars}", copy=False)
        return Records(time, vehicle_id, zone, speed)
    except Exception:  # the row loop decides what is wrong
        return None


def write_bsm_csv(records: Records, path) -> None:
    """``DataError`` (a ValueError), before the file is opened, for a
    vehicle id that ``csv.writer`` would quote or that holds a NUL, which
    ``read_bsm_csv`` refuses; generated ids never hold one."""
    ids = np.ascontiguousarray(records.vehicle_id)
    points = ids.view(np.uint32)  # the U array as code points
    if np.isin(points, [ord(c) for c in _CSV_QUOTED]).any():
        first = next(vid for vid in ids.tolist() if not set(vid).isdisjoint(_CSV_QUOTED))
        raise DataError(f"vehicle id {first!r} holds a comma, quote, LF or CR")
    # NUL pads each id to the column's width; one inside an id is a code
    # point 0 that the id's length counts
    if np.count_nonzero(points) < np.char.str_len(ids).sum():
        first = next(vid for vid in ids.tolist() if "\x00" in vid)
        raise DataError(f"vehicle id {first!r} holds a NUL character")

    def lines(start, stop):
        return "".join([
            f"{time},{vid},{zone},{speed!r}\n"
            for time, vid, zone, speed in zip(
                records.time[start:stop].tolist(),
                ids[start:stop].tolist(),
                records.zone[start:stop].tolist(),
                records.speed[start:stop].tolist(),
            )
        ])

    _write_lines(path, BSM_HEADER, len(records), lines)


def read_bsm_csv(path) -> Records:
    records = _read_bsm_blocks(path)
    return _read_bsm_rows(path) if records is None else records


def _read_bsm_rows(path) -> Records:
    times, vids, zones, speeds = columns = [], [], [], []

    def parse_row(fields):
        time, zone, speed = int(fields[0]), int(fields[2]), float(fields[3])
        if "\x00" in fields[1]:
            # numpy strings drop trailing NULs, which would merge ids
            raise ValueError("vehicle id contains a NUL character")
        if time < 0:
            raise ValueError(f"time must be >= 0, got {time}")
        if time > _INT64.max:
            raise ValueError(f"time {time} is beyond the int64 range")
        if not _INT64.min <= zone <= _INT64.max:
            raise ValueError(f"zone id {zone} is beyond the int64 range")
        if not math.isfinite(speed) or speed < 0:
            raise ValueError(f"speed must be finite and >= 0, got {speed}")
        times.append(time)
        vids.append(fields[1])
        zones.append(zone)
        speeds.append(speed)

    _read_csv(path, BSM_HEADER, parse_row)
    return Records(*columns)


def write_feature_csv(table: Dataset, path) -> None:
    features = np.ascontiguousarray(table.features, dtype=np.float64)
    line = ",".join(["%s"] * len(FEATURE_HEADER)) + "\n"

    def lines(start, stop):
        chunk = features[start:stop]
        # one repr per distinct float64 bit pattern of the chunk (so -0.0
        # keeps its sign): the neighbor columns repeat the own-zone values
        bits, where = np.unique(chunk.view(np.int64), return_inverse=True)
        texts = np.array([repr(v) for v in bits.view(np.float64).tolist()], dtype=object)
        cells = np.empty((len(chunk), len(FEATURE_HEADER)), dtype=object)
        cells[:, 0] = table.bucket_start[start:stop]
        cells[:, 1] = table.zone_id[start:stop]
        cells[:, 2:8] = texts[where.reshape(-1, 6)]
        cells[:, 8] = table.labels[start:stop]
        return (line * len(cells)) % tuple(cells.ravel())

    _write_lines(path, FEATURE_HEADER, len(table), lines)
