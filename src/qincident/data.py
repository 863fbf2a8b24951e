"""Feature pipeline, in columns from the vehicle records to the splits.

``Records`` holds vehicle observations as parallel arrays, each vehicle an
int64 code; id text exists only in the record CSV.  A ``Dataset`` comes
from the [2, n_zones, duration] vehicle counts and speed sums per (zone,
second) cell, made by ``aggregate`` from records or by
``scenario.cell_grids`` from the generator's draws, through one tail,
``grid_dataset``: the cells sum into one- or sixty-second buckets;
``build_features`` forms six features per (bucket, zone), the zone's own
mean speed and count then its upstream and downstream neighbor's; ``label``
marks rows that overlap an incident.  The corridor's two directions of
travel are fixed, zones [0, ceil(n/2)) and [ceil(n/2), n), and
``neighbor_index`` gives each zone's neighbors along them.  ``split`` cuts
a ``Dataset`` into the chronological DS-1/DS-2/DS-3 regimes, min-max scaled
by ``normalize`` with bounds fitted on the training rows.

File formats (all UTF-8, LF):

* vehicle records CSV, header ``time_s,vehicle_id,zone_id,speed_mps``;
* feature CSV, header
  ``bucket_start_s,zone_id,spd_z,cnt_z,spd_up,cnt_up,spd_dn,cnt_dn,label``.

The writers give the bytes ``csv.writer`` would, floats as ``repr``, a
chunk of rows at a time; the feature writer takes one ``repr`` per distinct
value of a chunk.  The record writer spells a vehicle code ``v`` plus the
code, zero-padded to the widest code.  Only the record CSV is read back, in
two passes over its lines, a block at a time.  The first checks the bytes
and finds the widest id; the second parses each block with ``np.loadtxt``
into fixed-width rows, the ids as UTF-8 bytes, and copies them into columns
allocated once, so no more than a block is ever held as Python objects.
Each distinct id then becomes its rank among the file's ids as text (UTF-8
bytes sort in code-point order).  A file that parse could read differently
from ``csv.reader`` (a quote, CR, NUL, \x1c-\x1f, a blank or overlong
line, a line without three commas, bytes that are not UTF-8), or whose
values fail a check, is read again row by row through ``csv.reader``, which
returns the same values or raises the same ``path:line: message`` error.
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
    """Vehicle observations as parallel columns: the second, the vehicle
    code, the zone and the speed of each.  Records with equal codes are the
    same vehicle."""

    time: np.ndarray  # int64
    vehicle_id: np.ndarray  # int64, >= 0
    zone: np.ndarray  # int64
    speed: np.ndarray  # float64

    def __post_init__(self):
        self.time = np.asarray(self.time, dtype=np.int64)
        self.vehicle_id = np.asarray(self.vehicle_id, dtype=np.int64)
        self.zone = np.asarray(self.zone, dtype=np.int64)
        self.speed = np.asarray(self.speed, dtype=np.float64)
        if np.any(self.time < 0):
            raise ValueError("record times must be >= 0")
        if np.any(self.vehicle_id < 0):
            raise ValueError("vehicle codes must be >= 0")
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


def aggregate(records: Records, n_zones: int, duration_s: int) -> np.ndarray:
    """The [2, n_zones, duration_s] distinct-vehicle counts and speed sums
    per (zone, second) cell.

    Repeated observations of a vehicle within one (zone, second) count once,
    the first of them; each cell sums its speeds in vehicle-code order.  A
    record outside the corridor is a ``DataError`` naming the first one.
    """
    times, zones = records.time, records.zone
    duration = int(duration_s)
    outside = (zones < 0) | (zones >= n_zones) | (times >= duration)
    if outside.any():
        row = int(outside.argmax())
        raise DataError(f"record at {times[row]} s in zone {zones[row]} outside "
                        f"the corridor of {n_zones} zones x {duration} s")
    del outside
    grid_size = n_zones * duration
    if np.any(records.vehicle_id > (_INT64.max - grid_size + 1) // max(grid_size, 1)):
        raise DataError(
            f"vehicle code {records.vehicle_id.max()} overflows an int64 key over {grid_size} cells"
        )

    # distinct (vehicle, zone, second): keep the first observation.  The kept
    # records come in vehicle-code order, and each cell sums its speeds in
    # that order.
    key = records.vehicle_id * n_zones
    key += zones
    key *= duration
    key += times
    order, new = _sorted_runs(key)
    del key
    first = order[new]
    del order, new
    speed = records.speed[first]
    # each kept record's cell overwrites its index, a block at a time
    cell = first
    for start in range(0, len(cell), _SORTED_BLOCK):
        kept = cell[start : start + _SORTED_BLOCK]
        kept[:] = zones[kept] * duration + times[kept]
    grids = np.empty((2, grid_size))
    grids[0] = np.bincount(cell, minlength=grid_size)
    grids[1] = np.bincount(cell, weights=speed, minlength=grid_size)
    return grids.reshape(2, n_zones, duration)


def grid_dataset(grids: np.ndarray, events, bucket_seconds: int) -> Dataset:
    """The labeled rows of ``grids``, each cell's vehicle count and speed
    sum [2, n_zones, duration]: buckets, then ``build_features``, ``label``.
    A bucket's count is the mean of its per-second counts over the seconds
    it covers, and its speed the mean over all its vehicles; an empty
    bucket has count 0 and speed ``EMPTY_SPEED_FILL``."""
    if bucket_seconds not in BUCKET_SIZES:
        raise ConfigError(f"bucket_seconds must be one of {BUCKET_SIZES}, got {bucket_seconds}")
    _, n_zones, duration = grids.shape
    starts = np.arange(0, duration, bucket_seconds)
    sums = np.empty((2, len(starts), n_zones))
    for b, start in enumerate(starts):
        sums[:, b] = grids[:, :, start : start + bucket_seconds].sum(axis=2)
    count, speed_sum = sums
    speed = np.where(count > 0, speed_sum / np.where(count > 0, count, 1.0), EMPTY_SPEED_FILL)
    covered = np.minimum(starts + bucket_seconds, duration) - starts
    count = count / covered[:, np.newaxis]
    del sums, speed_sum  # before the features are built
    bucket_start = np.repeat(starts, n_zones)
    zone_id = np.tile(np.arange(n_zones), len(starts))
    return Dataset(
        bucket_start=bucket_start,
        zone_id=zone_id,
        features=build_features(speed, count),
        labels=label(bucket_start, zone_id, events, bucket_seconds),
    )


def build_features(speed: np.ndarray, count: np.ndarray) -> np.ndarray:
    """Six features per (bucket, zone) row, buckets outer: own (speed,
    count), then upstream, then downstream (``neighbor_index``).  A
    boundary zone substitutes its own values for the missing neighbor."""
    features = np.empty(speed.shape + (6,))
    # one zone column at a time, not a stacked copy of all six
    for column, zones in enumerate((np.arange(speed.shape[1]), *neighbor_index(speed.shape[1]))):
        features[..., 2 * column] = speed[:, zones]
        features[..., 2 * column + 1] = count[:, zones]
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
    per-feature bounds of its training rows."""

    name: str
    train_x: np.ndarray
    train_y: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray


# canonical (train, total) sizes; other source sizes scale proportionally
SPLIT_SIZES = {
    "DS-1": (40000, 70000),
    "DS-2": (15000, 70000),
    "DS-3": (150, 1400),
}


def normalize(train: np.ndarray, test: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Min-max scaling fitted on the training rows: (train', test') with
    x' = (x - min) / (max - min).  A constant feature maps to 0; test rows
    are not clamped."""
    mins, maxs = train.min(axis=0), train.max(axis=0)
    span = maxs - mins
    safe = np.where(span > 0, span, 1.0)

    def scale(features: np.ndarray) -> np.ndarray:
        return np.where(span > 0, (features - mins) / safe, 0.0)

    return scale(train), scale(test)


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
    train_x, test_x = normalize(table.features[:train_size], table.features[train_size:])
    return DatasetSplit(
        name=name,
        train_x=train_x,
        train_y=table.labels[:train_size],
        test_x=test_x,
        test_y=table.labels[train_size:],
    )


# -- CSV interchange ---------------------------------------------------------------
#
# ``_read_bsm_rows``, the row loop over ``csv.reader``, is the reference
# reader: it decides every error and its message.

_CHUNK_ROWS = 8192
# bytes on which ``np.loadtxt`` could split or parse a file differently from
# ``csv.reader`` and ``int``/``float``: quotes, CR line ends and NULs change
# csv's fields, and numpy strips \x1c-\x1f around a number where
# ``int``/``float`` reject them
_LOADTXT_UNSAFE = (b'"', b"\r", b"\x00", b"\x1c", b"\x1d", b"\x1e", b"\x1f")
# longer lines go to the row loop: ``int`` takes at most 640 digits at
# Python's lowest limit setting, and csv caps a field's length
_LOADTXT_LINE_MAX = 640

# a block of the record reader: at most this many lines, within this many bytes
_BLOCK_LINES = 1 << 15
_BLOCK_BYTES = 1 << 20

_INT64 = np.iinfo(np.int64)

# sorted neighbours ``_sorted_runs`` compares at once
_SORTED_BLOCK = 1 << 14


def _sorted_runs(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(order, new): the stable argsort of ``values`` and, per sorted
    position, whether its value differs from the one before (the first
    always does), so ``order[new]`` indexes each distinct value's first
    occurrence, as ``np.unique(values, return_index=True)`` gives.  The sort
    is stable, so it runs fast on values that come partly in order, as
    written records do.  Neighbours in sorted order are gathered
    ``_SORTED_BLOCK`` at a time, so no sorted copy of ``values`` is made."""
    order = np.argsort(values, kind="stable")
    new = np.empty(len(values), dtype=bool)
    new[:1] = True
    for start in range(0, len(values) - 1, _SORTED_BLOCK):
        ordered = values[order[start : start + _SORTED_BLOCK + 1]]
        new[start + 1 : start + _SORTED_BLOCK + 1] = ordered[1:] != ordered[:-1]
    return order, new


def _id_codes(ids: np.ndarray) -> np.ndarray:
    """Each id's rank among the distinct ids, as int64: the inverse that
    ``np.unique(ids, return_inverse=True)`` gives (``_sorted_runs``)."""
    order, new = _sorted_runs(ids)
    codes = np.empty(len(ids), dtype=np.int64)
    # the first id in sorted order has rank 0; each change of id adds one.
    # The ranks go ``_SORTED_BLOCK`` at a time, each block carrying on from
    # the last rank of the one before.
    last = -1
    for start in range(0, len(ids), _SORTED_BLOCK):
        ranks = np.cumsum(new[start : start + _SORTED_BLOCK])
        ranks += last
        codes[order[start : start + _SORTED_BLOCK]] = ranks
        last = ranks[-1]
    return codes


def _write_lines(path, header: list[str], line: str, n_rows: int, columns) -> None:
    """The header, then each row of [0, n_rows) as ``line`` %-formatted with
    its cells of ``columns(start, stop)``, the columns of rows [start, stop)."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(",".join(header) + "\n")
        for start in range(0, n_rows, _CHUNK_ROWS):
            chunk = columns(start, start + _CHUNK_ROWS)
            cells = np.empty((len(chunk[0]), len(chunk)), dtype=object)
            for i, column in enumerate(chunk):
                cells[:, i] = column
            handle.write((line * len(cells)) % tuple(cells.ravel()))


def _bsm_blocks(raw: bytes) -> tuple[int, list, int] | None:
    """Pass 1 of the record reader over a file's bytes: the header's length,
    each block's (bytes, lines) and the widest id in bytes; or None where
    ``np.loadtxt`` cannot stand in for the row loop: a header other than
    ``BSM_HEADER``, a byte of ``_LOADTXT_UNSAFE``, an overlong line, or a
    line without exactly three commas, a blank one among them.  A block is
    at most ``_BLOCK_LINES`` whole lines within ``_BLOCK_BYTES`` bytes."""
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
        if lengths.max() > _LOADTXT_LINE_MAX or np.any(per_line != 3):
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
    Python object or parsed row outlives its block.  The id column holds
    each id's UTF-8 bytes; it is then coded and dropped.
    """
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
        plan = _bsm_blocks(raw)
        del raw
        if plan is None:
            return None
        head, blocks, width = plan
        n = sum(lines for _, lines in blocks)
        columns = (np.empty(n, np.int64), np.empty(n, f"S{max(width, 1)}"),
                   np.empty(n, np.int64), np.empty(n, np.float64))
        row = np.dtype([(str(i), column.dtype) for i, column in enumerate(columns)])
        done = 0
        with open(path, "rb") as handle:
            handle.seek(head)
            for size, lines in blocks:
                block = handle.read(size)
                block.decode("utf-8")  # the row loop names a line that is not UTF-8
                # latin-1 text has one character per byte, and the id column
                # takes back those bytes
                rows = np.loadtxt(
                    block.decode("latin-1").split("\n"),
                    dtype=row, delimiter=",", comments=None, ndmin=1,
                )
                if len(rows) != lines:
                    return None  # np.loadtxt read another row count than pass 1
                for name, column in zip(row.names, columns):
                    column[done : done + lines] = rows[name]
                done += lines
                del block, rows  # before the next block is read
        time, ids, zone, speed = columns
        return Records(time, _id_codes(ids), zone, speed)
    except Exception:  # the row loop decides what is wrong
        return None


def write_bsm_csv(records: Records, path) -> None:
    """Each vehicle code is written as its id ``v`` plus the code, zero-padded
    to the widest code's digits, so the ids sort as the codes do and
    ``read_bsm_csv`` gives back the codes' ranks."""
    width = len(str(records.vehicle_id.max(initial=0)))
    line = f"%d,v%0{width}d,%d,%r\n"
    columns = (records.time, records.vehicle_id, records.zone, records.speed)
    _write_lines(path, BSM_HEADER, line, len(records),
                 lambda start, stop: [column[start:stop] for column in columns])


def read_bsm_csv(path) -> Records:
    records = _read_bsm_blocks(path)
    return _read_bsm_rows(path) if records is None else records


def _read_bsm_rows(path) -> Records:
    """The records of a CSV read row by row through ``csv.reader``: the
    header is checked, then each non-blank line's fields are parsed, and a
    ``ValueError`` from a line, bytes that are not UTF-8 among them, or a
    field longer than csv's limit becomes a ``ParseError`` naming the path
    and the line the row ends on."""
    times, vids, zones, speeds = [], [], [], []
    # a byte that is not UTF-8 decodes to a lone surrogate, \udc80-\udcff,
    # which its line reports
    with open(path, "r", encoding="utf-8", errors="surrogateescape", newline="") as handle:
        reader = csv.reader(handle)
        first = next(reader, None)
        if first is None or [h.strip() for h in first] != BSM_HEADER:
            raise FormatError(f"{path}: expected header {','.join(BSM_HEADER)}")
        try:
            for fields in reader:
                if not fields:
                    continue
                if len(fields) != len(BSM_HEADER):
                    raise ValueError(f"expected {len(BSM_HEADER)} fields")
                if not "".join(fields).isascii():
                    for name, text in zip(BSM_HEADER, fields):
                        if any("\udc80" <= char <= "\udcff" for char in text):
                            raw = text.encode("utf-8", "surrogateescape")
                            raise ValueError(f"{name} {raw!r} is not UTF-8")
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
        except (ValueError, csv.Error) as exc:  # csv.Error: a field longer than csv's limit
            raise ParseError(f"{path}:{reader.line_num}: {exc}") from exc
    return Records(times, _id_codes(np.array(vids, dtype=str)), zones, speeds)


def write_feature_csv(table: Dataset, path) -> None:
    features = np.ascontiguousarray(table.features, dtype=np.float64)
    line = ",".join(["%s"] * len(FEATURE_HEADER)) + "\n"

    def columns(start, stop):
        # one repr per distinct float64 bit pattern of the chunk (so -0.0
        # keeps its sign): the neighbor columns repeat the own-zone values
        bits, where = np.unique(features[start:stop].view(np.int64), return_inverse=True)
        texts = np.array([repr(v) for v in bits.view(np.float64).tolist()], dtype=object)
        return (table.bucket_start[start:stop], table.zone_id[start:stop],
                *texts[where.reshape(-1, 6).T], table.labels[start:stop])

    _write_lines(path, FEATURE_HEADER, line, len(table), columns)
