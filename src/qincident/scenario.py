"""Synthetic corridor traffic with scheduled lane-blocking incidents.

The generator models zone-level statistics directly (the downstream pipeline
only ever sees zone aggregates): per (zone, second) the vehicle count is
Poisson with mean ``BASE_RATE`` and per-vehicle speeds are Gaussian, with
standard deviation ``SPEED_NOISE_SD``, around a zone speed profile that is
``FREE_FLOW_SPEED`` away from incidents.  The corridor is fixed; only its
size, length, schedule and seed are settable.  A scheduled incident
reshapes three zones (``data.neighbor_index`` gives the neighbors):

* the incident zone's speed collapses to ``INCIDENT_SPEED`` while its
  demand stays at base;
* the approach-side neighbor (previous zone in travel order) builds a queue,
  its count ramping up to ``QUEUE_GROWTH`` times base and its speed ramping
  down to ``QUEUE_SPEED`` over the incident;
* the departure-side neighbor starves, its count ramping down to zero.

After the incident all three zones relax linearly back to base over
``RECOVERY_S`` seconds.  Generation is a pure function of the config: each
zone draws from its own (seed, zone) random stream, so streams are
bit-reproducible and zones could be generated in parallel.  The records come
out in (time, zone, ordinal) order, the ordinal numbering the vehicles of
one (second, zone) cell, with vehicle ids ``v{zone:02d}-{time}-{ordinal}``;
each zone's draws are placed among the others by cell offsets, not sorted.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from . import data
from .errors import ConfigError, FormatError

FREE_FLOW_SPEED = 30.0  # m/s
SPEED_NOISE_SD = 2.0
BASE_RATE = 4.0  # vehicles per zone-second
INCIDENT_SPEED = 2.0
QUEUE_SPEED = 5.0
QUEUE_GROWTH = 3.0  # approach-zone demand at the incident's end, times base
RECOVERY_S = 15

PREVALENCE_TARGET = 0.022  # auto-scheduling fills the [1%, 3%] band to here
MIN_INCIDENT_S = 40
MAX_INCIDENT_S = 90
EARLY_WINDOW_S = 110  # first incidents land here so prefix splits see positives
EARLY_QUOTA = 8

# The most (zone, second) cells a corridor may hold, about 15 times the
# default 56-zone, 1250 s corridor: every per-cell grid is sized from the
# config, so a larger corridor is refused before anything is allocated.  The
# cap is the largest power of two whose fitted peak RSS stays under 1 GiB:
# ``gen`` peaked at 156 MiB for 2**18 cells and 281 MiB for 2**19, about
# 0.49 KiB a cell, so 2**20 cells fit in about 530 MiB and 2**21 would need
# about 1,030 MiB; ``features`` peaked at 156 and 279 MiB, about 0.48 KiB a
# cell, 525 MiB at 2**20.
MAX_CELLS = 2**20


@dataclass(frozen=True)
class IncidentEvent:
    zone: int
    start_s: int
    duration_s: int

    def __post_init__(self):
        if self.duration_s <= 0:
            raise ValueError(f"duration_s must be > 0, got {self.duration_s}")

    @property
    def end_s(self) -> int:
        return self.start_s + self.duration_s


@dataclass
class ScenarioConfig:
    """One corridor run.  ``incidents`` None means no schedule was given:
    ``generate`` then runs without incidents and ``synthetic_dataset``
    places ``default_schedule``."""

    n_zones: int = 56
    duration_s: int = 1250
    incidents: tuple[IncidentEvent, ...] | None = None
    seed: int = 0

    def __post_init__(self):
        if self.n_zones < 1:
            raise ConfigError(f"n_zones must be >= 1, got {self.n_zones}")
        if self.duration_s < 1:
            raise ConfigError(f"duration_s must be >= 1, got {self.duration_s}")
        if self.n_zones * self.duration_s > MAX_CELLS:
            raise ConfigError(
                f"a corridor of {self.n_zones} zones x {self.duration_s} s has "
                f"{self.n_zones * self.duration_s} cells, above the cap of {MAX_CELLS} "
                "(scenario.MAX_CELLS)"
            )
        if self.incidents is None:
            return
        self.incidents = tuple(self.incidents)
        for event in self.incidents:
            if not 0 <= event.zone < self.n_zones:
                raise ConfigError(f"incident zone {event.zone} outside [0, {self.n_zones})")
            if event.start_s < 0 or event.end_s > self.duration_s:
                raise ConfigError(
                    f"incident [{event.start_s}, {event.end_s}) outside [0, {self.duration_s})"
                )


def _zone_profiles(config: ScenarioConfig) -> tuple[np.ndarray, np.ndarray]:
    """(speed mean, count rate), each [n_zones, duration_s]."""
    duration = config.duration_s
    speed_mean = np.full((config.n_zones, duration), FREE_FLOW_SPEED)
    rate = np.full((config.n_zones, duration), BASE_RATE)
    up, down = data.neighbor_index(config.n_zones)

    def ramp_back(profile: np.ndarray, end: int, end_value: float, base: float):
        stop = min(end + RECOVERY_S, duration)
        frac = (np.arange(end, stop) - end + 1) / RECOVERY_S
        profile[end:stop] = end_value + (base - end_value) * frac

    for event in sorted(config.incidents or (), key=lambda e: (e.start_s, e.zone)):
        zone, start, end = event.zone, event.start_s, event.end_s
        progress = (np.arange(start, end) - start + 1) / event.duration_s
        approach, departure = int(up[zone]), int(down[zone])

        speed_mean[zone, start:end] = INCIDENT_SPEED
        ramp_back(speed_mean[zone], end, INCIDENT_SPEED, FREE_FLOW_SPEED)
        # an earlier incident's queue or starvation may cover this zone
        rate[zone, start : min(end + RECOVERY_S, duration)] = BASE_RATE

        if approach != zone:
            speed_mean[approach, start:end] = (
                FREE_FLOW_SPEED + (QUEUE_SPEED - FREE_FLOW_SPEED) * progress
            )
            rate[approach, start:end] = BASE_RATE * (1.0 + (QUEUE_GROWTH - 1.0) * progress)
            ramp_back(speed_mean[approach], end, QUEUE_SPEED, FREE_FLOW_SPEED)
            ramp_back(rate[approach], end, BASE_RATE * QUEUE_GROWTH, BASE_RATE)

        if departure != zone:
            rate[departure, start:end] = BASE_RATE * (1.0 - progress)
            ramp_back(rate[departure], end, 0.0, BASE_RATE)
    return speed_mean, rate


def generate(config: ScenarioConfig) -> tuple[data.Records, list[IncidentEvent]]:
    """Vehicle record stream plus the incident schedule that shaped it.

    Records are in (time, zone, ordinal) order, where the ordinal numbers a
    vehicle within its (second, zone) cell, and vehicle ids read
    ``v{zone:02d}-{time}-{ordinal}``.  Each zone draws its counts and then
    its speeds from its own (seed, zone) stream; the draws are then placed
    by cell offsets, cell (t, z) starting at the exclusive cumulative sum of
    the time-major counts.
    """
    speed_mean, rate = _zone_profiles(config)
    counts, speeds = _draw(config.seed, speed_mean, rate)
    n_zones, duration = counts.shape
    # time-major cell t * n_zones + z holds the records of (t, z)
    cell_counts = counts.T.ravel()
    times = np.repeat(np.arange(duration), counts.sum(axis=0))
    zones = np.repeat(np.tile(np.arange(n_zones), duration), cell_counts)
    ordinals = np.arange(len(speeds))
    ordinals -= np.repeat(np.cumsum(cell_counts) - cell_counts, cell_counts)
    ids = _vehicle_ids(times, zones, ordinals, counts)
    return data.Records(times, ids, zones, speeds), list(config.incidents or ())


def _draw(seed: int, speed_mean: np.ndarray, rate: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The counts [n_zones, duration] and, in (time, zone, ordinal) order,
    the speeds of the records, each zone's drawn from its (seed, zone)
    stream.  A zone's speeds move to their cells' time-major starts one zone
    at a time, so no zone-major copy of all of them is made."""
    n_zones, duration = rate.shape
    counts = np.empty((n_zones, duration), dtype=np.int64)
    drawn = []
    for zone in range(n_zones):
        rng = np.random.default_rng([seed, zone])
        counts[zone] = rng.poisson(rate[zone])
        speeds = rng.normal(np.repeat(speed_mean[zone], counts[zone]), SPEED_NOISE_SD)
        drawn.append(np.maximum(speeds, 0.0, out=speeds))
    cell_start = (np.cumsum(counts.T) - counts.T.ravel()).reshape(duration, n_zones)
    speeds = np.empty(int(counts.sum()))
    for zone, values in enumerate(drawn):
        # the draws of cell (t, zone) move from their offset among the zone's
        # draws to the cell's time-major start
        shift = cell_start[:, zone] - (np.cumsum(counts[zone]) - counts[zone])
        place = np.repeat(shift, counts[zone])
        place += np.arange(len(values))
        speeds[place] = values
    return counts, speeds


# rows of ids built at once; bounds the text temporaries of ``_vehicle_ids``
_ID_BLOCK = 1 << 14


def _vehicle_ids(
    times: np.ndarray, zones: np.ndarray, ordinals: np.ndarray, counts: np.ndarray
) -> np.ndarray:
    """The ids ``v{zone:02d}-{time}-{ordinal}`` of the records, added up from
    one text table per part, ``_ID_BLOCK`` rows at a time, into one column
    as wide as the longest id, the width a column of Python strings gets.
    ``counts`` [n_zones, duration] holds each cell's records."""
    n_zones, duration = counts.shape
    zone_text = np.array([f"v{z:02d}-" for z in range(n_zones)])
    time_text = np.array([f"{t}-" for t in range(duration)])
    ordinal_text = np.array([str(o) for o in range(int(counts.max()))], dtype=str)
    # a cell's longest id is its last ordinal's; last_ordinal[c] is that
    # ordinal's length in a cell of c records
    last_ordinal = np.concatenate(([0], np.char.str_len(ordinal_text)))
    longest = (
        np.char.str_len(zone_text)[:, np.newaxis] + np.char.str_len(time_text) + last_ordinal[counts]
    )
    ids = np.empty(len(times), dtype=f"U{longest[counts > 0].max(initial=1)}")
    for start in range(0, len(ids), _ID_BLOCK):
        block = slice(start, start + _ID_BLOCK)
        ids[block] = np.char.add(
            np.char.add(zone_text[zones[block]], time_text[times[block]]),
            ordinal_text[ordinals[block]],
        )
    return ids


def synthetic_dataset(
    config: ScenarioConfig, bucket_seconds: int, n_incidents: int | None = None
) -> data.Dataset:
    """The labeled rows of one synthetic corridor: ``default_schedule``,
    ``generate`` and ``data.build_dataset`` over [0, config.duration_s).

    ``config.incidents`` is the schedule when it is given, even empty;
    when it is None, ``default_schedule`` places ``n_incidents`` (default:
    auto) for this bucketing.
    """
    if config.incidents is None:
        events = default_schedule(config, n_incidents=n_incidents, bucket_seconds=bucket_seconds)
    else:
        events = list(config.incidents)
    records, _ = generate(replace(config, incidents=tuple(events)))
    return data.build_dataset(
        records, events, config.n_zones, bucket_seconds, duration_s=config.duration_s
    )


def _affected_zones(zone: int, neighbors: tuple[np.ndarray, np.ndarray]) -> set[int]:
    up, down = neighbors
    return {zone, int(up[zone]), int(down[zone])}


def _rows(event: IncidentEvent, duration_s: int, bucket_seconds: int):
    """The (zone, bucket) rows that ``event`` labels positive."""
    first = event.start_s // bucket_seconds
    last = min(event.end_s - 1, duration_s - 1) // bucket_seconds
    return ((event.zone, b) for b in range(first, last + 1))


def positive_rows(events: list[IncidentEvent], duration_s: int, bucket_seconds: int) -> int:
    """How many (zone, bucket) rows the schedule will label positive."""
    covered: set[tuple[int, int]] = set()
    for event in events:
        covered.update(_rows(event, duration_s, bucket_seconds))
    return len(covered)


def default_schedule(
    config: ScenarioConfig,
    n_incidents: int | None = None,
    bucket_seconds: int = 1,
) -> list[IncidentEvent]:
    """Non-colliding incidents sized so positives land in the 1-3% band.

    With ``n_incidents`` None, events are added until the positive-label
    prevalence, measured in the given bucketing, reaches the target; since
    one extra incident moves prevalence by well under the band margin, the
    result always lands inside [1%, 3%].  The first few incidents are
    minute-aligned inside the early window, so chronological prefix splits
    (down to DS-3's 150 rows) hold enough clean positive examples to learn
    from at the fixed epoch budget.  No two incidents touch the same or
    adjacent zones in overlapping effect windows.
    """
    if n_incidents is not None and n_incidents < 0:
        raise ConfigError(f"n_incidents must be >= 0, got {n_incidents}")
    if n_incidents == 0:
        return []
    rng = np.random.default_rng([config.seed, 104729])
    neighbors = data.neighbor_index(config.n_zones)
    n_rows = config.n_zones * math.ceil(config.duration_s / bucket_seconds)
    pad = 10
    events: list[IncidentEvent] = []
    blocks: dict[int, list[tuple[int, int]]] = {}  # zone -> the placed windows on it

    def collides(zones: set[int], start: int, end: int) -> bool:
        # only the affected zones' windows: placing is linear in the incidents
        lo, hi = start - pad, end + RECOVERY_S + pad
        return any(lo < b_hi and b_lo < hi for zone in zones for b_lo, b_hi in blocks.get(zone, ()))

    def place(early: bool) -> IncidentEvent:
        for _ in range(200):
            duration = int(rng.integers(MIN_INCIDENT_S, MAX_INCIDENT_S + 1))
            if duration > config.duration_s:
                duration = config.duration_s
            if early:
                # minute-aligned long incidents: the training prefix then holds
                # fully-covered positive rows even under per-minute bucketing
                duration = min(max(duration, 70), config.duration_s)
                starts = [
                    s for s in (0, 60)
                    if s <= EARLY_WINDOW_S and s + duration <= config.duration_s
                ]
                start = int(rng.choice(starts)) if starts else 0
            else:
                lo = EARLY_WINDOW_S + pad if config.duration_s - duration > 2 * EARLY_WINDOW_S else 0
                start = int(rng.integers(lo, config.duration_s - duration + 1))
            zone = int(rng.integers(0, config.n_zones))
            zones = _affected_zones(zone, neighbors)
            if not collides(zones, start, start + duration):
                for affected in zones:
                    blocks.setdefault(affected, []).append((start, start + duration))
                return IncidentEvent(zone, start, duration)
        raise ConfigError("cannot fit incident schedule without overlap")

    # the early seeding is best-effort: small topologies only fit a few
    # disjoint affected-zone triples at overlapping times
    early_quota = min(EARLY_QUOTA, max(1, config.n_zones // 4))
    if n_incidents is not None:
        early_quota = min(early_quota, n_incidents)
    covered: set[tuple[int, int]] = set()  # the rows the placed events label
    while n_incidents is None or len(events) < n_incidents:
        if (
            n_incidents is None
            and len(events) >= early_quota
            and len(covered) / n_rows >= PREVALENCE_TARGET
        ):
            break
        events.append(place(early=len(events) < early_quota))
        covered.update(_rows(events[-1], config.duration_s, bucket_seconds))
    events.sort(key=lambda e: (e.start_s, e.zone))
    return events


_SCHEDULE_KEYS = ("zone", "start_s", "duration_s")


def write_schedule_json(events: list[IncidentEvent], path) -> None:
    doc = [{key: getattr(event, key) for key in _SCHEDULE_KEYS} for event in events]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")


def read_schedule_json(path) -> list[IncidentEvent]:
    """The schedule in ``path``: a JSON array of objects with integer
    ``zone``, ``start_s`` and ``duration_s`` (> 0) and no other key.
    Anything else raises ``FormatError`` naming the path and, for a bad
    entry, its index."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            doc = json.load(handle)
        except ValueError as exc:
            raise FormatError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(doc, list):
        raise FormatError(f"{path}: expected a JSON array of incident objects")
    events = []
    for i, entry in enumerate(doc):
        if not isinstance(entry, dict):
            raise FormatError(f"{path}: entry {i}: expected an object, got {entry!r}")
        unknown = [key for key in entry if key not in _SCHEDULE_KEYS]
        if unknown:
            raise FormatError(f"{path}: entry {i}: unknown key {unknown[0]!r}")
        values = []
        for key in _SCHEDULE_KEYS:
            if key not in entry:
                raise FormatError(f"{path}: entry {i}: missing {key!r}")
            value = entry[key]
            if type(value) is not int:  # bool, float and str are not integers here
                raise FormatError(f"{path}: entry {i}: {key} must be an integer, got {value!r}")
            values.append(value)
        if values[2] <= 0:
            raise FormatError(f"{path}: entry {i}: duration_s must be > 0, got {values[2]}")
        events.append(IncidentEvent(*values))
    return events
