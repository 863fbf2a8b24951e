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
out in (time, zone, draw) order, and record i has vehicle code i; each
zone's draws are placed among the others by cell offsets, not sorted.
``cell_grids`` sums the same draws, one zone at a time, straight into the
per-cell grids that ``data.aggregate`` makes of the records, so
``synthetic_dataset`` never holds a record.
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
# default 56-zone, 1250 s corridor.  Every per-cell grid is sized from the
# config and the records ``gen`` draws grow with the cells, so this caps
# both; a larger corridor is refused before anything is allocated.
MAX_CELLS = 2**20


@dataclass(frozen=True)
class IncidentEvent:
    zone: int
    start_s: int
    duration_s: int

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


def _zone_draws(seed: int, speed_mean: np.ndarray, rate: np.ndarray):
    """Zone by zone, the counts [duration] and then the (time, ordinal)
    ordered speeds that the zone's (seed, zone) stream draws."""
    for zone in range(len(rate)):
        rng = np.random.default_rng([seed, zone])
        counts = rng.poisson(rate[zone])
        speeds = rng.normal(np.repeat(speed_mean[zone], counts), SPEED_NOISE_SD)
        yield counts, np.maximum(speeds, 0.0, out=speeds)


def generate(config: ScenarioConfig) -> tuple[data.Records, list[IncidentEvent]]:
    """Vehicle record stream plus the incident schedule that shaped it.

    Records are in (time, zone, draw) order, and a record's vehicle code is
    its index.  Each zone's draws (``_zone_draws``) move to their cells'
    time-major starts one zone at a time, so no zone-major copy of all of
    them is made.
    """
    n_zones, duration = config.n_zones, config.duration_s
    # the counts are made before the draws and the profiles freed only after
    # the placement: in that order the freed draws go back to the system
    speed_mean, rate = _zone_profiles(config)
    counts = np.empty((n_zones, duration), dtype=np.int64)
    drawn = []
    for zone, (counts[zone], values) in enumerate(_zone_draws(config.seed, speed_mean, rate)):
        drawn.append(values)
    cell_start = (np.cumsum(counts.T) - counts.T.ravel()).reshape(duration, n_zones)
    speeds = np.empty(int(counts.sum()))
    for zone, (zone_counts, values) in enumerate(zip(counts, drawn)):
        # the draws of cell (t, zone) move from their offset among the zone's
        # draws to the cell's time-major start
        place = np.repeat(cell_start[:, zone] - (np.cumsum(zone_counts) - zone_counts), zone_counts)
        place += np.arange(len(values))
        speeds[place] = values
    del drawn, speed_mean, rate
    # time-major cell t * n_zones + z holds the records of (t, z); the zones
    # overwrite the cells
    cells = np.repeat(np.arange(n_zones * duration), counts.T.ravel())
    times, zones = np.divmod(cells, n_zones, out=(np.empty_like(cells), cells))
    return data.Records(times, np.arange(len(speeds)), zones, speeds), list(config.incidents or ())


def cell_grids(config: ScenarioConfig) -> np.ndarray:
    """The [2, n_zones, duration_s] vehicle counts and speed sums per
    (zone, second) cell of ``generate``'s records, bit for bit what
    ``data.aggregate`` makes of them, summed from each zone's draws one zone
    at a time: each cell sums its speeds in draw order, which is code order."""
    duration = config.duration_s
    grids = np.empty((2, config.n_zones, duration))
    for zone, (counts, speeds) in enumerate(_zone_draws(config.seed, *_zone_profiles(config))):
        grids[0, zone] = counts
        grids[1, zone] = np.bincount(np.repeat(np.arange(duration), counts), weights=speeds,
                                     minlength=duration)
    return grids


def synthetic_dataset(
    config: ScenarioConfig, bucket_seconds: int, n_incidents: int | None = None
) -> data.Dataset:
    """The labeled rows of one synthetic corridor: ``default_schedule``,
    ``cell_grids`` and ``data.grid_dataset`` over [0, config.duration_s),
    the rows ``data.aggregate`` then ``grid_dataset`` make of ``generate``'s records.

    ``config.incidents`` is the schedule when it is given, even empty;
    when it is None, ``default_schedule`` places ``n_incidents`` (default:
    auto) for this bucketing.
    """
    if config.incidents is None:
        events = default_schedule(config, n_incidents=n_incidents, bucket_seconds=bucket_seconds)
    else:
        events = list(config.incidents)
    grids = cell_grids(replace(config, incidents=tuple(events)))
    return data.grid_dataset(grids, events, bucket_seconds)


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
    prevalence, measured in the given bucketing, reaches the target.  The
    first ``EARLY_QUOTA`` (at most) are placed before it is checked, and one
    incident labels at most 90 per-second or 3 per-minute rows, so the
    result lands inside [2.2%, 3%] on a corridor of at least 24,000
    per-second or 800 per-minute rows, as the default ones (70,000 and
    1,400) are.  A smaller corridor may overshoot: 2 zones x 30 s give
    50%, 1 zone x 1 s 100%.  The first few incidents are
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
                starts = [s for s in (0, 60) if s + duration <= config.duration_s]
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
