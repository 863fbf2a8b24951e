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
bit-reproducible and zones could be generated in parallel.
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
    """Vehicle record stream plus the incident schedule that shaped it."""
    speed_mean, rate = _zone_profiles(config)
    events = list(config.incidents or ())

    all_times: list[np.ndarray] = []
    all_zones: list[np.ndarray] = []
    all_speeds: list[np.ndarray] = []
    all_ordinals: list[np.ndarray] = []
    for zone in range(config.n_zones):
        rng = np.random.default_rng([config.seed, zone])
        counts = rng.poisson(rate[zone])
        total = int(counts.sum())
        if total == 0:
            continue
        times = np.repeat(np.arange(config.duration_s), counts)
        means = np.repeat(speed_mean[zone], counts)
        speeds = np.maximum(rng.normal(means, SPEED_NOISE_SD), 0.0)
        ordinals = np.concatenate([np.arange(c) for c in counts if c > 0])
        all_times.append(times)
        all_zones.append(np.full(total, zone))
        all_speeds.append(speeds)
        all_ordinals.append(ordinals)

    if not all_times:
        return data.Records([], [], [], []), events
    times = np.concatenate(all_times)
    zones = np.concatenate(all_zones)
    speeds = np.concatenate(all_speeds)
    ordinals = np.concatenate(all_ordinals)
    order = np.lexsort((ordinals, zones, times))
    times, zones, speeds, ordinals = times[order], zones[order], speeds[order], ordinals[order]
    vehicle_ids = [
        f"v{zone:02d}-{time}-{ordinal}"
        for zone, time, ordinal in zip(zones.tolist(), times.tolist(), ordinals.tolist())
    ]
    return data.Records(times, vehicle_ids, zones, speeds), events


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


def _positive_rows(events: list[IncidentEvent], duration_s: int, bucket_seconds: int) -> int:
    """How many (zone, bucket) rows the schedule will label positive."""
    covered: set[tuple[int, int]] = set()
    for event in events:
        first = event.start_s // bucket_seconds
        last = min(event.end_s - 1, duration_s - 1) // bucket_seconds
        covered.update((event.zone, b) for b in range(first, last + 1))
    return len(covered)


def default_schedule(
    config: ScenarioConfig,
    n_incidents: int | None = None,
    rng: np.random.Generator | None = None,
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
    if rng is None:
        rng = np.random.default_rng([config.seed, 104729])
    neighbors = data.neighbor_index(config.n_zones)
    n_rows = config.n_zones * math.ceil(config.duration_s / bucket_seconds)
    pad = 10
    events: list[IncidentEvent] = []
    blocks: list[tuple[set[int], int, int]] = []

    def collides(zones: set[int], start: int, end: int) -> bool:
        lo, hi = start - pad, end + RECOVERY_S + pad
        return any(zs & zones and lo < b_hi and b_lo < hi for zs, b_lo, b_hi in blocks)

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
                blocks.append((zones, start, start + duration))
                return IncidentEvent(zone, start, duration)
        raise ConfigError("cannot fit incident schedule without overlap")

    # the early seeding is best-effort: small topologies only fit a few
    # disjoint affected-zone triples at overlapping times
    early_quota = min(EARLY_QUOTA, max(1, config.n_zones // 4))
    if n_incidents is not None:
        early_quota = min(early_quota, n_incidents)
    while True:
        if n_incidents is not None:
            if len(events) >= n_incidents:
                break
        elif (
            len(events) >= early_quota
            and _positive_rows(events, config.duration_s, bucket_seconds) / n_rows
            >= PREVALENCE_TARGET
        ):
            break
        event = place(early=len(events) < early_quota)
        events.append(event)
    events.sort(key=lambda e: (e.start_s, e.zone))
    return events


def write_schedule_json(events: list[IncidentEvent], path) -> None:
    doc = [
        {"zone": e.zone, "start_s": e.start_s, "duration_s": e.duration_s}
        for e in events
    ]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")


def read_schedule_json(path) -> list[IncidentEvent]:
    """The schedule in ``path``: a JSON array of objects with integer
    ``zone``, ``start_s`` and ``duration_s`` (> 0).  Anything else raises
    ``FormatError`` naming the path and, for a bad entry, its index."""
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
        values = []
        for key in ("zone", "start_s", "duration_s"):
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
