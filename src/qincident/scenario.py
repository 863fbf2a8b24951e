"""Synthetic corridor traffic with scheduled lane-blocking incidents.

The generator models zone-level statistics directly (the downstream pipeline
only ever sees zone aggregates): per (zone, second) the vehicle count is
Poisson and per-vehicle speeds are Gaussian around a zone speed profile.
A scheduled incident reshapes three zones:

* the incident zone's speed collapses to ``incident_speed``;
* the approach-side neighbor (previous zone in travel order) builds a queue,
  its count ramping up to ``queue_growth`` times baseline and its speed
  ramping down to ``queue_speed`` over the incident;
* the departure-side neighbor starves, its count ramping toward zero.

After the incident all three zones relax linearly back to baseline over
``recovery_s`` seconds.  Generation is a pure function of the config: each
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
    n_zones: int = 56
    duration_s: int = 1250
    free_flow_speed: float = 30.0
    speed_noise_sd: float = 2.0
    demand_rate: float = 4.0
    incidents: tuple[IncidentEvent, ...] = ()
    queue_growth: float = 3.0
    starvation: float = 1.0
    recovery_s: int = 15
    incident_speed: float = 2.0
    queue_speed: float = 5.0
    blocked_flow: float = 1.0  # incident-zone count factor (1.0: unchanged demand)
    penetration: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.n_zones < 1:
            raise ConfigError(f"n_zones must be >= 1, got {self.n_zones}")
        if self.duration_s < 1:
            raise ConfigError(f"duration_s must be >= 1, got {self.duration_s}")
        if self.free_flow_speed <= 0 or self.demand_rate <= 0:
            raise ConfigError("free_flow_speed and demand_rate must be positive")
        if self.speed_noise_sd < 0 or self.recovery_s < 0:
            raise ConfigError("speed_noise_sd and recovery_s must be >= 0")
        if not 0.0 < self.penetration <= 1.0:
            raise ConfigError(f"penetration must be in (0, 1], got {self.penetration}")
        self.incidents = tuple(self.incidents)
        for event in self.incidents:
            if not 0 <= event.zone < self.n_zones:
                raise ConfigError(f"incident zone {event.zone} outside [0, {self.n_zones})")
            if event.start_s < 0 or event.end_s > self.duration_s:
                raise ConfigError(
                    f"incident [{event.start_s}, {event.end_s}) outside [0, {self.duration_s})"
                )


def _zone_profiles(config: ScenarioConfig, neighbors: tuple[np.ndarray, np.ndarray]):
    """Per-zone speed-mean and count-rate profiles over [0, duration);
    ``neighbors`` are the (upstream, downstream) index arrays of the zones."""
    duration = config.duration_s
    base_speed = config.free_flow_speed
    base_rate = config.demand_rate
    speed_mean = {z: np.full(duration, base_speed) for z in range(config.n_zones)}
    rate = {z: np.full(duration, base_rate) for z in range(config.n_zones)}

    def ramp_back(profile: np.ndarray, end: int, end_value: float, base: float):
        if config.recovery_s == 0:
            return
        stop = min(end + config.recovery_s, duration)
        if stop <= end:
            return
        frac = (np.arange(end, stop) - end + 1) / config.recovery_s
        profile[end:stop] = end_value + (base - end_value) * frac

    for event in sorted(config.incidents, key=lambda e: (e.start_s, e.zone)):
        start, end = event.start_s, min(event.end_s, duration)
        window = np.arange(start, end)
        progress = (window - start + 1) / event.duration_s
        approach, departure = (int(side[event.zone]) for side in neighbors)

        speed_mean[event.zone][start:end] = config.incident_speed
        rate[event.zone][start:end] = base_rate * config.blocked_flow
        ramp_back(speed_mean[event.zone], end, config.incident_speed, base_speed)
        ramp_back(rate[event.zone], end, base_rate * config.blocked_flow, base_rate)

        if approach != event.zone:
            queue_speed = base_speed + (config.queue_speed - base_speed) * progress
            queue_rate = base_rate * (1.0 + (config.queue_growth - 1.0) * progress)
            speed_mean[approach][start:end] = queue_speed
            rate[approach][start:end] = queue_rate
            ramp_back(speed_mean[approach], end, config.queue_speed, base_speed)
            ramp_back(rate[approach], end, base_rate * config.queue_growth, base_rate)

        if departure != event.zone:
            starved = base_rate * np.clip(1.0 - config.starvation * progress, 0.0, None)
            rate[departure][start:end] = starved
            ramp_back(
                rate[departure],
                end,
                base_rate * max(0.0, 1.0 - config.starvation),
                base_rate,
            )
    return speed_mean, rate


def generate(config: ScenarioConfig) -> tuple[data.Records, list[IncidentEvent]]:
    """Vehicle record stream plus the incident schedule that shaped it."""
    speed_mean, rate = _zone_profiles(config, _neighbors(config.n_zones))

    all_times: list[np.ndarray] = []
    all_zones: list[np.ndarray] = []
    all_speeds: list[np.ndarray] = []
    all_ordinals: list[np.ndarray] = []
    for zone in range(config.n_zones):
        rng = np.random.default_rng([config.seed, zone])
        counts = rng.poisson(rate[zone])
        if config.penetration < 1.0:
            counts = rng.binomial(counts, config.penetration)
        total = int(counts.sum())
        if total == 0:
            continue
        times = np.repeat(np.arange(config.duration_s), counts)
        means = np.repeat(speed_mean[zone], counts)
        speeds = np.maximum(rng.normal(means, config.speed_noise_sd), 0.0)
        ordinals = np.concatenate([np.arange(c) for c in counts if c > 0])
        all_times.append(times)
        all_zones.append(np.full(total, zone))
        all_speeds.append(speeds)
        all_ordinals.append(ordinals)

    if not all_times:
        return data.Records([], [], [], []), list(config.incidents)
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
    return data.Records(times, vehicle_ids, zones, speeds), list(config.incidents)


def synthetic_dataset(
    config: ScenarioConfig, bucket_seconds: int, n_incidents: int | None = None
) -> data.Dataset:
    """The labeled rows of one synthetic corridor: ``default_schedule``,
    ``generate`` and ``data.build_dataset`` over [0, config.duration_s).

    ``config.incidents`` is the schedule when it is not empty; otherwise
    ``default_schedule`` places ``n_incidents`` (default: auto) for this
    bucketing.
    """
    events = list(config.incidents) or default_schedule(
        config, n_incidents=n_incidents, bucket_seconds=bucket_seconds
    )
    records, _ = generate(replace(config, incidents=tuple(events)))
    return data.build_dataset(
        records, events, config.n_zones, bucket_seconds, duration_s=config.duration_s
    )


def _neighbors(n_zones: int) -> tuple[np.ndarray, np.ndarray]:
    return data.default_topology(n_zones).neighbor_index(n_zones)


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
    neighbors = _neighbors(config.n_zones)
    n_rows = config.n_zones * math.ceil(config.duration_s / bucket_seconds)
    pad = 10
    events: list[IncidentEvent] = []
    blocks: list[tuple[set[int], int, int]] = []

    def collides(zones: set[int], start: int, end: int) -> bool:
        lo, hi = start - pad, end + config.recovery_s + pad
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
    with open(path, "r", encoding="utf-8") as handle:
        doc = json.load(handle)
    if not isinstance(doc, list):
        raise FormatError(f"{path}: expected a JSON array of incident objects")
    try:
        return [
            IncidentEvent(int(e["zone"]), int(e["start_s"]), int(e["duration_s"]))
            for e in doc
        ]
    except (KeyError, TypeError) as exc:
        raise FormatError(f"{path}: malformed incident entry ({exc})") from exc
