"""Synthetic traffic generator: statistics, incident effects, scheduling."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qincident import data, scenario
from qincident.errors import ConfigError, FormatError


def same_records(a, b):
    return len(a) == len(b) and all(
        np.array_equal(getattr(a, column), getattr(b, column))
        for column in ("time", "vehicle_id", "zone", "speed")
    )


def reference_generate(config):
    """The generator written the direct way: each zone's records with
    per-cell ``arange`` ordinals, then one (time, zone, ordinal) sort of all
    of them, each record coded by its index."""
    speed_mean, rate = scenario._zone_profiles(config)
    all_times, all_zones, all_speeds, all_ordinals = [], [], [], []
    for zone in range(config.n_zones):
        rng = np.random.default_rng([config.seed, zone])
        counts = rng.poisson(rate[zone])
        total = int(counts.sum())
        if total == 0:
            continue
        means = np.repeat(speed_mean[zone], counts)
        all_times.append(np.repeat(np.arange(config.duration_s), counts))
        all_zones.append(np.full(total, zone))
        all_speeds.append(np.maximum(rng.normal(means, scenario.SPEED_NOISE_SD), 0.0))
        all_ordinals.append(np.concatenate([np.arange(c) for c in counts if c > 0]))
    if not all_times:
        return data.Records([], [], [], [])
    times, zones, speeds, ordinals = (
        np.concatenate(parts) for parts in (all_times, all_zones, all_speeds, all_ordinals)
    )
    order = np.lexsort((ordinals, zones, times))
    return data.Records(times[order], np.arange(len(times)), zones[order], speeds[order])


def assert_matches_reference(config):
    records, events = scenario.generate(config)
    expected = reference_generate(config)
    assert events == list(config.incidents or ())
    assert same_records(records, expected)
    assert records.vehicle_id.dtype == expected.vehicle_id.dtype


@st.composite
def corridors(draw):
    """A corridor of 1-9 zones and 1-300 s with up to four incidents placed
    anywhere inside it, overlaps included."""
    n_zones = draw(st.integers(1, 9))
    duration_s = draw(st.integers(1, 300))
    events = []
    for _ in range(draw(st.integers(0, 4))):
        start = draw(st.integers(0, duration_s - 1))
        events.append(scenario.IncidentEvent(
            zone=draw(st.integers(0, n_zones - 1)),
            start_s=start,
            duration_s=draw(st.integers(1, duration_s - start)),
        ))
    seed = draw(st.integers(0, 2**32 - 1))
    return scenario.ScenarioConfig(n_zones, duration_s, tuple(events), seed)


class TestGenerateMatchesReference:
    @settings(max_examples=60, deadline=None)
    @given(corridors())
    def test_random_corridors(self, config):
        assert_matches_reference(config)

    def test_starved_departure_zones(self):
        # a one-second incident ends with its departure zone's demand at 0:
        # zones 2 and 5 (departures of 1 and 4) hold no records at all
        events = (scenario.IncidentEvent(1, 0, 1), scenario.IncidentEvent(4, 0, 1))
        config = scenario.ScenarioConfig(n_zones=6, duration_s=1, seed=3, incidents=events)
        records, _ = scenario.generate(config)
        assert len(records) and not np.isin(records.zone, [2, 5]).any()
        assert_matches_reference(config)

    def test_corridor_without_records(self, monkeypatch):
        monkeypatch.setattr(scenario, "BASE_RATE", 0.0)
        config = scenario.ScenarioConfig(n_zones=4, duration_s=30, seed=0)
        assert len(scenario.generate(config)[0]) == 0
        assert_matches_reference(config)

    @pytest.mark.parametrize("duration_s, bucket_seconds", [(1250, 1), (1500, 60)])
    def test_seed_zero_corridors(self, duration_s, bucket_seconds):
        # the per-second pipeline's corridor and the DS-3 one
        config = scenario.ScenarioConfig(n_zones=56, duration_s=duration_s, seed=0)
        events = scenario.default_schedule(config, bucket_seconds=bucket_seconds)
        assert_matches_reference(scenario.ScenarioConfig(56, duration_s, tuple(events), 0))


class TestVehicleCodes:
    """A record's code is its index."""

    def test_codes_are_the_record_indices_in_cells_of_eleven_or_more(self):
        # zone 5's incident queues zone 4 up to three times base demand
        event = scenario.IncidentEvent(zone=5, start_s=0, duration_s=60)
        records, _ = scenario.generate(scenario.ScenarioConfig(8, 60, (event,), seed=1))
        assert np.bincount(records.time * 8 + records.zone).max() >= 11
        assert records.vehicle_id.dtype == np.int64
        np.testing.assert_array_equal(records.vehicle_id, np.arange(len(records)))

    @pytest.mark.parametrize(
        "config",
        [scenario.ScenarioConfig(130, 40, seed=3), scenario.ScenarioConfig(1, 1, seed=0),
         scenario.ScenarioConfig(56, 1500, seed=0)],
    )
    def test_codes_are_a_permutation(self, config):
        records, _ = scenario.generate(config)
        assert records.vehicle_id.dtype == np.int64
        np.testing.assert_array_equal(np.sort(records.vehicle_id), np.arange(len(records)))


class TestCellGrids:
    """``cell_grids`` sums each zone's draws straight into the per-cell
    grids that ``data.aggregate`` makes of ``generate``'s records."""

    @pytest.mark.parametrize(
        "config, queued",
        [
            # zone 5's incident queues zone 4 up to three times base demand
            (scenario.ScenarioConfig(8, 60, (scenario.IncidentEvent(5, 0, 60),), seed=1), True),
            (scenario.ScenarioConfig(6, 300, (), seed=3), False),
            (scenario.ScenarioConfig(1, 50, (), seed=0), False),
            # zones 2 and 5 hold no records at all
            (scenario.ScenarioConfig(6, 1, (scenario.IncidentEvent(1, 0, 1),
                                            scenario.IncidentEvent(4, 0, 1)), seed=3), False),
        ],
        ids=["incident-queue", "incident-free", "one-zone", "starved-zones"],
    )
    def test_grids_equal_the_records_grids_bit_for_bit(self, config, queued):
        records, _ = scenario.generate(config)
        want = data.aggregate(records, config.n_zones, config.duration_s)
        got = scenario.cell_grids(config)
        assert got.shape == (2, config.n_zones, config.duration_s)
        assert got.tobytes() == want.tobytes()
        if queued:
            # cells of 11 records and more, where ordering the ordinals as
            # text ("10" before "2") would differ from draw order
            assert got[0].max() >= 11

    def test_a_cell_sums_its_speeds_in_code_order(self, monkeypatch):
        # 1e16 + 1.0 rounds back to 1e16, so a sum's bits follow its order.
        # Ordinals 0 and 10 carry 1.0 and ordinal 2 carries 1e16: in code
        # order, which is draw order, a cell of 3 or more sums 1e16; ordinals
        # ranked as text ("10" before "2") would sum 1e16 + 2 in a cell of 11
        # or more
        draws = scenario._zone_draws

        def probe_speeds(*args):
            for counts, speeds in draws(*args):
                ordinals = np.arange(len(speeds)) - np.repeat(np.cumsum(counts) - counts, counts)
                speeds[:] = np.select([ordinals == 2, (ordinals == 0) | (ordinals == 10)],
                                      [1e16, 1.0], 0.0)
                yield counts, speeds

        monkeypatch.setattr(scenario, "_zone_draws", probe_speeds)
        config = scenario.ScenarioConfig(8, 60, (scenario.IncidentEvent(5, 0, 60),), seed=1)
        counts, sums = scenario.cell_grids(config)
        want = np.select([counts >= 3, counts >= 1], [1e16, 1.0], 0.0)
        assert np.any(counts >= 11) and sums.tobytes() == want.tobytes()
        records, _ = scenario.generate(config)
        assert data.aggregate(records, 8, 60)[1].tobytes() == sums.tobytes()

    def test_synthetic_rows_equal_the_rows_of_the_records(self):
        config = scenario.ScenarioConfig(n_zones=12, duration_s=300, seed=4)
        for bucket in data.BUCKET_SIZES:
            events = scenario.default_schedule(config, bucket_seconds=bucket)
            records, _ = scenario.generate(replace(config, incidents=tuple(events)))
            want = data.grid_dataset(data.aggregate(records, 12, 300), events, bucket)
            got = scenario.synthetic_dataset(config, bucket)
            for column in ("bucket_start", "zone_id", "features", "labels"):
                assert getattr(got, column).tobytes() == getattr(want, column).tobytes()


class TestGenerate:
    def test_empty_schedule_free_flow(self):
        config = scenario.ScenarioConfig(n_zones=6, duration_s=300, seed=0)
        records, events = scenario.generate(config)
        assert events == []
        table = scenario.synthetic_dataset(config, bucket_seconds=1, n_incidents=0)
        assert len(table) == 6 * 300 and not table.labels.any()
        speeds, zones = records.speed, records.zone
        for zone in range(6):
            sample = speeds[zones == zone]
            se = scenario.SPEED_NOISE_SD / np.sqrt(len(sample))
            assert abs(sample.mean() - scenario.FREE_FLOW_SPEED) < 3 * se + 0.05

    def test_no_negative_speeds_or_times(self):
        config = scenario.ScenarioConfig(n_zones=4, duration_s=200, seed=1)
        records, _ = scenario.generate(config)
        assert np.all(records.speed >= 0)
        assert np.all((records.time >= 0) & (records.time < 200))

    def test_seed_determinism(self):
        config = scenario.ScenarioConfig(n_zones=5, duration_s=150, seed=7)
        a, _ = scenario.generate(config)
        b, _ = scenario.generate(config)
        assert same_records(a, b)

    def test_different_seeds_differ(self):
        a, _ = scenario.generate(scenario.ScenarioConfig(n_zones=3, duration_s=50, seed=0))
        b, _ = scenario.generate(scenario.ScenarioConfig(n_zones=3, duration_s=50, seed=1))
        assert not same_records(a, b)

    @pytest.mark.parametrize("seed", range(3))
    def test_incident_effects(self, seed):
        # zone 2 is interior in direction [0..3]: approach is 1, departure is 3
        event = scenario.IncidentEvent(zone=2, start_s=60, duration_s=60)
        config = scenario.ScenarioConfig(
            n_zones=8, duration_s=240, seed=seed, incidents=(event,)
        )
        records, _ = scenario.generate(config)
        speeds, zones, times = records.speed, records.zone, records.time

        window = (times >= 60) & (times < 120)
        in_zone = speeds[(zones == 2) & window]
        assert in_zone.mean() < 0.2 * scenario.FREE_FLOW_SPEED

        # queue builds on the approach side (zone 1): late-window count inflated
        late = (times >= 90) & (times < 120)
        base = np.sum((zones == 1) & (times < 60)) / 60.0
        queued = np.sum((zones == 1) & late) / 30.0
        assert queued > 1.5 * base

        # departure side (zone 3) starves late in the incident
        starved = np.sum((zones == 3) & late) / 30.0
        assert starved < 0.5 * base

    def test_boundary_zone_incident_runs(self):
        # zone 0 has no approach neighbor; only the departure side reacts
        event = scenario.IncidentEvent(zone=0, start_s=30, duration_s=40)
        config = scenario.ScenarioConfig(n_zones=4, duration_s=120, seed=2, incidents=(event,))
        records, _ = scenario.generate(config)
        assert len(records)  # no crash, stream produced

    def test_invalid_config(self):
        with pytest.raises(ConfigError):
            scenario.ScenarioConfig(n_zones=0)
        with pytest.raises(ConfigError):
            scenario.ScenarioConfig(
                duration_s=100, incidents=(scenario.IncidentEvent(0, 80, 40),)
            )

    def test_corridor_above_the_cell_cap_is_refused(self):
        side = int(scenario.MAX_CELLS**0.5)
        scenario.ScenarioConfig(n_zones=side, duration_s=side)  # exactly the cap
        with pytest.raises(ConfigError, match=f"above the cap of {scenario.MAX_CELLS}"):
            scenario.ScenarioConfig(n_zones=side, duration_s=side + 1)
        with pytest.raises(ConfigError, match="1000000000001 zones x 1 s"):
            scenario.ScenarioConfig(n_zones=10**12 + 1, duration_s=1)

    def test_incident_zone_demand_reset_under_overlap(self):
        # zone 2's incident queues zone 1 and starves zone 3; the later
        # incidents in zones 1 and 3 set their demand back to base over the
        # incident and its recovery
        events = (
            scenario.IncidentEvent(2, 20, 60),
            scenario.IncidentEvent(1, 40, 30),
            scenario.IncidentEvent(3, 50, 20),
        )
        config = scenario.ScenarioConfig(n_zones=8, duration_s=180, seed=0, incidents=events)
        _, rate = scenario._zone_profiles(config)
        recovered = 70 + scenario.RECOVERY_S
        assert np.all(rate[1, 40:recovered] == scenario.BASE_RATE)
        assert np.all(rate[3, 50:recovered] == scenario.BASE_RATE)
        # outside those windows the first incident's queue and starvation hold
        assert np.all(rate[1, 20:40] > scenario.BASE_RATE)
        assert np.all(rate[3, 20:50] < scenario.BASE_RATE)


class TestSyntheticDataset:
    def test_given_empty_schedule_is_used_as_given(self):
        config = scenario.ScenarioConfig(n_zones=8, duration_s=400, seed=5, incidents=())
        assert not scenario.synthetic_dataset(config, bucket_seconds=1).labels.any()

    def test_ds3_corridor_peaks_under_4_mib(self):
        # a first call also counts numpy's lazy imports; make them beforehand
        scenario.synthetic_dataset(scenario.ScenarioConfig(n_zones=2, duration_s=60), 60)
        config = scenario.ScenarioConfig(n_zones=56, duration_s=1500, seed=0)
        tracemalloc.start()
        try:
            scenario.synthetic_dataset(config, bucket_seconds=60)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 2.9 MiB measured (numpy 2.4, Python 3.11): the two zone profiles and the two cell grids, each
        # 0.64 MiB, and one zone's draws.  18.1 MiB when ``generate``'s
        # 338k records went through ``data.aggregate``
        assert peak < 4 << 20


def reference_schedule(config, n_incidents=None, bucket_seconds=1):
    """``default_schedule`` as first written: each pass recounts the rows of
    every placed event through ``positive_rows`` before it places the next,
    and each attempt scans every placed block for a shared zone."""
    if n_incidents == 0:
        return []
    rng = np.random.default_rng([config.seed, 104729])
    neighbors = data.neighbor_index(config.n_zones)
    n_rows = config.n_zones * -(-config.duration_s // bucket_seconds)
    pad = 10
    events, blocks = [], []

    def place(early):
        for _ in range(200):
            duration = min(int(rng.integers(scenario.MIN_INCIDENT_S, scenario.MAX_INCIDENT_S + 1)),
                           config.duration_s)
            if early:
                duration = min(max(duration, 70), config.duration_s)
                starts = [
                    s for s in (0, 60)
                    if s <= scenario.EARLY_WINDOW_S and s + duration <= config.duration_s
                ]
                start = int(rng.choice(starts)) if starts else 0
            else:
                far = config.duration_s - duration > 2 * scenario.EARLY_WINDOW_S
                lo = scenario.EARLY_WINDOW_S + pad if far else 0
                start = int(rng.integers(lo, config.duration_s - duration + 1))
            zone = int(rng.integers(0, config.n_zones))
            zones = scenario._affected_zones(zone, neighbors)
            lo, hi = start - pad, start + duration + scenario.RECOVERY_S + pad
            if not any(zs & zones and lo < b_hi and b_lo < hi for zs, b_lo, b_hi in blocks):
                blocks.append((zones, start, start + duration))
                return scenario.IncidentEvent(zone, start, duration)
        raise ConfigError("cannot fit incident schedule without overlap")

    early_quota = min(scenario.EARLY_QUOTA, max(1, config.n_zones // 4))
    if n_incidents is not None:
        early_quota = min(early_quota, n_incidents)
    while n_incidents is None or len(events) < n_incidents:
        if (
            n_incidents is None
            and len(events) >= early_quota
            and scenario.positive_rows(events, config.duration_s, bucket_seconds) / n_rows
            >= scenario.PREVALENCE_TARGET
        ):
            break
        events.append(place(early=len(events) < early_quota))
    events.sort(key=lambda e: (e.start_s, e.zone))
    return events


# every corridor of 1-64 zones at three lengths, then a few long or wide
# ones inside the cell cap
SCHEDULE_CORRIDORS = [(z, d) for z in range(1, 65) for d in (60, 200, 1250)] + [
    (z, 5000) for z in (1, 2, 3, 5, 56, 200)
] + [(300, d) for d in (60, 200, 1250)]


class TestDefaultSchedule:
    @pytest.mark.parametrize("bucket_seconds", [1, 60])
    @pytest.mark.parametrize("n_zones, duration_s", SCHEDULE_CORRIDORS)
    def test_matches_the_recounting_reference(self, n_zones, duration_s, bucket_seconds):
        # default_schedule looks the placed windows up by zone; the reference
        # scans every placed block
        for seed in range(5):
            config = scenario.ScenarioConfig(n_zones=n_zones, duration_s=duration_s, seed=seed)
            want = reference_schedule(config, bucket_seconds=bucket_seconds)
            assert scenario.default_schedule(config, bucket_seconds=bucket_seconds) == want

    def test_zero_incidents(self):
        assert scenario.default_schedule(scenario.ScenarioConfig(seed=0), n_incidents=0) == []

    def test_events_within_horizon(self):
        config = scenario.ScenarioConfig(seed=0)
        for event in scenario.default_schedule(config):
            assert 0 <= event.start_s and event.end_s <= config.duration_s
            assert scenario.MIN_INCIDENT_S <= event.duration_s <= scenario.MAX_INCIDENT_S

    @pytest.mark.parametrize("seed", range(10))
    def test_per_second_prevalence_in_band(self, seed):
        config = scenario.ScenarioConfig(seed=seed)
        events = scenario.default_schedule(config)
        rows = config.n_zones * config.duration_s
        prevalence = scenario.positive_rows(events, config.duration_s, 1) / rows
        assert 0.01 <= prevalence <= 0.03

    @pytest.mark.parametrize("seed", range(10))
    def test_per_minute_prevalence_in_band(self, seed):
        config = scenario.ScenarioConfig(seed=seed, duration_s=1500)
        events = scenario.default_schedule(config, bucket_seconds=60)
        rows = config.n_zones * (config.duration_s // 60)
        prevalence = scenario.positive_rows(events, config.duration_s, 60) / rows
        assert 0.01 <= prevalence <= 0.03

    def test_early_window_seeded(self):
        events = scenario.default_schedule(scenario.ScenarioConfig(seed=4))
        assert sum(e.start_s <= scenario.EARLY_WINDOW_S for e in events) >= 3

    def test_no_zone_time_overlap(self):
        config = scenario.ScenarioConfig(seed=5)
        events = scenario.default_schedule(config)
        neighbors = data.neighbor_index(config.n_zones)
        for i, a in enumerate(events):
            for b in events[i + 1 :]:
                zones_a = scenario._affected_zones(a.zone, neighbors)
                zones_b = scenario._affected_zones(b.zone, neighbors)
                if zones_a & zones_b:
                    assert a.end_s <= b.start_s or b.end_s <= a.start_s

    def test_deterministic(self):
        config = scenario.ScenarioConfig(seed=6)
        assert scenario.default_schedule(config) == scenario.default_schedule(config)

    def test_cannot_fit_raises(self):
        config = scenario.ScenarioConfig(n_zones=1, duration_s=100, seed=0)
        with pytest.raises(ConfigError):
            scenario.default_schedule(config, n_incidents=10)


class TestScheduleJson:
    def test_round_trip(self, tmp_path):
        events = scenario.default_schedule(scenario.ScenarioConfig(seed=8))
        path = tmp_path / "schedule.json"
        scenario.write_schedule_json(events, path)
        assert scenario.read_schedule_json(path) == events

    def test_malformed_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"not": "a list"}')
        with pytest.raises(FormatError):
            scenario.read_schedule_json(path)
