"""Synthetic traffic generator: statistics, incident effects, scheduling."""

import numpy as np
import pytest

from qincident import data, scenario
from qincident.errors import ConfigError, FormatError


def same_records(a, b):
    return len(a) == len(b) and all(
        np.array_equal(getattr(a, column), getattr(b, column))
        for column in ("time", "vehicle_id", "zone", "speed")
    )


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


class TestDefaultSchedule:
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
        prevalence = scenario._positive_rows(events, config.duration_s, 1) / rows
        assert 0.01 <= prevalence <= 0.03

    @pytest.mark.parametrize("seed", range(10))
    def test_per_minute_prevalence_in_band(self, seed):
        config = scenario.ScenarioConfig(seed=seed, duration_s=1500)
        events = scenario.default_schedule(config, bucket_seconds=60)
        rows = config.n_zones * (config.duration_s // 60)
        prevalence = scenario._positive_rows(events, config.duration_s, 60) / rows
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
