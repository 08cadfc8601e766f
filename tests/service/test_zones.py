"""Zone model tests: config validation, grouping, tracker state."""

from __future__ import annotations

import pytest

from repro.service.protocol import ServiceError
from repro.service.zones import Zone, ZoneConfig, ZoneRegistry


class TestZoneConfig:
    def test_round_trips_through_dict(self):
        config = ZoneConfig(n=50_000, eps=0.1, tracker="ekf", churn_rate=0.02)
        assert ZoneConfig.from_dict(config.to_dict()) == config

    def test_from_dict_rejects_unknown_fields_and_missing_n(self):
        with pytest.raises(ServiceError, match="unknown zone config field"):
            ZoneConfig.from_dict({"n": 10, "bogus": 1})
        with pytest.raises(ServiceError, match="requires 'n'"):
            ZoneConfig.from_dict({"eps": 0.05})
        with pytest.raises(ServiceError, match="JSON object"):
            ZoneConfig.from_dict([1, 2])

    @pytest.mark.parametrize(
        "bad",
        [
            {"n": -1},
            {"n": 10, "engine": "warp"},
            {"n": 10, "eps": 0.0},
            {"n": 10, "delta": 1.5},
            {"n": 10, "tracker": "kalman9000"},
            {"n": 10, "drift": 0.0},
            {"n": 10, "churn_rate": -0.1},
            {"n": 10, "window": 0},
            # scaled frames are analytic-only: the event tag hash implements
            # the 1/1024 grid exclusively
            {"n": 10, "engine": "batched", "w": 65536},
        ],
    )
    def test_validation_rejects(self, bad):
        with pytest.raises((ServiceError, ValueError)):
            ZoneConfig.from_dict(bad)

    @pytest.mark.parametrize("w", [None, 2**17])
    def test_n_is_capped_at_the_estimable_range(self, w):
        from repro.core.estmath import max_estimable_cardinality

        cfg = ZoneConfig(n=0, w=w).bfce_config()
        cap = int(max_estimable_cardinality(cfg.w, cfg.pn_denom, cfg.k))
        assert ZoneConfig(n=cap, w=w).n == cap
        with pytest.raises(ValueError, match="estimable cap"):
            ZoneConfig(n=cap + 1, w=w)
        with pytest.raises(ServiceError, match="estimable cap") as err:
            ZoneConfig.from_dict({"n": cap + 1, "w": w})
        assert err.value.code == 400

    def test_scaled_w_allowed_on_analytic(self):
        config = ZoneConfig(n=10**8, engine="analytic", w=2**20)
        assert config.bfce_config().w == 2**20

    def test_group_key_ignores_tracker_fields(self):
        base = ZoneConfig(n=1000)
        tracked = ZoneConfig(n=1000, tracker="ekf", churn_rate=0.05)
        other = ZoneConfig(n=1001)
        assert base.group_key() == tracked.group_key()
        assert base.group_key() != other.group_key()

    def test_point_spec_matches_direct_sweep_point(self):
        from dataclasses import replace

        from repro.core.config import BFCEConfig
        from repro.experiments.sweep import SweepPoint

        config = ZoneConfig(n=5000, eps=0.1, delta=0.05, engine="batched")
        direct = SweepPoint.bfce_trials(
            distribution="T1", n=5000, eps=0.1, delta=0.05,
            trials=3, base_seed=7, pop_seed=0, engine="batched",
        )
        assert config.point(base_seed=7, trials=3).canonical == direct.canonical
        custom = ZoneConfig(
            n=50_000_000, distribution="T3", w=2**17, pop_seed=3,
            rn_source="random", rn_seed=4, persistence_mode="static",
        )
        direct = SweepPoint.bfce_trials(
            distribution="T3", n=50_000_000, trials=2, base_seed=11, pop_seed=3,
            rn_source="random", rn_seed=4, persistence_mode="static",
            config=BFCEConfig.scaled(2**17), engine="analytic",
        )
        assert custom.point(base_seed=11, trials=2).canonical == direct.canonical

        # Group keys are equal exactly when the specs without seeds are.
        def seedless_spec(config):
            spec = SweepPoint.bfce_trials(
                distribution=config.distribution, n=config.n, eps=config.eps,
                delta=config.delta, trials=1, base_seed=0,
                pop_seed=config.pop_seed, rn_source=config.rn_source,
                rn_seed=config.rn_seed, persistence_mode=config.persistence_mode,
                config=config.bfce_config(), engine=config.engine,
            ).spec
            del spec["base_seed"], spec["trials"]
            return spec

        base = ZoneConfig(n=3_000)
        scaled = replace(base, w=2**17)
        configs = [
            base,
            replace(base, w=8192),  # spells the default frame: same spec
            replace(base, n=3_001),
            replace(base, eps=0.1),
            replace(base, engine="batched"),
            replace(base, pop_seed=1),
            replace(base, rn_source="random"),
            replace(base, rn_seed=2),
            replace(base, persistence_mode="static"),
            replace(base, distribution="T2"),
            scaled,
            replace(scaled, w=2**18),
            # Tracker fields never count.
            replace(base, tracker="ekf", drift=1.1, churn_rate=0.2),
            replace(scaled, tracker="window", window=4),
        ]
        for a in configs:
            for b in configs:
                same_spec = seedless_spec(a) == seedless_spec(b)
                assert (a.group_key() == b.group_key()) == same_spec, (a, b)
        assert base.group_key() == configs[1].group_key() == configs[-2].group_key()
        assert scaled.group_key() == configs[-1].group_key()


class TestZone:
    def test_allocate_seed_is_contiguous(self):
        zone = Zone(name="z", config=ZoneConfig(n=100))
        assert [zone.allocate_seed() for _ in range(4)] == [0, 1, 2, 3]

    def test_track_requires_a_tracker(self):
        zone = Zone(name="z", config=ZoneConfig(n=100))
        with pytest.raises(ServiceError, match="no tracker"):
            zone.track(100.0)

    def test_track_advances_ekf_and_matches_direct_tracker(self):
        from repro.core.tracking import EKFTracker, relative_measurement_std

        config = ZoneConfig(n=1000, tracker="ekf", churn_rate=0.01)
        zone = Zone(name="z", config=config)
        direct = EKFTracker(drift=1.0, churn_rate=0.01)
        rel = relative_measurement_std(config.eps, config.delta)
        for measurement in (990.0, 1015.0, 1003.0):
            served = zone.track(measurement)
            expected = direct.advance(
                measurement, variance=max((rel * measurement) ** 2, 1e-12)
            )
            assert served.estimate == expected.estimate
            assert served.variance == expected.variance
        assert zone.tracker_epoch == 3
        assert zone.stats()["tracker_estimate"] == direct.estimate

    def test_window_tracker_configurable(self):
        zone = Zone(name="z", config=ZoneConfig(n=1000, tracker="window", window=4))
        for measurement in range(990, 1000):
            zone.track(float(measurement))
        assert zone.tracker_epoch == 10


class TestZoneRegistry:
    def test_put_get_list_and_replace_resets_state(self):
        registry = ZoneRegistry({"a": ZoneConfig(n=10)})
        registry.put("b", ZoneConfig(n=20))
        assert registry.names() == ["a", "b"]
        assert "a" in registry and len(registry) == 2
        registry.get("a").allocate_seed()
        registry.put("a", ZoneConfig(n=10))  # replacement resets the cursor
        assert registry.get("a").next_seed == 0

    def test_unknown_zone_is_404(self):
        registry = ZoneRegistry()
        with pytest.raises(ServiceError) as excinfo:
            registry.get("ghost")
        assert excinfo.value.code == 404
        with pytest.raises(ServiceError):
            registry.get(None)

    def test_bad_names_rejected(self):
        registry = ZoneRegistry()
        with pytest.raises(ServiceError):
            registry.put("", ZoneConfig(n=1))
        with pytest.raises(ServiceError):
            registry.put(7, ZoneConfig(n=1))
