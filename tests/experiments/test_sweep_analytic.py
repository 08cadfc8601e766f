"""Sweep-layer integration of the analytic engine: cache keys, prune, CLI.

The engine tier is part of a sweep point's identity — an analytic result
must never be served where a batched (bit-exact event) result was asked
for, and vice versa — and analytic points must never materialise a tagID
array (that is the whole point of the tier at n = 10⁷⁺).
"""

from __future__ import annotations

import os

import pytest

from repro.cli import main as cli_main
from repro.experiments import sweep
from repro.experiments.sweep import SweepPoint, TrialCache, canonicalise, run_record_sweep

POINT_KWARGS = dict(distribution="T1", n=5_000, trials=2, base_seed=3)


class TestEngineInCacheKey:
    def test_engine_tier_changes_canonical_spec_and_key(self, tmp_path):
        batched = SweepPoint.bfce_trials(engine="batched", **POINT_KWARGS)
        analytic = SweepPoint.bfce_trials(engine="analytic", **POINT_KWARGS)
        assert batched.canonical != analytic.canonical
        cache = TrialCache(tmp_path)
        assert cache.key(batched.canonical) != cache.key(analytic.canonical)

    def test_scaled_config_changes_canonical_spec(self):
        from repro.core.config import BFCEConfig

        default = SweepPoint.bfce_trials(engine="analytic", **POINT_KWARGS)
        scaled = SweepPoint.bfce_trials(
            engine="analytic", config=BFCEConfig.scaled(1 << 14), **POINT_KWARGS
        )
        assert default.canonical != scaled.canonical
        assert scaled.spec["config"]["pn_denom"] == 2048

    def test_baseline_engine_tier_changes_canonical_spec(self):
        batched = SweepPoint.baseline_trials("LOF", engine="batched", **POINT_KWARGS)
        analytic = SweepPoint.baseline_trials("LOF", engine="analytic", **POINT_KWARGS)
        assert batched.canonical != analytic.canonical


class TestAnalyticExecution:
    def test_analytic_point_never_materialises_population(self, tmp_path, monkeypatch):
        def boom(spec):
            raise AssertionError("analytic sweep point materialised a population")

        monkeypatch.setattr(sweep, "_spec_population", boom)
        point = SweepPoint.bfce_trials(engine="analytic", **POINT_KWARGS)
        [records] = run_record_sweep(
            [point], max_workers=0, cache=TrialCache(tmp_path)
        )
        assert len(records) == 2
        assert all(r.extra["engine"] == "analytic" for r in records)
        assert all(r.n_hat > 0 for r in records)
        # The same patched path must bite for an event-engine point, proving
        # the analytic path really skipped population construction.
        batched = SweepPoint.bfce_trials(engine="batched", **POINT_KWARGS)
        with pytest.raises(AssertionError, match="materialised"):
            run_record_sweep([batched], max_workers=0, cache=TrialCache(tmp_path))

    def test_cache_round_trip_is_bit_identical(self, tmp_path):
        point = SweepPoint.bfce_trials(engine="analytic", **POINT_KWARGS)
        cold_cache = TrialCache(tmp_path)
        [cold] = run_record_sweep([point], max_workers=0, cache=cold_cache)
        assert cold_cache.stores == 1
        warm_cache = TrialCache(tmp_path)  # fresh instance: on-disk hit only
        [warm] = run_record_sweep([point], max_workers=0, cache=warm_cache)
        assert warm_cache.hits == 1 and warm_cache.misses == 0
        assert warm == cold  # TrialRecord dataclass equality: every field


class TestPruneLRU:
    def _fill(self, cache: TrialCache, count: int):
        canonicals = [canonicalise({"kind": "t", "i": i}) for i in range(count)]
        for i, canonical in enumerate(canonicals):
            cache.store(canonical, {"i": i})
        return canonicals

    def test_load_bumps_mtime_so_hot_entries_survive(self, tmp_path):
        cache = TrialCache(tmp_path)
        canonicals = self._fill(cache, 3)
        now = os.path.getmtime(cache._path(canonicals[0]))
        for age_days, canonical in zip((30, 20, 10), canonicals):
            stamp = now - age_days * 86400
            os.utime(cache._path(canonical), (stamp, stamp))
        # Touch the oldest entry through load(): it becomes most recent.
        assert cache.load(canonicals[0]) == {"i": 0}
        entry_bytes = os.path.getsize(cache._path(canonicals[0]))
        summary = cache.prune(max_bytes=entry_bytes)
        assert summary == {"removed": 2, "kept": 1, "bytes": entry_bytes}
        assert cache.load(canonicals[0]) == {"i": 0}
        assert cache.load(canonicals[1]) is None
        assert cache.load(canonicals[2]) is None

    def test_prune_by_age(self, tmp_path):
        cache = TrialCache(tmp_path)
        canonicals = self._fill(cache, 2)
        old = os.path.getmtime(cache._path(canonicals[0])) - 9 * 86400
        os.utime(cache._path(canonicals[0]), (old, old))
        summary = cache.prune(max_age_days=7)
        assert summary["removed"] == 1 and summary["kept"] == 1
        assert cache.load(canonicals[0]) is None
        assert cache.load(canonicals[1]) == {"i": 1}

    def test_prune_without_bounds_is_a_noop(self, tmp_path):
        cache = TrialCache(tmp_path)
        self._fill(cache, 2)
        assert cache.prune() == {"removed": 0, "kept": 2, "bytes": cache.stats()["bytes"]}


class TestCacheCLI:
    def test_prune_requires_a_bound(self, tmp_path, capsys):
        assert cli_main(["cache", "prune", "--dir", str(tmp_path)]) == 2
        assert "--max-mb" in capsys.readouterr().err

    def test_prune_with_bounds_succeeds(self, tmp_path, capsys):
        cache = TrialCache(tmp_path)
        cache.store(canonicalise({"kind": "t", "i": 0}), {"i": 0})
        old = os.path.getmtime(next(tmp_path.glob("*.json"))) - 86400 * 5
        for path in tmp_path.glob("*.json"):
            os.utime(path, (old, old))
        assert cli_main(["cache", "prune", "--dir", str(tmp_path), "--max-age", "1"]) == 0
        assert "pruned 1 entries" in capsys.readouterr().out
        assert cache.stats()["entries"] == 0

    def test_stats_reports_directory(self, tmp_path, capsys):
        assert cli_main(["cache", "stats", "--dir", str(tmp_path)]) == 0
        assert str(tmp_path) in capsys.readouterr().out
