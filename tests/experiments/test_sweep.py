"""Tests for the sweep execution layer: scheduler + content-addressed cache.

The layer's contracts, in order of importance:

1. **Bit-identity** — a cache hit returns ``TrialRecord``s bit-identical to
   the cache miss that produced them, and both are bit-identical to the
   direct serial runners (the JSON round-trip on every path guarantees it).
2. **Key sensitivity** — any spec change (estimator, ε, δ, seeds, config,
   engine token) produces a different cache key; reruns of identical work
   hit.
3. **Self-verifying entries** — corrupted, truncated or stale-token entries
   are discarded and recomputed, never trusted.
4. **Deterministic scheduling** — output order equals input order for any
   worker count; duplicate points execute once.
"""

import json
import shutil
import sys
import threading
from dataclasses import replace

import pytest

from repro.core.bfce import BFCE
from repro.core.config import BFCEConfig
from repro.core.estmath import max_estimable_cardinality
from repro.experiments.runner import run_bfce_trials, run_trials
from repro.experiments.sweep import (
    SweepPoint,
    TrialCache,
    cache_enabled,
    cached_call,
    engine_version_token,
    execute_point_inline,
    execute_points_inline,
    run_record_sweep,
    run_sweep,
)
from repro.experiments.workloads import (
    population,
    population_cache_clear,
    population_cache_info,
)

N = 3_000


def _sans_engine(records):
    return [
        replace(r, extra={k: v for k, v in r.extra.items() if k != "engine"})
        for r in records
    ]


class TestPackageNames:
    """``repro.experiments`` exposes the sweep module and its point spec."""

    def test_sweep_attribute_is_the_module(self):
        import repro.experiments

        assert repro.experiments.sweep is sys.modules["repro.experiments.sweep"]

    def test_sweep_point_is_the_spec_class(self):
        import repro.experiments
        import repro.experiments.sweep

        assert repro.experiments.SweepPoint is repro.experiments.sweep.SweepPoint


def _point(**overrides):
    spec = dict(
        distribution="T1", n=N, trials=2, base_seed=5, pop_seed=0, engine="batched"
    )
    spec.update(overrides)
    return SweepPoint.bfce_trials(**spec)


class TestCacheBitIdentity:
    def test_hit_is_bit_identical_to_miss(self, tmp_path):
        cache = TrialCache(tmp_path)
        point = _point()
        cold = run_record_sweep([point], max_workers=1, cache=cache)[0]
        assert cache.stores == 1
        warm = run_record_sweep([point], max_workers=1, cache=cache)[0]
        assert cache.hits == 1
        assert cold == warm

    def test_cached_records_match_direct_serial_runner(self, tmp_path):
        cache = TrialCache(tmp_path)
        point = _point()
        warm = None
        for _ in range(2):  # second pass is the cache hit
            warm = run_record_sweep([point], max_workers=1, cache=cache)[0]
        pop = population("T1", N, seed=0)
        serial = run_bfce_trials(
            pop, trials=2, base_seed=5, distribution="T1", engine="serial"
        )
        assert _sans_engine(warm) == _sans_engine(serial)

    def test_cached_baseline_records_match_direct_runner(self, tmp_path):
        from repro.baselines import ZOE
        from repro.core.accuracy import AccuracyRequirement

        cache = TrialCache(tmp_path)
        point = SweepPoint.baseline_trials(
            "ZOE", distribution="T1", n=N, trials=2, base_seed=7, pop_seed=0
        )
        warm = None
        for _ in range(2):
            warm = run_record_sweep([point], max_workers=1, cache=cache)[0]
        direct = run_trials(
            ZOE(AccuracyRequirement(0.05, 0.05)),
            population("T1", N, seed=0),
            trials=2,
            base_seed=7,
            distribution="T1",
            engine="batched",
        )
        assert warm == direct


class TestKeySensitivity:
    @pytest.mark.parametrize(
        "override",
        [
            {"eps": 0.10},
            {"delta": 0.10},
            {"trials": 3},
            {"base_seed": 6},
            {"pop_seed": 1},
            {"n": N + 1},
            {"distribution": "T2"},
            {"rn_source": "random"},
            {"rn_seed": 9},
            {"persistence_mode": "static"},
        ],
    )
    def test_spec_changes_change_the_key(self, override):
        cache = TrialCache("unused")
        assert cache.key(_point().canonical) != cache.key(
            _point(**override).canonical
        )

    def test_config_change_changes_the_key(self):
        from repro.core.config import BFCEConfig

        cache = TrialCache("unused")
        assert cache.key(_point().canonical) != cache.key(
            _point(config=BFCEConfig(k=4)).canonical
        )

    def test_default_config_normalises_to_none(self):
        from repro.core.config import DEFAULT_CONFIG, BFCEConfig

        assert _point(config=BFCEConfig()) == _point(config=DEFAULT_CONFIG) == _point()

    def test_estimator_kind_changes_the_key(self):
        cache = TrialCache("unused")
        bfce = _point()
        zoe = SweepPoint.baseline_trials(
            "ZOE", distribution="T1", n=N, trials=2, base_seed=5, pop_seed=0
        )
        assert cache.key(bfce.canonical) != cache.key(zoe.canonical)

    def test_engine_token_changes_the_key(self, tmp_path):
        canonical = _point().canonical
        a = TrialCache(tmp_path, token="aaaa")
        b = TrialCache(tmp_path, token="bbbb")
        assert a.key(canonical) != b.key(canonical)
        a.store(canonical, {"records": []})
        assert b.load(canonical) is None

    def test_stale_token_entry_is_discarded(self, tmp_path):
        """Same key, wrong embedded token: rejected, deleted, recomputed."""
        canonical = _point().canonical
        cache = TrialCache(tmp_path)
        cache.store(canonical, {"records": []})
        path = cache._path(canonical)
        entry = json.loads(path.read_text())
        entry["token"] = "0" * 16
        path.write_text(json.dumps(entry))
        assert cache.load(canonical) is None
        assert cache.rejected == 1
        assert not path.exists()

    def test_token_tracks_engine_sources(self):
        token = engine_version_token()
        assert len(token) == 16
        assert token == engine_version_token()  # stable within a process

    def test_token_paths_include_native_kernels(self):
        # The C kernels are embedded in _native.py as a source string, so
        # hashing that file means any kernel change invalidates the cache.
        from repro.experiments import sweep as sweep_mod

        names = {path.name for path in sweep_mod.engine_token_paths()}
        assert "_native.py" in names
        assert all(path.is_file() for path in sweep_mod.engine_token_paths())


class TestSketchPoints:
    """The ``sketch_trials`` point kind and its cache-token coverage."""

    def _sketch_point(self, **overrides):
        spec = dict(
            distribution="T2", n=N, p=10, n_readers=3, overlap=0.3, trials=2,
            base_seed=1, pop_seed=0,
        )
        spec.update(overrides)
        return SweepPoint.sketch_trials(**spec)

    def test_cold_warm_bit_identical(self, tmp_path):
        from repro.experiments.sweep import execute_point_inline

        point = self._sketch_point()
        cache = TrialCache(tmp_path)
        cold, hit_cold = execute_point_inline(point, cache=cache)
        warm, hit_warm = execute_point_inline(point, cache=cache)
        assert (hit_cold, hit_warm) == (False, True)
        assert cold == warm
        records = cold["records"]
        assert len(records) == 2
        for record in records:
            assert record["estimator"] == "HLL-union"
            assert record["extra"]["engine"] == "sketch"
            assert record["extra"]["n_readers"] == 3
            # Metered air time, not wall-clock: deterministic across runs.
            assert record["seconds"] == records[0]["seconds"]
            assert abs(record["n_hat"] - N) / N < 3 * record["eps"]

    def test_key_sensitive_to_sketch_params(self):
        base = self._sketch_point()
        assert base.canonical != self._sketch_point(p=12).canonical
        assert base.canonical != self._sketch_point(n_readers=5).canonical
        assert base.canonical != self._sketch_point(overlap=0.1).canonical

    def test_token_paths_cover_sketch_sources(self):
        from repro.experiments.sweep import engine_token_paths

        rels = {"/".join(p.parts[-2:]) for p in engine_token_paths()}
        assert "sketch/hll.py" in rels
        assert "rfid/_native.py" in rels

    def test_native_edit_invalidates_cached_sketch_point(self, tmp_path):
        """Recompute the token digest as if ``_native.py`` had been edited:
        the digest must change, and a cache keyed by the new token must
        reject the entry stored under the old one."""
        import hashlib

        from repro.experiments.sweep import engine_token_paths, execute_point_inline

        pkg_paths = engine_token_paths()
        pkg = pkg_paths[0].parents[1]

        def digest(perturb_native: bool) -> str:
            h = hashlib.sha256()
            for path in pkg_paths:
                h.update(str(path.relative_to(pkg)).encode())
                h.update(b"\0")
                content = path.read_bytes()
                if perturb_native and path.name == "_native.py":
                    content += b"\n/* edited kernel */\n"
                h.update(content)
                h.update(b"\0")
            return h.hexdigest()[:16]

        assert digest(False) == engine_version_token()
        edited_token = digest(True)
        assert edited_token != engine_version_token()

        point = self._sketch_point(trials=1)
        cache = TrialCache(tmp_path)
        execute_point_inline(point, cache=cache)
        assert cache.load(point.canonical) is not None

        # The token is part of the content key, so under the edited token the
        # stored entry is unreachable — a clean miss that forces a recompute.
        stale_view = TrialCache(tmp_path, token=edited_token)
        assert stale_view.key(point.canonical) != cache.key(point.canonical)
        assert stale_view.load(point.canonical) is None
        assert stale_view.misses == 1


class TestEntryVerification:
    @pytest.mark.parametrize(
        "corruption",
        [
            lambda raw: "not json at all {",
            lambda raw: raw[: len(raw) // 2],  # truncated write
            lambda raw: "[]",  # wrong shape
            lambda raw: json.dumps({"format": 999}),  # wrong format marker
        ],
    )
    def test_corrupted_entries_are_discarded_and_recomputed(
        self, tmp_path, corruption
    ):
        cache = TrialCache(tmp_path)
        point = _point()
        cold = run_record_sweep([point], max_workers=1, cache=cache)[0]
        path = cache._path(point.canonical)
        path.write_text(corruption(path.read_text()))
        recomputed = run_record_sweep([point], max_workers=1, cache=cache)[0]
        assert cache.rejected == 1
        assert recomputed == cold
        # The recompute republished a valid entry.
        assert cache.load(point.canonical) is not None

    @pytest.mark.parametrize("n_threads", [2, 4])
    def test_concurrent_same_key_stores(self, tmp_path, n_threads):
        # Two engine threads of one server can compute the same (zone,
        # seed); their stores of one key must not share a temp file.
        cache = TrialCache(tmp_path / "cache")
        canonical = _point().canonical
        payload = {"records": [{"n_hat": 1.5, "seed": 5}]}
        start = threading.Barrier(n_threads)
        errors = []

        def hammer():
            start.wait()
            try:
                for _ in range(300):
                    cache.store(canonical, payload)
            except Exception as exc:  # noqa: BLE001 — collected for the assert
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hammer) for _ in range(n_threads)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert cache.load(canonical) == payload
        assert list(cache.directory.glob("*.tmp*")) == []

    def test_store_recreates_a_removed_directory(self, tmp_path):
        cache = TrialCache(tmp_path / "cache")
        first, second = _point(base_seed=1).canonical, _point(base_seed=2).canonical
        cache.store(first, {"v": 1})
        shutil.rmtree(cache.directory)
        cache.store(second, {"v": 2})
        assert cache.load(second) == {"v": 2}
        assert cache.load(first) is None

    def test_stats_and_clear(self, tmp_path):
        cache = TrialCache(tmp_path)
        run_sweep([_point()], max_workers=1, cache=cache)
        stats = cache.stats()
        assert stats["entries"] == 1
        assert stats["bytes"] > 0
        assert stats["session"]["stores"] == 1
        assert cache.clear() == 1
        assert cache.stats()["entries"] == 0


class TestScheduler:
    def test_output_order_deterministic_across_worker_counts(self, tmp_path, monkeypatch):
        scaled = BFCEConfig.scaled(2**17)
        hit = _point(engine="analytic", base_seed=40)
        points = [
            _point(base_seed=5),
            _point(base_seed=6),
            SweepPoint.rough_bound(
                c=0.5, distribution="T1", n=N, pop_seed=0, trials=2, base_seed=0
            ),
            _point(base_seed=5),  # duplicate of points[0]
            # Analytic points on two drive keys: the default w and w = 2^17.
            _point(engine="analytic", base_seed=1),
            _point(engine="analytic", n=40 * N, base_seed=9),
            _point(engine="analytic", n=50_000_000, config=scaled, base_seed=3),
            _point(engine="analytic", n=20_000_000, config=scaled, base_seed=4),
            SweepPoint.baseline_trials("ZOE", distribution="T1", n=N, trials=2, base_seed=3),
            hit,  # already in every cache
        ]
        caches = {
            name: TrialCache(tmp_path / name)
            for name in ("serial", "parallel", "inline", "single")
        }
        for cache in caches.values():
            execute_point_inline(hit, cache=cache)
        drives = []
        many = BFCE.estimate_analytic_many

        def counting(self, n, seeds, **kwargs):
            drives.append(len(seeds))
            return many(self, n, seeds, **kwargs)

        monkeypatch.setattr(BFCE, "estimate_analytic_many", counting)
        serial = run_sweep(points, max_workers=1, cache=caches["serial"])
        assert drives == [4, 4]  # one drive per drive key, two runs each
        parallel = run_sweep(points, max_workers=2, cache=caches["parallel"])
        outcomes, _ = execute_points_inline(points, cache=caches["inline"])
        assert [cached for _, cached in outcomes] == [p is hit for p in points]
        single = [execute_point_inline(p, cache=caches["single"])[0] for p in points]
        texts = [
            [json.dumps(payload, sort_keys=True) for payload in payloads]
            for payloads in (serial, parallel, [p for p, _ in outcomes], single)
        ]
        assert texts[0] == texts[1] == texts[2] == texts[3]
        assert serial[3] == serial[0]
        entries = {
            name: {path.name: path.read_bytes() for path in cache.directory.glob("*.json")}
            for name, cache in caches.items()
        }
        assert len(entries["serial"]) == len({p.canonical for p in points})
        assert entries["serial"] == entries["parallel"] == entries["inline"] == entries["single"]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_first_raising_point_in_input_order_raises(self, tmp_path, workers):
        ok = _point(engine="analytic", base_seed=1)
        # The default grid's estimable cap and a seed whose accurate frame
        # stays all-busy at pn_min there.
        all_busy = _point(
            engine="analytic", n=int(max_estimable_cardinality(8192, 1024, 3)),
            trials=1, base_seed=4778,
        )
        bad_args = SweepPoint.baseline_trials(
            "ZOE", distribution="T1", n=N, trials=1, args={"bogus": 1}
        )
        with pytest.raises(RuntimeError, match="all-busy"):
            run_sweep([ok, all_busy, bad_args], max_workers=workers, cache=TrialCache(tmp_path))
        with pytest.raises(TypeError, match="bogus"):
            run_sweep([ok, bad_args, all_busy], max_workers=workers, cache=TrialCache(tmp_path))

    def test_duplicate_points_execute_once(self, tmp_path):
        cache = TrialCache(tmp_path)
        run_sweep([_point(), _point(), _point()], max_workers=1, cache=cache)
        assert cache.stores == 1
        assert cache.misses == 1

    def test_cache_opt_out_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "0")
        assert not cache_enabled()
        monkeypatch.chdir(tmp_path)
        payloads = run_sweep([_point()], max_workers=1)
        assert payloads[0]["records"]
        assert not (tmp_path / ".repro_cache").exists()

    def test_cache_dir_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "alt"))
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        run_sweep([_point()], max_workers=1)
        assert list((tmp_path / "alt").glob("*.json"))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            SweepPoint.from_spec({"kind": "nope"})

    def test_unknown_baseline_rejected(self):
        with pytest.raises(ValueError, match="estimator"):
            SweepPoint.baseline_trials(
                "BFCE", distribution="T1", n=N, trials=1, base_seed=0
            )


class TestCachedCall:
    def test_round_trip_and_hit(self, tmp_path):
        cache = TrialCache(tmp_path)
        calls = []

        def compute():
            calls.append(1)
            return {"values": [0.1, 0.2, 1 / 3]}

        first = cached_call({"kind": "adhoc", "x": 1}, compute, cache=cache)
        second = cached_call({"kind": "adhoc", "x": 1}, compute, cache=cache)
        assert len(calls) == 1
        assert first == second
        assert first["values"][2] == 1 / 3  # JSON float round-trip is exact


class TestPopulationCache:
    def test_info_and_clear(self):
        population_cache_clear()
        base = population_cache_info()
        assert base.currsize == 0
        pop = population("T1", 1_000, seed=0)
        population("T1", 1_000, seed=0)
        info = population_cache_info()
        assert info.currsize == pop.tag_ids.nbytes  # currsize is bytes now
        assert info.maxsize >= info.currsize  # the byte budget
        assert info.hits >= 1
        population_cache_clear()
        assert population_cache_info().currsize == 0

    def test_copy_false_shares_readonly_ids(self):
        population_cache_clear()
        a = population("T1", 1_000, seed=0, copy=False)
        b = population("T1", 1_000, seed=0, copy=False)
        assert a.tag_ids is b.tag_ids
        assert not a.tag_ids.flags.writeable
        c = population("T1", 1_000, seed=0)
        assert c.tag_ids is not a.tag_ids
        assert c.tag_ids.flags.writeable
