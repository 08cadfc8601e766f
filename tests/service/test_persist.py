"""Deliver, then persist: a miss is answered before its cache entry is written.

A coalescer tick job computes every group, hands the outcomes to the loop
and only then stores the tick's misses.  These tests pin what that order
must not break: a store that blocks or fails never holds back or fails a
response, an answered run is never recomputed while its store is in
flight, and ``EstimationServer.stop()`` leaves every computed entry on disk.
"""

from __future__ import annotations

import asyncio
import json
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor

from repro.experiments.sweep import TrialCache, execute_point_inline
from repro.obs import metrics
from repro.service.coalescer import RequestCoalescer
from repro.service.server import EstimationServer
from repro.service.zones import ZoneConfig

N = 3_000
CONFIG = ZoneConfig(n=N, engine="analytic")


class GatedCache(TrialCache):
    """A disk cache whose stores wait for ``gate`` before writing."""

    def __init__(self, directory, gate: threading.Event) -> None:
        super().__init__(directory)
        self.gate = gate

    def store(self, canonical, payload, *, text=None):
        assert self.gate.wait(30), "store gate never opened"
        super().store(canonical, payload, text=text)


class SlowCache(TrialCache):
    """A disk cache whose every store takes a while."""

    def store(self, canonical, payload, *, text=None):
        time.sleep(0.02)
        super().store(canonical, payload, text=text)


def direct_single(config, seed):
    payload, _ = execute_point_inline(config.point(base_seed=seed, trials=1), cache=None)
    return payload["records"][0]


def run_coalescer(scenario, cache, **kwargs):
    async def main():
        with ThreadPoolExecutor(max_workers=2) as executor:
            coalescer = RequestCoalescer(
                cache=cache, executor=executor, tick_seconds=0.001, **kwargs
            )
            try:
                return await scenario(coalescer)
            finally:
                gate = getattr(cache, "gate", None)
                if gate is not None:
                    gate.set()  # never leave the executor drain stuck

    return asyncio.run(main())


def entries(cache: TrialCache) -> list:
    return sorted(cache.directory.glob("*.json")) if cache.directory.is_dir() else []


def test_blocked_store_still_resolves_its_waiters(tmp_path):
    cache = GatedCache(tmp_path / "cache", threading.Event())

    async def scenario(coalescer):
        records = await asyncio.wait_for(
            asyncio.gather(*(coalescer.estimate(CONFIG, s) for s in (5, 6, 9))), 30
        )
        # Answered while both runs' stores wait on the gate.
        assert cache.stores == 0 and entries(cache) == []
        cache.gate.set()
        return records

    records = run_coalescer(scenario, cache)
    for seed, record in zip((5, 6, 9), records):
        assert record == direct_single(CONFIG, seed)
    # The executor drained on exit: both runs ([5, 6] and [9]) landed.
    assert cache.stores == 2 and len(entries(cache)) == 2
    fresh = TrialCache(cache.directory)
    stored = fresh.load(CONFIG.point(base_seed=9, trials=1).canonical)
    assert stored["records"] == [records[2]]


def test_answered_run_is_never_recomputed_while_its_store_is_in_flight(tmp_path):
    cache = GatedCache(tmp_path / "cache", threading.Event())

    async def scenario(coalescer):
        first = await asyncio.wait_for(coalescer.estimate(CONFIG, 5), 30)
        # No memory LRU: the repeat goes to the disk cache, whose entry is
        # still held at the gate — the lookup waits for it to land.
        again = asyncio.ensure_future(coalescer.estimate(CONFIG, 5))
        await asyncio.sleep(0.1)
        assert not again.done()
        cache.gate.set()
        return first, await asyncio.wait_for(again, 30)

    first, again = run_coalescer(scenario, cache, memory_entries=0)
    assert first == again == direct_single(CONFIG, 5)
    assert (cache.misses, cache.hits, cache.stores) == (1, 1, 1)
    assert metrics.get("service.cache.disk_hit") == 1


def error_counters() -> dict:
    return {
        name: value
        for name, value in metrics.snapshot()["counters"].items()
        if name.startswith("service.errors")
    }


def test_failing_store_answers_ok_and_counts_outside_service_errors(tmp_path, monkeypatch):
    cache = TrialCache(tmp_path / "cache")
    real_replace = os.replace

    def replace(src, dst, *args, **kwargs):
        # Cache entries only: the metrics snapshot under meta/ still saves.
        if os.path.dirname(os.fspath(src)) == str(cache.directory):
            raise OSError("injected rename failure")
        return real_replace(src, dst, *args, **kwargs)

    zones = {"z0": CONFIG, "z1": ZoneConfig(n=N + 1, engine="analytic")}
    requests = [("z0", 3), ("z1", 3), ("z0", 8)]

    async def scenario():
        server = EstimationServer(zones=zones, cache=cache, executor_workers=2)
        await server.start()
        try:
            reader, writer = await asyncio.open_connection("127.0.0.1", server.bound_port)
            responses = []
            for rid, (zone, seed) in enumerate(requests):  # one tick, one store each
                line = f'{{"op":"estimate","zone":"{zone}","seed":{seed},"id":{rid}}}\n'
                writer.write(line.encode())
                await writer.drain()
                responses.append(await asyncio.wait_for(reader.readline(), 30))
            writer.close()
            await writer.wait_closed()
        finally:
            await server.stop()
        return responses

    monkeypatch.setattr(os, "replace", replace)
    responses = asyncio.run(scenario())
    monkeypatch.undo()
    for raw, (zone, seed) in zip(responses, requests):
        response = json.loads(raw)
        assert response["ok"], response
        assert response["record"] == direct_single(zones[zone], seed)
    assert metrics.get("service.cache.store_failed") == len(requests)
    assert error_counters() == {}
    assert cache.stores == 0 and entries(cache) == []
    assert list(cache.directory.glob("*.tmp*")) == []


def test_stop_leaves_every_computed_entry_on_disk(tmp_path):
    cache = SlowCache(tmp_path / "cache")
    zones = {f"z{i}": ZoneConfig(n=N + i, engine="analytic") for i in range(4)}

    async def scenario():
        server = EstimationServer(zones=zones, cache=cache, executor_workers=2)
        await server.start()
        try:
            reader, writer = await asyncio.open_connection("127.0.0.1", server.bound_port)
            rid = 0
            for seed in (1, 2, 7):
                for zone in zones:
                    line = f'{{"op":"estimate","zone":"{zone}","seed":{seed},"id":{rid}}}\n'
                    writer.write(line.encode())
                    rid += 1
            await writer.drain()
            for _ in range(rid):
                assert b'"ok":true' in await asyncio.wait_for(reader.readline(), 30)
            writer.close()
            await writer.wait_closed()
        finally:
            await server.stop()

    asyncio.run(scenario())
    assert cache.misses > 0
    assert cache.stores == cache.misses
    assert len(entries(cache)) == cache.misses
