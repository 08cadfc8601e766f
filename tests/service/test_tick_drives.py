"""One lockstep drive per drive key per coalescer tick.

A tick job looks every run up, then advances the readers of all miss runs
sharing a BFCE config, an (ε, δ) requirement, a channel and a persistence
mode through one drive.  Every reader keeps its own stream and ledger, so
each served record — and each cache entry — must equal the run executed
alone, byte for byte; a drive that raises must fail only the runs that
raise.
"""

from __future__ import annotations

import asyncio
import json
from concurrent.futures import Executor, ThreadPoolExecutor

import pytest

from repro.core.bfce import BFCE
from repro.core.estmath import max_estimable_cardinality
from repro.experiments.sweep import (
    SweepPoint,
    TrialCache,
    _dumps,
    _encode,
    _exec_bfce_trials,
    execute_point_inline,
)
from repro.obs import metrics
from repro.obs.live import LiveTelemetry
from repro.service.coalescer import RequestCoalescer
from repro.service.protocol import ServiceError
from repro.service.zones import ZoneConfig

NOISY = {"type": "noisy", "miss_prob": 0.05, "false_alarm_prob": 0.01}
#: The default grid's estimable cap, and a seed whose accurate frame stays
#: all-busy at pn_min there (the ~1-in-2000 tail), found by a seed search.
CAP = int(max_estimable_cardinality(8192, 1024, 3))
RAISING_SEED = 4778


class NoisyZone(ZoneConfig):
    """A zone whose runs sense through ``NoisyChannel(0.05, 0.01)``."""

    def point(self, *, base_seed: int, trials: int) -> SweepPoint:
        spec = super().point(base_seed=base_seed, trials=trials).spec
        return SweepPoint.from_spec({**spec, "channel": NOISY})

    def group_key(self) -> str:
        return "noisy:" + super().group_key()


class CountingExecutor(Executor):
    def __init__(self, inner: Executor) -> None:
        self.inner = inner
        self.submits = 0

    def submit(self, fn, /, *args, **kwargs):
        self.submits += 1
        return self.inner.submit(fn, *args, **kwargs)


def one_tick(requests, cache):
    """Serve ``requests`` ((config, seed) pairs) in one tick."""

    async def main():
        with ThreadPoolExecutor(max_workers=2) as pool:
            executor = CountingExecutor(pool)
            coalescer = RequestCoalescer(cache=cache, executor=executor, tick_seconds=0.001)
            served = await asyncio.gather(
                *(coalescer.estimate(config, seed) for config, seed in requests),
                return_exceptions=True,
            )
            return served, executor.submits

    return asyncio.run(main())


def alone(config, seed):
    """The reference: the one-seed run executed alone, JSON-normalised."""
    payload, _ = _encode(_exec_bfce_trials(config.point(base_seed=seed, trials=1).spec))
    return payload["records"][0]


DEFAULT_A = ZoneConfig(n=1_000)
DEFAULT_B = ZoneConfig(n=300_000)
SCALED_A = ZoneConfig(n=50_000_000, w=1 << 17)
SCALED_B = ZoneConfig(n=20_000_000, w=1 << 17)
NOISY_ZONE = NoisyZone(n=30_000)
STATIC_ZONE = ZoneConfig(n=30_000, persistence_mode="static")
#: Seeds per zone: gap seeds (several runs per zone) and one duplicate.
MIXED = {
    DEFAULT_A: [1, 2, 5],
    DEFAULT_B: [7, 7, 8],
    SCALED_A: [3],
    SCALED_B: [3, 4, 9],
    NOISY_ZONE: [11, 12],
    STATIC_ZONE: [20, 21, 40],
}
#: Miss runs share a drive per (config, requirement, channel, mode).
MIXED_DRIVES = 4  # default-w, 2^17-w, noisy, static
#: Contiguous runs over the distinct seeds of every zone.
MIXED_RUNS = 9
DISK_HIT = (STATIC_ZONE, 40)


def mixed_requests():
    return [(config, seed) for config, seeds in MIXED.items() for seed in seeds]


def test_mixed_tick_serves_the_bytes_of_each_run_alone(tmp_path):
    cache = TrialCache(tmp_path / "cache")
    hit_config, hit_seed = DISK_HIT
    execute_point_inline(hit_config.point(base_seed=hit_seed, trials=1), cache=cache)
    metrics.reset()

    requests = mixed_requests()
    served, submits = one_tick(requests, cache)
    assert submits == 1
    for (config, seed), record in zip(requests, served):
        assert _dumps(record) == _dumps(alone(config, seed)), (config, seed)
    assert metrics.get("service.engine.drives") == MIXED_DRIVES
    assert metrics.get("service.cache.disk_hit") == 1
    assert metrics.get("service.engine.calls") == MIXED_RUNS
    readers = metrics.histograms()["service.engine.readers"]
    # Every distinct seed but the disk hit's is one reader.
    assert (readers["count"], readers["sum"]) == (MIXED_DRIVES, 13.0)


def test_mixed_tick_stores_the_entries_of_each_run_alone(tmp_path):
    merged = TrialCache(tmp_path / "merged")
    one_tick(mixed_requests(), merged)
    reference = TrialCache(tmp_path / "reference")
    assert len(list(merged.directory.glob("*.json"))) == MIXED_RUNS
    for path in merged.directory.glob("*.json"):
        entry = json.loads(path.read_bytes())
        execute_point_inline(SweepPoint(entry["spec"]), cache=reference)
        assert (reference.directory / path.name).read_bytes() == path.read_bytes()


def test_raising_run_fails_only_its_own_waiters(cache):
    edge = ZoneConfig(n=CAP)
    with pytest.raises(RuntimeError, match="all-busy"):
        BFCE().estimate_analytic(CAP, seed=RAISING_SEED)
    # One drive key: the raising run shares its drive with every other run.
    requests = [
        (edge, RAISING_SEED),
        (edge, RAISING_SEED),  # a second waiter of the raising run
        (edge, RAISING_SEED + 2),
        (DEFAULT_A, 1),
        (DEFAULT_A, 2),
        (DEFAULT_B, 7),
    ]
    served, submits = one_tick(requests, cache)
    assert submits == 1
    for failed in served[:2]:
        assert isinstance(failed, ServiceError)
        assert failed.code == 500
        assert "all-busy" in str(failed)
    for (config, seed), record in zip(requests[2:], served[2:]):
        assert _dumps(record) == _dumps(alone(config, seed))
    # The merged drive, then one drive per run of the re-drive.
    assert metrics.get("service.engine.drives") == 1 + 4
    # Only the answered runs reach the cache.
    assert len(list(cache.directory.glob("*.json"))) == 3


def test_live_telemetry_reconciles_across_a_merged_tick(cache):
    names = [
        "service.engine.calls",
        "service.engine.drives",
        "service.cache.disk_hit",
        "frame.count",
        "frame.slots.idle",
        "frame.slots.busy",
        "kernel.native.analytic_scatter",
        "kernel.native.calls",
        "engine.trials.analytic",
        "sweep.cache.miss",
    ]
    telemetry = LiveTelemetry()
    telemetry.attach()
    try:
        one_tick(mixed_requests(), cache)
        reconcile = telemetry.reconcile(names)
    finally:
        telemetry.detach()
    assert all(entry["exact"] for entry in reconcile.values()), reconcile
    assert reconcile["service.engine.drives"]["windowed"] == MIXED_DRIVES


class UnplannableZone(ZoneConfig):
    """A zone whose sweep point cannot even be built."""

    def point(self, *, base_seed: int, trials: int) -> SweepPoint:
        raise ValueError("no point for this zone")

    def group_key(self) -> str:
        return "unplannable:" + super().group_key()


def test_a_tick_that_fails_outside_its_runs_answers_every_waiter(cache):
    served, _ = one_tick([(UnplannableZone(n=1_000), 1), (DEFAULT_A, 1)], cache)
    for failed in served:
        assert isinstance(failed, ServiceError)
        assert failed.code == 500
