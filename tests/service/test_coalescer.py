"""Coalescer tests — the load-bearing one is bit-identity.

The coalescer's claim is *performance only*: N concurrent single-seed
requests answered from one batched engine call (or any cache layer) must
be byte-for-byte the records N sequential direct singles produce.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import Executor, ThreadPoolExecutor

import pytest

from repro.experiments.sweep import execute_point_inline
from repro.obs import metrics, trace
from repro.obs import report as obs_report
from repro.service.coalescer import RequestCoalescer, _contiguous_runs
from repro.service.protocol import ServiceError
from repro.service.zones import ZoneConfig

N = 3_000


def run_with_coalescer(fn, *, cache=None, **kwargs):
    async def main():
        with ThreadPoolExecutor(max_workers=2) as executor:
            coalescer = RequestCoalescer(
                cache=cache, executor=executor, tick_seconds=0.001, **kwargs
            )
            return await fn(coalescer)

    return asyncio.run(main())


def direct_single(config, seed):
    """The reference: one direct inline engine call for one seed."""
    payload, _ = execute_point_inline(
        config.point(base_seed=seed, trials=1), cache=None
    )
    return payload["records"][0]


@pytest.mark.parametrize("engine", ["batched", "analytic"])
def test_coalesced_batch_bit_identical_to_sequential_singles(cache, engine):
    config = ZoneConfig(n=N, engine=engine)
    seeds = [3, 4, 5, 6]

    async def scenario(coalescer):
        return await asyncio.gather(
            *(coalescer.estimate(config, seed) for seed in seeds)
        )

    served = run_with_coalescer(scenario, cache=cache)
    # Same tick + contiguous seeds: one batched engine call, not four.
    assert metrics.get("service.engine.calls") == 1
    for seed, record in zip(seeds, served):
        assert record == direct_single(config, seed)


def test_gap_seeds_split_into_contiguous_runs(cache):
    config = ZoneConfig(n=N, engine="batched")
    seeds = [10, 11, 40, 41, 42, 99]

    async def scenario(coalescer):
        return await asyncio.gather(
            *(coalescer.estimate(config, seed) for seed in seeds)
        )

    served = run_with_coalescer(scenario, cache=cache)
    assert metrics.get("service.engine.calls") == 3  # three runs
    for seed, record in zip(seeds, served):
        assert record["seed"] == seed
        assert record == direct_single(config, seed)


def test_duplicate_seeds_share_one_result(cache):
    config = ZoneConfig(n=N, engine="batched")

    async def scenario(coalescer):
        return await asyncio.gather(
            *(coalescer.estimate(config, 5) for _ in range(6))
        )

    served = run_with_coalescer(scenario, cache=cache)
    assert metrics.get("service.engine.calls") == 1
    assert all(record == served[0] for record in served)


def test_distinct_configs_never_share_a_batch(cache):
    config_a = ZoneConfig(n=N, engine="batched")
    config_b = ZoneConfig(n=N, engine="batched", eps=0.1)

    async def scenario(coalescer):
        return await asyncio.gather(
            coalescer.estimate(config_a, 0), coalescer.estimate(config_b, 0)
        )

    record_a, record_b = run_with_coalescer(scenario, cache=cache)
    assert metrics.get("service.engine.calls") == 2
    assert record_a["eps"] == 0.05 and record_b["eps"] == 0.1


def test_memory_lru_serves_repeats_without_engine_calls(cache):
    config = ZoneConfig(n=N, engine="batched")

    async def scenario(coalescer):
        first = await coalescer.estimate(config, 5)
        again = await coalescer.estimate(config, 5)
        assert coalescer.memory_hits == 1
        return first, again

    first, again = run_with_coalescer(scenario, cache=cache)
    assert metrics.get("service.engine.calls") == 1
    assert first == again == direct_single(config, 5)


def test_memory_lru_evicts_at_capacity(cache):
    config = ZoneConfig(n=N, engine="analytic")

    async def scenario(coalescer):
        for seed in range(4):
            await coalescer.estimate(config, seed)
        assert len(coalescer._memory) == 2  # capacity bound held
        await coalescer.estimate(config, 3)  # newest: memory hit
        assert coalescer.memory_hits == 1
        await coalescer.estimate(config, 0)  # oldest: evicted, disk hit
        return coalescer.stats()

    stats = run_with_coalescer(scenario, cache=cache, memory_entries=2)
    assert stats["memory_hits"] == 1
    assert metrics.get("service.cache.disk_hit") == 1


def test_disk_cache_hit_is_bit_identical_across_coalescer_instances(cache):
    config = ZoneConfig(n=N, engine="batched")

    async def scenario(coalescer):
        return await coalescer.estimate(config, 9)

    cold = run_with_coalescer(scenario, cache=cache)
    warm = run_with_coalescer(scenario, cache=cache)  # fresh LRU: disk path
    assert cold == warm == direct_single(config, 9)
    assert cache.hits >= 1


def test_engine_failure_reaches_every_waiter_as_service_error(cache):
    # An invalid distribution sneaks past ZoneConfig (which doesn't pin the
    # label set) and explodes inside the engine; both waiters must see a 500.
    config = ZoneConfig(n=N, distribution="T9", engine="batched")

    async def scenario(coalescer):
        results = await asyncio.gather(
            coalescer.estimate(config, 0),
            coalescer.estimate(config, 1),
            return_exceptions=True,
        )
        return results

    results = run_with_coalescer(scenario, cache=cache)
    assert len(results) == 2
    for exc in results:
        assert isinstance(exc, ServiceError)
        assert exc.code == 500


class CountingExecutor(Executor):
    """Forwards to a thread pool, counting the jobs it is handed."""

    def __init__(self, inner: Executor) -> None:
        self.inner = inner
        self.submits = 0

    def submit(self, fn, /, *args, **kwargs):
        self.submits += 1
        return self.inner.submit(fn, *args, **kwargs)


def run_counting(fn, *, cache=None):
    async def main():
        with ThreadPoolExecutor(max_workers=2) as pool:
            executor = CountingExecutor(pool)
            coalescer = RequestCoalescer(
                cache=cache, executor=executor, tick_seconds=0.001
            )
            return await fn(coalescer), executor.submits

    return asyncio.run(main())


def test_one_executor_job_per_tick(cache):
    configs = [ZoneConfig(n=N + i, engine="analytic") for i in range(4)]

    async def scenario(coalescer):
        return await asyncio.gather(
            *(coalescer.estimate(config, 7) for config in configs)
        )

    served, submits = run_counting(scenario, cache=cache)
    # Four groups, one tick: one executor job and one engine call each.
    assert submits == 1
    assert metrics.get("service.engine.calls") == 4
    job_groups = metrics.histograms()["service.coalesce.job_groups"]
    assert (job_groups["count"], job_groups["sum"]) == (1, 4.0)
    for config, record in zip(configs, served):
        assert record == direct_single(config, 7)


def test_obs_summary_reports_groups_per_executor_job(cache, tmp_path):
    configs = [ZoneConfig(n=N + i, engine="analytic") for i in range(3)]

    async def scenario(coalescer):
        await asyncio.gather(*(coalescer.estimate(c, 2) for c in configs))
        await coalescer.estimate(configs[0], 3)  # a second, one-group tick

    path = tmp_path / "t.jsonl"
    trace.configure(path)
    run_counting(scenario, cache=cache)
    trace.flush()
    summary = obs_report.summarise(path)
    assert summary["service"]["mean_job_groups"] == 2.0  # (3 + 1) / 2 ticks
    assert summary["service"]["mean_batch"] == 1.0
    text = obs_report.render_summary(summary)
    assert "2.00 group(s) per executor job" in text


def test_failing_group_fails_only_its_own_waiters(cache):
    broken = ZoneConfig(n=N, distribution="T9", engine="batched")
    healthy = ZoneConfig(n=N, engine="batched")

    async def scenario(coalescer):
        return await asyncio.gather(
            coalescer.estimate(broken, 0),
            coalescer.estimate(healthy, 3),
            coalescer.estimate(broken, 1),
            coalescer.estimate(healthy, 4),
            return_exceptions=True,
        )

    (bad0, good3, bad1, good4), submits = run_counting(scenario, cache=cache)
    assert submits == 1  # both groups rode the same tick job
    for exc in (bad0, bad1):
        assert isinstance(exc, ServiceError)
        assert exc.code == 500
    assert good3 == direct_single(healthy, 3)
    assert good4 == direct_single(healthy, 4)


def test_contiguous_runs_helper():
    assert list(_contiguous_runs([])) == []
    assert list(_contiguous_runs([5])) == [(5, 1)]
    assert list(_contiguous_runs([1, 2, 3])) == [(1, 3)]
    assert list(_contiguous_runs([1, 3, 4, 9])) == [(1, 1), (3, 2), (9, 1)]
