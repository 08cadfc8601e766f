"""Request coalescing: same-tick estimate requests become one engine call.

The perf observation behind the service layer: the batched and analytic
engines amortise per-call overhead across trials, so *k* concurrent
single-seed requests against the same zone config cost far less as one
``trials=k`` call than as *k* calls.  Per-trial seeding is independent
(trial *t* of a batch with ``base_seed=s`` uses seed ``s+t``), so the
batch decomposes exactly into the singles — coalescing is bit-identical
by construction, and ``tests/service/test_coalescer.py`` pins it.

Mechanics: an ``estimate`` request lands in a pending group keyed by its
zone's :meth:`~repro.service.zones.ZoneConfig.group_key`.  The first
arrival arms a flush timer one *tick* out (default 2 ms — far below the
SLO, long enough for a burst to pile up); the flush snapshots all pending
groups and ships them to the shared executor as **one job**.  The job runs
the groups in order; within a group the distinct seeds are sorted and
split into contiguous runs, and each run becomes one ``SweepPoint``
executed through :func:`execute_point_inline` — so results flow through
the same JSON normalisation and content-addressed disk cache as offline
sweeps, topped by a small in-memory LRU for the hot repeats a disk
round-trip would dominate.  Duplicate (config, seed) requests in a tick
share a single result.  A group that raises fails only its own waiters.

Threading: futures are created, resolved and awaited on the event loop;
engine work (and its ``service.request > service.coalesce >
service.engine`` spans — the tracer's span stack is thread-local) runs
inside the executor thread.  Each tick costs one executor job and one loop
wakeup.  A job is *compute → deliver → persist*: it runs every group,
hands all outcomes to the loop in one ``call_soon_threadsafe`` callback,
and only then writes the tick's misses to the :class:`TrialCache` — no
response waits on a disk write (``service.engine.seconds`` covers the
compute alone).  A store that fails after delivery is logged and counted
as ``service.cache.store_failed``, never an error response; a crash
between delivery and persist loses only cache entries.  Until a store
lands, a later tick's lookup of that entry waits for it, so an answered
(config, seed) run is served from memory or disk, never recomputed, even
after the memory LRU evicts it.  ``stop()`` drains the executor, so every
computed entry is on disk after shutdown.  The reason for one job per
tick is the GIL: one job (and one loop wakeup) per *group* handed the GIL
between the loop and the engine threads about once per request.  On the serve-cold benchmark (2-vCPU host) that cost 40–45
voluntary context switches and 2.2–3.5 ms of server CPU per request,
0.4–0.5 ms of it on the loop thread; one job per tick costs 0.2–0.6
switches and 1.0–1.3 ms, 0.12–0.17 ms on the loop.  The trade-off is
head-of-line blocking: within a tick job a slow group delays the responses
of the groups after it.  ``service.coalesce.job_groups`` (groups per job,
observed once per tick) shows how many groups shared a job.
"""

from __future__ import annotations

import asyncio
import logging
import threading
import time
from collections import OrderedDict
from concurrent.futures import Executor

from ..experiments.sweep import TrialCache, execute_point_inline
from ..obs import metrics as _metrics
from ..obs import trace as _trace
from .protocol import ServiceError
from .zones import ZoneConfig

__all__ = ["RequestCoalescer"]

_log = logging.getLogger(__name__)

#: Default flush tick: long enough to collect a concurrent burst, well
#: under the 50 ms p99 SLO even stacked on an engine call.
DEFAULT_TICK_SECONDS = 0.002

#: Default in-memory result cache size, in (config, seed) entries.  One
#: entry is one trial-record dict (~400 bytes), so 4096 ≈ 1.6 MB.
DEFAULT_MEMORY_ENTRIES = 4096


class _Group:
    """Pending requests for one zone-config group within a tick."""

    __slots__ = ("config", "waiters")

    def __init__(self, config: ZoneConfig) -> None:
        self.config = config
        # seed -> list of futures awaiting that seed's record
        self.waiters: dict[int, list[asyncio.Future]] = {}


class _TickCache:
    """The disk cache as one tick job sees it.

    Lookups first wait out a store of the same entry still in flight from
    an earlier tick; stores are held back, to be written once the tick's
    responses are out.
    """

    __slots__ = ("cache", "landing", "held")

    def __init__(self, cache: TrialCache, landing: dict) -> None:
        self.cache = cache
        self.landing = landing  # canonical -> Event set once its store ended
        self.held: list[tuple] = []

    def load(self, canonical: str):
        pending = self.landing.get(canonical)
        if pending is not None:
            pending.wait()
        return self.cache.load(canonical)

    def store(self, canonical: str, payload, *, text: str | None = None) -> None:
        self.held.append((canonical, payload, text))


class RequestCoalescer:
    """Batches same-tick estimate requests into single engine calls."""

    def __init__(
        self,
        *,
        cache: TrialCache | None = None,
        executor: Executor,
        tick_seconds: float = DEFAULT_TICK_SECONDS,
        memory_entries: int = DEFAULT_MEMORY_ENTRIES,
    ) -> None:
        if tick_seconds < 0:
            raise ValueError("tick_seconds must be >= 0")
        self.cache = cache
        self.executor = executor
        self.tick_seconds = float(tick_seconds)
        self.memory_entries = int(memory_entries)
        self._pending: dict[str, _Group] = {}
        self._flush_handle: asyncio.TimerHandle | None = None
        self._memory: OrderedDict[tuple[str, int], dict] = OrderedDict()
        self._landing: dict[str, threading.Event] = {}
        self.batches = 0
        self.engine_calls = 0
        self.memory_hits = 0

    # ------------------------------------------------------------------
    async def estimate(self, config: ZoneConfig, seed: int) -> dict:
        """One trial record for (config, seed), coalesced with peers.

        Returns the record dict exactly as a direct
        ``execute_point_inline`` single would produce it.
        """
        seed = int(seed)
        key = config.group_key()
        # Always-on request span on the warm path, head-sampled by the
        # tracer.  It brackets only the memory-LRU probe and MUST stay
        # await-free: the span stack is thread-local, so a task switch
        # inside an open span would interleave another request's spans
        # into this tree.  The service bench's telemetry phase gates the
        # cost of this span at 1/64 sampling against tracing disabled.
        with _trace.span("service.lookup", engine=config.engine) as sp:
            hit = self._memory_get(key, seed)
            if sp:
                sp.set(cached=hit is not None)
        if hit is not None:
            self.memory_hits += 1
            _metrics.inc("service.cache.memory_hit")
            return hit
        group = self._pending.get(key)
        if group is None:
            group = self._pending[key] = _Group(config)
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        group.waiters.setdefault(seed, []).append(future)
        if self._flush_handle is None:
            self._flush_handle = loop.call_later(self.tick_seconds, self._flush)
        return await future

    def _flush(self) -> None:
        """Tick fired: ship every pending group to the executor as one job."""
        self._flush_handle = None
        pending, self._pending = self._pending, {}
        batches = []
        for group in pending.values():
            seeds = sorted(group.waiters)
            self.batches += 1
            _metrics.observe("service.coalesce.batch", float(len(seeds)))
            batches.append((group, seeds))
        _metrics.observe("service.coalesce.job_groups", float(len(batches)))
        self.executor.submit(
            self._run_tick_sync, batches, asyncio.get_running_loop()
        )

    def _run_tick_sync(self, batches, loop) -> None:
        """Executor thread: compute a tick's groups, deliver, then persist.

        Each group's outcome is its records, or the exception it raised — a
        failing group fails only its own waiters.  One loop callback hands
        every outcome over; the tick's misses are written to disk after it.
        """
        cache = None if self.cache is None else _TickCache(self.cache, self._landing)
        outcomes: list = []
        for group, seeds in batches:
            try:
                outcomes.append(self._run_group_sync(group.config, seeds, cache))
            except Exception as exc:  # noqa: BLE001 — delivered to the group
                outcomes.append(exc)
        held = [] if cache is None else cache.held
        landed = threading.Event()
        for canonical, _, _ in held:
            self._landing[canonical] = landed
        try:
            loop.call_soon_threadsafe(self._deliver, batches, outcomes)
        except RuntimeError:  # loop closed: nobody is waiting any more
            pass
        try:
            for canonical, payload, text in held:
                try:
                    self.cache.store(canonical, payload, text=text)
                except Exception:  # noqa: BLE001 — the answer is already out
                    _log.exception("cache store failed after delivery")
                    _metrics.inc("service.cache.store_failed")
        finally:
            landed.set()
            for canonical, _, _ in held:
                if self._landing.get(canonical) is landed:
                    del self._landing[canonical]

    # ------------------------------------------------------------------
    def _run_group_sync(self, config: ZoneConfig, seeds: list[int], cache) -> list[dict]:
        """Executor thread: run one group's seeds, minimal engine calls.

        Sorted unique seeds are split into contiguous runs; each run is one
        batched engine call (``trials=len(run), base_seed=run[0]`` — per-
        trial seed ``base+t`` makes the batch decompose into the singles).
        Returns one record dict per seed, in ``seeds`` order.
        """
        started = time.perf_counter()
        records: list[dict] = []
        # The span chain lives entirely in this thread (the tracer's span
        # stack is thread-local): request > coalesce > engine.
        with _trace.span(
            "service.request", engine=config.engine, seeds=len(seeds)
        ), _trace.span(
            "service.coalesce", group_seeds=len(seeds), n=int(config.n)
        ) as sp:
            cache_hits = 0
            for run_start, run_len in _contiguous_runs(seeds):
                point = config.point(base_seed=run_start, trials=run_len)
                with _trace.span(
                    "service.engine",
                    engine=config.engine,
                    trials=run_len,
                    base_seed=run_start,
                ):
                    payload, was_hit = execute_point_inline(point, cache=cache)
                self.engine_calls += 1
                _metrics.inc("service.engine.calls")
                if was_hit:
                    cache_hits += 1
                    _metrics.inc("service.cache.disk_hit")
                run_records = payload["records"]
                if len(run_records) != run_len:
                    raise ServiceError(
                        500,
                        f"engine returned {len(run_records)} records "
                        f"for a {run_len}-trial point",
                    )
                records.extend(run_records)
            if sp:
                sp.set(engine_calls=self.engine_calls, disk_hits=cache_hits)
        _metrics.observe("service.engine.seconds", time.perf_counter() - started)
        return records

    def _deliver(self, batches, outcomes) -> None:
        """Loop thread: one callback fans every group of a tick job out to
        its waiters — the group's records, or the exception it raised."""
        for (group, seeds), outcome in zip(batches, outcomes):
            failed = isinstance(outcome, Exception)
            key = group.config.group_key()
            for index, seed in enumerate(seeds):
                for future in group.waiters[seed]:
                    if future.done():  # waiter went away (connection dropped)
                        continue
                    if failed:
                        future.set_exception(_as_service_error(outcome))
                    else:
                        future.set_result(outcome[index])
                if not failed:
                    self._memory_put(key, seed, outcome[index])

    # ------------------------------------------------------------------
    def _memory_get(self, key: str, seed: int) -> dict | None:
        entry = self._memory.get((key, seed))
        if entry is not None:
            self._memory.move_to_end((key, seed))
        return entry

    def _memory_put(self, key: str, seed: int, record: dict) -> None:
        if self.memory_entries <= 0:
            return
        self._memory[(key, seed)] = record
        self._memory.move_to_end((key, seed))
        while len(self._memory) > self.memory_entries:
            self._memory.popitem(last=False)

    def stats(self) -> dict:
        """JSON-ready counters for ``health`` responses."""
        return {
            "tick_seconds": self.tick_seconds,
            "batches": self.batches,
            "engine_calls": self.engine_calls,
            "memory_entries": len(self._memory),
            "memory_hits": self.memory_hits,
            "disk_cache": self.cache.stats()["session"] if self.cache else None,
        }


def _contiguous_runs(sorted_seeds: list[int]):
    """Yield (start, length) for each maximal contiguous run of seeds."""
    index = 0
    total = len(sorted_seeds)
    while index < total:
        start = sorted_seeds[index]
        length = 1
        while (
            index + length < total
            and sorted_seeds[index + length] == start + length
        ):
            length += 1
        yield start, length
        index += length


def _as_service_error(exc: Exception) -> ServiceError:
    if isinstance(exc, ServiceError):
        return exc
    return ServiceError(500, f"engine failure: {type(exc).__name__}: {exc}")
