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
groups and ships them to the shared executor as **one job**.  Within a
group the distinct seeds are sorted and split into contiguous runs, each
run one ``SweepPoint``, and the job is

1. **lookups** — every run of the tick is looked up in the
   content-addressed disk cache (under a small in-memory LRU for the hot
   repeats a disk round-trip would dominate);
2. **drives per key** — the analytic miss runs sharing a BFCE config, a
   channel and a persistence mode advance all their readers through one
   lockstep drive, each reader planned with its own zone's (ε, δ), and
   batched runs on one population and config likewise, so a tick of eight
   analytic zones on two frame sizes runs two drives, not eight.  Steps 1–2 are :func:`execute_points_inline`, the sweep
   layer's one in-process executor — the same lookup, drive and encode
   path an in-process ``run_sweep`` takes;
3. **split** — each run's records, or the exception that run raised, go
   back to its group's seeds: a run that raises fails only its own waiters
   (a merged drive that raises is re-driven one run at a time);
4. **deliver** — one ``call_soon_threadsafe`` callback hands every outcome
   to the loop;
5. **persist** — only then are the tick's misses written to the
   :class:`TrialCache`.

Results flow through the same JSON normalisation and cache entries as
offline sweeps, and every payload equals the run's own
``execute_point_inline`` byte for byte.  Duplicate (config, seed) requests
in a tick share a single result.

Threading: futures are created, resolved and awaited on the event loop;
engine work (and its ``service.request > service.coalesce >
service.engine`` spans — the tracer's span stack is thread-local) runs
inside the executor thread.  Each tick costs one executor job and one loop
wakeup.  No response waits on a disk write (``service.engine.seconds``
covers the compute alone).  A store that fails after delivery is logged
and counted as ``service.cache.store_failed``, never an error response; a
crash between delivery and persist loses only cache entries.  Until a
store lands, a later tick's lookup of that entry waits for it, so an
answered (config, seed) run is served from memory or disk, never
recomputed, even after the memory LRU evicts it.  ``stop()`` drains the
executor, so every computed entry is on disk after shutdown.  The reason
for one job per tick is the GIL: one job (and one loop wakeup) per *group*
handed the GIL between the loop and the engine threads about once per
request.  On the serve-cold benchmark (2-vCPU host) that cost 40–45
voluntary context switches and 2.2–3.5 ms of server CPU per request,
0.4–0.5 ms of it on the loop thread; one job per tick costs 0.2–0.6
switches and 1.0–1.3 ms, 0.12–0.17 ms on the loop.  The trade-off is
head-of-line blocking: a slow drive delays the whole tick's responses.
Counters: ``service.engine.calls`` counts runs, ``service.engine.drives``
counts drives (``service.engine.readers`` observes each drive's readers),
and ``service.coalesce.job_groups`` observes the groups of each tick job.
"""

from __future__ import annotations

import asyncio
import logging
import threading
import time
from collections import OrderedDict
from concurrent.futures import Executor

from ..experiments.sweep import TrialCache, execute_points_inline
# Not called here; stays importable because perfbench's traced mode wraps it
# under this module's name.
from ..experiments.sweep import execute_point_inline  # noqa: F401
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
        """Executor thread: a whole tick — lookups, drives, split, deliver, persist.

        Every group's sorted unique seeds split into contiguous runs, and
        each run is one ``SweepPoint`` (``trials=len(run), base_seed=run[0]``
        — per-trial seed ``base+t`` makes the run decompose into the
        singles).  :func:`execute_points_inline` looks every run up, then
        advances the readers of all miss runs sharing a drive key (config,
        channel and persistence mode on the analytic tier; each reader keeps
        its own (ε, δ)) through one lockstep drive.  Each run's
        records, or the exception that run raised, go back to its group's
        seeds — a run that raises fails only its own waiters.  One loop
        callback hands every outcome over; the tick's misses are written to
        disk after it.
        """
        started = time.perf_counter()
        cache = None if self.cache is None else _TickCache(self.cache, self._landing)
        try:
            runs = [
                (index, run_start, run_len)
                for index, (_, seeds) in enumerate(batches)
                for run_start, run_len in _contiguous_runs(seeds)
            ]
            points = [
                batches[index][0].config.point(base_seed=run_start, trials=run_len)
                for index, run_start, run_len in runs
            ]
            # The span chain lives entirely in this thread (the tracer's span
            # stack is thread-local): request > coalesce > engine.
            with _trace.span(
                "service.request", groups=len(batches), runs=len(runs)
            ), _trace.span("service.coalesce", runs=len(runs)) as sp:
                with _trace.span("service.engine", runs=len(runs)):
                    outcomes, drives = execute_points_inline(points, cache=cache)
                disk_hits = sum(hit for _, hit in outcomes)
                if sp:
                    sp.set(drives=len(drives), disk_hits=disk_hits)
            self.engine_calls += len(runs)
            _metrics.inc("service.engine.calls", len(runs))
            if disk_hits:
                _metrics.inc("service.cache.disk_hit", disk_hits)
            if drives:
                _metrics.inc("service.engine.drives", len(drives))
                for readers in drives:
                    _metrics.observe("service.engine.readers", float(readers))
            results: list[list] = [[] for _ in batches]
            for (index, _, run_len), (payload, _) in zip(runs, outcomes):
                if not isinstance(payload, Exception) and len(payload["records"]) != run_len:
                    payload = ServiceError(
                        500,
                        f"engine returned {len(payload['records'])} records "
                        f"for a {run_len}-trial point",
                    )
                if isinstance(payload, Exception):
                    results[index].extend([payload] * run_len)
                else:
                    results[index].extend(payload["records"])
        except Exception as exc:  # noqa: BLE001 — no waiter of the tick may hang
            _log.exception("coalescer tick failed outside its runs")
            results = [[exc] * len(seeds) for _, seeds in batches]
        _metrics.observe("service.engine.seconds", time.perf_counter() - started)
        held = [] if cache is None else cache.held
        landed = threading.Event()
        for canonical, _, _ in held:
            self._landing[canonical] = landed
        try:
            loop.call_soon_threadsafe(self._deliver, batches, results)
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

    def _deliver(self, batches, results) -> None:
        """Loop thread: one callback fans a tick job out to every waiter —
        each seed's record, or the exception its run raised."""
        for (group, seeds), outcome in zip(batches, results):
            key = group.config.group_key()
            for seed, result in zip(seeds, outcome):
                failed = isinstance(result, Exception)
                for future in group.waiters[seed]:
                    if future.done():  # waiter went away (connection dropped)
                        continue
                    if failed:
                        future.set_exception(_as_service_error(result))
                    else:
                        future.set_result(result)
                if not failed:
                    self._memory_put(key, seed, result)

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
