"""The estimation server: asyncio front, zones, coalescer, admission.

Single-process, single-event-loop, pure stdlib.  Connections speak the
newline-JSON protocol (:mod:`.protocol`); each request line becomes a
task, so one connection may pipeline requests and receive responses in
completion order (matched by the echoed ``id``).  The request path::

    readline -> parse -> admission.acquire -> zone lookup
             -> coalescer.estimate (tick batch / memory LRU / disk cache
                / engine call on the executor)
             -> optional tracker fold -> write response

Engine work runs on a ``ThreadPoolExecutor``; before the pool spins up,
:func:`repro.rfid._native.divide_thread_budget` splits the native kernel
thread budget across the executor workers so ``workers × cores``
oversubscription cannot happen.  The coalescer hands the executor one job
per tick, however many zone groups the tick holds, and one loop callback
delivers the whole tick: every handoff between the loop and an engine
thread is a GIL handoff and a context switch, and per-group jobs cost
40–45 voluntary switches and twice the CPU per cold request (see
:mod:`.coalescer`).  The job writes the tick's cache entries only after
that callback, so no response waits on the disk; ``stop()`` drains the
executor, so every entry is on disk after shutdown.  In exchange, a slow group delays the other groups of
its tick (head-of-line blocking).  Zone state, admission counters and the
coalescer's pending map are touched only from the loop thread, so the
server needs no locks beyond the per-connection write lock that keeps
concurrently completing responses from interleaving bytes on the socket.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor

from ..experiments.sweep import TrialCache, cache_enabled
from ..obs import metrics as _metrics
from ..obs import trace as _trace
from ..obs.live import (
    DEFAULT_WINDOWS,
    LiveTelemetry,
    SLOSpec,
    WindowSpec,
    render_prometheus,
    zone_metric,
)
from ..rfid import _native
from .admission import AdmissionController
from .coalescer import DEFAULT_TICK_SECONDS, RequestCoalescer
from .protocol import (
    MAX_LINE_BYTES,
    PROTOCOL_VERSION,
    ServiceError,
    encode_response,
    error_response,
    parse_request,
)
from .zones import ZoneConfig, ZoneRegistry

__all__ = ["EstimationServer", "run_server"]


def _build_zone_sketch(config: ZoneConfig, p: int | None, seed: int) -> dict:
    """Executor-side sketch build: rebuild the zone population, fold its
    tagIDs through the fused register kernel, return a wire-ready summary.

    Runs on the engine thread pool — it is the only population-sized work
    in the sketch ops; everything the loop thread touches is O(m).
    """
    from ..experiments.workloads import population
    from ..sketch.hll import DEFAULT_P, HLLSketch

    pop = population(
        config.distribution,
        config.n,
        seed=config.pop_seed,
        rn_source=config.rn_source,
        rn_seed=config.rn_seed,
        persistence_mode=config.persistence_mode,
        copy=False,
    )
    sketch = HLLSketch(DEFAULT_P if p is None else p, seed=seed)
    sketch.add_ids(pop.tag_ids)
    return {
        "sketch": sketch.to_payload(),
        "n_hat": sketch.estimate(),
        "error_bound": sketch.relative_error_bound(),
    }


class EstimationServer:
    """A multi-zone estimation service bound to one asyncio event loop."""

    def __init__(
        self,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        zones: dict[str, ZoneConfig] | None = None,
        cache: TrialCache | None = None,
        executor_workers: int = 2,
        tick_seconds: float = DEFAULT_TICK_SECONDS,
        memory_entries: int | None = None,
        max_concurrent: int = 64,
        max_queue: int = 256,
        slo: SLOSpec | None = None,
        telemetry_windows: tuple[WindowSpec, ...] = DEFAULT_WINDOWS,
    ) -> None:
        self.host = host
        self.port = int(port)
        self.zones = ZoneRegistry(zones)
        if cache is None and cache_enabled():
            cache = TrialCache()
        self.cache = cache
        self.executor_workers = max(1, int(executor_workers))
        self._executor: ThreadPoolExecutor | None = None
        self._tick_seconds = tick_seconds
        self._memory_entries = memory_entries
        self.admission = AdmissionController(
            max_concurrent=max_concurrent, max_queue=max_queue
        )
        self.coalescer: RequestCoalescer | None = None
        self._server: asyncio.AbstractServer | None = None
        self._connections: set[asyncio.Task] = set()
        self._shutdown = None  # asyncio.Event, created on start
        self.started_wall: float | None = None
        self.requests = 0
        self.errors = 0
        self._slo = slo
        self._telemetry_windows = tuple(telemetry_windows)
        # Evaluator cadence: one judgement pass per smallest slot width,
        # so a completed slot is judged at most one slot-width late.
        self._telemetry_tick = min(
            1.0, min(w.width_seconds for w in self._telemetry_windows)
        )
        self.telemetry: LiveTelemetry | None = None
        self._telemetry_task: asyncio.Task | None = None

    # ------------------------------------------------------------------
    @property
    def bound_port(self) -> int:
        """The actual listening port (resolves ``port=0`` after start)."""
        if self._server is None:
            raise RuntimeError("server is not started")
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        """Bind the socket and spin up the executor + coalescer."""
        if self._server is not None:
            raise RuntimeError("server already started")
        # Split the native kernel-thread budget across executor workers
        # *before* the first engine call auto-detects the core count.
        _native.divide_thread_budget(self.executor_workers)
        self._executor = ThreadPoolExecutor(
            max_workers=self.executor_workers, thread_name_prefix="repro-engine"
        )
        self.coalescer = RequestCoalescer(
            cache=self.cache,
            executor=self._executor,
            tick_seconds=self._tick_seconds,
            **(
                {}
                if self._memory_entries is None
                else {"memory_entries": self._memory_entries}
            ),
        )
        self._shutdown = asyncio.Event()
        self.telemetry = LiveTelemetry(
            slo=self._slo, windows=self._telemetry_windows
        )
        self.telemetry.attach()
        self._telemetry_task = asyncio.ensure_future(self._telemetry_loop())
        self._server = await asyncio.start_server(
            self._handle_connection,
            host=self.host,
            port=self.port,
            limit=MAX_LINE_BYTES,
        )
        self.started_wall = time.time()

    async def _telemetry_loop(self) -> None:
        """Judge completed window slots against the SLO, once per tick."""
        while True:
            await asyncio.sleep(self._telemetry_tick)
            if self.telemetry is not None:
                self.telemetry.evaluate()

    def set_slo(self, slo: SLOSpec | None) -> None:
        """Install (or clear) the SLO spec; burn windows restart."""
        self._slo = slo
        if self.telemetry is not None:
            self.telemetry.set_slo(slo)

    async def stop(self) -> None:
        """Stop accepting, drain the executor, persist cache counters."""
        if self._telemetry_task is not None:
            self._telemetry_task.cancel()
            try:
                await self._telemetry_task
            except asyncio.CancelledError:
                pass
            self._telemetry_task = None
        if self.telemetry is not None:
            self.telemetry.detach()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
            self._connections.clear()
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        if self.cache is not None:
            self.cache.persist_metrics()
        _trace.flush()

    async def serve_until_shutdown(self, duration: float | None = None) -> None:
        """Serve until a ``shutdown`` request arrives (or ``duration`` runs out)."""
        assert self._shutdown is not None, "call start() first"
        try:
            await asyncio.wait_for(self._shutdown.wait(), timeout=duration)
        except asyncio.TimeoutError:
            pass

    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        write_lock = asyncio.Lock()
        tasks: set[asyncio.Task] = set()
        connection_task = asyncio.current_task()
        if connection_task is not None:
            self._connections.add(connection_task)
        try:
            while True:
                try:
                    line = await reader.readline()
                except ConnectionResetError:
                    break
                except ValueError:
                    # Oversized line: the stream can no longer be framed.
                    await self._write(
                        writer, write_lock, error_response(None, 400, "line too long")
                    )
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                task = asyncio.ensure_future(
                    self._handle_line(line, writer, write_lock)
                )
                tasks.add(task)
                task.add_done_callback(tasks.discard)
        finally:
            if connection_task is not None:
                self._connections.discard(connection_task)
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
            writer.close()
            try:
                # CancelledError included: at loop shutdown the protocol's
                # close waiter is cancelled under us — the request work is
                # already done, only the transport goodbye is cut short.
                await writer.wait_closed()
            except (ConnectionResetError, OSError, asyncio.CancelledError):
                pass

    async def _handle_line(
        self, line: bytes, writer: asyncio.StreamWriter, write_lock: asyncio.Lock
    ) -> None:
        started = time.perf_counter()
        request_id = None
        self.requests += 1
        _metrics.inc("service.requests")
        try:
            request = parse_request(line)
            request_id = request.get("id")
            if request["op"] == "metrics.watch":
                # The one streaming op: it writes its own (multiple)
                # response lines, and its multi-second lifetime must not
                # pollute the request-latency histogram.
                await self._watch(request, writer, write_lock)
                return
            response = await self._dispatch(request)
            response["ok"] = True
            if request_id is not None:
                response["id"] = request_id
        except ServiceError as exc:
            self.errors += 1
            _metrics.inc("service.errors")
            _metrics.inc(f"service.errors.{exc.code}")
            response = error_response(request_id, exc.code, exc.message)
        except Exception as exc:  # noqa: BLE001 — never kill the connection
            self.errors += 1
            _metrics.inc("service.errors")
            _metrics.inc("service.errors.500")
            response = error_response(
                request_id, 500, f"internal error: {type(exc).__name__}: {exc}"
            )
        _metrics.observe("service.request.seconds", time.perf_counter() - started)
        await self._write(writer, write_lock, response)

    @staticmethod
    async def _write(
        writer: asyncio.StreamWriter, write_lock: asyncio.Lock, response: dict
    ) -> None:
        payload = encode_response(response)
        async with write_lock:
            try:
                writer.write(payload)
                await writer.drain()
            except (ConnectionResetError, OSError):
                pass  # client went away; the next readline() ends the loop

    # ------------------------------------------------------------------
    async def _dispatch(self, request: dict) -> dict:
        op = request["op"]
        if op == "ping":
            return {"pong": True, "version": PROTOCOL_VERSION}
        if op == "health":
            return self._health()
        if op == "metrics":
            snap = _metrics.snapshot()
            # Precomputed per-histogram quantiles: clients read latency
            # without reimplementing the log-bucket math client-side.
            quantiles = {
                name: {
                    "p50": _metrics.quantile(hist, 0.50),
                    "p90": _metrics.quantile(hist, 0.90),
                    "p99": _metrics.quantile(hist, 0.99),
                    "count": hist.get("count", 0),
                    "mean": (
                        hist["sum"] / hist["count"] if hist.get("count") else None
                    ),
                }
                for name, hist in snap["histograms"].items()
            }
            return {"metrics": snap, "quantiles": quantiles}
        if op == "metrics.expose":
            return {
                "content_type": "text/plain; version=0.0.4",
                "text": render_prometheus(_metrics.snapshot(), live=self.telemetry),
            }
        if op == "zone.put":
            config = ZoneConfig.from_dict(request.get("config"))
            zone = self.zones.put(request.get("zone"), config)
            return {"zone": zone.stats()}
        if op == "zone.get":
            return {"zone": self.zones.get(request.get("zone")).stats()}
        if op == "zone.list":
            return {"zones": self.zones.stats()}
        if op == "shutdown":
            if self._shutdown is not None:
                self._shutdown.set()
            return {"stopping": True}
        if op == "estimate":
            return await self._estimate(request, track=False)
        if op == "track":
            return await self._estimate(request, track=True)
        if op == "zone.sketch":
            return await self._zone_sketch(request)
        if op == "sketch.merge":
            return self._sketch_merge(request)
        raise ServiceError(400, f"unhandled op {op!r}")  # pragma: no cover

    async def _watch(
        self, request: dict, writer: asyncio.StreamWriter, write_lock: asyncio.Lock
    ) -> None:
        """Stream ``ticks`` windowed-telemetry snapshots, one per ``interval``."""
        if self.telemetry is None:
            raise ServiceError(400, "telemetry is not running (server not started)")
        interval = request.get("interval", 1.0)
        if not isinstance(interval, (int, float)) or isinstance(interval, bool) or not (
            0.01 <= interval <= 60.0
        ):
            raise ServiceError(400, "interval must be a number in [0.01, 60]")
        ticks = request.get("ticks", 1)
        if not isinstance(ticks, int) or isinstance(ticks, bool) or not (
            1 <= ticks <= 3600
        ):
            raise ServiceError(400, "ticks must be an integer in [1, 3600]")
        request_id = request.get("id")
        for tick in range(ticks):
            response = {
                "ok": True,
                "tick": tick,
                "watch": self.telemetry.watch_snapshot(),
                "done": tick == ticks - 1,
            }
            if request_id is not None:
                response["id"] = request_id
            await self._write(writer, write_lock, response)
            if writer.is_closing() or (
                self._shutdown is not None and self._shutdown.is_set()
            ):
                break
            if tick < ticks - 1:
                await asyncio.sleep(float(interval))

    async def _estimate(self, request: dict, *, track: bool) -> dict:
        zone = self.zones.get(request.get("zone"))
        zone.requests += 1
        _metrics.inc(zone_metric(zone.name, "requests"))
        started = time.perf_counter()
        seed = request.get("seed")
        if seed is None:
            seed = zone.allocate_seed()
        elif not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
            raise ServiceError(400, "seed must be a non-negative integer")
        if not await self.admission.acquire():
            _metrics.inc(zone_metric(zone.name, "shed"))
            raise ServiceError(
                429,
                f"overloaded: {self.admission.inflight} in flight, "
                f"{self.admission.queued} queued — retry with backoff",
            )
        try:
            record = await self.coalescer.estimate(zone.config, seed)
        finally:
            self.admission.release()
        zone.estimates += 1
        response = {
            "zone": zone.name,
            "seed": seed,
            "n_hat": record["n_hat"],
            "n_true": record["n_true"],
            "error": record["error"],
            "record": record,
        }
        if track:
            update = zone.track(record["n_hat"])
            _metrics.inc("service.tracker.updates")
            response["tracker"] = {
                "epoch": update.epoch,
                "predicted": update.predicted,
                "estimate": update.estimate,
                "variance": update.variance,
                "innovation": update.innovation,
                "gain": update.gain,
                "innovation_z": zone.last_innovation_z,
            }
        # Completed-estimate latency only: shed requests return in
        # microseconds and would drag the per-zone p99 toward zero.
        _metrics.observe(
            zone_metric(zone.name, "seconds"), time.perf_counter() - started
        )
        return response

    async def _zone_sketch(self, request: dict) -> dict:
        """Export one zone's population as a mergeable HLL sketch."""
        zone = self.zones.get(request.get("zone"))
        zone.requests += 1
        p = request.get("p")
        if p is not None and (
            not isinstance(p, int) or isinstance(p, bool) or not 4 <= p <= 16
        ):
            raise ServiceError(400, "p must be an integer in [4, 16]")
        seed = request.get("seed", 0)
        if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
            raise ServiceError(400, "seed must be a non-negative integer")
        if not await self.admission.acquire():
            raise ServiceError(
                429,
                f"overloaded: {self.admission.inflight} in flight, "
                f"{self.admission.queued} queued — retry with backoff",
            )
        try:
            loop = asyncio.get_running_loop()
            built = await loop.run_in_executor(
                self._executor, _build_zone_sketch, zone.config, p, seed
            )
        finally:
            self.admission.release()
        _metrics.inc("service.sketch.builds")
        return {
            "zone": zone.name,
            "n_true": zone.config.n,
            "n_hat": built["n_hat"],
            "error_bound": built["error_bound"],
            "sketch": built["sketch"],
        }

    def _sketch_merge(self, request: dict) -> dict:
        """Union client-supplied sketches; O(m) work, stays on the loop."""
        from ..sketch.hll import HLLSketch

        payloads = request.get("sketches")
        if not isinstance(payloads, list) or not payloads:
            raise ServiceError(400, "sketches must be a non-empty list")
        try:
            sketches = [HLLSketch.from_payload(item) for item in payloads]
            merged = HLLSketch.union(sketches)
        except (TypeError, ValueError) as exc:
            raise ServiceError(400, f"bad sketch list: {exc}") from exc
        _metrics.inc("service.sketch.merges")
        return {
            "n_sketches": len(sketches),
            "n_hat": merged.estimate(),
            "error_bound": merged.relative_error_bound(),
            "sketch": merged.to_payload(),
        }

    def _health(self) -> dict:
        return {
            "version": PROTOCOL_VERSION,
            "uptime_seconds": (
                None if self.started_wall is None else time.time() - self.started_wall
            ),
            "zones": len(self.zones),
            "requests": self.requests,
            "errors": self.errors,
            "admission": self.admission.stats(),
            "coalescer": None if self.coalescer is None else self.coalescer.stats(),
            "telemetry": None if self.telemetry is None else self.telemetry.summary(),
        }


async def run_server(
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    zones: dict[str, ZoneConfig] | None = None,
    duration: float | None = None,
    ready=None,
    **kwargs,
) -> EstimationServer:
    """Start a server, serve until shutdown/duration, then stop it.

    ``ready`` (optional callable) receives the server after binding — the
    benchmark and tests use it to learn the ephemeral port.  Returns the
    stopped server so callers can read its counters.
    """
    server = EstimationServer(host=host, port=port, zones=zones, **kwargs)
    await server.start()
    if ready is not None:
        ready(server)
    try:
        await server.serve_until_shutdown(duration)
    finally:
        await server.stop()
    return server
