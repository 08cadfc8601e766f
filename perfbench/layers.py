"""Per-layer timing from outside the program.

Each layer is measured by replacing one public function (or method, or
dispatch-table entry) with a timing wrapper *where its caller looks it
up*, so the program's own code is untouched.  Two kinds of wrapper:

* synchronous wrappers keep a thread-local stack, so a layer's **self
  time** is its duration minus the part its wrapped children cover (the
  executor threads of the server and the single figure process both run
  layers nested inside one another);
* coroutine wrappers (the server's request path on the event loop) cannot
  use a stack, because other requests run between their awaits.  They add
  their duration to the per-request record of the asyncio task they run
  in (a ``contextvars`` value set by the request wrapper).

All clocks are ``time.monotonic`` (``CLOCK_MONOTONIC``, shared by every
process on the host), so the client can line its send/receive times up
with the server's request start/end times.
"""

from __future__ import annotations

import contextvars
import importlib
import threading
import time
from collections import defaultdict

#: The in-flight request record of the asyncio task running a request line.
_REQUEST = contextvars.ContextVar("perfbench_request", default=None)

#: Per-request fields the server-side request wrapper records.
REQUEST_PARTS = ("parse", "acquire", "estimate", "write")


class Layers:
    """Call counts, total and self times per wrapped layer (thread-safe)."""

    def __init__(self) -> None:
        self.enabled = True
        self._lock = threading.Lock()
        self._local = threading.local()
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.requests: list[tuple] = []
        self.request_id_from: int | None = None

    # ------------------------------------------------------------------
    def _add(self, name: str, seconds: float, self_seconds: float) -> None:
        with self._lock:
            self.calls[name] += 1
            self.total[name] += seconds
            self.self_time[name] += self_seconds

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def timed(self, name: str, fn, on_result=None):
        """Synchronous wrapper of ``fn`` recording layer ``name``."""

        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            stack = self._stack()
            stack.append(0.0)
            start = time.monotonic()
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = time.monotonic() - start
                children = stack.pop()
                if stack:
                    stack[-1] += seconds
                self._add(name, seconds, seconds - children)
            if on_result is not None:
                on_result(result, seconds)
            return result

        return wrapper

    def patch(self, owner, attr, name: str, on_result=None) -> None:
        """Replace ``owner.attr`` (or ``owner[attr]`` for a dict) in place."""
        if isinstance(owner, dict):
            owner[attr] = self.timed(name, owner[attr], on_result)
            return
        raw = owner.__dict__.get(attr) if isinstance(owner, type) else None
        if isinstance(raw, staticmethod):
            setattr(owner, attr, staticmethod(self.timed(name, raw.__func__, on_result)))
        else:
            setattr(owner, attr, self.timed(name, getattr(owner, attr), on_result))

    def snapshot(self) -> dict:
        with self._lock:
            return {
                name: {
                    "calls": self.calls[name],
                    "seconds": self.total[name],
                    "self_seconds": self.self_time[name],
                }
                for name in sorted(self.calls)
            }


def _module(name: str):
    # By import path: some packages re-export a function under a
    # submodule's name (``repro.experiments.sweep``).
    return importlib.import_module(name)


# ----------------------------------------------------------------------
# The engine layers shared by the server's executor and the figure process
# ----------------------------------------------------------------------
KERNELS = (
    "analytic_scatter",
    "bfce_counts",
    "occupancy",
    "aloha_empty",
    "hll_update",
)


def install_engine(layers: Layers) -> None:
    """Wrap the analytic tier, the sweep cache and the native kernels."""
    bfce = _module("repro.core.bfce")
    sweep = _module("repro.experiments.sweep")
    _native = _module("repro.rfid._native")
    occupancy = _module("repro.rfid.occupancy")
    TimeLedger = _module("repro.timing.accounting").TimeLedger

    layers.patch(sweep.TrialCache, "load", "cache.load")
    layers.patch(sweep.TrialCache, "store", "cache.store")
    layers.patch(bfce.BFCE, "estimate_analytic", "bfce.analytic_trial")
    layers.patch(bfce, "find_optimal_pn", "planner")
    layers.patch(occupancy, "sample_slot_counts", "sampler")
    layers.patch(TimeLedger, "record_uplink", "ledger")
    layers.patch(TimeLedger, "record_downlink", "ledger")
    for kernel in KERNELS:
        layers.patch(_native, f"{kernel}_native", f"kernel.{kernel}")


def install_figure(layers: Layers) -> None:
    """Wrap the sweep scheduler, batch engines and population builds."""
    HLL = _module("repro.baselines.hll").HLL
    baselines_batch = _module("repro.baselines.batch")
    batch = _module("repro.experiments.batch")
    figures = _module("repro.experiments.figures")
    sweep = _module("repro.experiments.sweep")
    workloads = _module("repro.experiments.workloads")

    install_engine(layers)
    layers.patch(figures, "fig9_fig10_comparison", "figure")
    layers.patch(sweep, "run_sweep", "sweep.run")
    layers.patch(sweep, "_execute_canonical", "sweep.execute")
    layers.patch(workloads, "population", "population")
    layers.patch(batch, "run_bfce_trials_batched", "batch.bfce")
    layers.patch(baselines_batch, "run_baseline_trials_batched", "batch.baselines")
    layers.patch(baselines_batch._BATCH_RUNNERS, HLL, "batch.hll")


# ----------------------------------------------------------------------
# The server's request path
# ----------------------------------------------------------------------
def install_server(layers: Layers) -> None:
    """Wrap the request path of :class:`repro.service.server.EstimationServer`."""
    coalescer = _module("repro.service.coalescer")
    server = _module("repro.service.server")
    AdmissionController = _module("repro.service.admission").AdmissionController
    RequestCoalescer = coalescer.RequestCoalescer

    install_engine(layers)
    layers.patch(coalescer, "execute_point_inline", "sweep.execute")

    def note_id(request, seconds):
        record = _REQUEST.get()
        if record is not None:
            record["parse"] += seconds
            record["id"] = request.get("id")

    server.parse_request = layers.timed("protocol.parse", server.parse_request, note_id)
    server.encode_response = layers.timed("protocol.encode", server.encode_response)

    handle_line = server.EstimationServer._handle_line

    async def timed_handle_line(self, line, writer, write_lock):
        record = {"id": None, "hit": None}
        record.update((name, 0.0) for name in REQUEST_PARTS)
        _REQUEST.set(record)
        start = time.monotonic()
        try:
            await handle_line(self, line, writer, write_lock)
        finally:
            end = time.monotonic()
            rid = record["id"]
            if (
                isinstance(rid, int)
                and layers.request_id_from is not None
                and rid >= layers.request_id_from
            ):
                layers.requests.append(
                    (
                        rid,
                        start,
                        end,
                        *(record[name] for name in REQUEST_PARTS),
                        record["hit"],
                    )
                )

    server.EstimationServer._handle_line = timed_handle_line

    def timed_async(name, fn, record_field, before=None):
        async def wrapper(*args, **kwargs):
            extra = before(*args) if before is not None else None
            start = time.monotonic()
            try:
                return await fn(*args, **kwargs)
            finally:
                seconds = time.monotonic() - start
                label = name if extra is None else f"{name}.{'hit' if extra else 'miss'}"
                layers._add(label, seconds, seconds)
                record = _REQUEST.get()
                if record is not None:
                    record[record_field] += seconds
                    if extra is not None:
                        record["hit"] = bool(extra)

        return wrapper

    AdmissionController.acquire = timed_async(
        "admission.acquire", AdmissionController.acquire, "acquire"
    )

    group_keys: dict = {}

    def memory_hit(coalescer_self, config, seed):
        # Read-only peek: a memory-LRU hit returns without awaiting.  Zone
        # configs are frozen values, so their group keys are memoised.
        key = group_keys.get(config)
        if key is None:
            key = group_keys[config] = config.group_key()
        return (key, int(seed)) in coalescer_self._memory

    RequestCoalescer.estimate = timed_async(
        "coalescer.estimate", RequestCoalescer.estimate, "estimate", memory_hit
    )
    write = server.EstimationServer.__dict__["_write"].__func__
    server.EstimationServer._write = staticmethod(
        timed_async("server.write", write, "write")
    )
