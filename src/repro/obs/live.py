"""Live telemetry: windowed metrics, per-zone SLOs and ops rendering.

The base registry (:mod:`repro.obs.metrics`) is lifetime-cumulative: good
for post-hoc folds, useless for "what is the p99 *right now*" while the
estimation service is under load.  This module layers ring-buffer time
windows on top of it via the registry's **tap** hook: a
:class:`LiveRegistry` registered with :func:`metrics.add_tap` mirrors
every ``inc``/``observe`` into a set of :class:`RingWindow` rings
(default 16×1 s and 12×10 s slots), so ``rate()``, ``window_quantile()``
and per-window p50/p99 are readable at any moment.  Windowed histograms
merge by exactly the bucket-addition rules of
:func:`metrics.merge_histogram`, so the ±4.4 % quantile error bound of the
lifetime registry carries over unchanged.

**Conservation invariant.**  When a ring reclaims a slot whose epoch has
passed out of the window, the slot's counters (and histograms) are folded
into a per-ring *expired* accumulator before the slot is reused.  The sum
``expired + all slots`` therefore equals every value ever recorded —
:meth:`LiveTelemetry.reconcile` checks it **bit-exactly** against the
lifetime counter deltas since attach, which is how the benchmark and CI
prove the windows drop nothing under concurrent load.

**SLOs.**  A declarative :class:`SLOSpec` (p99 latency target, max shed
rate, max engine-fallback rate, max tracker-innovation z-score) is
evaluated once per completed window slot, per scope (``global`` plus one
scope per zone seen in the metric stream).  Each scope keeps an error
budget: with ``budget`` = fraction of slots allowed to violate and
``burn_slots`` = the look-back, the burn rate is
``bad_slots / burn_slots / budget`` — at the defaults (0.125 over 8
slots) one bad slot burns the whole budget (burn = 1.0) and the *second*
bad slot pushes burn past 1.0 and fires a structured ``slo_breach``
alert through :func:`repro.obs.events.slo_breach`.  A latency spike
therefore alerts within two windows, and isolated single-slot blips
never page.

**Rendering.**  :func:`render_prometheus` emits the classic text
exposition (counters as ``_total``, histograms as summaries with
``quantile`` labels, zone scopes as ``{zone="..."}`` labels);
:func:`render_top` draws the ``repro-rfid obs top`` terminal dashboard
from one ``metrics.watch`` payload.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import asdict, dataclass, fields

from . import events as _events
from . import metrics as _metrics

__all__ = [
    "DEFAULT_SLO",
    "DEFAULT_WINDOWS",
    "LiveRegistry",
    "LiveTelemetry",
    "RingWindow",
    "SLOSpec",
    "SLOTracker",
    "WindowSpec",
    "render_prometheus",
    "render_top",
    "split_zone_metric",
    "zone_metric",
]


@dataclass(frozen=True)
class WindowSpec:
    """One ring-buffer window: ``slots`` slots of ``width_seconds`` each."""

    name: str
    slots: int
    width_seconds: float

    def __post_init__(self) -> None:
        if self.slots < 2:
            raise ValueError("a ring window needs at least 2 slots")
        if self.width_seconds <= 0:
            raise ValueError("slot width must be positive")


#: Default rings: 16 s of 1 s resolution and 2 min of 10 s resolution.
DEFAULT_WINDOWS = (
    WindowSpec("1s", 16, 1.0),
    WindowSpec("10s", 12, 10.0),
)


class _Slot:
    """One ring slot: the counters/histograms recorded during one epoch."""

    __slots__ = ("epoch", "counters", "hists")

    def __init__(self) -> None:
        self.epoch: int | None = None
        self.counters: dict[str, float] = {}
        self.hists: dict[str, dict] = {}


class RingWindow:
    """Fixed-size ring of time slots over counters and log-bucket histograms.

    Slots are reclaimed **lazily**: a write whose epoch differs from the
    slot's stamped epoch first folds the stale slot into the ``expired``
    accumulators, so nothing recorded is ever lost —
    ``totals() == expired + sum(slots)`` holds bit-exactly at all times.
    Not thread-safe on its own; :class:`LiveRegistry` serialises access.
    """

    def __init__(self, spec: WindowSpec) -> None:
        self.spec = spec
        self._slots = [_Slot() for _ in range(spec.slots)]
        self._expired_counters: dict[str, float] = {}
        self._expired_hists: dict[str, dict] = {}
        self._first_epoch: int | None = None

    # ------------------------------------------------------------------
    def epoch_of(self, now: float) -> int:
        """The slot epoch containing monotonic timestamp ``now``."""
        return int(now // self.spec.width_seconds)

    def _slot_for(self, epoch: int) -> _Slot:
        """The (reclaimed if stale) slot owning ``epoch``."""
        slot = self._slots[epoch % self.spec.slots]
        if slot.epoch != epoch:
            if slot.epoch is not None:
                for name, value in slot.counters.items():
                    self._expired_counters[name] = (
                        self._expired_counters.get(name, 0) + value
                    )
                for name, hist in slot.hists.items():
                    self._expired_hists[name] = _metrics.merge_histogram(
                        self._expired_hists.get(name), hist
                    )
            slot.epoch = epoch
            slot.counters = {}
            slot.hists = {}
        return slot

    def record_inc(self, name: str, value: float, now: float) -> None:
        epoch = self.epoch_of(now)
        if self._first_epoch is None:
            self._first_epoch = epoch
        slot = self._slot_for(epoch)
        slot.counters[name] = slot.counters.get(name, 0) + value

    def record_observe(self, name: str, value: float, now: float) -> None:
        epoch = self.epoch_of(now)
        if self._first_epoch is None:
            self._first_epoch = epoch
        slot = self._slot_for(epoch)
        _metrics.fold_sample(slot.hists, name, value)

    # ------------------------------------------------------------------
    def _live_slots(self, now: float, *, include_current: bool = True):
        """Slots whose epoch lies inside the window ending at ``now``."""
        current = self.epoch_of(now)
        lo = current - self.spec.slots + 1
        hi = current if include_current else current - 1
        for slot in self._slots:
            if slot.epoch is not None and lo <= slot.epoch <= hi:
                yield slot

    def count(self, name: str, now: float, *, include_current: bool = True) -> float:
        """Sum of counter ``name`` over the live window."""
        return sum(
            slot.counters.get(name, 0)
            for slot in self._live_slots(now, include_current=include_current)
        )

    def rate(self, name: str, now: float) -> float:
        """Per-second rate of counter ``name`` over *completed* live slots.

        The current (partial) slot is excluded so a read early in a slot
        does not understate the rate.  The divisor is the number of
        completed slots that could have held data (clamped to the ring
        size), so a freshly started window does not dilute the rate with
        slots that predate the first record.
        """
        if self._first_epoch is None:
            return 0.0
        current = self.epoch_of(now)
        covered = max(1, min(self.spec.slots - 1, current - self._first_epoch))
        total = self.count(name, now, include_current=False)
        return total / (covered * self.spec.width_seconds)

    def histogram(self, name: str, now: float) -> dict | None:
        """Live-window histogram of ``name`` (merged by bucket addition)."""
        merged: dict | None = None
        for slot in self._live_slots(now):
            hist = slot.hists.get(name)
            if hist is not None:
                merged = _metrics.merge_histogram(merged, hist)
        return merged

    def quantile(self, name: str, q: float, now: float) -> float | None:
        return _metrics.quantile(self.histogram(name, now), q)

    # ------------------------------------------------------------------
    def totals(self, name: str) -> float:
        """Everything ever recorded for counter ``name``: expired + slots.

        This is the conservation invariant the reconciliation check
        depends on — stale-but-unreclaimed slots are deliberately
        included, so the sum is exact regardless of where the ring
        currently points.
        """
        total = self._expired_counters.get(name, 0)
        for slot in self._slots:
            total += slot.counters.get(name, 0)
        return total

    def total_histogram(self, name: str) -> dict | None:
        """Lifetime histogram of ``name``: expired fold + every slot."""
        merged: dict | None = None
        expired = self._expired_hists.get(name)
        if expired is not None:
            merged = _metrics.merge_histogram(merged, expired)
        for slot in self._slots:
            hist = slot.hists.get(name)
            if hist is not None:
                merged = _metrics.merge_histogram(merged, hist)
        return merged

    def counter_names(self) -> set[str]:
        names = set(self._expired_counters)
        for slot in self._slots:
            names.update(slot.counters)
        return names

    def histogram_names(self) -> set[str]:
        names = set(self._expired_hists)
        for slot in self._slots:
            names.update(slot.hists)
        return names

    def slot_stats(self, epoch: int) -> tuple[dict, dict]:
        """Counters + histograms of the slot stamped ``epoch`` (empty when
        the slot has been reclaimed or never written)."""
        slot = self._slots[epoch % self.spec.slots]
        if slot.epoch != epoch:
            return {}, {}
        return slot.counters, slot.hists


class LiveRegistry:
    """A metrics tap fanning writes into a set of ring windows.

    Register with :func:`repro.obs.metrics.add_tap`; the tap interface is
    ``record_inc(name, value)`` / ``record_observe(name, value)``.  All
    windows see every record, so their ``totals`` agree by construction.
    """

    def __init__(
        self,
        windows: tuple[WindowSpec, ...] = DEFAULT_WINDOWS,
        *,
        clock=time.monotonic,
    ) -> None:
        if not windows:
            raise ValueError("at least one window spec is required")
        self._clock = clock
        self._lock = threading.Lock()
        self.windows: dict[str, RingWindow] = {
            spec.name: RingWindow(spec) for spec in windows
        }
        self._default = next(iter(self.windows))

    # -- tap interface (called from any thread, outside the registry lock)
    def record_inc(self, name: str, value: float = 1) -> None:
        now = self._clock()
        with self._lock:
            for window in self.windows.values():
                window.record_inc(name, value, now)

    def record_observe(self, name: str, value: float) -> None:
        now = self._clock()
        with self._lock:
            for window in self.windows.values():
                window.record_observe(name, value, now)

    # -- reads
    def _window(self, name: str | None) -> RingWindow:
        key = self._default if name is None else name
        try:
            return self.windows[key]
        except KeyError:
            raise KeyError(
                f"unknown window {name!r} (have {sorted(self.windows)})"
            ) from None

    def rate(self, name: str, window: str | None = None) -> float:
        with self._lock:
            return self._window(window).rate(name, self._clock())

    def window_count(
        self, name: str, window: str | None = None, *, include_current: bool = True
    ) -> float:
        with self._lock:
            return self._window(window).count(
                name, self._clock(), include_current=include_current
            )

    def window_histogram(self, name: str, window: str | None = None) -> dict | None:
        with self._lock:
            return self._window(window).histogram(name, self._clock())

    def window_quantile(
        self, name: str, q: float, window: str | None = None
    ) -> float | None:
        with self._lock:
            return self._window(window).quantile(name, q, self._clock())

    def totals(self, name: str, window: str | None = None) -> float:
        with self._lock:
            return self._window(window).totals(name)

    def counter_names(self, window: str | None = None) -> set[str]:
        with self._lock:
            return self._window(window).counter_names()

    def histogram_names(self, window: str | None = None) -> set[str]:
        with self._lock:
            return self._window(window).histogram_names()

    def slot_stats(self, epoch: int, window: str | None = None) -> tuple[dict, dict]:
        with self._lock:
            counters, hists = self._window(window).slot_stats(epoch)
            return dict(counters), {k: _metrics._copy_hist(v) for k, v in hists.items()}

    def current_epoch(self, window: str | None = None) -> int:
        with self._lock:
            return self._window(window).epoch_of(self._clock())


# ----------------------------------------------------------------------
# SLOs
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SLOSpec:
    """Declarative per-window service-level objectives.

    Every objective is optional (``None`` disables it).  ``budget`` is the
    fraction of look-back slots allowed to violate before the burn rate
    reaches 1.0; with the defaults (0.125 over ``burn_slots=8``) the
    second bad slot in the look-back pushes burn past 1.0 and alerts.
    """

    p99_ms: float | None = None
    max_shed_rate: float | None = None
    max_fallback_rate: float | None = None
    max_innovation_z: float | None = None
    window: str = "1s"
    budget: float = 0.125
    burn_slots: int = 8

    def __post_init__(self) -> None:
        if not 0 < self.budget <= 1:
            raise ValueError("budget must be in (0, 1]")
        if self.burn_slots < 1:
            raise ValueError("burn_slots must be >= 1")

    @classmethod
    def from_dict(cls, raw: dict) -> "SLOSpec":
        if not isinstance(raw, dict):
            raise ValueError("SLO spec must be a JSON object")
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(raw) - known)
        if unknown:
            raise ValueError(f"unknown SLO field(s): {unknown}")
        return cls(**raw)

    def to_dict(self) -> dict:
        return asdict(self)


#: Loose production defaults for ``repro-rfid serve``: alert on a p99
#: past 250 ms, sustained shedding of >half the arrivals, any engine
#: fallback, or tracker innovations past 6 measurement sigmas.
DEFAULT_SLO = SLOSpec(
    p99_ms=250.0,
    max_shed_rate=0.5,
    max_fallback_rate=0.0,
    max_innovation_z=6.0,
)


class SLOTracker:
    """Error-budget accounting for one scope (global or one zone).

    Feed one completed slot's stats at a time; the tracker keeps a
    boolean verdict ring of the last ``burn_slots`` slots.  Idle slots
    are good slots — the budget recovers while a scope is quiet.
    """

    def __init__(self, spec: SLOSpec, scope: str = "global") -> None:
        self.spec = spec
        self.scope = scope
        self._verdicts: deque[bool] = deque(maxlen=spec.burn_slots)

    @property
    def burn_rate(self) -> float:
        """Budget burn over the look-back: 1.0 = budget exactly spent."""
        if not self._verdicts:
            return 0.0
        bad = sum(1 for v in self._verdicts if v)
        return bad / self._verdicts.maxlen / self.spec.budget

    def evaluate_slot(self, stats: dict) -> dict:
        """Judge one completed slot and update the burn window.

        ``stats`` keys (all optional): ``requests``, ``shed``,
        ``fallbacks`` (counts), ``p99_ms`` (float or None),
        ``innovation_z`` (max z-score seen in the slot, or None).
        Returns a status dict with the violations, the new burn rate and
        whether this slot *breaches* (bad slot AND burn > 1.0).
        """
        spec = self.spec
        requests = float(stats.get("requests") or 0)
        violations: list[dict] = []
        p99 = stats.get("p99_ms")
        if spec.p99_ms is not None and p99 is not None and p99 > spec.p99_ms:
            violations.append(
                {"objective": "p99_ms", "observed": p99, "target": spec.p99_ms}
            )
        if spec.max_shed_rate is not None:
            shed = float(stats.get("shed") or 0)
            shed_rate = shed / requests if requests > 0 else (1.0 if shed else 0.0)
            if shed_rate > spec.max_shed_rate:
                violations.append(
                    {
                        "objective": "max_shed_rate",
                        "observed": shed_rate,
                        "target": spec.max_shed_rate,
                    }
                )
        if spec.max_fallback_rate is not None:
            fallbacks = float(stats.get("fallbacks") or 0)
            fallback_rate = (
                fallbacks / requests if requests > 0 else (1.0 if fallbacks else 0.0)
            )
            if fallback_rate > spec.max_fallback_rate:
                violations.append(
                    {
                        "objective": "max_fallback_rate",
                        "observed": fallback_rate,
                        "target": spec.max_fallback_rate,
                    }
                )
        innovation_z = stats.get("innovation_z")
        if (
            spec.max_innovation_z is not None
            and innovation_z is not None
            and innovation_z > spec.max_innovation_z
        ):
            violations.append(
                {
                    "objective": "max_innovation_z",
                    "observed": innovation_z,
                    "target": spec.max_innovation_z,
                }
            )
        bad = bool(violations)
        self._verdicts.append(bad)
        burn = self.burn_rate
        return {
            "scope": self.scope,
            "bad": bad,
            "violations": violations,
            "burn_rate": burn,
            "breached": bad and burn > 1.0,
        }


# ----------------------------------------------------------------------
# zone metric naming
# ----------------------------------------------------------------------
_ZONE_PREFIX = "service.zone."
_ZONE_SUFFIXES = ("requests", "shed", "seconds", "innovation_z")


def split_zone_metric(name: str) -> tuple[str, str] | None:
    """Split ``service.zone.<zone>.<suffix>`` into ``(zone, suffix)``.

    Zone names may themselves contain dots, so the split anchors on the
    known per-zone suffix set rather than the last dot.  Returns ``None``
    for non-zone metrics.
    """
    if not name.startswith(_ZONE_PREFIX):
        return None
    rest = name[len(_ZONE_PREFIX):]
    for suffix in _ZONE_SUFFIXES:
        if rest.endswith("." + suffix):
            zone = rest[: -len(suffix) - 1]
            if zone:
                return zone, suffix
    return None


def zone_metric(zone: str, suffix: str) -> str:
    """The per-zone metric name for one of the known suffixes."""
    if suffix not in _ZONE_SUFFIXES:
        raise ValueError(f"unknown zone metric suffix {suffix!r}")
    return f"{_ZONE_PREFIX}{zone}.{suffix}"


# ----------------------------------------------------------------------
# telemetry front
# ----------------------------------------------------------------------
class LiveTelemetry:
    """The service's live-telemetry front: windows + SLO trackers + alerts.

    Owns a :class:`LiveRegistry`, attaches it as a metrics tap, and
    evaluates the configured :class:`SLOSpec` once per completed slot of
    the SLO window — per scope: ``global`` (the whole server) plus one
    scope per zone observed in the metric stream.  Breaches fire
    :func:`repro.obs.events.slo_breach` and land in the bounded
    :attr:`alerts` deque that ``metrics.watch`` / ``obs top`` surface.
    """

    def __init__(
        self,
        *,
        slo: SLOSpec | None = None,
        windows: tuple[WindowSpec, ...] = DEFAULT_WINDOWS,
        clock=time.monotonic,
    ) -> None:
        self.registry = LiveRegistry(windows, clock=clock)
        self.slo = slo
        self._clock = clock
        self._attached = False
        self._baseline: dict[str, float] = {}
        self._last_epoch: int | None = None
        self._trackers: dict[str, SLOTracker] = {}
        self._status: dict[str, dict] = {}
        self.alerts: deque[dict] = deque(maxlen=64)

    # ------------------------------------------------------------------
    def attach(self) -> None:
        """Start mirroring the metrics stream (idempotent)."""
        if self._attached:
            return
        self._baseline = dict(_metrics.snapshot()["counters"])
        _metrics.add_tap(self.registry)
        self._attached = True

    def detach(self) -> None:
        if not self._attached:
            return
        _metrics.remove_tap(self.registry)
        self._attached = False

    def set_slo(self, slo: SLOSpec | None) -> None:
        """Swap the SLO spec; burn windows and alert history restart."""
        self.slo = slo
        self._trackers = {}
        self._status = {}
        self._last_epoch = None

    # ------------------------------------------------------------------
    def zone_names(self) -> list[str]:
        """Zones observed in the metric stream (window-lifetime union)."""
        zones = set()
        for name in self.registry.counter_names():
            parsed = split_zone_metric(name)
            if parsed is not None:
                zones.add(parsed[0])
        for name in self.registry.histogram_names():
            parsed = split_zone_metric(name)
            if parsed is not None:
                zones.add(parsed[0])
        return sorted(zones)

    def _tracker(self, scope: str) -> SLOTracker:
        tracker = self._trackers.get(scope)
        if tracker is None:
            tracker = self._trackers[scope] = SLOTracker(self.slo, scope)
        return tracker

    @staticmethod
    def _scope_stats(scope: str, counters: dict, hists: dict) -> dict:
        """One slot's SLO inputs for a scope, from the slot's raw data."""
        if scope == "global":
            requests = counters.get("service.requests", 0)
            shed = counters.get("service.admission.shed", 0)
            fallbacks = counters.get("engine.fallback", 0)
            seconds = hists.get("service.request.seconds")
            innovation = None
        else:
            requests = counters.get(zone_metric(scope, "requests"), 0)
            shed = counters.get(zone_metric(scope, "shed"), 0)
            fallbacks = 0
            seconds = hists.get(zone_metric(scope, "seconds"))
            z_hist = hists.get(zone_metric(scope, "innovation_z"))
            innovation = None if z_hist is None else z_hist.get("max")
        p99 = _metrics.quantile(seconds, 0.99)
        return {
            "requests": requests,
            "shed": shed,
            "fallbacks": fallbacks,
            "p99_ms": None if p99 is None else p99 * 1000.0,
            "innovation_z": innovation,
        }

    def evaluate(self, now: float | None = None) -> list[dict]:
        """Judge every completed-but-unjudged slot; return new alerts.

        Call periodically (the server's telemetry loop ticks once per
        second).  Slots that completed while the evaluator was not
        running are judged from whatever data is still live; slots
        already expired from the ring are judged as idle (good), which
        only ever *under*-alerts after a long evaluator stall.
        """
        if self.slo is None:
            return []
        if now is None:
            now = self._clock()
        window = self.registry._window(self.slo.window)
        current = window.epoch_of(now)
        if self._last_epoch is None:
            # First evaluation: everything before the current slot is
            # pre-history, not an unjudged backlog.
            self._last_epoch = current - 1
        new_alerts: list[dict] = []
        for epoch in range(self._last_epoch + 1, current):
            counters, hists = self.registry.slot_stats(epoch, self.slo.window)
            scopes = {"global"}
            for name in counters:
                parsed = split_zone_metric(name)
                if parsed is not None:
                    scopes.add(parsed[0])
            # Zones with a burn history stay under evaluation even in
            # idle slots, so their budgets recover instead of freezing.
            scopes.update(
                scope for scope in self._trackers if scope != "global"
            )
            for scope in sorted(scopes):
                stats = self._scope_stats(scope, counters, hists)
                status = self._tracker(scope).evaluate_slot(stats)
                status["epoch"] = epoch
                self._status[scope] = status
                if status["breached"]:
                    for violation in status["violations"]:
                        alert = _events.slo_breach(
                            scope,
                            objective=violation["objective"],
                            observed=violation["observed"],
                            target=violation["target"],
                            burn_rate=status["burn_rate"],
                            window=self.slo.window,
                        )
                        alert["epoch"] = epoch
                        self.alerts.append(alert)
                        new_alerts.append(alert)
        self._last_epoch = max(self._last_epoch, current - 1)
        return new_alerts

    # ------------------------------------------------------------------
    def reconcile(self, names: list[str]) -> dict[str, dict]:
        """Windowed totals vs lifetime counter deltas, per counter name.

        ``exact`` is a bit-exact ``==`` — at any quiescent point (no
        in-flight writer between the registry update and the tap call)
        the two must agree exactly, because the expired accumulator makes
        the ring conservation-exact and taps mirror every write.
        """
        counters = _metrics.snapshot()["counters"]
        out: dict[str, dict] = {}
        for name in names:
            lifetime = counters.get(name, 0) - self._baseline.get(name, 0)
            windowed = self.registry.totals(name)
            out[name] = {
                "lifetime_delta": lifetime,
                "windowed": windowed,
                "exact": lifetime == windowed,
            }
        return out

    # ------------------------------------------------------------------
    def watch_snapshot(self) -> dict:
        """One ``metrics.watch`` tick payload: global + per-zone rows."""
        reg = self.registry
        windows = sorted(reg.windows)
        hit_m = reg.window_count("service.cache.memory_hit")
        hit_d = reg.window_count("service.cache.disk_hit")
        engine_calls = reg.window_count("service.engine.calls")
        attempts = hit_m + engine_calls
        hits = hit_m + hit_d
        p50 = reg.window_quantile("service.request.seconds", 0.5)
        p99 = reg.window_quantile("service.request.seconds", 0.99)
        payload = {
            "wall": time.time(),
            "windows": windows,
            "global": {
                "rps": {w: reg.rate("service.requests", w) for w in windows},
                "p50_ms": None if p50 is None else p50 * 1000.0,
                "p99_ms": None if p99 is None else p99 * 1000.0,
                "requests": reg.window_count("service.requests"),
                "shed": reg.window_count("service.admission.shed"),
                "fallbacks": reg.window_count("engine.fallback"),
                "cache_hit_rate": (hits / attempts) if attempts else None,
                "burn_rate": self._status.get("global", {}).get("burn_rate", 0.0),
            },
            "zones": [],
            "slo": None if self.slo is None else self.slo.to_dict(),
            "alerts": list(self.alerts)[-8:],
        }
        for zone in self.zone_names():
            zp50 = reg.window_quantile(zone_metric(zone, "seconds"), 0.5)
            zp99 = reg.window_quantile(zone_metric(zone, "seconds"), 0.99)
            requests = reg.window_count(zone_metric(zone, "requests"))
            shed = reg.window_count(zone_metric(zone, "shed"))
            z_hist = reg.window_histogram(zone_metric(zone, "innovation_z"))
            payload["zones"].append(
                {
                    "zone": zone,
                    "rps": reg.rate(zone_metric(zone, "requests")),
                    "requests": requests,
                    "shed": shed,
                    "shed_rate": (shed / requests) if requests else 0.0,
                    "p50_ms": None if zp50 is None else zp50 * 1000.0,
                    "p99_ms": None if zp99 is None else zp99 * 1000.0,
                    "innovation_z": None if z_hist is None else z_hist.get("max"),
                    "burn_rate": self._status.get(zone, {}).get("burn_rate", 0.0),
                }
            )
        return payload

    def summary(self) -> dict:
        """Compact block for ``health`` responses."""
        return {
            "windows": {
                name: {
                    "slots": w.spec.slots,
                    "width_seconds": w.spec.width_seconds,
                }
                for name, w in self.registry.windows.items()
            },
            "slo": None if self.slo is None else self.slo.to_dict(),
            "alerts": len(self.alerts),
            "burn_rates": {
                scope: status.get("burn_rate", 0.0)
                for scope, status in sorted(self._status.items())
            },
        }


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------
def _prom_name(name: str, namespace: str) -> str:
    safe = "".join(ch if ch.isalnum() or ch == "_" else "_" for ch in name)
    return f"{namespace}_{safe}"


def _prom_value(value) -> str:
    if value is None:
        return "NaN"
    return repr(float(value))


def render_prometheus(
    snapshot: dict, *, live: "LiveTelemetry | None" = None, namespace: str = "repro"
) -> str:
    """Prometheus-style text exposition of one metrics snapshot.

    Counters render as ``<name>_total``; histograms as summaries (count,
    sum and ``{quantile="0.5|0.9|0.99"}`` series read through
    :func:`metrics.quantile`).  Per-zone metrics
    (``service.zone.<z>.<suffix>``) are re-shaped into one shared series
    per suffix with a ``zone`` label.  When ``live`` is given, windowed
    request rates are appended as gauges with a ``window`` label.
    """
    lines: list[str] = []

    def emit(metric: str, kind: str, samples: list[tuple[str, object]]) -> None:
        lines.append(f"# TYPE {metric} {kind}")
        for labels, value in samples:
            lines.append(f"{metric}{labels} {_prom_value(value)}")

    zone_counters: dict[str, list[tuple[str, object]]] = {}
    for name in sorted(snapshot.get("counters") or {}):
        value = snapshot["counters"][name]
        parsed = split_zone_metric(name)
        if parsed is not None:
            zone, suffix = parsed
            metric = _prom_name(f"service.zone.{suffix}", namespace) + "_total"
            zone_counters.setdefault(metric, []).append(
                (f'{{zone="{zone}"}}', value)
            )
        else:
            emit(_prom_name(name, namespace) + "_total", "counter", [("", value)])
    for metric in sorted(zone_counters):
        emit(metric, "counter", zone_counters[metric])

    for name in sorted(snapshot.get("gauges") or {}):
        emit(
            _prom_name(name, namespace),
            "gauge",
            [("", snapshot["gauges"][name])],
        )

    zone_hists: dict[str, list[tuple[str, dict]]] = {}
    plain_hists: list[tuple[str, dict]] = []
    for name in sorted(snapshot.get("histograms") or {}):
        hist = snapshot["histograms"][name]
        parsed = split_zone_metric(name)
        if parsed is not None:
            zone, suffix = parsed
            metric = _prom_name(f"service.zone.{suffix}", namespace)
            zone_hists.setdefault(metric, []).append((f'zone="{zone}"', hist))
        else:
            plain_hists.append((_prom_name(name, namespace), hist))

    def emit_summary(metric: str, series: list[tuple[str, dict]]) -> None:
        lines.append(f"# TYPE {metric} summary")
        for label, hist in series:
            prefix = f"{{{label}," if label else "{"
            for q in (0.5, 0.9, 0.99):
                value = _metrics.quantile(hist, q)
                lines.append(f'{metric}{prefix}quantile="{q}"}} {_prom_value(value)}')
            tail = f'{{{label}}}' if label else ""
            lines.append(f"{metric}_sum{tail} {_prom_value(hist.get('sum', 0.0))}")
            lines.append(f"{metric}_count{tail} {_prom_value(hist.get('count', 0))}")

    for metric, hist in plain_hists:
        emit_summary(metric, [("", hist)])
    for metric in sorted(zone_hists):
        emit_summary(metric, zone_hists[metric])

    if live is not None:
        metric = _prom_name("service.requests.rate", namespace)
        lines.append(f"# TYPE {metric} gauge")
        for window in sorted(live.registry.windows):
            rate = live.registry.rate("service.requests", window)
            lines.append(f'{metric}{{window="{window}"}} {_prom_value(rate)}')
    return "\n".join(lines) + "\n"


def _fmt(value, *, digits: int = 1, unit: str = "") -> str:
    if value is None:
        return "-"
    return f"{value:.{digits}f}{unit}"


def render_top(payload: dict) -> str:
    """Render one ``metrics.watch`` payload as the ``obs top`` dashboard."""
    g = payload.get("global") or {}
    rps = g.get("rps") or {}
    head = [
        "repro-rfid obs top",
        "",
        "global   "
        + "  ".join(
            f"req/s[{window}] {_fmt(rps.get(window))}" for window in sorted(rps)
        )
        + f"  p50 {_fmt(g.get('p50_ms'), digits=2, unit='ms')}"
        + f"  p99 {_fmt(g.get('p99_ms'), digits=2, unit='ms')}",
        "         "
        + f"cache {_fmt(None if g.get('cache_hit_rate') is None else g['cache_hit_rate'] * 100.0, unit='%')}"
        + f"  shed {g.get('shed', 0):g}"
        + f"  fallbacks {g.get('fallbacks', 0):g}"
        + f"  burn {_fmt(g.get('burn_rate'), digits=2)}",
        "",
    ]
    rows = [
        f"{'zone':<12} {'req/s':>8} {'p50ms':>8} {'p99ms':>8} "
        f"{'shed%':>7} {'innov_z':>8} {'burn':>6}"
    ]
    for zone in payload.get("zones") or []:
        rows.append(
            f"{zone['zone']:<12} {_fmt(zone.get('rps')):>8} "
            f"{_fmt(zone.get('p50_ms'), digits=2):>8} "
            f"{_fmt(zone.get('p99_ms'), digits=2):>8} "
            f"{_fmt(zone.get('shed_rate', 0.0) * 100.0):>7} "
            f"{_fmt(zone.get('innovation_z'), digits=2):>8} "
            f"{_fmt(zone.get('burn_rate'), digits=2):>6}"
        )
    if len(rows) == 1:
        rows.append("(no zone traffic in window)")
    alerts = payload.get("alerts") or []
    tail = ["", f"alerts ({len(alerts)} recent)"]
    if alerts:
        for alert in alerts:
            tail.append(
                f"  [{alert.get('scope')}] {alert.get('objective')} "
                f"observed {_fmt(alert.get('observed'), digits=3)} "
                f"> target {_fmt(alert.get('target'), digits=3)} "
                f"(burn {_fmt(alert.get('burn_rate'), digits=2)}, "
                f"window {alert.get('window')})"
            )
    else:
        tail.append("  none")
    return "\n".join(head + rows + tail) + "\n"
