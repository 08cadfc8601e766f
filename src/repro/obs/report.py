"""Trace-file reporting: parse, summarise, render (tables + text flame).

Everything here consumes the JSONL schema documented in
:mod:`repro.obs.trace` and produces either plain data (for
``benchmarks/collect.py`` and tests) or rendered text (for the
``repro-rfid obs`` CLI).  Parsing is tolerant: blank lines are skipped and
a malformed line raises with its line number, so a truncated trace is a
loud failure rather than a silent undercount.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "TraceData",
    "load_trace",
    "metrics_gauges",
    "metrics_histograms",
    "metrics_totals",
    "render_flame",
    "render_summary",
    "render_trace_tree",
    "summarise",
    "trial_ledger_total",
    "trials",
]

#: The protocol phases whose ledger seconds make up a BFCE trial's air time.
BFCE_PHASES = ("probe", "rough", "accurate")


@dataclass
class TraceData:
    """Parsed trace: records bucketed by type, spans sorted by (pid, id)."""

    path: str
    spans: list[dict] = field(default_factory=list)
    events: list[dict] = field(default_factory=list)
    metrics: list[dict] = field(default_factory=list)
    meta: list[dict] = field(default_factory=list)


def load_trace(path: str | Path, *, merge_workers: bool = True) -> TraceData:
    """Parse one JSONL trace (folding worker sidecars in first by default)."""
    from .trace import merge_worker_traces

    path = str(path)
    if merge_workers:
        merge_worker_traces(path)
    data = TraceData(path=path)
    buckets = {
        "span": data.spans,
        "event": data.events,
        "metrics": data.metrics,
        "meta": data.meta,
    }
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: malformed trace line: {exc}") from exc
            if not isinstance(record, dict) or "t" not in record:
                raise ValueError(f"{path}:{lineno}: not a trace record")
            buckets.get(record["t"], data.events).append(record)
    # Spans are written at exit (children before parents); id order is entry
    # order within a pid.
    data.spans.sort(key=lambda s: (s["pid"], s["id"]))
    return data


def _last_metrics_by_pid(trace: TraceData) -> list[dict]:
    """Last cumulative metrics record of every process in the trace."""
    last_by_pid: dict[int, dict] = {}
    for record in trace.metrics:
        last_by_pid[record["pid"]] = record
    return list(last_by_pid.values())


def metrics_totals(trace: TraceData) -> dict:
    """Counters summed across processes (last cumulative record per pid)."""
    counters: dict[str, float] = {}
    for record in _last_metrics_by_pid(trace):
        for name, value in (record.get("counters") or {}).items():
            counters[name] = counters.get(name, 0) + value
    return counters


def metrics_gauges(trace: TraceData) -> dict:
    """Gauges across processes: per-name max of each pid's last value.

    Max is the useful cross-process fold for the gauges we emit —
    ``native.threads_used`` reads as "widest kernel fan-out seen anywhere
    in the run", which is what thread-utilisation questions ask.
    """
    gauges: dict[str, float] = {}
    for record in _last_metrics_by_pid(trace):
        for name, value in (record.get("gauges") or {}).items():
            if name not in gauges or value > gauges[name]:
                gauges[name] = value
    return gauges


def metrics_histograms(trace: TraceData) -> dict:
    """Histogram summaries merged across processes (summaries + buckets)."""
    from . import metrics as _metrics

    merged: dict[str, dict] = {}
    for record in _last_metrics_by_pid(trace):
        for name, h in (record.get("histograms") or {}).items():
            merged[name] = _metrics.merge_histogram(merged.get(name), h)
    return merged


def trials(trace: TraceData) -> list[dict]:
    """Every trial record: serial/analytic trial *spans* + batched *events*.

    Each returned dict has at least ``engine``, ``elapsed_seconds`` and
    ``phase_ledger`` (the :func:`repro.obs.trace.ledger_phase_cums` rows).
    Under head sampling each kept trial *span* represents ``sample``
    dropped siblings; its weight is surfaced as ``_sample`` so
    :func:`summarise` can scale counts back up.  Trial *events* (the
    batched engines) are never sampled — their weight is always 1.
    """
    out = []
    for record in trace.spans:
        if record["name"] == "trial":
            out.append(
                dict(
                    record["attrs"],
                    wall_dur=record["dur"],
                    _sample=int(record.get("sample", 1)),
                )
            )
    for record in trace.events:
        if record["name"] == "trial":
            out.append(dict(record["attrs"], _sample=1))
    return out


def trial_ledger_total(trial: dict, phases=BFCE_PHASES) -> float:
    """Summed per-phase ledger seconds of one trial, reconstructed exactly.

    The per-phase entries carry both the delta (``seconds``) and the running
    total (``cum``); deltas telescope, so the exact sum over the protocol
    phases is the last selected run's ``cum`` minus the total accumulated
    before the first — bit-identical to the trial's ``elapsed_seconds`` when
    the phases cover the whole ledger (they do for BFCE).
    """
    runs = [r for r in trial.get("phase_ledger", []) if r["phase"] in phases]
    if not runs:
        return 0.0
    first = runs[0]
    last = runs[-1]
    return last["cum"] - (first["cum"] - first["seconds"])


def summarise(path: str | Path) -> dict:
    """One JSON-ready summary of a trace file (CLI + collect.py surface)."""
    trace = load_trace(path)
    trial_list = trials(trace)
    counters = metrics_totals(trace)
    gauges = metrics_gauges(trace)
    hists = metrics_histograms(trace)
    kernel_seconds = {
        name[len("kernel.native.") : -len(".seconds")]: h
        for name, h in hists.items()
        if name.startswith("kernel.native.") and name.endswith(".seconds")
    }

    # Head sampling keeps 1 of every N trial span-trees; each kept span
    # carries its weight, so scaled sums estimate the unsampled totals.
    engines: dict[str, float] = {}
    phase_air: dict[str, float] = {}
    phase_down: dict[str, float] = {}
    phase_up: dict[str, float] = {}
    air_total = 0.0
    trials_recorded = len(trial_list)
    trials_estimated = 0
    max_sample = 1
    for trial in trial_list:
        weight = int(trial.get("_sample", 1))
        trials_estimated += weight
        if weight > max_sample:
            max_sample = weight
        engine = trial.get("engine", "?")
        engines[engine] = engines.get(engine, 0) + weight
        air_total += trial.get("elapsed_seconds", 0.0) * weight
        for run in trial.get("phase_ledger", []):
            phase = run["phase"] or "(unphased)"
            phase_air[phase] = phase_air.get(phase, 0.0) + run["seconds"] * weight
            phase_down[phase] = phase_down.get(phase, 0) + run["down_bits"] * weight
            phase_up[phase] = phase_up.get(phase, 0) + run["up_slots"] * weight

    wall_by_name: dict[str, dict] = {}
    for span in trace.spans:
        weight = int(span.get("sample", 1))
        agg = wall_by_name.setdefault(span["name"], {"count": 0, "wall_seconds": 0.0})
        agg["count"] += weight
        agg["wall_seconds"] += span["dur"] * weight

    from . import metrics as _metrics

    service = None
    if any(name.startswith("service.") for name in counters) or any(
        name.startswith("service.") for name in hists
    ):
        latency = hists.get("service.request.seconds")
        batch = hists.get("service.coalesce.batch")
        job_groups = hists.get("service.coalesce.job_groups")
        service = {
            "requests": counters.get("service.requests", 0),
            "shed": counters.get("service.admission.shed", 0),
            "cache_hits": counters.get("service.cache.memory_hit", 0)
            + counters.get("service.cache.disk_hit", 0),
            "engine_calls": counters.get("service.engine.calls", 0),
            "p50_ms": _q_ms(_metrics, latency, 0.50),
            "p99_ms": _q_ms(_metrics, latency, 0.99),
            "mean_batch": (
                batch["sum"] / batch["count"] if batch and batch["count"] else None
            ),
            # Groups per executor job: a tick's groups run in order in one
            # job, so a value above 1 is where head-of-line waits come from.
            "mean_job_groups": (
                job_groups["sum"] / job_groups["count"]
                if job_groups and job_groups["count"]
                else None
            ),
        }

    sketch = None
    if any(
        name.startswith(("sketch.", "multireader.")) for name in counters
    ):
        sketch = {
            "builds": counters.get("sketch.builds", 0),
            "items": counters.get("sketch.items", 0),
            "unions": counters.get("sketch.unions", 0),
            "registers_merged": counters.get("sketch.registers_merged", 0),
            "native_updates": counters.get("kernel.native.hll", 0),
            "numpy_updates": counters.get("kernel.numpy.hll", 0),
            "multireader_estimates": counters.get("multireader.estimates", 0),
            "multireader_sketch_estimates": counters.get(
                "multireader.sketch_estimates", 0
            ),
        }

    sampled = None
    if max_sample > 1:
        sampled = {
            "max_sample": max_sample,
            "trials_recorded": trials_recorded,
            "trials_estimated": trials_estimated,
        }

    return {
        "trace": str(path),
        "processes": len({m["pid"] for m in trace.meta}) or len({s["pid"] for s in trace.spans}),
        "spans": len(trace.spans),
        "events": len(trace.events),
        "trials": trials_estimated,
        "sampled": sampled,
        "engines": engines,
        "air_seconds_total": air_total,
        "phase_air_seconds": phase_air,
        "phase_downlink_bits": phase_down,
        "phase_uplink_slots": phase_up,
        "wall_by_span": wall_by_name,
        "engine_fallbacks": counters.get("engine.fallback", 0),
        "slo_breaches": counters.get("slo.breach", 0),
        "ledger_crosscheck_mismatches": counters.get("ledger.crosscheck.mismatch", 0),
        "native_threads_used": gauges.get("native.threads_used", 0),
        "native_calls_threaded": counters.get("kernel.native.calls_threaded", 0),
        "kernel_native_seconds": kernel_seconds,
        "service": service,
        "sketch": sketch,
        "counters": counters,
        "gauges": gauges,
    }


def _q_ms(metrics_mod, hist: dict | None, q: float) -> float | None:
    """A histogram quantile in milliseconds (None for empty histograms)."""
    value = metrics_mod.quantile(hist, q)
    return None if value is None else value * 1e3


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------
def render_summary(summary: dict) -> str:
    """Human-readable per-phase air-time / wall-time breakdown table."""
    lines = [
        f"trace      : {summary['trace']}",
        f"processes  : {summary['processes']}   spans: {summary['spans']}   "
        f"events: {summary['events']}",
        f"trials     : {summary['trials']}  "
        + " ".join(f"{k}={v}" for k, v in sorted(summary["engines"].items()))
        + (
            f"  (sampled 1/{summary['sampled']['max_sample']}: "
            f"{summary['sampled']['trials_recorded']} recorded)"
            if summary.get("sampled")
            else ""
        ),
        f"air time   : {summary['air_seconds_total'] * 1e3:.2f} ms total",
        f"fallbacks  : {summary['engine_fallbacks']:.0f} engine fallback(s), "
        f"{summary['ledger_crosscheck_mismatches']:.0f} ledger mismatch(es)",
        f"kernels    : {summary.get('native_threads_used', 0):.0f} thread(s) peak, "
        f"{summary.get('native_calls_threaded', 0):.0f} threaded call(s)",
    ]
    service = summary.get("service")
    if service:
        p50 = service["p50_ms"]
        p99 = service["p99_ms"]
        lines.append(
            f"service    : {service['requests']:.0f} request(s), "
            f"{service['shed']:.0f} shed, "
            f"p50={'n/a' if p50 is None else f'{p50:.2f} ms'} "
            f"p99={'n/a' if p99 is None else f'{p99:.2f} ms'}"
        )
        batch, job_groups = service.get("mean_batch"), service.get("mean_job_groups")
        if batch is not None and job_groups is not None:
            lines.append(
                f"coalescing : {batch:.2f} seed(s) per group, "
                f"{job_groups:.2f} group(s) per executor job"
            )
    sketch = summary.get("sketch")
    if sketch:
        lines.append(
            f"sketch     : {sketch['builds']:.0f} build(s) "
            f"({sketch['items']:.0f} ids), {sketch['unions']:.0f} union(s) "
            f"({sketch['registers_merged']:.0f} registers), "
            f"native/numpy updates {sketch['native_updates']:.0f}/"
            f"{sketch['numpy_updates']:.0f}"
        )
    lines += [
        "",
        f"{'phase':>12} {'air ms':>12} {'down bits':>12} {'up slots':>12}",
    ]
    for phase in sorted(
        summary["phase_air_seconds"], key=summary["phase_air_seconds"].get, reverse=True
    ):
        lines.append(
            f"{phase:>12} {summary['phase_air_seconds'][phase] * 1e3:>12.2f} "
            f"{summary['phase_downlink_bits'].get(phase, 0):>12} "
            f"{summary['phase_uplink_slots'].get(phase, 0):>12}"
        )
    lines.append("")
    lines.append(f"{'span':>16} {'count':>8} {'wall ms':>12}")
    for name, agg in sorted(
        summary["wall_by_span"].items(), key=lambda kv: -kv[1]["wall_seconds"]
    ):
        lines.append(
            f"{name:>16} {agg['count']:>8} {agg['wall_seconds'] * 1e3:>12.2f}"
        )
    kernels = summary.get("kernel_native_seconds") or {}
    if kernels:
        lines.append("")
        lines.append(f"{'native kernel':>16} {'calls':>8} {'wall ms':>12} {'max ms':>12}")
        # A kernel's call counter, where it has one, is the true call count:
        # the analytic scatter's timing samples are one per metered round.
        counters = summary.get("counters") or {}
        for name, h in sorted(kernels.items(), key=lambda kv: -kv[1]["sum"]):
            calls = counters.get(f"kernel.native.{name}", h["count"])
            lines.append(
                f"{name:>16} {calls:>8.0f} {h['sum'] * 1e3:>12.2f} "
                f"{h['max'] * 1e3:>12.2f}"
            )
    return "\n".join(lines)


def _span_paths(trace: TraceData) -> dict[str, dict]:
    """Aggregate spans by their ancestry path (``a;b;c``) with wall totals."""
    by_key = {(s["pid"], s["id"]): s for s in trace.spans}
    paths: dict[str, dict] = {}
    child_time: dict[tuple, float] = {}
    for span in trace.spans:
        if span["parent"] is not None:
            key = (span["pid"], span["parent"])
            child_time[key] = child_time.get(key, 0.0) + span["dur"]
    for span in trace.spans:
        names = [span["name"]]
        cursor = span
        while cursor["parent"] is not None:
            parent = by_key.get((cursor["pid"], cursor["parent"]))
            if parent is None:
                break
            names.append(parent["name"])
            cursor = parent
        path = ";".join(reversed(names))
        agg = paths.setdefault(path, {"count": 0, "total": 0.0, "self": 0.0})
        agg["count"] += 1
        agg["total"] += span["dur"]
        agg["self"] += max(
            span["dur"] - child_time.get((span["pid"], span["id"]), 0.0), 0.0
        )
    return paths


def render_flame(trace: TraceData, *, width: int = 40) -> str:
    """Text flamegraph: one bar per span path, sized by total wall time."""
    paths = _span_paths(trace)
    if not paths:
        return "(no spans)"
    scale = max(agg["total"] for agg in paths.values()) or 1.0
    lines = [f"{'wall ms':>10} {'self ms':>10} {'count':>7}  span path"]
    for path in sorted(paths, key=lambda p: (p.count(";"), p)):
        agg = paths[path]
        depth = path.count(";")
        name = path.rsplit(";", 1)[-1]
        bar = "█" * max(1, round(width * agg["total"] / scale))
        lines.append(
            f"{agg['total'] * 1e3:>10.2f} {agg['self'] * 1e3:>10.2f} "
            f"{agg['count']:>7}  {'  ' * depth}{name:<12} {bar}"
        )
    return "\n".join(lines)


def render_trace_tree(trace: TraceData, *, max_spans: int = 200) -> str:
    """Entry-ordered span listing with nesting indentation and attributes."""
    lines = []
    for span in trace.spans[:max_spans]:
        attrs = span.get("attrs") or {}
        shown = {
            k: v
            for k, v in attrs.items()
            if not isinstance(v, (list, dict)) or k in ()
        }
        attr_txt = " ".join(f"{k}={v}" for k, v in shown.items())
        lines.append(
            f"[pid {span['pid']}] {'  ' * span['depth']}{span['name']} "
            f"({span['dur'] * 1e3:.2f} ms) {attr_txt}"
        )
    if len(trace.spans) > max_spans:
        lines.append(f"... {len(trace.spans) - max_spans} more spans")
    return "\n".join(lines) if lines else "(no spans)"
