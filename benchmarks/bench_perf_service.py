"""Perf-regression harness for the estimation service: SLO-gated throughput.

Starts an in-process :class:`repro.service.server.EstimationServer`
(loopback TCP, ephemeral port) over many analytic-tier zones spanning
populations up to 10⁸, drives it with the async load generator, and writes
``BENCH_service.json`` at the repo root with three measured phases:

1. **equivalence** — every (zone, seed) served over the wire is replayed
   as a direct ``execute_point_inline`` single; the n̂ drift must be
   exactly 0.0 (coalescing and caching claim bit-identity, not
   statistical agreement).  Always gated, every run, any host.
2. **cold** — globally unique seeds, so every tick coalesces into real
   engine calls; reports requests per engine call (coalescing ratio) and
   the latency tail under compute-bound load.
3. **warm** — a small per-zone seed window, so the steady state is served
   from the memory LRU / disk cache; this is the regime the SLO floors in
   ``perf_floors.json`` gate (``service_rps_min``, ``service_p99_ms_max``)
   — skipped with a visible notice when the host affinity mask exposes a
   single core, like the multicore gate in ``bench_perf_engine.py``.
4. **telemetry** — the live-telemetry layer measured under the same load:

   * *trace overhead* — best-of-two alternating warm passes with tracing
     disabled vs 1/64 head-sampled (the always-on production setting);
     the throughput cost is gated by ``service_trace_overhead_pct_max``
     (auto-skipped below two visible cores, like the warm SLO gate).
     The pre-existing tracer configuration (CI runs the whole bench under
     ``REPRO_TRACE``) is saved and restored around the comparison.
   * *SLO spike* — ``set_slo(p99=50 ms)`` plus a sleep wrapped around the
     coalescer's executor entry point inject a latency regression; the
     wall time from spike start to the first ``p99_ms`` burn alert is
     gated by ``service_slo_alert_seconds_max`` (two 1 s windows plus
     evaluator slack — sleep-driven, so gated on any host).
   * *reconciliation* — after all load, every windowed telemetry total
     must equal its lifetime counter delta **bit-exactly** (the ring
     windows' conservation invariant).  Always gated, like equivalence.

The cold and warm phases also read the server's own error counters as
registry deltas: every ``service.errors.<code>`` must stay at 0 except
the 429 shed, which must equal the sheds the client saw, and
``service.cache.store_failed`` (a store that failed after its response
went out) must stay at 0.  A breach exits non-zero naming the code and
the count.  Always gated.

Run as a script or module::

    PYTHONPATH=src python benchmarks/bench_perf_service.py
    PYTHONPATH=src python benchmarks/bench_perf_service.py --smoke --check-floor

``--smoke`` shrinks the load (8 zones, 2 connections, 40 requests each) so
CI exercises the full harness — including the equivalence gate — in
seconds.

Knobs (environment variables, overridden by ``--smoke``):

* ``REPRO_BENCH_SERVICE_ZONES``    zone count               (default 256)
* ``REPRO_BENCH_SERVICE_NMAX``     largest zone population  (default 10**8)
* ``REPRO_BENCH_SERVICE_CONNS``    concurrent connections   (default 16)
* ``REPRO_BENCH_SERVICE_REQS``     requests per connection  (default 250)
* ``REPRO_BENCH_SERVICE_WORKERS``  executor threads         (default 2)
* ``REPRO_BENCH_OUT``              output path (default <repo>/BENCH_service.json)
"""

from __future__ import annotations

import asyncio
import json
import os
import sys
import tempfile
import time
from pathlib import Path

_REPO_ROOT = Path(__file__).resolve().parent.parent
_SRC = _REPO_ROOT / "src"
if str(_SRC) not in sys.path:  # script-mode convenience; no-op under PYTHONPATH=src
    sys.path.insert(0, str(_SRC))

from repro.experiments.sweep import TrialCache, execute_point_inline  # noqa: E402
from repro.obs import metrics as obs_metrics  # noqa: E402
from repro.obs import trace as obs_trace  # noqa: E402
from repro.obs.host import host_block  # noqa: E402
from repro.obs.live import SLOSpec, zone_metric  # noqa: E402
from repro.service.loadgen import run_load  # noqa: E402
from repro.service.server import EstimationServer  # noqa: E402
from repro.service.zones import ZoneConfig  # noqa: E402

BASE_SEED = 2015  # unused by the service itself; kept for report symmetry

#: Counted when a cache store fails after its response went out.
STORE_FAILED = "service.cache.store_failed"


def _zone_set(zones: int, n_max: int) -> dict:
    """Analytic-tier zones log-spaced from 10³ up to ``n_max``.

    Population size does not affect analytic-engine cost (that *is* the
    paper's point), so spreading zones across four decades exercises the
    constant-time claim under service load rather than assuming it.

    The default 1/1024 persistence grid caps the estimable range near
    1.94·10⁷ (DESIGN.md §2.5), so zones past 10⁷ get the scaled 2¹⁷ grid
    the scale bench validates out to 10⁹ — same per-zone sizing a real
    deployment would do with ``planning.required_w``.
    """
    import math

    configs = {}
    lo, hi = math.log10(1_000), math.log10(max(n_max, 2_000))
    for index in range(zones):
        frac = index / max(1, zones - 1)
        n = int(round(10 ** (lo + frac * (hi - lo))))
        w = (1 << 17) if n > 10**7 else None
        configs[f"z{index:04d}"] = ZoneConfig(n=n, engine="analytic", w=w)
    return configs


async def _bench(
    *,
    zones: int,
    n_max: int,
    connections: int,
    requests_per_connection: int,
    workers: int,
    warm_window: int,
    cache_dir: Path,
) -> dict:
    configs = _zone_set(zones, n_max)
    server = EstimationServer(
        zones=configs,
        cache=TrialCache(cache_dir),
        executor_workers=workers,
    )
    await server.start()
    try:
        host, port = "127.0.0.1", server.bound_port
        zone_names = list(configs)

        # Phase 1: equivalence.  Serve a handful of (zone, seed) pairs over
        # the wire, then replay each as a direct inline single and compare.
        sample = [
            (zone_names[i % len(zone_names)], seed)
            for i, seed in enumerate(range(12))
        ]
        reader, writer = await asyncio.open_connection(host, port)
        served = {}
        for rid, (zone, seed) in enumerate(sample):
            writer.write(
                (
                    json.dumps(
                        {"op": "estimate", "zone": zone, "seed": seed, "id": rid}
                    )
                    + "\n"
                ).encode()
            )
        await writer.drain()
        for _ in sample:
            response = json.loads(await reader.readline())
            assert response["ok"], response
            zone, seed = sample[response["id"]]
            served[(zone, seed)] = response["n_hat"]
        writer.close()
        await writer.wait_closed()

        loop = asyncio.get_running_loop()
        max_drift = 0.0
        for (zone, seed), n_hat_served in served.items():
            point = configs[zone].point(base_seed=seed, trials=1)
            payload, _ = await loop.run_in_executor(
                None, lambda p=point: execute_point_inline(p, cache=None)
            )
            direct = payload["records"][0]["n_hat"]
            max_drift = max(max_drift, abs(direct - n_hat_served))
        equivalence = {"pairs": len(served), "max_abs_dn_hat": max_drift}

        # Phase 2: cold — server-allocated contiguous seeds, so every tick
        # is real engine work and same-tick requests per zone coalesce into
        # contiguous batched runs.  Concentrated on a small zone subset:
        # coalescing needs same-zone concurrency, which a uniform spray
        # across hundreds of zones would never produce.
        engine_calls_before = server.coalescer.engine_calls
        errors_before = _error_counters()
        cold = await run_load(
            host=host,
            port=port,
            zones=zone_names[: max(2, min(4, len(zone_names)))],
            connections=connections,
            requests_per_connection=requests_per_connection,
            seed_mode="auto",
        )
        cold["engine_calls"] = server.coalescer.engine_calls - engine_calls_before
        cold["requests_per_engine_call"] = round(
            cold["requests"] / max(1, cold["engine_calls"]), 2
        )
        cold["server_errors"] = _counter_delta(_error_counters(), errors_before)
        cold["client_shed"] = cold["shed"]

        # Phase 3: warm — shared seed window, cache-resident steady state.
        # One priming pass populates the caches; the timed pass is what the
        # SLO floors gate.
        errors_before = _error_counters()
        prime = await run_load(
            host=host,
            port=port,
            zones=zone_names,
            connections=connections,
            requests_per_connection=requests_per_connection,
            seed_mode="warm",
            warm_window=warm_window,
        )
        warm = await run_load(
            host=host,
            port=port,
            zones=zone_names,
            connections=connections,
            requests_per_connection=requests_per_connection,
            seed_mode="warm",
            warm_window=warm_window,
        )
        warm["server_errors"] = _counter_delta(_error_counters(), errors_before)
        warm["client_shed"] = prime["shed"] + warm["shed"]

        # Server-side view, captured before the telemetry phase injects
        # spikes: the log-bucketed obs histogram (±4.4 % error), reported
        # alongside the exact client-side quantiles above so the bucketing
        # error is itself visible in the artifact.
        hist = obs_metrics.histograms().get("service.request.seconds")
        server_side = {
            "requests": server.requests,
            "errors": server.errors,
            "shed": server.admission.shed,
            "p50_ms_bucketed": _q_ms(hist, 0.50),
            "p99_ms_bucketed": _q_ms(hist, 0.99),
            "coalescer": server.coalescer.stats(),
        }

        # Phase 4a: sampled-tracing overhead on the warm path.  Alternating
        # best-of-two passes bound scheduler drift; the comparison is
        # tracing fully off vs 1/64 head-sampled (the always-on production
        # setting), both over the same cache-resident warm load.  CI runs
        # this whole bench under REPRO_TRACE, so the pre-existing tracer is
        # saved first and restored after.
        prior_tracer = obs_trace.tracer()
        prior_path = None if prior_tracer is None else prior_tracer.path
        prior_sample = 1 if prior_tracer is None else prior_tracer.sample_every
        trace_sample = 64
        trace_sink = cache_dir / "telemetry_overhead.trace.jsonl"
        trace_off_rps = 0.0
        trace_sampled_rps = 0.0
        # A few-percent gate needs passes long enough to average scheduler
        # noise out, so the overhead load is sized independently of the
        # (possibly --smoke-shrunk) main phases: at least ~4000 requests
        # per pass, best-of-three per mode.  The two modes alternate and
        # the order flips every round, so monotone host drift (thermal,
        # cache warming, a noisy neighbour leaving) biases neither mode.
        warm_kwargs = dict(
            host=host,
            port=port,
            zones=zone_names,
            connections=connections,
            requests_per_connection=max(
                requests_per_connection, 4000 // max(1, connections)
            ),
            seed_mode="warm",
            warm_window=warm_window,
        )
        async def _overhead_pass(sampled: bool) -> float:
            if sampled:
                obs_trace.configure(trace_sink, sample=trace_sample)
            else:
                obs_trace.configure(None, sample=1)
            passed = await run_load(**warm_kwargs)
            return passed["rps"]

        try:
            for round_index in range(3):
                first_sampled = bool(round_index % 2)
                for mode_sampled in (first_sampled, not first_sampled):
                    rps = await _overhead_pass(mode_sampled)
                    if mode_sampled:
                        trace_sampled_rps = max(trace_sampled_rps, rps)
                    else:
                        trace_off_rps = max(trace_off_rps, rps)
        finally:
            if prior_path is None:
                obs_trace.configure(None, sample=1)
            else:
                obs_trace.configure(prior_path, sample=prior_sample)
        trace_overhead_pct = (
            100.0 * (trace_off_rps - trace_sampled_rps) / trace_off_rps
            if trace_off_rps > 0
            else 0.0
        )

        # Phase 4b: injected latency spike must trip the p99 SLO burn
        # alert.  A sleep wrapped around the coalescer's executor entry
        # point regresses every engine call past the 50 ms objective;
        # auto-seeded requests (fresh contiguous seeds) guarantee every
        # tick actually reaches the engine instead of the memory LRU.
        # With the default error budget (12.5 % of 8 slots) the second bad
        # 1 s window pushes the burn rate over 1.0 — so the alert must
        # land within two windows plus evaluator slack.
        spike_slo_p99_ms = 50.0
        spike_sleep = 0.06
        server.set_slo(SLOSpec(p99_ms=spike_slo_p99_ms))
        alerts_before = len(server.telemetry.alerts)
        original_run = server.coalescer._run_tick_sync

        def spiked_run(*args, _orig=original_run):
            time.sleep(spike_sleep)
            return _orig(*args)

        server.coalescer._run_tick_sync = spiked_run
        stop_spike = asyncio.Event()
        spike_requests = 0

        async def spike_load() -> None:
            nonlocal spike_requests
            s_reader, s_writer = await asyncio.open_connection(host, port)
            rid = 0
            try:
                while not stop_spike.is_set():
                    for _ in range(4):
                        s_writer.write(
                            (
                                json.dumps(
                                    {
                                        "op": "estimate",
                                        "zone": zone_names[0],
                                        "id": rid,
                                    }
                                )
                                + "\n"
                            ).encode()
                        )
                        rid += 1
                    await s_writer.drain()
                    for _ in range(4):
                        if not await s_reader.readline():
                            return
                        spike_requests += 1
            finally:
                s_writer.close()
                try:
                    await s_writer.wait_closed()
                except (ConnectionResetError, OSError):
                    pass

        spike_started = time.perf_counter()
        load_task = asyncio.ensure_future(spike_load())
        alert_seconds = None
        first_alert = None
        try:
            while time.perf_counter() - spike_started < 10.0:
                await asyncio.sleep(0.05)
                for alert in list(server.telemetry.alerts)[alerts_before:]:
                    if alert.get("objective") == "p99_ms":
                        alert_seconds = time.perf_counter() - spike_started
                        first_alert = {
                            "scope": alert["scope"],
                            "observed_p99_ms": alert["observed"],
                            "burn_rate": alert["burn_rate"],
                            "epoch": alert.get("epoch"),
                        }
                        break
                if first_alert is not None:
                    break
        finally:
            stop_spike.set()
            await asyncio.gather(load_task, return_exceptions=True)
            server.coalescer._run_tick_sync = original_run
            server.set_slo(None)

        # Phase 4c: conservation.  After every phase above has drained,
        # each windowed telemetry total (live slots + expired-slot
        # accumulator) must equal the lifetime counter delta since the
        # tap attached — bit-exactly, across the global counters and the
        # per-zone counters the load actually touched.
        reconcile_names = [
            "service.requests",
            "service.engine.calls",
            "service.cache.memory_hit",
            "service.admission.shed",
        ] + [zone_metric(z, "requests") for z in zone_names[:2]]
        reconcile = server.telemetry.reconcile(reconcile_names)
        telemetry = {
            "trace_sample": trace_sample,
            "trace_off_rps": round(trace_off_rps, 1),
            "trace_sampled_rps": round(trace_sampled_rps, 1),
            "trace_overhead_pct": round(trace_overhead_pct, 2),
            "slo_spike": {
                "slo_p99_ms": spike_slo_p99_ms,
                "spike_sleep_ms": spike_sleep * 1e3,
                "requests": spike_requests,
                "alert_seconds": (
                    None if alert_seconds is None else round(alert_seconds, 3)
                ),
                "alert": first_alert,
            },
            "reconcile": reconcile,
            "reconcile_exact": all(
                entry["exact"] for entry in reconcile.values()
            ),
        }

    finally:
        await server.stop()

    return {
        "benchmark": "service_throughput",
        "workload": {
            "zones": zones,
            "n_max": n_max,
            "connections": connections,
            "requests_per_connection": requests_per_connection,
            "executor_workers": workers,
            "warm_window": warm_window,
            "engine": "analytic",
        },
        "host": host_block(),
        "equivalence": equivalence,
        "cold": dict(cold),
        "warm": dict(warm),
        "telemetry": telemetry,
        "server": server_side,
    }


def _error_counters() -> dict:
    """The server's ``service.errors.<code>`` and store-failure counters."""
    return {
        name: value
        for name, value in obs_metrics.snapshot()["counters"].items()
        if name.startswith("service.errors.") or name == STORE_FAILED
    }


def _counter_delta(after: dict, before: dict) -> dict:
    """Counters that moved between two :func:`_error_counters` reads."""
    moved = {name: value - before.get(name, 0) for name, value in after.items()}
    return {name: delta for name, delta in sorted(moved.items()) if delta}


def _error_gate(report: dict) -> list[str]:
    """Each phase's server-side error counters, from registry deltas.

    Every ``service.errors.<code>`` must stay at 0 except the 429 shed,
    which must equal the shed responses the client saw; a cache store that
    failed after its response went out must not happen at all.
    """
    failures = []
    for phase in ("cold", "warm"):
        stats = report[phase]
        for name, count in stats["server_errors"].items():
            if name == "service.errors.429" and count == stats["client_shed"]:
                continue
            code = name.rsplit(".", 1)[1] if name.startswith("service.errors.") else name
            failures.append(
                f"{phase} phase: server counted {count:g} × {code} "
                f"(client saw {stats['client_shed']} shed)"
            )
    return failures


def _q_ms(hist, q):
    value = obs_metrics.quantile(hist, q)
    return None if value is None else round(1e3 * value, 3)


def run_service_bench(
    *,
    zones: int = 256,
    n_max: int = 10**8,
    connections: int = 16,
    requests_per_connection: int = 250,
    workers: int = 2,
    warm_window: int = 8,
) -> dict:
    """Run the full three-phase bench and return the report dict."""
    with tempfile.TemporaryDirectory(prefix="repro-service-bench-") as tmp:
        return asyncio.run(
            _bench(
                zones=zones,
                n_max=n_max,
                connections=connections,
                requests_per_connection=requests_per_connection,
                workers=workers,
                warm_window=warm_window,
                cache_dir=Path(tmp),
            )
        )


def _check_floor(report: dict) -> list[str]:
    """Gate the warm-phase SLO and telemetry floors against ``perf_floors.json``.

    The SLO-alert latency gate is sleep-driven (the injected spike
    dominates any scheduling noise) so it runs on any host.  The
    throughput-relative gates — warm rps/p99 and the sampled-tracing
    overhead — are meaningless on a host whose affinity mask exposes a
    single core (the event loop and the engine executor would time-slice
    one CPU), so they auto-skip visibly instead of failing or silently
    passing, like the multicore gate in ``bench_perf_engine.py``.
    """
    floors = json.loads(
        (Path(__file__).resolve().parent / "perf_floors.json").read_text()
    )
    failures = []
    telemetry = report.get("telemetry") or {}
    spike = telemetry.get("slo_spike") or {}
    alert_max = floors.get("service_slo_alert_seconds_max")
    if alert_max is not None and spike:
        alert_seconds = spike.get("alert_seconds")
        if alert_seconds is None:
            failures.append(
                "injected latency spike never tripped the p99 SLO burn alert"
            )
        elif alert_seconds > alert_max:
            failures.append(
                f"p99 SLO burn alert took {alert_seconds:.2f} s, over the "
                f"stored ceiling {alert_max} s (two windows + evaluator slack)"
            )
    cpus_visible = report["host"]["cpus_affinity"]
    if cpus_visible < 2:
        print(
            "SKIP: service SLO + trace-overhead gates skipped — host "
            f"affinity exposes {cpus_visible} core(s); need >= 2 for a "
            "meaningful measurement"
        )
        return failures
    warm = report["warm"]
    rps_min = floors.get("service_rps_min")
    p99_max = floors.get("service_p99_ms_max")
    if rps_min is not None and warm["rps"] < rps_min:
        failures.append(
            f"warm-cache throughput {warm['rps']:.0f} req/s fell below the "
            f"stored floor {rps_min} req/s"
        )
    if p99_max is not None and warm["p99_ms"] > p99_max:
        failures.append(
            f"warm-cache p99 {warm['p99_ms']:.1f} ms exceeded the stored "
            f"ceiling {p99_max} ms"
        )
    overhead_max = floors.get("service_trace_overhead_pct_max")
    overhead = telemetry.get("trace_overhead_pct")
    if overhead_max is not None and overhead is not None and overhead > overhead_max:
        failures.append(
            f"1/{telemetry.get('trace_sample', '?')} sampled tracing cost "
            f"{overhead:.2f} % warm throughput, over the stored ceiling "
            f"{overhead_max} %"
        )
    return failures


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    unknown = [a for a in argv if a not in ("--smoke", "--check-floor")]
    if unknown:
        print(f"unknown argument(s): {' '.join(unknown)}", file=sys.stderr)
        print(
            "usage: bench_perf_service.py [--smoke] [--check-floor]",
            file=sys.stderr,
        )
        return 2
    smoke = "--smoke" in argv
    env = os.environ.get
    zones = 8 if smoke else int(env("REPRO_BENCH_SERVICE_ZONES", 256))
    n_max = 10**6 if smoke else int(env("REPRO_BENCH_SERVICE_NMAX", 10**8))
    connections = 2 if smoke else int(env("REPRO_BENCH_SERVICE_CONNS", 16))
    requests = 40 if smoke else int(env("REPRO_BENCH_SERVICE_REQS", 250))
    workers = int(env("REPRO_BENCH_SERVICE_WORKERS", 2))
    out = Path(env("REPRO_BENCH_OUT", _REPO_ROOT / "BENCH_service.json"))

    report = run_service_bench(
        zones=zones,
        n_max=n_max,
        connections=connections,
        requests_per_connection=requests,
        workers=workers,
    )
    out.write_text(json.dumps(report, indent=2) + "\n")

    for phase in ("cold", "warm"):
        stats = report[phase]
        print(
            f"{phase:>6}: {stats['requests']} reqs  {stats['rps']:8.1f} req/s  "
            f"p50={stats['p50_ms']:.2f}ms  p99={stats['p99_ms']:.2f}ms  "
            f"shed={stats['shed']}  errors={stats['errors']}"
        )
    print(
        f"  cold: {report['cold']['requests_per_engine_call']} requests "
        f"per engine call ({report['cold']['engine_calls']} calls)"
    )
    telem = report["telemetry"]
    spike = telem["slo_spike"]
    alert_txt = (
        "NO ALERT"
        if spike["alert_seconds"] is None
        else f"alert in {spike['alert_seconds']:.2f}s "
        f"(burn {spike['alert']['burn_rate']:.2f}, {spike['alert']['scope']})"
    )
    print(
        f" telem: trace 1/{telem['trace_sample']} overhead "
        f"{telem['trace_overhead_pct']:+.2f}% "
        f"(off {telem['trace_off_rps']:.0f} → sampled "
        f"{telem['trace_sampled_rps']:.0f} req/s)"
    )
    print(
        f" telem: reconcile exact={telem['reconcile_exact']} "
        f"({len(telem['reconcile'])} counters)  slo spike: {alert_txt}"
    )
    print(f"wrote {out}")

    drift = report["equivalence"]["max_abs_dn_hat"]
    if drift != 0.0:
        print(f"FAIL: served estimates drifted from direct engine (|dn_hat|={drift})")
        return 1
    errors = report["cold"]["errors"] + report["warm"]["errors"]
    if errors:
        print(f"FAIL: {errors} non-shed error response(s) under load")
        return 1
    server_errors = _error_gate(report)
    for failure in server_errors:
        print(f"FAIL: {failure}")
    if server_errors:
        return 1
    if not telem["reconcile_exact"]:
        bad = {
            name: entry
            for name, entry in telem["reconcile"].items()
            if not entry["exact"]
        }
        print(f"FAIL: windowed telemetry diverged from lifetime counters: {bad}")
        return 1
    if spike["alert_seconds"] is None:
        print("FAIL: injected latency spike never tripped the p99 SLO burn alert")
        return 1
    if "--check-floor" in argv:
        failures = _check_floor(report)
        for failure in failures:
            print(f"FAIL: {failure}")
        if failures:
            return 1
        print("service perf floors ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
