"""The repository benchmark: serve-warm, serve-cold and figure-cold.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload serve-warm --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation in
the program.  ``--trace 1`` is the separate traced pass: it runs the
workload against an uninstrumented and an instrumented copy of the
program, alternating between them, and reports the per-layer metrics,
the tracing overhead and how well the layers add back up to the
end-to-end time.  The last line of standard output is the result object;
the line before it is a report with the host block, the output checks
and the error attribution.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import client

#: Why each workload exists (also in BENCHMARK.json and the README).
WORKLOADS = {
    "serve-warm": "estimate requests over 256 analytic zones that hit the memory "
    "LRU: the server, protocol, admission and coalescer lookup do the work",
    "serve-cold": "server-allocated seeds on 8 zones: every coalesced run misses, "
    "computes on the analytic tier and stores to a fresh disk cache",
    "figure-cold": "Fig. 9/10 regenerated into an empty cache: populations, "
    "batched BFCE/ZOE/SRC/HLL engines, event kernels and run_sweep",
}

CONNECTIONS = 2  # at most nproc (= 2 on the reference host)
#: Requests in flight per connection, chosen from measured runs: on
#: serve-warm a depth of 8 only queues (same throughput, twice the p50
#: and a far noisier p99 than 4); on serve-cold 8 keeps both engine
#: workers busy (about 8 % more throughput than 4).
PIPELINE_DEPTH = {"serve-warm": 4, "serve-cold": 8}
SETUPS = 3  # set-up repeats per run; setup_s is their median
WARM_ZONES = 256
WARM_SEED_WINDOW = 8
COLD_ZONES = 8
COLD_WARMUP_SECONDS = 1.0
REPLAYS = 32
#: Ids from here on are the traced load; priming and warm-up stay below.
TRACED_ID_FROM = 10_000_000
#: The traced pass alternates servers in segments of this many seconds.
SEGMENT_SECONDS = 1.0
#: The per-layer parts of the traced pass must account for the end-to-end
#: time within this share, or the traced run fails.
RECONCILE_TOLERANCE_PCT = 5.0
SCALED_W = 1 << 17  # frame size of zones above 10^7 tags


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def percentile(values, q: float) -> float:
    """Exact nearest-rank percentile (``q`` in [0, 1])."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def log_spaced(count: int, lo_exp: float, hi_exp: float) -> list[int]:
    return [
        int(round(10 ** (lo_exp + (hi_exp - lo_exp) * i / (count - 1))))
        for i in range(count)
    ]


def zone_configs(prefix: str, count: int) -> dict[str, dict]:
    """``count`` analytic zones log-spaced over n = 10^3 .. 10^8."""
    zones = {}
    for i, n in enumerate(log_spaced(count, 3.0, 8.0)):
        config = {"n": n, "engine": "analytic"}
        if n > 10**7:
            config["w"] = SCALED_W
        zones[f"{prefix}{i:03d}"] = config
    return zones


def hist_delta(after: dict | None, before: dict | None) -> dict | None:
    """The histogram of the samples observed between two snapshots."""
    if not after:
        return None
    before = before or {"count": 0, "sum": 0.0, "buckets": {}}
    buckets = {
        key: count - before.get("buckets", {}).get(key, 0)
        for key, count in after.get("buckets", {}).items()
    }
    return {
        "count": after["count"] - before["count"],
        "sum": after["sum"] - before["sum"],
        "min": after["min"],
        "max": after["max"],
        "buckets": {k: v for k, v in buckets.items() if v},
    }


def counter_delta(after: dict, before: dict, name: str) -> float:
    return after["counters"].get(name, 0) - before["counters"].get(name, 0)


# ----------------------------------------------------------------------
# set-up of the program
# ----------------------------------------------------------------------
class Bench:
    def __init__(self, args, root: Path) -> None:
        self.args = args
        self.root = root
        self.workdir = root / ".bench_build" / "perfbench" / f"{args.workload}-{os.getpid()}"
        self.workdir.mkdir(parents=True)
        self.rng = random.Random(args.seed)
        self.report: dict = {"workload": args.workload, "why": WORKLOADS[args.workload]}
        self.checks: dict[str, bool] = {}
        self.attempted = 0
        self.failed = 0
        self.servers: list[client.ServerProcess] = []

    def child_env(self) -> None:
        os.environ["PYTHONPATH"] = str(self.root / "src")
        os.environ["REPRO_NATIVE_BUILD_DIR"] = str(self.root / ".bench_build" / "native")
        # The benchmark process replays estimates with no result cache.
        os.environ["REPRO_CACHE"] = "0"
        for name in ("REPRO_TRACE", "REPRO_TRACE_SAMPLE", "REPRO_NATIVE_THREADS"):
            os.environ.pop(name, None)
        sys.path.insert(0, str(self.root / "src"))

    def build_native(self) -> str | None:
        """Compile the native kernels once, before anything is timed.

        Returns the reason to skip the workload, or None.
        """
        probe = subprocess.run(
            [sys.executable, str(self.root / "perfbench" / "figure_worker.py"), "--probe"],
            cwd=self.root, capture_output=True, timeout=600,
        )
        if probe.returncode != 0:
            return "repro does not import: " + probe.stderr.decode()[-400:]
        if not json.loads(probe.stdout.splitlines()[-1])["native"]:
            return "the native kernel library failed to build"
        return None

    def host_block(self) -> dict:
        from repro.rfid import _native

        affinity = sorted(os.sched_getaffinity(0))
        return {
            "nproc": os.cpu_count(),
            "affinity": affinity,
            "native_variant": "mt" if _native.threads_supported() else "st",
            "threads_compiled": _native.threads_supported(),
            "native_threads_in_process": _native.effective_threads(),
            "native_threads_per_server_worker": max(1, len(affinity) // 2),
            "python": sys.version.split()[0],
        }

    def stop_servers(self) -> None:
        while self.servers:
            self.servers.pop().stop()

    # ------------------------------------------------------------------
    def write_zones(self, zones: dict) -> Path:
        """The zone file every server of the run is started with."""
        zones_file = self.workdir / "zones.json"
        zones_file.write_text(json.dumps(zones))
        return zones_file

    def spawn(self, zones_file: Path, count: int, name: str, **kwargs) -> tuple:
        server = client.ServerProcess(self.root, self.workdir, zones_file, name, **kwargs)
        self.servers.append(server)
        return server, server.wait_ready(count)


# ----------------------------------------------------------------------
# serve-* workloads
# ----------------------------------------------------------------------
class ServeWorkload:
    def __init__(self, bench: Bench) -> None:
        self.bench = bench
        self.name = bench.args.workload
        self.warm = self.name == "serve-warm"
        rng = bench.rng
        if self.warm:
            self.zones = zone_configs("w", WARM_ZONES)
            self.seed_offset = rng.randrange(1_000_000)
        else:
            self.zones = zone_configs("c", COLD_ZONES)
        self.order = list(self.zones)
        rng.shuffle(self.order)
        self.depth = PIPELINE_DEPTH[self.name]
        self.result_estimates: dict[tuple[str, int], float] = {}
        self.inconsistent = 0
        self.client_errors: dict[str, int] = {}

    def requests(self, first_id: int, count: int | None = None):
        """Request lines with ids from ``first_id`` (round-robin over zones)."""
        zones = self.order
        k = 0
        while count is None or k < count:
            rid = first_id + k
            zone = zones[k % len(zones)]
            if self.warm:
                seed = self.seed_offset + (k // len(zones)) % WARM_SEED_WINDOW
                line = f'{{"op":"estimate","zone":"{zone}","seed":{seed},"id":{rid}}}\n'
            else:
                line = f'{{"op":"estimate","zone":"{zone}","id":{rid}}}\n'
            yield rid, line.encode()
            k += 1

    def account(self, result: client.LoadResult) -> None:
        b = self.bench
        b.attempted += result.ok + result.failed
        b.failed += result.failed
        for code, count in result.error_codes.items():
            self.client_errors[code] = self.client_errors.get(code, 0) + count
        self.inconsistent += result.inconsistent

    def load(self, server, first_id, seconds, count=None, keep_timings=False):
        result = client.run_load(
            server.port, self.requests(first_id, count), self.result_estimates,
            connections=CONNECTIONS,
            depth=self.depth, seconds=seconds, keep_timings=keep_timings,
        )
        self.account(result)
        return result

    def prime(self, server) -> None:
        """Untimed: every (zone, seed) pair once (warm), or a short warm-up."""
        if self.warm:
            self.load(server, 0, 3600.0, count=len(self.zones) * WARM_SEED_WINDOW)
        else:
            self.load(server, 0, COLD_WARMUP_SECONDS)

    def server_errors(self, server) -> dict:
        counters = server.metrics()["counters"]
        return {
            name.rsplit(".", 1)[1]: count
            for name, count in counters.items()
            if name.startswith("service.errors.")
        }

    def replay(self) -> dict:
        """Served n_hat of sampled (zone, seed) pairs == a direct engine call."""
        from repro.experiments.sweep import execute_point_inline
        from repro.service.zones import ZoneConfig

        pairs = sorted(self.result_estimates)
        sample = self.bench.rng.sample(pairs, min(REPLAYS, len(pairs)))
        drift = 0
        for zone, seed in sample:
            point = ZoneConfig.from_dict(self.zones[zone]).point(base_seed=seed, trials=1)
            payload, _ = execute_point_inline(point, cache=None)
            if payload["records"][0]["n_hat"] != self.result_estimates[(zone, seed)]:
                drift += 1
        return {"replayed": len(sample), "drift": drift}

    def finish_checks(self, servers) -> None:
        b = self.bench
        replay = self.replay()
        server_errors: dict[str, int] = {}
        for server in servers:
            for code, count in self.server_errors(server).items():
                server_errors[code] = server_errors.get(code, 0) + count
        b.report["errors"] = {
            "client": self.client_errors,
            "server_lifetime": server_errors,
            "attempted": b.attempted,
        }
        b.report["replay"] = replay
        b.report["inconsistent_repeats"] = self.inconsistent
        b.checks["served_equals_direct"] = replay["replayed"] > 0 and replay["drift"] == 0
        b.checks["repeats_consistent"] = self.inconsistent == 0
        b.checks["server_errors_match_client"] = server_errors == self.client_errors

    # ------------------------------------------------------------------
    def run_plain(self) -> dict:
        b = self.bench
        zones_file = b.write_zones(self.zones)
        setups = []
        for index in range(SETUPS):
            server, seconds = b.spawn(zones_file, len(self.zones), f"s{index}")
            setups.append(seconds)
            if index < SETUPS - 1:
                b.servers.remove(server)
                server.stop()
        self.prime(server)
        result = self.load(server, TRACED_ID_FROM, b.args.seconds)
        rss = server.rss_peak_mb()
        self.finish_checks([server])
        b.stop_servers()
        b.report["samples"] = len(result.latencies)
        b.report["setup_samples_s"] = setups
        ms = [x * 1e3 for x in result.latencies]
        return {
            "throughput_per_s": metric(result.ok / result.elapsed, "1/s"),
            "latency_p50_ms": metric(percentile(ms, 0.50), "ms"),
            "latency_p99_ms": metric(percentile(ms, 0.99), "ms"),
            "rss_peak_mb": metric(rss, "MB"),
            "setup_s": metric(statistics.median(setups), "s"),
        }

    def run_traced(self) -> dict:
        b = self.bench
        zones_file = b.write_zones(self.zones)
        traced_out = b.workdir / "layers.json"
        plain, _ = b.spawn(zones_file, len(self.zones), "plain")
        traced, _ = b.spawn(
            zones_file, len(self.zones), "traced",
            traced_out=traced_out, request_id_from=TRACED_ID_FROM,
        )
        sampled, _ = b.spawn(
            zones_file, len(self.zones), "sampled",
            env={"REPRO_TRACE": str(b.workdir / "trace.jsonl"), "REPRO_TRACE_SAMPLE": "64"},
        )
        servers = {"plain": plain, "traced": traced, "sampled": sampled}
        for server in servers.values():
            self.prime(server)
        before = plain.metrics()
        rates = {name: [] for name in servers}
        next_id = {name: TRACED_ID_FROM for name in servers}
        timings: dict[int, tuple[float, float]] = {}
        plain_ms: list[float] = []
        # The pass spends --seconds of load in all, shared by the servers.
        for _ in range(max(2, round(b.args.seconds / (len(servers) * SEGMENT_SECONDS)))):
            for name, server in servers.items():
                result = self.load(
                    server, next_id[name], SEGMENT_SECONDS, keep_timings=name == "traced"
                )
                next_id[name] += len(result.latencies)
                rates[name].append(result.ok / result.elapsed)
                timings.update(result.timings)
                if name == "plain":
                    plain_ms.extend(x * 1e3 for x in result.latencies)
        after = plain.metrics()
        self.finish_checks(list(servers.values()))
        b.stop_servers()
        data = json.loads(traced_out.read_text())
        # Paired by round: the host's speed drifts over seconds, and the
        # segments of one round run back to back.
        overhead = {
            name: statistics.median(
                100.0 * (1.0 - rate / plain_rate)
                for rate, plain_rate in zip(rates[name], rates["plain"])
            )
            for name in ("traced", "sampled")
        }
        b.report["segments_per_server"] = len(rates["plain"])
        b.report["throughput_by_server"] = {k: statistics.median(v) for k, v in rates.items()}
        return self.layer_metrics(data, timings, before, after, overhead, plain_ms)

    def layer_metrics(self, data, timings, before, after, overhead, plain_ms) -> dict:
        b = self.bench
        layers = data["layers"]
        fields = data["request_fields"]
        col = {name: i for i, name in enumerate(fields)}
        records = {row[0]: row for row in data["requests"]}
        outside, miss_ms = [], []
        latency_total = unattributed = 0.0
        negative = 0
        parts_total = {name: 0.0 for name in ("inbound", "parse", "acquire", "estimate",
                                              "write", "server_self", "outbound")}
        for rid, (sent, received) in timings.items():
            latency = received - sent
            latency_total += latency
            row = records.get(rid)
            if row is None:
                unattributed += latency
                continue
            start, end = row[col["start"]], row[col["end"]]
            inbound, outbound = start - sent, received - end
            if inbound < 0:
                negative += 1
            children = sum(row[col[p]] for p in ("parse", "acquire", "estimate", "write"))
            parts_total["inbound"] += inbound
            parts_total["outbound"] += outbound
            parts_total["server_self"] += (end - start) - children
            for p in ("parse", "acquire", "estimate", "write"):
                parts_total[p] += row[col[p]]
            outside.append((latency - (end - start)) * 1e3)
            if row[col["hit"]] is False:
                miss_ms.append(row[col["estimate"]] * 1e3)
        # Requests with no server record count whole as unattributed.
        attributed = sum(parts_total.values())
        gap_pct = 100.0 * (
            unattributed + abs(latency_total - unattributed - attributed)
        ) / latency_total
        b.report["reconcile"] = {
            "tolerance_pct": RECONCILE_TOLERANCE_PCT,
            "requests": len(timings),
            "unmatched": len(timings) - len(outside),
            "negative_inbound": negative,
            "mean_latency_ms": 1e3 * latency_total / len(timings),
            "mean_parts_ms": {k: 1e3 * v / max(1, len(outside)) for k, v in parts_total.items()},
        }
        b.checks["layers_reconcile"] = gap_pct <= RECONCILE_TOLERANCE_PCT and negative == 0

        def mean(name, scale):
            entry = layers.get(name)
            return scale * entry["seconds"] / entry["calls"] if entry and entry["calls"] else 0.0

        request_hist = hist_delta(
            after["histograms"].get("service.request.seconds"),
            before["histograms"].get("service.request.seconds"),
        )
        from repro.obs.metrics import quantile

        estimates = len(plain_ms)
        memory_hits = counter_delta(after, before, "service.cache.memory_hit")
        engine_calls = counter_delta(after, before, "service.engine.calls")
        disk_hits = counter_delta(after, before, "sweep.cache.hit")
        disk_misses = counter_delta(after, before, "sweep.cache.miss")
        planner = data["planner"]
        trials = layers.get("bfce.analytic_trial", {}).get("calls", 0)
        out = {
            "protocol.parse_us": metric(mean("protocol.parse", 1e6), "us"),
            "protocol.encode_us": metric(mean("protocol.encode", 1e6), "us"),
            "server.request_ms.p50": metric(1e3 * (quantile(request_hist, 0.5) or 0.0), "ms"),
            "server.request_ms.p99": metric(1e3 * (quantile(request_hist, 0.99) or 0.0), "ms"),
            "server.outside_ms.p50": metric(percentile(outside, 0.5) if outside else 0.0, "ms"),
            "admission.acquire_us": metric(mean("admission.acquire", 1e6), "us"),
            "admission.shed": metric(counter_delta(after, before, "service.admission.shed"), "count"),
            "coalescer.memory_hit_ratio": metric(memory_hits / max(1, estimates), "ratio"),
            "coalescer.requests_per_engine_call": metric(
                (estimates - memory_hits) / engine_calls if engine_calls else 0.0, "ratio"),
            "coalescer.estimate_ms.p50": metric(percentile(miss_ms, 0.5) if miss_ms else 0.0, "ms"),
            "coalescer.estimate_ms.p99": metric(percentile(miss_ms, 0.99) if miss_ms else 0.0, "ms"),
            "sweep.execute_ms": metric(mean("sweep.execute", 1e3), "ms"),
            "cache.load_us": metric(mean("cache.load", 1e6), "us"),
            "cache.store_ms": metric(mean("cache.store", 1e3), "ms"),
            "cache.disk_hit_ratio": metric(
                disk_hits / (disk_hits + disk_misses) if disk_hits + disk_misses else 0.0, "ratio"),
            "trace.overhead_pct": metric(overhead["traced"], "%"),
            "trace.reconcile_gap_pct": metric(gap_pct, "%"),
            "obs.trace_overhead_pct": metric(overhead["sampled"], "%"),
        }
        out.update(engine_metrics(layers, trials, planner))
        return out


# ----------------------------------------------------------------------
# engine layers, read on serve-* and figure-cold alike
# ----------------------------------------------------------------------
def engine_metrics(layers: dict, trials: int, planner: dict) -> dict:
    """Analytic-tier, planner, ledger and kernel metrics (per trial / call)."""

    def entry(name):
        return layers.get(name) or {"calls": 0, "seconds": 0.0, "self_seconds": 0.0}

    def per_call(name, scale, key="seconds"):
        e = entry(name)
        return scale * e[key] / e["calls"] if e["calls"] else 0.0

    def per_trial(name):
        return entry(name)["calls"] / trials if trials else 0.0

    looked_up = planner["hits"] + planner["misses"]
    out = {
        "bfce.analytic_trial_ms": metric(per_call("bfce.analytic_trial", 1e3), "ms"),
        "bfce.protocol_self_ms": metric(per_call("bfce.analytic_trial", 1e3, "self_seconds"), "ms"),
        "planner.calls": metric(per_trial("planner"), "count/trial"),
        "planner.ms": metric(per_call("planner", 1e3), "ms"),
        "planner.cache_hit_ratio": metric(planner["hits"] / looked_up if looked_up else 0.0, "ratio"),
        "sampler.frames": metric(per_trial("sampler"), "count/trial"),
        "sampler.us_per_frame": metric(per_call("sampler", 1e6), "us"),
        "ledger.calls": metric(per_trial("ledger"), "count/trial"),
        "ledger.us": metric(per_call("ledger", 1e6), "us"),
    }
    from layers import KERNELS

    for kernel in KERNELS:
        out[f"kernel.{kernel}.calls"] = metric(per_trial(f"kernel.{kernel}"), "count/trial")
        out[f"kernel.{kernel}.ms"] = metric(per_call(f"kernel.{kernel}", 1e3), "ms")
    return out


# ----------------------------------------------------------------------
# figure-cold
# ----------------------------------------------------------------------
class FigureWorkload:
    def __init__(self, bench: Bench) -> None:
        self.bench = bench

    def worker(self, *extra: str) -> tuple[subprocess.Popen, float]:
        """Spawn a worker; returns it and its set-up time (spawn to ready)."""
        b = self.bench
        started = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(b.root / "perfbench" / "figure_worker.py"), *extra],
            cwd=b.root, stdout=subprocess.PIPE,
        )
        ready = proc.stdout.readline()
        setup = time.perf_counter() - started
        if not ready or not json.loads(ready).get("ready"):
            proc.wait()
            raise RuntimeError("figure worker failed to start")
        return proc, setup

    def collect(self, proc) -> dict:
        out = proc.stdout.read().decode()
        if proc.wait() != 0:
            raise RuntimeError("figure worker failed")
        return json.loads(out.splitlines()[-1])

    def run(self, trace: bool) -> dict:
        b = self.bench
        setups = []
        for _ in range(SETUPS - 1):
            proc, seconds = self.worker("--probe")
            self.collect_probe(proc)
            setups.append(seconds)
        args = ["--seed", str(b.args.seed), "--seconds", str(b.args.seconds),
                "--workdir", str(b.workdir / "figure")]
        if trace:
            args.append("--trace")
        proc, seconds = self.worker(*args)
        setups.append(seconds)
        data = self.collect(proc)
        points = data["points_per_regeneration"]
        regenerations = len(data["times"]) + len(data["traced_times"])
        b.attempted += regenerations * points
        b.checks["digest_stable"] = data["digest_stable"]
        b.checks["digest_equals_warm_recall"] = data["digest_warm_equal"]
        b.checks["digest_equals_reference"] = data["digest_reference_equal"]
        b.report["figure"] = {
            "base_seed": data["base_seed"],
            "digest": data["digest"],
            "regenerations": len(data["times"]),
            "traced_regenerations": len(data["traced_times"]),
            "trials_per_regeneration": data["trials_per_regeneration"],
            "native": data["native"],
        }
        b.report["errors"] = {"failed_points": 0, "attempted": b.attempted}
        b.report["setup_samples_s"] = setups
        if trace:
            return self.layer_metrics(data)
        times_ms = [t * 1e3 for t in data["times"]]
        b.report["samples"] = len(times_ms)
        return {
            "throughput_per_s": metric(
                data["trials_per_regeneration"] * len(times_ms) / sum(data["times"]), "1/s"),
            "latency_p50_ms": metric(percentile(times_ms, 0.50), "ms"),
            "latency_p99_ms": metric(percentile(times_ms, 0.99), "ms"),
            "rss_peak_mb": metric(data["rss_peak_mb"], "MB"),
            "setup_s": metric(statistics.median(setups), "s"),
        }

    @staticmethod
    def collect_probe(proc) -> None:
        proc.stdout.read()
        if proc.wait() != 0:
            raise RuntimeError("figure worker probe failed")

    def layer_metrics(self, data) -> dict:
        b = self.bench
        layers = data["layers"]
        regenerations = len(data["traced_times"])
        traced_total = sum(data["traced_times"])
        self_total = sum(entry["self_seconds"] for entry in layers.values())
        gap_pct = 100.0 * abs(traced_total - self_total) / traced_total
        b.checks["layers_reconcile"] = gap_pct <= RECONCILE_TOLERANCE_PCT
        b.report["reconcile"] = {
            "tolerance_pct": RECONCILE_TOLERANCE_PCT,
            "wall_s": traced_total,
            "self_s": {name: entry["self_seconds"] for name, entry in layers.items()},
        }

        def per_regeneration(name, scale, key="seconds"):
            entry = layers.get(name)
            return scale * entry[key] / regenerations if entry else 0.0

        def per_call(name, scale):
            entry = layers.get(name)
            return scale * entry["seconds"] / entry["calls"] if entry else 0.0

        pop = data["population"]
        looked_up = pop["hits"] + pop["misses"]
        trials = data["trials_per_regeneration"] * regenerations
        out = {
            name: metric(0.0, unit)
            for name, unit in SERVE_ONLY_METRICS.items()
        }
        out.update({
            "sweep.execute_ms": metric(per_call("sweep.execute", 1e3), "ms"),
            "cache.load_us": metric(per_call("cache.load", 1e6), "us"),
            "cache.store_ms": metric(per_call("cache.store", 1e3), "ms"),
            "sweep.run_self_s": metric(per_regeneration("sweep.run", 1.0, "self_seconds"), "s"),
            "batch.bfce_ms": metric(per_regeneration("batch.bfce", 1e3), "ms"),
            "batch.baselines_ms": metric(per_regeneration("batch.baselines", 1e3), "ms"),
            "batch.hll_ms": metric(per_regeneration("batch.hll", 1e3), "ms"),
            "population.build_ms": metric(per_regeneration("population", 1e3), "ms"),
            "population.cache_hit_ratio": metric(
                pop["hits"] / looked_up if looked_up else 0.0, "ratio"),
            # Paired: each traced regeneration with the untraced one before it.
            "trace.overhead_pct": metric(statistics.median(
                100.0 * (traced / untraced - 1.0)
                for untraced, traced in zip(data["times"], data["traced_times"])
            ), "%"),
            "trace.reconcile_gap_pct": metric(gap_pct, "%"),
        })
        out.update(engine_metrics(layers, trials, data["planner"]))
        return out


#: Per-layer metrics only the serve workloads exercise (0 on figure-cold).
SERVE_ONLY_METRICS = {
    "protocol.parse_us": "us",
    "protocol.encode_us": "us",
    "server.request_ms.p50": "ms",
    "server.request_ms.p99": "ms",
    "server.outside_ms.p50": "ms",
    "admission.acquire_us": "us",
    "admission.shed": "count",
    "coalescer.memory_hit_ratio": "ratio",
    "coalescer.requests_per_engine_call": "ratio",
    "coalescer.estimate_ms.p50": "ms",
    "coalescer.estimate_ms.p99": "ms",
    "cache.disk_hit_ratio": "ratio",
    "obs.trace_overhead_pct": "%",
}

#: Per-layer metrics only figure-cold exercises (0 on the serve workloads).
FIGURE_ONLY_METRICS = {
    "sweep.run_self_s": "s",
    "batch.bfce_ms": "ms",
    "batch.baselines_ms": "ms",
    "batch.hll_ms": "ms",
    "population.build_ms": "ms",
    "population.cache_hit_ratio": "ratio",
}


# ----------------------------------------------------------------------
def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "service" / "server.py").is_file():
        print("perfbench: run from the root of a repro checkout (src/repro missing)",
              file=sys.stderr)
        return 2
    bench = Bench(args, root)
    bench.child_env()
    try:
        reason = bench.build_native()
        if reason is not None:
            print(json.dumps({"workload": args.workload, "skipped": True, "reason": reason}))
            return 3
        bench.report["host"] = bench.host_block()
        if args.workload == "figure-cold":
            metrics = FigureWorkload(bench).run(bool(args.trace))
        else:
            workload = ServeWorkload(bench)
            if args.trace:
                metrics = workload.run_traced()
                metrics.update({name: metric(0.0, unit)
                                for name, unit in FIGURE_ONLY_METRICS.items()})
            else:
                metrics = workload.run_plain()
    finally:
        bench.stop_servers()
        shutil.rmtree(bench.workdir, ignore_errors=True)
    bench.report["checks"] = bench.checks
    print(json.dumps(bench.report))
    print(json.dumps({
        "correct": all(bench.checks.values()) and bool(bench.checks),
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
