"""Perf-regression harness: serial vs. batched BFCE trials.

Unlike the figure benches (which regenerate paper results), this harness
tracks the *simulator's own* throughput trajectory.  It times the
trial engines on an identical workload — by default n = 10⁵ tags,
T = 50 Monte-Carlo trials, perfect channel — and writes ``BENCH_engine.json``
at the repo root with trials/sec per engine, the speedup over serial, and
the maximum |Δn̂| of each engine versus the serial reference (which must be
exactly 0.0: batching claims bit-equivalence, not statistical
agreement).

Run as a script or module::

    PYTHONPATH=src python benchmarks/bench_perf_engine.py
    PYTHONPATH=src python benchmarks/bench_perf_engine.py --smoke
    PYTHONPATH=src python -m bench_perf_engine          # from benchmarks/

``--smoke`` shrinks the workload (n = 5000, T = 6, best-of-1) so
CI can exercise the full harness — including the drift gate — in seconds.

Knobs (environment variables, overridden by ``--smoke``):

* ``REPRO_BENCH_N``        population size          (default 100000)
* ``REPRO_BENCH_TRIALS``   Monte-Carlo trials       (default 50)
* ``REPRO_BENCH_REPEATS``  timing repetitions, best-of (default 3)
* ``REPRO_BENCH_OUT``      output path              (default <repo>/BENCH_engine.json)

The harness is also importable: ``run_engine_bench()`` returns the result
dict without touching the filesystem, which is how the tier-2 smoke test
exercises it at a reduced scale.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

_REPO_ROOT = Path(__file__).resolve().parent.parent
_SRC = _REPO_ROOT / "src"
if str(_SRC) not in sys.path:  # script-mode convenience; no-op under PYTHONPATH=src
    sys.path.insert(0, str(_SRC))

from repro.experiments.runner import run_bfce_trials  # noqa: E402
from repro.obs.host import host_block  # noqa: E402
from repro.rfid.ids import uniform_ids  # noqa: E402
from repro.rfid.tags import TagPopulation  # noqa: E402

BASE_SEED = 2015  # ICPP'15 — fixed so every engine replays the same seeds


def _time_best_of(fn, repeats: int):
    """Best-of-N wall time; returns (seconds, last_records)."""
    best = float("inf")
    records = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        records = fn()
        best = min(best, time.perf_counter() - t0)
    return best, records


def _pinned_threads(value: str, fn):
    """Run ``fn`` with ``REPRO_NATIVE_THREADS`` pinned, restoring after.

    The kernels re-read the env var on every call, so pinning around one
    engine run measures exactly that run at the pinned thread count — no
    rebuild, no process restart, and bit-identical outputs either way.
    """
    def runner():
        old = os.environ.get("REPRO_NATIVE_THREADS")
        os.environ["REPRO_NATIVE_THREADS"] = value
        try:
            return fn()
        finally:
            if old is None:
                os.environ.pop("REPRO_NATIVE_THREADS", None)
            else:
                os.environ["REPRO_NATIVE_THREADS"] = old

    return runner


def run_engine_bench(
    *,
    n: int = 100_000,
    trials: int = 50,
    repeats: int = 3,
) -> dict:
    """Time every engine on one workload and return the report dict."""
    population = TagPopulation(uniform_ids(n, seed=1))

    batched = lambda: run_bfce_trials(  # noqa: E731
        population, trials=trials, base_seed=BASE_SEED, engine="batched"
    )
    engines = {
        "serial": lambda: run_bfce_trials(
            population, trials=trials, base_seed=BASE_SEED, engine="serial"
        ),
        # Same batched engine pinned to one kernel thread: the baseline the
        # multicore gate measures the threaded run against.
        "batched_1t": _pinned_threads("1", batched),
        "batched": batched,
    }

    results = {}
    reference = None
    for name, fn in engines.items():
        fn()  # warm-up: page in buffers outside the clock
        seconds, records = _time_best_of(fn, repeats)
        n_hats = [r.n_hat for r in records]
        if reference is None:
            reference = n_hats
        results[name] = {
            "seconds": round(seconds, 4),
            "trials_per_sec": round(trials / seconds, 2),
            "max_abs_dn_hat_vs_serial": max(
                abs(a - b) for a, b in zip(n_hats, reference)
            ),
        }

    serial_tps = results["serial"]["trials_per_sec"]
    for name in results:
        results[name]["speedup_vs_serial"] = round(
            results[name]["trials_per_sec"] / serial_tps, 2
        )

    host = host_block()
    return {
        "benchmark": "engine_throughput",
        "workload": {
            "n": n,
            "trials": trials,
            "base_seed": BASE_SEED,
            "channel": "perfect",
            "repeats_best_of": repeats,
        },
        "host": host,
        "multicore": {
            "cpus_visible": host["cpus_affinity"],
            "threads": host["native_threads"],
            "speedup_threaded_vs_1t": round(
                results["batched"]["trials_per_sec"]
                / results["batched_1t"]["trials_per_sec"],
                2,
            ),
        },
        "engines": results,
    }


def _check_floor(report: dict) -> list[str]:
    """Compare the report against ``perf_floors.json``; returns failures.

    The floors file stores deliberately conservative minima (about half of
    a cold-CI measurement) so the gate trips on real regressions — a kernel
    edit that silently falls back to Python, batching quietly disabled — and
    not on scheduler noise.  Ratios (speedups) are used rather than absolute
    times so the floors transfer across machines.
    """
    floors_path = Path(__file__).resolve().parent / "perf_floors.json"
    floors = json.loads(floors_path.read_text())
    failures = []
    batched = report["engines"]["batched"]["speedup_vs_serial"]
    floor = floors["engine_batched_speedup_min"]
    if batched < floor:
        failures.append(
            f"batched speedup {batched}x fell below the stored floor {floor}x"
        )
    # Multicore gate: threaded kernels vs the same engine pinned to one
    # thread.  Meaningless on a host whose affinity mask exposes a single
    # core — then it auto-skips, visibly, instead of failing or silently
    # passing a vacuous 1.0x.
    threaded_floor = floors.get("engine_threaded_speedup_min")
    cpus_visible = report["multicore"]["cpus_visible"]
    if threaded_floor is not None:
        if cpus_visible < 2:
            print(
                "SKIP: multicore speedup gate skipped — host affinity exposes "
                f"{cpus_visible} core(s); need >= 2 for a meaningful measurement"
            )
        else:
            threaded = report["multicore"]["speedup_threaded_vs_1t"]
            if threaded < threaded_floor:
                failures.append(
                    f"threaded batched speedup {threaded}x over single-thread "
                    f"fell below the stored floor {threaded_floor}x "
                    f"(cpus_visible={cpus_visible})"
                )
    return failures


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    unknown = [a for a in argv if a not in ("--smoke", "--check-floor")]
    if unknown:
        print(f"unknown argument(s): {' '.join(unknown)}", file=sys.stderr)
        print("usage: bench_perf_engine.py [--smoke] [--check-floor]", file=sys.stderr)
        return 2
    smoke = "--smoke" in argv
    n = 5_000 if smoke else int(os.environ.get("REPRO_BENCH_N", 100_000))
    trials = 6 if smoke else int(os.environ.get("REPRO_BENCH_TRIALS", 50))
    repeats = 1 if smoke else int(os.environ.get("REPRO_BENCH_REPEATS", 3))
    out = Path(os.environ.get("REPRO_BENCH_OUT", _REPO_ROOT / "BENCH_engine.json"))

    report = run_engine_bench(n=n, trials=trials, repeats=repeats)
    out.write_text(json.dumps(report, indent=2) + "\n")

    for name, stats in report["engines"].items():
        print(
            f"{name:>8}: {stats['seconds']:.3f}s  "
            f"{stats['trials_per_sec']:7.1f} trials/s  "
            f"{stats['speedup_vs_serial']:5.2f}x  "
            f"max|dn_hat|={stats['max_abs_dn_hat_vs_serial']}"
        )
    print(f"wrote {out}")

    drift = max(
        s["max_abs_dn_hat_vs_serial"] for s in report["engines"].values()
    )
    if drift != 0.0:
        print(f"FAIL: engines drifted from serial (max |dn_hat| = {drift})")
        return 1
    if "--check-floor" in argv:
        failures = _check_floor(report)
        for failure in failures:
            print(f"FAIL: {failure}")
        if failures:
            return 1
        print("perf floors ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
