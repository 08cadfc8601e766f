"""figure-cold worker: regenerate Fig. 9/10 into empty caches, in a loop.

Usage::

    python3 perfbench/figure_worker.py --seed S --seconds T --workdir DIR [--trace]
    python3 perfbench/figure_worker.py --probe
    python3 perfbench/figure_worker.py --write-reference

Prints ``{"ready": ...}`` once ``repro`` is imported and the native kernel
library is loaded (the parent times set-up up to that line), then
regenerates ``fig9_fig10_comparison`` over :data:`GRID` until ``T``
seconds have passed.  Every regeneration starts cold: a fresh result-cache
directory and empty tagID-population and planner caches.  The last line
is one JSON object with the timings, the row digest checks and peak RSS.

``--trace`` installs the layer wrappers and alternates regenerations with
the wrappers on and off, so the traced and untraced times come from the
same process.  ``--probe`` stops after the ready line.
``--write-reference`` records the row digest of every figure seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

import layers as _layers

#: The regenerated grid: all four estimators (BFCE, ZOE, SRC, HLL) on the
#: batched event engines, over panel a (n), b (eps) and c (delta), shrunk
#: from the paper's grid so one regeneration takes well under a second.
GRID = dict(
    n_values=(10_000, 50_000, 100_000),
    eps_values=(0.1, 0.2),
    delta_values=(0.1,),
    reference_n=50_000,
    trials=3,
    engine="batched",
    max_workers=1,
)

#: Figure seeds: the workload seed picks one of these as ``base_seed``.
FIGURE_SEEDS = 8

REFERENCE = Path(__file__).with_name("reference_digests.json")


def trials_per_regeneration() -> int:
    coords = len(GRID["n_values"]) + len(GRID["eps_values"]) + len(GRID["delta_values"])
    return coords * 4 * GRID["trials"]


def rows_digest(rows: list[dict]) -> str:
    return hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()


def _load():
    from repro.core import optimal_p
    from repro.experiments import figures, workloads
    from repro.rfid import _native

    lib = _native.get_lib()
    return figures, workloads, optimal_p, _native, lib


def _regenerate(figures, workloads, optimal_p, base_seed: int, cache_dir: Path):
    """One cold regeneration; returns (seconds, rows)."""
    os.environ["REPRO_CACHE"] = "1"
    os.environ["REPRO_CACHE_DIR"] = str(cache_dir)
    workloads.population_cache_clear()
    optimal_p.planner_cache_clear()
    start = time.perf_counter()
    data = figures.fig9_fig10_comparison(base_seed=base_seed, **GRID)
    return time.perf_counter() - start, data.rows


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--workdir", default=".")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)

    figures, workloads, optimal_p, native, lib = _load()
    print(json.dumps({"ready": True, "native": lib is not None}), flush=True)
    if args.probe:
        return 0
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)

    if args.write_reference:
        digests = {}
        for base_seed in range(FIGURE_SEEDS):
            _, rows = _regenerate(
                figures, workloads, optimal_p, base_seed,
                Path(tempfile.mkdtemp(prefix="ref", dir=workdir)),
            )
            digests[str(base_seed)] = rows_digest(rows)
        REFERENCE.write_text(json.dumps({"grid": repr(GRID), "digests": digests}, indent=1) + "\n")
        return 0

    layers = _layers.Layers()
    if args.trace:
        _layers.install_figure(layers)
    base_seed = args.seed % FIGURE_SEEDS
    times: list[float] = []
    traced_times: list[float] = []
    digests: set[str] = set()
    population = {"hits": 0, "misses": 0}
    planner = {"hits": 0, "misses": 0}
    deadline = time.perf_counter() + args.seconds
    index = 0
    cache_dir = None
    while time.perf_counter() < deadline or len(times) < 2 or (
        args.trace and len(traced_times) < 2
    ):
        traced = args.trace and index % 2 == 1
        layers.enabled = traced
        if cache_dir is not None:
            shutil.rmtree(cache_dir)
        cache_dir = Path(tempfile.mkdtemp(prefix="cache", dir=workdir))
        seconds, rows = _regenerate(figures, workloads, optimal_p, base_seed, cache_dir)
        if traced:
            traced_times.append(seconds)
            pop = workloads.population_cache_info()
            plan = optimal_p.planner_cache_info()
            population["hits"] += pop.hits
            population["misses"] += pop.misses
            planner["hits"] += plan.hits
            planner["misses"] += plan.misses
        else:
            times.append(seconds)
        digests.add(rows_digest(rows))
        index += 1
    layers.enabled = False

    # Warm re-call: the last regeneration's cache must replay the same rows,
    # every point a cache hit.
    from repro.obs import metrics

    os.environ["REPRO_CACHE_DIR"] = str(cache_dir)
    hits = metrics.get("sweep.cache.hit")
    warm_rows = figures.fig9_fig10_comparison(base_seed=base_seed, **GRID).rows
    warm_hits = metrics.get("sweep.cache.hit") - hits
    reference = json.loads(REFERENCE.read_text())["digests"].get(str(base_seed))
    digest = digests.pop() if len(digests) == 1 else None
    print(
        json.dumps(
            {
                "base_seed": base_seed,
                "times": times,
                "traced_times": traced_times,
                "trials_per_regeneration": trials_per_regeneration(),
                "points_per_regeneration": trials_per_regeneration() // GRID["trials"],
                "digest": digest,
                "digest_stable": digest is not None,
                "digest_warm_equal": digest is not None
                and rows_digest(warm_rows) == digest
                and warm_hits == trials_per_regeneration() // GRID["trials"],
                "digest_reference_equal": digest is not None and digest == reference,
                "rss_peak_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "layers": layers.snapshot(),
                "population": population,
                "planner": planner,
                "native": {
                    "threads_compiled": bool(lib is not None and lib.threads_compiled()),
                    "effective_threads": native.effective_threads(),
                },
            }
        ),
        flush=True,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
