"""Extension — the full estimator family in the Fig. 10 time ordering.

Places PET and A³ (cited as [13] and [16]) alongside the Fig. 10 trio and
checks the historical efficiency progression holds in overall execution
time at the reference requirement:

    BFCE  <  A³  <  ZOE ≲ PET        (downlink-dominated designs last)

and that every guarantee-bearing protocol actually lands near its ε.
"""

import numpy as np
from conftest import run_once

from repro.baselines import A3, PET, SRC, ZOE
from repro.core.accuracy import AccuracyRequirement
from repro.core.bfce import BFCE
from repro.experiments.workloads import population

N = 100_000


def _run(trials):
    req = AccuracyRequirement(0.05, 0.05)
    pet_req = AccuracyRequirement(0.15, 0.1)  # PET at full tightness needs >2k rounds
    pop = population("T2", N, seed=51)
    seeds = [60 + t for t in range(trials)]
    out = {}
    for name, runner in {
        # SRC and ZOE run through their batched tier, estimate_many
        # (bit-identical to per-trial .estimate(), so the assertions below
        # are unaffected).
        "BFCE": lambda: [BFCE(requirement=req).estimate(pop, seed=s) for s in seeds],
        "A3": lambda: [A3(req).estimate(pop, seed=s) for s in seeds],
        "SRC": lambda: SRC(req).estimate_many(pop, seeds),
        "ZOE": lambda: ZOE(req).estimate_many(pop, seeds),
        "PET": lambda: [PET(pet_req).estimate(pop, seed=s) for s in seeds],
    }.items():
        runs = runner()
        out[name] = {
            "seconds": float(np.mean([r.elapsed_seconds for r in runs])),
            "error": float(np.mean([r.relative_error(N) for r in runs])),
        }
    return out


def test_extended_baselines(benchmark, trials):
    out = run_once(benchmark, _run, max(trials, 2))

    # Execution-time ordering of the design space.
    assert out["BFCE"]["seconds"] < 0.21
    assert out["BFCE"]["seconds"] < out["A3"]["seconds"] < out["ZOE"]["seconds"]
    assert out["SRC"]["seconds"] < out["ZOE"]["seconds"]
    # PET pays a seed broadcast per probe — downlink-dominated like ZOE.
    assert out["PET"]["seconds"] > out["BFCE"]["seconds"]

    # Accuracy sanity at each protocol's configured requirement.
    assert out["BFCE"]["error"] <= 0.05
    assert out["A3"]["error"] <= 0.075
    assert out["SRC"]["error"] <= 0.075
    assert out["ZOE"]["error"] <= 0.075
    assert out["PET"]["error"] <= 0.20
