"""Golden oracle for the LOF/ZOE/SRC/HLL baselines on every engine tier.

Every case below runs one protocol execution (or one lockstep batch) with
fixed seeds and reduces it to plain data: the fields of each
:class:`~repro.baselines.base.EstimationResult` and, on the serial tier,
the reader ledger's per-phase breakdown.  The records were frozen into
``tests/data/baseline_protocol_golden.json`` and are compared with exact
``==`` — no tolerance, since every tier is deterministic per seed.

Covered, for LOF, ZOE, SRC and HLL with default and non-default constructor
arguments under two accuracy requirements:

* serial ``estimate_with_reader`` on an event ``Reader`` (three seeds);
* the lockstep batched engine over T = 4 seeds;
* the analytic tier (LOF, ZOE and SRC only) over the same four seeds;

on populations of 0, 1, 40 and 30 000 tags (the analytic tier adds a
virtual 200 000).  The seeds are chosen so every tier holds SRC records
that retry a round (``frames_run > rounds``) and ZOE records that stop at
the frame cap; :func:`test_every_tier_pins_the_retry_and_cap_paths`
keeps a reseed from silently dropping either path.

The tiers are called directly rather than through ``run_trials``:
``relative_error(0)`` raises, and the empty population is a case worth
pinning.  The file was regenerated with::

    PYTHONPATH=src python -m tests.baselines.test_baseline_golden --regenerate

Regenerate only for an intentional algorithmic change (hash, RNG
consumption order, estimator math), and say so where the change is recorded.
"""

from __future__ import annotations

import json
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from repro.baselines import HLL, LOF, SRC, ZOE
from repro.core.accuracy import AccuracyRequirement
from repro.rfid.ids import uniform_ids
from repro.rfid.reader import Reader
from repro.rfid.tags import TagPopulation

DATA = Path(__file__).resolve().parents[1] / "data" / "baseline_protocol_golden.json"

#: name -> (n, tagID seed).  At (ε, δ) = (0.1, 0.1) the 30 000-tag
#: population trips SRC round retries on some seeds; the empty population
#: drives ZOE to its frame cap.
POPULATIONS = {"n0": (0, 0), "n1": (1, 1), "n40": (40, 2), "n30k": (30_000, 5)}
SEEDS = (21, 34, 41)
BATCH_SEEDS = (21, 34, 41, 53)
ANALYTIC_NS = (0, 1, 40, 30_000, 200_000)
ANALYTIC_SEEDS = BATCH_SEEDS

REQUIREMENTS = {
    "default": AccuracyRequirement(),
    "e10d10": AccuracyRequirement(0.1, 0.1),
}

#: name -> estimator factory taking a requirement.
ESTIMATORS = {
    "LOF": lambda req: LOF(requirement=req),
    "LOF-r5-s16": lambda req: LOF(rounds=5, frame_slots=16, requirement=req),
    "ZOE": lambda req: ZOE(req),
    "ZOE-rough3": lambda req: ZOE(req, rough_rounds=3),
    "SRC": lambda req: SRC(req),
    "SRC-rough16": lambda req: SRC(req, rough_slots=16),
    "HLL": lambda req: HLL(requirement=req),
    "HLL-p8": lambda req: HLL(p=8, requirement=req),
}
ANALYTIC_ESTIMATORS = ("LOF", "LOF-r5-s16", "ZOE", "ZOE-rough3", "SRC", "SRC-rough16")

_RESULT_FIELDS = (
    "n_hat",
    "elapsed_seconds",
    "estimator",
    "rounds",
    "uplink_slots",
    "downlink_bits",
    "extra",
)


@lru_cache(maxsize=None)
def _population(name: str) -> TagPopulation:
    n, id_seed = POPULATIONS[name]
    if n == 0:
        return TagPopulation(np.array([], dtype=np.uint64))
    return TagPopulation(uniform_ids(n, seed=id_seed))


def _result(result) -> dict:
    return {name: getattr(result, name) for name in _RESULT_FIELDS}


def _serial(estimator, pop: TagPopulation, seed: int) -> dict:
    reader = Reader(pop, seed=seed)
    record = _result(estimator.estimate_with_reader(reader))
    record["ledger"] = [
        [p.phase, p.seconds, p.downlink_bits, p.uplink_slots, p.messages]
        for p in reader.ledger.phase_breakdown()
    ]
    return record


def _estimate_many(estimator, pop: TagPopulation, seeds) -> list:
    """The lockstep batched tier, wherever it lives.

    The batched entry point is ``estimate_many``; before it existed the same
    engine was ``repro.baselines.batch.run_<name>_batch``.  Running
    whichever is present lets one frozen file pin both sides.
    """
    if hasattr(estimator, "estimate_many"):
        return estimator.estimate_many(pop, seeds)
    from repro.baselines import batch

    return getattr(batch, f"run_{estimator.name.lower()}_batch")(estimator, pop, seeds)


def _estimate_analytic(estimator, n: int, seeds) -> list:
    """The analytic tier: ``estimate_analytic`` per seed or, before it
    existed, ``repro.baselines.analytic.run_<name>_analytic``."""
    if hasattr(estimator, "estimate_analytic"):
        return [estimator.estimate_analytic(n, seed=s) for s in seeds]
    from repro.baselines import analytic

    runner = getattr(analytic, f"run_{estimator.name.lower()}_analytic")
    return runner(estimator, n, seeds)


def _cases() -> dict:
    """case id -> zero-argument callable producing the case's record."""
    cases = {}
    for req_name, req in REQUIREMENTS.items():
        for est_name, make in ESTIMATORS.items():
            variant = f"{est_name}/{req_name}"
            est = lambda make=make, req=req: make(req)  # noqa: E731
            for pop_name in POPULATIONS:
                pop = lambda name=pop_name: _population(name)  # noqa: E731
                for seed in SEEDS:
                    cases[f"serial/{variant}/{pop_name}/seed{seed}"] = (
                        lambda e=est, p=pop, s=seed: _serial(e(), p(), s)
                    )
                cases[f"batched/{variant}/{pop_name}/T{len(BATCH_SEEDS)}"] = (
                    lambda e=est, p=pop: [
                        _result(r) for r in _estimate_many(e(), p(), BATCH_SEEDS)
                    ]
                )
            if est_name not in ANALYTIC_ESTIMATORS:
                continue
            for n in ANALYTIC_NS:
                cases[f"analytic/{variant}/n{n}/T{len(ANALYTIC_SEEDS)}"] = (
                    lambda e=est, n=n: [
                        _result(r) for r in _estimate_analytic(e(), n, ANALYTIC_SEEDS)
                    ]
                )
    return cases


CASES = _cases()


def _record(case: str):
    # A JSON round trip normalises tuples to lists; Python floats survive it
    # bit for bit (repr is the shortest exact round-trip form).
    return json.loads(json.dumps(CASES[case]()))


@lru_cache(maxsize=1)
def _golden() -> dict:
    return json.loads(DATA.read_text(encoding="utf-8"))


def test_golden_file_covers_every_case():
    assert sorted(_golden()) == sorted(CASES)


@pytest.mark.parametrize("tier", ["serial", "batched", "analytic"])
def test_every_tier_pins_the_retry_and_cap_paths(tier):
    """Each tier holds an SRC record that retried a round and a ZOE record
    stopped by the frame cap, so the frozen file exercises both paths."""
    records = []
    for case, value in _golden().items():
        if case.startswith(f"{tier}/"):
            records.extend(value if isinstance(value, list) else [value])
    src = [r for r in records if r["estimator"] == "SRC"]
    zoe = [r for r in records if r["estimator"] == "ZOE"]
    assert any(r["extra"]["frames_run"] > r["rounds"] for r in src)
    assert any(r["extra"]["frames"] == 16384 for r in zoe)


@pytest.mark.parametrize("case", sorted(CASES))
def test_matches_golden(case):
    assert _record(case) == _golden()[case]


def _regenerate() -> None:
    DATA.parent.mkdir(parents=True, exist_ok=True)
    records = {case: _record(case) for case in sorted(CASES)}
    DATA.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(records)} golden records to {DATA}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit("usage: python -m tests.baselines.test_baseline_golden --regenerate")
    _regenerate()
