"""Golden oracle for the BFCE protocol: frozen records on every engine tier.

Every case below runs one protocol execution (or one lockstep batch) with
fixed seeds and reduces it to plain data: the estimate, the metered seconds,
the persistence numerators of each phase, the retry diagnostics, the
guarantee flag and the ledger's per-phase breakdown.  The records were
frozen into ``tests/data/bfce_protocol_golden.json`` and are compared with
exact ``==`` — no tolerance, since every tier is deterministic per seed.

Covered:

* serial ``BFCE.estimate`` under the perfect channel and a noisy channel;
* the lockstep batched engine over T = 4 seeds;
* ``BFCE.estimate_analytic`` with the default and a scaled (w = 2^14) config;
* ``probe_persistence`` + ``rough_estimate`` on an event ``Reader`` and on an
  ``AnalyticReader``;
* ``MultiReaderSystem.estimate`` over a three-reader overlapping coverage;

each on three populations (empty, 40 and 30 000 tags) with three reader
seeds.

The file was regenerated with::

    PYTHONPATH=src python -m tests.core.test_protocol_golden --regenerate

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

from repro.core.bfce import BFCE
from repro.core.config import BFCEConfig
from repro.core.probe import probe_persistence
from repro.core.rough import rough_estimate
from repro.rfid.channel import NoisyChannel
from repro.rfid.ids import uniform_ids
from repro.rfid.multireader import CoverageMap, MultiReaderSystem
from repro.rfid.occupancy import AnalyticReader
from repro.rfid.reader import Reader
from repro.rfid.tags import TagPopulation

DATA = Path(__file__).resolve().parents[1] / "data" / "bfce_protocol_golden.json"

#: name -> (n, tagID seed).  40 tags walk the probe up the grid (one seed
#: hits the round cap) and trip rough-phase retries; the empty population
#: takes the degenerate path (rough phase silent at pn_max, accurate frame
#: at pn_max reports zero).
POPULATIONS = {"n0": (0, 0), "n40": (40, 2), "n30k": (30_000, 21)}
SEEDS = (3, 4, 5)
BATCH_SEEDS = (10, 11, 12, 13)

_RESULT_FIELDS = (
    "n_hat",
    "n_rough",
    "n_low",
    "pn_probe",
    "pn_rough",
    "pn_optimal",
    "rho_final",
    "guarantee_met",
    "probe_rounds",
    "rough_retries",
    "accurate_retries",
    "elapsed_seconds",
)


@lru_cache(maxsize=None)
def _population(name: str) -> TagPopulation:
    n, id_seed = POPULATIONS[name]
    if n == 0:
        return TagPopulation(np.array([], dtype=np.uint64))
    return TagPopulation(uniform_ids(n, seed=id_seed))


def _ledger(ledger) -> list:
    return [
        [p.phase, p.seconds, p.downlink_bits, p.uplink_slots, p.messages]
        for p in ledger.phase_breakdown()
    ]


def _bfce(result) -> dict:
    record = {name: getattr(result, name) for name in _RESULT_FIELDS}
    record["ledger"] = _ledger(result.ledger)
    return record


def _phases(reader) -> dict:
    probe = probe_persistence(reader)
    rough = rough_estimate(reader, probe.pn)
    return {
        "probe": [probe.pn, probe.rounds, probe.mixed, list(probe.history)],
        "rough": [rough.n_rough, rough.n_low, rough.pn, rough.rho, rough.retries],
        "elapsed_seconds": reader.elapsed_seconds(),
        "ledger": _ledger(reader.ledger),
    }


def _multireader(pop: TagPopulation, seed: int) -> dict:
    coverage = CoverageMap.random_overlap(pop.tag_ids, 3, overlap=0.25, seed=seed)
    result = MultiReaderSystem(coverage).estimate(seed=seed)
    return {
        "n_hat": result.n_hat,
        "n_low": result.n_low,
        "pn_optimal": result.pn_optimal,
        "wallclock_seconds": result.wallclock_seconds,
        "total_air_seconds": result.total_air_seconds,
        "guarantee_met": result.guarantee_met,
        "ledger": _ledger(result.ledger),
    }


def _estimate_many(pop: TagPopulation, seeds) -> list:
    """The lockstep batched engine, wherever it lives.

    The batched entry point is ``BFCE.estimate_many``; before it existed the
    same engine was ``repro.experiments.batch.BatchBFCE.estimate_many``.
    Running whichever is present lets one frozen file pin both sides.
    """
    bfce = BFCE()
    if hasattr(bfce, "estimate_many"):
        return bfce.estimate_many(pop, seeds)
    from repro.experiments.batch import BatchBFCE

    return BatchBFCE().estimate_many(pop, seeds)


def _cases() -> dict:
    """case id -> zero-argument callable producing the case's record."""
    cases = {}
    scaled = BFCEConfig.scaled(1 << 14)
    noisy = NoisyChannel(0.02, 0.02)
    for name, (n, _) in POPULATIONS.items():
        pop = lambda name=name: _population(name)  # noqa: E731
        for seed in SEEDS:
            key = f"{name}/seed{seed}"
            cases[f"serial/{key}"] = lambda p=pop, s=seed: _bfce(
                BFCE().estimate(p(), seed=s)
            )
            cases[f"serial-noisy/{key}"] = lambda p=pop, s=seed: _bfce(
                BFCE().estimate(p(), seed=s, channel=noisy)
            )
            cases[f"analytic/{key}"] = lambda n=n, s=seed: _bfce(
                BFCE().estimate_analytic(n, seed=s)
            )
            cases[f"analytic-scaled/{key}"] = lambda n=n, s=seed: _bfce(
                BFCE(config=scaled).estimate_analytic(n, seed=s)
            )
            cases[f"phases-event/{key}"] = lambda p=pop, s=seed: _phases(
                Reader(p(), seed=s)
            )
            cases[f"phases-analytic/{key}"] = lambda n=n, s=seed: _phases(
                AnalyticReader(n, seed=s)
            )
            cases[f"multireader/{key}"] = lambda p=pop, s=seed: _multireader(p(), s)
        cases[f"batched/{name}/T{len(BATCH_SEEDS)}"] = lambda p=pop: [
            _bfce(r) for r in _estimate_many(p(), BATCH_SEEDS)
        ]
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
        sys.exit("usage: python -m tests.core.test_protocol_golden --regenerate")
    _regenerate()
