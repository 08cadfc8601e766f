"""The batched analytic tier equals one analytic run per seed, bit for bit.

``estimate_analytic_many(n, seeds)`` drives one
:class:`~repro.rfid.occupancy.AnalyticReader` per seed through the lockstep
driver, each reader drawing only from its own stream.  Every record — every
field and every ledger message — must therefore equal the per-seed
``estimate_analytic`` call, under any channel and persistence mode.  Pinned
for BFCE on the default and a scaled (w = 2^17) grid, and for LOF/ZOE/SRC.

BFCE also runs at n = 10⁹: the optimal-p search keeps the scaled grid's
accurate frame near one ball per slot, so only there (~1.8e5 balls) does a
frame pass the native kernel's threading threshold, and a run with
``REPRO_NATIVE_THREADS=2`` pits the threaded scatter merge against the
batch.  Past its estimable cap (~1.94e7) the default grid raises, and must
raise in the batch too.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.baselines import LOF, SRC, ZOE, src_round_count
from repro.core.bfce import BFCE
from repro.core.config import BFCEConfig
from repro.obs import metrics, trace
from repro.obs.report import load_trace, trials
from repro.rfid.channel import NoisyChannel

NS = (0, 40, 30_000, 10**8)
BFCE_NS = (*NS, 10**9)
SEEDS = (3, 4, 5, 6)
CONFIGS = {"default": BFCEConfig(), "scaled": BFCEConfig.scaled(1 << 17)}
CHANNELS = {"perfect": None, "noisy": NoisyChannel(miss_prob=0.05, false_alarm_prob=0.01)}


def _bfce_record(result):
    fields = {f: getattr(result, f) for f in result.__dataclass_fields__ if f != "ledger"}
    return fields, list(result.ledger.messages)


def _baseline_record(result):
    # Every field, the ledger's slot and bit totals included.
    return dataclasses.asdict(result)


def _outcomes(run, record):
    """``run()``'s records, or the exception type it raised."""
    try:
        return [record(r) for r in run()]
    except (RuntimeError, ValueError) as exc:
        return type(exc)


@pytest.mark.parametrize("n", BFCE_NS)
@pytest.mark.parametrize("channel", sorted(CHANNELS))
@pytest.mark.parametrize("mode", ["event", "static"])
@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_bfce_batch_equals_per_seed(config, mode, channel, n):
    bfce = BFCE(config=CONFIGS[config])
    kwargs = dict(channel=CHANNELS[channel], persistence_mode=mode)
    per_seed = _outcomes(
        lambda: [bfce.estimate_analytic(n, seed=s, **kwargs) for s in SEEDS], _bfce_record
    )
    batch = _outcomes(lambda: bfce.estimate_analytic_many(n, SEEDS, **kwargs), _bfce_record)
    assert batch == per_seed


def test_default_grid_past_its_cap_raises_in_batch_too():
    # n = 10⁸ is ~5x the default grid's estimable cap: every seed raises.
    bfce = BFCE()
    with pytest.raises(RuntimeError, match="estimable range"):
        bfce.estimate_analytic(10**8, seed=SEEDS[0])
    with pytest.raises(RuntimeError, match="estimable range"):
        bfce.estimate_analytic_many(10**8, SEEDS)


@pytest.mark.parametrize("n", NS)
@pytest.mark.parametrize("factory", [LOF, ZOE, SRC], ids=lambda f: f.__name__)
def test_baseline_batch_equals_per_seed(factory, n):
    estimator = factory()
    per_seed = _outcomes(
        lambda: [estimator.estimate_analytic(n, seed=s) for s in SEEDS], _baseline_record
    )
    batch = _outcomes(lambda: estimator.estimate_analytic_many(n, SEEDS), _baseline_record)
    assert batch == per_seed


def test_src_round_count_is_solved_once_per_requirement():
    SRC().estimate_analytic_many(5_000, SEEDS)
    before = src_round_count.cache_info()
    SRC().estimate_analytic_many(5_000, SEEDS)
    after = src_round_count.cache_info()
    assert after.misses == before.misses
    assert after.hits > before.hits


@pytest.fixture
def clean_trace():
    trace.configure(None, sample=1)
    metrics.reset()
    yield
    trace.configure(None, sample=1)
    metrics.reset()


def _traced(path, run):
    trace.configure(path)
    run()
    trace.flush()
    trace.configure(None)
    return {t["seed"]: t for t in trials(load_trace(path))}


def test_traced_batch_leaves_one_record_per_trial(tmp_path, clean_trace):
    bfce = BFCE()
    n = 30_000
    per_seed = _traced(
        tmp_path / "per_seed.jsonl",
        lambda: [bfce.estimate_analytic(n, seed=s) for s in SEEDS],
    )
    batch = _traced(tmp_path / "batch.jsonl", lambda: bfce.estimate_analytic_many(n, SEEDS))
    assert sorted(batch) == sorted(per_seed) == sorted(SEEDS)
    for seed in SEEDS:
        for field in ("n_hat", "elapsed_seconds", "phase_ledger", "engine"):
            assert batch[seed][field] == per_seed[seed][field]
