"""Equivalence tests for the lockstep batched baseline engine.

``estimate_many`` advances every trial of LOF/ZOE/SRC in lockstep
through the batched occupancy / ALOHA kernels; its contract is
that each resulting :class:`~repro.baselines.base.EstimationResult` is
*bit-identical* — estimate, metered seconds, communication totals and
diagnostics — to running the serial estimator once per seed.  These tests
pin that contract across population sizes (including the n=1 and
trials=1 edges), all three tagID distributions, the ``run_trials``
dispatch, and the serial fallback for estimator subclasses.
"""

import numpy as np
import pytest

from repro.baselines import LOF, SRC, ZOE
from repro.baselines.batch import baseline_batchable, run_baseline_trials_batched
from repro.core.accuracy import AccuracyRequirement
from repro.experiments.runner import run_trials
from repro.experiments.workloads import population
from repro.rfid.ids import uniform_ids
from repro.rfid.tags import TagPopulation

def _make(name):
    req = AccuracyRequirement(0.1, 0.1)
    return {"LOF": LOF(), "ZOE": ZOE(req), "SRC": SRC(req)}[name]


def _assert_results_identical(estimator, pop, seeds):
    batched = estimator.estimate_many(pop, seeds)
    for seed, got in zip(seeds, batched):
        ref = estimator.estimate(pop, seed=seed)
        assert got.n_hat == ref.n_hat, f"n_hat differs at seed {seed}"
        assert got.elapsed_seconds == ref.elapsed_seconds, (
            f"elapsed_seconds differs at seed {seed}"
        )
        assert got.uplink_slots == ref.uplink_slots
        assert got.downlink_bits == ref.downlink_bits
        assert got.rounds == ref.rounds
        assert got.estimator == ref.estimator
        assert set(got.extra) == set(ref.extra)
        for key in ref.extra:
            assert np.all(np.asarray(got.extra[key]) == np.asarray(ref.extra[key])), (
                f"extra[{key!r}] differs at seed {seed}"
            )


class TestBaselineBatchEquivalence:
    @pytest.mark.parametrize("name", ["LOF", "ZOE", "SRC"])
    @pytest.mark.parametrize("n", [1, 100, 100_000])
    def test_population_sizes(self, name, n):
        pop = TagPopulation(uniform_ids(n, seed=1))
        _assert_results_identical(_make(name), pop, list(range(7)))

    @pytest.mark.parametrize("name", ["LOF", "ZOE", "SRC"])
    @pytest.mark.parametrize("distribution", ["T1", "T2", "T3"])
    def test_tagid_distributions(self, name, distribution):
        pop = population(distribution, 20_000, seed=2)
        _assert_results_identical(_make(name), pop, [5, 6, 7])

    @pytest.mark.parametrize("name", ["LOF", "ZOE", "SRC"])
    def test_single_trial(self, name):
        pop = TagPopulation(uniform_ids(5_000, seed=3))
        _assert_results_identical(_make(name), pop, [42])

    @pytest.mark.parametrize("name", ["LOF", "ZOE", "SRC"])
    def test_many_trials(self, name):
        pop = TagPopulation(uniform_ids(2_000, seed=4))
        _assert_results_identical(_make(name), pop, list(range(50)))

    @pytest.mark.parametrize("name", ["LOF", "ZOE", "SRC"])
    def test_empty_seed_list(self, name):
        pop = TagPopulation(uniform_ids(100, seed=5))
        assert _make(name).estimate_many(pop, []) == []


class TestRunTrialsDispatch:
    @pytest.mark.parametrize("name", ["LOF", "ZOE", "SRC"])
    def test_engines_produce_identical_records(self, name):
        from dataclasses import replace

        def sans_engine(records):
            return [
                replace(r, extra={k: v for k, v in r.extra.items() if k != "engine"})
                for r in records
            ]

        pop = TagPopulation(uniform_ids(10_000, seed=6))
        est = _make(name)
        serial = run_trials(est, pop, trials=4, base_seed=9, engine="serial")
        batched = run_trials(est, pop, trials=4, base_seed=9, engine="batched")
        auto = run_trials(est, pop, trials=4, base_seed=9)
        assert batched == auto
        assert sans_engine(serial) == sans_engine(batched)
        assert all(r.extra["engine"] == "serial" for r in serial)
        assert all(r.extra["engine"] == "batched" for r in batched)

    def test_rejects_unknown_engine(self):
        pop = TagPopulation(uniform_ids(100, seed=7))
        with pytest.raises(ValueError, match="engine"):
            run_trials(LOF(), pop, trials=1, engine="warp")
        with pytest.raises(ValueError, match="engine"):
            run_trials(LOF(), pop, trials=1, engine="auto")

    def test_adapter_rejects_unbatchable(self):
        class TweakedLOF(LOF):
            pass

        pop = TagPopulation(uniform_ids(100, seed=8))
        with pytest.raises(ValueError, match="not batchable"):
            run_baseline_trials_batched(TweakedLOF(), pop, trials=2)

    def test_adapter_rejects_nonpositive_trials(self):
        pop = TagPopulation(uniform_ids(100, seed=8))
        with pytest.raises(ValueError, match="trials"):
            run_baseline_trials_batched(LOF(), pop, trials=0)


class TestSerialFallback:
    def test_wide_lottery_frame_is_rejected(self):
        """Lottery frames wider than the 64-bit occupancy word are refused
        at construction, so every exact-type instance is batchable."""
        for slots in (65, 128):
            with pytest.raises(ValueError, match="frame_slots"):
                LOF(frame_slots=slots)
            with pytest.raises(ValueError, match="rough_slots"):
                SRC(rough_slots=slots)
        assert baseline_batchable(LOF(frame_slots=64))
        assert baseline_batchable(SRC(rough_slots=64))
        assert baseline_batchable(LOF())
        assert baseline_batchable(ZOE())
        assert baseline_batchable(SRC())

    def test_subclass_is_not_batchable(self):
        class TweakedLOF(LOF):
            pass

        assert not baseline_batchable(TweakedLOF())

    def test_unbatchable_config_falls_back_to_serial(self):
        """engine='batched' on an unsupported config must still return the
        exact serial records (silent fallback, not an error)."""

        class TweakedLOF(LOF):
            pass

        pop = TagPopulation(uniform_ids(3_000, seed=9))
        est = TweakedLOF()
        serial = run_trials(est, pop, trials=3, base_seed=1, engine="serial")
        batched = run_trials(est, pop, trials=3, base_seed=1, engine="batched")
        assert serial == batched
