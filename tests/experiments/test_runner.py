"""Unit tests for the trial runner."""

import pytest

from repro.baselines.lof import LOF
from repro.experiments.runner import TrialRecord, run_bfce_trials, run_trials
from repro.experiments.workloads import population


class TestRunBfceTrials:
    def test_record_fields(self):
        pop = population("T1", 10_000, seed=1)
        records = run_bfce_trials(pop, trials=3, base_seed=5, distribution="T1")
        assert len(records) == 3
        for r in records:
            assert r.estimator == "BFCE"
            assert r.n_true == 10_000
            assert r.error == pytest.approx(abs(r.n_hat - 10_000) / 10_000)
            assert r.seconds > 0
            assert r.distribution == "T1"
            assert "guarantee_met" in r.extra

    def test_distinct_seeds(self):
        pop = population("T1", 10_000, seed=1)
        records = run_bfce_trials(pop, trials=3, base_seed=5)
        assert len({r.seed for r in records}) == 3
        assert len({r.n_hat for r in records}) == 3

    def test_within_eps_property(self):
        r = TrialRecord(
            estimator="X", n_true=100, n_hat=104.0, error=0.04,
            seconds=0.1, seed=0, eps=0.05, delta=0.05,
        )
        assert r.within_eps
        r2 = TrialRecord(
            estimator="X", n_true=100, n_hat=110.0, error=0.10,
            seconds=0.1, seed=0, eps=0.05, delta=0.05,
        )
        assert not r2.within_eps


class TestRunTrials:
    def test_baseline_records(self):
        pop = population("T1", 10_000, seed=1)
        records = run_trials(LOF(rounds=5), pop, trials=2, base_seed=3)
        assert len(records) == 2
        assert all(r.estimator == "LOF" for r in records)
