"""Unit tests for the MLE and ART baselines."""

import numpy as np
import pytest

from repro.baselines.art import ART
# mle_log_likelihood stays in src/ as an oracle: these tests check the likelihood MLE maximises.
from repro.baselines.mle import MLE, mle_log_likelihood, solve_mle
from repro.core.accuracy import AccuracyRequirement
from repro.rfid.ids import uniform_ids
from repro.rfid.tags import TagPopulation


class TestMLEMath:
    def test_likelihood_peaks_at_truth(self):
        """ℓ(n) evaluated on exact expected counts peaks at the true n."""
        F, n_true = 1024, 30_000
        rhos = np.array([0.02, 0.04])
        p = (1 - rhos / F) ** n_true
        empties = np.round(F * p)
        candidates = np.array([n_true * 0.7, n_true, n_true * 1.3])
        lls = [mle_log_likelihood(c, F, rhos, empties) for c in candidates]
        assert np.argmax(lls) == 1

    def test_solver_recovers_truth_from_expected_counts(self):
        F, n_true = 1024, 80_000
        rhos = np.array([0.005, 0.01, 0.02])
        empties = F * (1 - rhos / F) ** n_true
        n_hat = solve_mle(F, rhos, empties, n0=10_000.0)
        assert n_hat == pytest.approx(n_true, rel=1e-3)

    def test_solver_from_far_start(self):
        F, n_true = 1024, 50_000
        rhos = np.array([0.01])
        empties = F * (1 - rhos / F) ** n_true
        assert solve_mle(F, rhos, empties, n0=1.0) == pytest.approx(n_true, rel=1e-2)

    def test_likelihood_validates_n(self):
        with pytest.raises(ValueError):
            mle_log_likelihood(-1.0, 10, np.array([0.1]), np.array([5]))


class TestMLEProtocol:
    def test_accuracy(self):
        n = 100_000
        pop = TagPopulation(uniform_ids(n, seed=6))
        result = MLE(AccuracyRequirement(0.05, 0.05)).estimate(pop, seed=7)
        assert result.relative_error(n) <= 0.05

    def test_lower_load_means_more_rounds(self):
        """At a tight requirement the low-load (energy-saving) variant needs
        more frames: g(0.4λ*)·(d/ε)²/F > g(λ*)·(d/ε)²/F rounds."""
        pop = TagPopulation(uniform_ids(30_000, seed=8))
        req = AccuracyRequirement(0.05, 0.05)
        low = MLE(req, load_fraction=0.25).estimate(pop, seed=9)
        high = MLE(req, load_fraction=1.0).estimate(pop, seed=9)
        assert low.rounds > high.rounds

    def test_parameters_validated(self):
        with pytest.raises(ValueError):
            MLE(load_fraction=0.0)
        with pytest.raises(ValueError):
            MLE(frame_size=1)


class TestART:
    def test_accuracy(self):
        n = 100_000
        pop = TagPopulation(uniform_ids(n, seed=10))
        result = ART(AccuracyRequirement(0.05, 0.05)).estimate(pop, seed=11)
        assert result.relative_error(n) <= 0.06

    def test_run_statistic_recorded(self):
        pop = TagPopulation(uniform_ids(20_000, seed=12))
        result = ART(AccuracyRequirement(0.1, 0.1)).estimate(pop, seed=13)
        assert result.extra["mean_run"] > 1.0

    def test_empty_population(self):
        pop = TagPopulation(np.array([], dtype=np.uint64))
        result = ART(AccuracyRequirement(0.2, 0.2)).estimate(pop, seed=14)
        assert result.n_hat == 0.0

    def test_frame_size_validated(self):
        with pytest.raises(ValueError):
            ART(frame_size=1)
