"""Unit tests for the evaluation statistics helpers."""

import numpy as np
import pytest

from repro.experiments.stats import ecdf, guarantee_rate, relative_error


class TestRelativeError:
    def test_scalar(self):
        assert relative_error(110.0, 100.0) == pytest.approx(0.1)

    def test_symmetric(self):
        assert relative_error(90.0, 100.0) == pytest.approx(0.1)

    def test_vectorized(self):
        out = relative_error(np.array([90.0, 100.0, 120.0]), 100.0)
        assert out.tolist() == pytest.approx([0.1, 0.0, 0.2])

    def test_validates_n(self):
        with pytest.raises(ValueError):
            relative_error(1.0, 0.0)


class TestEcdf:
    def test_sorted_and_normalised(self):
        values, probs = ecdf(np.array([3.0, 1.0, 2.0]))
        assert values.tolist() == [1.0, 2.0, 3.0]
        assert probs.tolist() == pytest.approx([1 / 3, 2 / 3, 1.0])

    def test_last_prob_is_one(self):
        _, probs = ecdf(np.random.default_rng(0).random(97))
        assert probs[-1] == pytest.approx(1.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ecdf(np.array([]))


class TestGuaranteeRate:
    def test_all_within(self):
        assert guarantee_rate(np.array([99.0, 101.0]), 100.0, eps=0.05) == 1.0

    def test_partial(self):
        assert guarantee_rate(np.array([99.0, 120.0]), 100.0, eps=0.05) == 0.5

    def test_eps_validated(self):
        with pytest.raises(ValueError):
            guarantee_rate(np.array([1.0]), 1.0, eps=0.0)
