"""Unit tests for the accuracy theory (Theorem 3, Fig. 5)."""

import numpy as np
import pytest

# meets_requirement and theoretical_rho_interval stay in src/ as oracles of these tests.
from repro.core.accuracy import (
    AccuracyRequirement,
    f1,
    f2,
    guarantee_margin,
    meets_requirement,
    normal_quantile_d,
    theoretical_rho_interval,
)

W, K = 8192, 3


class TestNormalQuantile:
    def test_d_at_5_percent_is_1_96(self):
        assert normal_quantile_d(0.05) == pytest.approx(1.9600, abs=1e-3)

    def test_d_at_32_percent_is_about_1(self):
        assert normal_quantile_d(0.3173) == pytest.approx(1.0, abs=1e-3)

    def test_monotone_in_delta(self):
        assert normal_quantile_d(0.01) > normal_quantile_d(0.1) > normal_quantile_d(0.5)

    @pytest.mark.parametrize("delta", [0.0, 1.0, -0.1])
    def test_delta_validated(self, delta):
        with pytest.raises(ValueError):
            normal_quantile_d(delta)


class TestF1F2:
    def test_signs(self):
        """f₁ < 0 < f₂ for any valid parameters (ε spreads the interval)."""
        assert f1(100_000, W, K, 0.01, 0.05) < 0
        assert f2(100_000, W, K, 0.01, 0.05) > 0

    def test_fig5_monotonicity_small_p(self):
        """Fig. 5: at small p, f₁ decreases and f₂ increases in n."""
        n = np.linspace(10_000, 1_000_000, 200)
        lo = f1(n, W, K, 3 / 1024, 0.05)
        hi = f2(n, W, K, 3 / 1024, 0.05)
        assert np.all(np.diff(lo) < 0)
        assert np.all(np.diff(hi) > 0)

    def test_grows_with_w(self):
        """More slots shrink the standard error, widening both statistics."""
        assert abs(f1(100_000, 16384, K, 0.005, 0.05)) > abs(f1(100_000, 8192, K, 0.005, 0.05))
        assert f2(100_000, 16384, K, 0.005, 0.05) > f2(100_000, 8192, K, 0.005, 0.05)

    def test_eps_validated(self):
        with pytest.raises(ValueError):
            f1(1000, W, K, 0.1, 0.0)
        with pytest.raises(ValueError):
            f2(1000, W, K, 0.1, 1.0)


class TestAccuracyRequirement:
    def test_defaults(self):
        req = AccuracyRequirement()
        assert req.eps == 0.05 and req.delta == 0.05

    def test_d_property(self):
        assert AccuracyRequirement(0.05, 0.05).d == pytest.approx(1.96, abs=1e-2)

    def test_is_met_by(self):
        req = AccuracyRequirement(0.05, 0.05)
        assert req.is_met_by(104_000, 100_000)
        assert not req.is_met_by(106_000, 100_000)

    def test_is_met_by_validates_n(self):
        with pytest.raises(ValueError):
            AccuracyRequirement().is_met_by(1.0, 0.0)

    @pytest.mark.parametrize("eps,delta", [(0.0, 0.05), (1.0, 0.05), (0.05, 0.0), (0.05, 1.0)])
    def test_validation(self, eps, delta):
        with pytest.raises(ValueError):
            AccuracyRequirement(eps, delta)


class TestMeetsRequirement:
    def test_known_feasible_point(self):
        """At n = 500 000 the paper's protocol picks p ≈ 3/1024; that point
        must satisfy Theorem 3's predicate."""
        req = AccuracyRequirement(0.05, 0.05)
        assert bool(meets_requirement(500_000, W, K, 3 / 1024, req))

    def test_tiny_p_fails(self):
        """Far-too-small p (λ ≈ 0) cannot separate the interval."""
        req = AccuracyRequirement(0.05, 0.05)
        assert not bool(meets_requirement(500_000, W, K, 1e-7, req))

    def test_huge_lambda_fails(self):
        """Saturation (λ ≫ 1) destroys the guarantee too."""
        req = AccuracyRequirement(0.05, 0.05)
        assert not bool(meets_requirement(10_000_000, W, K, 1023 / 1024, req))

    def test_vectorized_over_p(self):
        req = AccuracyRequirement(0.05, 0.05)
        p = np.array([1e-7, 3 / 1024, 1023 / 1024])
        out = meets_requirement(500_000, W, K, p, req)
        assert out.tolist() == [False, True, False]


class TestGuaranteeMargin:
    def test_sign_matches_predicate(self):
        req = AccuracyRequirement(0.05, 0.05)
        p = np.linspace(1 / 1024, 1023 / 1024, 200)
        margins = guarantee_margin(500_000, W, K, p, req)
        ok = meets_requirement(500_000, W, K, p, req)
        assert np.array_equal(margins >= 0, ok)


class TestRhoInterval:
    def test_interval_brackets_mean(self):
        lo, hi = theoretical_rho_interval(100_000, W, K, 0.01, 0.05)
        mean = float(np.exp(-K * 0.01 * 100_000 / W))
        assert lo < mean < hi

    def test_wider_for_larger_eps(self):
        lo1, hi1 = theoretical_rho_interval(100_000, W, K, 0.01, 0.05)
        lo2, hi2 = theoretical_rho_interval(100_000, W, K, 0.01, 0.2)
        assert lo2 < lo1 and hi2 > hi1
