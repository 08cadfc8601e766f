"""Unit tests for the optimal persistence search (Theorem 4)."""

import pytest

# meets_requirement stays in src/ as the oracle the planner's choice is checked by.
from repro.core.accuracy import AccuracyRequirement, meets_requirement
from repro.core.config import BFCEConfig, DEFAULT_CONFIG
from repro.core.optimal_p import (
    find_optimal_pn,
    planner_cache_clear,
    planner_cache_info,
)

REQ = AccuracyRequirement(0.05, 0.05)


class TestFindOptimalPn:
    def test_selected_point_is_feasible(self):
        result = find_optimal_pn(250_000, REQ)
        assert result.feasible
        assert result.margin >= 0
        assert bool(meets_requirement(250_000, 8192, 3, result.p, REQ))

    def test_minimality(self):
        """No grid point below the selected pn may satisfy Theorem 4."""
        result = find_optimal_pn(250_000, REQ)
        for pn in range(1, result.pn):
            assert not bool(meets_requirement(250_000, 8192, 3, pn / 1024, REQ))

    def test_paper_example_small_p_for_large_n(self):
        """Sec. IV-D: 'the optimal p_o is usually small (e.g. p = 3/2¹⁰)'
        when n is large."""
        result = find_optimal_pn(500_000, REQ)
        assert result.feasible
        assert result.pn <= 8

    def test_monotone_nonincreasing_in_n(self):
        """Larger populations need smaller persistence."""
        pns = [find_optimal_pn(n, REQ).pn for n in (10_000, 100_000, 1_000_000)]
        assert pns[0] >= pns[1] >= pns[2]

    def test_guarantee_transfers_to_true_n(self):
        """Theorem 4: feasibility at n_low ≤ n implies feasibility at n."""
        n_low, n_true = 200_000, 400_000
        result = find_optimal_pn(n_low, REQ)
        assert result.feasible
        assert bool(meets_requirement(n_true, 8192, 3, result.p, REQ))

    def test_infeasible_range_flagged(self):
        """Beyond the design range (n ~ 19 M) no grid p works; the search
        must fall back with feasible=False and the max-margin point."""
        result = find_optimal_pn(19_000_000, REQ)
        assert not result.feasible
        assert result.margin < 0
        assert result.pn == 1  # smallest load is the least-bad choice

    def test_looser_requirement_smaller_pn(self):
        tight = find_optimal_pn(100_000, AccuracyRequirement(0.05, 0.05))
        loose = find_optimal_pn(100_000, AccuracyRequirement(0.2, 0.2))
        assert loose.pn <= tight.pn

    def test_n_low_validated(self):
        with pytest.raises(ValueError):
            find_optimal_pn(0.0, REQ)
        with pytest.raises(ValueError):
            find_optimal_pn(-5.0, REQ)

    def test_p_property(self):
        result = find_optimal_pn(100_000, REQ)
        assert result.p == pytest.approx(result.pn / 1024)

    def test_custom_config_grid(self):
        cfg = BFCEConfig(pn_denom=256)
        result = find_optimal_pn(100_000, REQ, cfg)
        assert 1 <= result.pn <= 255
        assert result.pn_denom == 256
        assert result.p == pytest.approx(result.pn / 256)

    def test_brute_force_equivalence(self):
        """The vectorized search matches an explicit Python-loop brute force."""
        n_low = 77_777
        d = REQ.d
        expected = None
        for pn in range(1, 1024):
            p = pn / 1024
            from repro.core.accuracy import f1, f2

            if f1(n_low, 8192, 3, p, REQ.eps) <= -d and f2(n_low, 8192, 3, p, REQ.eps) >= d:
                expected = pn
                break
        result = find_optimal_pn(n_low, REQ, DEFAULT_CONFIG)
        assert result.pn == expected


class TestPlannerCache:
    def test_cache_hit_returns_identical_result(self):
        """Repeat searches with the same (n_low, ε, δ, config) key must be
        served from the memo — same object, not merely an equal one."""
        planner_cache_clear()
        r1 = find_optimal_pn(123_456, REQ)
        before = planner_cache_info()
        r2 = find_optimal_pn(123_456, REQ)
        after = planner_cache_info()
        assert r2 is r1
        assert after.hits == before.hits + 1
        assert after.misses == before.misses

    def test_distinct_keys_miss(self):
        planner_cache_clear()
        find_optimal_pn(10_000, REQ)
        find_optimal_pn(10_001, REQ)
        find_optimal_pn(10_000, AccuracyRequirement(0.1, 0.05))
        find_optimal_pn(10_000, REQ, BFCEConfig(pn_denom=256))
        assert planner_cache_info().misses >= 4

    def test_int_and_float_n_low_share_an_entry(self):
        """n_low is normalised to float before keying the memo."""
        planner_cache_clear()
        r1 = find_optimal_pn(50_000, REQ)
        r2 = find_optimal_pn(50_000.0, REQ)
        assert r2 is r1

    def test_clear_forces_recompute(self):
        planner_cache_clear()
        r1 = find_optimal_pn(42_000, REQ)
        planner_cache_clear()
        r2 = find_optimal_pn(42_000, REQ)
        assert r2 is not r1
        assert r2 == r1
