"""Unit tests for the deployment-feasibility planner."""

import numpy as np
import pytest

from repro.core.accuracy import AccuracyRequirement
from repro.core.config import BFCEConfig
from repro.core.estmath import max_estimable_cardinality
from repro.core.planning import (
    feasibility_table,
    is_guaranteeable,
    max_guaranteed_cardinality,
    required_w,
)

REQ = AccuracyRequirement(0.05, 0.05)


class TestIsGuaranteeable:
    def test_paper_reference_point(self):
        assert is_guaranteeable(500_000, REQ)

    def test_beyond_design_range(self):
        assert not is_guaranteeable(19_000_000, REQ)

    def test_tiny_population_not_guaranteeable(self):
        """Below the protocol's floor even p = 1023/1024 leaves λ too small
        for the Theorem-3 separation — matching the paper's restriction to
        'more than 1000 tags'."""
        assert not is_guaranteeable(3, REQ)

    def test_n_validated(self):
        with pytest.raises(ValueError):
            is_guaranteeable(0, REQ)


class TestMaxGuaranteedCardinality:
    def test_between_reference_and_estimability_bound(self):
        """The guarantee region ends somewhere between the paper's 500 k
        evaluation point and the γ·w ≈ 19.4 M estimability bound — the gap
        DESIGN.md §2.5 documents."""
        n_max = max_guaranteed_cardinality(REQ)
        assert 1_000_000 < n_max < 19_400_000

    def test_boundary_is_sharp(self):
        n_max = max_guaranteed_cardinality(REQ, tolerance=0.005)
        assert is_guaranteeable(n_max * 0.99, REQ)
        assert not is_guaranteeable(n_max * 1.02, REQ)

    def test_looser_requirements_extend_range(self):
        loose = max_guaranteed_cardinality(AccuracyRequirement(0.2, 0.2))
        assert loose > max_guaranteed_cardinality(REQ)

    def test_larger_w_extends_range(self):
        big = BFCEConfig(w=16384)
        assert max_guaranteed_cardinality(REQ, big) > max_guaranteed_cardinality(REQ)

    @pytest.mark.parametrize("eps_delta", [(0.2, 0.2), (0.3, 0.3)])
    def test_clipped_to_the_estimable_cap(self, eps_delta):
        """Theorem 4 alone passes loose cells past γ_max·w (2.25e7 and
        2.46e7 here), where the protocol cannot estimate: the planner and
        its table must stop at the cap."""
        req = AccuracyRequirement(*eps_delta)
        cap = max_estimable_cardinality(8192)
        assert is_guaranteeable(1.1 * cap, req)  # the unclipped check passes
        assert max_guaranteed_cardinality(req) == cap
        (row,) = feasibility_table(eps_values=eps_delta[:1], delta_values=eps_delta[1:])
        assert row["max_n"] == np.floor(cap)

    def test_cap_follows_the_config(self):
        config = BFCEConfig.scaled(1 << 14)
        cap = max_estimable_cardinality(config.w, config.pn_denom, config.k)
        assert max_guaranteed_cardinality(AccuracyRequirement(0.3, 0.3), config) == cap


class TestRequiredW:
    def test_reference_point_fits_default_w(self):
        assert required_w(500_000, REQ) <= 8192

    def test_19m_needs_16384(self):
        assert required_w(19_000_000, REQ) == 16384

    def test_monotone_in_n(self):
        assert required_w(100_000, REQ) <= required_w(10_000_000, REQ)

    def test_unreachable_raises(self):
        with pytest.raises(ValueError, match="no w"):
            required_w(1e11, REQ, w_max=8192)

    def test_n_validated(self):
        with pytest.raises(ValueError):
            required_w(0, REQ)


class TestFeasibilityTable:
    def test_shape_and_monotonicity(self):
        rows = feasibility_table(eps_values=(0.05, 0.1), delta_values=(0.05, 0.1))
        assert len(rows) == 4
        by_cell = {(r["eps"], r["delta"]): r["max_n"] for r in rows}
        # Looser ε or δ never shrinks the feasible range.
        assert by_cell[(0.1, 0.05)] >= by_cell[(0.05, 0.05)]
        assert by_cell[(0.05, 0.1)] >= by_cell[(0.05, 0.05)]
