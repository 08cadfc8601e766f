"""Cross-module integration tests: the paper's claims end-to-end."""

import numpy as np
import pytest

from repro import (
    BFCE,
    AccuracyRequirement,
    BFCEConfig,
    TagPopulation,
    bfce_estimate,
    make_ids,
    uniform_ids,
)
from repro.baselines import SRC, ZOE
# guarantee_rate stays in src/ as the oracle of test_guarantee_rate_across_seeds,
# the suite's only (ε, δ) coverage check.
from repro.experiments import guarantee_rate
from repro.experiments.tables import analytic_overhead


class TestEndToEndGuarantee:
    def test_guarantee_rate_across_seeds(self):
        """The core (ε, δ) soundness claim: ≥ 1 − δ of independent runs land
        inside the ε interval.  30 runs at (0.05, 0.05) — observing ≤ 27
        within would be a < 1e-4 event for a sound estimator at the
        theoretical floor, and BFCE runs well above the floor in practice."""
        n = 50_000
        pop = TagPopulation(uniform_ids(n, seed=99))
        estimates = np.array(
            [BFCE().estimate(pop, seed=s).n_hat for s in range(30)]
        )
        assert guarantee_rate(estimates, n, eps=0.05) >= 28 / 30

    def test_single_round_claim(self):
        """'BFCE finishes estimation in just one round': exactly one rough
        frame and one accurate frame in the default flow."""
        pop = TagPopulation(uniform_ids(100_000, seed=1))
        result = BFCE().estimate(pop, seed=2)
        assert result.rough_retries == 0
        assert result.accurate_retries == 0
        phases = {p.phase: p for p in result.ledger.phase_breakdown()}
        assert phases["rough"].uplink_slots == 1024
        assert phases["accurate"].uplink_slots == 8192


class TestHeadlineComparison:
    def test_bfce_beats_zoe_30x_and_src_2x(self):
        """The abstract's numbers at the reference point: ~30× vs ZOE and
        ~2× vs SRC in overall execution time (shape check with slack)."""
        n = 100_000
        pop = TagPopulation(make_ids("T2", n, seed=3))
        req = AccuracyRequirement(0.05, 0.05)
        t_bfce = BFCE(requirement=req).estimate(pop, seed=4).elapsed_seconds
        t_zoe = ZOE(req).estimate(pop, seed=4).elapsed_seconds
        t_src = SRC(req).estimate(pop, seed=4).elapsed_seconds
        assert t_zoe / t_bfce > 15
        assert 1.2 < t_src / t_bfce < 6

    def test_accuracy_comparable_across_protocols(self):
        n = 100_000
        pop = TagPopulation(make_ids("T2", n, seed=5))
        req = AccuracyRequirement(0.05, 0.05)
        for est in (ZOE(req), SRC(req)):
            assert est.estimate(pop, seed=6).relative_error(n) < 0.1
        assert BFCE(requirement=req).estimate(pop, seed=6).relative_error(n) <= 0.05


class TestMeasuredVsAnalytic:
    def test_ledger_matches_closed_form(self):
        """The simulated ledger (minus probing) must agree with the paper's
        closed-form t₁ + t₂ to within one interval (the paper merges two
        consecutive broadcasts' gaps)."""
        pop = TagPopulation(uniform_ids(200_000, seed=7))
        result = BFCE().estimate(pop, seed=8)
        phases = {p.phase: p for p in result.ledger.phase_breakdown()}
        measured = phases["rough"].seconds + phases["accurate"].seconds
        analytic = analytic_overhead().total_seconds
        assert measured == pytest.approx(analytic, abs=302e-6)


class TestConfigurationVariants:
    @pytest.mark.parametrize("rn_source", ["tagid", "random"])
    def test_rn_sources_both_accurate(self, rn_source):
        n = 30_000
        pop = TagPopulation(uniform_ids(n, seed=11), rn_source=rn_source)
        result = BFCE().estimate(pop, seed=12)
        assert result.relative_error(n) <= 0.05

    @pytest.mark.parametrize("mode", ["event", "rn_window"])
    def test_persistence_modes_accurate(self, mode):
        """Both the idealised and the hardware-faithful persistence stay
        accurate on average (rn_window's overlapping windows add a little
        correlation, so assert the mean over seeds, not a single round)."""
        n = 30_000
        pop = TagPopulation(uniform_ids(n, seed=13), persistence_mode=mode)
        errs = [BFCE().estimate(pop, seed=s).relative_error(n) for s in range(14, 20)]
        assert np.mean(errs) <= 0.05

    def test_static_persistence_degrades_variance(self):
        """The ablation claim: one persistence draw per frame correlates a
        tag's k responses, inflating estimator variance."""
        n = 30_000
        ids = uniform_ids(n, seed=15)
        def spread(mode: str) -> float:
            pop = TagPopulation(ids.copy(), persistence_mode=mode)
            errs = [
                BFCE().estimate(pop, seed=s).relative_error(n) for s in range(12)
            ]
            return float(np.mean(errs))
        assert spread("static") > spread("event") * 0.8  # static is never better

    def test_smaller_w_trades_accuracy(self):
        """Halving w doubles the estimator's standard error — visible as a
        larger error spread, while remaining usable."""
        n = 30_000
        ids = uniform_ids(n, seed=16)
        cfg_small = BFCEConfig(w=2048, rough_slots=256)
        pop = TagPopulation(ids.copy())
        errs_small = [
            BFCE(config=cfg_small).estimate(pop, seed=s).relative_error(n)
            for s in range(8)
        ]
        errs_big = [
            BFCE().estimate(pop, seed=s).relative_error(n) for s in range(8)
        ]
        assert np.mean(errs_small) > np.mean(errs_big)


class TestPublicApi:
    def test_top_level_exports(self):
        import repro

        for name in ("BFCE", "bfce_estimate", "TagPopulation", "uniform_ids",
                      "Reader", "TimeLedger", "AccuracyRequirement"):
            assert hasattr(repro, name), name

    def test_version(self):
        import repro

        assert repro.__version__ == "1.0.0"

    def test_quickstart_snippet(self):
        """The README quickstart must actually run."""
        ids = uniform_ids(20_000, seed=42)
        result = bfce_estimate(ids, eps=0.05, delta=0.05, seed=7)
        assert result.relative_error(20_000) <= 0.05
