"""White-box tests for BFCE's degenerate-frame retry machinery.

The happy path never exercises these branches at paper scale; they matter
exactly when deployments stray outside the design envelope (wrong probe
output, populations near the floor/ceiling).
"""

import pytest

from repro.core.bfce import BFCE, accurate_phase, per_reader_sense
from repro.core.config import DEFAULT_CONFIG, BFCEConfig
from repro.rfid.ids import uniform_ids
from repro.rfid.reader import Reader
from repro.rfid.tags import TagPopulation


def _accurate_frame(reader, pn, config=DEFAULT_CONFIG):
    """One trial through BFCE's accurate phase: (n_hat, rho, pn, retries)."""
    [out] = accurate_phase([reader], [pn], per_reader_sense(config), config)
    return out


class TestAccurateFrameRetries:
    def test_all_idle_start_recovers_by_doubling(self):
        """Feeding the accurate phase a far-too-small pn forces an all-idle
        8192-slot frame (E[responses] = 60·3/1024 ≈ 0.18); the retry loop
        must double pn until the frame mixes and still return an estimate."""
        pop = TagPopulation(uniform_ids(60, seed=1))
        reader = Reader(pop, seed=2)
        n_hat, rho, pn_final, retries = _accurate_frame(reader, 1)
        assert retries >= 1
        assert pn_final > 1
        assert 0.0 < rho < 1.0
        assert 0 < n_hat < 1_000

    def test_all_busy_start_recovers_by_halving(self):
        """A saturating pn for a huge population must walk down."""
        pop = TagPopulation(uniform_ids(3_000_000, seed=3))
        reader = Reader(pop, seed=4)
        n_hat, rho, pn_final, retries = _accurate_frame(reader, 1023)
        assert retries >= 1
        assert pn_final < 1023
        assert n_hat == pytest.approx(3_000_000, rel=0.1)

    def test_empty_population_returns_zero(self):
        import numpy as np

        pop = TagPopulation(np.array([], dtype=np.uint64))
        reader = Reader(pop, seed=5)
        n_hat, rho, pn_final, retries = _accurate_frame(reader, 1023)
        assert n_hat == 0.0
        assert rho == 1.0

    def test_retries_flagged_on_result(self):
        """An execution that needed accurate-phase retries must not claim
        the Theorem-4 guarantee (the chosen p was not the planned p_o)."""
        # Force the path: population just below the design floor with a
        # config whose optimal-p search lands too low to mix.
        pop = TagPopulation(uniform_ids(60, seed=6))
        result = BFCE().estimate(pop, seed=7)
        if result.accurate_retries > 0:
            assert not result.guarantee_met

    def test_stuck_all_busy_at_pn_min_fails_fast(self):
        """A population that saturates even at p = pn_min/1024 cannot be
        rescued by retries (halving can't move pn below the floor), so the
        accurate phase must raise immediately instead of burning the whole
        8-retry budget on identical full-w frames."""
        cfg = BFCEConfig(w=64, rough_slots=64, probe_slots=32)
        pop = TagPopulation(uniform_ids(200_000, seed=10))
        reader = Reader(pop, seed=11)
        with pytest.raises(RuntimeError, match="stuck all-busy at pn_min"):
            _accurate_frame(reader, cfg.pn_min, cfg)
        phases = {p.phase: p for p in reader.ledger.phase_breakdown()}
        # Fail-fast contract: exactly one frame was aired, not 1 + 8 retries.
        assert phases["accurate"].uplink_slots == cfg.w

    def test_retry_costs_metered(self):
        """Every retry adds one broadcast + one full frame to the ledger."""
        pop = TagPopulation(uniform_ids(60, seed=8))
        reader = Reader(pop, seed=9)
        _accurate_frame(reader, 1)
        phases = {p.phase: p for p in reader.ledger.phase_breakdown()}
        acc = phases["accurate"]
        assert acc.uplink_slots % 8192 == 0
        assert acc.uplink_slots >= 2 * 8192  # original + ≥1 retry
