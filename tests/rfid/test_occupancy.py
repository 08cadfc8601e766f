"""Analytic occupancy engine: scatter kernel, frame sampler, AnalyticReader."""

from __future__ import annotations

import logging

import numpy as np
import pytest
from scipy.stats import chi2

from repro.core.bfce import BFCE
from repro.core.config import BFCEConfig
from repro.rfid import _native
from repro.rfid.channel import Channel, NoisyChannel, PerfectChannel
from repro.rfid.occupancy import (
    _MULTINOMIAL_CUTOVER,
    AnalyticReader,
    geometric_pvals,
    sample_aloha_empty,
    sample_lottery_first_idle,
    sample_slot_counts,
    scatter_counts,
)
from repro.rfid.reader import Reader


class TestScatterCounts:
    def test_sums_length_dtype(self):
        counts = scatter_counts(42, 5_000, 512)
        assert counts.shape == (512,)
        assert counts.dtype == np.int32
        assert int(counts.sum()) == 5_000

    def test_pure_function_of_seed(self):
        a = scatter_counts(7, 1_000, 64)
        b = scatter_counts(7, 1_000, 64)
        c = scatter_counts(8, 1_000, 64)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_zero_balls(self):
        assert scatter_counts(1, 0, 16).sum() == 0

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            scatter_counts(1, 10, 0)
        with pytest.raises(ValueError):
            scatter_counts(1, -1, 16)

    @pytest.mark.skipif(_native.get_lib() is None, reason="native kernel unavailable")
    @pytest.mark.parametrize(
        "seed,balls,n_slots",
        [
            (12345, 10_000, 8192),  # power-of-two slots (mask path)
            (7, 0, 32),
            ((1 << 63) + 5, 50_000, 4_000),  # non-power-of-two (modulo path)
            (9, 400_000, 131_072),  # accurate-frame scale
        ],
    )
    def test_native_matches_numpy_bit_identically(self, monkeypatch, seed, balls, n_slots):
        native = scatter_counts(seed, balls, n_slots)
        monkeypatch.setattr(_native, "get_lib", lambda: None)
        numpy_path = scatter_counts(seed, balls, n_slots)
        assert numpy_path.dtype == native.dtype == np.int32
        assert np.array_equal(native, numpy_path)

    def test_uniformity_chi2(self):
        n_slots, balls = 256, 200_000
        counts = scatter_counts(99, balls, n_slots).astype(np.float64)
        expected = balls / n_slots
        stat = float(((counts - expected) ** 2 / expected).sum())
        assert stat < chi2.ppf(0.999, n_slots - 1)


class TestSampleSlotCounts:
    def test_event_mode_total_mean(self):
        rng = np.random.default_rng(1)
        n, k, pn, w = 10_000, 3, 512, 64
        draws = 400
        totals = np.array(
            [sample_slot_counts(rng, n=n, k=k, p_n=pn, w=w).sum() for _ in range(draws)]
        )
        mean_expected = n * k * (pn / 1024)
        # Binomial(n·k, p) total: 5-sigma band on the mean of `draws` draws.
        sigma = np.sqrt(n * k * (pn / 1024) * (1 - pn / 1024) / draws)
        assert abs(totals.mean() - mean_expected) < 5 * sigma
        # Mean load is ~234 balls/slot — far above the cutover, so this
        # exercises the Multinomial branch.
        assert mean_expected / w > _MULTINOMIAL_CUTOVER

    def test_static_mode_totals_are_multiples_of_k(self):
        rng = np.random.default_rng(2)
        totals = [
            int(sample_slot_counts(rng, n=500, k=3, p_n=512, w=128, mode="static").sum())
            for _ in range(50)
        ]
        assert all(t % 3 == 0 for t in totals)

    def test_truncation_observes_prefix(self):
        rng = np.random.default_rng(3)
        counts = sample_slot_counts(rng, n=5_000, k=3, p_n=512, w=8192, observe_slots=16)
        assert counts.shape == (16,)

    def test_rn_window_uses_event_marginal_with_debug_log(self, caplog):
        rng = np.random.default_rng(4)
        with caplog.at_level(logging.DEBUG, logger="repro.rfid.occupancy"):
            sample_slot_counts(rng, n=100, k=3, p_n=512, w=64, mode="rn_window")
        assert any("event marginal" in r.message for r in caplog.records)

    def test_pn_denom_scales_probability(self):
        rng = np.random.default_rng(5)
        # p_n == pn_denom clamps to p = 1: every (tag, hash) event responds.
        total = sample_slot_counts(rng, n=1_000, k=3, p_n=1 << 14, w=64, pn_denom=1 << 14).sum()
        assert int(total) == 3_000
        assert sample_slot_counts(rng, n=1_000, k=3, p_n=0, w=64, pn_denom=1 << 14).sum() == 0

    def test_invalid_args(self):
        rng = np.random.default_rng(6)
        with pytest.raises(ValueError):
            sample_slot_counts(rng, n=-1, k=3, p_n=8, w=64)
        with pytest.raises(ValueError):
            sample_slot_counts(rng, n=10, k=0, p_n=8, w=64)
        with pytest.raises(ValueError):
            sample_slot_counts(rng, n=10, k=3, p_n=8, w=64, mode="nope")
        with pytest.raises(ValueError):
            sample_slot_counts(rng, n=10, k=3, p_n=8, w=64, observe_slots=65)
        with pytest.raises(ValueError):
            sample_slot_counts(rng, n=10, k=3, p_n=8, w=64, pn_denom=0)


class TestLotteryAndAloha:
    def test_geometric_pvals_sum_to_one_exactly(self):
        assert sum(geometric_pvals(32)) == 1.0
        with pytest.raises(ValueError):
            geometric_pvals(1)

    def test_first_idle_empty_population(self):
        rng = np.random.default_rng(7)
        assert sample_lottery_first_idle(rng, 0, 32) == 0.0

    def test_first_idle_grows_with_population(self):
        rng = np.random.default_rng(8)
        small = np.mean([sample_lottery_first_idle(rng, 4, 32) for _ in range(50)])
        large = np.mean([sample_lottery_first_idle(rng, 40_000, 32) for _ in range(50)])
        assert large > small

    def test_aloha_empty_bounds(self):
        rng = np.random.default_rng(9)
        assert sample_aloha_empty(rng, 0, 100, 0.5) == 100
        assert sample_aloha_empty(rng, 1_000, 100, 0.0) == 100
        with pytest.raises(ValueError):
            sample_aloha_empty(rng, -1, 100, 0.5)
        with pytest.raises(ValueError):
            sample_aloha_empty(rng, 10, 0, 0.5)
        with pytest.raises(ValueError):
            sample_aloha_empty(rng, 10, 100, 1.5)


class TestAnalyticReader:
    def test_fresh_seeds_matches_event_reader(self, pop_small):
        event = Reader(pop_small, seed=5)
        analytic = AnalyticReader(pop_small.size, seed=5)
        assert np.array_equal(event.fresh_seeds(3), analytic.fresh_seeds(3))

    def test_ledger_parity_with_event_reader(self, pop_small):
        event = Reader(pop_small, seed=5)
        analytic = AnalyticReader(pop_small.size, seed=5)
        for reader in (event, analytic):
            reader.broadcast_bits(96, phase="accurate", label="params")
            reader.sense_frame(
                w=512, seeds=reader.fresh_seeds(3), p_n=512, phase="accurate"
            )
            reader.sense_frame(
                w=512, seeds=reader.fresh_seeds(3), p_n=256, observe_slots=32, phase="probe"
            )
        assert analytic.elapsed_seconds() == pytest.approx(event.elapsed_seconds())

    def test_empty_population_is_all_idle(self):
        reader = AnalyticReader(0, seed=1)
        frame = reader.sense_frame(w=64, seeds=reader.fresh_seeds(3), p_n=1023)
        assert frame.rho == 1.0
        assert frame.responses == 0

    def test_noisy_channel_composes(self):
        reader = AnalyticReader(
            5_000, seed=2, channel=NoisyChannel(miss_prob=0.2, false_alarm_prob=0.05)
        )
        frame = reader.sense_frame(w=256, seeds=reader.fresh_seeds(3), p_n=512)
        assert 0.0 <= frame.rho <= 1.0

    @pytest.mark.parametrize(
        "channel",
        [PerfectChannel(), NoisyChannel(miss_prob=0.2, false_alarm_prob=0.05)],
        ids=["perfect", "noisy"],
    )
    def test_rho_is_bloom_mean_bit_for_bit(self, channel):
        reader = AnalyticReader(5_000, seed=3, channel=channel)
        for p_n, observe_slots in [(512, None), (1023, 32), (1, None), (200, 7)]:
            frame = reader.sense_frame(
                w=256, seeds=reader.fresh_seeds(3), p_n=p_n,
                observe_slots=observe_slots,
            )
            assert frame.bloom.dtype == np.uint8
            assert set(np.unique(frame.bloom)) <= {0, 1}
            assert frame.rho == float(frame.bloom.mean())

    def test_channel_observes_every_frame(self):
        class CountingChannel(Channel):
            def __init__(self):
                self.calls = 0

            def observe(self, counts, rng=None):
                self.calls += 1
                return PerfectChannel().observe(counts, rng=rng)

        channel = CountingChannel()
        reader = AnalyticReader(5_000, seed=4, channel=channel)
        for _ in range(5):
            reader.sense_frame(w=128, seeds=reader.fresh_seeds(3), p_n=512)
        assert channel.calls == 5

    def test_perfect_channel_rejects_negative_counts(self):
        with pytest.raises(ValueError, match="non-negative"):
            PerfectChannel().observe(np.array([0, -1, 2], dtype=np.int32))

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            AnalyticReader(-1)
        with pytest.raises(ValueError):
            AnalyticReader(10, persistence_mode="nope")
        with pytest.raises(ValueError):
            AnalyticReader(10, pn_denom=0)


class TestScaledConfigAndGridGuard:
    def test_scaled_refines_grid_with_frame(self):
        cfg = BFCEConfig.scaled(1 << 17)
        assert (cfg.w, cfg.pn_denom) == (1 << 17, 16_384)
        assert (cfg.probe_start_pn, cfg.probe_step_up, cfg.probe_step_down) == (128, 32, 16)
        # At or below the paper's frame size the grid is unchanged.
        assert BFCEConfig.scaled(8192).pn_denom == 1024
        assert BFCEConfig.scaled(4096).pn_denom == 1024

    def test_event_engines_reject_scaled_grid(self, pop_small):
        bfce = BFCE(config=BFCEConfig.scaled(1 << 14))
        with pytest.raises(ValueError, match="grid mismatch"):
            bfce.estimate(pop_small, seed=1)

    def test_batch_engine_rejects_scaled_grid(self, pop_small):
        with pytest.raises(ValueError, match="pn_denom"):
            BFCE(config=BFCEConfig.scaled(1 << 14)).estimate_many(pop_small, [1])

    def test_analytic_engine_runs_scaled_grid(self):
        result = BFCE(config=BFCEConfig.scaled(1 << 14)).estimate_analytic(20_000, seed=3)
        assert abs(result.n_hat - 20_000) / 20_000 < 0.2
