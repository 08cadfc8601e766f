"""Equivalence tests for the lockstep batched Monte-Carlo engine.

``BFCE.estimate_many`` advances every trial's protocol state in lockstep
through the batched frame kernel; its contract is that each resulting
:class:`~repro.core.bfce.BFCEResult` is *identical* — estimate, diagnostics
and metered seconds — to running the serial :class:`~repro.core.bfce.BFCE`
once per seed.  These tests pin that contract on the paths that differ
structurally: normal populations, degenerate sizes, populations with
re-randomised RNs (the parallel-runner regression vector), and the serial
fallback for noisy channels where batching would be unsound.
"""

import pytest

from repro.core.bfce import BFCE
from repro.experiments.batch import batching_is_sound, run_bfce_trials_batched
from repro.experiments.runner import run_bfce_trials
from repro.rfid.channel import NoisyChannel, PerfectChannel
from repro.rfid.ids import uniform_ids
from repro.rfid.tags import TagPopulation

_RESULT_FIELDS = [
    "n_hat",
    "n_rough",
    "n_low",
    "pn_probe",
    "pn_rough",
    "pn_optimal",
    "rho_final",
    "guarantee_met",
    "probe_rounds",
    "rough_retries",
    "accurate_retries",
    "elapsed_seconds",
]


def _sans_engine(records):
    """Records with the engine marker stripped — equality across engines is
    on the *results*; ``extra["engine"]`` intentionally names the engine."""
    from dataclasses import replace

    return [
        replace(r, extra={k: v for k, v in r.extra.items() if k != "engine"})
        for r in records
    ]


def _assert_results_identical(population, seeds, *, channel=None):
    batched = BFCE().estimate_many(population, seeds, channel=channel)
    serial = BFCE()
    for seed, got in zip(seeds, batched):
        ref = serial.estimate(population, seed=seed, channel=channel)
        for field in _RESULT_FIELDS:
            assert getattr(got, field) == getattr(ref, field), (
                f"{field} differs at seed {seed}"
            )


class TestBatchEngineEquivalence:
    def test_normal_population(self):
        pop = TagPopulation(uniform_ids(20_000, seed=1))
        _assert_results_identical(pop, list(range(6)))

    def test_tiny_population(self):
        """40 tags trip the accurate phase's doubling retries."""
        pop = TagPopulation(uniform_ids(40, seed=2))
        _assert_results_identical(pop, [3, 4, 5])

    def test_random_rn_population_with_custom_seed(self):
        """The regression vector of the parallel-runner bugfix: RNs drawn
        from an explicit rn_seed must flow through the batched path too."""
        pop = TagPopulation(
            uniform_ids(10_000, seed=3), rn_source="random", rn_seed=1234
        )
        _assert_results_identical(pop, [7, 8])

    @pytest.mark.parametrize("mode", ["rn_window", "static"])
    def test_alternate_persistence_modes(self, mode):
        pop = TagPopulation(uniform_ids(8_000, seed=4), persistence_mode=mode)
        _assert_results_identical(pop, [0, 1])

    def test_noisy_channel_falls_back_to_serial(self):
        """A noisy channel makes lockstep batching unsound (per-trial RNG
        draws interleave); the engine must run the exact serial protocol."""
        pop = TagPopulation(uniform_ids(5_000, seed=5))
        _assert_results_identical(pop, [0, 1], channel=NoisyChannel(0.02, 0.02))

    def test_batching_soundness_predicate(self):
        assert batching_is_sound(None)
        assert batching_is_sound(PerfectChannel())
        assert not batching_is_sound(NoisyChannel(0.1, 0.1))


class TestBatchedTrialRunner:
    def test_records_match_serial_runner(self):
        pop = TagPopulation(uniform_ids(15_000, seed=6))
        serial = run_bfce_trials(pop, trials=4, base_seed=11, engine="serial")
        batched = run_bfce_trials_batched(pop, trials=4, base_seed=11)
        assert len(batched) == len(serial)
        for a, b in zip(_sans_engine(serial), _sans_engine(batched)):
            assert a == b
        assert all(r.extra["engine"] == "serial" for r in serial)
        assert all(r.extra["engine"] == "batched" for r in batched)

    def test_engine_auto_routes_to_batched(self):
        """The default engine is the batched tier."""
        pop = TagPopulation(uniform_ids(5_000, seed=7))
        auto = run_bfce_trials(pop, trials=2, base_seed=0)
        explicit = run_bfce_trials(pop, trials=2, base_seed=0, engine="batched")
        serial = run_bfce_trials(pop, trials=2, base_seed=0, engine="serial")
        assert auto == explicit
        assert _sans_engine(auto) == _sans_engine(serial)
        assert all(r.extra["engine"] == "batched" for r in auto)
        assert all(r.extra["engine"] == "serial" for r in serial)

    def test_engine_name_validated(self):
        pop = TagPopulation(uniform_ids(100, seed=8))
        with pytest.raises(ValueError, match="engine"):
            run_bfce_trials(pop, trials=1, engine="warp")

    def test_auto_alias_rejected(self):
        pop = TagPopulation(uniform_ids(100, seed=8))
        with pytest.raises(ValueError, match="engine"):
            run_bfce_trials(pop, trials=1, engine="auto")

    def test_trials_validated(self):
        pop = TagPopulation(uniform_ids(100, seed=10))
        with pytest.raises(ValueError):
            run_bfce_trials_batched(pop, trials=0)
