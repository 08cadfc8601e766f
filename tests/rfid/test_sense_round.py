"""One analytic round equals each reader's own broadcast, seeds and frame.

:func:`~repro.rfid.occupancy.sense_round` samples every reader's frame in
one pass: it skips the per-frame wrappers and arrays, draws the unused
frame seeds as bare 32-bit words and senses through
:meth:`~repro.rfid.channel.Channel.idle_count`.  None of that may change a
draw: every reader's idle count, ledger and stream position must equal a
reader that ran ``broadcast`` → ``fresh_seeds`` → ``sense_frame``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.bfce import _phase_message
from repro.core.config import BFCEConfig
from repro.obs import metrics
from repro.rfid import occupancy
from repro.rfid.channel import Channel, NoisyChannel, PerfectChannel
from repro.rfid.occupancy import AnalyticReader, sense_round

CONFIG = BFCEConfig()
MESSAGE = _phase_message(CONFIG)
#: Cardinalities from empty through the Multinomial (saturated) route.
NS = (0, 40, 30_000, 2_000_000, 10**8)
CHANNELS = {
    "perfect": PerfectChannel(),
    "noisy": NoisyChannel(miss_prob=0.05, false_alarm_prob=0.01),
}


def readers(channel, mode):
    return [
        AnalyticReader(n, seed=seed, channel=channel, persistence_mode=mode)
        for seed, n in enumerate(NS, start=11)
    ]


def per_reader(readers_, pns, observe_slots, phase):
    idle = []
    for reader, pn in zip(readers_, pns):
        reader.broadcast(MESSAGE, phase=phase)
        frame = reader.sense_frame(
            w=CONFIG.w, seeds=reader.fresh_seeds(CONFIG.k), p_n=pn,
            observe_slots=observe_slots, phase=phase,
        )
        idle.append(frame.ones)
    return idle


@pytest.mark.parametrize("observe_slots", [32, 1024, CONFIG.w])
@pytest.mark.parametrize("mode", ["event", "static"])
@pytest.mark.parametrize("channel", sorted(CHANNELS))
def test_round_equals_each_readers_own_frames(channel, mode, observe_slots):
    lean, reference = readers(CHANNELS[channel], mode), readers(CHANNELS[channel], mode)
    for step, pn in enumerate((8, 1, 512, 1023)):
        pns = [pn + i for i in range(len(NS))]
        phase = f"step{step}"
        got = sense_round(
            lean, pns, w=CONFIG.w, k=CONFIG.k, observe_slots=observe_slots,
            phase=phase, message=MESSAGE,
        )
        assert got == per_reader(reference, pns, observe_slots, phase)
    for a, b in zip(lean, reference):
        assert a.ledger.messages == b.ledger.messages
        assert a._rng.bit_generator.state == b._rng.bit_generator.state


def test_numpy_round_equals_native_round(monkeypatch):
    native = readers(PerfectChannel(), "event")
    native_idle = sense_round(
        native, [64] * len(NS), w=CONFIG.w, k=CONFIG.k, observe_slots=CONFIG.w,
        phase="accurate", message=MESSAGE,
    )
    monkeypatch.setenv("REPRO_NATIVE", "0")
    metrics.reset()
    numpy_path = readers(PerfectChannel(), "event")
    numpy_idle = sense_round(
        numpy_path, [64] * len(NS), w=CONFIG.w, k=CONFIG.k, observe_slots=CONFIG.w,
        phase="accurate", message=MESSAGE,
    )
    assert numpy_idle == native_idle
    # One NumPy scatter per frame below the Multinomial cutover: at p = 64/1024
    # the 2·10⁶- and 10⁸-tag frames saturate and draw a Multinomial instead.
    assert metrics.get("kernel.numpy.analytic_scatter") == len(NS) - 2
    assert metrics.get("frame.count") == len(NS)


def test_frame_counters_carry_round_totals():
    metrics.reset()
    lean = readers(PerfectChannel(), "event")
    idle = sense_round(
        lean, [100] * len(NS), w=CONFIG.w, k=CONFIG.k, observe_slots=32,
        phase="probe", message=MESSAGE,
    )
    assert metrics.get("frame.count") == len(NS)
    assert metrics.get("frame.slots.idle") == sum(idle)
    assert metrics.get("frame.slots.busy") == 32 * len(NS) - sum(idle)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_seed_draw_consumes_what_fresh_seeds_consumes(k):
    lean, reference = np.random.default_rng(k), np.random.default_rng(k)
    for _ in range(20):
        lean.random(k, dtype=np.float32)
        reference.integers(0, 1 << 32, size=k, dtype=np.uint64)
        # The scatter seed: one raw 64-bit word either way.
        assert lean.bit_generator.random_raw() == int(
            reference.integers(0, 1 << 64, dtype=np.uint64)
        )
        assert lean.binomial(1000, 0.25) == reference.binomial(1000, 0.25)
    assert lean.bit_generator.state == reference.bit_generator.state


class ObserveOnly(Channel):
    """A channel implementing only ``observe``: the base ``idle_count``."""

    def observe(self, counts, rng=None):
        return NoisyChannel(miss_prob=0.3, false_alarm_prob=0.2).observe(counts, rng=rng)


@pytest.mark.parametrize(
    "channel", [PerfectChannel(), CHANNELS["noisy"], ObserveOnly()], ids=type
)
def test_idle_count_equals_observe_and_draws_alike(channel):
    counts = np.random.default_rng(0).poisson(0.8, size=4096).astype(np.int32)
    a, b = np.random.default_rng(5), np.random.default_rng(5)
    busy = channel.observe(counts, rng=a)
    assert channel.idle_count(counts, rng=b) == busy.size - np.count_nonzero(busy)
    assert a.bit_generator.state == b.bit_generator.state


def test_round_reuses_one_row_per_thread():
    big = occupancy._round_row(1 << 17)
    assert occupancy._round_row(32) is big
    assert big.array.size >= 1 << 17
