"""The RFID reader: broadcasts parameters, senses frames, meters time.

:class:`Reader` is the runtime shared by BFCE and every baseline protocol.
It owns

* the tag population currently in range,
* a channel model,
* a deterministic seed stream (so whole experiments replay bit-for-bit), and
* a :class:`~repro.timing.accounting.TimeLedger` recording every message.

Protocols drive it through two operations that mirror the air interface:
:meth:`broadcast` (downlink bits) and :meth:`sense_frame` (an uplink frame of
bit-slots returning the observed Bloom vector).  Multiple physical readers
synchronised by a back-end server behave as one logical reader (Sec. III-A),
which is exactly what this class models.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..obs import metrics as _metrics
from ..timing.accounting import TimeLedger
from ..timing.c1g2 import C1G2Timing, DEFAULT_TIMING
from .channel import Channel, PerfectChannel
from .frames import FrameResult, run_bfce_frame
from .protocol import MessageSpec
from .tags import TagPopulation

__all__ = ["Reader"]


@dataclass
class Reader:
    """One logical RFID reader attached to a tag population.

    Parameters
    ----------
    population:
        Tags in communication range.
    seed:
        Master seed for the reader's random seed stream; every broadcast
        seed is drawn from a ``default_rng(seed)``, making executions fully
        reproducible.
    channel:
        Channel model (defaults to the paper's perfect channel).
    timing:
        C1G2 timing constants used by the internal ledger.
    """

    population: TagPopulation
    seed: int = 0
    channel: Channel = field(default_factory=PerfectChannel)
    timing: C1G2Timing = field(default_factory=lambda: DEFAULT_TIMING)
    ledger: TimeLedger = field(init=False)
    _rng: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.ledger = TimeLedger(timing=self.timing)
        self._rng = np.random.default_rng(self.seed)

    @property
    def n(self) -> int:
        """Tags in range (the cardinality an analytic reader is built with)."""
        return self.population.size

    # ------------------------------------------------------------------
    # air interface
    # ------------------------------------------------------------------
    def fresh_seeds(self, k: int) -> np.ndarray:
        """Draw ``k`` fresh 32-bit random seeds from the reader's stream."""
        if k <= 0:
            raise ValueError("k must be positive")
        return self._rng.integers(0, 1 << 32, size=k, dtype=np.uint64)

    def broadcast(self, message: MessageSpec, *, phase: str = "") -> None:
        """Transmit one parameter message to all tags (metered downlink)."""
        self.ledger.record_downlink(message.bits, phase=phase, label=message.name)

    def broadcast_bits(self, bits: int, *, phase: str = "", label: str = "") -> None:
        """Transmit ``bits`` raw downlink bits (for baseline protocols)."""
        self.ledger.record_downlink(bits, phase=phase, label=label)

    def sense_frame(
        self,
        *,
        w: int,
        seeds: np.ndarray | list[int],
        p_n: int,
        observe_slots: int | None = None,
        phase: str = "",
    ) -> FrameResult:
        """Run one BFCE bit-slot frame and meter its uplink time.

        The frame costs ``observe_slots`` bit-slots on the ledger — a
        truncated frame (rough phase) only pays for the slots actually
        sensed, matching the paper's ``1024 · t_{t→r}`` term.
        """
        result = run_bfce_frame(
            self.population,
            w=w,
            seeds=seeds,
            p_n=p_n,
            observe_slots=observe_slots,
            channel=self.channel,
            channel_rng=self._rng,
        )
        self.ledger.record_uplink(result.observed_slots, phase=phase, label="frame")
        _metrics.inc("frame.count")
        _metrics.inc("frame.slots.idle", result.ones)
        _metrics.inc("frame.slots.busy", result.observed_slots - result.ones)
        return result

    def sense_slots(self, busy: np.ndarray, *, phase: str = "", label: str = "slots") -> None:
        """Meter a raw uplink frame of ``len(busy)`` slots (baselines)."""
        self.ledger.record_uplink(int(np.asarray(busy).size), phase=phase, label=label)

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------
    def elapsed_seconds(self) -> float:
        """Total execution time metered so far."""
        return self.ledger.total_seconds()

    def reset_ledger(self) -> None:
        """Clear the ledger (population and RNG state are kept)."""
        self.ledger = TimeLedger(timing=self.timing)
