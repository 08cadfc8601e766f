"""Execution-time ledger for reader↔tag communication.

The central claim of the paper is about *overall execution time*, not slot
counts: prior estimators minimise tag→reader slots but ignore the (much more
expensive) reader→tag broadcasts.  :class:`TimeLedger` records every directed
message a protocol sends, attributes it to a named phase, and produces the
total execution time under a :class:`~repro.timing.c1g2.C1G2Timing` model.

A ledger entry is one *message*: either a downlink broadcast of ``bits`` bits
or an uplink frame of ``bit_slots`` bit-slots.  Each entry costs
``bits × per-bit-time + t_int`` exactly as in the paper's Sec. V-A accounting.

Example
-------
>>> from repro.timing import TimeLedger
>>> ledger = TimeLedger()
>>> ledger.record_downlink(32, phase="rough", label="seed")   # 1510.3 us
>>> ledger.record_uplink(1024, phase="rough", label="frame")
>>> round(ledger.total_seconds(), 4)
0.0211
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from .c1g2 import C1G2Timing, DEFAULT_TIMING

__all__ = ["Message", "TimeLedger", "PhaseBreakdown"]


@dataclass(frozen=True)
class Message:
    """One directed reader↔tag message.

    Attributes
    ----------
    direction:
        ``"down"`` for reader→tag, ``"up"`` for tag→reader.
    bits:
        Downlink payload bits, or uplink bit-slot count.
    phase:
        Protocol phase the message belongs to (e.g. ``"probe"``, ``"rough"``,
        ``"accurate"``).
    label:
        Free-form description (e.g. ``"seed"``, ``"p_n"``, ``"frame"``).
    """

    direction: str
    bits: int
    phase: str = ""
    label: str = ""
    count: int = 1

    def __post_init__(self) -> None:
        if self.direction not in ("down", "up"):
            raise ValueError(f"direction must be 'down' or 'up', got {self.direction!r}")
        if self.bits < 0:
            raise ValueError("bits must be non-negative")
        if self.count < 1:
            raise ValueError("count must be at least 1")

    @property
    def total_bits(self) -> int:
        """Bits (or slots) summed over all ``count`` repetitions."""
        return self.bits * self.count

    def cost_seconds(self, timing: C1G2Timing) -> float:
        """Air time of this message (×count), incl. per-message intervals."""
        if self.direction == "down":
            return self.count * timing.downlink_s(self.bits)
        return self.count * timing.uplink_s(self.bits)


@dataclass(frozen=True)
class PhaseBreakdown:
    """Aggregated cost of one protocol phase."""

    phase: str
    seconds: float
    downlink_bits: int
    uplink_slots: int
    messages: int


@dataclass
class TimeLedger:
    """Accumulates :class:`Message` records and totals their air time.

    Parameters
    ----------
    timing:
        The C1G2 timing model used to price messages.  Defaults to the
        standard constants from the paper.
    """

    timing: C1G2Timing = field(default_factory=lambda: DEFAULT_TIMING)
    messages: list[Message] = field(default_factory=list)

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def record_downlink(
        self, bits: int, *, phase: str = "", label: str = "", count: int = 1
    ) -> None:
        """Record ``count`` reader→tag broadcasts of ``bits`` bits each."""
        self.messages.append(Message("down", bits, phase, label, count))

    def record_uplink(
        self, bit_slots: int, *, phase: str = "", label: str = "", count: int = 1
    ) -> None:
        """Record ``count`` tag→reader frames of ``bit_slots`` slots each."""
        self.messages.append(Message("up", bit_slots, phase, label, count))

    def merge(self, other: "TimeLedger") -> None:
        """Append all of ``other``'s messages to this ledger.

        Both ledgers must price messages under the same timing model: a
        :class:`Message` carries no cost of its own, so merging across
        models would silently re-price ``other``'s history under
        ``self.timing`` and drift the total away from the sum of the parts.
        """
        if other.timing != self.timing:
            raise ValueError(
                "cannot merge ledgers with different timing models "
                f"({self.timing!r} != {other.timing!r}); totals would be "
                "silently re-priced"
            )
        self.messages.extend(other.messages)

    # ------------------------------------------------------------------
    # totals
    # ------------------------------------------------------------------
    def total_seconds(self) -> float:
        """Total execution time of everything recorded so far."""
        return sum(m.cost_seconds(self.timing) for m in self.messages)

    def downlink_bits(self) -> int:
        """Total reader→tag bits broadcast."""
        return sum(m.total_bits for m in self.messages if m.direction == "down")

    def uplink_slots(self) -> int:
        """Total tag→reader bit-slots used."""
        return sum(m.total_bits for m in self.messages if m.direction == "up")

    def message_count(self) -> int:
        """Number of air-interface messages (count-weighted)."""
        return sum(m.count for m in self.messages)

    def phases(self) -> list[str]:
        """Distinct phase names in first-appearance order."""
        seen: dict[str, None] = {}
        for m in self.messages:
            seen.setdefault(m.phase)
        return list(seen)

    def phase_breakdown(self) -> list[PhaseBreakdown]:
        """Per-phase cost summary, in first-appearance order."""
        out: list[PhaseBreakdown] = []
        for phase in self.phases():
            msgs = [m for m in self.messages if m.phase == phase]
            out.append(
                PhaseBreakdown(
                    phase=phase,
                    seconds=sum(m.cost_seconds(self.timing) for m in msgs),
                    downlink_bits=sum(m.total_bits for m in msgs if m.direction == "down"),
                    uplink_slots=sum(m.total_bits for m in msgs if m.direction == "up"),
                    messages=sum(m.count for m in msgs),
                )
            )
        return out

    def __iter__(self) -> Iterator[Message]:
        return iter(self.messages)

    def __len__(self) -> int:
        return len(self.messages)
