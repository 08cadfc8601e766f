"""Probing for a valid persistence probability (Sec. IV-C, first paragraph).

Before the rough estimation frame can run, BFCE needs *some* persistence
probability ``p_s`` for which the Bloom vector is neither all-idle nor
all-busy.  With no prior knowledge of ``n``, the reader probes:

1. start at ``p_s = 8/1024``;
2. observe 32 bit-slots of a frame run at ``p_s``;
3. if **all 32 are idle** the load is too light — raise ``p_s`` by 2/1024;
   if **all 32 are busy** it is too heavy — lower ``p_s`` by 1/1024;
4. stop as soon as both idle and busy slots appear.

The numerator is clamped to the grid ``[1, 1023]``; at the boundary the
probe accepts the boundary value after the step can no longer move (a
population so large that even ``p = 1/1024`` saturates 32 slots is beyond
the configured ``w`` anyway, and the rough phase's own retry logic handles
it).  Each round costs one parameter broadcast plus 32 bit-slots.

The rule is implemented once, by :func:`repro.core.bfce.probe_phase`, which
walks many trials in lockstep; :func:`probe_persistence` runs it for a
single reader.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..rfid.reader import Reader
from .config import BFCEConfig, DEFAULT_CONFIG

__all__ = ["ProbeResult", "probe_persistence"]

PHASE = "probe"


@dataclass(frozen=True)
class ProbeResult:
    """Outcome of the probing procedure.

    Attributes
    ----------
    pn:
        The accepted persistence numerator (p_s = pn / 1024).
    rounds:
        Number of 32-slot probe rounds executed.
    mixed:
        True if the final round actually observed both idle and busy slots;
        False when the probe stopped at a grid boundary or the round cap.
    history:
        The numerator tried at each round, in order.
    """

    pn: int
    rounds: int
    mixed: bool
    history: tuple[int, ...]


def probe_persistence(
    reader: Reader,
    config: BFCEConfig = DEFAULT_CONFIG,
    *,
    phase: str = PHASE,
) -> ProbeResult:
    """Run the adaptive probe and return a usable persistence numerator."""
    # Deferred: repro.core.bfce imports ProbeResult from this module.
    from .bfce import per_reader_sense, probe_phase

    [result] = probe_phase([reader], per_reader_sense(config), config, phase=phase)
    return result
