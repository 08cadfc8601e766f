"""LOF — Lottery-Frame estimator (Qian et al., TPDS 2011 [19]).

Each round the reader broadcasts one 32-bit seed and opens a frame of
``L`` bit-slots.  Every tag hashes itself to slot ``j`` with *geometric*
probability ``2^{-(j+1)}``, so low slots are almost surely busy and high
slots almost surely idle; the boundary — the index ``R`` of the first idle
slot — concentrates around ``log2(φ·n)`` with the Flajolet–Martin constant
``φ ≈ 0.77351``.  Averaging ``R`` over ``r`` rounds gives the rough estimate

.. math:: \\hat n = 2^{\\bar R} / φ.

LOF is coarse (single-round relative error is large) but extremely cheap —
which is why this paper's comparison setup uses "LOF run for 10 rounds" as
ZOE's rough-estimation input (Sec. V-C).
"""

from __future__ import annotations

from ..core.accuracy import AccuracyRequirement
from .base import EstimationResult
from .lockstep import LockstepEstimator, check_lottery_slots, lottery_frames

__all__ = ["LOF", "FM_PHI"]

#: Flajolet–Martin bias-correction constant.
FM_PHI: float = 0.77351

_PHASE = "lof"


class LOF(LockstepEstimator):
    """Lottery-Frame rough estimator.

    Parameters
    ----------
    rounds:
        Number of independent lottery frames to average (paper setup: 10).
    frame_slots:
        Frame length ``L`` in ``(1, 64]``; 32 slots cover cardinalities up
        to ~2³²·φ.
    requirement:
        Unused by LOF itself (it offers no (ε, δ) tuning) but kept for the
        uniform estimator interface.
    """

    name = "LOF"

    def __init__(
        self,
        rounds: int = 10,
        frame_slots: int = 32,
        requirement: AccuracyRequirement | None = None,
    ) -> None:
        super().__init__(requirement)
        if rounds <= 0:
            raise ValueError("rounds must be positive")
        self.rounds = rounds
        self.frame_slots = check_lottery_slots("frame_slots", frame_slots)

    def _drive(self, readers: list, frames) -> list[EstimationResult]:
        first_idle = lottery_frames(readers, frames, self.rounds, self.frame_slots, _PHASE)
        return [
            self._result(
                float(2.0 ** row.mean() / FM_PHI),
                reader.ledger,
                rounds=self.rounds,
                extra={"first_idle_mean": float(row.mean())},
            )
            for reader, row in zip(readers, first_idle)
        ]
