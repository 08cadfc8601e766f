"""SRC — Simple RFID Counting (Chen, Zhou, Yu — MobiCom 2013 [15]).

SRC is a two-phase protocol: a cheap rough phase bounds the cardinality,
then a *balanced* framed-ALOHA phase refines it.  Following this paper's
comparison setup (Sec. V-C), the second phase is repeated ``m`` rounds and
the round estimates are combined by median, where ``m`` is the smallest
(odd) integer satisfying the majority-amplification condition

.. math:: \\sum_{i=(m+1)/2}^{m} \\binom{m}{i}\\,0.8^i\\,0.2^{m-i} \\ge 1-δ

(each round is (ε, 0.2)-accurate; a majority of accurate rounds makes the
median accurate).

Round structure:

* the reader broadcasts a seed and the sampling probability
  ``ρ = min(1, λ*·f/ñ)`` targeting the variance-optimal load
  ``λ* ≈ 1.594`` responders-per-slot-scale (the minimiser of
  ``(e^λ−1)/λ²``);
* a frame of ``f = ⌈C_SRC/ε²⌉`` contiguous bit-slots runs; the reader
  observes the empty fraction ``z̄`` and computes ``n̂ = −f·ln z̄ / ρ``;
* a round whose frame comes back saturated (almost no empty slots) or
  starved (no busy slots) reveals that the rough bound was badly off: SRC
  corrects its working bound by ×4 / ÷4 and repeats the round.  These
  repeats are why SRC's execution time varies with rough-phase accuracy
  (the paper's Fig. 10 commentary).

Calibration note (DESIGN.md §2.7): neither paper states SRC's absolute
frame-size constant; ``C_SRC = 10.0`` is calibrated so the *published
relative shape* holds — SRC lands ≈ 2× BFCE's execution time averaged over
the paper's sweep set while remaining ~10× faster than ZOE (SRC broadcasts
once per round, not once per slot).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.stats import binom

from ..core.accuracy import AccuracyRequirement
from .base import EstimationResult
from .lockstep import LockstepEstimator, check_lottery_slots, lottery_frames
from .lof import FM_PHI

__all__ = ["SRC", "src_round_count", "SRC_OPTIMAL_LOAD", "SRC_FRAME_CONSTANT"]

_PHASE_ROUGH = "src-rough"
_PHASE_MAIN = "src-rounds"

#: λ* = argmin (e^λ − 1)/λ², the variance-optimal per-slot load.
SRC_OPTIMAL_LOAD: float = 1.594

#: Frame-size constant: f = ceil(C/ε²).  See calibration note above.
SRC_FRAME_CONSTANT: float = 10.0

#: Per-round success probability assumed by the amplification analysis.
_ROUND_SUCCESS: float = 0.8

#: Cap on saturation-correction repeats within one round.
_MAX_ROUND_RETRIES: int = 6


@lru_cache(maxsize=64)
def src_round_count(delta: float, max_rounds: int = 99) -> int:
    """Smallest odd m with P[Binomial(m, 0.8) ≥ (m+1)/2] ≥ 1 − δ.

    Examples: δ=0.3 → 1, δ=0.15 → 3, δ=0.10 → 5, δ=0.05 → 7.  A pure
    function of its arguments, so it is solved once per requirement.
    """
    if not 0 < delta < 1:
        raise ValueError("delta must be in (0, 1)")
    for m in range(1, max_rounds + 1, 2):
        need = (m + 1) // 2
        if float(binom.sf(need - 1, m, _ROUND_SUCCESS)) >= 1.0 - delta:
            return m
    return max_rounds


class SRC(LockstepEstimator):
    """Simple RFID Counting with median-of-rounds amplification.

    Parameters
    ----------
    requirement:
        The (ε, δ) accuracy target; drives both the per-round frame size
        (∝ 1/ε²) and the round count m(δ).
    rough_slots:
        Length of the phase-1 lottery frame, in ``(1, 64]``.
    """

    name = "SRC"

    def __init__(
        self,
        requirement: AccuracyRequirement | None = None,
        rough_slots: int = 32,
    ) -> None:
        super().__init__(requirement)
        self.rough_slots = check_lottery_slots("rough_slots", rough_slots)

    # ------------------------------------------------------------------
    def frame_size(self) -> int:
        """Per-round frame size f = ⌈C_SRC/ε²⌉."""
        return int(np.ceil(SRC_FRAME_CONSTANT / self.requirement.eps**2))

    def _drive(self, readers: list, frames) -> list[EstimationResult]:
        """Rough frame, then m balanced rounds per trial, in lockstep.

        Each lockstep step airs one balanced-frame attempt per active trial;
        a trial whose frame comes back starved or saturated corrects its
        bound and retries on the next step, so trials drift across rounds
        while each trial's trace stays exactly serial.
        """
        req = self.requirement
        trials = len(readers)

        # ---- phase 1: one lottery frame for a rough bound
        first_idle = lottery_frames(readers, frames, 1, self.rough_slots, _PHASE_ROUGH)
        n_working = [max(2.0 ** float(row[0]) / FM_PHI, 1.0) for row in first_idle]

        # ---- phase 2: m balanced rounds, median-combined
        m = src_round_count(req.delta)
        f = self.frame_size()
        attempt = [0] * trials
        total_frames = [0] * trials
        estimates: list[list[float]] = [[] for _ in range(trials)]
        active = list(range(trials))
        while active:
            rhos = [float(min(1.0, SRC_OPTIMAL_LOAD * f / n_working[t])) for t in active]
            for t in active:
                # Broadcast: seed (32) + rho (32) + frame size (16) bits.
                readers[t].broadcast_bits(80, phase=_PHASE_MAIN, label="round-params")
            empty = frames.aloha([readers[t] for t in active], f, rhos)
            still: list[int] = []
            for t, rho, empty_slots in zip(active, rhos, empty):
                readers[t].ledger.record_uplink(f, phase=_PHASE_MAIN, label="frame")
                total_frames[t] += 1
                z = int(empty_slots) / f
                if z >= 1.0 - 0.5 / f:
                    # Starved: nobody responded → working bound far too high
                    # (unless ρ is already 1, in which case the range really
                    # is almost empty and z̄≈1 is the honest observation).
                    if rho < 1.0 and attempt[t] < _MAX_ROUND_RETRIES:
                        n_working[t] = max(n_working[t] / 4.0, 1.0)
                        attempt[t] += 1
                        still.append(t)
                        continue
                elif z <= 0.5 / f:
                    # Saturated: bound far too low.
                    if attempt[t] < _MAX_ROUND_RETRIES:
                        n_working[t] *= 4.0
                        attempt[t] += 1
                        still.append(t)
                        continue
                z_clamped = min(max(z, 0.5 / f), 1.0 - 0.5 / f)
                estimates[t].append(-f * float(np.log(z_clamped)) / rho)
                attempt[t] = 0
                if len(estimates[t]) < m:
                    still.append(t)
            active = still

        return [
            self._result(
                float(np.median(estimates[t])),
                reader.ledger,
                rounds=m,
                extra={
                    "n_rough": n_working[t],
                    "frame_size": f,
                    "frames_run": total_frames[t],
                    "round_estimates": estimates[t],
                },
            )
            for t, reader in enumerate(readers)
        ]
