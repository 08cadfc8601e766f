"""ZOE — Zero-One Estimator (Zheng & Li, INFOCOM 2013 [14]).

ZOE observes a sequence of *single-slot frames*.  For each frame the reader
broadcasts a fresh 32-bit seed; every tag responds with persistence
probability ``q`` (decided by hashing its ID with the seed), and the reader
senses one busy/idle bit.  Each frame is an i.i.d. Bernoulli observation with
idle probability ``e^{−λ}``, ``λ = q·n``; after ``m`` frames the idle
fraction ``z̄`` yields ``n̂ = −ln z̄ / q``.

Parameters follow this paper's description of ZOE (Sec. I and V-C):

* the rough estimate feeding ``q`` comes from **LOF run for 10 rounds**;
* ``q`` targets the load ``λ* = ln(1+ε)/ε`` that maximises
  ``e^{−λ}(1 − e^{−ελ})``, minimising the required frame count;
* the frame count is ``m = ⌈(d·σ(x)_max / (e^{−λ}(1 − e^{−ελ})))²⌉`` with
  ``σ(x)_max = 0.5`` and ``d`` the (1−δ) two-sided normal quantile — the
  formula quoted in the paper's introduction.

ZOE re-evaluates ``m`` as frames accumulate, using its running estimate of
λ (its best knowledge): when the rough estimate was poor the realised λ sits
off-optimal and the required ``m`` *grows sharply* — the paper's explanation
for ZOE's worst-case 18 s execution time.

Cost model: every frame costs one 32-bit seed broadcast **plus** one uplink
bit-slot, each with the C1G2 inter-message interval — ≈ 1831 µs per frame,
which is why ZOE's downlink (``m × 32`` bits) dominates its execution time.

Simulation note: per-frame tag decisions are i.i.d. Bernoulli(q) under ideal
hashing, so the slot outcome is drawn as ``Binomial(n, q) == 0`` instead of
hashing every tag in every frame (m·n hash evaluations would dominate the
simulation for no behavioural difference).
"""

from __future__ import annotations

import numpy as np

from ..core.accuracy import AccuracyRequirement
from .base import EstimationResult
from .lockstep import LockstepEstimator
from .lof import LOF

__all__ = ["ZOE", "zoe_optimal_load", "zoe_required_frames"]

_PHASE_MAIN = "zoe-frames"

#: σ(x)_max in the paper's frame-count formula.
SIGMA_X_MAX: float = 0.5

#: Re-evaluate the required frame count every this many frames.
_BATCH = 256

#: Hard cap on frames (keeps degenerate rough estimates from running forever;
#: 16384 frames ≈ 30 s of air time, beyond the paper's observed worst case).
_MAX_FRAMES = 16384


def zoe_optimal_load(eps: float) -> float:
    """The λ maximising e^{−λ}(1−e^{−ελ}): λ* = ln(1+ε)/ε (≈ 0.976 at ε=.05)."""
    if not 0 < eps < 1:
        raise ValueError("eps must be in (0, 1)")
    return float(np.log1p(eps) / eps)


def _clamped_idle_fraction(idle: int, frames: int) -> float:
    """z̄ = idle/frames clamped to [0.5/frames, 1 − 0.5/frames].

    The half-observation continuity correction keeps ``ln z̄`` finite when a
    frame batch comes back all-idle or all-busy; both the re-planning loop
    and the final estimate apply it identically.
    """
    z_bar = idle / frames
    return min(max(z_bar, 0.5 / frames), 1.0 - 0.5 / frames)


def zoe_required_frames(lmbda: float, eps: float, d: float) -> int:
    """m = ⌈(d·σmax/(e^{−λ}(1−e^{−ελ})))²⌉, clamped to [1, _MAX_FRAMES]."""
    if lmbda <= 0:
        return _MAX_FRAMES
    denom = float(np.exp(-lmbda) * (1.0 - np.exp(-eps * lmbda)))
    if denom <= 0:
        return _MAX_FRAMES
    m = int(np.ceil((d * SIGMA_X_MAX / denom) ** 2))
    return int(min(max(m, 1), _MAX_FRAMES))


class ZOE(LockstepEstimator):
    """Zero-One Estimator with an LOF rough phase.

    Parameters
    ----------
    requirement:
        The (ε, δ) accuracy target.
    rough_rounds:
        LOF rounds used for the rough estimate (paper setup: 10).
    """

    name = "ZOE"

    def __init__(
        self,
        requirement: AccuracyRequirement | None = None,
        rough_rounds: int = 10,
    ) -> None:
        super().__init__(requirement)
        if rough_rounds <= 0:
            raise ValueError("rough_rounds must be positive")
        self.rough_rounds = rough_rounds

    def _drive(self, readers: list, frames) -> list[EstimationResult]:
        # ---- rough phase: LOF × rough_rounds, lockstep over the frame source
        rough = LOF(rounds=self.rough_rounds)._drive(readers, frames)
        # ---- the single-slot frames draw from each trial's own stream
        return [
            self._single_slot_frames(reader, max(result.n_hat, 1.0))
            for reader, result in zip(readers, rough)
        ]

    def _single_slot_frames(self, reader, n_rough: float) -> EstimationResult:
        """One trial's single-slot frames, with periodic m re-evaluation."""
        req = self.requirement
        rng = np.random.default_rng(reader.seed + 0x20E)

        # ---- persistence tuned to the optimal load at the rough estimate
        lam_star = zoe_optimal_load(req.eps)
        q = min(lam_star / n_rough, 1.0)
        d = req.d

        believed_lam = q * n_rough
        m_target = zoe_required_frames(believed_lam, req.eps, d)
        idle = 0
        frames = 0
        while frames < m_target and frames < _MAX_FRAMES:
            batch = min(_BATCH, m_target - frames)
            # Each frame: 32-bit seed broadcast + one uplink bit-slot.
            reader.ledger.record_downlink(32, phase=_PHASE_MAIN, label="seed", count=batch)
            reader.ledger.record_uplink(1, phase=_PHASE_MAIN, label="slot", count=batch)
            # Slot outcomes: idle iff Binomial(n, q) == 0 (ideal hashing).
            responders = rng.binomial(reader.n, q, size=batch)
            idle += int((responders == 0).sum())
            frames += batch
            # Update believed λ from the data seen so far and re-plan m.
            z_bar = _clamped_idle_fraction(idle, frames)
            believed_lam = -float(np.log(z_bar))
            m_target = max(frames, zoe_required_frames(believed_lam, req.eps, d))

        z_bar = _clamped_idle_fraction(idle, frames)
        n_hat = -float(np.log(z_bar)) / q
        return self._result(
            n_hat,
            reader.ledger,
            rounds=frames,
            extra={
                "n_rough": n_rough,
                "q": q,
                "frames": frames,
                "idle_fraction": idle / frames,
            },
        )
