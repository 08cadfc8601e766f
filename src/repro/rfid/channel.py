"""Bit-slot channel models.

The reader senses each bit-slot and classifies it *busy* (≥ 1 tag responded)
or *idle*.  The paper assumes a perfect channel (Sec. III-A); a noisy model
is provided for failure-injection tests and the channel ablation bench.

Channels operate on *response counts per slot* (how many tags transmitted in
each slot) and return the per-slot busy/idle observation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Channel", "PerfectChannel", "NoisyChannel"]


class Channel:
    """Interface: map per-slot response counts to observed busy flags.

    ``rng`` is the randomness for stochastic channels: an explicit
    ``np.random.Generator`` or an integer seed.  Deterministic channels
    ignore it; stochastic channels **require** it — a silent fresh
    ``default_rng()`` fallback would make runs irreproducible and poison
    the content-addressed sweep cache (two "identical" runs would disagree
    bit-for-bit).
    """

    def observe(
        self,
        counts: np.ndarray,
        rng: np.random.Generator | int | None = None,
    ) -> np.ndarray:
        """Return a boolean array: True where the reader senses a busy slot."""
        raise NotImplementedError

    def idle_count(
        self,
        counts: np.ndarray,
        rng: np.random.Generator | int | None = None,
    ) -> int:
        """Number of slots the reader senses idle.

        Equal to the idle flags of :meth:`observe` on the same counts, drawing
        from ``rng`` exactly as :meth:`observe` does, so the two are
        interchangeable inside a reproducible run.  A channel may override it
        with a cheaper exact count.  ``counts`` may be a buffer the caller
        reuses once this returns, so keep no reference to it.
        """
        busy = self.observe(counts, rng=rng)
        return int(busy.size - np.count_nonzero(busy))


@dataclass(frozen=True)
class PerfectChannel(Channel):
    """The paper's model: a slot is busy iff at least one tag responds."""

    def observe(
        self,
        counts: np.ndarray,
        rng: np.random.Generator | int | None = None,
    ) -> np.ndarray:
        counts = np.asarray(counts)
        if np.any(counts < 0):
            raise ValueError("response counts must be non-negative")
        return counts > 0

    def idle_count(
        self,
        counts: np.ndarray,
        rng: np.random.Generator | int | None = None,
    ) -> int:
        """Slots with no response.  ``counts`` must be non-negative, as every
        sampler produces them; unlike :meth:`observe` this does not re-check."""
        return int(counts.size - np.count_nonzero(counts))


@dataclass(frozen=True)
class NoisyChannel(Channel):
    """Channel with miss and false-alarm errors (extension).

    Parameters
    ----------
    miss_prob:
        Probability that a busy slot is sensed idle.  With ``m ≥ 1``
        responders the slot is missed only if *every* response is lost,
        i.e. with probability ``miss_prob ** m`` (responses add power).
    false_alarm_prob:
        Probability that an idle slot is sensed busy (ambient interference).
    """

    miss_prob: float = 0.0
    false_alarm_prob: float = 0.0

    def __post_init__(self) -> None:
        if not 0 <= self.miss_prob <= 1:
            raise ValueError("miss_prob must be in [0, 1]")
        if not 0 <= self.false_alarm_prob <= 1:
            raise ValueError("false_alarm_prob must be in [0, 1]")

    def observe(
        self,
        counts: np.ndarray,
        rng: np.random.Generator | int | None = None,
    ) -> np.ndarray:
        counts = np.asarray(counts)
        if np.any(counts < 0):
            raise ValueError("response counts must be non-negative")
        if rng is None:
            raise ValueError(
                "NoisyChannel.observe requires an explicit rng (a "
                "np.random.Generator or an int seed): a fresh default_rng() "
                "would make the run irreproducible and un-cacheable"
            )
        if isinstance(rng, (int, np.integer)):
            rng = np.random.default_rng(int(rng))
        busy = counts > 0
        out = np.empty(counts.shape, dtype=bool)
        # Busy slots survive unless all m responses are individually missed.
        survive = rng.random(counts.shape) >= np.power(
            self.miss_prob, np.maximum(counts, 1), dtype=np.float64
        )
        out[busy] = survive[busy]
        out[~busy] = rng.random(int((~busy).sum())) < self.false_alarm_prob
        return out
