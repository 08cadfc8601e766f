"""One lockstep driver per baseline, over three frame sources.

LOF, ZOE and SRC are each written once, as a ``_drive(readers, frames)``
method that advances one reader per trial in lockstep.  Every reader keeps
its own seed stream and its own :class:`~repro.timing.TimeLedger`, so each
trial's control flow, draws and metered messages are exactly its serial
trace.  Only the frame statistic comes from outside, from a *frame source*
with two operations:

* ``lottery(readers, rounds, slots)`` — the ``(T, rounds)`` float64 matrix
  of first-idle indices of each reader's next ``rounds`` lottery frames;
* ``aloha(readers, frame_size, rhos)`` — the empty-slot count of each
  reader's next framed-ALOHA frame at join probability ``rhos[i]``.

There are three sources:

* :class:`EventFrames` — each reader hashes its own population
  (:func:`~repro.rfid.hashing.geometric_hash`,
  :func:`~repro.baselines.framedaloha.run_aloha_frame`): the serial
  reference, used by ``estimate`` / ``estimate_with_reader``;
* :class:`BatchedFrames` — one shared population, every reader's frames in
  batched kernel calls that reproduce the serial hash values bit for bit
  (``estimate_many``);
* :class:`AnalyticFrames` — each :class:`~repro.rfid.occupancy.AnalyticReader`
  samples the statistic from its exact distribution in O(frame), drawing
  from its own stream and drawing no seed (``estimate_analytic_many``, and
  ``estimate_analytic`` as its one-seed case).  Exact in distribution, not
  bit-identical to the event sources.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..rfid import _native
from ..rfid.hashing import (
    first_idle_from_occupancy,
    geometric_hash,
    geometric_occupancy_batch,
)
from ..rfid.occupancy import AnalyticReader, sample_aloha_empty, sample_lottery_first_idle
from ..rfid.reader import Reader
from ..rfid.tags import TagPopulation
from .base import CardinalityEstimator, EstimationResult
from .framedaloha import aloha_empty_counts_batch, run_aloha_frame

__all__ = [
    "AnalyticFrames",
    "BatchedFrames",
    "EventFrames",
    "LockstepEstimator",
    "check_lottery_slots",
    "lottery_frames",
]

#: Widest lottery frame: the occupancy kernel packs a frame into one uint64.
MAX_LOTTERY_SLOTS = 64

#: Per-core event budget (frames × population) of one streamed occupancy
#: block — matches the frame engine's cache-resident chunk size.  The
#: threaded kernel parallelises over the frames within a block, so the
#: effective block budget scales by the kernel thread count: every core
#: works a single-core-sized slice while the block feeds all of them.
_STREAM_EVENT_BUDGET = 300_000


def check_lottery_slots(name: str, slots: int) -> int:
    """Validate a lottery-frame width: ``1 < slots <= 64``."""
    if not 1 < slots <= MAX_LOTTERY_SLOTS:
        raise ValueError(f"{name} must be in (1, {MAX_LOTTERY_SLOTS}], got {slots}")
    return slots


class EventFrames:
    """Each reader hashes its own population (the serial reference)."""

    def __init__(self) -> None:
        # The last lottery bucket array lives as long as the source, as it
        # did in the serial loops: freeing it mid-run lets the allocator trim
        # and regrow the heap around every frame, which is measurably slower.
        self._buckets = None

    def lottery(self, readers: Sequence, rounds: int, slots: int) -> np.ndarray:
        first_idle = np.empty((len(readers), rounds), dtype=np.float64)
        for t, reader in enumerate(readers):
            ids = reader.population.tag_ids
            for r, seed in enumerate(reader.fresh_seeds(rounds)):
                self._buckets = geometric_hash(ids, int(seed), max_bits=slots)
                busy = np.zeros(slots, dtype=bool)
                busy[self._buckets] = True
                idle = ~busy
                first_idle[t, r] = float(np.argmax(idle)) if idle.any() else float(slots)
        return first_idle

    def aloha(self, readers: Sequence, frame_size: int, rhos: Sequence[float]) -> list[int]:
        return [
            run_aloha_frame(
                reader.population,
                frame_size=frame_size,
                sampling_prob=rho,
                seed=int(reader.fresh_seeds(1)[0]),
            ).empty_slots
            for reader, rho in zip(readers, rhos)
        ]


class BatchedFrames:
    """Every reader's frames over one shared population, in batched kernels."""

    def __init__(self, population: TagPopulation) -> None:
        self.population = population

    def lottery(self, readers: Sequence, rounds: int, slots: int) -> np.ndarray:
        """All ``T × rounds`` frames through one streamed occupancy pass.

        Per-frame occupancies depend only on their own seed, so the block
        size (``_STREAM_EVENT_BUDGET`` events per core) never changes a bit.
        """
        seeds = np.array(
            [reader.fresh_seeds(rounds) for reader in readers], dtype=np.uint64
        ).reshape(-1)
        ids = self.population.tag_ids
        budget = _STREAM_EVENT_BUDGET * _native.effective_threads()
        block = max(1, budget // max(1, ids.size))
        occupancy = np.empty(seeds.size, dtype=np.uint64)
        for lo in range(0, seeds.size, block):
            occupancy[lo : lo + block] = geometric_occupancy_batch(
                ids, seeds[lo : lo + block], max_bits=slots
            )
        first_idle = first_idle_from_occupancy(occupancy, slots)
        return first_idle.reshape(len(readers), rounds).astype(np.float64)

    def aloha(self, readers: Sequence, frame_size: int, rhos: Sequence[float]) -> np.ndarray:
        seeds = np.array([reader.fresh_seeds(1)[0] for reader in readers], dtype=np.uint64)
        return aloha_empty_counts_batch(
            self.population,
            frame_size=frame_size,
            sampling_probs=np.array(rhos, dtype=np.float64),
            seeds=seeds,
        )


class AnalyticFrames:
    """Each analytic reader samples its frame statistic from its own stream."""

    def lottery(self, readers: Sequence, rounds: int, slots: int) -> np.ndarray:
        first_idle = np.empty((len(readers), rounds), dtype=np.float64)
        for t, reader in enumerate(readers):
            for r in range(rounds):
                first_idle[t, r] = sample_lottery_first_idle(reader._rng, reader.n, slots)
        return first_idle

    def aloha(self, readers: Sequence, frame_size: int, rhos: Sequence[float]) -> list[int]:
        return [
            sample_aloha_empty(reader._rng, reader.n, frame_size, rho)
            for reader, rho in zip(readers, rhos)
        ]


def lottery_frames(
    readers: Sequence, frames, rounds: int, slots: int, phase: str
) -> np.ndarray:
    """Run and meter ``rounds`` lottery frames per reader.

    Each round costs a 32-bit seed broadcast and a ``slots``-slot uplink
    frame.  Returns the ``(T, rounds)`` first-idle matrix.
    """
    first_idle = frames.lottery(readers, rounds, slots)
    for reader in readers:
        for _ in range(rounds):
            reader.broadcast_bits(32, phase=phase, label="seed")
            reader.ledger.record_uplink(slots, phase=phase, label="lottery-frame")
    return first_idle


class LockstepEstimator(CardinalityEstimator):
    """A baseline written once, as ``_drive(readers, frames)``.

    The serial, batched and analytic tiers are the same driver over the
    event, batched and analytic frame sources.
    """

    def estimate_with_reader(self, reader) -> EstimationResult:
        """Run the protocol on a caller-provided reader (ledger appended).

        ``reader`` is an event :class:`~repro.rfid.reader.Reader` or an
        :class:`~repro.rfid.occupancy.AnalyticReader`.
        """
        frames = AnalyticFrames() if isinstance(reader, AnalyticReader) else EventFrames()
        return self._drive([reader], frames)[0]

    def estimate_many(self, population: TagPopulation, seeds) -> list[EstimationResult]:
        """Estimate once per reader seed, all trials in lockstep, batched.

        Equivalent bit for bit to ``[self.estimate(population, seed=s) for s
        in seeds]``.
        """
        readers = [Reader(population, seed=int(s)) for s in seeds]
        return self._drive(readers, BatchedFrames(population))

    def estimate_analytic(self, n: int, *, seed: int = 0) -> EstimationResult:
        """Run the protocol against a *virtual* population of ``n`` tags.

        Exact in distribution but not bit-identical to :meth:`estimate`;
        per-trial cost is independent of ``n``.  The one-seed case of
        :meth:`estimate_analytic_many`.
        """
        [result] = self.estimate_analytic_many(n, [seed])
        return result

    def estimate_analytic_many(self, n: int, seeds) -> list[EstimationResult]:
        """:meth:`estimate_analytic` once per seed, all trials in lockstep.

        Equivalent bit for bit to ``[self.estimate_analytic(n, seed=s) for s
        in seeds]``: every analytic reader draws from its own stream.
        """
        readers = [AnalyticReader(int(n), seed=int(s)) for s in seeds]
        return self._drive(readers, AnalyticFrames())

    def _drive(self, readers: list, frames) -> list[EstimationResult]:
        raise NotImplementedError
