"""Shared framed-slotted-ALOHA machinery for the baseline estimators.

Most pre-BFCE estimators (UPE, EZB, MLE, ART, SRC's second phase) share
one primitive: the reader announces a frame of ``F`` slots and a sampling
probability ``ρ``; every tag joins the frame with probability ``ρ`` and, if
joining, hashes uniformly into one slot.  The reader then observes, per slot,
either a busy/idle bit (bit-slot mode) or the finer empty/singleton/collision
trichotomy (protocols like UPE assume the PHY can tell a clean reply from a
collision).

:func:`run_aloha_frame` executes one such frame for a whole population in a
few vectorized operations and returns the per-slot responder counts, from
which any observation model can be derived.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..obs import metrics as _metrics
from ..rfid import _native
from ..rfid.hashing import mix64, mix64_into, uniform_hash, uniform_unit
from ..rfid.tags import TagPopulation

__all__ = [
    "AlohaFrame",
    "run_aloha_frame",
    "aloha_empty_counts_batch",
    "mean_run_length_of_ones",
]

#: 2⁵³ — the scaling between `uniform_unit`'s 53-bit mantissa and [0, 1).
_UNIT_SCALE = float(1 << 53)


@dataclass(frozen=True)
class AlohaFrame:
    """Observation of one framed-ALOHA frame.

    Attributes
    ----------
    counts:
        Per-slot responder counts (length ``F``); simulator-side ground
        truth from which observations derive.
    """

    counts: np.ndarray

    @property
    def size(self) -> int:
        return int(self.counts.size)

    @property
    def busy(self) -> np.ndarray:
        """Boolean busy/idle observation (what a bit-slot reader sees)."""
        return self.counts > 0

    @property
    def empty_slots(self) -> int:
        return int((self.counts == 0).sum())

    @property
    def singleton_slots(self) -> int:
        """Slots with exactly one responder (needs collision detection)."""
        return int((self.counts == 1).sum())

    @property
    def collision_slots(self) -> int:
        """Slots with two or more responders (needs collision detection)."""
        return int((self.counts >= 2).sum())

    @property
    def empty_fraction(self) -> float:
        return self.empty_slots / self.size

    def first_busy_index(self) -> int:
        """Index of the first non-empty slot, or ``F`` if the frame is empty."""
        busy = self.busy
        idx = int(np.argmax(busy))
        return idx if busy.any() else self.size

    def first_idle_index(self) -> int:
        """Index of the first empty slot, or ``F`` if the frame is full."""
        idle = ~self.busy
        idx = int(np.argmax(idle))
        return idx if idle.any() else self.size


def run_aloha_frame(
    population: TagPopulation,
    *,
    frame_size: int,
    sampling_prob: float,
    seed: int,
) -> AlohaFrame:
    """Execute one framed-ALOHA frame.

    Each tag independently joins with probability ``sampling_prob`` (decided
    by a deterministic hash of its tagID and ``seed``) and, if joining,
    occupies the slot ``uniform_hash(tagID, seed, F)``.

    Parameters
    ----------
    population:
        The tags in range.
    frame_size:
        Number of slots ``F`` (any positive integer; framed ALOHA does not
        require powers of two).
    sampling_prob:
        Join probability ρ in [0, 1].
    seed:
        Frame seed broadcast by the reader.
    """
    if frame_size <= 0:
        raise ValueError("frame_size must be positive")
    if not 0 <= sampling_prob <= 1:
        raise ValueError(f"sampling_prob must be in [0, 1], got {sampling_prob}")
    ids = population.tag_ids
    joins = uniform_unit(ids, seed=seed ^ 0x5EED) < sampling_prob
    slots = uniform_hash(ids[joins], seed=seed, modulus=frame_size)
    counts = np.bincount(slots, minlength=frame_size)
    return AlohaFrame(counts=counts)


def aloha_empty_counts_batch(
    population: TagPopulation,
    *,
    frame_size: int,
    sampling_probs: np.ndarray,
    seeds: np.ndarray,
    chunk_events: int = 300_000,
) -> np.ndarray:
    """Empty-slot counts of many independent ALOHA frames in one pass.

    Frame ``i`` uses ``seeds[i]`` and join probability ``sampling_probs[i]``;
    the returned int64 array holds each frame's ``empty_slots``, equal to
    ``run_aloha_frame(population, frame_size=f, sampling_prob=ρᵢ,
    seed=seedᵢ).empty_slots`` bit-for-bit.  Exactness of the join decision
    rests on ``uniform_unit``'s output being an exact 53-bit dyadic: scaling
    both sides of ``u < ρ`` by 2⁵³ is exact in float64, so the comparison
    collapses to the integer test ``(h >> 11) < ⌈ρ·2⁵³⌉`` — no float
    conversion of the hash matrix at all.  Slot hashes are then evaluated
    only for the ~ρ·n joining tags of each frame.

    Frames are processed in chunks bounded by ``chunk_events`` (frames ×
    tags) elements to keep the two scratch buffers cache-resident.  When
    the optional C kernel (:mod:`repro.rfid._native`) is available it
    replaces the pass-structured NumPy pipeline with one fused pass per
    event — same integer arithmetic, same counts.
    """
    if frame_size <= 0:
        raise ValueError("frame_size must be positive")
    probs = np.asarray(sampling_probs, dtype=np.float64)
    seeds = np.asarray(seeds, dtype=np.uint64)
    if probs.shape != seeds.shape:
        raise ValueError("sampling_probs and seeds must have matching shapes")
    if probs.size and (probs.min() < 0 or probs.max() > 1):
        raise ValueError("sampling_probs must be in [0, 1]")
    ids = np.ascontiguousarray(population.tag_ids, dtype=np.uint64)
    empty = np.full(seeds.size, frame_size, dtype=np.int64)
    if ids.size == 0 or seeds.size == 0:
        return empty
    # u < ρ  ⇔  (h >> 11) < ⌈ρ·2⁵³⌉ (see docstring); ρ = 1 ⇒ all join.
    thresholds = np.ceil(probs * _UNIT_SCALE).astype(np.uint64)
    join_mix = mix64(seeds ^ np.uint64(0x5EED))
    slot_mix = mix64(seeds)
    if _native.get_lib() is not None:
        _metrics.inc("kernel.native.aloha_empty")
        return _native.aloha_empty_native(
            ids,
            np.ascontiguousarray(join_mix),
            np.ascontiguousarray(slot_mix),
            np.ascontiguousarray(thresholds),
            frame_size,
        )
    _metrics.inc("kernel.numpy.aloha_empty")
    rows = max(1, min(seeds.size, chunk_events // ids.size))
    buf = np.empty((rows, ids.size), dtype=np.uint64)
    tmp = np.empty_like(buf)
    for start in range(0, seeds.size, rows):
        stop = min(start + rows, seeds.size)
        c = stop - start
        b, t = buf[:c], tmp[:c]
        np.bitwise_xor(ids[None, :], join_mix[start:stop, None], out=b)
        mix64_into(b, out=b, tmp=t)
        np.right_shift(b, np.uint64(11), out=b)
        joins = b < thresholds[start:stop, None]
        frame_idx, tag_idx = np.nonzero(joins)
        keys = ids[tag_idx] ^ slot_mix[start:stop][frame_idx]
        slots = (mix64(keys) % np.uint64(frame_size)).astype(np.int64)
        counts = np.bincount(
            frame_idx * frame_size + slots, minlength=c * frame_size
        ).reshape(c, frame_size)
        empty[start:stop] = (counts == 0).sum(axis=1)
    return empty


def mean_run_length_of_ones(bits: np.ndarray) -> float:
    """Average length of maximal runs of 1s in a 0/1 array (ART's statistic).

    Returns 0.0 when the array contains no 1s.
    """
    b = np.asarray(bits).astype(np.int8)
    if b.ndim != 1:
        raise ValueError("bits must be one-dimensional")
    if b.size == 0 or not (b > 0).any():
        return 0.0
    padded = np.concatenate([[0], b, [0]])
    diff = np.diff(padded)
    starts = np.flatnonzero(diff == 1)
    ends = np.flatnonzero(diff == -1)
    runs = ends - starts
    return float(runs.mean())
