"""Vectorized tag-population model.

A :class:`TagPopulation` holds the state of every tag in a reader's range:
its tagID and its 32-bit prestored random number ``RN`` (Sec. IV-E.2).  All
tag-side behaviour of Algorithm 2 — hashing the broadcast seeds into slot
selections and taking the p-persistence decision per selected slot — is
computed here as whole-population NumPy operations; no Python loop ever runs
per tag.

Persistence modes
-----------------
The paper implements p-persistence by having the tag compare 10 bits of its
RN against the broadcast numerator ``p_n`` (Sec. IV-E.3).  Three modes are
supported, from cleanest to most hardware-faithful:

* ``"event"`` (default) — an independent Bernoulli(p) draw per
  (tag, hash-index) event, realised deterministically from
  ``(tagID, seed, hash index)``.  This is the idealised model under which the
  paper's Theorems 1–4 are derived.
* ``"rn_window"`` — the tag slides a pseudo-randomly chosen 10-bit window
  over its stored RN and responds iff the window value is below ``p_n``
  (the paper's literal "randomly selects 10 bits from the prestored random
  number").  Windows of one RN overlap, so decisions are weakly correlated.
* ``"static"`` — one decision per tag per frame, reused for all ``k``
  selected slots.  A deliberately degraded ablation variant quantifying why
  per-event sampling matters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from .hashing import derive_rn_from_ids, mix64, uniform_unit, xor_bitget_hash
from .ids import sorted_unique

__all__ = [
    "TagPopulation",
    "PersistenceMode",
    "PERSISTENCE_BITS",
    "PERSISTENCE_DENOM",
    "PERSISTENCE_MODES",
]

PersistenceMode = Literal["event", "rn_window", "static"]

#: The valid persistence modes, in documentation order.
PERSISTENCE_MODES: tuple[str, ...] = ("event", "rn_window", "static")

#: Resolution of the persistence probability: p = p_n / 2**10.
PERSISTENCE_BITS: int = 10
PERSISTENCE_DENOM: int = 1 << PERSISTENCE_BITS  # 1024


def _require_power_of_two(w: int) -> int:
    if w <= 0 or (w & (w - 1)) != 0:
        raise ValueError(f"Bloom vector length w must be a power of two, got {w}")
    return w.bit_length() - 1


@dataclass
class TagPopulation:
    """All tags currently in the reader's communication range.

    Parameters
    ----------
    tag_ids:
        Unique tagIDs (any integer dtype, values ≥ 1).
    rn_source:
        ``"tagid"`` derives each prestored RN from the tagID (so the tagID
        distribution is exercised end-to-end, see DESIGN.md §2.3);
        ``"random"`` draws i.i.d. RNs as the paper literally states, using
        ``rn_seed``.
    rn_seed:
        Seed for the ``"random"`` RN source.
    persistence_mode:
        See module docstring.
    """

    tag_ids: np.ndarray
    rn_source: Literal["tagid", "random"] = "tagid"
    rn_seed: int = 0
    persistence_mode: PersistenceMode = "event"
    rn: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        ids = np.asarray(self.tag_ids, dtype=np.uint64)
        if ids.ndim != 1:
            raise ValueError("tag_ids must be one-dimensional")
        if sorted_unique(ids).size != ids.size:
            raise ValueError("tag_ids must be unique")
        self.tag_ids = ids
        if self.rn_source == "tagid":
            self.rn = derive_rn_from_ids(ids)
        elif self.rn_source == "random":
            rng = np.random.default_rng(self.rn_seed)
            self.rn = rng.integers(0, 1 << 32, size=ids.size, dtype=np.uint32)
        else:
            raise ValueError(f"unknown rn_source {self.rn_source!r}")
        if self.persistence_mode not in PERSISTENCE_MODES:
            raise ValueError(f"unknown persistence_mode {self.persistence_mode!r}")

    def __len__(self) -> int:
        return int(self.tag_ids.size)

    @property
    def size(self) -> int:
        return int(self.tag_ids.size)

    # ------------------------------------------------------------------
    # Algorithm 2, line 2: slot selection via k XOR/bitget hashes
    # ------------------------------------------------------------------
    def slot_selections(self, seeds: np.ndarray | list[int], w: int) -> np.ndarray:
        """Hash every tag into ``k`` slot indices of a ``w``-slot frame.

        Parameters
        ----------
        seeds:
            The ``k`` 32-bit random seeds broadcast by the reader.
        w:
            Frame length; must be a power of two (the tag hash is a bitget of
            the low ``log2 w`` bits, Sec. IV-E.2).

        Returns
        -------
        int64 array of shape ``(k, n_tags)`` with entries in ``[0, w)``.
        """
        out_bits = _require_power_of_two(w)
        seeds = np.asarray(seeds, dtype=np.uint64)
        if seeds.ndim != 1 or seeds.size == 0:
            raise ValueError("seeds must be a non-empty 1-D sequence")
        sel = np.empty((seeds.size, self.size), dtype=np.int64)
        for j, seed in enumerate(seeds):
            sel[j] = xor_bitget_hash(self.rn, int(seed), out_bits).astype(np.int64)
        return sel

    # ------------------------------------------------------------------
    # Sec. IV-E.3: lightweight p-persistence
    # ------------------------------------------------------------------
    def persistence_decisions(
        self,
        p_n: int,
        frame_seed: int,
        k: int,
    ) -> np.ndarray:
        """Decide, per (hash index, tag), whether the tag responds.

        Parameters
        ----------
        p_n:
            Numerator of the persistence probability: ``p = p_n / 1024``.
            The reader broadcasts this 10-bit value instead of a float
            (Sec. IV-E.3).
        frame_seed:
            Distinguishes frames so decisions are independent across frames.
        k:
            Number of hash functions (decision events per tag).

        Returns
        -------
        bool array of shape ``(k, n_tags)``.
        """
        if not 0 <= p_n <= PERSISTENCE_DENOM:
            raise ValueError(f"p_n must be in [0, {PERSISTENCE_DENOM}], got {p_n}")
        if k <= 0:
            raise ValueError("k must be positive")
        n = self.size
        if self.persistence_mode == "event":
            dec = np.empty((k, n), dtype=bool)
            for j in range(k):
                u = uniform_unit(self.tag_ids, seed=_event_seed(frame_seed, j))
                dec[j] = u < p_n / PERSISTENCE_DENOM
            return dec
        if self.persistence_mode == "rn_window":
            dec = np.empty((k, n), dtype=bool)
            n_windows = 32 - PERSISTENCE_BITS + 1  # 23 possible 10-bit windows
            for j in range(k):
                h = mix64(self.tag_ids ^ np.uint64(_event_seed(frame_seed, j)))
                offsets = (h % np.uint64(n_windows)).astype(np.uint32)
                window = (self.rn >> offsets) & np.uint32(PERSISTENCE_DENOM - 1)
                dec[j] = window < p_n
            return dec
        # static: one decision per tag per frame, reused for every hash.
        u = uniform_unit(self.tag_ids, seed=_event_seed(frame_seed, 0))
        return np.broadcast_to(u < p_n / PERSISTENCE_DENOM, (k, n)).copy()


def _event_seed(frame_seed: int, j: int) -> int:
    """Combine a frame seed and a hash index into one 64-bit event seed."""
    return int(mix64(np.uint64((frame_seed & 0xFFFFFFFF) * 1024 + j + 1)))
