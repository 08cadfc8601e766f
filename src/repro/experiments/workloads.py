"""Workload builders: populations and sweep grids used by the experiments.

Centralises the parameter choices of the paper's evaluation (Sec. V) so the
figure generators and the benchmark harness agree on them:

* cardinalities swept in Fig. 7(a) / Fig. 9(a);
* the ε and δ grids of Figs. 7(b, c) and 9–10(b, c) — 0.05 … 0.30;
* the reference point n = 500 000, (ε, δ) = (0.05, 0.05) used throughout.

TagID arrays are cached per (distribution, n, seed) so a sweep draws each
tagID set once.  ``population(..., copy=False)`` — the sweep executors'
path — also returns one shared, read-only :class:`TagPopulation` per
(rn_source, rn_seed, persistence_mode) on that set, so its full duplicate
check and RN derivation run once per tagID set, not once per sweep point;
``copy=True`` (the default) builds a fresh, writable population on a copy.
The cache is **byte-budgeted**, not entry-counted: a long-running process
(the estimation service) touching many zones at n = 10⁸ would otherwise pin
tens of GB of ID arrays.  ``REPRO_POPULATION_CACHE_BYTES`` sets the budget
(default 512 MiB — comfortably the whole test/bench workload set); an
entry's bytes are its id array plus its shared populations' RN arrays,
arrays above the budget are built but never retained, and eviction is LRU,
populations together with their array.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict, namedtuple

import numpy as np

from ..obs import metrics as _metrics
from ..rfid.ids import make_ids
from ..rfid.tags import TagPopulation

__all__ = [
    "N_SWEEP",
    "N_SWEEP_SMALL",
    "EPS_SWEEP",
    "DELTA_SWEEP",
    "REFERENCE_N",
    "DISTRIBUTION_NAMES",
    "population",
    "population_cache_bytes",
    "population_cache_info",
    "population_cache_clear",
]

#: Cardinality sweep of Fig. 7(a): 10³ … 10⁶.
N_SWEEP: tuple[int, ...] = (1_000, 5_000, 10_000, 50_000, 100_000, 500_000, 1_000_000)

#: Reduced sweep for quick benchmark runs.
N_SWEEP_SMALL: tuple[int, ...] = (1_000, 10_000, 100_000, 500_000)

#: Confidence-interval sweep of Figs. 7(b) / 9(b) / 10(b).
EPS_SWEEP: tuple[float, ...] = (0.05, 0.10, 0.15, 0.20, 0.25, 0.30)

#: Error-probability sweep of Figs. 7(c) / 9(c) / 10(c).
DELTA_SWEEP: tuple[float, ...] = (0.05, 0.10, 0.15, 0.20, 0.25, 0.30)

#: The fixed cardinality of Figs. 7(b, c), 8, 9(b, c), 10(b, c).
REFERENCE_N: int = 500_000

#: The paper's three tagID distributions.
DISTRIBUTION_NAMES: tuple[str, ...] = ("T1", "T2", "T3")


#: Environment knob for the tagID cache budget (bytes).
CACHE_BYTES_ENV = "REPRO_POPULATION_CACHE_BYTES"

#: Default budget: 512 MiB holds every test/bench workload (the largest
#: event-engine array in the suites is n = 10⁷ ≈ 80 MB) while keeping a
#: long-running server with many zones bounded.
_DEFAULT_CACHE_BYTES = 512 * 1024 * 1024

#: ``functools.lru_cache``-compatible statistics shape, with the byte
#: budget as ``maxsize`` and the cached bytes as ``currsize``.
CacheInfo = namedtuple("CacheInfo", ["hits", "misses", "maxsize", "currsize"])


def population_cache_bytes() -> int:
    """The tagID cache byte budget (``REPRO_POPULATION_CACHE_BYTES``).

    Re-read on every miss so long-running processes can be re-budgeted
    live; unset/garbage/negative values mean the default.
    """
    raw = os.environ.get(CACHE_BYTES_ENV, "").strip()
    if raw:
        try:
            budget = int(raw)
        except ValueError:
            return _DEFAULT_CACHE_BYTES
        if budget >= 0:
            return budget
    return _DEFAULT_CACHE_BYTES


class _Entry:
    """One cached tagID set: its read-only array, the shared populations
    built on it, and the bytes both hold."""

    __slots__ = ("ids", "populations", "nbytes")

    def __init__(self, ids: np.ndarray) -> None:
        self.ids = ids
        self.populations: dict[tuple, TagPopulation] = {}
        self.nbytes = ids.nbytes


class _PopulationCache:
    """Byte-budget LRU over tagID sets and their shared populations
    (thread-safe).

    One entry per (distribution, n, seed): the read-only id array plus every
    read-only :class:`TagPopulation` ``population(..., copy=False)`` built
    on it, one per (rn_source, rn_seed, persistence_mode).  An entry's bytes
    are the array's plus each population's RN array, and eviction drops an
    entry whole, populations with their array.  Entries are evicted
    least-recently-used once the cached bytes exceed the budget; an array
    larger than the whole budget is returned to the caller but never
    retained.  Hits and misses count id-array lookups, one per call.
    """

    def __init__(self) -> None:
        self._entries: OrderedDict[tuple, _Entry] = OrderedDict()
        self._bytes = 0
        self._hits = 0
        self._misses = 0
        self._lock = threading.Lock()

    def entry(self, key: tuple) -> _Entry:
        """The entry of ``key`` (built on a miss); counts one hit or miss."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self._hits += 1
                return entry
            self._misses += 1
        # Build outside the lock: generation dominates and must not block
        # concurrent hits (the service executor threads share this cache).
        ids = make_ids(*key)
        ids.setflags(write=False)
        entry = _Entry(ids)
        budget = population_cache_bytes()
        with self._lock:
            raced = self._entries.get(key)
            if raced is not None:  # another thread built it meanwhile
                self._entries.move_to_end(key)
                return raced
            if ids.nbytes <= budget:
                self._entries[key] = entry
                self._bytes += entry.nbytes
                self._evict(budget)
            else:
                _metrics.inc("population.cache.oversize")
        return entry

    def shared_population(self, key: tuple, variant: tuple) -> TagPopulation:
        """The one read-only population of ``variant`` on ``key``'s ids."""
        entry = self.entry(key)
        with self._lock:
            pop = entry.populations.get(variant)
        if pop is not None:
            return pop
        rn_source, rn_seed, persistence_mode = variant
        # Built outside the lock, like the ids: the duplicate check and the
        # RN derivation are the cost this cache exists to pay once.
        pop = TagPopulation(
            entry.ids,
            rn_source=rn_source,
            rn_seed=rn_seed,
            persistence_mode=persistence_mode,
        )
        pop.rn.setflags(write=False)
        budget = population_cache_bytes()
        with self._lock:
            raced = entry.populations.get(variant)
            if raced is not None:
                return raced
            entry.populations[variant] = pop
            entry.nbytes += pop.rn.nbytes
            if self._entries.get(key) is entry:  # not evicted meanwhile
                self._bytes += pop.rn.nbytes
                self._evict(budget)
        return pop

    def _evict(self, budget: int) -> None:
        """Drop least-recently-used entries down to ``budget`` (caller
        holds the lock)."""
        while self._bytes > budget and self._entries:
            _, evicted = self._entries.popitem(last=False)
            self._bytes -= evicted.nbytes
            _metrics.inc("population.cache.evicted")

    def info(self) -> CacheInfo:
        with self._lock:
            return CacheInfo(
                self._hits, self._misses, population_cache_bytes(), self._bytes
            )

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._bytes = 0
            # lru_cache.cache_clear() reset the statistics too; keep that.
            self._hits = 0
            self._misses = 0


_CACHE = _PopulationCache()


def population(
    distribution: str,
    n: int,
    *,
    seed: int = 0,
    rn_source: str = "tagid",
    rn_seed: int = 0,
    persistence_mode: str = "event",
    copy: bool = True,
) -> TagPopulation:
    """Build (or fetch from cache) a tag population for one sweep point.

    The underlying tagID array is cached per (distribution, n, seed) and
    marked read-only.  ``copy=True`` (the default) returns a fresh, writable
    :class:`~repro.rfid.tags.TagPopulation` on a copy of it.

    ``copy=False`` returns the one shared population of this (distribution,
    n, seed, rn_source, rn_seed, persistence_mode), cached with its id array
    and evicted with it: its ``tag_ids`` and ``rn`` are read-only, so sweep
    workers share one buffer across every point on the same tagID set, and
    the duplicate check and RN derivation run once per set, not per call.
    Callers taking this path must not mutate the population.
    """
    key = (distribution, int(n), int(seed))
    if not copy:
        return _CACHE.shared_population(key, (rn_source, int(rn_seed), persistence_mode))
    return TagPopulation(
        _CACHE.entry(key).ids.copy(),
        rn_source=rn_source,  # type: ignore[arg-type]
        rn_seed=rn_seed,
        persistence_mode=persistence_mode,  # type: ignore[arg-type]
    )


def population_cache_info() -> CacheInfo:
    """Hit/miss statistics of the tagID array cache.

    Mirrors the ``functools.lru_cache`` info shape (so existing tooling
    keeps working), with ``maxsize`` reporting the **byte budget** and
    ``currsize`` the bytes currently retained (id arrays plus the RN arrays
    of their shared populations).  One lookup per ``population`` call.
    """
    return _CACHE.info()


def population_cache_clear() -> None:
    """Drop every cached tagID array and shared population (e.g. between
    memory-sensitive runs)."""
    _CACHE.clear()
