"""Workload builders: populations and sweep grids used by the experiments.

Centralises the parameter choices of the paper's evaluation (Sec. V) so the
figure generators and the benchmark harness agree on them:

* cardinalities swept in Fig. 7(a) / Fig. 9(a);
* the ε and δ grids of Figs. 7(b, c) and 9–10(b, c) — 0.05 … 0.30;
* the reference point n = 500 000, (ε, δ) = (0.05, 0.05) used throughout.

Populations are cached per (distribution, n, seed) so a sweep draws each
tagID set once; every call still builds a fresh :class:`TagPopulation`,
whose full duplicate check and RN derivation are the remaining per-call
cost.  The cache is **byte-budgeted**, not entry-counted: a long-running
process (the estimation service) touching many zones at n = 10⁸ would
otherwise pin tens of GB of ID arrays.  ``REPRO_POPULATION_CACHE_BYTES``
sets the budget (default 512 MiB — comfortably the whole test/bench
workload set); arrays above the budget are built but never retained, and
eviction is LRU.
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


class _IdCache:
    """Byte-budget LRU over immutable tagID arrays (thread-safe).

    Replaces the previous ``lru_cache(maxsize=64)``: 64 retained arrays at
    n = 10⁸ is tens of GB, fatal for a long-running server.  Entries are
    evicted least-recently-used once the cached bytes exceed the budget;
    an array larger than the whole budget is returned to the caller but
    never retained.
    """

    def __init__(self) -> None:
        self._entries: OrderedDict[tuple, np.ndarray] = OrderedDict()
        self._bytes = 0
        self._hits = 0
        self._misses = 0
        self._lock = threading.Lock()

    def get(self, distribution: str, n: int, seed: int) -> np.ndarray:
        key = (distribution, n, seed)
        with self._lock:
            ids = self._entries.get(key)
            if ids is not None:
                self._entries.move_to_end(key)
                self._hits += 1
                return ids
            self._misses += 1
        # Build outside the lock: generation dominates and must not block
        # concurrent hits (the service executor threads share this cache).
        ids = make_ids(distribution, n, seed)
        ids.setflags(write=False)
        budget = population_cache_bytes()
        with self._lock:
            raced = self._entries.get(key)
            if raced is not None:  # another thread built it meanwhile
                self._entries.move_to_end(key)
                return raced
            if ids.nbytes <= budget:
                self._entries[key] = ids
                self._bytes += ids.nbytes
                while self._bytes > budget and self._entries:
                    _, evicted = self._entries.popitem(last=False)
                    self._bytes -= evicted.nbytes
                    _metrics.inc("population.cache.evicted")
            else:
                _metrics.inc("population.cache.oversize")
        return ids

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


_ID_CACHE = _IdCache()


def _cached_ids(distribution: str, n: int, seed: int) -> np.ndarray:
    return _ID_CACHE.get(distribution, n, seed)


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

    The underlying tagID array is cached and marked read-only; the
    :class:`~repro.rfid.tags.TagPopulation` wrapper is constructed fresh so
    callers may vary ``rn_source`` / ``persistence_mode`` freely.

    ``copy=False`` hands out the cached read-only array itself — sweep
    workers use this to share one ID buffer across every point touching the
    same (distribution, n, seed) triple instead of duplicating it per trial
    batch.  Callers taking this path must not write to ``tag_ids``.
    """
    ids = _cached_ids(distribution, int(n), int(seed))
    return TagPopulation(
        ids.copy() if copy else ids,
        rn_source=rn_source,  # type: ignore[arg-type]
        rn_seed=rn_seed,
        persistence_mode=persistence_mode,  # type: ignore[arg-type]
    )


def population_cache_info() -> CacheInfo:
    """Hit/miss statistics of the tagID array cache.

    Mirrors the ``functools.lru_cache`` info shape (so existing tooling
    keeps working), with ``maxsize`` reporting the **byte budget** and
    ``currsize`` the bytes currently retained.
    """
    return _ID_CACHE.info()


def population_cache_clear() -> None:
    """Drop every cached tagID array (e.g. between memory-sensitive runs)."""
    _ID_CACHE.clear()
