"""TagID population generators (paper Fig. 6).

The evaluation draws tagIDs from three distributions over ``[1, 10^15]``:

* **T1** — uniform;
* **T2** — *approximately* normal: a mixture of a dominant central normal
  with light uniform contamination, clipped to the ID range (this matches the
  "approximate normal distribution" silhouette in Fig. 6(b));
* **T3** — normal, clipped to the ID range.

IDs are unique within a set (RFID tagIDs are unique by construction); we
enforce uniqueness by resampling collisions, which rarely triggers because
the ID space (10^15) is vastly larger than any population we draw.  The
dedup itself is :func:`sorted_unique` — one sort and an adjacent compare.

All generators accept a NumPy ``Generator`` or an integer seed and return a
sorted ``uint64`` array.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "ID_SPACE_MAX",
    "TagIDDistribution",
    "uniform_ids",
    "approx_normal_ids",
    "normal_ids",
    "make_ids",
    "sorted_unique",
    "DISTRIBUTIONS",
]

#: Upper bound of the tagID space used in the paper's simulations.
ID_SPACE_MAX: int = 10**15


def _as_rng(seed: int | np.random.Generator | None) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def sorted_unique(a: np.ndarray) -> np.ndarray:
    """Sorted distinct values of integer array ``a``.

    Values, order and dtype equal numpy's ``unique(a)``, at a fraction of
    its cost: one ``np.sort`` plus an adjacent compare.  numpy 2.x's
    ``unique`` hashes a uint64 array before it sorts, which costs ~25x more
    (25 ms against 1 ms at n = 10^5 on a 2.1 GHz Xeon).
    """
    s = np.sort(a, axis=None)
    if s.size < 2:
        return s
    keep = np.empty(s.size, dtype=bool)
    keep[0] = True
    np.not_equal(s[1:], s[:-1], out=keep[1:])
    return s[keep]


def _unique_fill(n: int, draw: Callable[[int], np.ndarray]) -> np.ndarray:
    """Draw until ``n`` unique IDs are collected."""
    if n < 0:
        raise ValueError("n must be non-negative")
    ids = sorted_unique(draw(n))
    while ids.size < n:
        extra = draw(n - ids.size)
        ids = sorted_unique(np.concatenate([ids, extra]))
    return ids[:n]


def uniform_ids(
    n: int,
    seed: int | np.random.Generator | None = None,
    *,
    low: int = 1,
    high: int = ID_SPACE_MAX,
) -> np.ndarray:
    """T1: ``n`` unique tagIDs uniform on ``[low, high]``."""
    if low < 1 or high <= low:
        raise ValueError("require 1 <= low < high")
    rng = _as_rng(seed)

    def draw(m: int) -> np.ndarray:
        return rng.integers(low, high + 1, size=m, dtype=np.uint64)

    return _unique_fill(n, draw)


def _clipped_normal_draw(
    rng: np.random.Generator,
    m: int,
    mean: float,
    std: float,
    low: int,
    high: int,
) -> np.ndarray:
    """Draw ``m`` normal samples, resampling any that fall outside [low, high]."""
    out = np.empty(m, dtype=np.float64)
    filled = 0
    while filled < m:
        batch = rng.normal(mean, std, size=m - filled)
        ok = batch[(batch >= low) & (batch <= high)]
        out[filled : filled + ok.size] = ok
        filled += ok.size
    return np.round(out).astype(np.uint64)


def normal_ids(
    n: int,
    seed: int | np.random.Generator | None = None,
    *,
    mean: float | None = None,
    std: float | None = None,
    low: int = 1,
    high: int = ID_SPACE_MAX,
) -> np.ndarray:
    """T3: ``n`` unique tagIDs from a normal clipped to ``[low, high]``.

    Defaults centre the bell at mid-range with σ = range/8, matching the
    tight central mass of Fig. 6(c).
    """
    rng = _as_rng(seed)
    span = high - low
    mu = (low + high) / 2 if mean is None else mean
    sigma = span / 8 if std is None else std
    if sigma <= 0:
        raise ValueError("std must be positive")

    def draw(m: int) -> np.ndarray:
        return _clipped_normal_draw(rng, m, mu, sigma, low, high)

    return _unique_fill(n, draw)


def approx_normal_ids(
    n: int,
    seed: int | np.random.Generator | None = None,
    *,
    low: int = 1,
    high: int = ID_SPACE_MAX,
    contamination: float = 0.15,
) -> np.ndarray:
    """T2: ``n`` unique tagIDs, approximately normal.

    A mixture: with probability ``1 − contamination`` a sample comes from a
    broad central normal (σ = range/5); otherwise from the uniform over the
    whole range.  The result is bell-shaped with heavier-than-normal tails —
    the "approximate normal distribution" of Fig. 6(b).
    """
    if not 0 <= contamination <= 1:
        raise ValueError("contamination must be in [0, 1]")
    rng = _as_rng(seed)
    span = high - low
    mu = (low + high) / 2
    sigma = span / 5

    def draw(m: int) -> np.ndarray:
        from_uniform = rng.random(m) < contamination
        out = _clipped_normal_draw(rng, m, mu, sigma, low, high)
        n_unif = int(from_uniform.sum())
        if n_unif:
            out[from_uniform] = rng.integers(low, high + 1, size=n_unif, dtype=np.uint64)
        return out

    return _unique_fill(n, draw)


@dataclass(frozen=True)
class TagIDDistribution:
    """A named tagID distribution (T1/T2/T3 or custom)."""

    name: str
    sampler: Callable[[int, int | np.random.Generator | None], np.ndarray]
    description: str = ""

    def sample(self, n: int, seed: int | np.random.Generator | None = None) -> np.ndarray:
        """Draw ``n`` unique tagIDs."""
        return self.sampler(n, seed)


def _sgtin_sampler(n: int, seed: int | np.random.Generator | None = None) -> np.ndarray:
    """T4: realistic SGTIN-96 EPC populations (extension beyond the paper).

    Sequential serials within few company/SKU groups — the adversarial
    clustered-bit case for truncation hashing; see `repro.rfid.epc`.
    """
    from .epc import sgtin_population

    if isinstance(seed, np.random.Generator):
        seed = int(seed.integers(0, 2**31 - 1))
    return np.sort(sgtin_population(n, seed=seed or 0))


#: The paper's three evaluation distributions plus the structured-EPC
#: extension, keyed by name.
DISTRIBUTIONS: dict[str, TagIDDistribution] = {
    "T1": TagIDDistribution("T1", uniform_ids, "uniform on [1, 1e15]"),
    "T2": TagIDDistribution("T2", approx_normal_ids, "approximately normal (contaminated)"),
    "T3": TagIDDistribution("T3", normal_ids, "normal, clipped to [1, 1e15]"),
    "T4": TagIDDistribution("T4", _sgtin_sampler, "structured SGTIN-96 EPCs (sequential serials)"),
}


def make_ids(
    distribution: str,
    n: int,
    seed: int | np.random.Generator | None = None,
) -> np.ndarray:
    """Draw ``n`` unique tagIDs from a named distribution (``"T1"``…``"T4"``)."""
    try:
        dist = DISTRIBUTIONS[distribution]
    except KeyError:
        raise ValueError(
            f"unknown distribution {distribution!r}; expected one of {sorted(DISTRIBUTIONS)}"
        ) from None
    return dist.sample(n, seed)
