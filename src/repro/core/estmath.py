"""Estimator mathematics (paper Theorems 1–2 and the γ scalability bound).

Model (Theorem 1): with ``n`` tags, Bloom length ``w``, ``k`` hash functions
and persistence probability ``p``, each slot of the Bloom vector ``B`` is
idle (``B(i) = 1``) independently with probability ``e^{−λ}`` where

.. math:: λ = k·p·n / w.

Estimator (Theorem 2): from the observed idle ratio ``ρ̄`` (fraction of 1s),

.. math:: \\hat n = −w·\\ln ρ̄ / (k·p).

The estimator is undefined for ``ρ̄ ∈ {0, 1}`` (all-busy / all-idle frames);
callers must check :func:`rho_is_valid` and re-tune ``p``.

Scalability (Sec. IV-B, Fig. 4): writing ``γ = −ln ρ̄/(k·p)`` the estimate is
``n̂ = γ·w``.  Over the open grid ``p, ρ̄ ∈ (0,1)`` at the 1/1024 resolution
used by BFCE, γ ranges between ≈ 3.26·10⁻⁴ and ≈ 2365.9 — hence a fixed
``w = 8192`` covers cardinalities up to ≈ 19.4 million.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "lam",
    "expected_rho",
    "sigma_x",
    "estimate_cardinality",
    "rho_is_valid",
    "gamma",
    "gamma_grid",
    "gamma_extrema",
    "max_estimable_cardinality",
]


def lam(n: float | np.ndarray, w: int, k: int, p: float | np.ndarray) -> float | np.ndarray:
    """The load factor λ = k·p·n/w of Theorem 1."""
    if w <= 0:
        raise ValueError("w must be positive")
    if k <= 0:
        raise ValueError("k must be positive")
    return k * np.asarray(p, dtype=np.float64) * np.asarray(n, dtype=np.float64) / w


def expected_rho(n: float | np.ndarray, w: int, k: int, p: float | np.ndarray):
    """E[ρ̄] = P{B(i)=1} = e^{−λ} (Theorem 1, Eq. 1)."""
    return np.exp(-lam(n, w, k, p))


def sigma_x(lmbda: float | np.ndarray):
    """Std of the per-slot Bernoulli X: σ(X) = sqrt(e^{−λ}(1−e^{−λ}))."""
    e = np.exp(-np.asarray(lmbda, dtype=np.float64))
    return np.sqrt(e * (1.0 - e))


def rho_is_valid(rho: float) -> bool:
    """True iff ρ̄ is strictly inside (0, 1) so Eq. 3 is defined."""
    return 0.0 < rho < 1.0


def estimate_cardinality(rho: float, w: int, k: int, p: float) -> float:
    """Theorem 2 / Eq. 3: n̂ = −w·ln ρ̄ / (k·p).

    Raises
    ------
    ValueError
        If ``ρ̄`` is 0 or 1 (estimator undefined — the all-busy / all-idle
        exceptions the paper's probing phase exists to avoid), or if the
        parameters are out of range.
    """
    if not rho_is_valid(rho):
        raise ValueError(f"estimator undefined for rho={rho} (must be in (0, 1))")
    if w <= 0 or k <= 0:
        raise ValueError("w and k must be positive")
    if not 0 < p <= 1:
        raise ValueError(f"p must be in (0, 1], got {p}")
    return -w * float(np.log(rho)) / (k * p)


def gamma(rho: float | np.ndarray, p: float | np.ndarray, k: int = 3):
    """γ = −ln ρ̄ / (k·p), so that n̂ = γ·w (Sec. IV-B, Fig. 4)."""
    if k <= 0:
        raise ValueError("k must be positive")
    rho = np.asarray(rho, dtype=np.float64)
    p = np.asarray(p, dtype=np.float64)
    if np.any((rho <= 0) | (rho >= 1)):
        raise ValueError("rho must be strictly inside (0, 1)")
    if np.any((p <= 0) | (p > 1)):
        # Closed upper end: p = 1 (always-respond) is a valid persistence
        # probability, and γ(ρ̄, 1)·w must agree with estimate_cardinality's
        # accepted domain p ∈ (0, 1].  Only ρ̄ carries the open-interval
        # restriction (the log diverges at its endpoints).
        raise ValueError("p must be in the half-open interval (0, 1]")
    return -np.log(rho) / (k * p)


def gamma_grid(resolution: int = 1024, k: int = 3) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Evaluate γ over the (p, ρ̄) grid at a 1/``resolution`` step (Fig. 4).

    Returns ``(p_values, rho_values, gamma_matrix)`` where
    ``gamma_matrix[i, j] = γ(rho_values[j], p_values[i])``.
    """
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    step = 1.0 / resolution
    p_vals = np.arange(1, resolution) * step
    rho_vals = np.arange(1, resolution) * step
    return p_vals, rho_vals, gamma(rho_vals[None, :], p_vals[:, None], k)


def gamma_extrema(resolution: int = 1024, k: int = 3) -> tuple[float, float]:
    """Min and max of γ over the open grid (paper: 0.000326 … 2365.9).

    The extrema occur at the grid corners: γ_min at (p = (res−1)/res,
    ρ̄ = (res−1)/res) and γ_max at (p = 1/res, ρ̄ = 1/res); computing just the
    corners avoids materialising the full grid.
    """
    step = 1.0 / resolution
    g_min = float(-np.log(1 - step) / (k * (1 - step)))
    g_max = float(-np.log(step) / (k * step))
    return g_min, g_max


def max_estimable_cardinality(w: int = 8192, resolution: int = 1024, k: int = 3) -> float:
    """Upper bound γ_max·w on estimable cardinality (paper: > 19 million)."""
    return gamma_extrema(resolution, k)[1] * w
