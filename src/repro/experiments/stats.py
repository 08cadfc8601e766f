"""Statistics helpers for the evaluation harness.

The paper's accuracy metric (Sec. V-A) is the relative error
``|n̂ − n| / n`` of a *single* estimation round (no averaging over repeated
rounds).  This module aggregates such trials: empirical CDFs (Fig. 8) and
guarantee rates (the fraction of trials meeting the (ε, δ) interval).
"""

from __future__ import annotations

import numpy as np

__all__ = ["relative_error", "ecdf", "guarantee_rate"]


def relative_error(n_hat: float | np.ndarray, n_true: float) -> float | np.ndarray:
    """The paper's accuracy metric |n̂ − n| / n."""
    if n_true <= 0:
        raise ValueError("n_true must be positive")
    return np.abs(np.asarray(n_hat, dtype=np.float64) - n_true) / n_true


def ecdf(samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Empirical CDF: returns sorted values and cumulative probabilities.

    ``probabilities[i] = (i + 1) / len(samples)`` at ``values[i]``.
    """
    values = np.sort(np.asarray(samples, dtype=np.float64))
    if values.size == 0:
        raise ValueError("samples must be non-empty")
    probs = np.arange(1, values.size + 1, dtype=np.float64) / values.size
    return values, probs


def guarantee_rate(n_hats: np.ndarray, n_true: float, eps: float) -> float:
    """Fraction of estimates inside the ε-interval around ``n_true``.

    For a sound (ε, δ) estimator this should be at least ``1 − δ``.
    """
    if not 0 < eps < 1:
        raise ValueError("eps must be in (0, 1)")
    errs = relative_error(np.asarray(n_hats), n_true)
    return float((errs <= eps).mean())
