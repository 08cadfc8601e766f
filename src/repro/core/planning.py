"""Deployment planning: feasibility of (ε, δ, n) under a given configuration.

The paper fixes w = 8192 and argues (via the γ bound, Fig. 4) that this is
"scalable enough for most RFID systems".  This module turns that argument
into tooling a deployer can query *before* commissioning:

* :func:`max_guaranteed_cardinality` — the largest n for which some grid
  persistence satisfies Theorem 4 at the requested (ε, δ).  This is tighter
  than the paper's γ·w ≈ 19.4 M estimability bound: estimability only needs
  ρ̄ ∉ {0, 1}, while the (ε, δ) *guarantee* needs the Theorem-3 separation,
  which runs out earlier.
* :func:`required_w` — the smallest power-of-two Bloom length whose guarantee
  region covers a target n_max.
* :func:`feasibility_table` — the (ε, δ) → max-n matrix for capacity docs.
"""

from __future__ import annotations

import numpy as np

from .accuracy import AccuracyRequirement
from .config import BFCEConfig, DEFAULT_CONFIG
from .estmath import max_estimable_cardinality
from .optimal_p import find_optimal_pn

__all__ = [
    "is_guaranteeable",
    "max_guaranteed_cardinality",
    "required_w",
    "feasibility_table",
]


def is_guaranteeable(
    n: float,
    req: AccuracyRequirement,
    config: BFCEConfig = DEFAULT_CONFIG,
) -> bool:
    """Whether some grid persistence meets Theorem 4 at cardinality ``n``."""
    if n <= 0:
        raise ValueError("n must be positive")
    return find_optimal_pn(n, req, config).feasible


def max_guaranteed_cardinality(
    req: AccuracyRequirement,
    config: BFCEConfig = DEFAULT_CONFIG,
    *,
    tolerance: float = 0.01,
) -> float:
    """Largest n whose (ε, δ) guarantee is satisfiable on the grid,
    clipped to the estimable cap γ_max·w.

    The feasible set in n is an *interval*: very small n cannot separate
    the Theorem-3 statistics even at the grid's largest p (λ stays tiny),
    and very large n cannot at its smallest (λ saturates).  We anchor at a
    feasible point found by geometric scan, then bisect the upper edge.
    Loose requirements pass the Theorem-4 check past
    :func:`~repro.core.estmath.max_estimable_cardinality` (2.25e7 at
    (0.2, 0.2) against a 1.94e7 cap at w = 8192), where the accurate frame
    saturates at ``pn_min`` and the protocol cannot estimate, so the result
    never exceeds that cap.

    Returns 0.0 if no cardinality is guaranteeable at all (degenerate
    configs only).
    """
    anchor = None
    for candidate in np.geomspace(100, 1e7, 24):
        if is_guaranteeable(float(candidate), req, config):
            anchor = float(candidate)
            break
    if anchor is None:
        return 0.0
    cap = max_estimable_cardinality(config.w, config.pn_denom, config.k)
    lo, hi = anchor, anchor
    # Exponential search for an infeasible upper end.
    while is_guaranteeable(hi, req, config):
        lo = hi
        hi *= 2
        if hi > 1e12:
            return cap  # practically unbounded for this configuration
    while (hi - lo) / hi > tolerance:
        mid = (lo + hi) / 2
        if is_guaranteeable(mid, req, config):
            lo = mid
        else:
            hi = mid
    return min(lo, cap)


def required_w(
    n_max: float,
    req: AccuracyRequirement,
    *,
    w_min: int = 1024,
    w_max: int = 1 << 22,
) -> int:
    """Smallest power-of-two w whose guarantee region covers ``n_max``.

    Raises ``ValueError`` if even ``w_max`` cannot cover it.
    """
    if n_max <= 0:
        raise ValueError("n_max must be positive")
    w = w_min
    while w <= w_max:
        config = BFCEConfig(w=w, rough_slots=min(1024, w))
        if is_guaranteeable(n_max, req, config):
            return w
        w *= 2
    raise ValueError(
        f"no w ≤ {w_max} guarantees ({req.eps}, {req.delta}) at n = {n_max:g}"
    )


def feasibility_table(
    eps_values=(0.05, 0.1, 0.2),
    delta_values=(0.05, 0.1, 0.2),
    config: BFCEConfig = DEFAULT_CONFIG,
) -> list[dict]:
    """Max guaranteed cardinality per (ε, δ) cell for capacity planning."""
    rows = []
    for eps in eps_values:
        for delta in delta_values:
            req = AccuracyRequirement(float(eps), float(delta))
            rows.append(
                {
                    "eps": float(eps),
                    "delta": float(delta),
                    "max_n": float(
                        np.floor(max_guaranteed_cardinality(req, config))
                    ),
                }
            )
    return rows
