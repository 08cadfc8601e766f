"""Rough lower-bound estimation phase (Sec. IV-C).

With the probed persistence ``p_s``, the reader runs one frame but terminates
it after 1024 of the announced 8192 bit-slots.  Because every slot is
identically distributed (uniform hashes), the idle ratio of the observed
prefix is an unbiased estimate of the full-frame ratio, so Eq. 3 applied with
the *full* ``w`` gives a rough estimate ``n̂_r``.  The phase returns

.. math:: \\hat n_{low} = c · \\hat n_r, \\qquad c = 0.5,

which under-shoots the true ``n`` with high probability — exactly what
Theorem 4 needs (it must evaluate feasibility at a value ≤ n).

If the observed prefix happens to be all-idle or all-busy (ρ̄ ∈ {0, 1}, the
two exceptions of Sec. IV-B — possible since the probe looked at only 32
slots), the phase retries with the numerator doubled / halved.  Each retry
costs another broadcast and 1024 slots and is recorded in the result.

The rule is implemented once, by :func:`repro.core.bfce.rough_phase`, which
advances many trials in lockstep; :func:`rough_estimate` runs it for a
single reader.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..rfid.reader import Reader
from .config import BFCEConfig, DEFAULT_CONFIG

__all__ = ["RoughResult", "rough_estimate"]

PHASE = "rough"


@dataclass(frozen=True)
class RoughResult:
    """Outcome of the rough-estimation phase.

    Attributes
    ----------
    n_rough:
        The unscaled rough estimate n̂_r from Eq. 3.
    n_low:
        The lower bound n̂_low = c·n̂_r handed to the accurate phase.
    pn:
        Persistence numerator actually used by the final (valid) frame.
    rho:
        Observed idle ratio of that frame.
    retries:
        Number of extra frames run because ρ̄ was 0 or 1.
    """

    n_rough: float
    n_low: float
    pn: int
    rho: float
    retries: int


def rough_estimate(
    reader: Reader,
    pn: int,
    config: BFCEConfig = DEFAULT_CONFIG,
    *,
    phase: str = PHASE,
) -> RoughResult:
    """Run the rough phase with probed numerator ``pn`` and return n̂_low."""
    if not config.pn_min <= pn <= config.pn_max:
        raise ValueError(f"pn must be in [{config.pn_min}, {config.pn_max}], got {pn}")
    # Deferred: repro.core.bfce imports RoughResult from this module.
    from .bfce import per_reader_sense, rough_phase

    [result] = rough_phase([reader], [pn], per_reader_sense(config), config, phase=phase)
    return result
