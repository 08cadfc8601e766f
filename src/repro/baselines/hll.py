"""HLL — HyperLogLog register-report estimator (mergeable baseline).

A comparison row for the sketch tier (Figs. 9–10 family): the reader
broadcasts one 40-bit parameter message (32-bit hash seed + precision),
every covered tag is folded into a ``2^p``-register HyperLogLog sketch
(:mod:`repro.sketch.hll`), and the tags report the register array back in
``m`` 6-bit rank slots.  One round, no adaptivity, and — unlike every other
estimator in this package — the *reports are mergeable*: two readers'
register arrays union by element-wise max with no double-counting, which is
what the multi-reader coordinator path
(:func:`repro.rfid.multireader.sketch_union_estimate`) builds on.

Accuracy is fixed by the precision, standard error ``~= 1.04 / sqrt(2^p)``
(~1.6 % at the default p = 12) — it does not tighten with n the way BFCE's
(ε, δ)-planned frames do, which is exactly the trade the comparison figures
are meant to show.
"""

from __future__ import annotations

from ..core.accuracy import AccuracyRequirement
from ..rfid.reader import Reader
from ..rfid.tags import TagPopulation
from ..sketch.hll import DEFAULT_P, hll_estimate, hll_registers, relative_error_bound
from .base import CardinalityEstimator, EstimationResult

__all__ = ["HLL", "HLL_PARAMS_BITS", "HLL_RANK_BITS"]

_PHASE = "hll"

#: Downlink parameter broadcast: 32-bit hash seed + 8-bit precision.
HLL_PARAMS_BITS = 40

#: Uplink bits per register slot: ranks fit 6 bits (max 64 - 4 + 1 = 61).
HLL_RANK_BITS = 6


class HLL(CardinalityEstimator):
    """Single-round HyperLogLog register-report estimator.

    Parameters
    ----------
    p:
        Sketch precision; ``m = 2^p`` registers, standard error
        ``1.04 / sqrt(m)``.
    requirement:
        Kept for the uniform estimator interface; HLL's accuracy comes from
        ``p``, not from an (ε, δ) plan.
    """

    name = "HLL"

    def __init__(
        self,
        p: int = DEFAULT_P,
        requirement: AccuracyRequirement | None = None,
    ) -> None:
        super().__init__(requirement)
        # Bound-check via the error bound helper (raises on a bad p the same
        # way HLLSketch would).
        if not 4 <= int(p) <= 16:
            raise ValueError(f"p must be in [4, 16], got {p}")
        self.p = int(p)

    @property
    def m(self) -> int:
        return 1 << self.p

    def estimate_many(self, population: TagPopulation, seeds) -> list[EstimationResult]:
        """Estimate once per reader seed.

        HLL has no frame to batch: one round is one fixed message pair and
        one fused register-kernel call, so the batched tier is this loop.
        """
        return [self.estimate(population, seed=int(s)) for s in seeds]

    def estimate_with_reader(self, reader: Reader) -> EstimationResult:
        seed = int(reader.fresh_seeds(1)[0])
        reader.broadcast_bits(HLL_PARAMS_BITS, phase=_PHASE, label="params")
        registers = hll_registers(reader.population.tag_ids, seed, self.p)
        reader.ledger.record_uplink(
            self.m * HLL_RANK_BITS, phase=_PHASE, label="registers"
        )
        n_hat = hll_estimate(registers)
        return self._result(
            n_hat,
            reader.ledger,
            rounds=1,
            extra={
                "p": self.p,
                "m": self.m,
                "error_bound": relative_error_bound(self.p),
            },
        )
