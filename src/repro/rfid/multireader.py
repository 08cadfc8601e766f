"""Multi-reader deployments: synchronized readers as one logical reader.

The paper's system model (Sec. III-A) allows multiple readers connected to a
back-end server that "can coordinate and synchronize all the readers, so ...
these readers can be logically considered as one reader" [14].  This module
makes that concrete for BFCE — and shows *why* it works:

Because the Bloom vector is an OR-accumulation of tag responses, a set of
readers that broadcast the **same seeds and persistence** observe vectors
whose slot-wise OR of busy flags equals exactly the vector one giant reader
covering the union would have observed.  The server merges per-reader busy
vectors (`B_union(i) busy ⟺ busy at ≥ 1 reader`) and runs the ordinary BFCE
math on the merged vector — estimating the cardinality of the *union* of
coverage regions without double-counting tags heard by several readers.

Contrast: summing per-reader independent estimates over-counts every tag in
an overlap region once per extra reader that hears it
(:func:`naive_sum_estimate` quantifies the error the coordination removes —
the flaw the paper notes in Shah-Mansouri's multi-reader assumption [22]).

Air-time accounting: synchronized readers run their frames *concurrently*
(they are on the same back-end clock), so wall-clock time equals one
reader's time, not the sum.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from ..core.accuracy import AccuracyRequirement
from ..core.config import BFCEConfig, DEFAULT_CONFIG
from ..core.estmath import estimate_cardinality, rho_is_valid
from ..core.optimal_p import find_optimal_pn
from ..core.probe import probe_persistence
from ..core.rough import rough_estimate
from ..obs import metrics as _metrics
from ..rfid.reader import Reader
from ..timing.accounting import TimeLedger
from .frames import slot_response_counts
from .tags import TagPopulation

if TYPE_CHECKING:
    from ..core.bfce import Sense

__all__ = [
    "CoverageMap",
    "MultiReaderResult",
    "MultiReaderSystem",
    "naive_sum_estimate",
    "OverlapEstimate",
    "estimate_pairwise_overlap",
    "SketchCoordinator",
    "SketchAggregateResult",
    "sketch_union_estimate",
]


@dataclass(frozen=True)
class CoverageMap:
    """Which tags each reader can hear.

    Attributes
    ----------
    tag_ids:
        The union population (unique IDs).
    memberships:
        Boolean matrix of shape ``(n_readers, n_tags)``; entry (r, t) is
        True when reader ``r`` covers tag ``t``.  Every tag must be covered
        by at least one reader.
    """

    tag_ids: np.ndarray
    memberships: np.ndarray

    def __post_init__(self) -> None:
        ids = np.asarray(self.tag_ids, dtype=np.uint64)
        mem = np.asarray(self.memberships, dtype=bool)
        if mem.ndim != 2 or mem.shape[1] != ids.size:
            raise ValueError("memberships must be (n_readers, n_tags)")
        if mem.shape[0] == 0:
            raise ValueError("need at least one reader")
        if ids.size and not mem.any(axis=0).all():
            raise ValueError("every tag must be covered by at least one reader")
        object.__setattr__(self, "tag_ids", ids)
        object.__setattr__(self, "memberships", mem)

    @property
    def n_readers(self) -> int:
        return int(self.memberships.shape[0])

    @property
    def union_size(self) -> int:
        return int(self.tag_ids.size)

    def reader_population(self, r: int) -> TagPopulation:
        """The tags audible to reader ``r``."""
        return TagPopulation(self.tag_ids[self.memberships[r]])

    @classmethod
    def random_overlap(
        cls,
        tag_ids: np.ndarray,
        n_readers: int,
        *,
        overlap: float = 0.2,
        seed: int = 0,
    ) -> "CoverageMap":
        """Partition tags across readers with a fraction heard by two.

        Each tag gets one primary reader uniformly; with probability
        ``overlap`` it is additionally heard by the next reader (a simple
        adjacent-cell overlap model).
        """
        if n_readers <= 0:
            raise ValueError("n_readers must be positive")
        if not 0 <= overlap <= 1:
            raise ValueError("overlap must be in [0, 1]")
        ids = np.asarray(tag_ids, dtype=np.uint64)
        rng = np.random.default_rng(seed)
        primary = rng.integers(0, n_readers, size=ids.size)
        mem = np.zeros((n_readers, ids.size), dtype=bool)
        mem[primary, np.arange(ids.size)] = True
        if n_readers > 1:
            extra = rng.random(ids.size) < overlap
            mem[(primary + 1) % n_readers, np.arange(ids.size)] |= extra
        return cls(tag_ids=ids, memberships=mem)


@dataclass(frozen=True)
class MultiReaderResult:
    """Outcome of a synchronized multi-reader BFCE execution."""

    n_hat: float
    n_low: float
    pn_optimal: int
    wallclock_seconds: float
    total_air_seconds: float
    n_readers: int
    guarantee_met: bool
    ledger: TimeLedger

    def relative_error(self, n_true: float) -> float:
        if n_true <= 0:
            raise ValueError("n_true must be positive")
        return abs(self.n_hat - n_true) / n_true


@dataclass
class MultiReaderSystem:
    """A back-end server driving synchronized readers over a coverage map.

    The server plans seeds/persistence once per phase; every reader runs the
    identical frame against its own audible tags; per-slot busy flags are
    OR-merged server-side.  The planning phases (probe + rough) run on the
    merged view too, so the whole protocol is exactly single-reader BFCE on
    the union.

    Parameters
    ----------
    coverage:
        Reader-to-tag audibility.
    config, requirement:
        BFCE constants and the (ε, δ) target.
    """

    coverage: CoverageMap
    config: BFCEConfig = field(default_factory=lambda: DEFAULT_CONFIG)
    requirement: AccuracyRequirement = field(default_factory=AccuracyRequirement)

    def _merged_sense(self) -> Sense:
        """Sense function of the synchronized readers: OR-merged frames.

        Ledger convention: the broadcast + frame cost is charged once on the
        server reader (readers run concurrently); per-reader air adds to
        ``total_air`` through the caller's accounting.
        """
        # Local import: repro.core.bfce imports this package back.
        from ..core.bfce import _phase_message

        cfg = self.config
        message = _phase_message(cfg)
        populations = [
            self.coverage.reader_population(r) for r in range(self.coverage.n_readers)
        ]

        def sense(servers, pns, observe_slots, phase):
            rhos = []
            for server, pn in zip(servers, pns):
                seeds = server.fresh_seeds(cfg.k)
                server.ledger.record_downlink(message.bits, phase=phase, label="params")
                busy_union = np.zeros(observe_slots, dtype=bool)
                for pop in populations:
                    counts = slot_response_counts(pop, w=cfg.w, seeds=seeds, p_n=pn)
                    busy_union |= counts[:observe_slots] > 0
                server.ledger.record_uplink(observe_slots, phase=phase, label="frame")
                rhos.append(float((~busy_union).mean()))
            return rhos

        return sense

    def estimate(self, *, seed: int = 0) -> MultiReaderResult:
        """Estimate the union cardinality with synchronized BFCE."""
        # Local import: repro.core.bfce imports this package back.
        from ..core.bfce import accurate_phase

        cfg = self.config
        union_pop = TagPopulation(self.coverage.tag_ids.copy())
        # Probe and rough phases are identical to single-reader BFCE on the
        # union (the OR-merge equivalence), so run them on a virtual reader
        # and reuse its ledger.
        server = Reader(union_pop, seed=seed)
        probe = probe_persistence(server, cfg)
        rough = rough_estimate(server, probe.pn, cfg)
        if rough.n_low <= 0:
            return MultiReaderResult(
                n_hat=0.0, n_low=0.0, pn_optimal=cfg.pn_max,
                wallclock_seconds=server.elapsed_seconds(),
                total_air_seconds=server.elapsed_seconds() * self.coverage.n_readers,
                n_readers=self.coverage.n_readers,
                guarantee_met=False, ledger=server.ledger,
            )
        opt = find_optimal_pn(rough.n_low, self.requirement, cfg)

        # Accurate phase: explicitly synchronized across physical readers,
        # under single-reader BFCE's retry and fail-fast rules.
        [(n_hat, _, pn_final, retries)] = accurate_phase(
            [server], [opt.pn], self._merged_sense(), cfg
        )
        wall = server.elapsed_seconds()
        _metrics.inc("multireader.estimates")
        return MultiReaderResult(
            n_hat=n_hat,
            n_low=rough.n_low,
            pn_optimal=pn_final,
            wallclock_seconds=wall,
            total_air_seconds=wall * self.coverage.n_readers,
            n_readers=self.coverage.n_readers,
            guarantee_met=opt.feasible and retries == 0,
            ledger=server.ledger,
        )


@dataclass(frozen=True)
class SketchAggregateResult:
    """Outcome of a sketch-based multi-reader aggregation.

    Unlike :class:`MultiReaderResult`, no synchronized frame ran: each reader
    summarised its own coverage independently and the back-end unioned the
    summaries.  ``wallclock_seconds`` prices the report round (readers upload
    their register arrays concurrently after one parameter broadcast), so it
    is independent of both n and the reader count — the air-time counterpart
    of the O(m) coordinator union.
    """

    n_hat: float
    n_readers: int
    p: int
    seed: int
    error_bound: float
    wallclock_seconds: float
    ledger: TimeLedger

    def relative_error(self, n_true: float) -> float:
        if n_true <= 0:
            raise ValueError("n_true must be positive")
        return abs(self.n_hat - n_true) / n_true


class SketchCoordinator:
    """Back-end register bank unioning per-reader HLL sketches in O(m).

    The coordinator pre-allocates one register row per reader; a reader's
    sketch report overwrites its row in place (re-reports are idempotent,
    and a reader that never reports contributes the all-zero row — the
    identity element of the register max).  :meth:`estimate` is one
    streaming element-wise max over the ``(R, m)`` bank plus the constant
    O(m) HLL estimate — no per-tag work, no reader synchronization, and no
    double-counting, because a tag heard by several readers writes the same
    rank into the same register of each row.

    Contrast with :class:`MultiReaderSystem`: the OR-merge there needs every
    reader to run the *same* frame at the same time; sketches merge after
    the fact, across any subset of readers, any number of times.

    ``p`` defaults to :data:`repro.sketch.DEFAULT_P` when None.
    """

    def __init__(
        self, n_readers: int, *, p: int | None = None, seed: int = 0
    ) -> None:
        # Local import: repro.sketch imports this package back (hashing,
        # _native), so the dependency must stay one-way at module load.
        from ..sketch.hll import DEFAULT_P, HLLSketch

        if n_readers <= 0:
            raise ValueError("n_readers must be positive")
        template = HLLSketch(DEFAULT_P if p is None else p, seed=seed)
        self.p = template.p
        self.seed = template.seed
        self.bank = np.zeros((n_readers, template.m), dtype=np.uint8)

    @property
    def n_readers(self) -> int:
        return int(self.bank.shape[0])

    @property
    def m(self) -> int:
        return int(self.bank.shape[1])

    def submit(self, reader_index: int, sketch) -> None:
        """Store reader ``reader_index``'s sketch report (overwriting)."""
        from ..sketch.hll import HLLSketch

        if not 0 <= reader_index < self.n_readers:
            raise ValueError(f"reader index {reader_index} out of range")
        if not isinstance(sketch, HLLSketch):
            raise TypeError(f"expected HLLSketch, got {type(sketch).__name__}")
        if sketch.p != self.p or sketch.seed != self.seed:
            raise ValueError(
                f"sketch (p={sketch.p}, seed={sketch.seed}) does not match "
                f"coordinator (p={self.p}, seed={self.seed})"
            )
        self.bank[reader_index] = sketch.registers

    def union_sketch(self):
        """The union of every reader's current sketch (a fresh sketch)."""
        from ..sketch.hll import HLLSketch, hll_union_registers

        _metrics.inc("sketch.unions")
        _metrics.inc("sketch.registers_merged", int(self.bank.size))
        return HLLSketch(
            self.p, seed=self.seed, registers=hll_union_registers(self.bank)
        )

    def estimate(self) -> float:
        """Union-cardinality estimate straight off the register bank."""
        from ..sketch.hll import hll_estimate, hll_union_registers

        _metrics.inc("sketch.unions")
        _metrics.inc("sketch.registers_merged", int(self.bank.size))
        return hll_estimate(hll_union_registers(self.bank))


def sketch_union_estimate(
    coverage: CoverageMap,
    *,
    p: int | None = None,
    seed: int = 0,
) -> SketchAggregateResult:
    """Estimate the union cardinality by per-reader sketches + coordinator.

    Each reader folds its audible tagIDs into its own HLL sketch (the fused
    register kernel does the per-tag work locally); the back-end unions the
    register bank and estimates.  Air-time convention matches
    :class:`MultiReaderSystem`: one parameter broadcast (seed + precision)
    and one concurrent register upload of ``m`` 6-bit rank slots, charged
    once — the report round costs the same at 2 readers and at 256.
    ``p`` defaults to :data:`repro.sketch.DEFAULT_P` when None.
    """
    from ..sketch.hll import HLLSketch, relative_error_bound

    ledger = TimeLedger()
    coordinator = SketchCoordinator(coverage.n_readers, p=p, seed=seed)
    ledger.record_downlink(40, phase="sketch", label="params")
    for r in range(coverage.n_readers):
        pop = coverage.reader_population(r)
        sketch = HLLSketch(coordinator.p, seed=seed)
        if pop.size:
            sketch.add_ids(pop.tag_ids)
        coordinator.submit(r, sketch)
    ledger.record_uplink(coordinator.m * 6, phase="sketch", label="registers")
    n_hat = coordinator.estimate()
    _metrics.inc("multireader.sketch_estimates")
    return SketchAggregateResult(
        n_hat=n_hat,
        n_readers=coverage.n_readers,
        p=coordinator.p,
        seed=coordinator.seed,
        error_bound=relative_error_bound(coordinator.p),
        wallclock_seconds=ledger.total_seconds(),
        ledger=ledger,
    )


def naive_sum_estimate(
    coverage: CoverageMap,
    *,
    requirement: AccuracyRequirement | None = None,
    config: BFCEConfig = DEFAULT_CONFIG,
    seed: int = 0,
) -> float:
    """Sum of per-reader independent BFCE estimates (the uncoordinated
    strawman): over-counts every overlap-region tag once per extra reader.

    Returned for comparison against :meth:`MultiReaderSystem.estimate`; its
    positive bias equals the expected number of duplicate coverage slots.
    """
    from ..core.bfce import BFCE

    req = requirement if requirement is not None else AccuracyRequirement()
    total = 0.0
    for r in range(coverage.n_readers):
        pop = coverage.reader_population(r)
        if pop.size == 0:
            continue
        total += BFCE(config=config, requirement=req).estimate(
            pop, seed=seed + 97 * r
        ).n_hat
    return total


@dataclass(frozen=True)
class OverlapEstimate:
    """Estimated cardinalities of two readers' coverage and their overlap."""

    n_a: float
    n_b: float
    n_union: float

    @property
    def n_intersection(self) -> float:
        """Inclusion–exclusion: |A ∩ B| = |A| + |B| − |A ∪ B| (clamped ≥ 0)."""
        return max(self.n_a + self.n_b - self.n_union, 0.0)

    @property
    def jaccard(self) -> float:
        """Estimated Jaccard similarity of the two coverage regions."""
        if self.n_union <= 0:
            return 0.0
        return self.n_intersection / self.n_union


def estimate_pairwise_overlap(
    coverage: CoverageMap,
    reader_a: int,
    reader_b: int,
    *,
    pn: int | None = None,
    config: BFCEConfig = DEFAULT_CONFIG,
    seed: int = 0,
) -> OverlapEstimate:
    """Estimate |A|, |B| and |A ∩ B| for two readers from three frames.

    Runs one synchronized frame (same seeds/persistence at both readers) and
    evaluates Eq. 3 three times: on reader A's vector, on reader B's, and on
    their OR-merge (= the union's vector).  Inclusion–exclusion then yields
    the overlap — the quantity Shah-Mansouri's multi-reader scheme [22]
    needed an unrealistic reply-once assumption to get.

    Parameters
    ----------
    pn:
        Persistence numerator; when None a probe+rough pass on the union
        picks a near-optimal one automatically.
    """
    if not (0 <= reader_a < coverage.n_readers and 0 <= reader_b < coverage.n_readers):
        raise ValueError("reader indices out of range")
    if reader_a == reader_b:
        raise ValueError("need two distinct readers")
    if pn is None:
        union_pop = TagPopulation(coverage.tag_ids.copy())
        server = Reader(union_pop, seed=seed)
        probe = probe_persistence(server, config)
        rough = rough_estimate(server, probe.pn, config)
        pn = rough.pn
    if not config.pn_min <= pn <= config.pn_max:
        raise ValueError(f"pn out of range [{config.pn_min}, {config.pn_max}]")

    rng = np.random.default_rng(seed + 0x0B1)
    seeds = rng.integers(0, 1 << 32, size=config.k, dtype=np.uint64)
    busy = []
    for r in (reader_a, reader_b):
        pop = coverage.reader_population(r)
        counts = slot_response_counts(pop, w=config.w, seeds=seeds, p_n=pn)
        busy.append(counts > 0)
    p = config.p_of(pn)

    def _estimate(busy_vec: np.ndarray) -> float:
        rho = float((~busy_vec).mean())
        if not rho_is_valid(rho):
            raise RuntimeError(
                f"overlap frame degenerate (rho={rho}); re-run with another pn"
            )
        return estimate_cardinality(rho, config.w, config.k, p)

    return OverlapEstimate(
        n_a=_estimate(busy[0]),
        n_b=_estimate(busy[1]),
        n_union=_estimate(busy[0] | busy[1]),
    )
