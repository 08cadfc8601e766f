"""BFCE: the two-phase constant-time cardinality estimator (Sec. IV).

One execution runs the whole protocol of Algorithms 1–2 against a tag
population:

1. **Probe** — adaptively find a persistence ``p_s`` giving a mixed frame
   (a handful of 32-slot rounds, Sec. IV-C; :mod:`repro.core.probe`).
2. **Rough phase** — one 1024-slot truncated frame at ``p_s``; produces the
   rough estimate ``n̂_r`` and lower bound ``n̂_low = c·n̂_r``
   (:mod:`repro.core.rough`).
3. **Optimal-p search** — reader-side brute force over the 1/1024 grid for
   the minimal ``p_o`` satisfying Theorem 4 at ``n̂_low`` (no air time).
4. **Accurate phase** — one full 8192-slot frame at ``p_o``; Eq. 3 turns the
   observed idle ratio into the final estimate ``n̂``.

The control flow is written once, as a lockstep driver: one reader per
trial, all advanced through the four steps behind an active mask, each
protocol round one call to a :data:`Sense` function returning each active
reader's observed idle ratio ρ̄.  There are three:

* :func:`per_reader_sense` airs each frame through its reader's own
  ``sense_frame`` (event or analytic reader, any channel) — the serial
  tier and the stand-alone probe/rough helpers;
* :func:`batched_sense` runs a round's frames as one batched kernel call
  over a shared population (perfect channel), so
  :meth:`BFCE.estimate_many` is bit-identical to one :meth:`BFCE.estimate`
  per seed;
* :func:`analytic_sense` samples every active
  :class:`~repro.rfid.occupancy.AnalyticReader`'s frame from that reader's
  own stream in one lean round (no ``FrameResult``, counters and kernel
  metrics written once per round), so :meth:`BFCE.estimate_analytic_many`
  is bit-identical to one :meth:`BFCE.estimate_analytic` per seed under any
  channel, and readers of different ``n`` can share one drive.

The (ε, δ) requirement enters only at the optimal-p search (step 3), so
each reader of a drive is planned with its own and readers of many
requirements share one drive.

Everything is metered on the readers' :class:`~repro.timing.TimeLedger`; the
returned :class:`BFCEResult` carries the estimate, the per-phase diagnostics
and the total execution time, which for the default configuration stays below
the paper's 0.19 s bound plus a few milliseconds of probing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..obs import metrics as _metrics
from ..obs.events import ledger_crosscheck
from ..obs.trace import enabled as _tracing, event as _event, ledger_phase_cums, span as _span
from ..rfid.channel import Channel, PerfectChannel
from ..rfid.frames import _BatchWorkspace, run_bfce_frame_batch
from ..rfid.occupancy import AnalyticReader, sense_round
from ..rfid.protocol import bfce_phase_message
from ..rfid.reader import Reader
from ..rfid.tags import TagPopulation
from ..timing.accounting import TimeLedger
from .accuracy import AccuracyRequirement
from .config import BFCEConfig, DEFAULT_CONFIG
from .estmath import estimate_cardinality, rho_is_valid
from .optimal_p import find_optimal_pn
from .probe import PHASE as PROBE_PHASE
from .probe import ProbeResult
from .rough import PHASE as ROUGH_PHASE
from .rough import RoughResult

__all__ = [
    "BFCE",
    "BFCEResult",
    "Sense",
    "accurate_phase",
    "analytic_sense",
    "batched_sense",
    "batching_is_sound",
    "bfce_estimate",
    "per_reader_sense",
]

ACCURATE_PHASE = "accurate"
#: Cap on all-idle/all-busy retries; 2·log2(1024) steps suffice to traverse
#: the whole numerator grid by doubling/halving.
_MAX_ROUGH_RETRIES = 20
_MAX_ACCURATE_RETRIES = 8
#: Grid resolution baked into the event tag hash (frames.py kernels).
_EVENT_PN_DENOM = 1024

#: The :class:`BFCEResult` fields each trial's trace record carries.
_TRACED_FIELDS = (
    "n_hat", "n_rough", "pn_probe", "pn_optimal", "rho_final",
    "guarantee_met", "probe_rounds", "elapsed_seconds",
)

#: ``sense(active_readers, pns, observe_slots, phase) -> idle ratios ρ̄``:
#: one protocol round — a parameter broadcast and a frame at ``pns[i]`` for
#: every active reader, metered on that reader's ledger under ``phase``.
Sense = Callable[[Sequence, Sequence[int], int, str], list[float]]


@dataclass(frozen=True)
class BFCEResult:
    """Full outcome of one BFCE execution.

    Attributes
    ----------
    n_hat:
        Final cardinality estimate (Eq. 3 on the accurate frame).
    n_rough, n_low:
        Rough-phase estimate and the derived lower bound c·n̂_r.
    pn_probe, pn_rough, pn_optimal:
        Persistence numerators: accepted by the probe, used by the final
        rough frame, and selected for the accurate frame.
    rho_final:
        Idle ratio observed by the accurate frame.
    guarantee_met:
        True when Theorem 4's conditions were satisfiable on the grid (so
        the (ε, δ) guarantee holds); False for the best-effort fallback.
    probe_rounds, rough_retries, accurate_retries:
        Extra-work diagnostics.
    elapsed_seconds:
        Total metered reader↔tag time, probing included.
    ledger:
        The full message ledger (per-phase breakdown available via
        ``ledger.phase_breakdown()``).
    """

    n_hat: float
    n_rough: float
    n_low: float
    pn_probe: int
    pn_rough: int
    pn_optimal: int
    rho_final: float
    guarantee_met: bool
    probe_rounds: int
    rough_retries: int
    accurate_retries: int
    elapsed_seconds: float
    ledger: TimeLedger

    def relative_error(self, n_true: float) -> float:
        """The paper's accuracy metric |n̂ − n| / n."""
        if n_true <= 0:
            raise ValueError("n_true must be positive")
        return abs(self.n_hat - n_true) / n_true


# ----------------------------------------------------------------------
# Sense functions: one protocol round for every active reader
# ----------------------------------------------------------------------
def _phase_message(config: BFCEConfig):
    return bfce_phase_message(
        config.k,
        preloaded_constants=config.preloaded_constants,
        seed_bits=config.seed_bits,
        p_bits=config.p_bits,
    )


def batching_is_sound(channel: Channel | None) -> bool:
    """Whether :func:`batched_sense` may run frames under ``channel``.

    Batching executes every active trial's frame in one kernel call, so the
    channel must be a pure function of the slot counts.  Exactly the perfect
    channel qualifies (a subclass could override ``observe`` with stateful
    noise, hence the exact-type check); anything else runs per reader, where
    each reader's RNG consumption order is trivially preserved.
    """
    return channel is None or type(channel) is PerfectChannel


def per_reader_sense(config: BFCEConfig) -> Sense:
    """Air each active reader's frame through its own air interface."""
    message = _phase_message(config)

    def sense(readers, pns, observe_slots, phase):
        rhos = []
        for reader, pn in zip(readers, pns):
            with _span("frame", pn=pn, slots=observe_slots) as fr:
                reader.broadcast(message, phase=phase)
                frame = reader.sense_frame(
                    w=config.w,
                    seeds=reader.fresh_seeds(config.k),
                    p_n=pn,
                    observe_slots=observe_slots,
                    phase=phase,
                )
                if fr:
                    fr.set(rho=frame.rho)
            rhos.append(frame.rho)
        return rhos

    return sense


def batched_sense(population: TagPopulation, config: BFCEConfig) -> Sense:
    """Run every active reader's frame as one batched kernel call.

    Per reader this mirrors :func:`per_reader_sense` — broadcast, ``k`` seeds
    from the reader's own stream, frame, uplink — and the batched kernel
    reproduces the serial one slot for slot.  Perfect channel only.  The
    drive's rounds share one workspace (prefix indexes built once).
    """
    message = _phase_message(config)
    workspace = _BatchWorkspace()

    def sense(readers, pns, observe_slots, phase):
        with _span("frame.batch", phase=phase, trials=len(readers), slots=observe_slots) as sp:
            seeds = np.empty((len(readers), config.k), dtype=np.uint64)
            for row, reader in enumerate(readers):
                reader.broadcast(message, phase=phase)
                seeds[row] = reader.fresh_seeds(config.k)
            batch = run_bfce_frame_batch(
                population,
                w=config.w,
                seeds=seeds,
                p_n=np.asarray(pns, dtype=np.int64),
                observe_slots=observe_slots,
                workspace=workspace,
            )
            for reader in readers:
                reader.ledger.record_uplink(observe_slots, phase=phase, label="frame")
            idle = int(batch.blooms.sum())
            _metrics.inc("frame.count", len(readers))
            _metrics.inc("frame.slots.idle", idle)
            _metrics.inc("frame.slots.busy", len(readers) * observe_slots - idle)
            if sp:
                sp.set(idle_slots=idle)
        # Row means equal the serial kernel's ``float(bloom.mean())`` bit for bit.
        return batch.blooms.mean(axis=1).tolist()

    return sense


def analytic_sense(config: BFCEConfig) -> Sense:
    """Sample every active analytic reader's frame in one lean round.

    Per reader this is :func:`per_reader_sense` over
    :meth:`~repro.rfid.occupancy.AnalyticReader.sense_frame`, run by
    :func:`~repro.rfid.occupancy.sense_round` without the per-frame
    wrappers: no ``FrameResult``, span or array, and the frame counters and
    kernel metrics written once per round.  Each reader draws only from its
    own stream, so any channel is sound.
    """
    message = _phase_message(config)
    w, k = config.w, config.k

    def sense(readers, pns, observe_slots, phase):
        idle = sense_round(
            readers, pns, w=w, k=k, observe_slots=observe_slots, phase=phase,
            message=message,
        )
        # The same single rounded division as sense_frame's ρ̄.
        return [ones / observe_slots for ones in idle]

    return sense


# ----------------------------------------------------------------------
# The protocol phases, each advancing every trial in lockstep
# ----------------------------------------------------------------------
def _lockstep(readers, pns, sense: Sense, observe_slots: int, phase: str, settle) -> list:
    """Frame rounds behind an active mask until ``settle`` retires every trial.

    Each round senses one frame for every still-active reader (one ``sense``
    call).  ``settle(history, rho)`` sees the numerators the trial has aired
    so far (the last one just now) and returns ``(result, next_pn)``; a
    ``None`` result keeps the trial active for a frame at ``next_pn``.
    """
    histories = [[pn] for pn in pns]
    results = [None] * len(readers)
    active = list(range(len(readers)))
    with _span(phase, trials=len(readers)):
        while active:
            rhos = sense(
                [readers[t] for t in active],
                [histories[t][-1] for t in active],
                observe_slots,
                phase,
            )
            still = []
            for t, rho in zip(active, rhos):
                results[t], next_pn = settle(histories[t], rho)
                if results[t] is None:
                    histories[t].append(next_pn)
                    still.append(t)
            active = still
    return results


def probe_phase(
    readers, sense: Sense, config: BFCEConfig, *, phase: str = PROBE_PHASE
) -> list[ProbeResult]:
    """Walk every trial's ``p_s`` until a probe round mixes (Sec. IV-C)."""

    def settle(history, rho):
        pn, rounds = history[-1], len(history)
        if rho_is_valid(rho):
            return ProbeResult(pn=pn, rounds=rounds, mixed=True, history=tuple(history)), pn
        if rho == 1.0:
            # All idle: too few responses — raise p.
            new_pn = min(pn + config.probe_step_up, config.pn_max)
        else:
            # All busy: too many responses — lower p.
            new_pn = max(pn - config.probe_step_down, config.pn_min)
        if new_pn == pn or rounds == config.max_probe_rounds:
            # Stuck at a grid boundary, or out of rounds: accept the last
            # numerator actually probed.
            return ProbeResult(pn=pn, rounds=rounds, mixed=False, history=tuple(history)), pn
        return None, new_pn

    start = [config.probe_start_pn] * len(readers)
    results = _lockstep(readers, start, sense, config.probe_slots, phase, settle)
    _metrics.inc("probe.rounds", sum(r.rounds for r in results))
    return results


def _mixed_frames(
    readers, pns, sense: Sense, config: BFCEConfig,
    observe_slots: int, phase: str, max_retries: int, floor_fails_fast: bool,
) -> list[tuple[float, float, int, int]]:
    """Frames until each trial's idle ratio ρ̄ is neither 0 nor 1 (Sec. IV-B).

    A degenerate frame retries with the numerator doubled (all idle) or
    halved (all busy), clamped to the grid.  Returns per trial
    ``(n, rho, pn, retries)`` with ``n`` from Eq. 3 — or 0.0 when the frame
    stays all idle even at ``pn_max``, an effectively empty range.  With
    ``floor_fails_fast`` an all-busy frame at ``pn_min`` raises at once:
    halving can no longer move pn, so every retry would re-run a frame with
    identical parameters against a population too large for ``w``.
    """

    def settle(history, rho):
        pn, retries = history[-1], len(history) - 1
        if rho_is_valid(rho):
            n = estimate_cardinality(rho, config.w, config.k, config.p_of(pn))
            return (n, rho, pn, retries), pn
        if rho == 1.0 and pn == config.pn_max:
            return (0.0, rho, pn, retries), pn
        if floor_fails_fast and rho == 0.0 and pn == config.pn_min:
            raise RuntimeError(
                f"{phase} phase stuck all-busy at pn_min={pn} (rho=0.0): the "
                f"population is outside the estimable range for w={config.w}"
            )
        if retries >= max_retries:
            raise RuntimeError(
                f"{phase} phase could not obtain a mixed frame after {retries} "
                f"retries (last rho={rho}, pn={pn}): the population is outside "
                f"the estimable range for w={config.w}"
            )
        pn = min(pn * 2, config.pn_max) if rho == 1.0 else max(pn // 2, config.pn_min)
        return None, pn

    frames = _lockstep(readers, pns, sense, observe_slots, phase, settle)
    _metrics.inc(f"{phase}.retries", sum(f[3] for f in frames))
    return frames


def rough_phase(
    readers, pns, sense: Sense, config: BFCEConfig, *, phase: str = ROUGH_PHASE
) -> list[RoughResult]:
    """Truncated rough frames from each trial's probed numerator → n̂_low."""
    frames = _mixed_frames(
        readers, pns, sense, config, config.rough_slots, phase, _MAX_ROUGH_RETRIES, False
    )
    return [
        RoughResult(n_rough=n, n_low=config.c * n, pn=pn, rho=rho, retries=retries)
        for n, rho, pn, retries in frames
    ]


def accurate_phase(
    readers, pns, sense: Sense, config: BFCEConfig
) -> list[tuple[float, float, int, int]]:
    """The final full-w frame per trial: ``(n_hat, rho, pn, retries)``."""
    return _mixed_frames(
        readers, pns, sense, config, config.w, ACCURATE_PHASE, _MAX_ACCURATE_RETRIES, True
    )


class BFCE:
    """Bloom Filter based Cardinality Estimator.

    Parameters
    ----------
    config:
        Protocol constants (defaults to the paper's w=8192, k=3, c=0.5).
    requirement:
        The (ε, δ) accuracy requirement (defaults to (0.05, 0.05)).

    Example
    -------
    >>> from repro import BFCE, TagPopulation, uniform_ids
    >>> pop = TagPopulation(uniform_ids(50_000, seed=1))
    >>> result = BFCE().estimate(pop, seed=7)
    >>> abs(result.n_hat - 50_000) / 50_000 < 0.05
    True
    """

    def __init__(
        self,
        config: BFCEConfig = DEFAULT_CONFIG,
        requirement: AccuracyRequirement | None = None,
    ) -> None:
        self.config = config
        self.requirement = requirement if requirement is not None else AccuracyRequirement()

    # ------------------------------------------------------------------
    def estimate(
        self,
        population: TagPopulation,
        *,
        seed: int = 0,
        channel: Channel | None = None,
    ) -> BFCEResult:
        """Run the full two-phase protocol against ``population``."""
        reader = Reader(
            population,
            seed=seed,
            channel=channel if channel is not None else PerfectChannel(),
        )
        return self.estimate_with_reader(reader)

    def estimate_many(
        self,
        population: TagPopulation,
        seeds,
        *,
        channel: Channel | None = None,
        requirements: Sequence[AccuracyRequirement] | None = None,
    ) -> list[BFCEResult]:
        """Estimate once per reader seed, all trials in lockstep, batched.

        Equivalent bit for bit to ``[self.estimate(population, seed=s,
        channel=channel) for s in seeds]``.  When ``channel`` is unsound for
        batching (see :func:`batching_is_sound`) that expression is
        literally what runs.  ``requirements`` gives each seed its own
        (ε, δ) requirement (default: this estimator's).
        """
        seed_list = [int(s) for s in seeds]
        if not batching_is_sound(channel):
            reqs = requirements or [self.requirement] * len(seed_list)
            return [
                BFCE(self.config, req).estimate(population, seed=s, channel=channel)
                for s, req in zip(seed_list, reqs, strict=True)
            ]
        readers = [Reader(population, seed=s) for s in seed_list]
        sense = batched_sense(population, self.config)
        return self._drive(readers, sense, "batched", requirements)

    def estimate_analytic(
        self,
        n: int,
        *,
        seed: int = 0,
        channel: Channel | None = None,
        persistence_mode: str = "event",
    ) -> BFCEResult:
        """Run the protocol against a *virtual* population of ``n`` tags.

        Uses the analytic occupancy engine
        (:class:`~repro.rfid.occupancy.AnalyticReader`): each frame's slot
        counts are sampled from their exact distribution in O(w) instead of
        hashing ``n`` tags, so one execution costs the same at n = 10⁸ as at
        n = 10⁵ and no tagID array is ever materialised.  The result is
        exact in distribution but **not** bit-identical to
        :meth:`estimate` — same protocol, a different (equally valid)
        random execution.  See DESIGN.md §6 for the exactness contract.
        The one-seed case of :meth:`estimate_analytic_many`.
        """
        [result] = self.estimate_analytic_many(
            n, [seed], channel=channel, persistence_mode=persistence_mode
        )
        return result

    def estimate_analytic_many(
        self,
        n,
        seeds,
        *,
        channel: Channel | None = None,
        persistence_mode: str = "event",
        requirements: Sequence[AccuracyRequirement] | None = None,
    ) -> list[BFCEResult]:
        """:meth:`estimate_analytic` once per seed, all trials in lockstep.

        ``n`` is one cardinality for every seed, or a sequence giving each
        seed its own, and ``requirements`` one (ε, δ) per seed (default:
        this estimator's); one drive then serves readers of many
        populations and requirements.  Equivalent bit for bit to
        ``[self.estimate_analytic(n_s, seed=s, channel=channel,
        persistence_mode=persistence_mode) for n_s, s in zip(ns, seeds)]``
        under any channel: every reader keeps its own stream and ledger,
        and each round samples all active readers' frames in one
        :func:`analytic_sense` call.
        """
        channel = channel if channel is not None else PerfectChannel()
        seeds = [int(s) for s in seeds]
        ns = [int(n)] * len(seeds) if np.ndim(n) == 0 else [int(x) for x in n]
        if len(ns) != len(seeds):
            raise ValueError(f"{len(ns)} cardinalities for {len(seeds)} seeds")
        readers = [
            AnalyticReader(
                n_s,
                seed=s,
                channel=channel,
                persistence_mode=persistence_mode,
                pn_denom=self.config.pn_denom,
            )
            for n_s, s in zip(ns, seeds)
        ]
        return self._drive(readers, analytic_sense(self.config), "analytic", requirements)

    def estimate_with_reader(self, reader: Reader) -> BFCEResult:
        """Run the protocol on a caller-provided reader (ledger appended).

        ``reader`` may be any object implementing the Reader air interface
        (``broadcast`` / ``fresh_seeds`` / ``sense_frame`` / ledger) — the
        event :class:`~repro.rfid.reader.Reader` or the analytic
        :class:`~repro.rfid.occupancy.AnalyticReader`, which runs through
        :func:`analytic_sense` exactly as :meth:`estimate_analytic` does.
        """
        if type(reader) is AnalyticReader:
            return self._drive([reader], analytic_sense(self.config), "analytic")[0]
        return self._drive([reader], per_reader_sense(self.config), "serial")[0]

    # ------------------------------------------------------------------
    def _drive(
        self, readers: list, sense: Sense, engine: str, requirements=None
    ) -> list[BFCEResult]:
        """Probe → rough → plan → accurate for every reader, in lockstep.

        ``requirements[i]`` (default: this estimator's) plans reader ``i``'s
        accurate frame; nothing before the plan depends on it.  A lone trial
        is traced as one ``trial`` span; a run of several readers, on any
        tier, as one ``batch.estimate_many`` span with a ``trial`` event per
        trial.  Either way each trial leaves exactly one trial record.
        """
        cfg = self.config
        requirements = requirements or [self.requirement] * len(readers)
        if len(requirements) != len(readers):
            raise ValueError(f"{len(requirements)} requirements for {len(readers)} readers")
        for reader in readers:
            # The event tag hash is fixed at the paper's 1/1024 grid; only the
            # analytic reader resamples at an arbitrary resolution.  A
            # mismatched grid would silently desync the tags' response
            # probability from the estimator's p_of().
            reader_denom = getattr(reader, "pn_denom", _EVENT_PN_DENOM)
            if reader_denom != cfg.pn_denom:
                raise ValueError(
                    f"persistence-grid mismatch: config uses 1/{cfg.pn_denom} but "
                    f"the reader responds on 1/{reader_denom}; configs with "
                    f"pn_denom != {_EVENT_PN_DENOM} require engine='analytic'"
                )
        _metrics.inc(f"engine.trials.{engine}", len(readers))
        many = len(readers) > 1
        span_name = "batch.estimate_many" if many else "trial"
        with _span(span_name, engine=engine, trials=len(readers), w=cfg.w) as sp:
            # Trial events are never head-sampled; a lone trial's attrs ride
            # on its span only when that span is kept.
            traced = _tracing() if many else bool(sp)
            probes = probe_phase(readers, sense, cfg)
            roughs = rough_phase(readers, [p.pn for p in probes], sense, cfg)
            with _span("plan", trials=len(readers)):
                plans = [
                    find_optimal_pn(r.n_low, req, cfg) if r.n_low > 0 else None
                    for r, req in zip(roughs, requirements)
                ]
            finals = accurate_phase(
                readers, [cfg.pn_max if p is None else p.pn for p in plans], sense, cfg
            )
            results = []
            for reader, probe, rough, plan, (n_hat, rho, pn, retries) in zip(
                readers, probes, roughs, plans, finals
            ):
                result = BFCEResult(
                    n_hat=n_hat,
                    n_rough=rough.n_rough,
                    n_low=rough.n_low,
                    pn_probe=probe.pn,
                    pn_rough=rough.pn,
                    pn_optimal=pn,
                    rho_final=rho,
                    guarantee_met=plan is not None and plan.feasible and retries == 0,
                    probe_rounds=probe.rounds,
                    rough_retries=rough.retries,
                    accurate_retries=retries,
                    elapsed_seconds=reader.elapsed_seconds(),
                    ledger=reader.ledger,
                )
                phase_ledger = ledger_phase_cums(result.ledger)
                ledger_crosscheck(f"bfce.{engine}", result.elapsed_seconds, phase_ledger)
                if traced:
                    attrs = {f: getattr(result, f) for f in _TRACED_FIELDS}
                    attrs.update(engine=engine, seed=reader.seed, phase_ledger=phase_ledger)
                    if many:
                        _event("trial", **attrs)
                    else:
                        sp.set(**attrs)
                results.append(result)
            return results


def bfce_estimate(
    tag_ids: np.ndarray,
    *,
    eps: float = 0.05,
    delta: float = 0.05,
    seed: int = 0,
    config: BFCEConfig = DEFAULT_CONFIG,
) -> BFCEResult:
    """One-call convenience API: estimate the cardinality of a tagID set.

    Parameters
    ----------
    tag_ids:
        The (unique) tagIDs physically present in the reader's range.
    eps, delta:
        Accuracy requirement ``Pr{|n̂−n| ≤ eps·n} ≥ 1 − delta``.
    seed:
        Reader seed; fixes the whole execution for reproducibility.
    config:
        Protocol constants.
    """
    estimator = BFCE(config=config, requirement=AccuracyRequirement(eps, delta))
    return estimator.estimate(TagPopulation(np.asarray(tag_ids)), seed=seed)
