"""Trial runner: executes estimators and collects records.

One :class:`TrialRecord` captures a single protocol execution (one paper
"round"): the estimate, its relative error, the metered air time and the
protocol diagnostics.  :func:`run_trials` repeats an estimator with distinct
seeds; grids of such runs go through :mod:`repro.experiments.sweep`.
Everything is deterministic given the base seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from ..baselines.base import CardinalityEstimator
from ..baselines.lof import LOF
from ..baselines.src_protocol import SRC
from ..baselines.zoe import ZOE
from ..core.accuracy import AccuracyRequirement
from ..core.bfce import BFCE
from ..core.config import BFCEConfig, DEFAULT_CONFIG
from ..obs import metrics as _metrics
from ..obs.events import engine_fallback
from ..obs.trace import span as _span
from ..rfid.channel import Channel, NoisyChannel, PerfectChannel
from ..rfid.tags import TagPopulation

__all__ = [
    "BFCERun",
    "TrialRecord",
    "run_trials",
    "baseline_trial_records",
    "bfce_trial_records",
    "run_bfce_trials",
    "run_bfce_runs",
    "run_bfce_trials_analytic",
]


@dataclass(frozen=True)
class TrialRecord:
    """One protocol execution against a known ground truth."""

    estimator: str
    n_true: int
    n_hat: float
    error: float
    seconds: float
    seed: int
    eps: float
    delta: float
    distribution: str = ""
    extra: dict = field(default_factory=dict)

    @property
    def within_eps(self) -> bool:
        """Whether this trial met the ε-interval."""
        return self.error <= self.eps


def baseline_trial_records(
    results,
    *,
    n_true: int,
    base_seed: int,
    eps: float,
    delta: float,
    distribution: str,
    engine: str,
) -> list[TrialRecord]:
    """One :class:`TrialRecord` per baseline result of seeds ``base_seed + t``."""
    return [
        TrialRecord(
            estimator=result.estimator,
            n_true=n_true,
            n_hat=result.n_hat,
            error=result.relative_error(n_true),
            seconds=result.elapsed_seconds,
            seed=base_seed + t,
            eps=eps,
            delta=delta,
            distribution=distribution,
            extra={**result.extra, "engine": engine},
        )
        for t, result in enumerate(results)
    ]


def bfce_trial_records(runs, results, engine: str) -> list[list[TrialRecord]]:
    """Each :class:`BFCERun`'s records, from its slice of one drive's results.

    ``results`` holds the runs' trials back to back; trial ``t`` of a run
    is the seed ``base_seed + t``.
    """
    results = iter(results)
    return [
        [
            TrialRecord(
                estimator="BFCE",
                n_true=run.n,
                n_hat=result.n_hat,
                error=result.relative_error(run.n),
                seconds=result.elapsed_seconds,
                seed=run.base_seed + t,
                eps=run.eps,
                delta=run.delta,
                distribution=run.distribution,
                extra={
                    "n_low": result.n_low,
                    "pn_optimal": result.pn_optimal,
                    "guarantee_met": result.guarantee_met,
                    "engine": engine,
                },
            )
            for t, result in zip(range(run.trials), results)
        ]
        for run in runs
    ]


def run_bfce_trials(
    population: TagPopulation | int,
    *,
    trials: int,
    eps: float = 0.05,
    delta: float = 0.05,
    base_seed: int = 0,
    distribution: str = "",
    engine: str = "batched",
    config: BFCEConfig = DEFAULT_CONFIG,
    channel: Channel | None = None,
) -> list[TrialRecord]:
    """Run BFCE ``trials`` times with distinct reader seeds.

    Parameters
    ----------
    population:
        The tag population, or — with ``engine="analytic"`` only — a plain
        cardinality ``n`` (the analytic engine never builds an ID array).
    engine:
        The engine tier: ``"serial"`` runs one full protocol per trial,
        ``"batched"`` (default) advances all trials in lockstep through
        batched frame kernels (:mod:`repro.experiments.batch`), and
        ``"analytic"`` samples frame occupancies from their exact
        distribution in O(w) per frame (:mod:`repro.rfid.occupancy`),
        independent of n.  Serial and batched are bit-identical; analytic
        is exact-in-distribution only (DESIGN.md §6).  ``extra["engine"]``
        on each record names the engine that actually ran (a noisy channel
        makes the batched engine fall back to serial).
    config:
        Protocol constants.
    channel:
        Channel model threaded into every trial (default: perfect channel).
    """
    if engine not in ("batched", "serial", "analytic"):
        raise ValueError(
            f"engine must be 'batched', 'serial' or 'analytic', got {engine!r}"
        )
    common = dict(
        trials=trials,
        eps=eps,
        delta=delta,
        base_seed=base_seed,
        distribution=distribution,
        config=config,
        channel=channel,
    )
    if engine == "analytic":
        _metrics.inc("engine.select.analytic")
        return run_bfce_trials_analytic(population, **common)
    if not isinstance(population, TagPopulation):
        raise TypeError(
            "a plain cardinality requires engine='analytic'; event engines "
            "need a TagPopulation"
        )
    if engine != "serial":
        from .batch import run_bfce_trials_batched  # deferred: batch imports us

        _metrics.inc("engine.select.batched")
        return run_bfce_trials_batched(population, **common)
    _metrics.inc("engine.select.serial")
    bfce = BFCE(config=config, requirement=AccuracyRequirement(eps, delta))
    results = [
        bfce.estimate(population, seed=base_seed + t, channel=channel)
        for t in range(trials)
    ]
    run = BFCERun(n=population.size, **common)
    return bfce_trial_records([run], results, "serial")[0]


@dataclass(frozen=True)
class BFCERun:
    """One run of contiguous seeds ``base_seed …`` on a BFCE lockstep tier.

    Without a ``population`` the run is analytic: a virtual population of
    ``n`` tags under ``persistence_mode``, any channel.  With one it is
    batched on that population's tags (perfect channel; ``n`` is its size
    and the persistence mode its own).
    """

    n: int
    trials: int
    base_seed: int = 0
    eps: float = 0.05
    delta: float = 0.05
    distribution: str = ""
    config: BFCEConfig = DEFAULT_CONFIG
    channel: Channel | None = None
    persistence_mode: str = "event"
    population: TagPopulation | None = None

    def drive_key(self) -> tuple:
        """Runs with equal keys share one lockstep drive.

        The (ε, δ) requirement is not part of the key: each reader is
        planned with its own run's.  Batched runs share a drive when they
        share the population object — sweep points of one population key
        get the one shared population of
        :func:`~repro.experiments.workloads.population`.  Every analytic
        reader of a drive senses through the first run's channel, so
        channels match by value only for the stateless built-in models; any
        other channel object shares a drive only with itself.
        """
        if self.population is not None:
            return ("batched", self.config, id(self.population))
        channel = self.channel
        if type(channel) not in (type(None), PerfectChannel, NoisyChannel):
            channel = id(channel)
        return ("analytic", self.config, channel, self.persistence_mode)


def run_readers(runs: Sequence[BFCERun]) -> tuple[list[int], list[AccuracyRequirement]]:
    """The seed and the (ε, δ) requirement of every reader of ``runs``, run after run."""
    seeds = [seed for run in runs for seed in range(run.base_seed, run.base_seed + run.trials)]
    reqs = [req for run in runs for req in [AccuracyRequirement(run.eps, run.delta)] * run.trials]
    return seeds, reqs


def _drive_runs(runs: Sequence[BFCERun], drives: list[int]) -> list[list[TrialRecord]]:
    """One lockstep drive over every reader of ``runs`` (one drive key)."""
    first = runs[0]
    drives.append(sum(run.trials for run in runs))
    if first.population is None:
        seeds, requirements = run_readers(runs)
        results = BFCE(config=first.config).estimate_analytic_many(
            [run.n for run in runs for _ in range(run.trials)],
            seeds,
            channel=first.channel,
            persistence_mode=first.persistence_mode,
            requirements=requirements,
        )
        return bfce_trial_records(runs, results, "analytic")
    from . import batch  # deferred, and looked up per call: batch imports us

    records = iter(
        batch.run_bfce_trials_batched(
            first.population,
            trials=[run.trials for run in runs],
            eps=[run.eps for run in runs],
            delta=[run.delta for run in runs],
            base_seed=[run.base_seed for run in runs],
            distribution=first.distribution,
            config=first.config,
        )
    )
    return [[next(records) for _ in range(run.trials)] for run in runs]


def run_bfce_runs(
    runs: Sequence[BFCERun],
) -> tuple[list[list[TrialRecord] | Exception], list[int]]:
    """Every run's records, with one lockstep drive per drive key.

    Analytic runs that share a config, a channel and a persistence mode
    advance all their readers through one
    :meth:`~repro.core.bfce.BFCE.estimate_analytic_many` drive; batched
    runs on one population and config through one
    :func:`~repro.experiments.batch.run_bfce_trials_batched` drive.  Every
    reader keeps its own stream, ledger and (ε, δ) requirement, so each
    run's records are bit-identical to running it alone.  A drive that
    raises is re-driven one run at a time, so only the runs that raise
    fail.  Returns the outcomes aligned with ``runs`` (a record list, or
    the exception the run raised) and the readers of each drive, in drive
    order.
    """
    outcomes: list = [None] * len(runs)
    drives: list[int] = []
    groups: dict[tuple, list[int]] = {}
    for index, run in enumerate(runs):
        groups.setdefault(run.drive_key(), []).append(index)
    for indices in groups.values():
        try:
            records = _drive_runs([runs[i] for i in indices], drives)
        except Exception as exc:  # noqa: BLE001 — isolated per run below
            if len(indices) == 1:
                outcomes[indices[0]] = exc
                continue
            records = []
            for i in indices:
                try:
                    records.extend(_drive_runs([runs[i]], drives))
                except Exception as run_exc:  # noqa: BLE001 — this run's outcome
                    records.append(run_exc)
        for i, outcome in zip(indices, records):
            outcomes[i] = outcome
    return outcomes, drives


def run_bfce_trials_analytic(
    population: TagPopulation | int,
    *,
    trials: int,
    eps: float = 0.05,
    delta: float = 0.05,
    base_seed: int = 0,
    distribution: str = "",
    config: BFCEConfig = DEFAULT_CONFIG,
    channel: Channel | None = None,
    persistence_mode: str | None = None,
) -> list[TrialRecord]:
    """Run BFCE trials on the analytic occupancy engine (O(w) per frame).

    ``population`` may be a :class:`~repro.rfid.tags.TagPopulation` (its
    ``persistence_mode`` is honoured; its IDs are ignored) or a plain
    cardinality ``n`` — sweeps at n = 10⁷–10⁸ never materialise an ID
    array.  The one-run case of :func:`run_bfce_runs`: all trials
    run in lockstep through one drive, each record bit-identical to a
    per-seed ``estimate_analytic`` under any channel.  Records are
    exact-in-distribution counterparts of the event engines' (never
    bit-identical); ``extra["engine"] = "analytic"``.
    """
    if persistence_mode is None:
        persistence_mode = getattr(population, "persistence_mode", "event")
    run = BFCERun(
        n=population.size if isinstance(population, TagPopulation) else int(population),
        trials=trials,
        base_seed=base_seed,
        eps=eps,
        delta=delta,
        distribution=distribution,
        config=config,
        channel=channel,
        persistence_mode=persistence_mode,
    )
    [outcome], _ = run_bfce_runs([run])
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def run_trials(
    estimator: CardinalityEstimator,
    population: TagPopulation | int,
    *,
    trials: int,
    base_seed: int = 0,
    distribution: str = "",
    engine: str = "batched",
) -> list[TrialRecord]:
    """Run any baseline estimator ``trials`` times with distinct seeds.

    Parameters
    ----------
    population:
        The tag population, or — with ``engine="analytic"`` only — a plain
        cardinality ``n``.
    engine:
        The engine tier: ``"serial"`` runs one full protocol per trial,
        ``"batched"`` (default) runs all trials through the estimator's
        lockstep driver over batched frame kernels (``estimate_many``,
        dispatched by :mod:`repro.baselines.batch`), and ``"analytic"``
        samples each frame's sufficient statistic from its exact
        distribution (all trials in lockstep through one
        ``estimate_analytic_many`` call, LOF/ZOE/SRC only), with per-trial
        cost independent of n.  Serial and batched are
        bit-identical; analytic is exact-in-distribution only (DESIGN.md §6).
        Estimator subclasses, which may override any protocol step, fall
        back to the serial path, which is always sound, while the analytic
        engine raises for them (serial needs a real population).
        ``extra["engine"]`` on each record names the engine that actually
        ran, and the fallback is counted (``engine.fallback``) and surfaced
        as an :class:`~repro.obs.EngineFallbackWarning` so throughput
        surprises are diagnosable.
    """
    if engine not in ("batched", "serial", "analytic"):
        raise ValueError(
            f"engine must be 'batched', 'serial' or 'analytic', got {engine!r}"
        )
    req = estimator.requirement
    common = dict(
        base_seed=base_seed, eps=req.eps, delta=req.delta, distribution=distribution
    )
    if engine == "analytic":
        _metrics.inc("engine.select.analytic")
        if trials <= 0:
            raise ValueError("trials must be positive")
        if type(estimator) not in (LOF, ZOE, SRC):
            raise ValueError(
                f"{type(estimator).__name__} is not supported by the analytic "
                "engine; use the serial engine"
            )
        n = population.size if isinstance(population, TagPopulation) else int(population)
        results = estimator.estimate_analytic_many(n, range(base_seed, base_seed + trials))
        return baseline_trial_records(results, n_true=n, engine="analytic", **common)
    if not isinstance(population, TagPopulation):
        raise TypeError(
            "a plain cardinality requires engine='analytic'; event engines "
            "need a TagPopulation"
        )
    if engine != "serial" and trials > 0:
        from ..baselines.batch import baseline_batchable, run_baseline_trials_batched

        if baseline_batchable(estimator):
            _metrics.inc("engine.select.batched")
            return run_baseline_trials_batched(
                estimator,
                population,
                trials=trials,
                base_seed=base_seed,
                distribution=distribution,
            )
        engine_fallback(
            "run_trials",
            requested=engine,
            actual="serial",
            reason=f"{type(estimator).__name__} is not batchable",
        )
    _metrics.inc("engine.select.serial")
    results = []
    for t in range(trials):
        with _span("trial", engine="serial", estimator=type(estimator).__name__) as sp:
            result = estimator.estimate(population, seed=base_seed + t)
            if sp:
                sp.set(n_hat=result.n_hat, elapsed_seconds=result.elapsed_seconds)
        results.append(result)
    return baseline_trial_records(
        results, n_true=population.size, engine="serial", **common
    )

