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
    "AnalyticRun",
    "TrialRecord",
    "run_trials",
    "baseline_trial_records",
    "bfce_trial_records",
    "run_bfce_trials",
    "run_bfce_analytic_runs",
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


def bfce_trial_records(
    results,
    *,
    n_true: int,
    base_seed: int,
    eps: float,
    delta: float,
    distribution: str,
    engine: str,
) -> list[TrialRecord]:
    """One :class:`TrialRecord` per BFCE result of seeds ``base_seed + t``."""
    return [
        TrialRecord(
            estimator="BFCE",
            n_true=n_true,
            n_hat=result.n_hat,
            error=result.relative_error(n_true),
            seconds=result.elapsed_seconds,
            seed=base_seed + t,
            eps=eps,
            delta=delta,
            distribution=distribution,
            extra={
                "n_low": result.n_low,
                "pn_optimal": result.pn_optimal,
                "guarantee_met": result.guarantee_met,
                "engine": engine,
            },
        )
        for t, result in enumerate(results)
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
    return bfce_trial_records(
        results,
        n_true=population.size,
        base_seed=base_seed,
        eps=eps,
        delta=delta,
        distribution=distribution,
        engine="serial",
    )


@dataclass(frozen=True)
class AnalyticRun:
    """One run of contiguous seeds ``base_seed …`` on the analytic BFCE tier."""

    n: int
    trials: int
    base_seed: int = 0
    eps: float = 0.05
    delta: float = 0.05
    distribution: str = ""
    config: BFCEConfig = DEFAULT_CONFIG
    channel: Channel | None = None
    persistence_mode: str = "event"

    def drive_key(self) -> tuple:
        """Runs with equal keys share one lockstep drive.

        Every reader of a drive senses through the first run's channel, so
        channels match by value only for the stateless built-in models; any
        other channel object shares a drive only with itself.
        """
        channel = self.channel
        if type(channel) not in (type(None), PerfectChannel, NoisyChannel):
            channel = id(channel)
        return (self.config, self.eps, self.delta, channel, self.persistence_mode)


def _drive_runs(runs: Sequence[AnalyticRun], drives: list[int]) -> list[list[TrialRecord]]:
    """One lockstep drive over every reader of ``runs`` (one drive key)."""
    first = runs[0]
    bfce = BFCE(config=first.config, requirement=AccuracyRequirement(first.eps, first.delta))
    ns = [run.n for run in runs for _ in range(run.trials)]
    seeds = [seed for run in runs for seed in range(run.base_seed, run.base_seed + run.trials)]
    drives.append(len(seeds))
    results = bfce.estimate_analytic_many(
        ns, seeds, channel=first.channel, persistence_mode=first.persistence_mode
    )
    records, start = [], 0
    for run in runs:
        records.append(
            bfce_trial_records(
                results[start:start + run.trials],
                n_true=run.n,
                base_seed=run.base_seed,
                eps=run.eps,
                delta=run.delta,
                distribution=run.distribution,
                engine="analytic",
            )
        )
        start += run.trials
    return records


def run_bfce_analytic_runs(
    runs: Sequence[AnalyticRun],
) -> tuple[list[list[TrialRecord] | Exception], list[int]]:
    """Every run's records, with one lockstep drive per drive key.

    Runs that share a config, an (ε, δ) requirement, a channel and a
    persistence mode advance all their readers through one
    :meth:`~repro.core.bfce.BFCE.estimate_analytic_many` drive; every
    reader keeps its own stream and ledger, so each run's records are
    bit-identical to running it alone.  A drive that raises is re-driven
    one run at a time, so only the runs that raise fail.  Returns the
    outcomes aligned with ``runs`` (a record list, or the exception the run
    raised) and the readers of each drive, in drive order.
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
    array.  The one-run case of :func:`run_bfce_analytic_runs`: all trials
    run in lockstep through one drive, each record bit-identical to a
    per-seed ``estimate_analytic`` under any channel.  Records are
    exact-in-distribution counterparts of the event engines' (never
    bit-identical); ``extra["engine"] = "analytic"``.
    """
    if isinstance(population, TagPopulation):
        n_true = population.size
        if persistence_mode is None:
            persistence_mode = population.persistence_mode
    else:
        n_true = int(population)
    run = AnalyticRun(
        n=n_true,
        trials=trials,
        base_seed=base_seed,
        eps=eps,
        delta=delta,
        distribution=distribution,
        config=config,
        channel=channel,
        persistence_mode=persistence_mode or "event",
    )
    [outcome], _ = run_bfce_analytic_runs([run])
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

