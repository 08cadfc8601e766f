"""Batched multi-trial adapter for the baseline estimators (LOF, ZOE, SRC, HLL).

Each baseline's protocol is written once (:mod:`repro.baselines.lockstep`);
its batched tier, ``estimate_many``, runs that driver over one
:class:`~repro.rfid.reader.Reader` per trial with the batched frame source,
so every resulting record is bit-identical to the serial estimator's —
estimate, metered seconds, communication totals and diagnostics.  This
module is the :func:`~repro.experiments.runner.run_trials` side of it:
dispatch by exact estimator type, tracing, and the trial records.

Estimator subclasses (which may override any part of the protocol) are
reported by :func:`baseline_batchable`; callers fall back to the serial
per-trial path, which is always sound.
"""

from __future__ import annotations

from ..obs import metrics as _metrics
from ..obs.trace import event as _event, span as _span
from ..rfid.tags import TagPopulation
from .base import CardinalityEstimator
from .hll import HLL
from .lof import LOF
from .src_protocol import SRC
from .zoe import ZOE

__all__ = ["baseline_batchable", "run_baseline_trials_batched"]

#: Exact estimator type -> its batched tier, called as
#: ``runner(estimator, population, seeds)``.  Looked up at call time.
_BATCH_RUNNERS = {cls: cls.estimate_many for cls in (LOF, ZOE, SRC, HLL)}


def baseline_batchable(estimator: CardinalityEstimator) -> bool:
    """Whether the batched tier can run ``estimator`` bit-identically.

    Exact-type checks, not ``isinstance``: a subclass may override any part
    of the protocol, which the batched tier cannot know about.
    """
    return type(estimator) in _BATCH_RUNNERS


def run_baseline_trials_batched(
    estimator: CardinalityEstimator,
    population: TagPopulation,
    *,
    trials: int,
    base_seed: int = 0,
    distribution: str = "",
):
    """Batched equivalent of :func:`~repro.experiments.runner.run_trials`.

    Returns the same :class:`~repro.experiments.runner.TrialRecord` list —
    same order, bit-identical estimates, errors, diagnostics and metered
    seconds — for any estimator :func:`baseline_batchable` accepts.  Each
    record carries ``extra["engine"] = "batched"`` so callers (and the sweep
    cache key) can tell which engine actually ran.
    """
    from ..experiments.runner import baseline_trial_records  # runner routes here

    if trials <= 0:
        raise ValueError("trials must be positive")
    if not baseline_batchable(estimator):
        raise ValueError(
            f"{type(estimator).__name__} is not batchable; use the serial engine"
        )
    runner = _BATCH_RUNNERS[type(estimator)]
    _metrics.inc("engine.trials.batched", trials)
    with _span(
        "batch.baseline", estimator=type(estimator).__name__, trials=trials
    ):
        results = runner(estimator, population, range(base_seed, base_seed + trials))
    for t, result in enumerate(results):
        _event(
            "trial",
            engine="batched",
            estimator=result.estimator,
            seed=base_seed + t,
            n_hat=result.n_hat,
            elapsed_seconds=result.elapsed_seconds,
        )
    _metrics.inc(
        "ledger.elapsed_seconds_total", sum(r.elapsed_seconds for r in results)
    )
    return baseline_trial_records(
        results,
        n_true=population.size,
        base_seed=base_seed,
        eps=estimator.requirement.eps,
        delta=estimator.requirement.delta,
        distribution=distribution,
        engine="batched",
    )
