"""Batched Monte-Carlo trials: many BFCE executions in lockstep (bit-identical).

:func:`run_bfce_trials_batched` runs :meth:`~repro.core.bfce.BFCE.estimate_many`:
the protocol driver of :mod:`repro.core.bfce` advances all trials in lockstep
and executes each round's frames as one
:func:`~repro.rfid.frames.run_bfce_frame_batch` call, while every trial keeps
its own reader seed stream and ledger.  The records are therefore
bit-identical to the serial tier's.  Under a channel that makes batching
unsound (:func:`batching_is_sound`) the serial tier runs instead, and the
fallback is recorded (DESIGN.md §6).
"""

from __future__ import annotations

from ..core.accuracy import AccuracyRequirement
from ..core.bfce import BFCE, batching_is_sound
from ..core.config import BFCEConfig, DEFAULT_CONFIG
from ..obs.events import engine_fallback
from ..rfid.channel import Channel
from ..rfid.tags import TagPopulation

__all__ = ["run_bfce_trials_batched", "batching_is_sound"]


def run_bfce_trials_batched(
    population: TagPopulation,
    *,
    trials: int,
    eps: float = 0.05,
    delta: float = 0.05,
    base_seed: int = 0,
    distribution: str = "",
    config: BFCEConfig = DEFAULT_CONFIG,
    channel: Channel | None = None,
):
    """Batched equivalent of :func:`~repro.experiments.runner.run_bfce_trials`.

    Returns the same :class:`~repro.experiments.runner.TrialRecord` list —
    same order, bit-identical estimates, errors and metered seconds — while
    executing each lockstep protocol round as one batched kernel call.
    ``extra["engine"]`` records which engine actually ran: ``"batched"``
    normally, ``"serial"`` when the channel makes batching unsound and the
    per-trial fallback executes instead.
    """
    from .runner import bfce_trial_records  # local import: runner routes back here

    if trials <= 0:
        raise ValueError("trials must be positive")
    engine_ran = "batched"
    if not batching_is_sound(channel):
        engine_ran = "serial"
        engine_fallback(
            "run_bfce_trials_batched",
            requested="batched",
            actual="serial",
            reason=f"channel {type(channel).__name__} is unsound for batching",
        )
    bfce = BFCE(config=config, requirement=AccuracyRequirement(eps, delta))
    results = bfce.estimate_many(
        population, seeds=range(base_seed, base_seed + trials), channel=channel
    )
    return bfce_trial_records(
        results,
        n_true=population.size,
        base_seed=base_seed,
        eps=eps,
        delta=delta,
        distribution=distribution,
        engine=engine_ran,
    )
