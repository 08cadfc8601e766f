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

import numpy as np

from ..core.bfce import BFCE, batching_is_sound
from ..core.config import BFCEConfig, DEFAULT_CONFIG
from ..obs.events import engine_fallback
from ..rfid.channel import Channel
from ..rfid.tags import TagPopulation

__all__ = ["run_bfce_trials_batched", "batching_is_sound"]


def run_bfce_trials_batched(
    population: TagPopulation,
    *,
    trials,
    eps=0.05,
    delta=0.05,
    base_seed=0,
    distribution: str = "",
    config: BFCEConfig = DEFAULT_CONFIG,
    channel: Channel | None = None,
):
    """Batched equivalent of :func:`~repro.experiments.runner.run_bfce_trials`.

    Returns the same :class:`~repro.experiments.runner.TrialRecord` list —
    same order, bit-identical estimates, errors and metered seconds — while
    executing each lockstep protocol round as one batched kernel call.
    ``trials``, ``eps``, ``delta`` and ``base_seed`` describe one run, or
    are equal-length sequences describing one run each: every run's
    readers then share one lockstep drive, each planned with its own run's
    (ε, δ) requirement, and the records come back run after run, each run's
    bit-identical to running it alone.  ``extra["engine"]`` records which
    engine actually ran: ``"batched"`` normally, ``"serial"`` when the
    channel makes batching unsound and the per-trial fallback executes
    instead.
    """
    from .runner import BFCERun, bfce_trial_records, run_readers  # runner routes back here

    columns = (trials, eps, delta, base_seed)
    if np.ndim(trials) == 0:
        columns = tuple([value] for value in columns)
    runs = [
        BFCERun(
            n=population.size, trials=t, base_seed=b, eps=e, delta=d,
            distribution=distribution, config=config,
        )
        for t, e, d, b in zip(*columns, strict=True)
    ]
    if not runs or any(run.trials <= 0 for run in runs):
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
    seeds, requirements = run_readers(runs)
    results = BFCE(config=config).estimate_many(
        population, seeds, channel=channel, requirements=requirements
    )
    return [record for run in bfce_trial_records(runs, results, engine_ran) for record in run]
