"""Baseline cardinality estimators the paper compares against or cites.

Primary comparison targets (Figs. 9–10): :class:`ZOE` and :class:`SRC`,
with :class:`LOF` as ZOE's rough-phase input.  The remaining cited
state-of-the-art — :class:`PET` [13] and :class:`A3` [16] — and part of the
related-work family of Sec. II (:class:`UPE`, :class:`EZB`, :class:`MLE`,
:class:`ART`) run against the same substrate in the extended-baselines
bench and the protocol-comparison example.
"""

from .a3 import A3
from .art import ART
from .base import CardinalityEstimator, EstimationResult
from .batch import baseline_batchable, run_baseline_trials_batched
from .hll import HLL, HLL_PARAMS_BITS, HLL_RANK_BITS
from .ezb import EZB, ezb_required_rounds, variance_factor_g
from .framedaloha import AlohaFrame, mean_run_length_of_ones, run_aloha_frame
from .lof import FM_PHI, LOF
from .mle import MLE, mle_log_likelihood, solve_mle
from .pet import PET, pet_required_rounds
from .src_protocol import SRC, SRC_FRAME_CONSTANT, SRC_OPTIMAL_LOAD, src_round_count
from .upe import UPE, expected_collision_fraction, invert_collision_fraction
from .zoe import ZOE, zoe_optimal_load, zoe_required_frames

__all__ = [
    "A3",
    "ART",
    "PET",
    "pet_required_rounds",
    "CardinalityEstimator",
    "EstimationResult",
    "baseline_batchable",
    "run_baseline_trials_batched",
    "HLL",
    "HLL_PARAMS_BITS",
    "HLL_RANK_BITS",
    "EZB",
    "ezb_required_rounds",
    "variance_factor_g",
    "AlohaFrame",
    "mean_run_length_of_ones",
    "run_aloha_frame",
    "FM_PHI",
    "LOF",
    "MLE",
    "mle_log_likelihood",
    "solve_mle",
    "SRC",
    "SRC_FRAME_CONSTANT",
    "SRC_OPTIMAL_LOAD",
    "src_round_count",
    "UPE",
    "expected_collision_fraction",
    "invert_collision_fraction",
    "ZOE",
    "zoe_optimal_load",
    "zoe_required_frames",
]
