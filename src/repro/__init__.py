"""repro — full reproduction of "Towards Constant-Time Cardinality Estimation
for Large-Scale RFID Systems" (Li, He, Liu — ICPP 2015).

The package implements BFCE (Bloom Filter based Cardinality Estimator), the
RFID bit-slot substrate it runs on, the EPCglobal C1G2 timing model used for
execution-time accounting, and the baseline estimators the paper compares
against (ZOE, SRC, LOF, PET, A³, UPE, EZB, MLE, ART).

Quickstart
----------
>>> from repro import bfce_estimate, uniform_ids
>>> ids = uniform_ids(100_000, seed=42)
>>> result = bfce_estimate(ids, eps=0.05, delta=0.05, seed=7)
>>> print(f"n̂ = {result.n_hat:.0f} in {result.elapsed_seconds*1e3:.1f} ms of air time")
"""

from .core import (
    BFCE,
    CardinalityMonitor,
    AccuracyRequirement,
    BFCEConfig,
    BFCEResult,
    DEFAULT_CONFIG,
    bfce_estimate,
    estimate_cardinality,
    expected_rho,
    find_optimal_pn,
    lam,
    probe_persistence,
    rough_estimate,
)
from .rfid import (
    CoverageMap,
    DISTRIBUTIONS,
    HybridCounter,
    MultiReaderSystem,
    QInventory,
    NoisyChannel,
    PerfectChannel,
    Reader,
    TagIDDistribution,
    TagPopulation,
    approx_normal_ids,
    make_ids,
    normal_ids,
    run_bfce_frame,
    run_bfce_frame_batch,
    uniform_ids,
)
from .timing import C1G2Timing, TimeLedger

__version__ = "1.0.0"

__all__ = [
    "BFCE",
    "CardinalityMonitor",
    "CoverageMap",
    "HybridCounter",
    "MultiReaderSystem",
    "QInventory",
    "AccuracyRequirement",
    "BFCEConfig",
    "BFCEResult",
    "DEFAULT_CONFIG",
    "bfce_estimate",
    "estimate_cardinality",
    "expected_rho",
    "find_optimal_pn",
    "lam",
    "probe_persistence",
    "rough_estimate",
    "DISTRIBUTIONS",
    "NoisyChannel",
    "PerfectChannel",
    "Reader",
    "TagIDDistribution",
    "TagPopulation",
    "approx_normal_ids",
    "make_ids",
    "normal_ids",
    "run_bfce_frame",
    "run_bfce_frame_batch",
    "uniform_ids",
    "C1G2Timing",
    "TimeLedger",
    "__version__",
]
