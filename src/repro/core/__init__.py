"""BFCE core: estimator math, accuracy theory, the two-phase protocol."""

from .accuracy import (
    AccuracyRequirement,
    f1,
    f2,
    guarantee_margin,
    meets_requirement,
    normal_quantile_d,
    theoretical_rho_interval,
)
from .bfce import BFCE, BFCEResult, bfce_estimate
from .config import BFCEConfig, DEFAULT_CONFIG
from .estmath import (
    estimate_cardinality,
    expected_rho,
    gamma,
    gamma_extrema,
    gamma_grid,
    lam,
    max_estimable_cardinality,
    rho_is_valid,
    sigma_x,
)
from .membership import CensusFilter, MissingTagReport, take_census
from .monitor import CardinalityMonitor, MonitorUpdate
from .optimal_p import OptimalPResult, find_optimal_pn
from .planning import (
    feasibility_table,
    is_guaranteeable,
    max_guaranteed_cardinality,
    required_w,
)
from .probe import ProbeResult, probe_persistence
from .rough import RoughResult, rough_estimate
from .tracking import (
    EKFTracker,
    SlidingWindowTracker,
    TrackerUpdate,
    relative_measurement_std,
)

__all__ = [
    "CensusFilter",
    "MissingTagReport",
    "take_census",
    "CardinalityMonitor",
    "MonitorUpdate",
    "feasibility_table",
    "is_guaranteeable",
    "max_guaranteed_cardinality",
    "required_w",
    "AccuracyRequirement",
    "f1",
    "f2",
    "guarantee_margin",
    "meets_requirement",
    "normal_quantile_d",
    "theoretical_rho_interval",
    "BFCE",
    "BFCEResult",
    "bfce_estimate",
    "BFCEConfig",
    "DEFAULT_CONFIG",
    "estimate_cardinality",
    "expected_rho",
    "gamma",
    "gamma_extrema",
    "gamma_grid",
    "lam",
    "max_estimable_cardinality",
    "rho_is_valid",
    "sigma_x",
    "OptimalPResult",
    "find_optimal_pn",
    "ProbeResult",
    "probe_persistence",
    "RoughResult",
    "rough_estimate",
    "EKFTracker",
    "SlidingWindowTracker",
    "TrackerUpdate",
    "relative_measurement_std",
]
