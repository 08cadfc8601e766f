"""Evaluation harness: workloads, trial runner, figure generators, reports."""

from .ablations import (
    AblationPoint,
    sweep_c,
    sweep_channel,
    sweep_k,
    sweep_persistence_mode,
    sweep_rn_source,
    sweep_w,
)
from .dynamics import (
    BatchEvent,
    PopulationTrace,
    TrackingSeries,
    TrackingStep,
    run_tracking_series,
)
from .figures import (
    FigureData,
    fig2_protocol_trace,
    fig3_linearity,
    fig4_gamma_surface,
    fig5_monotonicity,
    fig6_distributions,
    fig7_accuracy,
    fig8_cdf,
    fig9_fig10_comparison,
    fig_dynamics,
    lower_bound_validity,
)
from .batch import batching_is_sound, run_bfce_trials_batched
from .persistence import (
    load_figure_json,
    load_records_csv,
    save_figure_json,
    save_records_csv,
)
from .report import render_bars, render_figure, render_table
from .validation import (
    check_rho_normality,
    check_slot_independence,
    check_slot_marginal,
)
from .runner import SweepPoint, TrialRecord, run_bfce_trials, run_trials, sweep
from .stats import ErrorSummary, ecdf, guarantee_rate, relative_error, summarize_errors
from .sweep import (
    TrialCache,
    cache_enabled,
    cached_call,
    default_cache_dir,
    engine_version_token,
    records_from_payload,
    run_record_sweep,
    run_sweep,
)
from .tables import OverheadBreakdown, analytic_overhead, design_space
from .workloads import (
    DELTA_SWEEP,
    DISTRIBUTION_NAMES,
    EPS_SWEEP,
    N_SWEEP,
    N_SWEEP_SMALL,
    REFERENCE_N,
    population,
    population_cache_info,
    population_cache_clear,
)

# NOTE: `repro.experiments.sweep.SweepPoint` (the declarative point spec of
# the sweep scheduler) deliberately stays module-qualified here because the
# package-level name `SweepPoint` predates it (the aggregated grid result of
# `runner.sweep`).  Import the spec class as `from repro.experiments.sweep
# import SweepPoint` or via `repro.experiments.sweep`.

__all__ = [
    "batching_is_sound",
    "run_bfce_trials_batched",
    "AblationPoint",
    "sweep_c",
    "sweep_channel",
    "sweep_k",
    "sweep_persistence_mode",
    "sweep_rn_source",
    "sweep_w",
    "load_figure_json",
    "load_records_csv",
    "save_figure_json",
    "save_records_csv",
    "BatchEvent",
    "PopulationTrace",
    "TrackingSeries",
    "TrackingStep",
    "run_tracking_series",
    "check_rho_normality",
    "check_slot_independence",
    "check_slot_marginal",
    "FigureData",
    "fig2_protocol_trace",
    "fig3_linearity",
    "fig4_gamma_surface",
    "fig5_monotonicity",
    "fig6_distributions",
    "fig7_accuracy",
    "fig8_cdf",
    "fig9_fig10_comparison",
    "fig_dynamics",
    "lower_bound_validity",
    "render_bars",
    "render_figure",
    "render_table",
    "SweepPoint",
    "TrialRecord",
    "run_bfce_trials",
    "run_trials",
    "sweep",
    "TrialCache",
    "cache_enabled",
    "cached_call",
    "default_cache_dir",
    "engine_version_token",
    "records_from_payload",
    "run_record_sweep",
    "run_sweep",
    "ErrorSummary",
    "ecdf",
    "guarantee_rate",
    "relative_error",
    "summarize_errors",
    "OverheadBreakdown",
    "analytic_overhead",
    "design_space",
    "DELTA_SWEEP",
    "DISTRIBUTION_NAMES",
    "EPS_SWEEP",
    "N_SWEEP",
    "N_SWEEP_SMALL",
    "REFERENCE_N",
    "population",
    "population_cache_info",
    "population_cache_clear",
]
