"""Simulation and verification toolkit for truncated branching processes.

Exact tree counting, random-walk and diffusion Monte Carlo, an interacting
particle system for endogenous thresholds, and an end-to-end measurement
pipeline, with the closed forms they are verified against.
"""
from .errors import (
    BadStart,
    BadStep,
    BornBranchError,
    ConfigError,
    DegenerateDesign,
    DegenerateSpec,
    DivergentRegime,
    DomainError,
    EmptySample,
    Extinction,
    OutOfRange,
    RareEventRegime,
    StateExplosion,
    TooFewSurvivors,
    TooLarge,
    ZeroDenominator,
)
from .model import (
    AlphaResult,
    BranchingSpec,
    DiffusionParams,
    EndogenousAlpha,
    Exogenous,
    FiniteSupportShocks,
    GaussianShocks,
    LogUniformShocks,
    RandomBarrier,
    ThresholdSchedule,
    WalkParams,
    alpha_for_unit_beta,
    endogenous_alpha,
)
from .tree import (
    ScanRow,
    TreeResult,
    count_survivors_dp,
    enumerate_brute,
    log_bigint,
    scan_rows_from_series,
)
from .lcg import (
    DEFAULT_LCG_ALPHA,
    LcgSpec,
    lcg_children,
    lcg_delta_stream,
    lcg_walk_survival,
)
from .walk import (
    RatioEstimate,
    SurvivalEstimate,
    estimate_survival,
    survival_ratio,
    walk_survival,
)
from .diffusion import (
    MeanRatioResult,
    batch_survive,
    conditional_mean_ratio,
    conditioned_sample,
    log_survival_closed_form,
    ratio_convergence_scan,
    survival_closed_form,
)
from .population import PopulationRun, endogenous_population
from .measure import (
    MeasurementSetup,
    OutcomeStats,
    PipelineResult,
    measurement_pipeline,
    outcome_weights,
    prepared_median_reference,
)
from .stats import (
    FitResult,
    binomial_count_fraction,
    binomial_interval_logprob,
    binomial_logpmf,
    bootstrap_ci,
    fit_power_law,
    ks_distance,
    start_exponent,
)
from .rng import BLOCK_SIZE, rng_stream

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
