"""Experiment runner with JSON configs, CSV/JSON outputs, and exit codes.

Each experiment family loads a strict parameter schema (unknown keys are
rejected), runs deterministically for a given (seed, parameters) pair at
any worker count, and writes results.json and series.csv into the output
directory. Runners return data only; ``run`` renders their checks as
"pass"/"fail". Exit code 0 means every check passed, 2 means at least one
check failed its stated tolerance, 1 means the run errored.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import math
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Callable, Sequence

import numpy as np

from . import diffusion as diff
from .errors import BornBranchError, ConfigError, OutOfRange
from .lcg import DEFAULT_LCG_ALPHA, LcgSpec, lcg_delta_stream, lcg_walk_survival
from .measure import (
    MeasurementSetup, measurement_pipeline, outcome_weights, prepared_median_reference,
)
from .model import (
    BranchingSpec, DiffusionParams, Exogenous, GaussianShocks, LogUniformShocks, RandomBarrier,
    WalkParams, _alpha_feasible, alpha_for_unit_beta, endogenous_alpha,
)
from .population import BURN_IN, endogenous_population
from .rng import map_blocks
from .stats import (
    binomial_count_fraction,
    binomial_interval_logprob,
    binomial_logpmf,
    fit_power_law,
    ks_distance,
    start_exponent,
)
from .tree import count_survivors_dp, log_bigint, scan_rows_from_series
from .walk import walk_survival


@dataclass(frozen=True)
class RunnerOutput:
    estimates: dict[str, Any]
    targets: dict[str, Any]
    checks: dict[str, bool]
    columns: list[str]
    rows: list[list[Any]]


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment invocation: family, parameters, seed and worker count.

    The parameters are parsed once, here, into ``params``, the experiment's
    parameter dataclass, so a bad config fails before anything runs.
    """

    experiment: str
    parameters: dict[str, Any] = field(default_factory=dict)
    seed: int = 0
    workers: int | None = None
    params: Any = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _check_type("experiment", self.experiment, "str")
        _check_type("parameters", self.parameters, "dict")
        _check_type("seed", self.seed, "int")
        _check_type("workers", self.workers, "int | None")
        if self.workers is not None and self.workers < 1:
            raise ConfigError(f"workers={self.workers} must be >= 1")
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(
                f"unknown experiment {self.experiment!r}; choose from "
                f"{sorted(EXPERIMENTS)}"
            )
        schema = EXPERIMENTS[self.experiment][0]
        annotations = {f.name: f.type for f in dataclasses.fields(schema)}
        unknown = sorted(set(self.parameters) - set(annotations))
        if unknown:
            raise ConfigError(
                f"unknown parameter key(s) {unknown} for experiment {self.experiment!r}"
            )
        for key, value in self.parameters.items():
            _check_type(key, value, annotations[key])
        object.__setattr__(self, "params", schema(**self.parameters))

    @classmethod
    def _from_dict(cls, raw: Any) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        unknown = sorted(set(raw) - {"experiment", "parameters", "seed", "workers"})
        if unknown:
            raise ConfigError(f"unknown config key(s) {unknown}")
        if "experiment" not in raw:
            raise ConfigError("config is missing the 'experiment' key")
        return cls(
            experiment=raw["experiment"],
            parameters=raw.get("parameters", {}),
            seed=raw.get("seed", 0),
            workers=raw.get("workers"),
        )


#: Whether a config value fits each type in a field annotation; float fields
#: take ints too, but only finite values within float range (no NaN or
#: infinity), and list fields take lists of them.
_FITS: dict[str, Callable[[Any], bool]] = {
    "None": lambda v: v is None,
    "int": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "float": lambda v: isinstance(v, (int, float))
    and not isinstance(v, bool)
    and abs(v) <= sys.float_info.max,
    "str": lambda v: isinstance(v, str),
    "dict": lambda v: isinstance(v, dict),
    "list": lambda v: isinstance(v, list) and all(_FITS["float"](x) for x in v),
}


def _check_type(key: str, value: Any, annotation: str) -> None:
    kinds = annotation.split(" | ")
    if not any(_FITS[kind](value) for kind in kinds):
        hint = " (numbers must fit a finite float)" if {"float", "list"} & set(kinds) else ""
        raise ConfigError(f"{key}={value!r} is not of type {annotation}{hint}")


def config_hash(config: ExperimentConfig) -> str:
    """Hash of the normalized science inputs (experiment, parameters, seed).

    The worker count is excluded: it must not change any result.
    """
    blob = json.dumps(
        {
            "experiment": config.experiment,
            "parameters": dataclasses.asdict(config.params),
            "seed": config.seed,
        },
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _jsonable(value):
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (np.floating, float)):
        v = float(value)
        return v if math.isfinite(v) else None
    return value


# Each experiment's check bounds are constants next to it, so a config sets
# what is computed, not how it is judged.


@contextmanager
def _targets_in_float_range(sigma: float):
    """Refuse, as OutOfRange naming sigma, a closed-form target whose
    exponent (it scales as 1/sigma^2) overflows a float."""
    try:
        yield
    except OverflowError:
        raise OutOfRange(f"sigma={sigma} puts a closed-form target beyond float range") from None


# ---------------------------------------------------------------- tree

#: Band that the fitted survival exponent must fall in (tree and lcg).
BETA_BAND = (0.85, 1.15)


@dataclass(frozen=True)
class TreeParams:
    deltas: list = field(default_factory=lambda: [1 / 6, 1 / 3, 1 / 2])
    alpha: float | None = None
    epsilon: float = 1e-6
    t_max: int = 400
    phis: list = field(default_factory=lambda: [1.0, 2.0, 4.0, 8.0, 16.0])
    record_points: int = 40

    def __post_init__(self) -> None:
        for key in ("t_max", "record_points"):
            if getattr(self, key) < 0:
                raise ConfigError(f"{key}={getattr(self, key)} must be >= 0")
        if any(v <= 0 for v in self.phis):
            raise ConfigError(f"phis={self.phis} must all be positive")


def _run_tree(p: TreeParams, seed: int, workers: int | None) -> RunnerOutput:
    spec = BranchingSpec(tuple(p.deltas))
    alpha = alpha_for_unit_beta(spec).alpha if p.alpha is None else float(p.alpha)
    feasible = _alpha_feasible(spec, alpha)
    sched = Exogenous(p.epsilon, alpha)
    # t_max + 1 points already give every depth
    grid = sorted({int(t) for t in np.linspace(0, p.t_max, min(p.record_points, p.t_max) + 1)})
    phis = [float(v) for v in p.phis]
    series = count_survivors_dp(spec, sched, p.t_max, phis, record_ts=grid)
    pairs = [(phi, phis[0]) for phi in phis[1:]]
    scan = scan_rows_from_series(series, phis)
    extinct_t = next(
        (r.t for r in series if all(c == 0 for c in r.counts)), None
    )
    final = scan[-1]
    # only what the run counted or fitted: a count ratio is a function of
    # two count columns of its row, and the path total one of t
    columns = ["t"] + [f"n_phi_{g:g}" for g in phis] + ["beta_hat"]
    rows = [[res.t, *res.counts, row.beta_hat] for res, row in zip(series, scan)]
    if feasible:
        checks = {
            "beta_hat_in_band": BETA_BAND[0] <= final.beta_hat <= BETA_BAND[1],
            "no_premature_extinction": extinct_t is None,
        }
    else:
        checks = {"infeasible_goes_extinct": extinct_t is not None}
    estimates = {
        "beta_hat_final": final.beta_hat,
        "ratios_final": dict(zip([f"{a:g}/{b:g}" for a, b in pairs], final.ratios)),
        "extinction_t": extinct_t,
        "log10_n_final": {
            f"{g:g}": log_bigint(n) / math.log(10.0)
            for g, n in zip(phis, series[-1].counts)
        },
    }
    targets = {
        "alpha": alpha,
        "alpha_feasible": feasible,
        "beta": 1.0 if p.alpha is None else None,
        "ratio_targets": {f"{a:g}/{b:g}": a / b for a, b in pairs},
    }
    return RunnerOutput(estimates, targets, checks, columns, rows)


# ---------------------------------------------------------------- lcg

#: Bounds on |E[-log delta] - 1| and |Var(log delta) - 1|.
LCG_MEAN_TOL = 0.01
LCG_VAR_REL_TOL = 0.02


@dataclass(frozen=True)
class LcgParams:
    a: int = 6364136223846793005
    n_transitions: int = 1_000_000
    alpha: float = DEFAULT_LCG_ALPHA
    epsilon: float = 1e-4
    t: int = 200
    phis: list = field(default_factory=lambda: [1.0, 4.0, 16.0, 64.0])
    n_paths: int = 20_000

    def __post_init__(self) -> None:
        if self.n_transitions < 1:
            raise ConfigError(f"n_transitions={self.n_transitions} must be >= 1")
        LcgSpec(self.a)  # refuses a multiplier the stream cannot take


def _run_lcg(p: LcgParams, seed: int, workers: int | None) -> RunnerOutput:
    spec = LcgSpec(p.a)
    phis = [float(v) for v in p.phis]
    walk = lcg_walk_survival(
        spec, Exogenous(p.epsilon, p.alpha), p.t, phis, p.n_paths,
        seed=seed + 1_000_003, workers=workers,
    )
    lx = [math.log(g) for g in phis]
    ly = [math.log(e.p_hat) if e.p_hat > 0 else -math.inf for e in walk]
    beta_hat = start_exponent(lx, ly)
    deltas = lcg_delta_stream(spec, p.n_transitions, seed)
    ks = ks_distance(deltas, lambda v: np.clip(v, 0.0, 1.0))
    # 0.1% level of the one-sample Kolmogorov statistic sqrt(n) * KS
    ks_tol = 1.95 / math.sqrt(p.n_transitions)
    logs = np.log(deltas)
    mean_neg_log = float(-logs.mean())
    var_log = float(logs.var())
    checks = {
        "delta_ks_uniform": ks < ks_tol,
        "mean_neg_log_delta": abs(mean_neg_log - 1.0) <= LCG_MEAN_TOL,
        "var_log_delta": abs(var_log - 1.0) <= LCG_VAR_REL_TOL,
        "walk_beta_hat_in_band": BETA_BAND[0] <= beta_hat <= BETA_BAND[1],
    }
    estimates = {
        "ks_uniform": ks,
        "mean_neg_log_delta": mean_neg_log,
        "var_log_delta": var_log,
        "beta_hat": beta_hat,
        "p_hat": {f"{g:g}": e.p_hat for g, e in zip(phis, walk)},
    }
    targets = {
        "ks_tol": ks_tol,
        "mean_neg_log_delta": 1.0,
        "var_log_delta": 1.0,
        "beta_band": list(BETA_BAND),
    }
    columns = ["phi0", "p_hat", "se", "n_survivors", "log_phi0", "log_p_hat"]
    rows = [
        [g, e.p_hat, e.se, e.n_survivors, a, b] for g, e, a, b in zip(phis, walk, lx, ly)
    ]
    return RunnerOutput(estimates, targets, checks, columns, rows)


# ---------------------------------------------------------------- walk

#: Bound on |ratio / asymptotic ratio - 1| for each adjacent pair of starts.
WALK_RATIO_REL_TOL = 0.05

#: Shock law of each walk `shock` name.
WALK_SHOCKS = {"gaussian": GaussianShocks(), "log_uniform": LogUniformShocks()}


@dataclass(frozen=True)
class WalkExpParams:
    mu: float = 0.15
    sigma: float = 1.1
    shock: str = "gaussian"
    epsilon: float = 3.3546262790251185e-4  # exp(-8)
    x0s: list = field(default_factory=lambda: [0.0, 1.0, 2.0])
    t: int = 300
    n_paths: int = 150_000
    noise_sd: float = 0.0

    def __post_init__(self) -> None:
        # the asymptotic ratio's Gaussian-bulk factor divides by t
        if self.t < 1:
            raise ConfigError(f"t={self.t} must be >= 1")
        if not self.x0s:
            raise ConfigError("x0s is empty: the walk needs at least one start")
        if self.shock not in WALK_SHOCKS:
            raise ConfigError(f"shock must be one of {sorted(WALK_SHOCKS)}, got {self.shock!r}")


def _asym_ratio(beta: float, sigma: float, d_a: float, d_b: float, t: float) -> float:
    # first-order survival asymptotic: (d_a/d_b) e^{beta(d_a-d_b)} times the
    # Gaussian-bulk factor exp(-(d_a^2-d_b^2)/(2 sigma^2 t))
    return (
        (d_a / d_b)
        * math.exp(beta * (d_a - d_b))
        * math.exp(-(d_a * d_a - d_b * d_b) / (2.0 * sigma * sigma * t))
    )


def _run_walk(p: WalkExpParams, seed: int, workers: int | None) -> RunnerOutput:
    params = WalkParams(p.mu, p.sigma, WALK_SHOCKS[p.shock])
    barrier = RandomBarrier(p.epsilon, p.noise_sd)
    log_eps = math.log(p.epsilon)
    if len(p.x0s) > 1 and log_eps in p.x0s:
        raise OutOfRange(f"x0={log_eps} on the barrier: a survival ratio needs starts above it")
    # the targets are refused here, before any path is drawn: beta raises
    # OutOfRange when sigma^2 is 0, and so does an exponent beyond float
    # range
    beta = params.beta
    d0 = p.x0s[0] - log_eps
    with _targets_in_float_range(p.sigma):
        tilt = [math.exp(beta * (p.x0s[i + 1] - p.x0s[i])) for i in range(len(p.x0s) - 1)]
        asym = [
            _asym_ratio(beta, p.sigma, p.x0s[i + 1] - log_eps, p.x0s[i] - log_eps, p.t)
            for i in range(len(p.x0s) - 1)
        ]
        asym_first = [1.0] + [_asym_ratio(beta, p.sigma, x - log_eps, d0, p.t) for x in p.x0s[1:]]
    singles, ratios = walk_survival(
        params, p.x0s, barrier, p.t, p.n_paths, seed=seed, workers=workers
    )
    checks = {
        f"ratio_x{i + 1}_over_x{i}_near_asymptotic": abs(r.ratio / a - 1.0) <= WALK_RATIO_REL_TOL
        for i, (r, a) in enumerate(zip(ratios, asym))
    }
    estimates = {
        "p_hat": {f"{x:g}": e.p_hat for x, e in zip(p.x0s, singles)},
        "ratios": [r.ratio for r in ratios],
        "ratio_ses": [r.se for r in ratios],
    }
    targets = {
        "tilt_ratios": tilt,
        "asymptotic_ratios": asym,
        "beta": beta,
    }
    columns = ["t", "epsilon", "x0", "p_hat", "se", "asymptotic_ratio_vs_first"]
    rows = [
        [p.t, p.epsilon, x0, est.p_hat, est.se, a]
        for x0, est, a in zip(p.x0s, singles, asym_first)
    ]
    return RunnerOutput(estimates, targets, checks, columns, rows)


# ---------------------------------------------------------------- diffusion


@dataclass(frozen=True)
class DiffusionExpParams:
    mu: float = 1.0
    sigma: float = 1.0
    d_a: float = 20.420680743952367  # 2 - log 1e-8
    d_b: float = 18.420680743952367  # -log 1e-8
    tau_grid: list = field(default_factory=lambda: [5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0])
    mc_d: float = 3.0
    mc_tau: float = 10.0
    mc_n_paths: int = 100_000
    mc_dt: float = 0.01

    def __post_init__(self) -> None:
        if self.mc_n_paths < 1:
            raise ConfigError(f"mc_n_paths={self.mc_n_paths} must be >= 1")
        if not self.tau_grid:
            raise ConfigError("tau_grid is empty: the ratio scan needs at least one horizon")
        for key in ("d_a", "d_b", "mc_d"):
            if not getattr(self, key) > 0.0:
                raise ConfigError(f"{key}={getattr(self, key)} must be positive")
        diff._resolve_steps(self.mc_tau, self.mc_dt, "mc_dt")


def _run_diffusion(p: DiffusionExpParams, seed: int, workers: int | None) -> RunnerOutput:
    params = DiffusionParams(p.mu, p.sigma)
    with _targets_in_float_range(p.sigma):
        ratios = diff.ratio_convergence_scan(params, p.d_a, p.d_b, p.tau_grid)
        target = math.exp(params.beta * (p.d_a - p.d_b))  # the bare tilt
        q = diff.survival_closed_form(p.mu, p.sigma, p.mc_d, p.mc_tau)
    diff._screen_survivors(p.mc_n_paths, [("the bridge MC (mc_n_paths)", p.mc_n_paths * q)])

    def block(i: int, rng: np.random.Generator, size: int) -> int:
        alive, _ = diff.batch_survive(p.mu, p.sigma, p.mc_d, p.mc_tau, p.mc_dt, rng, size)
        return int(alive.sum())

    survivors = sum(map_blocks(block, p.mc_n_paths, seed, workers=workers))
    p_hat = survivors / p.mc_n_paths
    se = math.sqrt(max(p_hat * (1 - p_hat), 1e-300) / p.mc_n_paths)
    z = (p_hat - q) / se
    checks = {"bridge_mc_z_within_3": abs(z) < 3.0}
    estimates = {
        "mc_p_hat": p_hat,
        "mc_z": z,
        "ratio_final": ratios[-1],
    }
    targets = {
        "closed_form_q": q,
        "ratio_target": target,
        "limit_ratio": target * (p.d_a / p.d_b),
    }
    columns = ["tau", "ratio", "target"]
    rows = [[float(tau), r, target] for tau, r in zip(p.tau_grid, ratios)]
    return RunnerOutput(estimates, targets, checks, columns, rows)


# ---------------------------------------------------------------- endogenous

#: Bounds on |slope - ansatz log alpha| and on the gap between the slope and
#: the slope of the trajectory shifted by log SCALE_FACTOR. The population is
#: centered, so a run at phi0 = SCALE_FACTOR is exactly that shifted
#: trajectory; the tests and criterion 08 check the dynamics' invariance.
SLOPE_TOL = 0.03
INVARIANCE_TOL = 0.005
SCALE_FACTOR = 100.0


@dataclass(frozen=True)
class EndogenousParams:
    tilde_mu: float = 1.0
    sigma: float = 1.0
    varepsilon: float = 0.2
    n_particles: int = 20_000
    tau: float = 60.0
    dt: float = 0.01

    def __post_init__(self) -> None:
        if diff._resolve_steps(self.tau, self.dt)[0] < 2:
            raise ConfigError(f"tau={self.tau}, dt={self.dt} give one step; the fit needs two")


def _run_endogenous(p: EndogenousParams, seed: int, workers: int | None) -> RunnerOutput:
    pop = endogenous_population(
        p.tilde_mu, p.sigma, p.varepsilon, p.n_particles, p.tau, p.dt, 1.0, seed
    )
    start = int(BURN_IN * pop.times.size)
    slope_rescaled = fit_power_law(
        pop.times[start:], pop.log_xi[start:] + math.log(SCALE_FACTOR)
    ).slope
    ansatz = endogenous_alpha(p.tilde_mu, p.sigma, p.varepsilon)
    slope_gap = abs(pop.slope - slope_rescaled)
    checks = {
        "slope_in_ansatz_band": abs(pop.slope - ansatz.log_alpha) <= SLOPE_TOL,
        "scale_invariance": slope_gap < INVARIANCE_TOL,
    }
    estimates = {
        "slope": pop.slope,
        "slope_rescaled": slope_rescaled,
        "slope_gap": slope_gap,
        "intercept": pop.fit.intercept,
        "resample_fraction": pop.resample_count / (p.n_particles * len(pop.times)),
    }
    targets = {
        "ansatz_log_alpha": ansatz.log_alpha,
        "ansatz_c0": ansatz.c0,
        "slope_tol": SLOPE_TOL,
    }
    columns = ["tau", "log_xi", "n_survivors", "mean_z"]
    rows = [
        [float(t), float(x), int(n), float(m)]
        for t, x, n, m in zip(pop.times, pop.log_xi, pop.n_survivors, pop.mean_z)
    ]
    return RunnerOutput(estimates, targets, checks, columns, rows)


# ---------------------------------------------------------------- measure


@dataclass(frozen=True)
class MeasureParams:
    deltas: list = field(default_factory=lambda: [0.2, 0.3, 0.5])
    sigma: float = 0.22360679774997896  # sigma^2 = 0.05
    tau: float = 100.0
    n_paths: int = 60_000
    prep_rate: float = 1.0
    n_boot: int = 400


def _run_measure(p: MeasureParams, seed: int, workers: int | None) -> RunnerOutput:
    setup = MeasurementSetup(tuple(p.deltas), p.sigma, p.tau)
    res = measurement_pipeline(
        setup, p.n_paths, seed=seed, prep_rate=p.prep_rate, n_boot=p.n_boot,
        workers=workers,
    )
    weights = outcome_weights(setup, p.prep_rate)[0]
    checks = {}
    for o, w in zip(res.outcomes, weights):
        tol = 3.0 * o.freq_se if o.freq_se > 0 else 3.0 / max(res.n_survivors, 1)
        checks[f"freq_delta_{o.delta:g}_within_3se"] = abs(o.frequency - w) <= tol
    estimates = {
        "frequencies": {f"{o.delta:g}": o.frequency for o in res.outcomes},
        "medians_y0": {f"{o.delta:g}": o.median_y0 for o in res.outcomes},
        "n_survivors": res.n_survivors,
    }
    targets = {
        "born_weights": {f"{d:g}": w for d, w in zip(setup.deltas, weights)},
        "median_sqrt_tau_reference": prepared_median_reference(setup),
    }
    columns = [
        "delta", "n_survivors", "frequency", "freq_se",
        "median_y0", "median_lo", "median_hi", "born_weight",
    ]
    rows = [
        [o.delta, o.n_survivors, o.frequency, o.freq_se, o.median_y0,
         o.median_ci[0], o.median_ci[1], w]
        for o, w in zip(res.outcomes, weights)
    ]
    return RunnerOutput(estimates, targets, checks, columns, rows)


# ---------------------------------------------------------------- demo_intro

#: The one worked example: Binomial(DEMO_N, DEMO_P) on [DEMO_LO, DEMO_HI]. Its
#: outside probability must lie within OUTSIDE_REL_TOL of OUTSIDE_TARGET, and
#: the log10 fraction of equal-weight sequences inside below COUNT_LOG10_BOUND.
DEMO_N, DEMO_P, DEMO_LO, DEMO_HI = 1000, 0.2, 100, 300
OUTSIDE_TARGET = 2.2e-14
OUTSIDE_REL_TOL = 0.2
COUNT_LOG10_BOUND = -37.0


@dataclass(frozen=True)
class DemoIntroParams:
    """demo_intro takes no parameters: its targets hold for its one example."""


def _run_demo_intro(p: DemoIntroParams, seed: int, workers: int | None) -> RunnerOutput:
    """Weighted mass vs equal-weight path count over a success-count interval.

    Under Binomial(n, p) nearly all probability sits in [lo, hi], while the
    fraction of the 2^n equal-weight outcome sequences landing there is
    astronomically small.
    """
    n = DEMO_N
    log_in, log_out = binomial_interval_logprob(n, DEMO_P, DEMO_LO, DEMO_HI)
    outside_prob = math.exp(log_out)
    count_log10, frac = binomial_count_fraction(n, DEMO_LO, DEMO_HI)
    checks = {
        "outside_prob_matches": abs(outside_prob / OUTSIDE_TARGET - 1.0) <= OUTSIDE_REL_TOL,
        "count_fraction_below_bound": count_log10 < COUNT_LOG10_BOUND,
    }
    estimates = {
        "outside_prob": outside_prob,
        "inside_logprob": log_in,
        "count_fraction_log10": count_log10,
        "count_numerator_digits": len(str(frac.numerator)),
    }
    targets = {
        "outside_target": OUTSIDE_TARGET,
        "count_log10_bound": COUNT_LOG10_BOUND,
    }
    ks = np.arange(0, n + 1, dtype=float)
    lp10 = binomial_logpmf(n, DEMO_P, ks) / math.log(10.0)
    lc10 = np.array([math.log10(math.comb(n, k)) - n * math.log10(2.0) for k in range(n + 1)])
    columns = ["k", "log10_pmf", "log10_count_fraction"]
    rows = [[int(k), float(a), float(b)] for k, a, b in zip(ks, lp10, lc10)]
    return RunnerOutput(estimates, targets, checks, columns, rows)


EXPERIMENTS: dict[str, tuple[type, Callable[..., RunnerOutput]]] = {
    "tree": (TreeParams, _run_tree),
    "lcg": (LcgParams, _run_lcg),
    "walk": (WalkExpParams, _run_walk),
    "diffusion": (DiffusionExpParams, _run_diffusion),
    "endogenous": (EndogenousParams, _run_endogenous),
    "measure": (MeasureParams, _run_measure),
    "demo_intro": (DemoIntroParams, _run_demo_intro),
}


def reference_config(experiment: str) -> ExperimentConfig:
    """Reference configuration of an experiment family: its defaults at seed 0."""
    return ExperimentConfig(experiment)


def run(config: ExperimentConfig, out_dir: str | Path | None = None) -> int:
    """Execute one experiment and write results.json and series.csv.

    Returns 0 when every check passed, 2 when at least one check failed.
    Errors raise (the CLI maps them to exit code 1); the output directory
    is made only once the runner returns, so they leave none.
    """
    runner = EXPERIMENTS[config.experiment][1]
    start = time.perf_counter()
    result = runner(config.params, config.seed, config.workers)
    runtime = time.perf_counter() - start
    out = Path(out_dir or Path("out") / config.experiment)
    out.mkdir(parents=True, exist_ok=True)
    payload = {
        "experiment": config.experiment,
        "config_hash": config_hash(config),
        "seed": config.seed,
        "estimates": _jsonable(result.estimates),
        "targets": _jsonable(result.targets),
        "checks": {k: "pass" if ok else "fail" for k, ok in result.checks.items()},
        "runtime_seconds": runtime,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    (out / "results.json").write_text(json.dumps(payload, indent=2, sort_keys=True))
    with (out / "series.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(result.columns)
        writer.writerows(result.rows)
    return 0 if all(result.checks.values()) else 2


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="born-branch",
        description="Branching-truncation experiments: exact trees, walk and "
        "diffusion MC, endogenous thresholds, measurement pipeline.",
    )
    parser.add_argument("experiment", choices=sorted(EXPERIMENTS))
    parser.add_argument("--config", help="JSON config file (default: the reference config)")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--workers", type=int, help="override worker count")
    parser.add_argument("--out", help="output directory (default: out/<experiment>)")
    args = parser.parse_args(argv)
    try:
        raw = json.loads(Path(args.config).read_text()) if args.config else {}
        if isinstance(raw, dict):
            raw.setdefault("experiment", args.experiment)
            if args.seed is not None:
                raw["seed"] = args.seed
            if args.workers is not None:
                raw["workers"] = args.workers
        config = ExperimentConfig._from_dict(raw)
        if config.experiment != args.experiment:
            raise ConfigError(
                f"config experiment {config.experiment!r} does not match "
                f"requested {args.experiment!r}"
            )
        return run(config, out_dir=args.out)
    except (BornBranchError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
