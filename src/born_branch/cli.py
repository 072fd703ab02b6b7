"""Experiment runner with JSON configs, CSV/JSON/SVG outputs, and exit codes.

Each experiment family loads a strict parameter schema (unknown keys are
rejected), runs deterministically for a given (seed, parameters) pair at
any worker count, and writes results.json, series.csv, and optionally
plot.svg into the output directory. Exit code 0 means every check passed
(or was informational), 2 means at least one check failed its stated
tolerance, 1 means the run errored.
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
from dataclasses import dataclass, field
from datetime import datetime, timezone
from importlib import resources
from pathlib import Path
from typing import Any, Callable, Sequence

import numpy as np

from . import diffusion as diff
from .errors import BornBranchError, ConfigError
from .lcg import DEFAULT_LCG_ALPHA, LcgSpec, lcg_delta_stream, lcg_walk_survival
from .measure import MeasurementSetup, measurement_pipeline, outcome_weights, prepared_median_reference
from .model import BranchingSpec, Exogenous, GaussianShocks, LogUniformShocks, RandomBarrier, WalkParams, alpha_for_unit_beta
from .population import endogenous_population
from .rng import map_blocks, resolve_workers
from .stats import (
    binomial_count_fraction,
    binomial_interval_logprob,
    binomial_logpmf,
    ks_distance,
)
from .tree import count_survivors_dp, enumerate_brute, log_bigint, scan_rows_from_series
from .walk import walk_survival


@dataclass(frozen=True)
class RunnerOutput:
    estimates: dict[str, Any]
    targets: dict[str, Any]
    checks: dict[str, str]
    columns: list[str]
    rows: list[list[Any]]
    plot: tuple[str, str, str, list[tuple[str, list[float], list[float]]]] | None


def _params_from_dict(cls, raw: dict, experiment: str):
    names = {f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(raw) - names)
    if unknown:
        raise ConfigError(
            f"unknown parameter key(s) {unknown} for experiment {experiment!r}"
        )
    try:
        return cls(**raw)
    except TypeError as exc:
        raise ConfigError(f"bad parameters for {experiment!r}: {exc}") from exc


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment invocation: family, parameters, seed, execution knobs."""

    experiment: str
    parameters: dict[str, Any] = field(default_factory=dict)
    seed: int = 0
    workers: int | None = None
    output: str | None = None

    def __post_init__(self) -> None:
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(
                f"unknown experiment {self.experiment!r}; choose from "
                f"{sorted(EXPERIMENTS)}"
            )
        # validate parameter keys eagerly so bad configs fail before running
        _params_from_dict(EXPERIMENTS[self.experiment][0], self.parameters, self.experiment)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        raw = json.loads(text)
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        allowed = {"experiment", "parameters", "seed", "workers", "output"}
        unknown = sorted(set(raw) - allowed)
        if unknown:
            raise ConfigError(f"unknown config key(s) {unknown}")
        if "experiment" not in raw:
            raise ConfigError("config is missing the 'experiment' key")
        return cls(
            experiment=raw["experiment"],
            parameters=raw.get("parameters", {}),
            seed=int(raw.get("seed", 0)),
            workers=raw.get("workers"),
            output=raw.get("output"),
        )

    def to_json(self) -> str:
        return json.dumps(
            {
                "experiment": self.experiment,
                "parameters": self.parameters,
                "seed": self.seed,
                "workers": self.workers,
                "output": self.output,
            },
            sort_keys=True,
            indent=2,
        )


def config_hash(config: ExperimentConfig) -> str:
    """Hash of the normalized science inputs (experiment, parameters, seed).

    Execution knobs (workers, output) are excluded: they must not change
    any result.
    """
    params = EXPERIMENTS[config.experiment][0]
    normalized = dataclasses.asdict(
        _params_from_dict(params, config.parameters, config.experiment)
    )
    blob = json.dumps(
        {"experiment": config.experiment, "parameters": normalized, "seed": config.seed},
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _jsonable(value):
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (np.floating, float)):
        v = float(value)
        return v if math.isfinite(v) else None
    if isinstance(value, (np.integer,)):
        return int(value)
    return value


def _band_check(value: float, lo: float, hi: float) -> str:
    return "pass" if lo <= value <= hi else "fail"


# ---------------------------------------------------------------- tree


@dataclass(frozen=True)
class TreeParams:
    deltas: list = field(default_factory=lambda: [1 / 6, 1 / 3, 1 / 2])
    alpha: float | None = None
    epsilon: float = 1e-6
    t_max: int = 400
    phis: list = field(default_factory=lambda: [1.0, 2.0, 4.0, 8.0, 16.0])
    record_points: int = 40
    beta_band: list = field(default_factory=lambda: [0.85, 1.15])
    oracle: bool = False


def _run_tree(p: TreeParams, seed: int, workers: int) -> RunnerOutput:
    spec = BranchingSpec(tuple(p.deltas))
    auto = alpha_for_unit_beta(spec)
    alpha = auto.alpha if p.alpha is None else float(p.alpha)
    feasible = spec.sigma2 > 0.0 and spec.delta_bar < alpha < max(spec.deltas)
    sched = Exogenous(p.epsilon, alpha)
    grid = sorted({int(t) for t in np.linspace(0, p.t_max, p.record_points + 1)})
    phis = [float(v) for v in p.phis]
    series = count_survivors_dp(spec, sched, p.t_max, phis, record_ts=grid)
    pairs = [(phi, phis[0]) for phi in phis[1:]]
    scan = scan_rows_from_series(series, phis, pairs)
    extinct_t = next(
        (r.t for r in series if all(c == 0 for c in r.counts)), None
    )
    final = scan[-1]
    columns = (
        ["t", "log10_total_paths"]
        + [f"n_phi_{g:g}" for g in phis]
        + [f"ratio_{a:g}_over_{b:g}" for a, b in pairs]
        + ["beta_hat"]
    )
    rows = []
    for res, row in zip(series, scan):
        rows.append(
            [res.t, res.log_total_paths / math.log(10.0)]
            + list(res.counts)
            + list(row.ratios)
            + [row.beta_hat]
        )
    checks: dict[str, str] = {}
    if feasible:
        checks["beta_hat_in_band"] = _band_check(final.beta_hat, *p.beta_band)
        checks["no_premature_extinction"] = "pass" if extinct_t is None else "fail"
    else:
        checks["beta_hat_in_band"] = "report"
        checks["infeasible_goes_extinct"] = "pass" if extinct_t is not None else "fail"
    oracle_agrees = None
    if p.oracle:
        # brute force is K^t_max paths, so this is only for small horizons
        oracle_agrees = True
        for i in range(len(phis)):
            brute = {
                r.t: r.counts[0] for r in enumerate_brute(spec, sched, p.t_max, phis[i])
            }
            oracle_agrees &= all(res.counts[i] == brute[res.t] for res in series)
        checks["dp_equals_bruteforce"] = "pass" if oracle_agrees else "fail"
    estimates = {
        "beta_hat_final": final.beta_hat,
        "ratios_final": dict(zip([f"{a:g}/{b:g}" for a, b in pairs], final.ratios)),
        "extinction_t": extinct_t,
        "log10_n_final": {
            f"{g:g}": log_bigint(n) / math.log(10.0)
            for g, n in zip(phis, series[-1].counts)
        },
    }
    if oracle_agrees is not None:
        estimates["dp_equals_bruteforce"] = oracle_agrees
    targets = {
        "alpha": alpha,
        "alpha_feasible": feasible,
        "beta": 1.0 if p.alpha is None else None,
        "ratio_targets": {f"{a:g}/{b:g}": a / b for a, b in pairs},
    }
    ts = [r.t for r in scan]
    plot = (
        "survivor-count exponent",
        "t",
        "beta_hat",
        [("beta_hat", [float(t) for t in ts], [r.beta_hat for r in scan])],
    )
    return RunnerOutput(estimates, targets, checks, columns, rows, plot)


# ---------------------------------------------------------------- lcg


@dataclass(frozen=True)
class LcgParams:
    p: int = (1 << 61) - 1
    a: int = 6364136223846793005
    n_transitions: int = 1_000_000
    alpha: float = DEFAULT_LCG_ALPHA
    epsilon: float = 1e-4
    t: int = 200
    phis: list = field(default_factory=lambda: [1.0, 4.0, 16.0, 64.0])
    n_paths: int = 20_000
    mean_tol: float = 0.01
    var_rel_tol: float = 0.02
    beta_band: list = field(default_factory=lambda: [0.85, 1.15])


def _run_lcg(p: LcgParams, seed: int, workers: int) -> RunnerOutput:
    spec = LcgSpec(p.p, p.a)
    deltas = lcg_delta_stream(spec, p.n_transitions, seed)
    ks = ks_distance(deltas, lambda v: np.clip(v, 0.0, 1.0))
    # 0.1% level of the one-sample Kolmogorov statistic sqrt(n) * KS
    ks_tol = 1.95 / math.sqrt(p.n_transitions)
    logs = np.log(deltas)
    mean_neg_log = float(-logs.mean())
    var_log = float(logs.var())
    sched = Exogenous(p.epsilon, p.alpha)
    walk = lcg_walk_survival(
        spec, sched, p.t, [float(v) for v in p.phis], p.n_paths,
        seed=seed + 1_000_003, workers=workers,
    )
    beta_hat = walk.beta_hat
    checks = {
        "delta_ks_uniform": "pass" if ks < ks_tol else "fail",
        "mean_neg_log_delta": "pass" if abs(mean_neg_log - 1.0) <= p.mean_tol else "fail",
        "var_log_delta": "pass" if abs(var_log - 1.0) <= p.var_rel_tol else "fail",
        "walk_beta_hat_in_band": _band_check(beta_hat, *p.beta_band)
        if math.isfinite(beta_hat)
        else "fail",
    }
    estimates = {
        "ks_uniform": ks,
        "mean_neg_log_delta": mean_neg_log,
        "var_log_delta": var_log,
        "beta_hat": beta_hat,
        "p_hat": {f"{g:g}": e.p_hat for g, e in zip(walk.phi0s, walk.estimates)},
    }
    targets = {
        "ks_tol": ks_tol,
        "mean_neg_log_delta": 1.0,
        "var_log_delta": 1.0,
        "beta_band": list(p.beta_band),
    }
    columns = ["phi0", "p_hat", "se", "n_survivors"]
    rows = [
        [g, e.p_hat, e.se, e.n_survivors] for g, e in zip(walk.phi0s, walk.estimates)
    ]
    lx = [math.log(g) for g in walk.phi0s]
    ly = [math.log(e.p_hat) if e.p_hat > 0 else math.nan for e in walk.estimates]
    plot = ("LCG walk survival", "log phi0", "log p_hat", [("log p_hat", lx, ly)])
    return RunnerOutput(estimates, targets, checks, columns, rows, plot)


# ---------------------------------------------------------------- walk


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
    ratio_rel_tol: float = 0.05


def _asym_ratio(beta: float, sigma: float, d_a: float, d_b: float, t: float) -> float:
    # first-order survival asymptotic: (d_a/d_b) e^{beta(d_a-d_b)} times the
    # Gaussian-bulk factor exp(-(d_a^2-d_b^2)/(2 sigma^2 t))
    return (
        (d_a / d_b)
        * math.exp(beta * (d_a - d_b))
        * math.exp(-(d_a * d_a - d_b * d_b) / (2.0 * sigma * sigma * t))
    )


def _run_walk(p: WalkExpParams, seed: int, workers: int) -> RunnerOutput:
    shocks = {"gaussian": GaussianShocks(), "log_uniform": LogUniformShocks()}.get(p.shock)
    if shocks is None:
        raise ConfigError(f"shock must be 'gaussian' or 'log_uniform', got {p.shock!r}")
    params = WalkParams(p.mu, p.sigma, shocks)
    barrier = (
        RandomBarrier(p.epsilon, p.noise_sd) if p.noise_sd > 0 else Exogenous(p.epsilon, 0.5)
    )
    log_eps = math.log(p.epsilon)
    singles, ratios = walk_survival(
        params, p.x0s, barrier, p.t, p.n_paths, seed=seed, workers=workers
    )
    asym = [
        _asym_ratio(params.beta, p.sigma, p.x0s[i + 1] - log_eps, p.x0s[i] - log_eps, p.t)
        for i in range(len(p.x0s) - 1)
    ]
    checks = {}
    for i, (r, a) in enumerate(zip(ratios, asym)):
        name = f"ratio_x{i + 1}_over_x{i}_near_asymptotic"
        checks[name] = "pass" if abs(r.ratio / a - 1.0) <= p.ratio_rel_tol else "fail"
    checks["tilt_ratio"] = "report"
    estimates = {
        "p_hat": {f"{x:g}": e.p_hat for x, e in zip(p.x0s, singles)},
        "ratios": [r.ratio for r in ratios],
        "ratio_ses": [r.se for r in ratios],
    }
    targets = {
        "tilt_ratios": [r.theory for r in ratios],
        "asymptotic_ratios": asym,
        "beta": params.beta,
    }
    columns = ["t", "epsilon", "x0", "p_hat", "se", "asymptotic_ratio_vs_first"]
    rows = []
    for x0, est in zip(p.x0s, singles):
        a = (
            1.0
            if x0 == p.x0s[0]
            else _asym_ratio(params.beta, p.sigma, x0 - log_eps, p.x0s[0] - log_eps, p.t)
        )
        rows.append([p.t, p.epsilon, x0, est.p_hat, est.se, a])
    plot = (
        "walk survival by start",
        "x0",
        "p_hat",
        [("p_hat", [float(x) for x in p.x0s], [e.p_hat for e in singles])],
    )
    return RunnerOutput(estimates, targets, checks, columns, rows, plot)


# ---------------------------------------------------------------- diffusion


@dataclass(frozen=True)
class DiffusionExpParams:
    mu: float = 1.0
    sigma: float = 1.0
    epsilon: float = 1e-8
    x_a: float = 2.0
    x_b: float = 0.0
    tau_grid: list = field(default_factory=lambda: [5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0])
    mc_d: float = 3.0
    mc_tau: float = 10.0
    mc_n_paths: int = 100_000
    mc_dt: float = 0.01


def _run_diffusion(p: DiffusionExpParams, seed: int, workers: int) -> RunnerOutput:
    from .model import DiffusionParams

    params = DiffusionParams.from_mu(p.mu, p.sigma)
    scan = diff.ratio_convergence_scan(params, p.x_a, p.x_b, p.epsilon, p.tau_grid)
    q = diff.survival_closed_form(p.mu, p.sigma, p.mc_d, p.mc_tau)

    def block(i: int, rng: np.random.Generator, size: int) -> int:
        alive, _ = diff.batch_survive(p.mu, p.sigma, p.mc_d, p.mc_tau, p.mc_dt, rng, size)
        return int(alive.sum())

    survivors = sum(map_blocks(block, p.mc_n_paths, seed, workers=workers))
    p_hat = survivors / p.mc_n_paths
    se = math.sqrt(max(p_hat * (1 - p_hat), 1e-300) / p.mc_n_paths)
    z = (p_hat - q) / se if se > 0 else math.inf
    checks = {
        "bridge_mc_z_within_3": "pass" if abs(z) < 3.0 else "fail",
        "ratio_convergence": "report",
    }
    estimates = {
        "mc_p_hat": p_hat,
        "mc_z": z,
        "ratio_final": scan[-1].ratio,
    }
    targets = {
        "closed_form_q": q,
        "ratio_target": scan[-1].target,
        "limit_ratio": scan[-1].target
        * ((p.x_a - math.log(p.epsilon)) / (p.x_b - math.log(p.epsilon))),
    }
    columns = ["tau", "ratio", "target"]
    rows = [[pt.tau, pt.ratio, pt.target] for pt in scan]
    plot = (
        "survival ratio vs horizon",
        "tau",
        "ratio",
        [
            ("exact ratio", [pt.tau for pt in scan], [pt.ratio for pt in scan]),
            ("power-law target", [pt.tau for pt in scan], [pt.target for pt in scan]),
        ],
    )
    return RunnerOutput(estimates, targets, checks, columns, rows, plot)


# ---------------------------------------------------------------- endogenous


@dataclass(frozen=True)
class EndogenousParams:
    tilde_mu: float = 1.0
    sigma: float = 1.0
    varepsilon: float = 0.2
    n_particles: int = 20_000
    tau: float = 60.0
    dt: float = 0.01
    phi0: float = 1.0
    scale_factor: float = 100.0
    slope_tol: float = 0.03
    invariance_tol: float = 0.005


def _run_endogenous(p: EndogenousParams, seed: int, workers: int) -> RunnerOutput:
    run1 = endogenous_population(
        p.tilde_mu, p.sigma, p.varepsilon, p.n_particles, p.tau, p.dt, p.phi0, seed
    )
    run2 = endogenous_population(
        p.tilde_mu, p.sigma, p.varepsilon, p.n_particles, p.tau, p.dt,
        p.phi0 * p.scale_factor, seed,
    )
    slope_gap = abs(run1.slope - run2.slope)
    checks = {
        "slope_in_ansatz_band": "pass"
        if abs(run1.slope - run1.theory_log_alpha) <= p.slope_tol
        else "fail",
        "scale_invariance": "pass" if slope_gap < p.invariance_tol else "fail",
    }
    estimates = {
        "slope": run1.slope,
        "slope_rescaled": run2.slope,
        "slope_gap": slope_gap,
        "intercept": run1.fit.intercept,
        "resample_fraction": run1.resample_count / (p.n_particles * len(run1.times)),
    }
    targets = {
        "ansatz_log_alpha": run1.theory_log_alpha,
        "ansatz_c0": run1.theory_c0,
        "slope_tol": p.slope_tol,
    }
    columns = ["tau", "log_xi", "n_survivors", "mean_z"]
    rows = [
        [float(t), float(x), int(n), float(m)]
        for t, x, n, m in zip(run1.times, run1.log_xi, run1.n_survivors, run1.mean_z)
    ]
    plot = (
        "endogenous threshold growth",
        "tau",
        "log xi",
        [("log xi", [float(t) for t in run1.times], [float(v) for v in run1.log_xi])],
    )
    return RunnerOutput(estimates, targets, checks, columns, rows, plot)


# ---------------------------------------------------------------- measure


@dataclass(frozen=True)
class MeasureParams:
    deltas: list = field(default_factory=lambda: [0.2, 0.3, 0.5])
    sigma: float = 0.22360679774997896  # sigma^2 = 0.05
    epsilon: float = 1e-3
    tau: float = 100.0
    n_paths: int = 60_000
    prep_rate: float | None = None
    n_boot: int = 400


def _run_measure(p: MeasureParams, seed: int, workers: int) -> RunnerOutput:
    setup = MeasurementSetup(tuple(p.deltas), p.sigma, p.epsilon, p.tau)
    res = measurement_pipeline(
        setup, p.n_paths, seed=seed, prep_rate=p.prep_rate, n_boot=p.n_boot,
        workers=workers,
    )
    weights, _ = outcome_weights(setup, res.prep_rate)
    checks = {}
    for o, w in zip(res.outcomes, weights):
        tol = 3.0 * o.freq_se if o.freq_se > 0 else 3.0 / max(res.n_survivors, 1)
        checks[f"freq_delta_{o.delta:g}_within_3se"] = (
            "pass" if abs(o.frequency - w) <= tol else "fail"
        )
    checks["median_scaling"] = "report"
    estimates = {
        "frequencies": {f"{o.delta:g}": o.frequency for o in res.outcomes},
        "medians_x0": {f"{o.delta:g}": o.median_x0 for o in res.outcomes},
        "n_survivors": res.n_survivors,
    }
    targets = {
        "born_weights": {f"{d:g}": w for d, w in zip(setup.deltas, weights)},
        "median_log_targets": {f"{o.delta:g}": o.median_target for o in res.outcomes},
        "median_sqrt_tau_reference": math.log(setup.epsilon)
        + prepared_median_reference(setup),
    }
    columns = [
        "delta", "n_survivors", "frequency", "freq_se",
        "median_x0", "median_lo", "median_hi", "median_target",
    ]
    rows = [
        [o.delta, o.n_survivors, o.frequency, o.freq_se, o.median_x0,
         o.median_ci[0], o.median_ci[1], o.median_target]
        for o in res.outcomes
    ]
    plot = (
        "conditioned outcome frequencies",
        "delta",
        "frequency",
        [
            ("measured", [o.delta for o in res.outcomes], [o.frequency for o in res.outcomes]),
            ("weights", list(setup.deltas), list(weights)),
        ],
    )
    return RunnerOutput(estimates, targets, checks, columns, rows, plot)


# ---------------------------------------------------------------- demo_intro


@dataclass(frozen=True)
class DemoIntroParams:
    n: int = 1000
    p: float = 0.2
    lo: int = 100
    hi: int = 300
    outside_target: float = 2.2e-14
    outside_rel_tol: float = 0.2
    count_log10_bound: float = -37.0


def _run_demo_intro(p: DemoIntroParams, seed: int, workers: int) -> RunnerOutput:
    """Weighted mass vs equal-weight path count over a success-count interval.

    Under Binomial(n, p) nearly all probability sits in [lo, hi], while the
    fraction of the 2^n equal-weight outcome sequences landing there is
    astronomically small.
    """
    log_in, log_out = binomial_interval_logprob(p.n, p.p, p.lo, p.hi)
    outside_prob = math.exp(log_out)
    count_log10, frac = binomial_count_fraction(p.n, p.lo, p.hi, exact=True)
    checks = {
        "outside_prob_matches": "pass"
        if abs(outside_prob / p.outside_target - 1.0) <= p.outside_rel_tol
        else "fail",
        "count_fraction_below_bound": "pass"
        if count_log10 < p.count_log10_bound
        else "fail",
    }
    estimates = {
        "outside_prob": outside_prob,
        "inside_logprob": log_in,
        "count_fraction_log10": count_log10,
        "count_numerator_digits": len(str(frac.numerator)),
    }
    targets = {
        "outside_target": p.outside_target,
        "count_log10_bound": p.count_log10_bound,
    }
    ks = np.arange(0, p.n + 1, dtype=float)
    lp10 = binomial_logpmf(p.n, p.p, ks) / math.log(10.0)
    lc10 = np.array(
        [math.log10(math.comb(p.n, k)) - p.n * math.log10(2.0) for k in range(p.n + 1)]
    )
    columns = ["k", "log10_pmf", "log10_count_fraction"]
    rows = [[int(k), float(a), float(b)] for k, a, b in zip(ks, lp10, lc10)]
    plot = (
        "weighted mass vs path count",
        "k",
        "log10",
        [
            ("log10 pmf", [float(k) for k in ks], [float(v) for v in lp10]),
            ("log10 count fraction", [float(k) for k in ks], [float(v) for v in lc10]),
        ],
    )
    return RunnerOutput(estimates, targets, checks, columns, rows, plot)


EXPERIMENTS: dict[str, tuple[type, Callable[..., RunnerOutput]]] = {
    "tree": (TreeParams, _run_tree),
    "lcg": (LcgParams, _run_lcg),
    "walk": (WalkExpParams, _run_walk),
    "diffusion": (DiffusionExpParams, _run_diffusion),
    "endogenous": (EndogenousParams, _run_endogenous),
    "measure": (MeasureParams, _run_measure),
    "demo_intro": (DemoIntroParams, _run_demo_intro),
}


def _write_svg(path: Path, title: str, xlabel: str, ylabel: str,
               lines: list[tuple[str, list[float], list[float]]]) -> None:
    width, height = 640, 420
    ml, mr, mt, mb = 60, 20, 36, 44
    pw, ph = width - ml - mr, height - mt - mb
    pts = [
        (x, y)
        for _, xs, ys in lines
        for x, y in zip(xs, ys)
        if math.isfinite(x) and math.isfinite(y)
    ]
    if not pts:
        pts = [(0.0, 0.0), (1.0, 1.0)]
    xs_all = [p[0] for p in pts]
    ys_all = [p[1] for p in pts]
    x0, x1 = min(xs_all), max(xs_all)
    y0, y1 = min(ys_all), max(ys_all)
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0

    def sx(x: float) -> float:
        return ml + pw * (x - x0) / (x1 - x0)

    def sy(y: float) -> float:
        return mt + ph * (1.0 - (y - y0) / (y1 - y0))

    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.0f}" y="20" text-anchor="middle" font-size="14">{title}</text>',
        f'<text x="{ml + pw / 2:.0f}" y="{height - 8}" text-anchor="middle" font-size="12">{xlabel}</text>',
        f'<text x="16" y="{mt + ph / 2:.0f}" text-anchor="middle" font-size="12" '
        f'transform="rotate(-90 16 {mt + ph / 2:.0f})">{ylabel}</text>',
        f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" fill="none" stroke="#888"/>',
        f'<text x="{ml}" y="{height - 26}" font-size="10">{x0:.4g}</text>',
        f'<text x="{ml + pw}" y="{height - 26}" text-anchor="end" font-size="10">{x1:.4g}</text>',
        f'<text x="{ml - 4}" y="{mt + ph}" text-anchor="end" font-size="10">{y0:.4g}</text>',
        f'<text x="{ml - 4}" y="{mt + 10}" text-anchor="end" font-size="10">{y1:.4g}</text>',
    ]
    for i, (label, lxs, lys) in enumerate(lines):
        color = colors[i % len(colors)]
        coords = " ".join(
            f"{sx(x):.1f},{sy(y):.1f}"
            for x, y in zip(lxs, lys)
            if math.isfinite(x) and math.isfinite(y)
        )
        if coords:
            parts.append(
                f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>'
            )
        parts.append(
            f'<text x="{ml + 8 + 130 * i}" y="{mt + 14}" font-size="11" fill="{color}">{label}</text>'
        )
    parts.append("</svg>")
    path.write_text("\n".join(parts))


def reference_config(experiment: str) -> ExperimentConfig:
    """Bundled reference configuration for an experiment family."""
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {experiment!r}")
    text = resources.files("born_branch").joinpath(f"configs/{experiment}.json").read_text()
    return ExperimentConfig.from_json(text)


def run(
    config: ExperimentConfig,
    out_dir: str | Path | None = None,
    plot: bool = False,
) -> int:
    """Execute one experiment and write results.json / series.csv (/ plot.svg).

    Returns 0 when every check passed or was informational, 2 when at least
    one check failed. Errors raise (the CLI maps them to exit code 1).
    """
    params_cls, runner = EXPERIMENTS[config.experiment]
    params = _params_from_dict(params_cls, config.parameters, config.experiment)
    workers = resolve_workers(config.workers)
    out = Path(out_dir or config.output or Path("out") / config.experiment)
    out.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    result = runner(params, config.seed, workers)
    runtime = time.perf_counter() - start
    payload = {
        "experiment": config.experiment,
        "config_hash": config_hash(config),
        "seed": config.seed,
        "estimates": _jsonable(result.estimates),
        "targets": _jsonable(result.targets),
        "checks": result.checks,
        "runtime_seconds": runtime,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    (out / "results.json").write_text(json.dumps(payload, indent=2, sort_keys=True))
    with (out / "series.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(result.columns)
        writer.writerows(result.rows)
    if plot and result.plot is not None:
        _write_svg(out / "plot.svg", *result.plot)
    return 2 if any(v == "fail" for v in result.checks.values()) else 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="born-branch",
        description="Branching-truncation experiments: exact trees, walk and "
        "diffusion MC, endogenous thresholds, measurement pipeline.",
    )
    parser.add_argument("experiment", choices=sorted(EXPERIMENTS))
    parser.add_argument("--config", help="JSON config file (default: bundled reference)")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--workers", type=int, help="override worker count")
    parser.add_argument("--plot", action="store_true", help="also write plot.svg")
    parser.add_argument("--out", help="output directory (default: out/<experiment>)")
    args = parser.parse_args(argv)
    try:
        if args.config:
            raw = json.loads(Path(args.config).read_text())
            if not isinstance(raw, dict):
                raise ConfigError("config must be a JSON object")
            raw.setdefault("experiment", args.experiment)
            config = ExperimentConfig.from_json(json.dumps(raw))
            if config.experiment != args.experiment:
                raise ConfigError(
                    f"config experiment {config.experiment!r} does not match "
                    f"requested {args.experiment!r}"
                )
        else:
            config = reference_config(args.experiment)
        if args.seed is not None:
            config = dataclasses.replace(config, seed=args.seed)
        if args.workers is not None:
            config = dataclasses.replace(config, workers=args.workers)
        return run(config, out_dir=args.out, plot=args.plot)
    except (BornBranchError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
