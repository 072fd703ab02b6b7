"""Monte Carlo for the truncated log-amplitude random walk.

The walk X_t = X_{t-1} - mu + sigma*U_t with standardized shocks is
absorbed the first time a proposed step lands strictly below the log
threshold; a step exactly onto the threshold survives. For an Exogenous
schedule the threshold decay is already folded into mu, so the barrier sits
fixed at log epsilon; a RandomBarrier adds fresh N(0, noise_sd^2) noise to
the barrier each period, drawn independently per path (the single-path law
is unchanged and paths stay independent, so binomial errors apply).

Estimates pre-partition paths into fixed blocks with one RNG stream each
and reduce in block order, so results do not depend on the worker count.
Starts on shared draws follow one increment sum S_s per path, so x0
survives iff x0 >= max_s (bar_s - S_s), the path's running worst gap; the
LCG walk decides its starts the same way.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .diffusion import _screen_survivors, log_survival_closed_form
from .errors import OutOfRange, TooFewSurvivors
from .model import Exogenous, RandomBarrier, ThresholdSchedule, WalkParams
from .rng import map_blocks

#: A walk monitored once per period survives like the continuous motion
#: started this many shock scales further from the barrier: -zeta(1/2) /
#: sqrt(2 pi) (Broadie, Glasserman & Kou, Math. Finance 7, 1997).
_MONITORING_SHIFT = 0.5826


def _log_survival_prediction(params: WalkParams, d: float, t: int) -> float:
    """Predicted log survival to t from d >= 0 above a fixed barrier: the motion's
    closed form at d + 0.5826 sigma, Gaussian whatever the shock law."""
    shifted = d + _MONITORING_SHIFT * params.sigma
    return log_survival_closed_form(params.mu, params.sigma, shifted, float(t))


@dataclass(frozen=True)
class SurvivalEstimate:
    """Survival frequency with exact counts and binomial standard error."""

    p_hat: float
    se: float
    n_paths: int
    n_survivors: int


@dataclass(frozen=True)
class RatioEstimate:
    """Survival ratio of two starts with delta-method SE."""

    ratio: float
    se: float
    n_paths: int
    n_survivors_a: int
    n_survivors_b: int


def _barrier_params(barrier: ThresholdSchedule) -> tuple[float, float]:
    if isinstance(barrier, Exogenous):
        return math.log(barrier.epsilon), 0.0
    if isinstance(barrier, RandomBarrier):
        return math.log(barrier.epsilon), barrier.noise_sd
    raise TypeError(
        "walks need an Exogenous or RandomBarrier schedule, "
        f"got {type(barrier).__name__}; a threshold set by the population "
        "itself is endogenous_population's"
    )


def _block_worst(
    params: WalkParams,
    log_eps: float,
    noise_sd: float,
    t: int,
    rng: np.random.Generator,
    size: int,
) -> np.ndarray:
    """Running worst gap max_s (bar_s - S_s) of each path's increment sum S_s.

    A start x0 survives a path iff x0 >= its worst gap (-inf for t = 0).
    Each step draws the shocks, then the barrier noise, for every path, so
    the stream position never depends on outcomes.
    """
    s = np.zeros(size)
    worst = np.full(size, -np.inf)
    for _ in range(t):
        u = params.shocks.sample(rng, size)
        bar = log_eps
        if noise_sd > 0.0:
            bar = log_eps + noise_sd * rng.standard_normal(size)
        s -= params.mu
        s += params.sigma * u
        np.maximum(worst, bar - s, out=worst)
    return worst


def _start_estimates(
    block_worst: Callable[[np.random.Generator, int], np.ndarray],
    starts: Sequence[float],
    n: int,
    seed: int,
    workers: int | None,
) -> tuple[SurvivalEstimate, ...]:
    """Binomial survival estimate per start from n paths against the worst
    gaps block_worst(rng, size) gives; every start meets the same gaps, so
    survivor sets are nested."""
    column = np.asarray(starts, dtype=float)[:, None]

    def block(i: int, rng: np.random.Generator, size: int) -> np.ndarray:
        return np.count_nonzero(column >= block_worst(rng, size), axis=1)

    estimates = []
    for k in np.sum(map_blocks(block, n, seed, workers=workers), axis=0).tolist():
        p_hat = k / n
        se = math.sqrt(p_hat * (1.0 - p_hat) / n)
        estimates.append(SurvivalEstimate(p_hat, se, n, k))
    return tuple(estimates)


def _ratio_estimate(x_b: float, k_a: int, k_b: int, n: int) -> RatioEstimate:
    """Survival ratio of k_a over k_b CRN survivors, with delta-method SE.

    Survivor sets on shared draws are nested, so min(k_a, k_b) paths
    survive from both starts; the SE uses the cross-covariance this gives.
    """
    if k_b == 0:
        raise TooFewSurvivors(f"no survivors from x_b={x_b} in {n} paths")
    p_a, p_b, p_ab = k_a / n, k_b / n, min(k_a, k_b) / n
    ratio = k_a / k_b
    var_a = p_a * (1.0 - p_a) / n
    var_b = p_b * (1.0 - p_b) / n
    cov = (p_ab - p_a * p_b) / n
    var_ratio = (
        var_a / p_b**2 + p_a**2 * var_b / p_b**4 - 2.0 * p_a * cov / p_b**3
    )
    return RatioEstimate(ratio, math.sqrt(max(var_ratio, 0.0)), n, int(k_a), int(k_b))


def walk_survival(
    params: WalkParams,
    x0s: Sequence[float],
    barrier: ThresholdSchedule,
    t: int,
    n_paths: int,
    seed: int = 0,
    workers: int | None = None,
) -> tuple[tuple[SurvivalEstimate, ...], tuple[RatioEstimate, ...]]:
    """Survival from several starts and adjacent-start ratios, in one pass.

    All starts share every draw (common random numbers), which are exactly
    the draws estimate_survival makes at seed, so each per-start estimate
    equals estimate_survival(x0s[i], ..., seed). Ratio i is start i + 1
    over start i, as survival_ratio(x0s[i + 1], x0s[i], ..., seed) gives
    it. Deterministic in (seed, n_paths) for any worker count.

    A start below the barrier or infinite, or a horizon t < 0, raises
    OutOfRange. Before any draw, the survivor screen refuses a start whose
    n_paths times exact diffusion survival at the discrete-monitoring
    distance d + 0.5826 sigma is below 50 (sigma = 0 or t = 0 needs none).
    A ratio raises TooFewSurvivors when start i has no survivors; a
    deterministic walk (sigma = 0) gets its exact ratio.
    """
    log_eps, noise_sd = _barrier_params(barrier)
    if len(x0s) == 0:
        raise OutOfRange("need at least one start")
    for x0 in x0s:
        if not x0 >= log_eps:  # NaN included
            raise OutOfRange(f"x0={x0} below the barrier log eps={log_eps}")
        if x0 == math.inf:
            raise OutOfRange("x0=inf: a start must be finite")
    if n_paths < 1:
        raise OutOfRange(f"n_paths={n_paths} must be >= 1")
    if t < 0:
        raise OutOfRange(f"t={t} must be >= 0")
    if params.sigma > 0.0 and t > 0:
        _screen_survivors(n_paths, [(f"x0={x0}", n_paths * math.exp(
            _log_survival_prediction(params, x0 - log_eps, t))) for x0 in x0s])
    est = _start_estimates(
        partial(_block_worst, params, log_eps, noise_sd, t),
        x0s, n_paths, seed, workers,
    )
    ratios = [
        _ratio_estimate(x0s[i], est[i + 1].n_survivors, est[i].n_survivors, n_paths)
        for i in range(len(x0s) - 1)
    ]
    return est, tuple(ratios)


def estimate_survival(
    params: WalkParams,
    x0: float,
    barrier: ThresholdSchedule,
    t: int,
    n_paths: int,
    seed: int = 0,
    workers: int | None = None,
) -> SurvivalEstimate:
    """Monte Carlo survival probability to horizon t from start x0.

    The one-start case of walk_survival, with its checks: deterministic in
    (seed, n_paths) for any worker count, and its survivor screen.
    """
    return walk_survival(params, [x0], barrier, t, n_paths, seed, workers)[0][0]


def survival_ratio(
    params: WalkParams,
    x_a: float,
    x_b: float,
    barrier: ThresholdSchedule,
    t: int,
    n_paths: int,
    seed: int = 0,
    workers: int | None = None,
) -> RatioEstimate:
    """Ratio of survival probabilities from x_a over x_b, with CRN pairing.

    The two-start case of walk_survival, with its checks and survivor
    screen: both arms see identical shock and barrier-noise draws, so the
    ratio is far tighter than independent runs. The SE is the delta method
    with the empirical cross-covariance.
    """
    return walk_survival(params, [x_b, x_a], barrier, t, n_paths, seed, workers)[1][0]
