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
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    BadStart,
    DegenerateSpec,
    OutOfRange,
    RareEventRegime,
    ZeroDenominator,
)
from .model import Exogenous, RandomBarrier, ThresholdSchedule, WalkParams
from .rng import map_blocks

#: walk_survival refuses naive MC below this predicted survival.
RARE_EVENT_FLOOR = 1e-8

#: A walk monitored once per period survives like the continuous motion
#: started this many shock scales further from the barrier: -zeta(1/2) /
#: sqrt(2 pi) (Broadie, Glasserman & Kou, Math. Finance 7, 1997).
_MONITORING_SHIFT = 0.5826


@dataclass(frozen=True)
class WalkPathOutcome:
    """One path: whether it survived to the horizon, and where/when not."""

    survived: bool
    final_x: float
    absorption_time: float | None


@dataclass(frozen=True)
class SurvivalEstimate:
    """Survival frequency with exact counts and binomial standard error."""

    p_hat: float
    se: float
    n_paths: int
    n_survivors: int


@dataclass(frozen=True)
class RatioEstimate:
    """Survival ratio of two starts with delta-method SE and theory target."""

    ratio: float
    se: float
    theory: float
    n_paths: int
    n_survivors_a: int
    n_survivors_b: int


@dataclass(frozen=True)
class LimitRegime:
    """Suggested barrier distance and horizon for limit-law experiments."""

    barrier_distance: float
    t: int


def _barrier_params(barrier: ThresholdSchedule) -> tuple[float, float]:
    if isinstance(barrier, Exogenous):
        return math.log(barrier.epsilon), 0.0
    if isinstance(barrier, RandomBarrier):
        return math.log(barrier.epsilon), barrier.noise_sd
    raise TypeError(
        "per-path walks need an Exogenous or RandomBarrier schedule; "
        "Endogenous thresholds are defined by a population "
        "(see endogenous_population)"
    )


def simulate_walk(
    params: WalkParams,
    x0: float,
    barrier: ThresholdSchedule,
    t: int,
    rng: np.random.Generator,
) -> WalkPathOutcome:
    """Run one walk path to horizon t with propose-then-absorb steps.

    Each period draws the shock, then (for a RandomBarrier) the barrier
    noise. Starting exactly on the barrier is allowed; below it raises
    BadStart.
    """
    log_eps, noise_sd = _barrier_params(barrier)
    if x0 < log_eps:
        raise BadStart(f"x0={x0} below the barrier log eps={log_eps}")
    if t < 0:
        raise OutOfRange(f"t={t} must be >= 0")
    x = float(x0)
    for s in range(1, t + 1):
        u = float(params.shocks.sample(rng, 1)[0])
        x_prop = x - params.mu + params.sigma * u
        bar = log_eps
        if noise_sd > 0.0:
            bar += noise_sd * float(rng.standard_normal())
        if x_prop < bar:
            return WalkPathOutcome(False, -math.inf, float(s))
        x = x_prop
    return WalkPathOutcome(True, x, None)


def _block_alive(
    params: WalkParams,
    x0s: Sequence[float],
    log_eps: float,
    noise_sd: float,
    t: int,
    rng: np.random.Generator,
    size: int,
) -> np.ndarray:
    """Survival masks (n_arms, size) for several starts on shared draws.

    Shocks and barrier noise are drawn once per step for all paths and
    reused by every arm (common random numbers), and are drawn for dead
    paths too so the stream position never depends on outcomes.
    """
    arms = len(x0s)
    x = np.tile(np.asarray(x0s, dtype=float)[:, None], (1, size))
    alive = np.ones((arms, size), dtype=bool)
    for _ in range(t):
        u = params.shocks.sample(rng, size)
        bar = log_eps
        if noise_sd > 0.0:
            bar = log_eps + noise_sd * rng.standard_normal(size)
        x_prop = x - params.mu + params.sigma * u
        alive &= x_prop >= bar
        np.copyto(x, x_prop, where=alive)
    return alive


def _crn_counts(
    params: WalkParams,
    x0s: Sequence[float],
    log_eps: float,
    noise_sd: float,
    t: int,
    n_paths: int,
    seed: int,
    workers: int | None,
) -> tuple[list[int], list[int]]:
    """Survivors per start, and survivors of both starts i and i + 1."""
    arms = len(x0s)

    def block(i: int, rng: np.random.Generator, size: int) -> np.ndarray:
        alive = _block_alive(params, x0s, log_eps, noise_sd, t, rng, size)
        both = np.count_nonzero(alive[1:] & alive[:-1], axis=1)
        return np.concatenate([np.count_nonzero(alive, axis=1), both])

    counts = np.sum(map_blocks(block, n_paths, seed, workers=workers), axis=0)
    return [int(c) for c in counts[:arms]], [int(c) for c in counts[arms:]]


def _ratio_estimate(
    params: WalkParams, x_a: float, x_b: float, k_a: int, k_b: int, k_ab: int, n: int
) -> RatioEstimate:
    """Survival ratio of x_a over x_b from CRN counts, with delta-method SE.

    k_ab counts the paths alive from both starts; the SE uses the
    empirical cross-covariance it gives.
    """
    if k_b == 0:
        raise ZeroDenominator(f"no survivors from x_b={x_b} in {n} paths")
    p_a, p_b, p_ab = k_a / n, k_b / n, k_ab / n
    ratio = p_a / p_b
    var_a = p_a * (1.0 - p_a) / n
    var_b = p_b * (1.0 - p_b) / n
    cov = (p_ab - p_a * p_b) / n
    var_ratio = (
        var_a / p_b**2 + p_a**2 * var_b / p_b**4 - 2.0 * p_a * cov / p_b**3
    )
    theory = math.exp(params.beta * (x_a - x_b))
    return RatioEstimate(
        ratio, math.sqrt(max(var_ratio, 0.0)), theory, n, int(k_a), int(k_b)
    )


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

    A start below the barrier raises BadStart. When the exact diffusion
    survival of a start, at the discrete-monitoring distance d + 0.5826
    sigma, is below 1e-8, the op refuses naive MC and points to the closed
    form instead. A ratio raises ZeroDenominator when start i has no
    survivors, and DegenerateSpec when sigma = 0.
    """
    log_eps, noise_sd = _barrier_params(barrier)
    if len(x0s) == 0:
        raise OutOfRange("need at least one start")
    for x0 in x0s:
        if x0 < log_eps:
            raise BadStart(f"x0={x0} below the barrier log eps={log_eps}")
    if n_paths < 1:
        raise OutOfRange(f"n_paths={n_paths} must be >= 1")
    if params.sigma > 0.0 and t > 0:
        from .diffusion import survival_closed_form

        for x0 in x0s:
            d = x0 - log_eps + _MONITORING_SHIFT * params.sigma
            predicted = survival_closed_form(params.mu, params.sigma, d, float(t))
            if predicted < RARE_EVENT_FLOOR:
                raise RareEventRegime(
                    f"predicted survival {predicted:.3e} < {RARE_EVENT_FLOOR} from "
                    f"x0={x0}; naive MC cannot resolve it, use "
                    "diffusion.survival_closed_form"
                )
    k, k_pairs = _crn_counts(params, x0s, log_eps, noise_sd, t, n_paths, seed, workers)
    estimates = []
    for survivors in k:
        p_hat = survivors / n_paths
        se = math.sqrt(p_hat * (1.0 - p_hat) / n_paths)
        estimates.append(SurvivalEstimate(p_hat, se, n_paths, survivors))
    ratios = [
        _ratio_estimate(params, x0s[i + 1], x0s[i], k[i + 1], k[i], k_pairs[i], n_paths)
        for i in range(len(x0s) - 1)
    ]
    return tuple(estimates), tuple(ratios)


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
    (seed, n_paths) for any worker count, and refusing naive MC when the
    predicted survival is below 1e-8.
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
    """Ratio of survival probabilities from two starts, with CRN pairing.

    Both arms see identical shock and barrier-noise draws, so the ratio
    estimate is far tighter than independent runs; the SE is the delta
    method with the empirical cross-covariance. The theory target is
    exp((mu/sigma^2) (x_a - x_b)). There is no rare-event screen.
    """
    log_eps, noise_sd = _barrier_params(barrier)
    for name, x in (("x_a", x_a), ("x_b", x_b)):
        if x < log_eps:
            raise BadStart(f"{name}={x} below the barrier log eps={log_eps}")
    if params.sigma == 0.0:
        raise DegenerateSpec("theory ratio undefined for sigma = 0")
    if n_paths < 1:
        raise OutOfRange(f"n_paths={n_paths} must be >= 1")
    (k_b, k_a), (k_ab,) = _crn_counts(
        params, [x_b, x_a], log_eps, noise_sd, t, n_paths, seed, workers
    )
    return _ratio_estimate(params, x_a, x_b, k_a, k_b, k_ab, n_paths)


def limit_regime_preset(params: WalkParams, offset_sigmas: float = 10.0) -> LimitRegime:
    """Barrier distance and horizon placing the walk in the limit regime.

    The start sits offset_sigmas (8 to 15) shock scales above the barrier
    and the horizon is at least 10 (d/sigma)^2 periods, deep enough for the
    diffusion limit laws to apply.
    """
    if params.sigma == 0.0:
        raise DegenerateSpec("limit regime undefined for sigma = 0")
    if not (8.0 <= offset_sigmas <= 15.0):
        raise OutOfRange(f"offset_sigmas={offset_sigmas} outside [8, 15]")
    d = offset_sigmas * params.sigma
    return LimitRegime(d, int(math.ceil(10.0 * offset_sigmas**2)))
