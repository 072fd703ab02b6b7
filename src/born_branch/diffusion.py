"""Absorbed drifted Brownian motion: closed forms and bridge-corrected MC.

The scaling limit of the truncated walk is dX = -mu dt + sigma dW absorbed
at log epsilon. Every op here takes a start as its distance d above that
barrier, which is all the law of a path depends on. survival_closed_form is
the exact method-of-images probability of staying above the barrier to
time tau. The Monte Carlo kernels step the motion exactly and kill each
step with the Brownian-bridge crossing probability given both ends, which
for constant drift and volatility is exact for a step of any length
(Glasserman, Monte Carlo Methods in Financial Engineering, 2004, sec. 6.4).
Ops that need only survival and the endpoint (the conditioned samplers)
therefore take one step of length tau by default.

The conditioned sample is the survivors' distances above the barrier and
nothing else: the laws it is checked against live in the tests. Its limit
law is Gamma(2, mu/sigma^2) (density proportional to y exp(-mu y/sigma^2)),
the Yaglom limit of drifted Brownian motion (Martinez & San Martin, J. Appl.
Probab. 31, 1994), which the tests pin. At finite tau the survivors follow
the method-of-images density exactly.

The one special function the closed forms need, log(e^{x^2} erfc(x)), is
_log_erfcx below, built from math.erfc and a continued fraction alone.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import OutOfRange, TooFewSurvivors, TooLarge
from .model import DiffusionParams, _positive_finite
from .rng import map_blocks

_SQRT2 = math.sqrt(2.0)

#: Most time steps one path may take: the bridge kernel and the population
#: refuse a finer dt before they allocate or draw.
MAX_STEPS = 10**7

#: Fewest survivors the closed form must predict per estimate (Poisson counts:
#: none with probability e^-50, or e^-25 if the form is twofold high).
MIN_EXPECTED_SURVIVORS = 50


def _screen_survivors(n_paths: int, predicted: Sequence[tuple[str, float]]) -> None:
    """The one survivor screen of every Monte Carlo op with a closed form:
    before any block of the n_paths is drawn, refuse as TooFewSurvivors
    each (name, predicted count) below MIN_EXPECTED_SURVIVORS, NaN too."""
    short = [f"{name} expects {n:.3g}" for name, n in predicted if not n >= MIN_EXPECTED_SURVIVORS]
    if short:
        raise TooFewSurvivors(
            f"closed form predicts fewer than {MIN_EXPECTED_SURVIVORS} survivors from {n_paths} "
            f"paths: {'; '.join(short)}; raise the path count or start further from the barrier"
        )


def _cf_tail(x: float) -> float:
    """f - x for f = x + (1/2)/(x + 1/(x + (3/2)/(x + ...))), the continued
    fraction of 1/(sqrt(pi) erfcx(x)) (Abramowitz & Stegun 7.1.14), over 40
    terms, truncated below 5e-17 for x >= 2.5."""
    f = x
    for k in range(40, 1, -1):
        f = x + 0.5 * k / f
    return 0.5 / f


def _log_erfcx(x: float) -> float:
    """log(e^{x^2} erfc(x)) for every finite x: direct below 2.5 (the sum loses
    under ulp(6.25)), else through the continued fraction of _cf_tail."""
    if x < 2.5:
        return x * x + math.log(math.erfc(x))
    return -math.log(x + _cf_tail(x)) - 0.5 * math.log(math.pi)


def _log_ndtr(z: float) -> float:
    """log Phi(z), the standard normal log CDF, for every finite z."""
    if z > -1.0:
        return math.log1p(-0.5 * math.erfc(z / _SQRT2))
    return _log_erfcx(-z / _SQRT2) - 0.5 * z * z - math.log(2.0)


def log_survival_closed_form(mu: float, sigma: float, d: float, tau: float) -> float:
    """Log probability that the motion stays above the barrier through tau.

    Method of images for a start d above the barrier:
        q = Phi(z1) - exp(2 mu d / sigma^2) Phi(z2),
        z1, z2 = (d - mu tau, -d - mu tau) / (sigma sqrt(tau)).
    Evaluated as log Phi(z1) + log(1 - e^r), r the log image/direct ratio:
    for z2 < z1 <= 0 the log erfcx ratio, as (z2^2 - z1^2)/2 = 2 mu d/sigma^2
    cancels the exponentials exactly (accurate down to 1e-300 and far below);
    else 2 mu d/sigma^2 plus the log Phi ratio, since there the erfcx ratio
    would subtract two rounded z^2/2 that grow with tau. Below d = 1e-5
    sigma sqrt(tau) both forms of r cancel to nothing, so r is taken at
    first order in d: -2 (d / (sigma sqrt tau)) (phi(a)/Phi(-a) - a) with
    a = mu sqrt(tau) / sigma, the bracket read off the erfcx continued
    fraction for large a, where it cancels too (within 1e-9 of 400-digit
    values down to d = 1e-300). A term below float range of Phi(z1) is
    dropped, so the result is never NaN. A non-finite mu, a sigma that
    DiffusionParams refuses, or a d or tau that is not positive and finite
    raises OutOfRange.
    """
    DiffusionParams(mu, sigma)  # refuses a non-finite mu and a bad sigma
    _positive_finite("barrier distance d", d)
    _positive_finite("horizon tau", tau)
    st = sigma * math.sqrt(tau)  # finite, as sigma^2 and tau are
    z1 = (d - mu * tau) / st
    z2 = (-d - mu * tau) / st
    head = _log_ndtr(z1)
    if head == -math.inf:  # q <= Phi(z1), which is 0 in float range
        return head
    if d < 1e-5 * st:  # the terms cancel in r: its first order, O((d/st)^3) off
        x = mu * tau / (st * _SQRT2)
        gap = _cf_tail(x) if x >= 2.5 else math.exp(-_log_erfcx(x)) / math.sqrt(math.pi) - x
        c = 2.0 * _SQRT2 * gap  # r = -c d / st
        if c * d >= 1e-5 * st:
            return head + math.log(-math.expm1(-c * d / st))
        # log(1 - e^r) = log(-r) + r/2 + O(r^2), with no underflow in -r
        return head + math.log(c) + math.log(d) - math.log(st) - c * (d / st) / 2.0
    if z1 <= 0.0:
        r = _log_erfcx(-z2 / _SQRT2) - _log_erfcx(-z1 / _SQRT2)
    else:
        tail = _log_ndtr(z2)
        # |z2| > 1.3e154 and e^{2 mu d/sigma^2} phi(z2) = phi(z1): the image
        # is below e^-354 of Phi(z1)
        if tail == -math.inf:
            return head
        r = 2.0 * mu * d / (sigma * sigma) + tail - head
    if r >= 0.0:
        return -math.inf
    image = math.exp(r)
    if image == 1.0:  # -r below an ulp of 1: 1 - e^r is -expm1(r), not 0
        return head + math.log(-math.expm1(r))
    return head + math.log1p(-image)


def survival_closed_form(mu: float, sigma: float, d: float, tau: float) -> float:
    """Exact survival probability; underflows to 0.0 below exp(-745)."""
    return math.exp(log_survival_closed_form(mu, sigma, d, tau))


def _resolve_steps(tau: float, dt: float, key: str = "dt") -> tuple[int, float]:
    """Step count round(tau / dt), at least 1, and the step that fits tau.

    A count above MAX_STEPS is refused as TooLarge naming key (the caller's
    name for dt), before the caller allocates or draws anything.
    """
    _positive_finite("tau", tau)
    if not dt > 0.0:  # NaN included
        raise OutOfRange(f"{key}={dt} must be positive")
    steps = tau / dt
    if steps > MAX_STEPS:
        raise TooLarge(
            f"{key}={dt} makes tau/{key} = {steps:.3g} steps, above MAX_STEPS={MAX_STEPS}"
        )
    n_steps = max(1, int(round(steps)))
    return n_steps, tau / n_steps


def batch_survive(
    mu: float,
    sigma: float,
    y0,
    tau: float,
    dt: float,
    rng: np.random.Generator,
    size: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Evolve size paths of Y (distance above the barrier) to time tau.

    Gaussian steps with the Brownian-bridge crossing probability
    exp(-2 y y' / (sigma^2 dt)) applied on every step. Both are exact for
    constant mu and sigma, so the survival law and the survivors' endpoint
    law are exact at any dt, and dt = tau draws them in one step. y0 may
    be a scalar or a per-path array; paths starting at or below 0 are born
    dead. Draws (one normal and one uniform array per step) never depend
    on outcomes. Returns (alive mask, final y).
    """
    if isinstance(size, bool) or not isinstance(size, (int, np.integer)) or size < 0:
        raise OutOfRange(f"size={size!r} must be an integer >= 0")
    DiffusionParams(mu, sigma)  # refuses a non-finite mu and a bad sigma
    n_steps, dt_eff = _resolve_steps(tau, dt)
    y = np.full(size, y0, dtype=float) if np.isscalar(y0) else np.asarray(y0, float).copy()
    alive = y > 0.0
    sdt = sigma * math.sqrt(dt_eff)
    two_over = 2.0 / (sigma * sigma * dt_eff)
    for _ in range(n_steps):
        z = rng.standard_normal(size)
        u = rng.random(size)
        y_new = y - mu * dt_eff + sdt * z
        with np.errstate(over="ignore"):  # an inf product is a kill chance of 0
            bridge = np.exp(-two_over * np.maximum(y, 0.0) * np.maximum(y_new, 0.0))
        alive &= ~((y_new < 0.0) | (u < bridge))
        y = np.where(alive, y_new, y)
    return alive, y


def ratio_convergence_scan(
    params: DiffusionParams,
    d_a: float,
    d_b: float,
    tau_grid: Sequence[float],
) -> list[float]:
    """Deterministic survival ratios q(d_a)/q(d_b), one per horizon in tau_grid.

    The exact ratio approaches (d_a/d_b) exp((mu/sigma^2)(d_a - d_b)) as
    tau grows, so for d_a > d_b finite-tau values sit above the bare tilt.
    """
    return [
        math.exp(
            log_survival_closed_form(params.mu, params.sigma, d_a, tau)
            - log_survival_closed_form(params.mu, params.sigma, d_b, tau)
        )
        for tau in tau_grid
    ]


def _survivor_ys(
    params: DiffusionParams,
    d: float,
    tau: float,
    n_paths: int,
    seed: int,
    dt: float | None,
    workers: int | None,
) -> np.ndarray:
    """Survivors' distances Y_tau above the barrier from Y_0 = d, in block order.

    dt defaults to tau (one exact step). The closed form must predict at
    least MIN_EXPECTED_SURVIVORS survivors.
    """
    dt = tau if dt is None else dt
    q = survival_closed_form(params.mu, params.sigma, d, tau)
    _screen_survivors(n_paths, [(f"d={d}", n_paths * q)])

    def block(i: int, rng: np.random.Generator, size: int) -> np.ndarray:
        alive, y = batch_survive(params.mu, params.sigma, d, tau, dt, rng, size)
        return y[alive]

    return np.concatenate(map_blocks(block, n_paths, seed, workers=workers))


def conditioned_sample(
    params: DiffusionParams,
    d: float,
    tau: float,
    n_paths: int,
    seed: int = 0,
    dt: float | None = None,
    workers: int | None = None,
) -> np.ndarray:
    """Sorted survivor distances Y_tau above the barrier at horizon tau, from Y_0 = d.

    Survivors are drawn in one exact step unless dt is given. The closed
    form must predict at least MIN_EXPECTED_SURVIVORS survivors.
    """
    if params.mu <= 0.0:
        raise OutOfRange("conditioned limit law needs downward drift mu > 0")
    return np.sort(_survivor_ys(params, d, tau, n_paths, seed, dt, workers))


@dataclass(frozen=True)
class MeanRatioResult:
    """Conditional mean amplitude over the threshold among the survivors."""

    estimate: float
    se: float
    n_paths: int
    n_survivors: int


def conditional_mean_ratio(
    params: DiffusionParams,
    d: float,
    tau: float,
    n_paths: int,
    seed: int = 0,
    dt: float | None = None,
    workers: int | None = None,
) -> MeanRatioResult:
    """Estimate E[Phi | Phi > 0] / xi at horizon tau, from Y_0 = d.

    Defined for beta = mu/sigma^2 > 1. At finite tau the exact value is
    E[e^Y] under the method-of-images density. The estimator averages
    exp(Y_tau) over survivors, drawn in one exact step unless dt is given;
    its SE is the plain sample error and understates the heavy right tail,
    so treat it as a lower bound on the uncertainty.
    """
    if params.beta <= 1.0:
        raise OutOfRange(f"beta={params.beta:.4g} <= 1: conditional mean diverges")
    ys = _survivor_ys(params, d, tau, n_paths, seed, dt, workers)
    vals = np.exp(ys)
    n_surv = int(vals.size)
    estimate = float(vals.mean())
    se = float(vals.std(ddof=1) / math.sqrt(n_surv)) if n_surv > 1 else math.inf
    return MeanRatioResult(estimate, se, n_paths, n_surv)
