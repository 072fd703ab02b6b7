"""End-to-end measurement pipeline: prepare, branch, truncate, count.

A measurement splits a prepared amplitude into K outcome branches with
weights delta_k. Preparation draws the pre-measurement log amplitude a
distance u ~ Exp(prep_rate) above the threshold; branch k then starts
Y_0 = u + log delta_k above it and diffuses under the critically tuned
drift mu = sigma^2, absorbed at the threshold, until horizon tau.
Conditioned on survival, the branch frequencies estimate the outcome weights.

Exact factorization: with q_tau the survival probability as a function of
the start distance, the survivors in arm k have unnormalized mass
    integral_0^inf r e^{-r u} q_tau(u + log delta_k) du
      = delta_k^r * r * integral_0^inf e^{-r y} q_tau(y) dy
(substitute y = u + log delta_k and use that q_tau vanishes below the
barrier), so conditioned frequencies are exactly proportional to delta_k^r
at every tau. The default prep_rate 1 = mu/sigma^2 reproduces frequencies
delta_k; the alternate 2 mu/sigma^2 gives delta_k^2.

The constant C = r * integral_0^inf e^{-r y} q_tau(y) dy, a Laplace
transform of the running maximum of drifted Brownian motion (Borodin &
Salminen, Handbook of Brownian Motion, 2002), has a closed form at
mu = sigma^2. With w = sigma sqrt(tau), v = (r - 1) w and
g(x) = 2 x exp((x^2 - w^2)/2) Phi(-x), integration by parts and two
completed squares give C = (g(w) - g(v)) / (w - v), erfc(sigma sqrt(tau/2))
at r = 1. The quotient cancels as r -> 2 (16x off at r = 2 + 1e-12, sigma
= 1, tau = 1000), so within 1e-4 of 2, C is g' at the midpoint (w + v)/2,
off by g''' (w - v)^2 / 24, with g'(x) = 2 e^{(x^2 - w^2)/2} ((1 + x^2)
Phi(-x) - x phi(x)); both stay within 7.4e-8 of 80-digit values up to
tau = 1000. g is finite wherever x^2 is, so C can underflow to 0 but never
overflows. g and g' take erfcx from diffusion._log_erfcx, as 2 Phi(-x) =
erfc(x/sqrt 2) makes g(x) = x exp(log erfcx(x/sqrt 2) - w^2/2).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .diffusion import _SQRT2, _log_erfcx, _screen_survivors, batch_survive
from .errors import OutOfRange, TooFewSurvivors
from .model import BranchingSpec, DiffusionParams, _positive_finite
from .rng import map_blocks
from .stats import bootstrap_ci


@dataclass(frozen=True)
class MeasurementSetup:
    """Outcome weights and diffusion scale with the critical tuning mu = sigma^2."""

    deltas: tuple[float, ...]
    sigma: float
    tau: float
    log_deltas: tuple[float, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        spec = BranchingSpec(self.deltas)
        DiffusionParams(0.0, self.sigma)  # refuses sigma unless 0 < sigma^2 = mu < inf
        _positive_finite("tau", self.tau)
        object.__setattr__(self, "deltas", spec.deltas)
        object.__setattr__(self, "log_deltas", spec.log_deltas)

    @property
    def K(self) -> int:
        return len(self.deltas)

    @property
    def mu(self) -> float:
        """Drift under the critical tuning: mu = sigma^2, so beta = 1."""
        return self.sigma * self.sigma


def outcome_weights(
    setup: MeasurementSetup, prep_rate: float = 1.0
) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Exact conditioned frequencies delta_k^r normalized (r = prep_rate) and
    per-arm survival probabilities delta_k^r * C, by the factorization and
    the closed form of C in the module docstring."""
    r = _positive_finite("prep_rate", prep_rate)
    # scaled by max delta^r, so the sum is at least 1 even where every
    # delta_k^r underflows
    top = max(setup.deltas)
    scaled = [(d / top) ** r for d in setup.deltas]
    total = math.fsum(scaled)
    weights = tuple(s / total for s in scaled)
    w = setup.sigma * math.sqrt(setup.tau)
    v = (r - 1.0) * w
    if abs(2.0 - r) <= 1e-4:  # the quotient cancels: g' at the midpoint, w at r = 2
        x = (w + v) / 2.0
        bracket = (1.0 + x * x) * math.exp(_log_erfcx(x / _SQRT2)) - x * math.sqrt(2.0 / math.pi)
        c_val = math.exp(-w * w / 2.0) * bracket
    else:
        g_w, g_v = (x * math.exp(_log_erfcx(x / _SQRT2) - w * w / 2.0) for x in (w, v))
        c_val = (g_w - g_v) / (w - v)
    survival = tuple(d**r * c_val for d in setup.deltas)
    return weights, survival


@dataclass(frozen=True)
class OutcomeStats:
    """Conditioned statistics of one outcome arm."""

    delta: float
    n_survivors: int
    frequency: float
    freq_se: float
    median_y0: float
    median_ci: tuple[float, float]


@dataclass(frozen=True)
class PipelineResult:
    """Per-outcome conditioned frequencies and start-distance medians."""

    outcomes: tuple[OutcomeStats, ...]
    n_paths: int
    n_survivors: int


def measurement_pipeline(
    setup: MeasurementSetup,
    n_paths: int,
    seed: int = 0,
    prep_rate: float = 1.0,
    n_boot: int = 400,
    workers: int | None = None,
) -> PipelineResult:
    """Run the prepare-branch-truncate pipeline and tally survivors.

    Each path draws its preparation offset, picks one outcome arm uniformly
    (arms are exchangeable, so this estimates the conditioned frequencies),
    and diffuses to tau in one exact bridge-killed step (survival is all
    the pipeline reads, and that step draws its law exactly). Per-arm
    medians of the post-measurement start Y_0 carry percentile-bootstrap
    intervals; prepared_median_reference gives their large-tau law.

    Any tau runs, as the factorization is exact. The one precondition, the
    survivor screen, is n_paths/K delta_k^r C >= 50 (exact C) in every arm.
    """
    if n_paths < 1:
        raise OutOfRange(f"n_paths={n_paths} must be >= 1")
    if n_boot < 1:
        raise OutOfRange(f"n_boot={n_boot} must be >= 1")
    _, survival = outcome_weights(setup, prep_rate)
    k_arms = setup.K
    _screen_survivors(n_paths, [
        (f"arm {k} (delta={delta})", n_paths / k_arms * s)
        for k, (delta, s) in enumerate(zip(setup.deltas, survival))
    ])
    log_deltas = np.asarray(setup.log_deltas)

    def block(i: int, rng: np.random.Generator, size: int) -> tuple[np.ndarray, np.ndarray]:
        u = rng.exponential(scale=1.0 / prep_rate, size=size)
        arm = rng.integers(0, k_arms, size=size)
        y0 = u + log_deltas[arm]
        alive, _ = batch_survive(setup.mu, setup.sigma, y0, setup.tau, setup.tau, rng, size)
        return arm[alive], y0[alive]

    parts = map_blocks(block, n_paths, seed, workers=workers)
    arms = np.concatenate([p[0] for p in parts])
    y0s = np.concatenate([p[1] for p in parts])
    n_surv = int(arms.size)
    if n_surv == 0:
        raise TooFewSurvivors(f"no survivors out of {n_paths} paths")
    outcomes = []
    for k in range(k_arms):
        y0_k = y0s[arms == k]
        n_k = int(y0_k.size)
        freq = n_k / n_surv
        freq_se = math.sqrt(freq * (1.0 - freq) / n_surv)
        if n_k:
            med = float(np.quantile(y0_k, 0.5))
            ci = bootstrap_ci(y0_k, n_boot=n_boot, seed=seed + 7919 * (k + 1))
        else:
            med = math.nan
            ci = (math.nan, math.nan)
        outcomes.append(OutcomeStats(setup.deltas[k], n_k, freq, freq_se, med, ci))
    return PipelineResult(tuple(outcomes), n_paths, n_surv)


def prepared_median_reference(setup: MeasurementSetup) -> float:
    """Large-tau reference median of the start distance Y_0 under rate-1 preparation.

    With prep_rate = mu/sigma^2 the preparation tilt cancels the e^{mu
    y/sigma^2} factor in the survival asymptote, leaving a Rayleigh law
    with scale sigma sqrt(tau): median sqrt(2 sigma^2 tau ln 2). The
    conditioned shape is exactly identical across outcome arms at every
    tau (the delta_k^r factor normalizes out), and grows like sqrt(tau).
    """
    return math.sqrt(2.0 * setup.sigma**2 * setup.tau * math.log(2.0))
