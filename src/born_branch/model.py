"""Parameter algebra for truncated branching processes.

Branching specifications, threshold schedules, the induced random-walk and
diffusion parameters, feasibility checks for the critical decay rate, and
the endogenous-threshold growth formulas. All derived quantities live in
log space.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Union

import numpy as np

from .errors import DegenerateSpec, OutOfRange

#: Absolute tolerance on sum(deltas) == 1.
SIMPLEX_TOL = 1e-12


@dataclass(frozen=True)
class BranchingSpec:
    """A K-way branching specification with ratios delta_k summing to one.

    Each period a branch splits into K children carrying squared-amplitude
    fractions delta_k. Derived quantities use the geometric mean delta_bar:
    log_devs are the centered log ratios log(delta_k / delta_bar), whose
    population variance is sigma2.
    """

    deltas: tuple[float, ...]
    log_deltas: tuple[float, ...] = field(init=False, repr=False)
    log_delta_bar: float = field(init=False, repr=False)
    log_devs: tuple[float, ...] = field(init=False, repr=False)
    sigma2: float = field(init=False, repr=False)

    def __post_init__(self) -> None:
        deltas = tuple(float(d) for d in self.deltas)
        if not deltas:
            raise OutOfRange("need at least one branching ratio")
        for d in deltas:
            # upper boundary 1.0 is reachable only in the K=1 degenerate case
            if not (0.0 < d <= 1.0) or (d == 1.0 and len(deltas) > 1):
                raise OutOfRange(f"branching ratio {d} outside (0, 1)")
        total = math.fsum(deltas)
        if abs(total - 1.0) > SIMPLEX_TOL:
            raise OutOfRange(
                f"branching ratios sum to {total!r}, off the simplex by "
                f"{total - 1.0:.3e} (> {SIMPLEX_TOL})"
            )
        log_deltas = tuple(math.log(d) for d in deltas)
        log_bar = math.fsum(log_deltas) / len(deltas)
        devs = tuple(ld - log_bar for ld in log_deltas)
        object.__setattr__(self, "deltas", deltas)
        object.__setattr__(self, "log_deltas", log_deltas)
        object.__setattr__(self, "log_delta_bar", log_bar)
        object.__setattr__(self, "log_devs", devs)
        object.__setattr__(self, "sigma2", math.fsum(d * d for d in devs) / len(devs))

    @property
    def K(self) -> int:
        return len(self.deltas)

    @property
    def delta_bar(self) -> float:
        """Geometric mean of the branching ratios."""
        return math.exp(self.log_delta_bar)

    @property
    def sigma(self) -> float:
        """Population standard deviation of log(delta_k / delta_bar)."""
        return math.sqrt(self.sigma2)


class AlphaResult(NamedTuple):
    alpha: float
    feasible: bool


class EndogenousAlpha(NamedTuple):
    log_alpha: float
    c0: float


def alpha_for_unit_beta(spec: BranchingSpec) -> AlphaResult:
    """Decay rate alpha with beta(alpha) = 1, and whether it is usable.

    alpha = delta_bar * exp(sigma2). Feasible means the truncated process
    can actually sustain growth at that rate: delta_bar < alpha < max delta_k
    with sigma > 0. Never raises; infeasible specs return feasible=False.
    """
    alpha = math.exp(spec.log_delta_bar + spec.sigma2)
    return AlphaResult(alpha, _alpha_feasible(spec, alpha))


def _alpha_feasible(spec: BranchingSpec, alpha: float) -> bool:
    # decay rates at which the truncated tree can keep growing
    return spec.sigma2 > 0.0 and spec.delta_bar < alpha < max(spec.deltas)


def endogenous_alpha(tilde_mu: float, sigma: float, varepsilon: float) -> EndogenousAlpha:
    """Predicted growth rate and intercept of the endogenous threshold.

    Under the exponential quasi-stationary ansatz with rate 1/(1-varepsilon):
    log alpha = sigma^2 / (1 - varepsilon) - tilde_mu and, for a population
    started at phi0 = 1, the threshold intercept is c0 = varepsilon /
    (1 - varepsilon). Returned as reference targets; the measured growth
    rate of the interacting particle system deviates from this ansatz (see
    endogenous_population docs).
    """
    _positive_finite("sigma", sigma)
    if not (0.0 < varepsilon < 1.0):
        raise OutOfRange(f"varepsilon={varepsilon} outside (0, 1)")
    log_alpha = sigma * sigma / (1.0 - varepsilon) - tilde_mu
    return EndogenousAlpha(log_alpha, varepsilon / (1.0 - varepsilon))


def _positive_finite(name: str, value: float) -> float:
    """value itself if 0 < value < inf; OutOfRange otherwise, NaN included."""
    if not 0.0 < value < math.inf:
        raise OutOfRange(f"{name}={value} must be positive and finite")
    return value


@dataclass(frozen=True)
class Exogenous:
    """Deterministic threshold xi_t = epsilon * alpha^t."""

    epsilon: float
    alpha: float

    def __post_init__(self) -> None:
        _positive_finite("epsilon", self.epsilon)
        if not (0.0 < self.alpha < 1.0):
            raise OutOfRange(f"alpha={self.alpha} outside (0, 1)")

    def log_xi(self, t: int) -> float:
        # canonical one-multiply-one-add form, shared by every consumer so
        # float decisions agree bit for bit across backends
        return math.log(self.epsilon) + t * math.log(self.alpha)


@dataclass(frozen=True)
class RandomBarrier:
    """Noisy log threshold: log xi_t = log epsilon + V_t, V_t ~ N(0, noise_sd^2)."""

    epsilon: float
    noise_sd: float

    def __post_init__(self) -> None:
        _positive_finite("epsilon", self.epsilon)
        if not 0.0 <= self.noise_sd < math.inf:
            raise OutOfRange(f"noise_sd={self.noise_sd} must be finite and >= 0")


ThresholdSchedule = Union[Exogenous, RandomBarrier]


@dataclass(frozen=True)
class FiniteSupportShocks:
    """Uniform law on the standardized log deviations of a branching spec."""

    values: tuple[float, ...]

    @classmethod
    def from_spec(cls, spec: BranchingSpec) -> "FiniteSupportShocks":
        if spec.sigma2 == 0.0:
            raise DegenerateSpec("cannot standardize shocks of a zero-variance spec")
        s = spec.sigma
        return cls(tuple(d / s for d in spec.log_devs))

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        vals = np.asarray(self.values)
        return vals[rng.integers(0, len(vals), size=size)]


@dataclass(frozen=True)
class LogUniformShocks:
    """U = log(u) + 1 for u uniform on (0, 1): mean 0, variance 1, support (-inf, 1]."""

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        u = rng.random(size)
        np.clip(u, np.finfo(float).tiny, None, out=u)
        return np.log(u) + 1.0


@dataclass(frozen=True)
class GaussianShocks:
    """Standard normal shocks."""

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.standard_normal(size)


ShockLaw = Union[FiniteSupportShocks, LogUniformShocks, GaussianShocks]


@dataclass(frozen=True)
class WalkParams:
    """Downward random walk X_t = X_{t-1} - mu + sigma U_t with standardized shocks."""

    mu: float
    sigma: float
    shocks: ShockLaw = GaussianShocks()

    def __post_init__(self) -> None:
        _positive_finite("drift mu", self.mu)
        if not self.sigma >= 0.0:  # NaN included
            raise OutOfRange(f"sigma={self.sigma} must be >= 0")

    @classmethod
    def from_branching(cls, spec: BranchingSpec, alpha: float) -> "WalkParams":
        """Walk induced by a branching spec under decay rate alpha: mu =
        log(alpha / delta_bar), sigma and shocks from the spec. alpha outside
        (0, 1) raises OutOfRange, a zero-variance spec DegenerateSpec."""
        if not (0.0 < alpha < 1.0):
            raise OutOfRange(f"decay rate alpha={alpha} outside (0, 1)")
        shocks = FiniteSupportShocks.from_spec(spec)
        return cls(math.log(alpha) - spec.log_delta_bar, spec.sigma, shocks)

    @property
    def beta(self) -> float:
        if self.sigma * self.sigma == 0.0:  # sigma = 0, or a square that underflows
            raise DegenerateSpec(
                f"beta undefined: sigma={self.sigma} squares to 0, as for a "
                "deterministic walk (sigma = 0)"
            )
        return self.mu / (self.sigma * self.sigma)


@dataclass(frozen=True)
class DiffusionParams:
    """Drifted Brownian motion dX = -mu dt + sigma dW."""

    mu: float
    sigma: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.mu):
            raise OutOfRange(f"mu={self.mu} must be finite")
        if _positive_finite("sigma", self.sigma) ** 2 == 0.0:  # the square underflows
            raise OutOfRange(f"sigma={self.sigma} must be positive, with a square above 0")

    @property
    def beta(self) -> float:
        return self.mu / (self.sigma * self.sigma)
