"""Interacting particle system with a population-defined threshold.

N particles diffuse in log amplitude; after each step the threshold is
recomputed as xi = varepsilon * mean(Phi) over the current particles,
particles strictly below it are absorbed, and each absorbed particle is
replaced by a copy of a uniformly chosen survivor. The log threshold then
grows linearly; its slope is fitted from step int(0.3 n) on. Targets for
the slope, such as model.endogenous_alpha's exponential ansatz, live in
the checks that judge it.

The state is carried in centered coordinates Z - log phi0, so rescaling
phi0 shifts every reported threshold by exactly log(phi0) and changes
nothing else, bit for bit. The CLI's endogenous run relies on this at
phi0 = 1: it fits the trajectory shifted by log 100 in place of a second
run at phi0 = 100.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .diffusion import _resolve_steps
from .errors import OutOfRange, TooFewSurvivors
from .model import _check_endogenous, _positive_finite
from .rng import rng_stream
from .stats import FitResult, _logsumexp, fit_power_law

#: Fraction of the trajectory that the growth fit discards as transient.
BURN_IN = 0.3


@dataclass(frozen=True)
class PopulationRun:
    """Threshold trajectory of one run and its fitted growth rate."""

    times: np.ndarray
    log_xi: np.ndarray
    n_survivors: np.ndarray
    mean_z: np.ndarray
    fit: FitResult
    resample_count: int

    @property
    def slope(self) -> float:
        return self.fit.slope


def endogenous_population(
    tilde_mu: float,
    sigma: float,
    varepsilon: float,
    n_particles: int,
    tau: float,
    dt: float = 0.01,
    phi0: float = 1.0,
    seed: int = 0,
) -> PopulationRun:
    """Run the self-thresholding population and fit the threshold growth.

    Update order per step: diffuse all particles, recompute the threshold
    from the diffused population, absorb (strictly below dies, equality
    survives), then clone survivors onto the absorbed slots. Raises
    TooFewSurvivors if a step leaves no survivors, and before any allocation
    TooLarge if tau / dt exceeds diffusion.MAX_STEPS and OutOfRange if it
    rounds to one step, which leaves the fit one point. The growth fit
    discards the first BURN_IN fraction of the trajectory. With no closed
    form, no survivor screen runs.
    """
    _check_endogenous(tilde_mu, sigma, varepsilon)
    if n_particles < 2:
        raise OutOfRange(f"n_particles={n_particles} must be >= 2")
    _positive_finite("phi0", phi0)
    n_steps, dt_eff = _resolve_steps(tau, dt)
    if n_steps < 2:
        raise OutOfRange(f"tau={tau}, dt={dt} give one step; the fit needs two")
    rng = rng_stream(seed, 0)
    sdt = sigma * math.sqrt(dt_eff)
    log_phi0 = math.log(phi0)
    log_eps_tilde = math.log(varepsilon)
    drift = -tilde_mu * dt_eff
    log_n = math.log(n_particles)
    z = np.zeros(n_particles)  # centered: Z - log phi0
    buf = np.empty(n_particles)
    mask = np.empty(n_particles, dtype=bool)
    times = np.empty(n_steps)
    log_xi = np.empty(n_steps)
    n_survivors = np.empty(n_steps, dtype=np.int64)
    mean_z = np.empty(n_steps)
    resampled = 0
    for step in range(n_steps):
        rng.standard_normal(out=buf)
        buf *= sdt
        buf += drift
        z += buf
        cur_xi = log_eps_tilde + _logsumexp(z, buf, mask) - log_n
        np.less(z, cur_xi, out=mask)
        n_dead = int(np.count_nonzero(mask))
        if n_dead == n_particles:
            raise TooFewSurvivors(f"all {n_particles} particles absorbed at step {step + 1}")
        if n_dead:
            survivors = np.flatnonzero(~mask)
            donors = survivors[rng.integers(0, survivors.size, size=n_dead)]
            z[mask] = z[donors]
            resampled += n_dead
        times[step] = (step + 1) * dt_eff
        log_xi[step] = cur_xi + log_phi0
        n_survivors[step] = n_particles - n_dead
        mean_z[step] = float(z.mean()) + log_phi0
    start = int(BURN_IN * n_steps)  # n_steps >= 2 leaves the fit >= 2 points
    fit = fit_power_law(times[start:], log_xi[start:])
    return PopulationRun(
        times=times,
        log_xi=log_xi,
        n_survivors=n_survivors,
        mean_z=mean_z,
        fit=fit,
        resample_count=resampled,
    )
