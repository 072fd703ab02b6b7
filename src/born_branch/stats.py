"""Fitting and probability utilities used by the verification checks.

Ordinary least squares on log-log data, Kolmogorov-Smirnov distances,
exact and log-space binomial tail arithmetic, and percentile bootstrap
intervals for the median.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .errors import OutOfRange
from .rng import rng_stream

_BOOT_CHUNK = 1 << 20  # resample elements drawn and reduced at a time


@dataclass(frozen=True)
class FitResult:
    """Least-squares line fit: slope and intercept."""

    slope: float
    intercept: float


def _logsumexp(z: np.ndarray, buf: np.ndarray, mask: np.ndarray) -> float:
    """log sum exp(z), overwriting buf and mask.

    The maximum's m ties are split out of the shifted sum, which is taken
    in numpy's pairwise order over all of buf with the ties zeroed, and
    log1p(s / m) + log(m) + max is formed with numpy's float64 log1p and
    log; test_population pins its bits against a reference logsumexp over
    a whole population run. A maximum that is not finite (all of z -inf,
    say) is the result itself.
    """
    top = z.max()
    if not math.isfinite(top):
        return float(top)
    np.equal(z, top, out=mask)
    m = np.float64(np.count_nonzero(mask))
    np.subtract(z, top, out=buf)
    np.exp(buf, out=buf)
    buf[mask] = 0.0
    s = buf.sum()
    if s != 0:
        s = s / m
    return float(np.log1p(s) + np.log(m) + top)


def fit_power_law(xs: Sequence[float], ys: Sequence[float]) -> FitResult:
    """OLS fit ys ~ slope * xs + intercept on already-transformed data.

    Callers pass log-transformed coordinates, so the slope is the power-law
    exponent. Unequal lengths or fewer than two distinct xs raise OutOfRange.
    """
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise OutOfRange("xs and ys must be equal-length 1-d sequences")
    if x.size < 2 or np.ptp(x) == 0.0:
        raise OutOfRange("need at least two distinct abscissae")
    xbar = x.mean()
    ybar = y.mean()
    dx = x - xbar
    sxx = float(dx @ dx)
    slope = float(dx @ (y - ybar)) / sxx
    return FitResult(slope, ybar - slope * xbar)


def start_exponent(log_starts: Sequence[float], log_values: Sequence[float]) -> float:
    """fit_power_law slope of log_values on log_starts over the starts whose
    log value is above -inf (those with survivors): nan while fewer than two
    distinct starts remain, OutOfRange for unequal lengths."""
    if len(log_starts) != len(log_values):
        raise OutOfRange(f"{len(log_starts)} starts for {len(log_values)} values")
    pts = [(x, y) for x, y in zip(log_starts, log_values) if y > -math.inf]
    if len({x for x, _ in pts}) < 2:
        return math.nan
    return fit_power_law([x for x, _ in pts], [y for _, y in pts]).slope


def ks_distance(sample: Sequence[float], cdf: Callable[[np.ndarray], np.ndarray]) -> float:
    """Two-sided KS distance between a sample and a vectorized CDF.

    Takes both one-sided gaps at every order statistic: sup of
    i/n - F(x_(i)) and F(x_(i)) - (i-1)/n. The CDF is applied once to the
    sorted sample; a result of another shape raises TypeError.
    """
    xs = np.sort(np.asarray(sample, dtype=float))
    n = xs.size
    if n == 0:
        raise OutOfRange("KS distance of an empty sample")
    f = np.asarray(cdf(xs), dtype=float)
    if f.shape != xs.shape:
        raise TypeError(f"cdf returned shape {f.shape} for a sample of shape {xs.shape}")
    steps = np.arange(1, n + 1) / n
    d_plus = float(np.max(steps - f))
    d_minus = float(np.max(f - (steps - 1.0 / n)))
    return max(d_plus, d_minus, 0.0)


def binomial_logpmf(n: int, p: float, ks: np.ndarray) -> np.ndarray:
    """log P(S = k) for S ~ Binomial(n, p) at each integer-valued k in ks,
    with 0 log 0 = 0, so p = 0 or 1 gives 0 and -inf without a warning."""
    log_n = math.lgamma(n + 1)
    log_comb = [log_n - math.lgamma(k + 1) - math.lgamma(n - k + 1) for k in ks.tolist()]
    with np.errstate(divide="ignore", invalid="ignore"):  # log 0, then 0 * -inf
        hits = np.where(ks > 0, ks * np.log(p), 0.0)
        misses = np.where(ks < n, (n - ks) * np.log1p(-p), 0.0)
    return np.asarray(log_comb) + hits + misses


def binomial_interval_logprob(n: int, p: float, lo: int, hi: int) -> tuple[float, float]:
    """(log P(lo <= S <= hi), log P(outside)) for S ~ Binomial(n, p).

    The complement is summed from its own two tails rather than via
    log1p(-exp(...)), so both values stay accurate when either probability
    is tiny.
    """
    if not (0 <= lo <= hi <= n):
        raise OutOfRange(f"need 0 <= lo <= hi <= n, got lo={lo}, hi={hi}, n={n}")
    if not (0.0 <= p <= 1.0):
        raise OutOfRange(f"p={p} outside [0, 1]")

    def logsumexp(a: np.ndarray) -> float:
        return _logsumexp(a, np.empty_like(a), np.empty(a.shape, dtype=bool))

    ks = np.arange(0, n + 1, dtype=float)
    lp = binomial_logpmf(n, p, ks)
    log_in = min(logsumexp(lp[lo : hi + 1]), 0.0)
    tails = np.concatenate([lp[:lo], lp[hi + 1 :]])
    log_out = logsumexp(tails) if tails.size else -math.inf
    return log_in, log_out


def binomial_count_fraction(n: int, lo: int, hi: int) -> tuple[float, Fraction]:
    """Fraction of 2^n equal-weight outcomes with between lo and hi successes.

    Computed with exact big integers: sum_{k=lo}^{hi} C(n, k) / 2^n. Returns
    the base-10 log of the fraction and the fraction itself, which stays
    exact far below float underflow.
    """
    if not (0 <= lo <= hi <= n):
        raise OutOfRange(f"need 0 <= lo <= hi <= n, got lo={lo}, hi={hi}, n={n}")
    total = sum(math.comb(n, k) for k in range(lo, hi + 1))
    return math.log10(total) - n * math.log10(2.0), Fraction(total, 2**n)


def bootstrap_ci(
    sample: Sequence[float], n_boot: int = 1000, seed: int = 0
) -> tuple[float, float]:
    """95% percentile bootstrap interval for the median of sample.

    The (n_boot, n) resample indices are drawn and reduced to row medians
    _BOOT_CHUNK elements at a time (at least one row). The generator gives
    the same numbers when a draw is split by rows, so the interval is the
    one a single (n_boot, n) draw gives, without holding it in memory.
    """
    arr = np.asarray(sample, dtype=float)
    if arr.size == 0:
        raise OutOfRange("bootstrap of an empty sample")
    if n_boot < 1:
        raise OutOfRange(f"n_boot={n_boot} must be >= 1")
    rng = rng_stream(seed, 0)
    rows = max(1, _BOOT_CHUNK // arr.size)
    stats = np.concatenate([
        np.median(arr[rng.integers(0, arr.size, size=(min(rows, n_boot - r), arr.size))], axis=1)
        for r in range(0, n_boot, rows)
    ])
    tail = (1.0 - 0.95) / 2.0  # just above 0.025; the literal would move the last bits
    return float(np.quantile(stats, tail)), float(np.quantile(stats, 1.0 - tail))
