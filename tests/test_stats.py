"""Tests for fitting, KS distance, binomial tail arithmetic, and resampling."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats as sps
from scipy.special import logsumexp

from born_branch import (
    DegenerateDesign,
    EmptySample,
    OutOfRange,
    binomial_count_fraction,
    binomial_interval_logprob,
    binomial_logpmf,
    bootstrap_ci,
    fit_power_law,
    ks_distance,
    rng_stream,
    start_exponent,
)


class TestFitPowerLaw:
    """OLS fit of log y against log-scale regressors."""

    def test_exact_line_recovered(self):
        """Noise-free points on slope 2.5 give slope 2.5 and intercept 1."""
        xs = [0.0, 1.0, 2.0, 3.0]
        ys = [1.0 + 2.5 * x for x in xs]
        fit = fit_power_law(xs, ys)
        assert fit.slope == pytest.approx(2.5, rel=1e-13)
        assert fit.intercept == pytest.approx(1.0, rel=1e-13)

    def test_matches_scipy_linregress(self):
        """Slope and intercept agree with scipy on noisy data."""
        rng = rng_stream(5, 0)
        xs = np.linspace(0.0, 3.0, 12)
        ys = 0.7 + 1.3 * xs + 0.05 * rng.standard_normal(12)
        fit = fit_power_law(xs, ys)
        ref = sps.linregress(xs, ys)
        assert fit.slope == pytest.approx(ref.slope, rel=1e-12)
        assert fit.intercept == pytest.approx(ref.intercept, rel=1e-12)

    def test_two_points_have_zero_stderr(self):
        """Two points are fitted exactly: the line passes through both."""
        fit = fit_power_law([0.0, 1.0], [2.0, 3.0])
        assert (fit.slope, fit.intercept) == (1.0, 2.0)

    def test_degenerate_designs_raise(self):
        with pytest.raises(DegenerateDesign):
            fit_power_law([1.0], [2.0])
        with pytest.raises(DegenerateDesign):
            fit_power_law([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_constant_response_is_flat_with_unit_r2(self):
        """SST = 0: the flat line through the points explains everything."""
        fit = fit_power_law([0.0, 1.0, 2.0], [4.0, 4.0, 4.0])
        assert (fit.slope, fit.intercept) == (0.0, 4.0)


class TestStartExponent:
    """Slope of log value against log start over the starts with survivors."""

    def test_drops_starts_without_survivors(self):
        lx = [0.0, 1.0, 2.0, 3.0]
        ly = [-math.inf, 0.5, 1.0, 1.5]
        assert start_exponent(lx, ly) == fit_power_law(lx[1:], ly[1:]).slope
        assert start_exponent(lx, ly) == pytest.approx(0.5, rel=1e-13)

    def test_nan_below_two_distinct_surviving_starts(self):
        assert math.isnan(start_exponent([], []))
        assert math.isnan(start_exponent([0.0, 1.0], [-math.inf, 2.0]))
        assert math.isnan(start_exponent([1.0, 1.0, 2.0], [0.5, 0.7, -math.inf]))
        assert math.isnan(start_exponent([0.0, 1.0], [-math.inf, -math.inf]))

    def test_two_points_give_the_log_ratio(self):
        """Two starts phi_a, phi_b: log(N_a/N_b) / log(phi_a/phi_b)."""
        n_a, n_b = 310, 97
        got = start_exponent([math.log(4.0), math.log(1.0)], [math.log(n_a), math.log(n_b)])
        assert got == pytest.approx(math.log(n_a / n_b) / math.log(4.0), rel=1e-13)

    def test_unequal_lengths_raise(self):
        with pytest.raises(OutOfRange):
            start_exponent([0.0, 1.0], [0.0, 1.0, 2.0])
        with pytest.raises(OutOfRange):
            start_exponent([0.0, 1.0, 2.0], [0.0, 1.0])


class TestKsDistance:
    """Two-sided empirical-vs-CDF sup distance."""

    def test_hand_computed_small_sample(self):
        """Sample {0.1, 0.5, 0.9} vs U(0,1): D = max gap = 7/30.

        Sorted sample gives steps at 1/3, 2/3, 1; the largest deviation is
        |2/3 - 0.5| = 1/6 from above... computed exhaustively: the sup is
        max over i of max(F(x_i) - i/n, (i+1)/n - F(x_i)) = 7/30 at x=0.9
        (0.9 - 2/3 = 7/30).
        """
        d = ks_distance([0.5, 0.1, 0.9], lambda x: np.clip(x, 0.0, 1.0))
        assert d == pytest.approx(7.0 / 30.0, rel=1e-12)

    def test_matches_scipy_kstest(self):
        rng = rng_stream(11, 0)
        sample = rng.normal(0.2, 1.3, size=5000)
        cdf = lambda x: sps.norm.cdf(x, loc=0.2, scale=1.3)
        ours = ks_distance(sample, cdf)
        ref = sps.kstest(sample, cdf).statistic
        assert ours == pytest.approx(ref, rel=1e-10)

    def test_non_vectorized_cdf_raises(self):
        """The cdf is applied once to the whole sample; one value back for
        two sample points is refused, not applied pointwise."""
        with pytest.raises(TypeError, match="shape"):
            ks_distance([0.25, 0.75], lambda x: 0.5)

    def test_empty_sample_raises(self):
        with pytest.raises(EmptySample):
            ks_distance([], lambda x: x)


class TestBinomialIntervalLogprob:
    """Log-space interval and complement probabilities for Binomial(n, p)."""

    def test_frozen_demo_values(self):
        """n=1000, p=0.2, [100, 300]: complement = 2.2020829348446702e-14.

        Oracle: mpmath 50-digit summation of the two tails gives
        2.20208293484467e-14; the float64 path must agree to ~1e-12
        relative. The inside mass is 1 minus that, so log_in ~ -2.2e-14.
        """
        log_in, log_out = binomial_interval_logprob(1000, 0.2, 100, 300)
        assert math.exp(log_out) == pytest.approx(2.2020829348446702e-14, rel=1e-10)
        assert log_in <= 0.0
        assert log_in == pytest.approx(0.0, abs=1e-11)

    def test_matches_scipy_binom_on_moderate_interval(self):
        n, p, lo, hi = 50, 0.3, 10, 20
        log_in, log_out = binomial_interval_logprob(n, p, lo, hi)
        inside = sps.binom.cdf(hi, n, p) - sps.binom.cdf(lo - 1, n, p)
        assert math.exp(log_in) == pytest.approx(inside, rel=1e-12)
        assert math.exp(log_out) == pytest.approx(1.0 - inside, rel=1e-10)

    def test_deep_tail_stays_finite_in_log_space(self):
        """[900, 1000] at p=0.2 has log-probability ~ -919, far below
        float underflow of the plain probability."""
        log_in, _ = binomial_interval_logprob(1000, 0.2, 900, 1000)
        ref = logsumexp(sps.binom.logpmf(np.arange(900, 1001), 1000, 0.2))
        assert log_in == pytest.approx(float(ref), rel=1e-12)
        assert log_in < -900

    @pytest.mark.parametrize(
        "p, lo, hi, expect",
        [
            (0.0, 0, 4, (0.0, -math.inf)),
            (0.0, 1, 10, (-math.inf, 0.0)),
            (1.0, 0, 9, (-math.inf, 0.0)),
            (1.0, 6, 10, (0.0, -math.inf)),
        ],
    )
    def test_certain_outcome_sums_all_minus_inf(self, p, lo, hi, expect):
        """At p = 0 or 1 every log-pmf but one is -inf, so one of the two
        sums is over -inf alone; it is -inf, with no floating-point warning."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert binomial_interval_logprob(10, p, lo, hi) == expect

    def test_domain_checks(self):
        with pytest.raises(OutOfRange):
            binomial_interval_logprob(10, 0.5, 5, 11)
        with pytest.raises(OutOfRange):
            binomial_interval_logprob(10, 1.5, 2, 5)

    def test_logpmf_matches_scipy(self):
        ks = np.arange(0, 1001, dtype=float)
        ours = binomial_logpmf(1000, 0.2, ks)
        ref = sps.binom.logpmf(ks, 1000, 0.2)
        np.testing.assert_allclose(ours, ref, rtol=1e-11)


class TestBinomialCountFraction:
    """Exact big-integer share of equal-weight outcome sequences."""

    def test_frozen_demo_value(self):
        """n=1000, [100, 300]: log10 = -37.0539 (frozen from exact integers).

        sum_{k=100}^{300} C(1000, k) has 264 digits; dividing by 2^1000
        (302 digits) leaves ~1e-37.05.
        """
        log10, frac = binomial_count_fraction(1000, 100, 300)
        assert log10 == pytest.approx(-37.05389968537003, rel=1e-12)
        assert log10 < -37.0
        assert frac == Fraction(
            sum(math.comb(1000, k) for k in range(100, 301)), 2**1000
        )

    def test_small_case_by_hand(self):
        """n=4, [2, 3]: (6 + 4)/16 = 5/8."""
        log10, frac = binomial_count_fraction(4, 2, 3)
        assert frac == Fraction(5, 8)
        assert log10 == pytest.approx(math.log10(5 / 8), rel=1e-14)

    def test_interval_outside_support_rejected(self):
        with pytest.raises(OutOfRange):
            binomial_count_fraction(4, 5, 5)
        with pytest.raises(OutOfRange):
            binomial_count_fraction(4, 3, 2)


class TestBootstrapCi:
    """95% percentile bootstrap for the median."""

    def test_deterministic_given_seed(self):
        sample = list(range(40))
        a = bootstrap_ci(sample, n_boot=200, seed=9)
        b = bootstrap_ci(sample, n_boot=200, seed=9)
        assert a == b

    def test_interval_covers_point_estimate(self):
        rng = rng_stream(3, 0)
        sample = rng.normal(5.0, 1.0, size=300)
        lo, hi = bootstrap_ci(sample, n_boot=500, seed=1)
        assert lo < np.median(sample) < hi
        # central-limit width: ~ 2 * 1.96 * 1.2533 / sqrt(300) ~ 0.28
        assert 0.1 < hi - lo < 0.5

    def test_narrows_with_sample_size(self):
        rng = rng_stream(4, 0)
        small = rng.normal(0.0, 1.0, size=100)
        large = rng.normal(0.0, 1.0, size=10_000)
        lo_s, hi_s = bootstrap_ci(small, n_boot=300, seed=2)
        lo_l, hi_l = bootstrap_ci(large, n_boot=300, seed=2)
        assert (hi_l - lo_l) < (hi_s - lo_s)

    def test_matches_per_resample_medians(self):
        """One median per resample row, then the 2.5% and 97.5% points."""
        sample = rng_stream(5, 0).normal(size=57)
        idx = rng_stream(6, 0).integers(0, 57, size=(7, 57))
        meds = [float(np.median(sample[row])) for row in idx]
        tail = (1.0 - 0.95) / 2.0
        expect = (float(np.quantile(meds, tail)), float(np.quantile(meds, 1.0 - tail)))
        assert bootstrap_ci(sample, n_boot=7, seed=6) == expect

    @pytest.mark.parametrize("n_boot", [0, -3])
    def test_non_positive_n_boot(self, n_boot):
        with pytest.raises(OutOfRange):
            bootstrap_ci([1.0, 2.0, 3.0], n_boot=n_boot)
