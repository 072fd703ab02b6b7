"""Tests for the absorbed diffusion: closed forms, bridge MC, conditioning."""

import dataclasses
import inspect
import math
import random

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.stats import expon, gamma, kstest, norm

from born_branch import (
    DiffusionParams,
    OutOfRange,
    TooFewSurvivors,
    TooLarge,
    batch_survive,
    conditional_mean_ratio,
    conditioned_sample,
    log_survival_closed_form,
    ratio_convergence_scan,
    rng_stream,
    survival_closed_form,
)
from born_branch import cli, diffusion, measure
from born_branch.diffusion import _log_erfcx, _log_ndtr
from image_law import image_cdf, image_density, image_survival

#: Starts that are not a positive, finite distance above the barrier.
BAD_DISTANCES = [0.0, -1.0, math.nan, math.inf]

#: Positive finite floats, subnormals included.
POSITIVE = st.floats(0.0, math.inf, exclude_min=True, exclude_max=True)


def _no_blocks(*args, **kwargs):
    raise AssertionError("a block ran on a bad start")


def _mp_log_survival(mu, sigma, d, tau):
    """log q by the two-Phi method-of-images formula, at 60 digits."""
    with mpmath.workdps(60):
        mu, sigma, d, tau = (mpmath.mpf(v) for v in (mu, sigma, d, tau))
        st = sigma * mpmath.sqrt(tau)
        image = mpmath.exp(2 * mu * d / sigma**2) * mpmath.ncdf((-d - mu * tau) / st)
        return float(mpmath.log(mpmath.ncdf((d - mu * tau) / st) - image))


def _scaled_error(value, ref):
    return abs(value - ref) / max(1.0, abs(ref))


class TestSpecialFunctions:
    """The log-erfcx helper and log Phi against 60-digit mpmath."""

    def test_log_erfcx(self):
        """On [-30, 30] by 0.01, across the switch to the continued
        fraction at 2.5, and far out where e^{x^2} overflows."""
        xs = [i / 100 for i in range(-3000, 3001)] + [50.0, 1e3, 1e10, 1e150]
        worst = 0.0
        for x in xs:
            # x^2 needs its own digits on top of the 60 kept after it cancels
            with mpmath.workdps(60 + 2 * int(math.log10(abs(x) + 1.0))):
                ref = float(mpmath.mpf(x) ** 2 + mpmath.log(mpmath.erfc(x)))
            worst = max(worst, _scaled_error(_log_erfcx(x), ref))
        assert worst <= 2e-15

    def test_log_ndtr(self):
        """On [-40, 40] by 0.01 and on 200 log-spaced points down to -1e10."""
        zs = [i / 100 for i in range(-4000, 4001)] + [-(10 ** (i / 20)) for i in range(201)]
        with mpmath.workdps(60):
            worst = max(_scaled_error(_log_ndtr(z), float(mpmath.log(mpmath.ncdf(z)))) for z in zs)
        assert worst <= 2e-15


class TestClosedFormAgainstMpmath:
    """log_survival_closed_form against 60-digit mpmath."""

    def test_random_cases(self):
        """3000 seeded draws over drift -3..3 (upward drift included),
        sigma 0.1..10, d 1e-3..1e2 and tau 1e-3..1e4. The bound is set by
        the inputs: z1 and z2 carry one rounding each, and where they are
        close (small d, large tau) the image/direct ratio is that much
        less certain; scipy's erfcx and log_ndtr reach 5.1e-12 here."""
        rnd = random.Random(1)
        worst = 0.0
        for _ in range(3000):
            mu = rnd.uniform(-3.0, 3.0)
            sigma, d, tau = (10 ** rnd.uniform(lo, hi) for lo, hi in ((-1, 1), (-3, 2), (-3, 4)))
            ref = _mp_log_survival(mu, sigma, d, tau)
            worst = max(worst, _scaled_error(log_survival_closed_form(mu, sigma, d, tau), ref))
        assert worst <= 2e-11

    @pytest.mark.parametrize("tau", [1e4, 1e6, 1e8])
    def test_upward_drift_far_from_the_barrier(self, tau):
        """With mu < 0 both z grow like sqrt(tau); the log erfcx ratio
        would subtract two rounded z^2/2 near 5e7 at tau = 1e8 and keep
        only 7 digits, where 2 mu d / sigma^2 keeps all of them."""
        ref = _mp_log_survival(-1.0, 1.0, 0.01, tau)
        assert log_survival_closed_form(-1.0, 1.0, 0.01, tau) == pytest.approx(ref, rel=1e-14)

    @pytest.mark.parametrize("tau", [200.0, 250.0, 500.0, 1000.0])
    @pytest.mark.parametrize("d", [0.01, 1.0, 7.0, 40.0])
    def test_deep_tails(self, d, tau):
        """The horizons of acceptance criteria 09 and 10 at mu = sigma = 1,
        where the survival falls to e^-100 .. e^-500 and below."""
        ref = _mp_log_survival(1.0, 1.0, d, tau)
        assert log_survival_closed_form(1.0, 1.0, d, tau) == pytest.approx(ref, rel=1e-13)

    @pytest.mark.parametrize("mu", [1.0, -1.0])
    def test_near_the_barrier(self, mu):
        """d = 10^-k for k = 1..300 at sigma = 1, tau = 10, against 400-digit
        mpmath: the image and direct terms agree there to far below float
        precision, so the log ratio r is taken at first order in d."""
        worst = 0.0
        with mpmath.workdps(400):
            for k in range(1, 301):
                d = 10.0**-k
                x, st = mpmath.mpf(d), mpmath.sqrt(10)
                direct = mpmath.ncdf((x - mu * 10) / st)
                image = mpmath.exp(2 * mu * x) * mpmath.ncdf((-x - mu * 10) / st)
                ref = float(mpmath.log(direct - image))
                worst = max(worst, abs(log_survival_closed_form(mu, 1.0, d, 10.0) - ref))
        assert worst <= 1e-8


class TestClosedForm:
    """Method-of-images survival probability, bulk and deep tail."""

    def test_frozen_moderate_value(self):
        """q(mu=1, sigma=1, d=2, tau=1) frozen from the direct two-Phi
        evaluation, cross-checked by bridge MC (0.767185 +- 0.00067)."""
        assert survival_closed_form(1.0, 1.0, 2.0, 1.0) == pytest.approx(
            0.767642810808157, rel=1e-12
        )

    def test_matches_naive_two_phi_formula(self):
        """In regimes without catastrophic cancellation the log-space
        evaluation must agree with the textbook expression
        Phi((d - mu tau)/st) - exp(2 mu d/sigma^2) Phi((-d - mu tau)/st)."""
        for mu, sigma, d, tau in [
            (1.0, 1.0, 2.0, 1.0),
            (0.5, 1.3, 1.7, 3.0),
            (0.2, 0.8, 0.5, 6.0),
            (2.0, 1.0, 0.3, 0.7),
        ]:
            st = sigma * math.sqrt(tau)
            naive = norm.cdf((d - mu * tau) / st) - math.exp(
                2.0 * mu * d / (sigma * sigma)
            ) * norm.cdf((-d - mu * tau) / st)
            assert survival_closed_form(mu, sigma, d, tau) == pytest.approx(
                naive, rel=1e-9
            )

    def test_matches_image_density_integral(self):
        """Integrating the exact absorbed-motion density over (0, inf)
        must reproduce the closed form to quadrature accuracy, and the
        oracle's own closed-form survival and CDF must agree with the
        integrals of its density."""
        mu, sigma, d, tau = 0.5, 0.5, 1.5, 8.0
        dens = image_density(mu, sigma, d, tau)
        q_int, _ = quad(dens, 0.0, 60.0)
        assert q_int == pytest.approx(survival_closed_form(mu, sigma, d, tau), rel=1e-10)
        assert image_survival(mu, sigma, d, tau) == pytest.approx(q_int, rel=1e-10)
        cdf = image_cdf(mu, sigma, d, tau)
        for y in (0.1, 0.5, 2.0, 5.0):
            assert cdf(y) == pytest.approx(quad(dens, 0.0, y)[0] / q_int, rel=1e-9)

    def test_deep_tail_log_value(self):
        """At tau = 2000 the survival is ~ e^-1010, far below float range;
        the erfcx route keeps full relative precision there."""
        assert log_survival_closed_form(1.0, 1.0, 1.0, 2000.0) == pytest.approx(
            -1010.6288921764149, rel=1e-12
        )
        assert survival_closed_form(1.0, 1.0, 1.0, 2000.0) == 0.0

    def test_monotone_in_distance_and_horizon(self):
        qs_d = [survival_closed_form(1.0, 1.0, d, 5.0) for d in (0.5, 1.0, 2.0, 4.0)]
        assert qs_d == sorted(qs_d)
        qs_t = [survival_closed_form(1.0, 1.0, 2.0, t) for t in (1.0, 2.0, 5.0, 10.0)]
        assert qs_t == sorted(qs_t, reverse=True)

    def test_short_horizon_limit(self):
        assert survival_closed_form(1.0, 1.0, 5.0, 0.01) == pytest.approx(1.0, abs=1e-12)

    def test_domain_errors(self):
        """A d, tau or sigma that is not positive and finite is refused: an
        infinite one would give NaN or -inf. So is a sigma whose square
        underflows, which would divide by zero."""
        for bad in [
            (1, 1, 0.0, 1), (1, 1, -1, 1), (1, 1, 1, 0.0), (1, 0.0, 1, 1),
            (1, 1, math.inf, 1), (1, 1, 1, math.inf), (1, math.inf, 1, 1), (1, 1e-170, 2, 1),
        ]:
            with pytest.raises(OutOfRange):
                log_survival_closed_form(*bad)

    @pytest.mark.parametrize(
        "mu, sigma, d, tau",
        [(1.0, 1e-154, 20.0, 10.0), (1.0, 1.0, 1e308, 10.0), (1.0, 1e-20, 1e300, 1.0)],
    )
    def test_image_exponent_beyond_float_range(self, mu, sigma, d, tau):
        """2 mu d / sigma^2 overflows while log Phi(z2) is -inf. The image
        term is below e^-354 of the direct one (by the Gaussian tail
        asymptotic for z2), so the exact value is log Phi(z1) = 0 to float
        precision, not inf - inf = NaN."""
        assert log_survival_closed_form(mu, sigma, d, tau) == 0.0

    def test_image_within_an_ulp_of_the_direct_term(self):
        """At d = 5e-324 the log ratio r is -3.8e-322, so e^r rounds to 1;
        log(1 - e^r) is log(-expm1(r)), not log1p(-1). The reference is
        400-digit mpmath."""
        assert log_survival_closed_form(-38.0, 1.0, 5e-324, 1.0) == pytest.approx(
            -740.1093385810949, rel=1e-14
        )

    @settings(max_examples=3000, deadline=None, derandomize=True)
    @given(mu=st.floats(allow_nan=False, allow_infinity=False), sigma=POSITIVE, d=POSITIVE,
           tau=POSITIVE)
    def test_never_nan(self, mu, sigma, d, tau):
        """Every finite mu, positive sigma with a finite square above 0,
        and positive finite d and tau give a log probability: not NaN and
        at most 0."""
        assume(0.0 < sigma * sigma < math.inf)
        assert log_survival_closed_form(mu, sigma, d, tau) <= 0.0  # False for NaN

    @pytest.mark.parametrize("i", range(4))
    def test_nan_refused(self, i):
        """A NaN argument would make the result NaN; it is refused."""
        args = [1.0, 1.0, 1.0, 1.0]
        args[i] = math.nan
        with pytest.raises(OutOfRange, match="nan"):
            log_survival_closed_form(*args)


class TestSurvivalAsymptotic:
    """Large-tau behaviour of the closed form against the Gaussian-tail scale."""

    def test_correction_factor_closes_the_gap(self):
        """The Gaussian-tail scale
        (2d / (sigma sqrt(2 pi tau))) exp(-mu^2 tau / (2 sigma^2)) misses
        the tilt and one power of tau; multiplying by
        (sigma^2/(mu^2 tau)) exp(mu d/sigma^2 - d^2/(2 sigma^2 tau)) should
        recover the exact log survival up to O(1/tau): the residual is
        0.0147 at tau = 200 and 0.0015 at tau = 2000."""
        for tau, bound in [(200.0, 0.05), (2000.0, 0.005)]:
            mu = sigma = d = 1.0
            lex = log_survival_closed_form(mu, sigma, d, tau)
            lasym = math.log(2.0 * d / (sigma * math.sqrt(2.0 * math.pi * tau))) - (
                mu * mu * tau / (2.0 * sigma * sigma)
            )
            lcorr = math.log(1.0 / tau) + mu * d - d * d / (2.0 * tau)
            assert abs((lex - lasym) - lcorr) < bound


class TestBatchSurvive:
    """Bridge-corrected Euler kernel: unbiasedness and edge handling."""

    def test_unbiased_against_closed_form(self):
        """50k paths at dt = 0.02 land within 4 binomial SEs of the exact
        q(1, 1, 2, 5) = 0.042216; the bridge correction is what removes
        the O(sqrt(dt)) discretization bias of naive Euler."""
        q = survival_closed_form(1.0, 1.0, 2.0, 5.0)
        alive, _ = batch_survive(1.0, 1.0, 2.0, 5.0, 0.02, rng_stream(21, 0), 50_000)
        p = alive.mean()
        se = math.sqrt(p * (1.0 - p) / 50_000)
        assert abs(p - q) <= 4.0 * se

    @pytest.mark.parametrize(
        "mu, sigma, d, tau",
        [(1.0, 1.0, 2.0, 5.0), (0.5, 0.8, 1.5, 3.0), (0.1, 1.0, 3.0, 50.0)],
    )
    def test_one_exact_step_matches_image_law(self, mu, sigma, d, tau):
        """With dt = tau the kernel takes a single Gaussian step and kills
        it with the bridge probability given both ends. Both are exact, so
        the survival frequency must sit within 4 binomial SEs of the closed
        form and the survivors' endpoints within the 0.1% KS critical value
        (1.95/sqrt(n)) of the method-of-images law, even at tau = 50."""
        n = 200_000
        alive, y = batch_survive(mu, sigma, d, tau, tau, rng_stream(31, 0), n)
        q = survival_closed_form(mu, sigma, d, tau)
        p = alive.mean()
        assert abs(p - q) <= 4.0 * math.sqrt(q * (1.0 - q) / n)
        ys = y[alive]
        assert np.all(ys > 0.0)
        ks = kstest(ys, image_cdf(mu, sigma, d, tau)).statistic
        assert ks < 1.95 / math.sqrt(ys.size)

    def test_far_start_kills_nothing_without_overflow(self):
        """From y0 = 1e300 the bridge exponent 2 y y' / (sigma^2 dt)
        overflows to inf: its kill probability e^-inf = 0 is right, and
        the overflow raises no warning (the suite makes one an error)."""
        alive, y = batch_survive(1.0, 1.0, 1e300, 1.0, 0.5, rng_stream(5, 0), 8)
        assert alive.all()
        assert np.all(y == 1e300)

    def test_born_dead_paths(self):
        alive, y = batch_survive(1.0, 1.0, 0.0, 1.0, 0.1, rng_stream(0, 0), 8)
        assert not alive.any()
        assert np.all(y == 0.0)

    def test_per_path_starts(self):
        y0 = np.array([-1.0, 0.0, 5.0, 5.0])
        alive, y = batch_survive(0.1, 1.0, y0, 0.5, 0.1, rng_stream(3, 0), 4)
        assert not alive[0] and not alive[1]
        assert y[0] == -1.0 and y[1] == 0.0

    def test_bad_step(self):
        with pytest.raises(OutOfRange, match="dt=0.0"):
            batch_survive(1.0, 1.0, 1.0, 1.0, 0.0, rng_stream(0, 0), 4)

    def test_nan_horizon_and_step_refused(self):
        """NaN would reach round(tau / dt) and raise a bare ValueError."""
        with pytest.raises(OutOfRange, match="tau=nan"):
            batch_survive(1.0, 1.0, 1.0, math.nan, 0.1, rng_stream(0, 0), 4)
        with pytest.raises(OutOfRange, match="dt=nan"):
            batch_survive(1.0, 1.0, 1.0, 1.0, math.nan, rng_stream(0, 0), 4)

    @pytest.mark.parametrize(
        "mu, sigma, name",
        [
            (math.nan, 1.0, "mu"),
            (math.inf, 1.0, "mu"),
            (1.0, math.nan, "sigma"),
            (1.0, math.inf, "sigma"),
            (1.0, 0.0, "sigma"),
            (1.0, -1.0, "sigma"),
            (1.0, 1e-200, "sigma"),
        ],
    )
    def test_bad_drift_and_volatility_refused_before_any_draw(self, mu, sigma, name):
        """A NaN mu or sigma returned every path alive with y = nan, sigma =
        -1 ran, and sigma = 1e-200, whose square underflows, raised a bare
        ZeroDivisionError."""
        rng = rng_stream(0, 0)
        with pytest.raises(OutOfRange, match=f"{name}="):
            batch_survive(mu, sigma, 1.0, 1.0, 0.1, rng, 4)
        assert rng.random() == rng_stream(0, 0).random()

    @pytest.mark.parametrize("size", [-1, 2.5, True])
    def test_bad_size_refused_before_any_draw(self, size):
        """A negative size raised numpy's bare ValueError, and 2.5 and True
        a TypeError."""
        rng = rng_stream(0, 0)
        with pytest.raises(OutOfRange, match="size="):
            batch_survive(1.0, 1.0, 1.0, 1.0, 0.1, rng, size)
        assert rng.random() == rng_stream(0, 0).random()

    def test_zero_size_is_empty(self):
        alive, y = batch_survive(1.0, 1.0, 1.0, 1.0, 0.1, rng_stream(0, 0), 0)
        assert alive.shape == y.shape == (0,)

    def test_step_count_bound(self):
        """tau / dt above MAX_STEPS is refused before the first draw."""
        rng = rng_stream(0, 0)
        with pytest.raises(TooLarge, match=r"\bdt=1e-300\b.*MAX_STEPS"):
            batch_survive(1.0, 1.0, 1.0, 1.0, 1e-300, rng, 4)
        assert rng.random() == rng_stream(0, 0).random()

    @pytest.mark.parametrize("tau", [0.0, -1.0])
    def test_non_positive_horizon(self, tau):
        with pytest.raises(OutOfRange):
            batch_survive(1.0, 1.0, 1.0, tau, 0.1, rng_stream(0, 0), 4)


class TestRatioScan:
    """Deterministic closed-form ratio sweep."""

    def test_points_recompute_from_log_closed_form(self):
        params = DiffusionParams(1.0, 1.0)
        d_a, d_b = 2.0 - math.log(1e-8), -math.log(1e-8)
        taus = [5.0, 50.0, 500.0]
        ratios = ratio_convergence_scan(params, d_a, d_b, taus)
        assert len(ratios) == len(taus)
        for tau, ratio in zip(taus, ratios):
            la = log_survival_closed_form(1.0, 1.0, d_a, tau)
            lb = log_survival_closed_form(1.0, 1.0, d_b, tau)
            assert ratio == pytest.approx(math.exp(la - lb), rel=1e-12)

    def test_converges_to_prefactored_target(self):
        """The exact ratio tends to (d_a/d_b) e^{beta(d_a - d_b)}, sitting
        above the bare tilt for d_a > d_b; at tau = 500 the remaining
        Gaussian factor exp(-(d_a^2 - d_b^2)/(2 sigma^2 tau)) still bites."""
        params = DiffusionParams(1.0, 1.0)
        d_a, d_b = 2.0 - math.log(1e-8), -math.log(1e-8)
        (ratio,) = ratio_convergence_scan(params, d_a, d_b, [500.0])
        tilt = math.exp(params.beta * 2.0)
        limit = (d_a / d_b) * tilt
        gauss = math.exp(-(d_a * d_a - d_b * d_b) / (2.0 * 500.0))
        assert ratio > tilt
        assert ratio == pytest.approx(limit * gauss, rel=0.01)

    @pytest.mark.parametrize("d", BAD_DISTANCES)
    def test_distance_validation(self, d):
        for d_a, d_b in ((d, 1.0), (1.0, d)):
            with pytest.raises(OutOfRange, match=r"\bd="):
                ratio_convergence_scan(DiffusionParams(1.0, 1.0), d_a, d_b, [1.0])


class TestConditionedSample:
    """Survivor distances at tau against the candidate limit laws."""

    def test_gamma_two_beats_both_exponentials(self):
        """At mu = sigma = 1, d = 3, tau = 8 the survivor sample is still
        a bit transient, but the Gamma(2, beta) shape (density y e^{-y})
        is already 3x closer in KS than the exponential at rate beta and
        5x closer than rate 2 beta. Pinning the ordering pins the limit
        law without waiting for full convergence."""
        ys = conditioned_sample(
            DiffusionParams(1.0, 1.0), 3.0, 8.0, 60_000, seed=4, dt=0.01
        )
        assert ys.size > 1000
        ks_gamma = kstest(ys, gamma(2, scale=1.0).cdf).statistic
        ks_beta = kstest(ys, expon(scale=1.0).cdf).statistic
        ks_two_beta = kstest(ys, expon(scale=0.5).cdf).statistic
        assert ks_gamma < 0.5 * ks_beta
        assert ks_gamma < 0.5 * ks_two_beta
        assert ks_two_beta > ks_beta

    def test_default_one_step_matches_image_law(self):
        """Without dt the sampler takes one exact step of length tau; its
        survivors must follow the method-of-images law at (mu = sigma = 1,
        d = 3, tau = 8) within the 0.1% KS critical value."""
        n = 400_000
        ys = conditioned_sample(DiffusionParams(1.0, 1.0), 3.0, 8.0, n, seed=4)
        q = survival_closed_form(1.0, 1.0, 3.0, 8.0)
        assert abs(ys.size / n - q) <= 4.0 * math.sqrt(q * (1 - q) / n)
        ks = kstest(ys, image_cdf(1.0, 1.0, 3.0, 8.0)).statistic
        assert ks < 1.95 / math.sqrt(ys.size)

    def test_sample_sorted_and_above_barrier(self):
        ys = conditioned_sample(
            DiffusionParams(1.0, 1.0), 3.0, 8.0, 60_000, seed=4, dt=0.01
        )
        assert np.all(np.diff(ys) >= 0.0)
        assert np.all(ys > 0.0)

    def test_too_few_survivors_precheck(self):
        """The guard uses the closed form, so it fires before any paths
        are simulated: 1000 paths at q ~ 0.018 predict only ~18."""
        with pytest.raises(TooFewSurvivors):
            conditioned_sample(DiffusionParams(1.0, 1.0), 3.0, 8.0, 1000)

    def test_refused_just_below_fifty_and_run_at_fifty(self, monkeypatch):
        """The fewest paths whose predicted survivor count reaches 50 run;
        one path fewer is refused before any block is drawn."""
        q = survival_closed_form(1.0, 1.0, 3.0, 8.0)
        n = math.ceil(50 / q)
        assert (n - 1) * q < 50 <= n * q
        assert conditioned_sample(DiffusionParams(1.0, 1.0), 3.0, 8.0, n, seed=2).size > 0
        monkeypatch.setattr(diffusion, "map_blocks", _no_blocks)
        with pytest.raises(TooFewSurvivors, match=f"from {n - 1} paths: d=3.0 expects 50"):
            conditioned_sample(DiffusionParams(1.0, 1.0), 3.0, 8.0, n - 1, seed=2)

    @pytest.mark.parametrize("mu", [-0.5, 0.0])
    def test_no_downward_drift_matches_image_law(self, mu):
        """Only the tau -> inf limit law needs mu > 0: at finite tau the
        survivors of an upward or driftless motion (d = 1, tau = 4) follow
        the method-of-images law within the 0.1% KS critical value."""
        n = 50_000
        ys = conditioned_sample(DiffusionParams(mu, 1.0), 1.0, 4.0, n, seed=5)
        q = image_survival(mu, 1.0, 1.0, 4.0)
        assert abs(ys.size / n - q) <= 4.0 * math.sqrt(q * (1 - q) / n)
        ks = kstest(ys, image_cdf(mu, 1.0, 1.0, 4.0)).statistic
        assert ks < 1.95 / math.sqrt(ys.size)

    @pytest.mark.parametrize("d", BAD_DISTANCES)
    def test_distance_validation(self, d, monkeypatch):
        """A bad start is refused by the closed-form precheck, before any
        block runs."""
        monkeypatch.setattr(diffusion, "map_blocks", _no_blocks)
        with pytest.raises(OutOfRange, match=r"\bd="):
            conditioned_sample(DiffusionParams(1.0, 1.0), d, 1.0, 10_000)


class TestConditionalMeanRatio:
    """Mean amplitude over the threshold among survivors."""

    def test_unbiased_against_image_density_oracle(self):
        """E[e^Y | survival] at finite tau has an exact value by
        integrating e^y against the absorbed-motion density: 2.7869318 at
        (mu=0.5, sigma=0.5, d=1.5, tau=8). The MC estimate must land
        within 4 reported SEs. Note the finite-tau truth differs from
        both the quoted beta/(beta-1) = 2 and the stationary-limit value
        (beta/(beta-1))^2 = 4; convergence in tau is slow because e^y
        weights the right tail."""
        mu = sigma = 0.5
        d, tau = 1.5, 8.0
        dens = image_density(mu, sigma, d, tau)
        num, _ = quad(lambda y: math.exp(y) * dens(y), 0.0, 60.0)
        oracle = num / survival_closed_form(mu, sigma, d, tau)
        assert oracle == pytest.approx(2.786931713519756, rel=1e-9)
        res = conditional_mean_ratio(
            DiffusionParams(mu, sigma), d, tau, 60_000, seed=8, dt=0.01
        )
        assert abs(res.estimate - oracle) <= 4.0 * res.se

    def test_finite_horizon_below_beta_one(self):
        """The mean diverges only as tau -> inf: at beta = 0.5 (mu = 0.5,
        sigma = 1, d = 3, tau = 4) it is E[e^Y] under the image density,
        34.68 by quadrature, and the estimate lands within 4 SEs."""
        mu, sigma, d, tau = 0.5, 1.0, 3.0, 4.0
        num, _ = quad(lambda y: math.exp(y) * image_density(mu, sigma, d, tau)(y), 0.0, 60.0)
        oracle = num / image_survival(mu, sigma, d, tau)
        assert oracle == pytest.approx(34.68, rel=1e-3)
        res = conditional_mean_ratio(DiffusionParams(mu, sigma), d, tau, 400_000, seed=8)
        assert abs(res.estimate - oracle) <= 4.0 * res.se

    def test_too_few_survivors_precheck(self):
        with pytest.raises(TooFewSurvivors):
            conditional_mean_ratio(DiffusionParams(0.5, 0.5), 1.5, 8.0, 1000)

    @pytest.mark.parametrize("d", BAD_DISTANCES)
    def test_distance_validation(self, d, monkeypatch):
        monkeypatch.setattr(diffusion, "map_blocks", _no_blocks)
        with pytest.raises(OutOfRange, match=r"\bd="):
            conditional_mean_ratio(DiffusionParams(2.0, 1.0), d, 1.0, 10_000)


def test_starts_are_distances_above_the_barrier():
    """No public function or dataclass of diffusion or measure, and neither
    the CLI's diffusion nor its measure family, takes a position or the
    barrier epsilon: a start is its distance above the barrier, all its law
    depends on."""
    owners = [cli.DiffusionExpParams, cli.MeasureParams]
    for module in (diffusion, measure):
        owners += [
            obj
            for name, obj in vars(module).items()
            if not name.startswith("_")
            and (inspect.isfunction(obj) or dataclasses.is_dataclass(obj))
            and obj.__module__ == module.__name__
        ]
    assert len(owners) > 10
    for obj in owners:
        names = set(inspect.signature(obj).parameters)
        if dataclasses.is_dataclass(obj):
            names |= {f.name for f in dataclasses.fields(obj)}
        assert not names & {"epsilon", "x_a", "x_b"}, obj.__qualname__
