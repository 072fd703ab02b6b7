"""Tests for the measurement pipeline: weights, survivors, medians."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from born_branch import (
    MeasurementSetup,
    OutOfRange,
    TooFewSurvivors,
    measurement_pipeline,
    outcome_weights,
    prepared_median_reference,
    rng_stream,
)
from born_branch import measure as measure_module
from born_branch.diffusion import log_survival_closed_form, survival_closed_form
from born_branch.rng import BLOCK_SIZE

# survival delta_k * C = 0.018/0.043 per arm (C = erfc(sqrt(1.75)) = 0.061):
# a few thousand paths already clear the 50-per-arm floor, keeping tests fast
FAST = MeasurementSetup((0.3, 0.7), math.sqrt(0.05), 70.0)


@pytest.fixture(scope="module")
def fast_result():
    return measurement_pipeline(FAST, 12_000, seed=5)


class TestMeasurementSetup:
    """Weight simplex and scale validation, critical drift tuning."""

    def test_weights_must_be_simplex(self):
        with pytest.raises(OutOfRange):
            MeasurementSetup((), 1.0, 50.0)
        with pytest.raises(OutOfRange):
            MeasurementSetup((0.5, 0.6), 1.0, 50.0)
        with pytest.raises(OutOfRange):
            MeasurementSetup((-0.2, 1.2), 1.0, 50.0)
        with pytest.raises(OutOfRange):
            MeasurementSetup((1.0, 0.0), 1.0, 50.0)

    def test_single_outcome_allowed(self):
        setup = MeasurementSetup((1.0,), 1.0, 50.0)
        assert setup.K == 1
        assert setup.log_deltas == (0.0,)

    def test_scale_validation(self):
        """Each scale must be finite and positive."""
        for name in ("sigma", "tau"):
            for value in (0.0, math.nan, math.inf):
                args = dict(deltas=(0.5, 0.5), sigma=1.0, tau=50.0)
                args[name] = value
                with pytest.raises(OutOfRange, match=name):
                    MeasurementSetup(**args)
        # the critical drift mu = sigma^2 must be positive too
        with pytest.raises(OutOfRange, match="sigma=1e-200"):
            MeasurementSetup((0.5, 0.5), 1e-200, 50.0)

    def test_critical_tuning(self):
        setup = MeasurementSetup((0.5, 0.5), 0.4, 50.0)
        assert setup.mu == pytest.approx(0.16)


class TestOutcomeWeights:
    """Exact conditioned frequencies delta_k^r and the closed-form survival
    constant C."""

    def test_default_rate_reproduces_weights(self):
        """At prep_rate = mu/sigma^2 = 1 the factorization gives
        frequencies exactly delta_k."""
        weights, _ = outcome_weights(FAST)
        assert weights == pytest.approx((0.3, 0.7), rel=1e-12)

    def test_rate_two_squares_the_weights(self):
        """prep_rate = 2 is the discriminator between the two candidate
        frequency laws: it yields delta_k^2 normalized, here
        (0.09, 0.49)/0.58."""
        weights, _ = outcome_weights(FAST, prep_rate=2.0)
        assert weights == pytest.approx((0.09 / 0.58, 0.49 / 0.58), rel=1e-12)

    def test_survival_proportional_to_weight_powers(self):
        """survival_k / delta_k^r is the same constant C for all arms, and
        it is a probabilistic mass: strictly inside (0, 1)."""
        _, survival = outcome_weights(FAST)
        cs = [s / d for s, d in zip(survival, FAST.deltas)]
        assert cs[0] == pytest.approx(cs[1], rel=1e-12)
        assert 0.0 < cs[0] < 1.0

    def test_survival_constant_against_direct_mc(self):
        """The constant C = integral r e^{-r u} q(u) du is also the mean of
        q(U) for U ~ Exp(r); 50k exact closed-form draws agree within 4
        SEs."""
        _, survival = outcome_weights(FAST)
        c_exact = survival[0] / FAST.deltas[0]
        u = rng_stream(99, 0).exponential(1.0, 50_000)
        qs = np.array(
            [survival_closed_form(FAST.mu, FAST.sigma, float(ui), FAST.tau) for ui in u]
        )
        se = qs.std(ddof=1) / math.sqrt(qs.size)
        assert abs(qs.mean() - c_exact) <= 4.0 * se

    def test_rate_one_is_erfc(self):
        """At r = 1, C = 2 Phi(-w) = erfc(sigma sqrt(tau/2)), here erfc(10)
        = 2.1e-45, a depth at which an absolute quadrature tolerance
        stops early."""
        setup = MeasurementSetup((1.0,), 1.0, 200.0)
        _, (c_val,) = outcome_weights(setup)
        assert math.isclose(c_val, math.erfc(10.0), rel_tol=1e-12)

    @pytest.mark.parametrize("r", [0.3, 1.0, 1.5, 2.0, 3.0])
    @pytest.mark.parametrize("sigma2, tau", [(0.05, 70.0), (1.0, 200.0), (1.0, 1000.0)])
    def test_closed_form_against_tight_quadrature(self, sigma2, tau, r):
        """C against r * integral_0^inf e^{-r y} q_tau(y) dy by quadrature
        with no absolute tolerance, split at the integrand's peak
        (1 - r) sigma^2 tau, down to C ~ 1e-222 at tau = 1000."""
        setup = MeasurementSetup((1.0,), math.sqrt(sigma2), tau)
        _, (c_val,) = outcome_weights(setup, prep_rate=r)

        def integrand(y):
            return r * math.exp(-r * y + log_survival_closed_form(setup.mu, setup.sigma, y, tau))

        peak = (1.0 - r) * setup.mu * tau
        edges = [0.0, peak, math.inf] if peak > 0.0 else [0.0, math.inf]
        ref = math.fsum(
            quad(integrand, lo, hi, epsabs=0.0, epsrel=1e-12, limit=200)[0]
            for lo, hi in zip(edges, edges[1:])
        )
        assert math.isclose(c_val, ref, rel_tol=1e-6)

    @pytest.mark.parametrize("r", [0.3, 1.0, 1.5, 2.0, 3.0])
    @pytest.mark.parametrize("tau", [200.0, 250.0, 500.0, 1000.0])
    def test_closed_form_against_mpmath_at_depth(self, tau, r):
        """C at the horizons of acceptance criteria 09 and 10 (sigma = 1),
        against the same closed form at 80 digits, and the precheck's
        expected survivors in the delta = 0.2 arm of 1e7 paths: 1.39e-39,
        1.73e-50, 6.34e-105 and 1.2e-213 at r = 1. Away from r = 1 the
        quotient, and at r = 2 the limit, cancel about w^2 to w^4 (1e6 at
        w^2 = tau = 1000) of their terms' rounding; scipy's erfcx left up
        to 2.4e-10 here, the helper 9.2e-11."""
        setup = MeasurementSetup((0.2, 0.3, 0.5), 1.0, tau)
        _, survival = outcome_weights(setup, prep_rate=r)
        with mpmath.workdps(80):
            w = mpmath.sqrt(tau)
            v = (r - 1) * w

            def g(x):
                return 2 * x * mpmath.exp((x * x - w * w) / 2) * mpmath.ncdf(-x)

            if r == 2.0:
                c = 2 * (1 + w * w) * mpmath.ncdf(-w) - 2 * w * mpmath.npdf(w)
            else:
                c = (g(w) - g(v)) / (w - v)
            ref = float(mpmath.mpf(0.2) ** r * c)
        assert math.isclose(survival[0], ref, rel_tol=2e-10)
        if r == 1.0:
            assert math.isclose(survival[0], ref, rel_tol=1e-13)
            expected = 1e7 / 3 * survival[0]
            assert f"{expected:.3g}" == {200.0: "1.39e-39", 250.0: "1.73e-50",
                                         500.0: "6.34e-105", 1000.0: "1.2e-213"}[tau]

    @pytest.mark.parametrize("tau", [1.0, 10.0, 200.0, 1000.0])
    def test_closed_form_near_rate_two(self, tau):
        """C at r = 2 -+ 10^-e, e = 2..12 (sigma = 1), against the quotient
        at 80 digits. The float quotient was off by 12.6x and 15.9x at
        |2 - r| = 1e-12, tau = 1000; g' at the midpoint stays within 1e-7."""
        setup = MeasurementSetup((1.0,), 1.0, tau)
        for e in range(2, 13):
            for r in (2.0 - 10.0**-e, 2.0 + 10.0**-e):
                _, (c_val,) = outcome_weights(setup, prep_rate=r)
                with mpmath.workdps(80):
                    w = mpmath.sqrt(tau)
                    v = (mpmath.mpf(r) - 1) * w

                    def g(x):
                        return 2 * x * mpmath.exp((x * x - w * w) / 2) * mpmath.ncdf(-x)

                    ref = float((g(w) - g(v)) / (w - v))
                assert math.isclose(c_val, ref, rel_tol=1e-7), (r, c_val, ref)

    def test_single_outcome_is_certain(self):
        setup = MeasurementSetup((1.0,), math.sqrt(0.05), 70.0)
        weights, _ = outcome_weights(setup)
        assert weights == (1.0,)

    def test_rate_validation(self):
        with pytest.raises(OutOfRange):
            outcome_weights(FAST, prep_rate=0.0)

    def test_weights_finite_where_every_power_underflows(self):
        """0.5^1100 underflows to 0 in every arm; the weights are still
        exact, and the survival underflows to 0."""
        setup = MeasurementSetup((0.5, 0.5), 1.0, 70.0)
        assert outcome_weights(setup, 1100.0) == ((0.5, 0.5), (0.0, 0.0))


class TestPipeline:
    """End-to-end survivor tallies on the fast two-outcome setup."""

    def test_frequencies_match_exact_weights(self, fast_result):
        weights, _ = outcome_weights(FAST)
        for o, w in zip(fast_result.outcomes, weights):
            assert abs(o.frequency - w) <= 4.0 * o.freq_se

    def test_survivor_fraction_matches_quadrature(self, fast_result):
        """Arms are picked uniformly, so the overall survival probability
        is the mean of the per-arm exact survivals; the one-step
        pipeline's survivor count must sit within 4 binomial SEs of it."""
        _, survival = outcome_weights(FAST)
        q = math.fsum(survival) / FAST.K
        n = fast_result.n_paths
        assert abs(fast_result.n_survivors / n - q) <= 4.0 * math.sqrt(q * (1.0 - q) / n)

    def test_tallies_consistent(self, fast_result):
        assert fast_result.n_survivors == sum(o.n_survivors for o in fast_result.outcomes)
        assert math.fsum(o.frequency for o in fast_result.outcomes) == pytest.approx(1.0)
        assert fast_result.n_survivors > 100

    def test_conditioned_medians_arm_independent(self, fast_result):
        """The preparation factorization makes the conditioned start
        distribution identical across arms at every tau, so the per-arm
        medians must agree within their bootstrap intervals even though
        the arm weights differ by a factor 7/3."""
        o0, o1 = fast_result.outcomes
        lo = max(o0.median_ci[0], o1.median_ci[0])
        hi = min(o0.median_ci[1], o1.median_ci[1])
        assert lo <= hi
        for o in (o0, o1):
            assert o.median_ci[0] <= o.median_y0 <= o.median_ci[1]

    def test_short_horizon_runs(self):
        """The factorization is exact at every tau, so a horizon with
        tau * min(delta) = 4 still gives frequencies delta_k."""
        setup = MeasurementSetup((0.2, 0.3, 0.5), math.sqrt(0.05), 20.0)
        res = measurement_pipeline(setup, 20_000, seed=3, n_boot=20)
        for o in res.outcomes:
            assert abs(o.frequency - o.delta) <= 4.0 * o.freq_se

    def test_deterministic_and_worker_invariant(self, fast_result):
        again = measurement_pipeline(FAST, 12_000, seed=5, workers=3)
        assert again == fast_result

    @settings(max_examples=8, deadline=None, derandomize=True)
    @given(blocks=st.integers(1, 2), offset=st.integers(-2, 2), workers=st.integers(2, 3))
    def test_worker_invariance_around_block_edges(self, blocks, offset, workers):
        """Survivors are concatenated in block order, so the result is the
        same at any worker count for path counts at and around multiples of
        the block size."""
        n_paths = blocks * BLOCK_SIZE + offset
        one = measurement_pipeline(FAST, n_paths, seed=13, n_boot=20, workers=1)
        many = measurement_pipeline(FAST, n_paths, seed=13, n_boot=20, workers=workers)
        assert one == many


class TestPreconditions:
    """The pipeline refuses configurations it cannot resolve."""

    def test_too_few_survivors_precheck_names_arms(self):
        """The floor check uses the exact constant C, so it fires
        before any simulation: 300 paths at ~0.018 survival predict ~3
        survivors in the lighter arm."""
        with pytest.raises(TooFewSurvivors, match="delta=0.3"):
            measurement_pipeline(FAST, 300, seed=0)

    def test_refused_just_below_fifty_and_run_at_fifty(self, monkeypatch):
        """The lighter arm predicts n_paths/K delta^r C survivors: the
        fewest paths that bring it to 50 run, and one path fewer is
        refused before any block is drawn."""
        light = outcome_weights(FAST)[1][0]
        n = math.ceil(50 * FAST.K / light)
        assert (n - 1) / FAST.K * light < 50 <= n / FAST.K * light
        assert measurement_pipeline(FAST, n, seed=3, n_boot=20).n_paths == n

        def no_draws(*args, **kwargs):
            raise AssertionError("paths were drawn before the survivor screen")

        monkeypatch.setattr(measure_module, "map_blocks", no_draws)
        refusal = rf"from {n - 1} paths: arm 0 \(delta=0.3\) expects 50;"
        with pytest.raises(TooFewSurvivors, match=refusal):
            measurement_pipeline(FAST, n - 1, seed=3, n_boot=20)

    def test_rate_and_path_validation(self):
        with pytest.raises(OutOfRange):
            measurement_pipeline(FAST, 0)
        with pytest.raises(OutOfRange):
            measurement_pipeline(FAST, 12_000, prep_rate=-1.0)

    @pytest.mark.parametrize("n_boot", [0, -1])
    def test_bootstrap_count_refused_before_any_draw(self, n_boot, monkeypatch):
        """bootstrap_ci refuses n_boot < 1 too, but only after every path
        is drawn; the pipeline refuses it at entry."""

        def no_draws(*args, **kwargs):
            raise AssertionError("paths were drawn before n_boot was checked")

        monkeypatch.setattr(measure_module, "map_blocks", no_draws)
        with pytest.raises(OutOfRange, match="n_boot"):
            measurement_pipeline(FAST, 12_000, n_boot=n_boot)

    @pytest.mark.parametrize("rate", [math.nan, math.inf])
    def test_non_finite_rate_refused_before_any_draw(self, rate, monkeypatch):
        def no_draws(*args, **kwargs):
            raise AssertionError("paths were drawn before prep_rate was checked")

        monkeypatch.setattr(measure_module, "map_blocks", no_draws)
        with pytest.raises(OutOfRange, match="prep_rate"):
            measurement_pipeline(FAST, 12_000, prep_rate=rate)


class TestPreparedMedianReference:
    """Rayleigh large-tau reference for the prepared survivor median."""

    def test_formula_and_scaling(self):
        ref = prepared_median_reference(FAST)
        assert ref == pytest.approx(math.sqrt(2.0 * 0.05 * 70.0 * math.log(2.0)))
        longer = MeasurementSetup((0.3, 0.7), math.sqrt(0.05), 280.0)
        assert prepared_median_reference(longer) == pytest.approx(2.0 * ref)
