"""Tests for branching specs, tuning formulas, schedules, and shock laws."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from born_branch import (
    AlphaResult,
    BranchingSpec,
    DiffusionParams,
    Exogenous,
    FiniteSupportShocks,
    GaussianShocks,
    LogUniformShocks,
    OutOfRange,
    RandomBarrier,
    WalkParams,
    alpha_for_unit_beta,
    endogenous_alpha,
    rng_stream,
)

#: The paper's sufficient K = 3 feasibility bound on min delta, 1/(1 + 2 e^{3/2}).
MIN_DELTA_BOUND = 1.0 / (1.0 + 2.0 * math.exp(1.5))


class TestBranchingSpec:
    """Construction and derived moments of the branching-ratio vector."""

    def test_simplex_validation(self):
        """Ratios must be positive and sum to one within 1e-12."""
        with pytest.raises(OutOfRange):
            BranchingSpec((0.5, 0.6))
        with pytest.raises(OutOfRange):
            BranchingSpec((0.5, -0.1, 0.6))
        with pytest.raises(OutOfRange):
            BranchingSpec((0.0, 1.0))
        BranchingSpec((0.5, 0.25 + 1e-13, 0.25))  # inside tolerance

    def test_unit_delta_only_for_single_branch(self):
        """delta = 1 is the degenerate single-branch case and nothing else."""
        spec = BranchingSpec((1.0,))
        assert spec.K == 1
        with pytest.raises(OutOfRange):
            BranchingSpec((1.0, 0.0))

    def test_geometric_mean_and_variance(self):
        """delta_bar = (prod delta_k)^{1/K}; sigma2 = Var[log delta] (uniform k).

        For (1/6, 1/3, 1/2): log delta_bar = -(log 6 + log 3 + log 2)/3 and
        sigma2 = mean of squared deviations of log delta_k.
        """
        spec = BranchingSpec((1 / 6, 1 / 3, 1 / 2))
        logs = [math.log(1 / 6), math.log(1 / 3), math.log(1 / 2)]
        mean = sum(logs) / 3
        var = sum((x - mean) ** 2 for x in logs) / 3
        assert spec.delta_bar == pytest.approx(math.exp(mean), rel=1e-14)
        assert spec.sigma2 == pytest.approx(var, rel=1e-14)
        assert spec.sigma == pytest.approx(math.sqrt(var), rel=1e-14)


class TestAlphaForUnitBeta:
    """The critical decay rate alpha = delta_bar * e^{sigma^2}."""

    def test_reference_spec_value(self):
        """(1/6, 1/3, 1/2) gives alpha = 0.3720413329690625, feasible.

        Frozen from delta_bar * exp(sigma2) evaluated in extended precision;
        feasible because delta_bar < alpha < max delta_k and sigma2 > 0.
        """
        res = alpha_for_unit_beta(BranchingSpec((1 / 6, 1 / 3, 1 / 2)))
        assert res == AlphaResult(pytest.approx(0.3720413329690625, rel=1e-14), True)

    def test_infeasible_when_alpha_exceeds_max_delta(self):
        """(0.05, 0.45, 0.5) puts alpha = 0.6914 above max delta = 0.5."""
        res = alpha_for_unit_beta(BranchingSpec((0.05, 0.45, 0.5)))
        assert res.alpha == pytest.approx(0.691397, abs=5e-7)
        assert not res.feasible

    def test_degenerate_spec_is_infeasible_not_an_error(self):
        """Equal ratios give sigma = 0: alpha = delta_bar, flagged infeasible."""
        res = alpha_for_unit_beta(BranchingSpec((1 / 3, 1 / 3, 1 / 3)))
        assert res.alpha == pytest.approx(1 / 3, rel=1e-14)
        assert not res.feasible

    def test_unit_beta_closes_the_loop(self):
        """The walk at the returned alpha has beta = mu/sigma^2 = 1."""
        spec = BranchingSpec((1 / 6, 1 / 3, 1 / 2))
        moments = WalkParams.from_branching(spec, alpha_for_unit_beta(spec).alpha)
        assert moments.beta == pytest.approx(1.0, abs=1e-12)
        assert moments.mu == pytest.approx(spec.sigma2, rel=1e-12)
        assert moments.sigma == pytest.approx(spec.sigma, rel=1e-14)


class TestBasicParams:
    """WalkParams.from_branching: mu = log alpha - E[log Delta], sigma from the spec."""

    def test_frozen_reference_moments(self):
        """At alpha = 0.372041: mu = 0.205755, sigma = 0.453603 (frozen).

        The six-digit alpha sits 9e-7 relative below the exact critical
        value, so beta lands at 0.9999957 rather than 1.
        """
        spec = BranchingSpec((1 / 6, 1 / 3, 1 / 2))
        m = WalkParams.from_branching(spec, 0.372041)
        assert m.mu == pytest.approx(0.20575509709024342, rel=1e-12)
        assert m.sigma == pytest.approx(0.45360334221578175, rel=1e-12)
        assert m.beta == pytest.approx(0.9999956502890865, rel=1e-12)
        assert m.shocks == FiniteSupportShocks.from_spec(spec)

    def test_alpha_domain(self):
        spec = BranchingSpec((1 / 6, 1 / 3, 1 / 2))
        for bad in (0.0, 1.0, 1.5, -0.2):
            with pytest.raises(OutOfRange):
                WalkParams.from_branching(spec, bad)

    def test_zero_variance_raises(self):
        """beta = mu/sigma^2 is undefined when all ratios are equal."""
        with pytest.raises(OutOfRange, match="zero-variance spec"):
            WalkParams.from_branching(BranchingSpec((0.5, 0.5)), 0.4)


class TestMinDeltaCondition:
    """Sufficient three-branch feasibility bound min delta > 1/(1+2e^{3/2})."""

    def test_threshold_value(self):
        """The bound constant is 1/(1 + 2 e^{3/2}) = 0.10036756468345169."""
        assert MIN_DELTA_BOUND == pytest.approx(0.10036756468345169, rel=1e-15)

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    def test_bound_implies_feasible(self, x, y):
        """Every K = 3 spec whose smallest ratio clears the bound is feasible.

        (x, y) folds onto the triangle of specs with every delta at or above
        the bound B. The implication is tight at two places, where floats
        cannot decide it: the uniform spec (sigma = 0, alpha = delta_bar)
        and (B, (1 - B)/2, (1 - B)/2), where alpha = max delta. Draws with
        min delta within 1e-9 of the bound or sigma^2 below 1e-9 are skipped.
        """
        if x + y > 1.0:
            x, y = 1.0 - x, 1.0 - y
        free = 1.0 - 3.0 * MIN_DELTA_BOUND
        d1 = MIN_DELTA_BOUND + free * x
        d2 = MIN_DELTA_BOUND + free * y
        deltas = (d1, d2, 1.0 - d1 - d2)
        assume(min(deltas) > MIN_DELTA_BOUND + 1e-9)
        spec = BranchingSpec(deltas)
        assume(spec.sigma2 > 1e-9)
        assert alpha_for_unit_beta(spec).feasible

    def test_sufficient_not_necessary(self):
        """A spec failing the bound can still be feasible by direct check.

        (0.09, 0.41, 0.5): min delta = 0.09 < 0.1004, yet alpha lies in
        (delta_bar, max delta).
        """
        spec = BranchingSpec((0.09, 0.41, 0.5))
        assert min(spec.deltas) < MIN_DELTA_BOUND
        assert alpha_for_unit_beta(spec).feasible


class TestEndogenousFormulas:
    """Closed-form references for the endogenous-threshold regime."""

    def test_alpha_ansatz(self):
        """log alpha = sigma^2/(1-eps) - mu; c0 = eps/(1-eps) at phi0 = 1."""
        res = endogenous_alpha(1.0, 1.0, 0.2)
        assert res.log_alpha == pytest.approx(0.25, rel=1e-15)
        assert res.c0 == pytest.approx(0.25, rel=1e-15)

    @pytest.mark.parametrize("kw", [{"sigma": math.nan}, {"varepsilon": math.nan}])
    def test_nan_refused(self, kw):
        """NaN slips past a `<= 0` check; it is refused as out of range."""
        args = {"tilde_mu": 1.0, "sigma": 1.0, "varepsilon": 0.2, **kw}
        with pytest.raises(OutOfRange):
            endogenous_alpha(**args)

    @pytest.mark.parametrize("tilde_mu", [math.nan, math.inf, -math.inf])
    def test_non_finite_drift_refused(self, tilde_mu):
        with pytest.raises(OutOfRange, match=r"tilde_mu="):
            endogenous_alpha(tilde_mu, 1.0, 0.2)


class TestThresholdSchedules:
    """Exogenous and random-barrier threshold parameters."""

    def test_exogenous_log_xi_is_affine_in_t(self):
        """log xi_t = log eps + t log alpha, evaluated in one canonical form."""
        sched = Exogenous(1e-6, 0.372041)
        for t in (0, 1, 7, 400):
            expect = math.log(1e-6) + t * math.log(0.372041)
            assert sched.log_xi(t) == expect

    def test_exogenous_validation(self):
        with pytest.raises(OutOfRange):
            Exogenous(0.0, 0.5)
        with pytest.raises(OutOfRange):
            Exogenous(1e-6, 1.0)

    def test_random_barrier_validation(self):
        RandomBarrier(1e-8, 0.5)
        with pytest.raises(OutOfRange):
            RandomBarrier(1e-8, -0.1)
        with pytest.raises(OutOfRange):
            RandomBarrier(0.0, 0.5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_values_refused(self, bad):
        """NaN slips past a `<= 0` check and inf has no finite log: both are
        refused at construction."""
        for make in (
            lambda: Exogenous(bad, 0.37),
            lambda: Exogenous(1e-6, bad),
            lambda: RandomBarrier(bad, 0.1),
            lambda: RandomBarrier(1e-8, bad),
        ):
            with pytest.raises(OutOfRange):
                make()


class TestShockLaws:
    """Shock distributions share the standardized-moment contract."""

    def test_finite_support_from_spec(self):
        """from_spec standardizes the log deviations to mean 0, variance 1."""
        spec = BranchingSpec((1 / 6, 1 / 3, 1 / 2))
        shocks = FiniteSupportShocks.from_spec(spec)
        expect = tuple(d / spec.sigma for d in spec.log_devs)
        np.testing.assert_allclose(shocks.values, expect, rtol=1e-14)
        vals = np.asarray(shocks.values)
        assert vals.mean() == pytest.approx(0.0, abs=1e-14)
        assert vals.std() == pytest.approx(1.0, rel=1e-14)

    @pytest.mark.parametrize(
        "shocks",
        [
            GaussianShocks(),
            LogUniformShocks(),
            FiniteSupportShocks.from_spec(BranchingSpec((1 / 6, 1 / 3, 1 / 2))),
        ],
    )
    def test_sample_moments_match_walk_params(self, shocks):
        """A size-n sample has mean ~ -mu and sd ~ sigma within 5 SE.

        The walk steps are x -> x - mu + sigma * (standardized shock), so
        the raw increments drawn through WalkParams must have mean -mu and
        standard deviation sigma for every shock family.
        """
        params = WalkParams(0.3, 0.7, shocks)
        rng = rng_stream(2024, 0)
        n = 200_000
        draws = params.shocks.sample(rng, n)
        steps = -params.mu + params.sigma * draws
        assert abs(draws.mean()) < 5.0 / math.sqrt(n)
        assert abs(draws.std() - 1.0) < 5.0 / math.sqrt(n)
        assert steps.mean() == pytest.approx(-0.3, abs=5 * 0.7 / math.sqrt(n))

    def test_log_uniform_shape(self):
        """Standardized log-uniform: log U + 1 has mean 0, variance 1.

        If U ~ Uniform(0,1), E[log U] = -1 and Var[log U] = 1, so the
        standardized shock is exactly log U + 1 and its support is
        (-inf, 1].
        """
        rng = rng_stream(7, 0)
        draws = LogUniformShocks().sample(rng, 100_000)
        assert draws.max() <= 1.0
        assert abs(draws.mean()) < 0.02
        assert abs(draws.std() - 1.0) < 0.02


class TestWalkParams:
    """Moment container for the discrete rescaled walk."""

    def test_validation(self):
        with pytest.raises(OutOfRange):
            WalkParams(0.0, 1.0)
        with pytest.raises(OutOfRange):
            WalkParams(-0.1, 1.0)
        WalkParams(0.5, 0.0)  # deterministic drift is allowed

    @pytest.mark.parametrize("mu, sigma", [(math.nan, 1.0), (0.5, math.nan)])
    def test_nan_refused(self, mu, sigma):
        with pytest.raises(OutOfRange):
            WalkParams(mu, sigma)

    def test_beta_requires_variance(self):
        assert WalkParams(0.5, 0.5).beta == pytest.approx(2.0, rel=1e-14)
        with pytest.raises(OutOfRange, match="beta undefined: sigma=0.0 squares to 0"):
            _ = WalkParams(0.5, 0.0).beta
        # positive, but its square underflows to 0
        with pytest.raises(OutOfRange, match="sigma=1e-200"):
            _ = WalkParams(0.5, 1e-200).beta


class TestDiffusionParams:
    """Drift/volatility container for the continuous limit."""

    def test_beta_is_mu_over_sigma_squared(self):
        p = DiffusionParams(0.15, 1.1)
        assert (p.mu, p.sigma) == (0.15, 1.1)
        assert p.beta == pytest.approx(0.15 / 1.21, rel=1e-14)

    def test_validation(self):
        with pytest.raises(OutOfRange):
            DiffusionParams(1.0, 0.0)
        with pytest.raises(OutOfRange):
            DiffusionParams(1.0, -1.0)
        with pytest.raises(OutOfRange, match="sigma=1e-200"):
            DiffusionParams(1.0, 1e-200)  # its square underflows to 0
        with pytest.raises(OutOfRange, match=r"sigma=1e\+200"):
            DiffusionParams(1.0, 1e200)  # its square overflows
        with pytest.raises(OutOfRange, match="sigma=nan"):
            DiffusionParams(1.0, math.nan)
        for mu in (math.nan, math.inf, -math.inf):
            with pytest.raises(OutOfRange, match="mu="):
                DiffusionParams(mu, 1.0)
