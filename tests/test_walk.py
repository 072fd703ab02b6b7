"""Tests for the truncated random walk: paths, survival MC, ratios."""

import itertools
import math
from functools import partial

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from born_branch import (
    BranchingSpec,
    Exogenous,
    FiniteSupportShocks,
    LogUniformShocks,
    OutOfRange,
    RandomBarrier,
    TooFewSurvivors,
    WalkParams,
    count_survivors_dp,
    estimate_survival,
    rng_stream,
    survival_closed_form,
    survival_ratio,
    walk_survival,
)
from born_branch.rng import BLOCK_SIZE, block_sizes
from born_branch.walk import RARE_EVENT_FLOOR, _block_worst, _start_estimates

# alpha is folded into mu for walks, so its value here is inert
BARRIER = Exogenous(math.exp(-1.0), 0.5)


class TestEstimateSurvival:
    """Monte Carlo frequency against exact enumeration and closed guards."""

    def test_matches_exact_enumeration(self):
        """With two-point shocks there are only 2^t equally likely shock
        sequences. Enumerating all of them with the same float arithmetic
        as the simulator gives the exact survival probability; the MC
        frequency must sit within 4 binomial SEs of it."""
        shocks = FiniteSupportShocks((-1.0, 1.0))
        params = WalkParams(mu=0.3, sigma=0.5, shocks=shocks)
        log_eps = -0.9999
        barrier = Exogenous(math.exp(log_eps), 0.5)
        t = 10
        survivors = 0
        for seq in itertools.product((-1.0, 1.0), repeat=t):
            x = 0.0
            alive = True
            for u in seq:
                x_prop = x - params.mu + params.sigma * u
                if x_prop < log_eps:
                    alive = False
                    break
                x = x_prop
            survivors += alive
        p_exact = survivors / 2.0**t
        assert 0.0 < p_exact < 1.0
        est = estimate_survival(params, 0.0, barrier, t, n_paths=20_000, seed=3)
        assert abs(est.p_hat - p_exact) <= 4.0 * max(est.se, 1e-12)
        assert est.n_survivors == round(est.p_hat * est.n_paths)

    def test_worker_count_invariance(self):
        params = WalkParams(mu=0.4, sigma=1.0)
        a = estimate_survival(params, 0.0, BARRIER, 25, 5_000, seed=9, workers=None)
        b = estimate_survival(params, 0.0, BARRIER, 25, 5_000, seed=9, workers=3)
        assert a == b

    def test_rare_event_regime_refused(self):
        """At mu = sigma = 1 and d = 1 the t = 200 survival is around
        exp(-t mu^2 / (2 sigma^2)) ~ 1e-44, far below what naive MC can
        resolve, so the estimator refuses instead of returning 0."""
        params = WalkParams(mu=1.0, sigma=1.0)
        with pytest.raises(TooFewSurvivors, match="naive MC cannot resolve it"):
            estimate_survival(params, 0.0, BARRIER, 200, 1_000, seed=0)

    def test_rare_event_screen_uses_exact_survival(self):
        """At mu = sigma = 1, d = 10, t = 40 the exact diffusion survival is
        4.0e-7, above the 1e-8 floor, while the coarse Gaussian-tail scale
        reads 2.6e-9; the screen must follow the exact value and run."""
        params = WalkParams(mu=1.0, sigma=1.0)
        d = 10.0
        # (2d / (sigma sqrt(2 pi tau))) exp(-mu^2 tau / (2 sigma^2)) at tau = 40
        gaussian_tail = 2.0 * d / math.sqrt(2.0 * math.pi * 40.0) * math.exp(-20.0)
        assert gaussian_tail < RARE_EVENT_FLOOR
        assert survival_closed_form(1.0, 1.0, d, 40.0) > RARE_EVENT_FLOOR
        x0 = math.log(BARRIER.epsilon) + d
        est = estimate_survival(params, x0, BARRIER, 40, 1_000, seed=0)
        assert est.n_paths == 1_000

    def test_start_on_the_barrier_runs(self):
        """A start exactly on the barrier is legal. The screen evaluates the
        closed form at the discrete-monitoring distance d + 0.5826 sigma,
        which is positive at d = 0 and predicts 0.045 here, so the estimate
        runs instead of failing on the closed form's d > 0 domain."""
        params = WalkParams(0.5, 1.0)
        est = estimate_survival(params, -1.0, BARRIER, 5, 100)
        assert est.n_paths == 100
        assert 0 < est.n_survivors < 100

    def test_deterministic_absorption_time(self):
        """With sigma = 0 every path loses exactly mu = 0.25 per step. From
        x0 = 0 against a barrier at log eps = -1, step 4 lands exactly on
        the barrier and survives; step 5 lands at -1.25 and is absorbed.
        So every path survives to t = 4 and none to t = 5 or beyond."""
        params = WalkParams(mu=0.25, sigma=0.0)
        assert estimate_survival(params, 0.0, BARRIER, 4, 100).n_survivors == 100
        assert estimate_survival(params, 0.0, BARRIER, 5, 100).n_survivors == 0
        assert estimate_survival(params, 0.0, BARRIER, 10, 100).n_survivors == 0

    def test_equality_on_barrier_survives(self):
        """A proposal exactly equal to the barrier is kept, so the sigma = 0
        walk above survives every horizon up to 4."""
        params = WalkParams(mu=0.25, sigma=0.0)
        for t in range(5):
            assert estimate_survival(params, 0.0, BARRIER, t, 100).n_survivors == 100

    def test_negative_horizon_rejected(self):
        with pytest.raises(OutOfRange):
            estimate_survival(WalkParams(1.0, 1.0), 0.0, BARRIER, -3, 100)

    def test_validation(self):
        params = WalkParams(mu=0.5, sigma=1.0)
        with pytest.raises(OutOfRange, match="x0=-2.0 below the barrier"):
            estimate_survival(params, -2.0, BARRIER, 5, 100, seed=0)
        with pytest.raises(OutOfRange):
            estimate_survival(params, 0.0, BARRIER, 5, 0, seed=0)


def _block_alive_reference(params, x0s, log_eps, noise_sd, t, rng, size):
    """Per-start propagation on shared draws: each start carries its own
    position and alive mask from step to step, drawing what _block_worst
    draws (shocks, then barrier noise) for every path at every step."""
    x = np.tile(np.asarray(x0s, dtype=float)[:, None], (1, size))
    alive = np.ones((len(x0s), size), dtype=bool)
    for _ in range(t):
        u = params.shocks.sample(rng, size)
        bar = log_eps
        if noise_sd > 0.0:
            bar = log_eps + noise_sd * rng.standard_normal(size)
        x_prop = x - params.mu + params.sigma * u
        alive &= x_prop >= bar
        np.copyto(x, x_prop, where=alive)
    return alive


class TestBlockWorst:
    """One running worst gap per path decides every start on shared draws."""

    @pytest.mark.parametrize(
        "params",
        [
            WalkParams(mu=0.1, sigma=1.0),
            WalkParams(mu=0.2, sigma=0.9, shocks=LogUniformShocks()),
            WalkParams.from_branching(BranchingSpec((1 / 6, 1 / 3, 1 / 2)), 0.4),
            # dyadic steps: positions are exact, so starts land on the barrier
            WalkParams(mu=0.25, sigma=0.5, shocks=FiniteSupportShocks((-1.0, 1.0))),
        ],
        ids=["gaussian", "log_uniform", "finite_support", "dyadic_ties"],
    )
    @pytest.mark.parametrize("noise_sd", [0.0, 0.7])
    def test_matches_per_start_propagation(self, params, noise_sd):
        x0s = [-2.0, -1.75, -1.0, 0.0, 1.5]
        worst = _block_worst(params, -2.0, noise_sd, 12, rng_stream(11, 0), 2_000)
        alive = np.asarray(x0s)[:, None] >= worst
        reference = _block_alive_reference(
            params, x0s, -2.0, noise_sd, 12, rng_stream(11, 0), 2_000
        )
        np.testing.assert_array_equal(alive, reference)
        assert 0 < alive[0].sum() < alive[-1].sum() < 2_000
        # one block of 2_000 paths draws from rng_stream(11, 0)
        block_worst = partial(_block_worst, params, -2.0, noise_sd, 12)
        est = _start_estimates(block_worst, x0s, 2_000, seed=11, workers=None)
        assert [e.n_survivors for e in est] == reference.sum(axis=1).tolist()

    def test_zero_horizon_keeps_every_start(self):
        worst = _block_worst(WalkParams(0.1, 1.0), -2.0, 0.0, 0, rng_stream(1, 0), 10)
        assert np.all(worst == -np.inf)


class TestSurvivalRatio:
    """CRN ratio estimate with delta-method SE."""

    def test_ratio_consistent_with_counts(self):
        params = WalkParams(mu=0.5, sigma=1.0)
        res = survival_ratio(params, 1.0, 0.0, BARRIER, 30, 4_000, seed=5)
        assert res.ratio == res.n_survivors_a / res.n_survivors_b
        assert res.n_survivors_a >= res.n_survivors_b
        assert res.ratio >= 1.0
        assert res.se > 0.0

    def test_crn_se_beats_independent_runs(self):
        """The paired estimate reuses draws across arms, so its SE must be
        well below the independent-runs delta-method SE built from the
        same marginal counts (cov = 0). Nesting makes the overlap count
        equal the smaller marginal, which is the best case for CRN."""
        params = WalkParams(mu=0.1, sigma=1.0)
        barrier = Exogenous(math.exp(-3.0), 0.5)
        res = survival_ratio(params, 1.0, 0.0, barrier, 20, 20_000, seed=6)
        n = res.n_paths
        p_a, p_b = res.n_survivors_a / n, res.n_survivors_b / n
        se_indep = math.sqrt(
            p_a * (1 - p_a) / (n * p_b**2) + p_a**2 * (1 - p_b) / (n * p_b**3)
        )
        assert res.se < 0.6 * se_indep

    def test_worker_count_invariance(self):
        params = WalkParams(mu=0.5, sigma=1.0)
        a = survival_ratio(params, 1.0, 0.0, BARRIER, 20, 6_000, seed=2, workers=None)
        b = survival_ratio(params, 1.0, 0.0, BARRIER, 20, 6_000, seed=2, workers=4)
        assert a == b

    def test_zero_denominator(self):
        """From x_b on the barrier one step survives only with a +2 sigma
        shock. The screen lets it through (predicted survival 0.028), but
        none of the 20 paths at seed 0 draws one, so the ratio must raise
        rather than divide by zero."""
        with pytest.raises(TooFewSurvivors, match=r"no survivors from x_b=-1.0 in 20 paths"):
            survival_ratio(WalkParams(2.0, 1.0), 0.0, -1.0, BARRIER, 1, 20, seed=0)

    def test_negative_horizon_rejected(self):
        with pytest.raises(OutOfRange):
            survival_ratio(WalkParams(0.5, 1.0), 1.0, 0.0, BARRIER, -3, 100)

    def test_deterministic_walk_gets_its_exact_ratio(self):
        """With sigma = 0 every path steps down by mu = 0.5 onto log eps =
        -1 exactly: from 0 all survive 2 steps and die at the third, from
        1 all survive 4, so the ratios are exactly 1 and 0."""
        params = WalkParams(0.5, 0.0)
        res = survival_ratio(params, 1.0, 0.0, BARRIER, 2, 100, seed=0)
        assert (res.ratio, res.se, res.n_survivors_a, res.n_survivors_b) == (1.0, 0.0, 100, 100)
        res = survival_ratio(params, 0.0, 1.0, BARRIER, 4, 100, seed=0)
        assert (res.ratio, res.se, res.n_survivors_a, res.n_survivors_b) == (0.0, 0.0, 0, 100)

    def test_validation(self):
        with pytest.raises(OutOfRange, match="x0=-5.0 below the barrier"):
            survival_ratio(WalkParams(0.5, 1.0), 1.0, -5.0, BARRIER, 5, 100, seed=0)


class TestWalkSurvival:
    """One shared-draw pass over several starts, with adjacent ratios."""

    PARAMS = WalkParams(mu=0.15, sigma=1.1)
    X0S = [0.0, 1.0, 2.0]
    LOW = Exogenous(math.exp(-2.0), 0.5)

    def test_estimates_equal_single_start_runs(self):
        """Every start sees the draws estimate_survival makes at the same
        seed, so each per-start estimate is identical, not just close."""
        singles, _ = walk_survival(self.PARAMS, self.X0S, self.LOW, 40, 20_000, seed=3)
        for x0, est in zip(self.X0S, singles):
            assert est == estimate_survival(self.PARAMS, x0, self.LOW, 40, 20_000, seed=3)

    def test_ratios_equal_pairwise_runs(self):
        """Ratio i is survival_ratio(x_{i+1}, x_i) at the same seed: same
        counts, same paired count, so the same estimate and SE exactly."""
        _, ratios = walk_survival(self.PARAMS, self.X0S, self.LOW, 40, 20_000, seed=3)
        assert len(ratios) == len(self.X0S) - 1
        for i, r in enumerate(ratios):
            pair = survival_ratio(
                self.PARAMS, self.X0S[i + 1], self.X0S[i], self.LOW, 40, 20_000, seed=3
            )
            assert r == pair

    def test_screen_and_validation_cover_every_start(self):
        params = WalkParams(mu=1.0, sigma=1.0)
        with pytest.raises(TooFewSurvivors, match="x0=0.0; naive MC cannot resolve it"):
            walk_survival(params, [9.0, 0.0], BARRIER, 40, 1_000)
        with pytest.raises(OutOfRange, match="x0=-2.0 below the barrier"):
            walk_survival(params, [0.0, -2.0], BARRIER, 5, 100)
        with pytest.raises(OutOfRange, match="x0=inf"):  # would give p_hat = 1
            walk_survival(params, [0.0, math.inf], BARRIER, 5, 100)
        with pytest.raises(OutOfRange):
            walk_survival(params, [], BARRIER, 5, 100)
        with pytest.raises(OutOfRange):
            walk_survival(params, [0.0], BARRIER, 5, 0)

    def test_bad_worker_count(self):
        with pytest.raises(OutOfRange, match="worker count"):
            walk_survival(self.PARAMS, self.X0S, self.LOW, 5, 100, workers=0)
        with pytest.raises(OutOfRange, match="negative item count"):
            block_sizes(-1)

    @pytest.mark.parametrize("x0s", [[0.0, math.nan], [math.nan, 0.0]])
    def test_nan_start_refused(self, x0s):
        """A NaN start passes an `x0 < log eps` check and would give 0
        survivors; it is refused before any draw."""
        with pytest.raises(OutOfRange, match="x0=nan"):
            walk_survival(self.PARAMS, x0s, self.LOW, 10, 1_000)

    def test_negative_horizon_rejected(self):
        with pytest.raises(OutOfRange):
            walk_survival(self.PARAMS, self.X0S, self.LOW, -3, 100)

    def test_noiseless_random_barrier_matches_exogenous(self):
        """RandomBarrier with noise_sd = 0 draws no barrier noise, so the
        same seed gives results identical to the Exogenous barrier's."""
        noiseless = RandomBarrier(self.LOW.epsilon, 0.0)
        assert walk_survival(self.PARAMS, self.X0S, noiseless, 40, 5_000, seed=7) == (
            walk_survival(self.PARAMS, self.X0S, self.LOW, 40, 5_000, seed=7)
        )

    def test_other_barrier_rejected(self):
        """A bare epsilon is not a barrier schedule."""
        with pytest.raises(TypeError):
            walk_survival(self.PARAMS, self.X0S, self.LOW.epsilon, 5, 100)

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(
        blocks=st.integers(1, 2),
        offset=st.integers(-2, 2),
        workers=st.integers(2, 3),
        noise=st.booleans(),
    )
    def test_worker_invariance(self, blocks, offset, workers, noise):
        """Counts are reduced in block order, so any worker count gives the
        same result, including at and just around block boundaries."""
        n_paths = blocks * BLOCK_SIZE + offset
        barrier = RandomBarrier(math.exp(-2.0), 0.4) if noise else self.LOW
        one = walk_survival(self.PARAMS, self.X0S, barrier, 6, n_paths, seed=7, workers=1)
        many = walk_survival(
            self.PARAMS, self.X0S, barrier, 6, n_paths, seed=7, workers=workers
        )
        assert one == many


class TestTreeOracle:
    """The finite-support walk against exact tree counts."""

    N_PATHS = 200_000

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        weights=st.lists(st.floats(0.05, 1.0), min_size=2, max_size=4),
        beta=st.floats(0.5, 1.5),
        depth=st.floats(0.2, 1.5),
        t=st.integers(5, 40),
        phis=st.lists(st.floats(1.0, 16.0), min_size=1, max_size=3),
    )
    def test_survival_is_tree_count_fraction(self, weights, beta, depth, t, phis):
        """The walk of WalkParams.from_branching(spec, alpha) from
        x0 = log phi0 against the constant barrier log epsilon steps
        x0 + sum log delta_i - s log alpha, the tree's log amplitude over
        its threshold epsilon alpha^s, with each branch equally likely. So
        it survives t steps with probability exactly N_t(phi0) / K^t, and
        the MC frequency must sit within 4.5 binomial SEs of it. epsilon
        puts phi0 = 1 depth sigma sqrt(t) above the barrier, so that
        survival is neither certain nor rare."""
        total = math.fsum(weights)
        spec = BranchingSpec(tuple(w / total for w in weights))
        alpha = math.exp(spec.log_delta_bar + beta * spec.sigma2)
        assume(spec.sigma2 > 1e-3 and alpha < 1.0)  # a walk with drift mu > 0
        sched = Exogenous(math.exp(-depth * spec.sigma * math.sqrt(t)), alpha)
        (row,) = count_survivors_dp(spec, sched, t, phis, [t])
        # starts whose survival the MC resolves: at least 100 expected survivors
        exact = {math.log(p): n / spec.K**t for p, n in zip(phis, row.counts)}
        exact = {x0: q for x0, q in exact.items() if q >= 1e-3}
        assume(exact)
        params = WalkParams.from_branching(spec, alpha)
        singles, _ = walk_survival(params, list(exact), sched, t, self.N_PATHS, seed=t)
        for p_exact, est in zip(exact.values(), singles):
            se = math.sqrt(p_exact * (1.0 - p_exact) / self.N_PATHS)
            if se == 0.0:
                assert est.p_hat == p_exact
            else:
                assert abs(est.p_hat - p_exact) < 4.5 * se
