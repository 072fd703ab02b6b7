"""Tests for the truncated random walk: paths, survival MC, ratios."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from born_branch import (
    BadStart,
    DegenerateSpec,
    Endogenous,
    Exogenous,
    FiniteSupportShocks,
    OutOfRange,
    RandomBarrier,
    RareEventRegime,
    WalkParams,
    ZeroDenominator,
    estimate_survival,
    limit_regime_preset,
    rng_stream,
    simulate_walk,
    survival_asymptotic,
    survival_closed_form,
    survival_ratio,
    walk_survival,
)
from born_branch.rng import BLOCK_SIZE
from born_branch.walk import RARE_EVENT_FLOOR, _block_alive

# alpha is folded into mu for walks, so its value here is inert
BARRIER = Exogenous(math.exp(-1.0), 0.5)


class TestSimulateWalk:
    """Single-path semantics: propose-then-absorb with equality surviving."""

    def test_deterministic_absorption_time(self):
        """With sigma = 0 the walk loses exactly mu per step. From x0 = 0
        against a barrier at log eps = -1 with mu = 0.25, step 4 proposes
        x = -1.0, exactly on the barrier, and survives; step 5 proposes
        -1.25 < -1 and absorbs. So the absorption time is exactly 5."""
        params = WalkParams(mu=0.25, sigma=0.0)
        out = simulate_walk(params, 0.0, BARRIER, t=10, rng=rng_stream(0, 0))
        assert not out.survived
        assert out.absorption_time == 5.0
        assert out.final_x == -math.inf

    def test_equality_on_barrier_survives(self):
        """A proposal exactly equal to the barrier is kept, so the sigma = 0
        walk above survives any horizon up to 4 and sits on the barrier."""
        params = WalkParams(mu=0.25, sigma=0.0)
        out = simulate_walk(params, 0.0, BARRIER, t=4, rng=rng_stream(0, 0))
        assert out.survived
        assert out.final_x == -1.0

    def test_start_on_barrier_allowed(self):
        """x0 == log eps is a legal start; only strictly below raises."""
        params = WalkParams(mu=0.5, sigma=1.0)
        out = simulate_walk(params, -1.0, BARRIER, t=0, rng=rng_stream(0, 0))
        assert out.survived and out.final_x == -1.0
        with pytest.raises(BadStart):
            simulate_walk(params, -1.0 - 1e-12, BARRIER, t=0, rng=rng_stream(0, 0))

    def test_zero_horizon_trivially_survives(self):
        out = simulate_walk(WalkParams(1.0, 1.0), 3.0, BARRIER, 0, rng_stream(1, 0))
        assert out.survived
        assert out.final_x == 3.0
        assert out.absorption_time is None

    def test_negative_horizon_rejected(self):
        with pytest.raises(OutOfRange):
            simulate_walk(WalkParams(1.0, 1.0), 0.0, BARRIER, -1, rng_stream(1, 0))

    def test_endogenous_schedule_rejected(self):
        """Per-path walks cannot price an Endogenous threshold: it depends
        on the whole population, which a single path cannot see."""
        with pytest.raises(TypeError):
            simulate_walk(WalkParams(1.0, 1.0), 0.0, Endogenous(0.2), 5, rng_stream(1, 0))

    def test_noiseless_random_barrier_matches_exogenous(self):
        """RandomBarrier with noise_sd = 0 draws no barrier noise, so the
        same seed gives the bitwise-identical path outcome as Exogenous."""
        params = WalkParams(mu=0.3, sigma=0.8)
        a = simulate_walk(params, 0.5, BARRIER, 40, rng_stream(7, 0))
        b = simulate_walk(params, 0.5, RandomBarrier(math.exp(-1.0), 0.0), 40, rng_stream(7, 0))
        assert a == b


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
        with pytest.raises(RareEventRegime):
            estimate_survival(params, 0.0, BARRIER, 200, 1_000, seed=0)

    def test_rare_event_screen_uses_exact_survival(self):
        """At mu = sigma = 1, d = 10, t = 40 the exact diffusion survival is
        4.0e-7, above the 1e-8 floor, while the coarse Gaussian-tail scale
        reads 2.6e-9; the screen must follow the exact value and run."""
        params = WalkParams(mu=1.0, sigma=1.0)
        d = 10.0
        assert survival_asymptotic(1.0, 1.0, d, 40.0) < RARE_EVENT_FLOOR
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

    def test_validation(self):
        params = WalkParams(mu=0.5, sigma=1.0)
        with pytest.raises(BadStart):
            estimate_survival(params, -2.0, BARRIER, 5, 100, seed=0)
        with pytest.raises(OutOfRange):
            estimate_survival(params, 0.0, BARRIER, 5, 0, seed=0)


class TestBlockAlive:
    """Common-random-number kernel shared by the ratio estimator."""

    def test_higher_start_dominates_pathwise(self):
        """Under shared draws each arm's trajectory is the same shape
        shifted by the start offset, so survival masks are nested: every
        path alive from a lower start is alive from any higher one."""
        params = WalkParams(mu=0.1, sigma=1.0)
        alive = _block_alive(params, [1.5, 0.5, 0.0], -2.0, 0.0, 50, rng_stream(11, 0), 500)
        assert alive.shape == (3, 500)
        assert np.all(alive[0] >= alive[1])
        assert np.all(alive[1] >= alive[2])
        assert alive[2].sum() > 0

    def test_nesting_holds_with_barrier_noise(self):
        params = WalkParams(mu=0.1, sigma=1.0)
        alive = _block_alive(params, [1.5, 0.0], -2.0, 0.7, 50, rng_stream(12, 0), 500)
        assert alive[1].sum() > 0
        assert np.all(alive[0] >= alive[1])


class TestSurvivalRatio:
    """CRN ratio estimate with delta-method SE and tilt theory target."""

    def test_ratio_consistent_with_counts(self):
        params = WalkParams(mu=0.5, sigma=1.0)
        res = survival_ratio(params, 1.0, 0.0, BARRIER, 30, 4_000, seed=5)
        assert res.ratio == res.n_survivors_a / res.n_survivors_b
        assert res.n_survivors_a >= res.n_survivors_b
        assert res.ratio >= 1.0
        assert res.se > 0.0
        assert res.theory == pytest.approx(math.exp(params.beta * 1.0))

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
        """A huge drift against a start on the barrier kills every b path
        in one step (needs a +50 sigma shock to survive), so the ratio is
        undefined and must raise rather than divide by zero."""
        params = WalkParams(mu=5.0, sigma=0.1)
        barrier = Exogenous(1.0 - 1e-12, 0.5)
        with pytest.raises(ZeroDenominator):
            survival_ratio(params, 1.0, math.log(1.0 - 1e-12), barrier, 1, 2_000, seed=0)

    def test_validation(self):
        with pytest.raises(DegenerateSpec):
            survival_ratio(WalkParams(0.5, 0.0), 1.0, 0.0, BARRIER, 5, 100, seed=0)
        with pytest.raises(BadStart, match="x_b"):
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
        with pytest.raises(RareEventRegime, match="x0=0.0"):
            walk_survival(params, [9.0, 0.0], BARRIER, 40, 1_000)
        with pytest.raises(BadStart):
            walk_survival(params, [0.0, -2.0], BARRIER, 5, 100)
        with pytest.raises(OutOfRange):
            walk_survival(params, [], BARRIER, 5, 100)
        with pytest.raises(OutOfRange):
            walk_survival(params, [0.0], BARRIER, 5, 0)

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


class TestLimitRegimePreset:
    """Preset placing experiments deep in the diffusion limit."""

    def test_default_scales_with_sigma(self):
        regime = limit_regime_preset(WalkParams(mu=0.2, sigma=1.5))
        assert regime.barrier_distance == pytest.approx(15.0)
        assert regime.t == 1000

    def test_offset_bounds(self):
        params = WalkParams(mu=0.2, sigma=1.0)
        assert limit_regime_preset(params, 8.0).t == 640
        with pytest.raises(OutOfRange):
            limit_regime_preset(params, 7.9)
        with pytest.raises(OutOfRange):
            limit_regime_preset(params, 15.1)
        with pytest.raises(DegenerateSpec):
            limit_regime_preset(WalkParams(0.2, 0.0))
