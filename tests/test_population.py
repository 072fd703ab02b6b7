"""Tests for the self-thresholding particle population."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from born_branch import (
    OutOfRange,
    TooLarge,
    endogenous_alpha,
    endogenous_population,
    fit_power_law,
    rng_stream,
)


def small_run(seed=0, phi0=1.0, **kw):
    args = dict(
        tilde_mu=1.0, sigma=1.0, varepsilon=0.2, n_particles=500,
        tau=5.0, dt=0.01, phi0=phi0, seed=seed,
    )
    args.update(kw)
    return endogenous_population(**args)


def _population_reference(tilde_mu, sigma, varepsilon, n_particles, tau, dt, phi0, seed):
    """The step loop written plainly, with fresh arrays every step and
    scipy's logsumexp: (times, log_xi, n_survivors, mean_z, resample_count,
    final z)."""
    rng = rng_stream(seed, 0)
    n_steps = max(1, int(round(tau / dt)))
    dt_eff = tau / n_steps
    sdt = sigma * math.sqrt(dt_eff)
    log_phi0 = math.log(phi0)
    z = np.zeros(n_particles)
    times, log_xi, mean_z = np.empty(n_steps), np.empty(n_steps), np.empty(n_steps)
    n_survivors = np.empty(n_steps, dtype=np.int64)
    resampled = 0
    for step in range(n_steps):
        z += -tilde_mu * dt_eff + sdt * rng.standard_normal(n_particles)
        cur_xi = math.log(varepsilon) + float(logsumexp(z)) - math.log(n_particles)
        dead = z < cur_xi
        n_dead = int(np.count_nonzero(dead))
        if n_dead:
            survivors = np.nonzero(~dead)[0]
            donors = survivors[rng.integers(0, survivors.size, size=n_dead)]
            z[dead] = z[donors]
            resampled += n_dead
        times[step] = (step + 1) * dt_eff
        log_xi[step] = cur_xi + log_phi0
        n_survivors[step] = n_particles - n_dead
        mean_z[step] = float(z.mean()) + log_phi0
    return times, log_xi, n_survivors, mean_z, resampled, z + log_phi0


class TestValidation:
    """Every parameter outside its domain is rejected eagerly."""

    @pytest.mark.parametrize(
        "kw",
        [
            {"sigma": 0.0},
            {"varepsilon": 0.0},
            {"varepsilon": 1.0},
            {"n_particles": 1},
            {"tau": 0.0},
            {"dt": 0.0},
            {"dt": 10.0},
            {"phi0": 0.0},
            {"sigma": math.nan},
            {"tau": math.nan},
            {"dt": math.nan},
            {"phi0": math.nan},
        ],
    )
    def test_out_of_range(self, kw):
        with pytest.raises(OutOfRange):
            small_run(**kw)

    def test_step_count_bound(self):
        """tau / dt above MAX_STEPS is refused before the trajectory
        arrays are allocated."""
        with pytest.raises(TooLarge, match=r"\bdt=1e-300\b.*MAX_STEPS"):
            small_run(dt=1e-300)

    @pytest.mark.parametrize("tau", [0.01, 0.014])
    def test_one_step_refused(self, tau):
        """tau / dt rounding to one step would leave the growth fit one
        point; it is refused naming both, not after the run."""
        with pytest.raises(OutOfRange, match=rf"tau={tau}, dt=0.01\b"):
            small_run(tau=tau, dt=0.01)


class TestRecordingSchema:
    """Trajectory arrays are aligned, complete, and self-consistent."""

    def test_shapes_and_times(self):
        run = small_run()
        n_steps = 500
        for arr in (run.times, run.log_xi, run.n_survivors, run.mean_z):
            assert arr.shape == (n_steps,)
        assert np.allclose(run.times, 0.01 * np.arange(1, n_steps + 1))
        assert np.all(np.isfinite(run.log_xi))

    def test_resample_count_identity(self):
        """Every absorbed particle is cloned exactly once, so the total
        resample count equals the summed per-step deficits."""
        run = small_run()
        assert run.resample_count == int(np.sum(500 - run.n_survivors))

    def test_at_least_one_survivor_every_step(self):
        """Extinction cannot occur: the threshold sits log(varepsilon) < 0
        below the log mean amplitude, and the log mean never exceeds the
        maximum, so the top particle is always at or above threshold."""
        run = small_run()
        assert run.n_survivors.min() >= 1


class TestDeterminism:
    """Runs are pure functions of the seed."""

    def test_same_seed_reproduces(self):
        a, b = small_run(seed=7), small_run(seed=7)
        assert np.array_equal(a.log_xi, b.log_xi)
        assert np.array_equal(a.z, b.z)
        assert a.fit == b.fit

    def test_different_seed_differs(self):
        assert not np.array_equal(small_run(seed=0).log_xi, small_run(seed=1).log_xi)


class TestKernelReference:
    """The in-place step loop reproduces the plain one bit for bit."""

    @pytest.mark.parametrize(
        "kw",
        [
            {"seed": 0},
            {"seed": 11, "phi0": 3.0},
            {"seed": 5, "n_particles": 2, "varepsilon": 0.6},
            {"seed": 3, "sigma": 1e-30, "n_particles": 100, "tau": 1.0},
            {"seed": 4, "sigma": 1e-16, "n_particles": 100, "tau": 1.0},
        ],
        ids=["n500-seed0", "n500-seed11", "n2", "all-tied", "partial-ties"],
    )
    def test_matches_reference(self, kw):
        """sigma = 1e-30 ties every particle at the maximum each step (the
        shifted sum is 0); sigma = 1e-16 ties some of them on most steps."""
        run = small_run(**kw)
        args = dict(
            tilde_mu=1.0, sigma=1.0, varepsilon=0.2, n_particles=500,
            tau=5.0, dt=0.01, phi0=1.0,
        )
        args.update(kw)
        times, log_xi, n_survivors, mean_z, resampled, final_z = _population_reference(**args)
        np.testing.assert_array_equal(run.times, times)
        np.testing.assert_array_equal(run.log_xi, log_xi)
        np.testing.assert_array_equal(run.n_survivors, n_survivors)
        np.testing.assert_array_equal(run.mean_z, mean_z)
        assert run.resample_count == resampled
        np.testing.assert_array_equal(run.z, final_z)


class TestScaleInvariance:
    """Centered coordinates make phi0 a pure shift of the threshold."""

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(
        phi0=st.floats(1e-2, 1e2),
        c=st.floats(1e-3, 1e3),
    )
    @example(phi0=1.0, c=100.0)
    def test_threshold_shifts_by_log_scale(self, phi0, c):
        """phi0 -> c * phi0 leaves every decision unchanged and shifts the
        threshold trajectory by log c."""
        a = small_run(seed=3, phi0=phi0, n_particles=200, tau=2.0)
        b = small_run(seed=3, phi0=c * phi0, n_particles=200, tau=2.0)
        assert np.array_equal(a.n_survivors, b.n_survivors)
        assert b.resample_count == a.resample_count
        assert np.max(np.abs((b.log_xi - a.log_xi) - math.log(c))) < 1e-12
        assert abs(b.slope - a.slope) < 1e-12


class TestGrowthFit:
    """Fitted threshold growth against the exponential-ansatz rate."""

    def test_measured_slope_exceeds_ansatz(self):
        """The cloning interaction pushes the threshold up faster than the
        independent-particle ansatz sigma^2/(1 - varepsilon) - tilde_mu
        predicts; at this scale the gap is roughly a factor of two (0.42
        to 0.50 across seeds against 0.25), so exceeding the ansatz is a
        stable fact, not noise."""
        ansatz = endogenous_alpha(1.0, 1.0, 0.2).log_alpha
        for seed in (0, 1, 2):
            run = endogenous_population(1.0, 1.0, 0.2, 2000, 20.0, dt=0.01, seed=seed)
            assert ansatz < run.slope < 4.0 * ansatz

    def test_fit_starts_at_burn_in(self):
        """137 steps: the fit drops the first int(0.3 * 137) = 41."""
        run = small_run(tau=1.37)
        assert run.times.size == 137
        assert run.fit == fit_power_law(run.times[41:], run.log_xi[41:])
