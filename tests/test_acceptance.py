"""End-to-end acceptance checks with pinned targets and tolerances.

Each criterion is one test that prints a single line

    ACCEPTANCE nn PASS: ...   or   ACCEPTANCE nn FAIL: ...

(visible with -s; the same text is the assertion message, so a plain -v
run carries one verdict per criterion too). Tolerances, targets, and time
budgets are stated inline and are not loosened to force green.

Where an oracle that shares no code with the estimator gives the exact
value of the quantity under test, the test computes that value and uses
it as the target: the Cramer tilt of the counting walk (02), the
method-of-images law of the absorbed diffusion (04, 06, 07, from
tests/image_law.py), the uniform law of the congruential stream (12).
Where such an oracle shows that a first-order constant (the bare tilt
e^{beta dx}, an Exp(beta) overshoot law, Var(log U) = 1/12) is not what
the dynamics produce, the criterion checks the same law at its exact
value, with the stated tolerance and budget.

02 can fail on its time budget alone (the exact DP to t = 1000). Four
criteria stay red, and their docstrings say why: 08 pins an ansatz
value the particle system does not reach and the docs give no exact
alternative; 09 and 10 ask for depths (survival ~ e^{-100} and below)
that direct sampling cannot reach; 12's exponent clause rests on a tuning
derived from Var(log delta) = 1/12, and the docs do not say which correct
tuning it means.

Run with: python3 -m pytest tests/test_acceptance.py -v -s
(criteria 02, 05, 06, 07 and 08 carry the slow marker, so -m "not slow"
leaves them out of a quick loop).
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from born_branch import (
    DEFAULT_LCG_ALPHA,
    BranchingSpec,
    DiffusionParams,
    Exogenous,
    LcgSpec,
    MeasurementSetup,
    RandomBarrier,
    TooFewSurvivors,
    WalkParams,
    alpha_for_unit_beta,
    batch_survive,
    binomial_count_fraction,
    binomial_interval_logprob,
    conditional_mean_ratio,
    conditioned_sample,
    count_survivors_dp,
    endogenous_alpha,
    endogenous_population,
    enumerate_brute,
    ks_distance,
    lcg_delta_stream,
    lcg_walk_survival,
    log_survival_closed_form,
    measurement_pipeline,
    outcome_weights,
    rng_stream,
    scan_rows_from_series,
    start_exponent,
    survival_closed_form,
    survival_ratio,
)
from image_law import image_cdf, image_density, image_survival


def _verdict(n: int, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {n:02d} {'PASS' if ok else 'FAIL'}: {detail}"
    print(line, flush=True)
    assert ok, line


def test_criterion_01_dp_matches_brute_force():
    """Survivor counts from the DP equal brute-force path enumeration.

    50 random specs: K cycles through {2, 3, 4}, branch fractions are
    Dirichlet draws floored at 0.05, alpha uniform in [0.3, 0.9], epsilon
    log-uniform in [1e-4, 0.3], horizon t uniform in [4, cap(K)] with caps
    12/11/9 so every K^t enumeration stays small and t <= 12 throughout.
    Counts are integers, so the comparison is exact equality at every
    recorded depth, not approx. Budget 60 s; measured about 0.1 s.
    """
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    t_cap = {2: 12, 3: 11, 4: 9}
    compared = 0
    for i in range(50):
        k = (2, 3, 4)[i % 3]
        while True:
            deltas = rng.dirichlet(np.ones(k))
            if deltas.min() >= 0.05:
                break
        alpha = float(rng.uniform(0.3, 0.9))
        epsilon = float(math.exp(rng.uniform(math.log(1e-4), math.log(0.3))))
        t = int(rng.integers(4, t_cap[k] + 1))
        spec = BranchingSpec(tuple(float(x) for x in deltas))
        sched = Exogenous(epsilon, alpha)
        series = count_survivors_dp(spec, sched, t, [1.0], record_ts=range(t + 1))
        brute = {r.t: r.counts[0] for r in enumerate_brute(spec, sched, t, 1.0)}
        if not all(r.counts[0] == brute[r.t] for r in series):
            _verdict(
                1,
                False,
                f"count mismatch at spec {i}: K={k} t={t} "
                f"alpha={alpha:.4f} epsilon={epsilon:.2e}",
            )
        compared += len(series)
    elapsed = time.perf_counter() - t0
    _verdict(
        1,
        elapsed < 60.0,
        f"50 random specs, {compared} recorded counts all equal "
        f"({elapsed:.1f}s, budget 60s)",
    )


@pytest.mark.slow
def test_criterion_02_critical_tuning_exponent_and_ratio():
    """Unit-tilt DP: the 4:1 count ratio and the exponent follow the theta = 1 law.

    deltas (1/6, 1/3, 1/2), epsilon = 1e-6, starts {1, 2, 4, 8, 16},
    checkpoints t = 400..1000 step 100. The exact counts N_t(phi) are
    3^t times the survival probability of the walk with steps
    log(delta_k / alpha), each with probability 1/3. Their exponent in phi
    is the Cramer tilt theta* solving sum_k delta_k^theta log(delta_k /
    alpha) = 0, so theta* = 1 at alpha_1 = exp(sum_k delta_k log delta_k)
    = 0.363708, computed here from the deltas. The diffusion-limit tuning
    delta_bar e^{sigma^2} = 0.372041 is only the second-order value; there
    theta* = 1.151.

    Tilting by theta = 1 leaves a driftless walk with variance sigma_1^2 =
    sum_k delta_k log(delta_k / alpha_1)^2, so, as in the diffusion
    survival formula (criterion 04), with d(phi) = log phi - log epsilon

      log N_t(phi) = theta log phi + log d(phi) - d(phi)^2 / (2 sigma_1^2 t)
                     + (terms free of phi) + o(1).

    Required at every checkpoint: N_t(4)/N_t(1) within 15% of that
    expansion (0.6/4, the relative half-width of the window [3.4, 4.6]
    around the bare tilt 4), and the fitted exponent within 0.15 of the
    expansion's OLS slope over the five starts. The expansion predicts
    3.180 at t = 400 and 3.865 at t = 1000, against exact 3.215 and 3.856;
    at 0.372041 with theta* in place of 1 it predicts 3.838 and 4.725
    against exact 3.882 and 4.713. Both within 1.1%. Run at 0.372041
    with theta = 1, the ratio clause fails by 22%. Budget 180 s. On a
    2-core machine the packed DP takes 122-145 s at alpha_1, where the
    big-integer row adds take nearly all of the time; a slower or busier
    machine can still fail this criterion on time alone.
    """
    t0 = time.perf_counter()
    deltas = (1.0 / 6.0, 1.0 / 3.0, 1.0 / 2.0)
    alpha = math.exp(math.fsum(d * math.log(d) for d in deltas))
    var = math.fsum(d * math.log(d / alpha) ** 2 for d in deltas)
    log_eps = math.log(1e-6)
    phis = [1.0, 2.0, 4.0, 8.0, 16.0]
    series = count_survivors_dp(
        BranchingSpec(deltas),
        Exogenous(1e-6, alpha),
        1000,
        phis,
        record_ts=range(400, 1001, 100),
    )
    rows = scan_rows_from_series(series, phis)  # ratios[1] is N_t(4)/N_t(1)

    def expansion(t: int) -> list[float]:
        out = []
        for p in phis:
            d = math.log(p) - log_eps
            out.append(math.log(p) + math.log(d) - d * d / (2.0 * var * t))
        return out

    ratio_errs, beta_gaps = [], []
    for r in rows:
        log_n = expansion(r.t)
        ratio_errs.append(r.ratios[1] / math.exp(log_n[2] - log_n[0]) - 1.0)
        beta_gaps.append(r.beta_hat - float(np.polyfit(np.log(phis), log_n, 1)[0]))
    elapsed = time.perf_counter() - t0
    worst_r = max(ratio_errs, key=abs)
    worst_b = max(beta_gaps, key=abs)
    _verdict(
        2,
        abs(worst_r) <= 0.15 and abs(worst_b) <= 0.15 and elapsed < 180.0,
        f"alpha_1 {alpha:.6f}; ratio(4:1) {rows[0].ratios[1]:.3f} at t={rows[0].t} "
        f"to {rows[-1].ratios[1]:.3f} at t={rows[-1].t}, worst {100 * worst_r:+.1f}% "
        f"vs the theta=1 expansion (tol 15%); beta_hat "
        f"{min(r.beta_hat for r in rows):.3f}..{max(r.beta_hat for r in rows):.3f}, "
        f"worst gap {worst_b:+.3f} to the expansion slope (tol 0.15) "
        f"({elapsed:.0f}s, budget 180s)",
    )


def test_criterion_03_infeasible_tuning_goes_extinct():
    """A tuning above the largest branch fraction dies out in the DP.

    deltas (0.05, 0.45, 0.5) give delta_bar e^{sigma^2} = 0.691397, which
    exceeds max delta = 0.5: even the best branch loses log(0.5/alpha) =
    -0.3236 per step against the threshold, so no path can keep pace. The
    tuning helper flags this (feasible = False) and the DP confirms it:
    with epsilon = 1e-6 the count hits zero at t = 43 (log epsilon =
    -13.816 crossed near t = 42.7), far inside the t <= 2000 requirement.
    Budget 120 s; measured well under 1 s.
    """
    t0 = time.perf_counter()
    spec = BranchingSpec((0.05, 0.45, 0.5))
    info = alpha_for_unit_beta(spec)
    alpha_ok = math.isclose(info.alpha, 0.691397, rel_tol=1e-5)
    flagged_ok = not info.feasible
    series = count_survivors_dp(
        spec, Exogenous(1e-6, info.alpha), 200, [1.0], record_ts=range(201)
    )
    extinct = [r.t for r in series if r.counts[0] == 0]
    extinct_ok = bool(extinct) and extinct[0] <= 2000
    elapsed = time.perf_counter() - t0
    first = extinct[0] if extinct else "never"
    _verdict(
        3,
        alpha_ok and flagged_ok and extinct_ok and elapsed < 120.0,
        f"alpha {info.alpha:.6f} flagged infeasible (exceeds max delta 0.5); "
        f"N_t = 0 from t = {first} (<= 2000) ({elapsed:.1f}s, budget 120s)",
    )


def test_criterion_04_start_tilt_against_bare_exponential():
    """Closed-form survival carries the bare e^{beta dx} tilt beyond its known terms.

    mu = sigma^2 = 1, log epsilon = -18.4, exact closed form only (no
    sampling, so the numbers are deterministic). With d(x) = x - log eps,
    the image formula expands for large d and tau as

      log q(x) = beta x + log d(x) - d(x)^2 / (2 sigma^2 tau)
                 + (terms free of x) + o(1),

    the start prefactor and horizon term that ratio_convergence_scan
    documents. Each log q has both terms subtracted; what remains must
    carry the bare tilt. Required: the corrected survival ratio between
    starts x_a = 2 and x_b = 0 at tau = 500 within 2% of e^2, and the
    corrected fitted exponent over starts {0, 1, 2, 3} at tau = 1000
    within 0.5% of 1. Measured: 0.03% and 1.00004. Uncorrected, the two
    terms contribute +0.1036 and -0.0776 to the tau = 500 log ratio (2.62%
    and 3.05% gaps). With the image term dropped from the closed form the
    corrected check gives -9.4% and 0.951. Budget 1 s.
    """
    t0 = time.perf_counter()
    log_eps = -18.4

    def corrected(x: float, tau: float) -> float:
        d = x - log_eps
        log_q = log_survival_closed_form(1.0, 1.0, d, tau)
        return log_q - math.log(d) + d * d / (2.0 * tau)

    ratio = math.exp(corrected(2.0, 500.0) - corrected(0.0, 500.0))
    target = math.exp(2.0)
    ratio_err = abs(ratio / target - 1.0)
    xs = np.array([0.0, 1.0, 2.0, 3.0])
    logs = np.array([corrected(x, 1000.0) for x in xs])
    slope = float(np.polyfit(xs, logs, 1)[0])
    slope_err = abs(slope - 1.0)
    elapsed = time.perf_counter() - t0
    _verdict(
        4,
        ratio_err <= 0.02 and slope_err <= 0.005 and elapsed < 1.0,
        f"corrected ratio {ratio:.4f} vs e^2 = {target:.4f}, err "
        f"{100 * ratio_err:.2f}% (tol 2%); corrected exponent {slope:.5f}, err "
        f"{100 * slope_err:.3f}% (tol 0.5%) ({1e3 * elapsed:.0f}ms, budget 1s)",
    )


@pytest.mark.slow
def test_criterion_05_euler_survival_unbiased_on_grid():
    """Euler-simulated survival matches the closed form across a 3x3 grid.

    mu = sigma = 1, d in {2, 3, 5} x tau in {5, 10, 20}, 1e5 paths per
    cell at dt = 0.01 on disjoint streams. Required: every cell's z-score
    against the closed form is below 3 in magnitude. The half-step bridge
    correction inside the stepper is what keeps the Euler scheme unbiased
    here; without it the d = 2, tau = 5 cell alone would sit several
    standard errors high. Calibration gives max |z| = 2.14. Budget 120 s;
    measured about 30-40 s.
    """
    t0 = time.perf_counter()
    zs = []
    idx = 0
    for d in (2.0, 3.0, 5.0):
        for tau in (5.0, 10.0, 20.0):
            alive, _ = batch_survive(
                1.0, 1.0, d, tau, 0.01, rng_stream(500, idx), 100_000
            )
            q = survival_closed_form(1.0, 1.0, d, tau)
            se = math.sqrt(q * (1.0 - q) / 100_000)
            zs.append(abs(float(alive.mean()) - q) / se)
            idx += 1
    elapsed = time.perf_counter() - t0
    _verdict(
        5,
        max(zs) < 3.0 and elapsed < 120.0,
        f"9 cells, max |z| = {max(zs):.2f} (tol 3) ({elapsed:.0f}s, budget 120s)",
    )


@pytest.mark.slow
def test_criterion_06_conditioned_law_is_not_shifted_exponential():
    """The survivor overshoot law is the image law, not a shifted exponential.

    mu = sigma = 1, barrier at log epsilon = -3, start x = 0, tau = 8,
    1e6 paths at dt = 0.01 give 18460 survivors (>= 1e4 required). The
    diffusion module documents the Gamma(2, mu/sigma^2) law as the limit
    (the Yaglom limit of drifted Brownian motion); at tau = 8 the exact
    law of the survivors is the method-of-images density, whose CDF
    tests/image_law.py writes in closed form. Required: KS distance to
    that exact CDF below 0.02, and the memorylessness probe P(Y > 2m | Y >
    m), with m the sample median, within 0.05 of the exact law's value.
    Measured: KS 0.0079; probe 0.260 against exact 0.263 (a memoryless
    law would give 0.5). The KS distance to the best-fit shifted
    exponential (shift at the smallest survivor, rate from the mean excess
    over it), 0.157, is printed next to it. With the bridge kill
    removed from batch_survive the KS distance is 0.0211, so the check
    fails. Budget 180 s.
    """
    t0 = time.perf_counter()
    ys = conditioned_sample(
        DiffusionParams(1.0, 1.0),
        3.0,
        8.0,
        1_000_000,
        seed=61,
        dt=0.01,
    )
    cdf = image_cdf(1.0, 1.0, 3.0, 8.0)
    ks = ks_distance(ys, cdf)
    shift = float(ys[0])
    rate = 1.0 / (float(ys.mean()) - shift)
    ks_fitted = ks_distance(
        ys, lambda v: np.where(v < shift, 0.0, 1.0 - np.exp(-rate * (v - shift)))
    )
    m = float(np.median(ys))
    probe = float((ys > 2.0 * m).sum()) / int((ys > m).sum())
    probe_exact = float((1.0 - cdf(2.0 * m)) / (1.0 - cdf(m)))
    probe_gap = abs(probe - probe_exact)
    elapsed = time.perf_counter() - t0
    count_ok = ys.size >= 10_000
    _verdict(
        6,
        count_ok and ks < 0.02 and probe_gap < 0.05 and elapsed < 180.0,
        f"{ys.size} survivors; KS vs exact image law {ks:.4f} (tol 0.02); "
        f"P(Y > 2m | Y > m) {probe:.3f} vs exact {probe_exact:.3f}, gap "
        f"{probe_gap:.3f} (tol 0.05); KS vs fitted shifted exponential "
        f"{ks_fitted:.3f} ({elapsed:.0f}s, budget 180s)",
    )


@pytest.mark.slow
def test_criterion_07_conditional_mean_ratio_constants():
    """E[value | survival] / threshold matches the image-law value at both betas.

    beta = 1.25 (mu = 1.25, sigma = 1, d = 3, tau = 6, 6e5 paths) and beta
    = 2 (mu = 2, sigma = 1, d = 4, tau = 4, 4e5 paths), dt = 0.01. The
    target is E[e^Y | survival] under the exact absorbed law at the same
    (mu, sigma, d, tau): the quadrature of e^y against the image density
    over the image survival probability, 7.7720 and 3.9255. Required:
    each estimate within 10% of its target. Measured 7.416 +- 0.274 and
    3.826 +- 0.078, 4.6% and 2.5% off. Neither E[e^Y] under an Exp(beta)
    overshoot law, beta/(beta - 1) = 5 and 2, nor the Gamma(2, beta)
    stationary value (beta/(beta - 1))^2 = 25 and 4 is the finite-tau
    value. Scaling the drift step in batch_survive by 0.9 moves the
    estimates by +24% and +21%, and dropping the survivor mask by -84%
    and -70%, so the check fails; a missing bridge kill moves them by only
    -4.6% and -4.4% (8.9% and 6.8% below the targets), which criterion 06
    catches instead. Budget 120 s.
    """
    t0 = time.perf_counter()
    verdicts = []
    cases = ((1.25, 3.0, 6.0, 600_000, 71), (2.0, 4.0, 4.0, 400_000, 72))
    for mu, d, tau, n_paths, seed in cases:
        res = conditional_mean_ratio(
            DiffusionParams(mu, 1.0),
            d,
            tau,
            n_paths,
            seed=seed,
            dt=0.01,
        )
        dens = image_density(mu, 1.0, d, tau)
        num, _ = quad(lambda y: math.exp(y) * dens(y), 0.0, 60.0)
        exact = num / image_survival(mu, 1.0, d, tau)
        # sigma = 1, so beta = mu / sigma^2 = mu
        verdicts.append((mu, res, exact, abs(res.estimate / exact - 1.0)))
    elapsed = time.perf_counter() - t0
    _verdict(
        7,
        all(err <= 0.10 for _, _, _, err in verdicts) and elapsed < 120.0,
        "; ".join(
            f"beta={beta:g}: {res.estimate:.3f} +- {res.se:.3f} vs image law "
            f"{exact:.4f} (err {100 * err:.1f}%, tol 10%)"
            for beta, res, exact, err in verdicts
        )
        + f" ({elapsed:.0f}s, budget 120s)",
    )


@pytest.mark.slow
def test_criterion_08_endogenous_growth_and_scale_invariance():
    """Self-thresholding population: invariance is exact, the rate is not 0.25.

    tilde_mu = 1, sigma = 1, tilde_epsilon = 0.2, 1e5 particles, tau =
    100, dt = 0.01. Required: threshold growth slope within 0.25 +- 0.03,
    and slope change below 0.005 when every start is scaled by 100. The
    invariance clause holds exactly: scaling starts by 100 shifts every
    log coordinate and the recomputed threshold by the same log 100, so
    with shared shocks the survivor sets are identical and the slope
    change is 0.0.

    The rate clause stays red because its target is not settled. 0.25 is
    endogenous_alpha's exponential quasi-stationary ansatz, log alpha =
    sigma^2 / (1 - eps) - tilde_mu, and that function's docstring says the
    particle system deviates from it. The same ansatz with the Gamma(2,
    beta) survivor law in place of the exponential gives sigma^2 / (1 -
    sqrt(eps)) - tilde_mu = 0.809, which the system does not reach either.
    At seed 81 and tau = 100 the slope is 0.526, 0.669, 0.665 and 0.623 at
    N = 1e3, 1e4, 1e5 and 3e5: from N = 1e4 on it stays between 0.6 and
    0.7, and no documented law gives that value, so no corrected target
    can be computed here. Budget 300 s; measured about 40-50 s for the two
    runs on a 2-core machine.
    """
    t0 = time.perf_counter()
    run_a = endogenous_population(
        1.0, 1.0, 0.2, 100_000, 100.0, dt=0.01, phi0=1.0, seed=81
    )
    run_b = endogenous_population(
        1.0, 1.0, 0.2, 100_000, 100.0, dt=0.01, phi0=100.0, seed=81
    )
    ansatz = endogenous_alpha(1.0, 1.0, 0.2).log_alpha
    slope_err = abs(run_a.slope - 0.25)
    d_slope = abs(run_a.slope - run_b.slope)
    elapsed = time.perf_counter() - t0
    _verdict(
        8,
        slope_err <= 0.03 and d_slope < 0.005 and elapsed < 300.0,
        f"slope {run_a.slope:.4f} vs 0.25 +- 0.03 (ansatz "
        f"{ansatz:.2f}); scale-invariance slope change "
        f"{d_slope:.1e} (tol 0.005) ({elapsed:.0f}s, budget 300s)",
    )


def test_criterion_09_measurement_frequencies_at_depth():
    """Outcome frequencies at tau = 200 are unreachable by direct sampling.

    deltas (0.2, 0.3, 0.5) with mu = sigma^2 = 1 and tau = 200. Required:
    >= 3e4 survivors and per-arm frequencies within 3 SE of the branch
    fractions. Survival per path decays like e^{-mu^2 tau / (2 sigma^2)}
    = e^{-100}, so the exact precheck predicts 1.39e-39 survivors in the
    lightest arm from the 1e7 paths attempted here; reaching 3e4 survivors
    would take about 2e50 paths. measurement_pipeline refuses to run, as
    its documented precondition says, and this criterion stays red with
    the precheck's numbers. Neither the program nor the machine is at
    fault: this depth needs a weighted rare-event estimator (a driftless
    proposal with likelihood weights), which the package does not have.
    Budget 240 s.
    """
    t0 = time.perf_counter()
    setup = MeasurementSetup((0.2, 0.3, 0.5), 1.0, 200.0)
    try:
        res = measurement_pipeline(setup, 10_000_000, seed=9)
    except TooFewSurvivors as exc:
        elapsed = time.perf_counter() - t0
        _verdict(9, False, f"unreachable at tau=200: {exc} ({elapsed:.0f}s)")
    weights = outcome_weights(setup)[0]
    freq_ok = all(
        abs(arm.frequency - w) <= 3.0 * arm.freq_se for arm, w in zip(res.outcomes, weights)
    )
    elapsed = time.perf_counter() - t0
    _verdict(
        9,
        res.n_survivors >= 30_000 and freq_ok and elapsed < 240.0,
        f"{res.n_survivors} survivors; frequencies "
        f"{[round(a.frequency, 4) for a in res.outcomes]} vs "
        f"{weights} within 3 SE ({elapsed:.0f}s, budget 240s)",
    )


def test_criterion_10_conditioned_start_medians_at_depth():
    """Conditioned start medians at tau in {250, 500, 1000} are unreachable.

    Same setup as criterion 9. Required: for the delta = 0.2 arm, the
    median conditioned start at tau = 500 within +-0.25 of log epsilon +
    log 2 + log(tau delta), and the slope of that median against
    log(tau delta) over tau in {250, 500, 1000} within 1 +- 0.1. Survival
    at tau = 500 is of order e^{-250}: the precheck predicts 6.34e-105
    survivors from 1e7 paths, so all three pipeline calls refuse to run
    and the criterion stays red with their numbers.

    The target is also contested. The exact factorization in measure.py
    makes the conditioned start law the same in every arm (the delta_k^r
    factor normalizes out), which test_measure.py pins at tau = 70, and
    prepared_median_reference gives that law a scale growing like
    sqrt(tau). The target instead depends on delta and grows like log
    tau. No test validates it, and the docs do not settle which law this
    criterion means. Budget 300 s.
    """
    t0 = time.perf_counter()
    taus = (250.0, 500.0, 1000.0)
    medians = {}
    failures = []
    for tau in taus:
        setup = MeasurementSetup((0.2, 0.3, 0.5), 1.0, tau)
        try:
            res = measurement_pipeline(setup, 10_000_000, seed=10)
        except TooFewSurvivors as exc:
            failures.append(f"tau={tau:.0f}: {str(exc).split(';')[0]}")
        else:
            # the start X_0 = log epsilon + Y_0, with epsilon = 1e-3
            medians[tau] = res.outcomes[0].median_y0 + math.log(1e-3)
    elapsed = time.perf_counter() - t0
    if failures:
        _verdict(10, False, "; ".join(failures) + f" ({elapsed:.0f}s)")
    median = medians[500.0]
    target = math.log(1e-3) + math.log(2.0) + math.log(500.0 * 0.2)
    median_ok = abs(median - target) <= 0.25
    xs = [math.log(tau * 0.2) for tau in taus]
    ys = [medians[tau] for tau in taus]
    slope = float(np.polyfit(xs, ys, 1)[0])
    _verdict(
        10,
        median_ok and abs(slope - 1.0) <= 0.1 and elapsed < 300.0,
        f"median {median:.3f} vs target {target:.3f} "
        f"(tol 0.25); slope {slope:.3f} vs 1 +- 0.1 ({elapsed:.0f}s, budget 300s)",
    )


def test_criterion_11_binomial_interval_tails():
    """Big-integer binomial tails at n = 1000 stay exact below underflow.

    P(100 <= S <= 300) for S ~ Binomial(1000, 0.2): the complement must
    equal 2.2e-14 within 20% relative; the two-sided log-tail sum gives
    2.2021e-14. Counting equally weighted outcomes instead, sum of
    C(1000, k) for k in [100, 300] over 2^1000 must be below 1e-37, and
    the check is an exact Fraction comparison (log10 = -37.05), immune
    to float underflow. Budget 5 s.
    """
    t0 = time.perf_counter()
    _, log_out = binomial_interval_logprob(1000, 0.2, 100, 300)
    outside = math.exp(log_out)
    prob_ok = abs(outside / 2.2e-14 - 1.0) <= 0.20
    log10_frac, frac = binomial_count_fraction(1000, 100, 300)
    frac_ok = frac < Fraction(1, 10**37)
    elapsed = time.perf_counter() - t0
    _verdict(
        11,
        prob_ok and frac_ok and elapsed < 5.0,
        f"complement {outside:.6e} (target 2.2e-14 +- 20%); count fraction "
        f"10^{log10_frac:.2f} < 1e-37 as an exact Fraction "
        f"({elapsed:.1f}s, budget 5s)",
    )


def test_criterion_12_lcg_shock_moments_and_walk_exponent():
    """The congruential stream has uniform moments; its default tuning does not fit.

    Modulus p = 2^61 - 1, multiplier 6364136223846793005, 1e6 transitions.
    Required: KS distance to Uniform(0, 1) below 0.002, mean(-log delta)
    within 1 +- 0.01, var(log delta) within 2% of 1, and the walk exponent
    under the tuning alpha = e^{-11/12} within [0.85, 1.15]. For U ~
    Uniform(0, 1), -log U is Exp(1), so Var(log U) = 1; 1/12 is the
    variance of U itself. The stream gives KS 0.00103, mean 1.00116 and
    variance 0.99822.

    The exponent clause stays red, and the docs do not settle what it
    should check. DEFAULT_LCG_ALPHA = e^{-11/12} assumed Var(log delta) =
    1/12: the drift 1 - 11/12 over that variance is 1. With the true unit
    variance the drift-over-variance exponent is 1/12, and the walk over
    starts {1, 4, 16, 64} measures 0.121 (over seeds 121-130, mean 0.120
    and standard deviation 0.0014). mu/sigma^2 = 1 would
    need alpha = 1, which Exogenous refuses. The exact tilt equals 1 at
    alpha = e^{-1/2}, but there survival to t = 200 is about e^{-38.6},
    out of reach of 20,000 paths. Budget 180 s.
    """
    t0 = time.perf_counter()
    spec = LcgSpec(6364136223846793005)
    deltas = lcg_delta_stream(spec, 1_000_000, seed=0)
    ks = ks_distance(deltas, lambda v: np.clip(v, 0.0, 1.0))
    logs = np.log(deltas)
    mean_neg = float(-logs.mean())
    var_log = float(logs.var())
    phis = [1.0, 4.0, 16.0, 64.0]
    walk = lcg_walk_survival(
        spec,
        Exogenous(1e-4, DEFAULT_LCG_ALPHA),
        200,
        phis,
        20_000,
        seed=121,
    )
    beta_hat = start_exponent(
        [math.log(p) for p in phis],
        [math.log(e.p_hat) if e.p_hat > 0 else -math.inf for e in walk],
    )
    elapsed = time.perf_counter() - t0
    clauses = [
        (f"KS {ks:.5f} (tol 0.002)", ks < 0.002),
        (f"mean(-log delta) {mean_neg:.4f} (1 +- 0.01)", abs(mean_neg - 1.0) <= 0.01),
        (f"var(log delta) {var_log:.4f} (1 +- 2%)", abs(var_log - 1.0) <= 0.02),
        (
            f"beta_hat {beta_hat:.3f} ([0.85, 1.15])",
            0.85 <= beta_hat <= 1.15,
        ),
    ]
    detail = "; ".join(f"{txt} {'pass' if ok else 'FAIL'}" for txt, ok in clauses)
    _verdict(
        12,
        all(ok for _, ok in clauses) and elapsed < 180.0,
        detail + f" ({elapsed:.0f}s, budget 180s)",
    )


def test_criterion_13_random_barrier_matches_fixed():
    """Zero-mean barrier noise leaves the start-survival ratio unchanged.

    Gaussian walk mu = 0.15, sigma = 1.1, flat barrier at epsilon = 1e-8,
    t = 300, starts 1.0 and 0.0, 2e5 paths per arm. Required: the
    survival ratio with per-step N(0, 0.5^2) barrier noise agrees with
    the fixed-barrier ratio within 3 combined standard errors. The noise
    is zero mean and independent of the walk shocks, so it perturbs both
    arms' survival alike without moving the tilt between starts;
    calibration gives 1.1359 +- 0.0043 fixed vs 1.1462 +- 0.0045 noisy,
    a gap of 0.0103 against an allowance of 0.0185. Budget 120 s.
    """
    t0 = time.perf_counter()
    params = WalkParams(0.15, 1.1)
    fixed = survival_ratio(
        params, 1.0, 0.0, Exogenous(1e-8, 0.5), 300, 200_000, seed=131
    )
    noisy = survival_ratio(
        params, 1.0, 0.0, RandomBarrier(1e-8, 0.5), 300, 200_000, seed=132
    )
    gap = abs(noisy.ratio - fixed.ratio)
    allowance = 3.0 * math.hypot(noisy.se, fixed.se)
    elapsed = time.perf_counter() - t0
    _verdict(
        13,
        gap <= allowance and elapsed < 120.0,
        f"fixed {fixed.ratio:.4f} +- {fixed.se:.4f} vs noisy {noisy.ratio:.4f} "
        f"+- {noisy.se:.4f}: gap {gap:.4f} <= 3 SE allowance {allowance:.4f} "
        f"({elapsed:.0f}s, budget 120s)",
    )
