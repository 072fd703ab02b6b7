"""Tests for the congruential branching model: arithmetic, period, walks."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

import born_branch

from born_branch import (
    DEFAULT_LCG_ALPHA,
    Exogenous,
    LcgSpec,
    OutOfRange,
    TooLarge,
    lcg_cycle_length,
    lcg_delta,
    lcg_delta_stream,
    lcg_full_period,
    lcg_next,
    lcg_children,
    lcg_tree,
    lcg_walk_survival,
    rng_stream,
)
from born_branch.lcg import (
    M31,
    M61,
    _is_prime,
    _lcg_block_worst,
    _mulmod_m31,
    _mulmod_m61,
    _prime_factors,
)

LEHMER = LcgSpec(M31, 16807)
BIG = LcgSpec()  # p = 2^61 - 1 with the 64-bit MCG multiplier reduced mod p


class TestModularArithmetic:
    """Vectorized Mersenne-prime mulmod against exact integer arithmetic."""

    def test_m61_random_states(self):
        """(a*c) mod (2^61-1) via 32-bit splitting equals big-int truth."""
        rng = rng_stream(41, 0)
        cs = rng.integers(0, M61, size=4096, dtype=np.uint64)
        got = _mulmod_m61(BIG.a_eff, cs)
        expect = [(BIG.a_eff * int(c)) % M61 for c in cs.tolist()]
        assert got.tolist() == expect

    def test_m61_edge_states(self):
        edges = np.array([0, 1, 2, M61 - 1, M61 - 2, (1 << 32) - 1, 1 << 60],
                         dtype=np.uint64)
        got = _mulmod_m61(BIG.a_eff, edges)
        expect = [(BIG.a_eff * int(c)) % M61 for c in edges.tolist()]
        assert got.tolist() == expect

    def test_m31_random_states(self):
        rng = rng_stream(42, 0)
        cs = rng.integers(0, M31, size=4096, dtype=np.uint64)
        got = _mulmod_m31(16807, cs)
        expect = [(16807 * int(c)) % M31 for c in cs.tolist()]
        assert got.tolist() == expect

    def test_multiplier_reduced_at_construction(self):
        """The 64-bit multiplier exceeds 2^61-1 and is stored reduced."""
        assert BIG.a == 6364136223846793005
        assert BIG.a_eff == 6364136223846793005 % M61 == 1752450205419405103

    def test_spec_validation(self):
        with pytest.raises(OutOfRange):
            LcgSpec(M31, M31)  # reduces to 0
        with pytest.raises(OutOfRange):
            LcgSpec(M31, M31 + 1)  # reduces to 1
        with pytest.raises(OutOfRange):
            LcgSpec(M31, 16807, c0=0)
        with pytest.raises(OutOfRange):
            LcgSpec(2, 1)


class TestTransitions:
    """The two-branch state map: multiply, or reflect the product."""

    def test_lehmer_reference_chain(self):
        """From c=1: 16807 -> 282475249 -> 1622650073 (classic sequence)."""
        c = 1
        seq = []
        for _ in range(3):
            c = lcg_next(c, LEHMER, branch=2)
            seq.append(c)
        assert seq == [16807, 282475249, 1622650073]

    def test_reflection_branch(self):
        """Branch 1 returns p - 1 - (a c mod p): 2147466839 from c=1."""
        assert lcg_next(1, LEHMER, branch=1) == M31 - 1 - 16807 == 2147466839

    def test_branch_and_state_validation(self):
        with pytest.raises(OutOfRange):
            lcg_next(1, LEHMER, branch=3)
        with pytest.raises(OutOfRange):
            lcg_next(M31, LEHMER, branch=2)

    def test_children_match_scalar_transitions(self):
        rng = rng_stream(43, 0)
        cs = rng.integers(1, M61, size=256, dtype=np.uint64)
        c2, c1 = lcg_children(cs, BIG)
        for c, a2, a1 in zip(cs.tolist(), c2.tolist(), c1.tolist()):
            assert a2 == lcg_next(int(c), BIG, branch=2)
            assert a1 == lcg_next(int(c), BIG, branch=1)

    def test_delta_is_state_over_modulus(self):
        assert lcg_delta(1, LEHMER) == pytest.approx(1.0 / M31, rel=1e-15)
        assert lcg_delta(M31 - 1, LEHMER) == pytest.approx(1.0, rel=1e-9)

    def test_vectorized_path_rejects_oversized_modulus(self):
        """lcg_children stores states as uint64, so p wider than 62 bits
        cannot be represented and must raise rather than wrap silently.
        The scalar stream has no such limit (Python integers)."""
        big = LcgSpec((1 << 89) - 1, 3)
        with pytest.raises(TooLarge):
            lcg_children(np.array([5], dtype=np.uint64), big)
        assert lcg_delta_stream(big, 10, seed=0).shape == (10,)


class TestPeriod:
    """Full period <=> the multiplier is a primitive root mod p."""

    def test_reference_multipliers_are_full_period(self):
        assert lcg_full_period(LEHMER)
        assert lcg_full_period(BIG)

    def test_quadratic_residue_is_not_full_period(self):
        """a = 4 = 2^2 is a square, so its order divides (p-1)/2."""
        assert not lcg_full_period(LcgSpec(M31, 4))

    def test_cycle_detection_cross_checks_order_test(self):
        """On p=1021 the cycle length is walked explicitly: a primitive
        root gives period p-1 = 1020, a square gives a proper divisor."""
        root = next(a for a in range(2, 1021) if lcg_cycle_length(LcgSpec(1021, a)) == 1020)
        spec = LcgSpec(1021, root)
        assert lcg_full_period(spec)
        square = LcgSpec(1021, (root * root) % 1021)
        assert not lcg_full_period(square)
        assert lcg_cycle_length(square) == 510

    @pytest.mark.parametrize("p", [211, 1021])
    def test_order_test_matches_cycle_length_for_every_multiplier(self, p):
        """From c0 = 1 the branch-2 orbit length is the multiplicative
        order of a, so full period <=> that orbit has length p - 1."""
        for a in range(2, p):
            spec = LcgSpec(p, a)
            assert lcg_full_period(spec) == (lcg_cycle_length(spec) == p - 1), a

    def test_factor_hidden_in_a_chernick_number(self):
        """p - 1 = 10 * 211 * 421 * 631 for p = 560523611. The product
        56052361 = 211 * 421 * 631 passes a^((n-1)/2) = 1 for every base,
        so a test that misses its factors accepts a = 2^211, whose order
        is (p - 1)/211."""
        p = 560523611
        assert lcg_full_period(LcgSpec(p, 2))
        assert not lcg_full_period(LcgSpec(p, pow(2, 211, p)))

    def test_cycle_length_respects_limit(self):
        assert lcg_cycle_length(LEHMER, limit=1000) is None


def _trial_division_factors(n):
    factors = set()
    q = 2
    while q * q <= n:
        while n % q == 0:
            factors.add(q)
            n //= q
        q += 1
    if n > 1:
        factors.add(n)
    return factors


class TestPrimeFactors:
    """The factoriser behind lcg_full_period."""

    def test_matches_trial_division_below_1e5(self):
        for n in range(1, 100_000):
            assert _prime_factors(n) == _trial_division_factors(n), n

    @pytest.mark.parametrize(
        "primes",
        [
            (2147483647, 2147483629),
            (2147483647, 2147483647),
            (2147483629, 2147483659),
            (3, 5, 65521, 4294967291),
        ],
    )
    def test_products_of_known_primes(self, primes):
        """Products of two primes above 37 need the rho branch."""
        assert _prime_factors(math.prod(primes)) == set(primes)

    @pytest.mark.parametrize(
        "n, factors",
        [
            (56052361, {211, 421, 631}),
            (8 * 56052361, {2, 211, 421, 631}),
        ],
    )
    def test_absolute_euler_pseudoprime(self, n, factors):
        """211 * 421 * 631 has a^((n-1)/2) = 1 mod n for every base a."""
        assert _prime_factors(n) == factors

    @pytest.mark.parametrize(
        "n",
        [
            1373653,
            25326001,
            3215031751,
            2152302898747,
            3474749660383,
            341550071728321,
            3825123056546413051,
        ],
    )
    def test_strong_pseudoprimes_are_composite(self, n):
        """The smallest strong pseudoprimes to the first 1 to 11 prime
        bases (OEIS A014233); each has no prime factor <= 37."""
        assert not _is_prime(n)
        assert math.prod(_prime_factors(n)) == n

    def test_reference_moduli(self):
        assert _prime_factors(M31 - 1) == {2, 3, 7, 11, 31, 151, 331}
        assert _prime_factors(M61 - 1) == {
            2, 3, 5, 7, 11, 13, 31, 41, 61, 151, 331, 1321
        }
        assert _prime_factors(M61) == {M61}


def _loaded_by_import(module):
    """Whether `import born_branch` in a fresh interpreter loads module."""
    src = os.path.dirname(os.path.dirname(born_branch.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = f"import sys, born_branch; print({module!r} in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    return out.stdout.strip() == "True"


def test_import_does_not_load_sympy():
    """The package depends on numpy and scipy only."""
    assert not _loaded_by_import("sympy")


def test_import_does_not_load_scipy_integrate():
    """Quadrature is imported where outcome_weights uses it, so runs that
    measure nothing do not pay its import time."""
    assert not _loaded_by_import("scipy.integrate")


class TestDeltaStream:
    """Sampled multiplicative increments delta = c/p."""

    def test_deterministic_and_in_range(self):
        a = lcg_delta_stream(BIG, 5000, seed=7)
        b = lcg_delta_stream(BIG, 5000, seed=7)
        np.testing.assert_array_equal(a, b)
        assert a.min() > 0.0
        assert a.max() < 1.0

    def test_seed_changes_stream(self):
        a = lcg_delta_stream(BIG, 1000, seed=7)
        b = lcg_delta_stream(BIG, 1000, seed=8)
        assert not np.array_equal(a, b)

    def test_moments_match_uniform_law(self):
        """delta ~ U(0,1): E[-log delta] = 1, Var[log delta] = 1.

        The variance of log delta is 1 (for U(0,1), log delta has an
        Exp(1) mirror law), distinct from Var[delta] = 1/12.
        """
        deltas = lcg_delta_stream(BIG, 200_000, seed=3)
        logs = np.log(deltas)
        assert -logs.mean() == pytest.approx(1.0, abs=0.02)
        assert logs.var() == pytest.approx(1.0, abs=0.03)
        assert deltas.var() == pytest.approx(1.0 / 12.0, abs=0.002)


class TestLcgTree:
    """Exact and sampled congruential trees."""

    def test_exact_counts_all_paths(self):
        """t=10 with a negligible threshold: all 2^10 paths survive."""
        sched = Exogenous(1e-12, DEFAULT_LCG_ALPHA)
        res = lcg_tree(BIG, sched, 10, mode="exact")
        assert res.n_paths == 1024
        assert res.n_survivors == 1024
        assert res.p_hat == 1.0
        assert res.log_total_paths == pytest.approx(10 * math.log(2), rel=1e-14)

    def test_exact_truncation_reduces_count(self):
        sched = Exogenous(1e-2, DEFAULT_LCG_ALPHA)
        res = lcg_tree(BIG, sched, 14, mode="exact")
        assert 0 < res.n_survivors < res.n_paths

    def test_sampled_agrees_with_exact(self):
        """Sampled survival estimate within 4 SE of the exact fraction."""
        sched = Exogenous(1e-2, DEFAULT_LCG_ALPHA)
        exact = lcg_tree(BIG, sched, 14, mode="exact")
        p_true = exact.n_survivors / exact.n_paths
        sampled = lcg_tree(BIG, sched, 14, mode="sampled", n_paths=40_000, seed=5)
        se = math.sqrt(p_true * (1 - p_true) / sampled.n_paths)
        assert abs(sampled.p_hat - p_true) < 4 * se

    def test_exact_guard_on_depth(self):
        with pytest.raises(TooLarge):
            lcg_tree(BIG, Exogenous(1e-2, 0.5), 40, mode="exact")

    def test_mode_validation(self):
        with pytest.raises(OutOfRange):
            lcg_tree(BIG, Exogenous(1e-2, 0.5), 5, mode="fancy")
        with pytest.raises(OutOfRange):
            lcg_tree(BIG, Exogenous(1e-2, 0.5), 5, mode="sampled")


def _lcg_alive_reference(spec, sched, t, lphis, rng, size):
    """Per-start loop: each start keeps its own alive mask from step to
    step, on the chain and branch draws _lcg_block_worst makes."""
    states = np.full(size, spec.c0, dtype=np.uint64)
    amps = np.zeros(size)
    alive = np.ones((len(lphis), size), dtype=bool)
    for s in range(1, t + 1):
        c2, c1 = lcg_children(states, spec)
        pick = rng.integers(0, 2, size=size).astype(bool)
        states = np.where(pick, c1, c2)
        with np.errstate(divide="ignore"):
            amps = amps + np.log(states.astype(np.float64) / spec.p)
        for j, lphi in enumerate(lphis):
            alive[j] &= lphi + amps >= sched.log_xi(s)
    return alive


class TestLcgWalkSurvival:
    """Multi-start survival MC over the sampled congruential walk."""

    def test_monotone_in_phi0_with_crn(self):
        """Common random numbers make survival weakly monotone in phi0
        path by path, hence in the estimates."""
        sched = Exogenous(1e-4, DEFAULT_LCG_ALPHA)
        res = lcg_walk_survival(BIG, sched, 150, [1.0, 4.0, 16.0], 20_000, seed=2)
        p = [e.p_hat for e in res.estimates]
        assert p[0] <= p[1] <= p[2]
        assert res.fit is not None
        assert res.fit.slope > 0.0

    def test_beta_hat_reflects_shallow_slope(self):
        """The uniform-delta walk has beta = mu/sigma^2 = (1/12)/1 plus a
        finite-depth prefactor, far below 1; the fit must land well under
        0.5 and above 0."""
        sched = Exogenous(1e-4, DEFAULT_LCG_ALPHA)
        res = lcg_walk_survival(
            BIG, sched, 200, [1.0, 4.0, 16.0, 64.0], 20_000, seed=2
        )
        assert 0.0 < res.beta_hat < 0.5

    @pytest.mark.parametrize(
        "spec, sched, t",
        [
            (BIG, Exogenous(1e-4, DEFAULT_LCG_ALPHA), 60),
            # p = 101 falls back to Python mulmod; reflecting a*c = p - 1
            # sends a chain to state 0, where amps = -inf
            (LcgSpec(101, 2), Exogenous(1e-2, 0.5), 12),
        ],
        ids=["m61", "small_modulus"],
    )
    def test_worst_gap_matches_per_start_loop(self, spec, sched, t):
        phis = [1.0, 4.0, 16.0, 64.0]
        lphis = [math.log(v) for v in phis]
        worst = _lcg_block_worst(spec, sched, t, rng_stream(3, 0), 2_000)
        alive = np.asarray(lphis)[:, None] >= worst
        reference = _lcg_alive_reference(spec, sched, t, lphis, rng_stream(3, 0), 2_000)
        np.testing.assert_array_equal(alive, reference)
        assert 0 < alive[0].sum() < alive[-1].sum() < 2_000
        res = lcg_walk_survival(spec, sched, t, phis, 2_000, seed=3)
        assert [e.n_survivors for e in res.estimates] == reference.sum(axis=1).tolist()
        if spec.p == 101:
            assert np.isposinf(worst).sum() > 0

    def test_worker_invariance(self):
        sched = Exogenous(1e-4, DEFAULT_LCG_ALPHA)
        a = lcg_walk_survival(BIG, sched, 80, [1.0, 4.0], 20_000, seed=9, workers=1)
        b = lcg_walk_survival(BIG, sched, 80, [1.0, 4.0], 20_000, seed=9, workers=4)
        assert [e.p_hat for e in a.estimates] == [e.p_hat for e in b.estimates]
