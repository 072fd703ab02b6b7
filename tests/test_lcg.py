"""Tests for the congruential branching model: arithmetic, period, walks."""

import ast
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import born_branch

from born_branch import (
    DEFAULT_LCG_ALPHA,
    Exogenous,
    LcgSpec,
    OutOfRange,
    RandomBarrier,
    lcg_delta_stream,
    lcg_walk_survival,
    rng_stream,
    start_exponent,
)
from born_branch import walk as walk_module
from born_branch.lcg import (
    _C0, _CHUNK, M61, _lcg_block_worst, _lcg_children, _mulmod, _ratios,
)

BIG = LcgSpec()  # the 64-bit MCG multiplier reduced mod p = 2^61 - 1
# a = -1: branch 1 sends state 1 to state 0, where a chain's ratio is 0
ZERO = LcgSpec(M61 - 1)


class TestModularArithmetic:
    """Vectorized Mersenne-prime mulmod against exact integer arithmetic."""

    def test_m61_random_states(self):
        """(x*y) mod (2^61-1) via 32-bit splitting equals big-int truth, for
        a scalar multiplier and for an array of them."""
        rng = rng_stream(41, 0)
        cs = rng.integers(0, M61, size=4096, dtype=np.uint64)
        xs = rng.integers(0, M61, size=4096, dtype=np.uint64)
        got = _mulmod(np.uint64(BIG.a_eff), cs)
        assert got.tolist() == [(BIG.a_eff * c) % M61 for c in cs.tolist()]
        got = _mulmod(xs, cs)
        assert got.tolist() == [(x * c) % M61 for x, c in zip(xs.tolist(), cs.tolist())]

    def test_m61_edge_states(self):
        edges = np.array([0, 1, 2, M61 - 1, M61 - 2, (1 << 32) - 1, 1 << 60],
                         dtype=np.uint64)
        got = _mulmod(np.uint64(BIG.a_eff), edges)
        expect = [(BIG.a_eff * int(c)) % M61 for c in edges.tolist()]
        assert got.tolist() == expect
        x, y = np.meshgrid(edges, edges)
        expect = [(int(u) * int(v)) % M61 for u, v in zip(x.ravel(), y.ravel())]
        assert _mulmod(x.ravel(), y.ravel()).tolist() == expect

    def test_multiplier_reduced_at_construction(self):
        """The 64-bit multiplier exceeds 2^61-1 and is stored reduced."""
        assert BIG.a == 6364136223846793005
        assert BIG.a_eff == 6364136223846793005 % M61 == 1752450205419405103

    def test_spec_validation(self):
        """p is prime, so the only multipliers without an inverse, or with a
        trivial orbit, are those that reduce to 0 or 1; the error names a."""
        for a in (0, 1, M61, M61 + 1, 2 * M61):
            with pytest.raises(OutOfRange, match=f"multiplier a={a} reduces to {a % M61}"):
                LcgSpec(a)
        assert LcgSpec(M61 + 2).a_eff == 2


class TestTransitions:
    """The two-branch state map: multiply, or reflect the product."""

    def test_reflection_branch(self):
        """Branch 1 returns p - 1 - (a c mod p). With a = -1, state 1 goes
        to p - 1 on branch 2 and to 0 on branch 1, and p - 1 goes back to 1
        on branch 2 and to p - 2 on branch 1."""
        c2, c1 = _lcg_children(np.array([1, M61 - 1], dtype=np.uint64), ZERO)
        assert c2.tolist() == [M61 - 1, 1]
        assert c1.tolist() == [0, M61 - 2]

    def test_children_match_scalar_transitions(self):
        """The carry-free product mod 2^61 - 1 against big-integer
        arithmetic, for the reference multiplier and for a = -1."""
        rng = rng_stream(43, 0)
        for spec in (BIG, ZERO):
            cs = rng.integers(1, M61, size=256, dtype=np.uint64)
            c2, c1 = _lcg_children(cs, spec)
            expect = [(spec.a_eff * c) % M61 for c in cs.tolist()]
            assert c2.tolist() == expect
            assert c1.tolist() == [M61 - 1 - b for b in expect]


class TestPeriod:
    """The reference multiplier is a primitive root, so the pure branch-2
    orbit of any nonzero state runs through all p - 1 of them."""

    @pytest.mark.parametrize(
        "spec, factors",
        [(BIG, (2, 3, 3, 5, 5, 7, 11, 13, 31, 41, 61, 151, 331, 1321))],
        ids=["m61"],
    )
    def test_reference_multipliers_are_full_period(self, spec, factors):
        """The listed primes multiply to p - 1 with cofactor 1, so a^(p-1)
        = 1 and a^((p-1)/q) != 1 for each of them pin the order of a at
        exactly p - 1, which also proves p prime."""
        n = M61 - 1
        assert all(q > 1 and all(q % d for d in range(2, q)) for q in factors)
        assert math.prod(factors) == n
        assert pow(spec.a_eff, n, M61) == 1
        for q in set(factors):
            assert pow(spec.a_eff, n // q, M61) != 1, q


def _loaded_by_import(module, then=""):
    """Whether `import born_branch`, followed by the statements `then`, loads
    module in a fresh interpreter."""
    src = os.path.dirname(os.path.dirname(born_branch.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = f"import sys, born_branch\n{then}\nprint({module!r} in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    return out.stdout.strip() == "True"


def test_import_does_not_load_sympy():
    """The package's one runtime dependency is numpy."""
    assert not _loaded_by_import("sympy")


def test_imports_at_module_level():
    """No function body in the package imports: every module's imports sit
    at its top, where a cycle or a missing dependency shows at import."""
    nested = set()
    for path in sorted(Path(born_branch.__file__).parent.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested.update(
                    f"{path.name}:{node.lineno}"
                    for node in ast.walk(fn)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                )
    assert sorted(nested) == []


def test_every_raise_is_one_of_four_failure_kinds():
    """errors.py defines the base class and four failure kinds, and every
    raise in the package raises one of the kinds, or the TypeError of a
    wrong schedule or CDF: one failure raises one type in every module."""
    pkg = Path(born_branch.__file__).parent
    defined = {
        node.name
        for node in ast.walk(ast.parse((pkg / "errors.py").read_text()))
        if isinstance(node, ast.ClassDef)
    }
    kinds = {"OutOfRange", "TooLarge", "TooFewSurvivors", "ConfigError"}
    assert defined == kinds | {"BornBranchError"}
    others = set()
    for path in sorted(pkg.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise):
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                name = ast.unparse(exc) if exc is not None else "bare raise"
                if name not in kinds | {"TypeError"}:
                    others.add(f"{path.name}:{node.lineno}: {name}")
    assert sorted(others) == []


def test_import_does_not_load_scipy_integrate():
    """The package never imports scipy.integrate."""
    assert not _loaded_by_import("scipy.integrate")


def test_runs_do_not_load_scipy(tmp_path):
    """The closed forms behind walk, diffusion, measure and demo_intro are
    built on math.erfc, so small runs of all four through cli.run leave
    every scipy module unloaded (any of them would load the package)."""
    configs = [
        ("walk", {"t": 40, "n_paths": 4_000, "x0s": [0.0, 1.0], "epsilon": math.exp(-3.0)}),
        ("diffusion", {"tau_grid": [5, 10], "mc_n_paths": 2_000, "mc_tau": 5, "mc_dt": 0.5}),
        ("measure", {"deltas": [0.3, 0.7], "sigma": 0.05**0.5, "tau": 70.0,
                     "n_paths": 12_000, "n_boot": 20}),
        ("demo_intro", {}),
    ]
    runs = "\n".join(
        f"run(ExperimentConfig({name!r}, {params!r}, workers=1), out_dir={str(tmp_path / name)!r})"
        for name, params in configs
    )
    then = f"from born_branch.cli import ExperimentConfig, run\n{runs}"
    assert not _loaded_by_import("scipy", then=then)
    assert all((tmp_path / name / "results.json").exists() for name, _ in configs)


def test_measure_run_does_not_load_scipy_integrate():
    """The measurement pipeline's survival constant is a closed form, so a
    whole run leaves the quadrature module unloaded."""
    run = (
        "born_branch.measurement_pipeline(born_branch.MeasurementSetup("
        "(0.3, 0.7), 0.05 ** 0.5, 70.0), 12_000, n_boot=20, workers=1)"
    )
    assert not _loaded_by_import("scipy.integrate", then=run)


def _delta_stream_reference(spec, n, seed):
    """The stream one transition at a time in Python integers: the oracle
    for the chunked closed form of lcg_delta_stream."""
    branches = rng_stream(seed, 0).integers(1, 3, size=n)
    out = np.empty(n)
    c = _C0
    a = spec.a_eff
    for i in range(n):
        base = (a * c) % M61
        c = base if branches[i] == 2 else M61 - 1 - base
        out[i] = c / M61
    return out


class TestDeltaStream:
    """Sampled multiplicative increments delta = c/p."""

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        spec=st.sampled_from([BIG, ZERO]),
        n=st.sampled_from([1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 5]),
        seed=st.integers(0, 2**32),
    )
    def test_matches_scalar_reference_bytewise(self, spec, n, seed):
        """The chunked closed form gives the loop's states and rounds each
        ratio as Python's int / int does, across chunk boundaries and for a
        multiplier whose chains reach state 0."""
        got = lcg_delta_stream(spec, n, seed)
        assert got.tobytes() == _delta_stream_reference(spec, n, seed).tobytes()

    @pytest.mark.parametrize(
        "c", [(1 << 53) + 1, (1 << 54) + 2, (1 << 54) + 6, (1 << 60) + (1 << 7), M61 - 1],
    )
    def test_m61_ratio_rounds_as_python_division(self, c):
        """c / (2^61 - 1) lies just above c 2^-61, so where c is halfway
        between two floats the ratio rounds up, not to even. The last state
        rounds to 1.0."""
        got = _ratios(np.array([c], dtype=np.uint64))
        assert got.tolist() == [c / M61]

    def test_memory_is_chunked(self):
        """Beyond the output and the branch draws (16 bytes per transition),
        the stream allocates a fixed amount per chunk, not per transition."""
        n = 200_000
        lcg_delta_stream(BIG, 10, seed=3)  # first-call allocations stay out of the peak
        tracemalloc.start()
        try:
            lcg_delta_stream(BIG, n, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * n + 32 * 8 * _CHUNK

    def test_deterministic_and_in_range(self):
        a = lcg_delta_stream(BIG, 5000, seed=7)
        b = lcg_delta_stream(BIG, 5000, seed=7)
        np.testing.assert_array_equal(a, b)
        assert a.min() > 0.0
        assert a.max() < 1.0

    def test_no_transitions_refused(self):
        with pytest.raises(OutOfRange, match="n >= 1"):
            lcg_delta_stream(BIG, 0, 0)

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
    """Exact 2^t enumeration by the per-start reference, the oracle for the
    sampled walk."""

    def test_exact_counts_all_paths(self):
        """t=10 with a negligible threshold: all 2^10 paths survive."""
        sched = Exogenous(1e-12, DEFAULT_LCG_ALPHA)
        assert _lcg_exact(BIG, sched, 10) == 1024

    def test_exact_truncation_reduces_count(self):
        sched = Exogenous(1e-2, DEFAULT_LCG_ALPHA)
        assert 0 < _lcg_exact(BIG, sched, 14) < 2**14

    def test_sampled_agrees_with_exact(self):
        """Sampled survival estimate within 4 SE of the exact fraction."""
        sched = Exogenous(1e-2, DEFAULT_LCG_ALPHA)
        p_true = _lcg_exact(BIG, sched, 14) / 2**14
        (sampled,) = lcg_walk_survival(BIG, sched, 14, [1.0], 40_000, seed=5)
        se = math.sqrt(p_true * (1 - p_true) / sampled.n_paths)
        assert abs(sampled.p_hat - p_true) < 4 * se

    @pytest.mark.parametrize(
        "spec, t",
        [(BIG, 12), (ZERO, 12)],
        ids=["m61", "reaches_state_zero"],
    )
    def test_same_decision_as_walk_kernel(self, spec, t):
        """The per-start reference and _lcg_block_worst decide every path
        alike, even for a start exactly on a path's worst gap or one ulp
        either side of it. Both run over all 2^t branch sequences, and a
        start's count from its worst gaps must equal the reference's."""
        sched = Exogenous(1e-2, DEFAULT_LCG_ALPHA)
        worst = _lcg_block_worst(spec, sched, t, _PathBits(2**t), 2**t)
        gaps = np.unique(worst[np.isfinite(worst)])
        phis, on_gap = [], 0
        for w in gaps[:: max(1, gaps.size // 40)]:
            phi = math.exp(w)
            # nudge phi until log(phi) lands on the gap, if one does
            for _ in range(8):
                if math.log(phi) == w:
                    on_gap += 1
                    break
                phi = math.nextafter(phi, math.inf if math.log(phi) < w else 0.0)
            phis += [math.nextafter(phi, 0.0), phi, math.nextafter(phi, math.inf)]
        assert on_gap >= 30
        lphis = [math.log(phi) for phi in phis]
        expect = [int(np.count_nonzero(lphi >= worst)) for lphi in lphis]
        alive = _lcg_alive_reference(spec, sched, t, lphis, _PathBits(2**t), 2**t)
        assert alive.sum(axis=1).tolist() == expect


class _PathBits:
    """Stand-in rng: the branch picks of step s are bit s - 1 of each path
    index, so a block of 2^t paths runs every branch sequence once."""

    def __init__(self, size):
        self.index = np.arange(size)
        self.step = 0

    def integers(self, low, high, size):
        bits = (self.index >> self.step) & 1
        self.step += 1
        return bits


def _lcg_alive_reference(spec, sched, t, lphis, rng, size):
    """Per-start loop: each start keeps its own alive mask from step to
    step, on the chain and branch draws _lcg_block_worst makes, and compares
    in the kernel's float form, lphi >= log xi_s - amps_s. Each ratio is
    Python's int(c) / M61, the rounding the kernel's _ratios must give."""
    states = np.full(size, _C0, dtype=np.uint64)
    amps = np.zeros(size)
    alive = np.ones((len(lphis), size), dtype=bool)
    for s in range(1, t + 1):
        c2, c1 = _lcg_children(states, spec)
        pick = rng.integers(0, 2, size=size).astype(bool)
        states = np.where(pick, c1, c2)
        ratios = np.array([int(c) / M61 for c in states.tolist()])
        with np.errstate(divide="ignore"):
            amps = amps + np.log(ratios)
        for j, lphi in enumerate(lphis):
            alive[j] &= lphi >= sched.log_xi(s) - amps
    return alive


def _lcg_exact(spec, sched, t):
    """Exact survivor count of the depth-t LCG tree from phi0 = 1: the
    per-start reference run over every one of the 2^t branch sequences."""
    return int(_lcg_alive_reference(spec, sched, t, [0.0], _PathBits(2**t), 2**t).sum())


class TestLcgWalkSurvival:
    """Multi-start survival MC over the sampled congruential walk."""

    def test_monotone_in_phi0_with_crn(self):
        """Common random numbers make survival weakly monotone in phi0
        path by path, hence in the estimates."""
        sched = Exogenous(1e-4, DEFAULT_LCG_ALPHA)
        phis = [1.0, 4.0, 16.0]
        res = lcg_walk_survival(BIG, sched, 150, phis, 20_000, seed=2)
        p = [e.p_hat for e in res]
        assert p[0] <= p[1] <= p[2]
        assert 0.0 < p[0]
        assert start_exponent([math.log(v) for v in phis], [math.log(v) for v in p]) > 0.0

    def test_beta_hat_reflects_shallow_slope(self):
        """The uniform-delta walk has beta = mu/sigma^2 = (1/12)/1 plus a
        finite-depth prefactor, far below 1; the fit must land well under
        0.5 and above 0."""
        sched = Exogenous(1e-4, DEFAULT_LCG_ALPHA)
        phis = [1.0, 4.0, 16.0, 64.0]
        res = lcg_walk_survival(BIG, sched, 200, phis, 20_000, seed=2)
        beta_hat = start_exponent(
            [math.log(v) for v in phis],
            [math.log(e.p_hat) if e.p_hat > 0 else -math.inf for e in res],
        )
        assert 0.0 < beta_hat < 0.5

    @pytest.mark.parametrize(
        "spec, sched, t",
        [
            (BIG, Exogenous(1e-4, DEFAULT_LCG_ALPHA), 60),
            # branch 1 from state 1 sends a chain to state 0, where amps =
            # -inf; every other small state costs about 42 in log amplitude,
            # so the barrier sits low enough for the starts to differ
            (ZERO, Exogenous(1e-50, 0.5), 12),
        ],
        ids=["m61", "reaches_state_zero"],
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
        assert [e.n_survivors for e in res] == reference.sum(axis=1).tolist()
        if spec is ZERO:
            assert np.isposinf(worst).sum() > 0

    def test_worker_invariance(self):
        sched = Exogenous(1e-4, DEFAULT_LCG_ALPHA)
        a = lcg_walk_survival(BIG, sched, 80, [1.0, 4.0], 20_000, seed=9, workers=1)
        b = lcg_walk_survival(BIG, sched, 80, [1.0, 4.0], 20_000, seed=9, workers=4)
        assert a == b

    def test_negative_horizon_rejected(self):
        with pytest.raises(OutOfRange):
            lcg_walk_survival(BIG, Exogenous(1e-2, 0.5), -3, [1.0], 100)

    def test_array_starts_equal_list_starts(self):
        """A numpy array of starts gives the list's estimates; its truth
        value is never asked for, and an empty array is refused."""
        sched = Exogenous(1e-4, DEFAULT_LCG_ALPHA)
        listed = lcg_walk_survival(BIG, sched, 40, [1.0, 4.0], 2_000, seed=1)
        assert lcg_walk_survival(BIG, sched, 40, np.array([1.0, 4.0]), 2_000, seed=1) == listed
        with pytest.raises(OutOfRange, match="phi0"):
            lcg_walk_survival(BIG, sched, 40, np.array([]), 2_000)

    def test_no_starts_or_paths_rejected(self):
        with pytest.raises(OutOfRange, match="phi0"):
            lcg_walk_survival(BIG, Exogenous(1e-2, 0.5), 10, [], 100)
        with pytest.raises(OutOfRange, match="n_paths=0"):
            lcg_walk_survival(BIG, Exogenous(1e-2, 0.5), 10, [1.0], 0)

    @pytest.mark.parametrize("bad", [0.0, math.nan, math.inf])
    def test_bad_start_rejected(self, bad):
        """A NaN start once estimated p_hat = 0 and an infinite one 1."""
        with pytest.raises(OutOfRange, match="phi0"):
            lcg_walk_survival(BIG, Exogenous(1e-2, 0.5), 10, [1.0, bad], 100)

    def test_random_barrier_rejected_before_drawing(self, monkeypatch):
        """A noisy schedule raises the tree ops' TypeError with the input
        checks, before any block runs."""

        def no_draws(*args, **kwargs):
            raise AssertionError("blocks ran before the schedule was checked")

        monkeypatch.setattr(walk_module, "map_blocks", no_draws)
        with pytest.raises(TypeError, match="RandomBarrier"):
            lcg_walk_survival(BIG, RandomBarrier(1e-2, 0.3), 5, [1.0], 100)
