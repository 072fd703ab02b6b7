"""Tests for the exact K-ary truncation tree: brute force, dict DP, packed DP."""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from born_branch import (
    BranchingSpec,
    Exogenous,
    OutOfRange,
    RandomBarrier,
    StateExplosion,
    TooLarge,
    alpha_for_unit_beta,
    brute_leaf_log_amplitudes,
    count_survivors_dp,
    enumerate_brute,
    log_bigint,
    rng_stream,
    scan_rows_from_series,
)
from born_branch import tree as tree_module
from born_branch.tree import GUARD_BAND, _decide, _dict_dp, _packed_dp3, _sorted_log_deltas


def random_spec(rng, k):
    """Random simplex point with every coordinate at least 0.05."""
    raw = rng.dirichlet(np.ones(k))
    raw = 0.05 + 0.95 * raw
    return BranchingSpec.renormalized(tuple(raw / raw.sum()))


class TestHandCases:
    """Small trees whose survivor counts can be traced on paper."""

    def test_one_step_reference(self):
        """delta=(1/6,1/3,1/2), phi0=1, xi_1 = 0.2: exactly two children live.

        Child amplitudes are 1/6 < 0.2 <= 1/3, 1/2, so N_1 = 2.
        """
        spec = BranchingSpec((1 / 6, 1 / 3, 1 / 2))
        sched = Exogenous(0.4, 0.5)  # xi_t = 0.4 * 0.5^t -> xi_1 = 0.2
        series = enumerate_brute(spec, sched, 1, 1.0)
        assert series[0].counts == (1,)
        assert series[1].counts == (2,)

    def test_root_untested_children_die(self):
        """The truncation indicator applies from t=1: N_0 = 1 regardless of
        phi0, and children below xi_1 are eliminated.

        phi0 = 0.5 with xi_1 = 0.45: both children carry 0.25 < 0.45.
        """
        spec = BranchingSpec((1 / 2, 1 / 2))
        sched = Exogenous(0.9, 0.5)
        series = enumerate_brute(spec, sched, 3, 0.5)
        assert [r.counts[0] for r in series] == [1, 0, 0, 0]

    def test_no_truncation_counts_all_paths(self):
        """With a threshold below every reachable amplitude, N_t = K^t."""
        spec = BranchingSpec((1 / 6, 1 / 3, 1 / 2))
        sched = Exogenous(1e-30, 0.9)
        series = count_survivors_dp(spec, sched, 8, [1.0])
        assert [r.counts[0] for r in series] == [3**t for t in range(9)]

    def test_leaf_amplitudes_two_steps(self):
        """K=2, t=2 leaves: log amplitudes are the four products delta_i delta_j."""
        spec = BranchingSpec((1 / 4, 3 / 4))
        amps = brute_leaf_log_amplitudes(spec, Exogenous(1e-9, 0.5), 2, 1.0)
        expect = sorted(
            math.log(a * b)
            for a in (1 / 4, 3 / 4)
            for b in (1 / 4, 3 / 4)
        )
        np.testing.assert_allclose(sorted(amps), expect, atol=1e-12)


class TestDecisionBoundary:
    """Survival comparisons: >= semantics with an exact recheck band."""

    def test_exact_tie_survives(self):
        """acc == lxi exactly is a survival, via the rational recheck."""
        assert _decide(0.0, (2,), (-1.0,), -2.0)

    def test_band_cases_match_exact_rational(self):
        """Margins inside the 1e-9 band are settled by Fraction arithmetic."""
        ld = -1.0 / 3.0
        acc = 0.0 + 1 * ld
        assert _decide(0.0, (1,), (ld,), acc - 1e-10)  # exact margin +1e-10
        assert not _decide(0.0, (1,), (ld,), acc + 1e-10)

    def test_outside_band_uses_float_path(self):
        assert _decide(0.0, (1,), (-0.5,), -0.5 - 2 * GUARD_BAND)
        assert not _decide(0.0, (1,), (-0.5,), -0.5 + 2 * GUARD_BAND)

    def test_threshold_bracketing_end_to_end(self):
        """Counts step when the threshold crosses a leaf amplitude.

        At t=3 the smallest surviving amplitude is some leaf value L; with
        xi just below L the leaf survives, just above it dies.
        """
        spec = BranchingSpec((1 / 6, 1 / 3, 1 / 2))
        amps = brute_leaf_log_amplitudes(spec, Exogenous(1e-30, 0.9), 3, 1.0)
        lo = float(np.min(amps))
        alpha = 0.9
        for shift, expect in ((-1e-6, 27), (1e-6, 26)):
            eps = math.exp(lo + shift - 3 * math.log(alpha))
            series = enumerate_brute(spec, Exogenous(eps, alpha), 3, 1.0)
            assert series[-1].counts[0] == expect


class TestDpEqualsBruteForce:
    """The composition DP reproduces exhaustive enumeration exactly."""

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_random_specs_integer_equality(self, k):
        """10 random (spec, eps, alpha, phi0) per K, t <= 9: all counts equal."""
        rng = rng_stream(91, k)
        for _ in range(10):
            spec = random_spec(rng, k)
            alpha = float(rng.uniform(0.2, 0.9))
            eps = float(math.exp(rng.uniform(-9.0, -0.5)))
            phi0 = float(rng.uniform(0.3, 3.0))
            t = int(rng.integers(4, 10))
            sched = Exogenous(eps, alpha)
            brute = enumerate_brute(spec, sched, t, phi0)
            dp = count_survivors_dp(spec, sched, t, [phi0])
            assert [r.counts[0] for r in dp] == [r.counts[0] for r in brute]

    def test_multiple_phi0s_align_with_individual_runs(self):
        spec = BranchingSpec((1 / 6, 1 / 3, 1 / 2))
        sched = Exogenous(1e-4, 0.372041)
        multi = count_survivors_dp(spec, sched, 10, [1.0, 4.0])
        solo_1 = count_survivors_dp(spec, sched, 10, [1.0])
        solo_4 = count_survivors_dp(spec, sched, 10, [4.0])
        for m, a, b in zip(multi, solo_1, solo_4):
            assert m.counts == (a.counts[0], b.counts[0])


class TestPackedBackend:
    """The K=3 packed big-integer DP agrees with the dict DP beyond the
    dispatch depth."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_packed_equals_dict_at_depth_100(self, seed):
        """Both backends on identical inputs at t=100 (packed-only regime)."""
        rng = rng_stream(17, seed)
        spec = random_spec(rng, 3)
        sched = Exogenous(1e-5, float(rng.uniform(0.3, 0.6)))
        lds = _sorted_log_deltas(spec)
        record = [0, 1, 37, 64, 65, 99, 100]
        a = _dict_dp(0.0, lds, sched, 100, record)
        b = _packed_dp3(0.0, lds, sched, 100, record)
        assert a == b

    @pytest.mark.parametrize("t_max", [70, 85, 100])
    def test_total_at_full_tree(self, t_max):
        """A threshold far below every path keeps all 3^t paths, so every
        field is at its largest and the row-sum digest, taken modulo
        2^width - 1, must still return 3^t exactly at every depth."""
        spec = BranchingSpec((1 / 6, 1 / 3, 1 / 2))
        sched = Exogenous(1e-300, 1e-10)
        out = _packed_dp3(0.0, _sorted_log_deltas(spec), sched, t_max, range(t_max + 1))
        assert out == {s: 3**s for s in range(t_max + 1)}

    def test_dispatch_boundary_continuity(self):
        """Counts are identical whether t_max sits at or above the packed
        cutoff; the record at a shared depth must not depend on t_max."""
        spec = BranchingSpec((1 / 6, 1 / 3, 1 / 2))
        sched = Exogenous(1e-4, 0.372041)
        at_cutoff = count_survivors_dp(spec, sched, 64, [1.0])  # dict backend
        above = count_survivors_dp(spec, sched, 70, [1.0], record_ts=range(65))
        assert [r.counts for r in at_cutoff] == [r.counts for r in above]


    def test_threshold_on_first_live_field_defers_to_decide(self, monkeypatch):
        """Dyadic log ratios and threshold make every float sum exact, and
        at each depth s = 4m the threshold -1.25 s equals the value
        -2s + 1.5i + j of field j = 0.75s - 1.5i in every even row i <= s/2:
        the row's first live field, since equality survives. Its margin is
        0, inside the guard band, so the float sums cannot settle the row
        and _decide must; the counts are the dict DP's, and a threshold one
        ulp higher drops the tied fields."""
        lds = (-0.5, -1.0, -2.0)
        sched = Exogenous(1.0, math.exp(-1.25))
        assert sched.log_xi(8) == -10.0
        calls = []
        real = tree_module._decide
        monkeypatch.setattr(
            tree_module, "_decide", lambda *a: calls.append(a[1]) or real(*a)
        )
        t_max = 80
        packed = _packed_dp3(0.0, lds, sched, t_max, range(t_max + 1))
        assert any(c == (0, 6, 2) for c in calls)  # s = 8, row 0, tied field 6
        assert packed == _dict_dp(0.0, lds, sched, t_max, range(t_max + 1))
        higher = Exogenous(1.0, math.nextafter(math.exp(-1.25), 1.0))
        assert _packed_dp3(0.0, lds, higher, t_max, [8])[8] < packed[8]

    def test_row_boundaries_rarely_fall_back_to_decide(self, monkeypatch):
        """The float sums settle all but a few row boundaries: fewer than 1%
        of the rows truncated over five unit-tilt starts to t = 100 call
        _decide (a scan from a float estimate made about 2.25 calls per
        row). A row is truncated at depth s when some surviving depth s - 1
        composition has a child in it."""
        spec = BranchingSpec((1 / 6, 1 / 3, 1 / 2))
        sched = Exogenous(1e-6, alpha_for_unit_beta(spec).alpha)
        lds = _sorted_log_deltas(spec)
        t_max, lphis = 100, [math.log(2.0**k) for k in range(5)]
        rows = 0
        for lphi0 in lphis:
            live = {(0, 0)}  # (i, j) of the surviving compositions
            for s in range(1, t_max + 1):
                lxi = sched.log_xi(s)
                children = {(i + di, j + dj) for i, j in live for di, dj in ((1, 0), (0, 1), (0, 0))}
                rows += len({i for i, _ in children})
                live = {(i, j) for i, j in children if _decide(lphi0, (i, j, s - i - j), lds, lxi)}
        calls = []
        real = tree_module._decide
        monkeypatch.setattr(
            tree_module, "_decide", lambda *a: calls.append(a[1]) or real(*a)
        )
        for lphi0 in lphis:
            _packed_dp3(lphi0, lds, sched, t_max, [t_max])
        assert rows > 10_000
        assert len(calls) < 0.01 * rows


@dataclass(frozen=True)
class TiedThreshold:
    """A threshold within the guard band of one composition per depth: at
    depth s, offset above the float sum _decide forms for (i, j, s - i - j),
    i = round(fi s) and j = round(fj (s - i)). That field is the first live
    one of row i, or the last dead one, by a margin inside the band."""

    lphi0: float
    lds: tuple[float, float, float]
    fi: float
    fj: float
    offset: float

    def log_xi(self, s: int) -> float:
        i = round(self.fi * s)
        j = round(self.fj * (s - i))
        la, lb, lc = self.lds
        return ((self.lphi0 + i * la) + j * lb) + (s - i - j) * lc + self.offset


@st.composite
def packed_cases(draw):
    """A random K = 3 spec (equal middle and smallest ratios included),
    start and depth past the packed cutoff, and either a schedule with
    epsilon and an alpha below the largest ratio or a TiedThreshold."""
    spec = BranchingSpec.renormalized(
        draw(st.lists(st.floats(0.05, 1.0), min_size=3, max_size=3))
    )
    lds = _sorted_log_deltas(spec)
    lphi0 = math.log(draw(st.floats(0.3, 20.0)))
    if draw(st.booleans()):
        alpha = max(spec.deltas) * draw(st.floats(0.3, 0.999))
        sched = Exogenous(math.exp(draw(st.floats(-14.0, -1.0))), alpha)
    else:
        offset = draw(st.sampled_from([0.0]) | st.floats(-GUARD_BAND, GUARD_BAND))
        sched = TiedThreshold(lphi0, lds, draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 1.0)), offset)
    return lds, sched, lphi0, draw(st.integers(65, 120))


class TestPackedProperties:
    """Property test of the packed backend's row boundaries."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(packed_cases())
    @example((_sorted_log_deltas(BranchingSpec((0.5, 0.25, 0.25))), Exogenous(1e-4, 0.45), 0.0, 70))
    def test_packed_equals_dict_dp(self, case):
        lds, sched, lphi0, t = case
        record = range(t + 1)
        assert _packed_dp3(lphi0, lds, sched, t, record) == _dict_dp(lphi0, lds, sched, t, record)


class TestSeriesShape:
    """Record grids, monotonicity, and diagnostics of the count series."""

    def test_default_records_every_depth(self):
        series = count_survivors_dp(
            BranchingSpec((1 / 2, 1 / 2)), Exogenous(1e-3, 0.6), 7, [1.0]
        )
        assert [r.t for r in series] == list(range(8))

    def test_record_subset_is_sorted_and_validated(self):
        spec = BranchingSpec((1 / 2, 1 / 2))
        sched = Exogenous(1e-3, 0.6)
        series = count_survivors_dp(spec, sched, 9, [1.0], record_ts=[9, 0, 4])
        assert [r.t for r in series] == [0, 4, 9]
        with pytest.raises(OutOfRange):
            count_survivors_dp(spec, sched, 9, [1.0], record_ts=[10])

    def test_counts_monotone_in_phi0(self):
        """A larger start amplitude can never lose a surviving path."""
        rng = rng_stream(23, 0)
        for _ in range(5):
            spec = random_spec(rng, 3)
            sched = Exogenous(1e-4, float(rng.uniform(0.3, 0.7)))
            series = count_survivors_dp(spec, sched, 40, [1.0, 2.0, 8.0])
            for r in series:
                assert r.counts[0] <= r.counts[1] <= r.counts[2]

    def test_log_bigint_beyond_float_range(self):
        """Counts past 2^1024 overflow a float but not log_bigint."""
        assert log_bigint(0) == -math.inf
        assert log_bigint(7) == math.log(7)
        assert log_bigint(3**1000) == pytest.approx(1000 * math.log(3), rel=1e-15)
        with pytest.raises(OutOfRange):
            log_bigint(-1)

    def test_state_guard(self):
        """C(3002, 2) = 4504501 compositions exceed MAX_DP_STATES."""
        with pytest.raises(StateExplosion):
            count_survivors_dp(
                BranchingSpec((1 / 6, 1 / 3, 1 / 2)),
                Exogenous(1e-4, 0.372041),
                3000,
                [1.0],
            )

    def test_brute_guard_does_not_form_k_to_the_t(self):
        """3^(10^9) has over 10^9 bits; the guard refuses without it."""
        spec = BranchingSpec((1 / 6, 1 / 3, 1 / 2))
        with pytest.raises(TooLarge):
            enumerate_brute(spec, Exogenous(1e-4, 0.372041), 10**9, 1.0)

    def test_every_start_checked_before_the_dp(self, monkeypatch):
        """A bad start anywhere in phi0s fails before any start's DP runs."""

        def no_dp(*args, **kwargs):
            raise AssertionError("a DP ran before every start was checked")

        monkeypatch.setattr(tree_module, "_dict_dp", no_dp)
        with pytest.raises(OutOfRange, match="phi0=-1.0"):
            count_survivors_dp(
                BranchingSpec((1 / 2, 1 / 2)), Exogenous(0.2, 0.9), 5, [1.0, 2.0, -1.0]
            )

    def test_non_exogenous_schedule_rejected(self):
        """Exact counting needs a deterministic threshold; a noisy one raises."""
        with pytest.raises(TypeError):
            count_survivors_dp(
                BranchingSpec((1 / 2, 1 / 2)), RandomBarrier(0.2, 0.1), 5, [1.0]
            )


class TestRatioScan:
    """Ratios over the first start and fitted exponents over the phi0 grid."""

    def test_ratios_are_exact_fractions_of_counts(self):
        spec = BranchingSpec((1 / 6, 1 / 3, 1 / 2))
        sched = Exogenous(1e-4, 0.372041)
        series = count_survivors_dp(spec, sched, 40, [1.0, 2.0, 4.0])
        rows = scan_rows_from_series(series, [1.0, 2.0, 4.0])
        for row, res in zip(rows, series):
            n1, n2, n4 = res.counts
            if n1 > 0:
                assert row.ratios[0] == pytest.approx(
                    float(Fraction(n2, n1)), rel=1e-15
                )
                assert row.ratios[1] == pytest.approx(
                    float(Fraction(n4, n1)), rel=1e-15
                )
            else:
                assert math.isnan(row.ratios[0])

    def test_two_point_beta_is_log_ratio(self):
        """With a single pair the fit reduces to log(N_a/N_b)/log(phi_a/phi_b)."""
        spec = BranchingSpec((1 / 6, 1 / 3, 1 / 2))
        sched = Exogenous(1e-4, 0.372041)
        series = count_survivors_dp(spec, sched, 60, [1.0, 4.0], record_ts=[60])
        row = scan_rows_from_series(series, [1.0, 4.0])[-1]
        assert row.beta_hat == pytest.approx(
            math.log(row.ratios[0]) / math.log(4.0), rel=1e-12
        )

    def test_scan_rows_from_series_requires_covered_pairs(self):
        """A phi grid of another length than the counts is refused, not
        truncated: [1, 2] against counts for [1, 2, 4] fitted 0.0787 where
        the full grid gives 0.0642."""
        spec = BranchingSpec((1 / 6, 1 / 3, 1 / 2))
        series = count_survivors_dp(spec, Exogenous(1e-4, 0.372041), 30, [1.0, 2.0, 4.0])
        with pytest.raises(OutOfRange):
            scan_rows_from_series(series, [1.0, 2.0])
        with pytest.raises(OutOfRange):
            scan_rows_from_series(series, [1.0, 2.0, 4.0, 8.0])
        assert scan_rows_from_series(series, [1.0, 2.0, 4.0])[-1].beta_hat == pytest.approx(
            0.0642, abs=5e-5
        )

    def test_nan_before_enough_grid_points(self):
        """beta_hat is nan whenever fewer than two grid points have survivors."""
        spec = BranchingSpec((0.05, 0.45, 0.5))
        sched = Exogenous(1e-2, 0.691397)  # infeasible tuning: extinction
        series = count_survivors_dp(spec, sched, 60, [1.0, 4.0], record_ts=[60])
        rows = scan_rows_from_series(series, [1.0, 4.0])
        assert math.isnan(rows[-1].beta_hat)
        assert math.isnan(rows[-1].ratios[0])


class TestExtinctionRegimes:
    """Structural behavior when the threshold outruns every branch."""

    def test_infeasible_alpha_goes_extinct(self):
        """alpha > max delta: every path's amplitude falls behind xi_t."""
        spec = BranchingSpec((0.05, 0.45, 0.5))
        sched = Exogenous(1e-6, 0.691397)
        series = count_survivors_dp(spec, sched, 120, [1.0, 16.0])
        assert series[-1].counts == (0, 0)
        died = [r.t for r in series if r.counts[1] == 0]
        assert died, "expected extinction within 120 steps"

    def test_feasible_alpha_keeps_growing(self):
        spec = BranchingSpec((1 / 6, 1 / 3, 1 / 2))
        sched = Exogenous(1e-6, 0.372041)
        series = count_survivors_dp(spec, sched, 80, [1.0], record_ts=[40, 80])
        assert series[0].counts[0] > 0
        assert series[1].counts[0] > series[0].counts[0]


@st.composite
def brute_cases(draw):
    """A random spec, schedule, start and depth; a third of the cases put the
    threshold exactly on the all-largest-ratio path at every depth."""
    k = draw(st.integers(2, 3))
    weights = draw(st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k))
    spec = BranchingSpec.renormalized(weights)
    phi0 = draw(st.floats(0.3, 3.0))
    if draw(st.integers(0, 2)) == 0:
        sched = Exogenous(phi0, max(spec.deltas))
    else:
        sched = Exogenous(math.exp(draw(st.floats(-9.0, 0.5))), draw(st.floats(0.2, 0.95)))
    return spec, sched, phi0, draw(st.integers(0, 8))


class TestBoundaryProperties:
    """Property tests of the brute-force levels and the decision function."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(brute_cases())
    def test_brute_levels_equal_dict_dp(self, case):
        spec, sched, phi0, t = case
        brute = enumerate_brute(spec, sched, t, phi0)
        dp = count_survivors_dp(spec, sched, t, [phi0])
        assert [r.counts for r in brute] == [r.counts for r in dp]
        amps = brute_leaf_log_amplitudes(spec, sched, t, phi0)
        assert amps.size == brute[-1].counts[0]

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        lphi0=st.floats(-5.0, 5.0),
        terms=st.lists(
            st.tuples(st.integers(0, 30), st.floats(-3.0, -0.01)), min_size=1, max_size=4
        ),
        offset=st.floats(-2 * GUARD_BAND, 2 * GUARD_BAND),
    )
    def test_decide_matches_exact_rational(self, lphi0, terms, offset):
        """Inside and just outside the guard band the decision is the sign of
        the exact rational value of the float inputs' linear form."""
        counts = [c for c, _ in terms]
        lds = [ld for _, ld in terms]
        acc = lphi0
        for c, ld in terms:
            acc = acc + c * ld
        lxi = acc + offset
        exact = Fraction(lphi0) + sum(c * Fraction(ld) for c, ld in terms) - Fraction(lxi)
        assert _decide(lphi0, counts, lds, lxi) == (exact >= 0)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        a=st.integers(-(2**12), 2**12),
        terms=st.lists(
            st.tuples(st.integers(0, 30), st.integers(-(2**12), -1)), min_size=1, max_size=4
        ),
    )
    def test_equality_survives(self, a, terms):
        """Dyadic inputs make the linear form exact in floats: a threshold
        equal to it survives, one ulp above it does not."""
        lphi0 = a / 1024
        counts = [c for c, _ in terms]
        lds = [b / 1024 for _, b in terms]
        lxi = float(Fraction(lphi0) + sum(c * Fraction(ld) for c, ld in zip(counts, lds)))
        assert _decide(lphi0, counts, lds, lxi)
        assert _decide(lphi0, counts, lds, math.nextafter(lxi, -math.inf))
        assert not _decide(lphi0, counts, lds, math.nextafter(lxi, math.inf))
