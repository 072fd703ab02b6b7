"""Tests for the exact K-ary truncation tree: brute force and the packed DP,
checked against each other and against the composition-dict DP oracle."""

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
    TooLarge,
    alpha_for_unit_beta,
    count_survivors_dp,
    enumerate_brute,
    log_bigint,
    rng_stream,
    scan_rows_from_series,
)
from born_branch import tree as tree_module
from born_branch.tree import _decide, _exact_ints, _packed_dp, _row_layout, _sorted_log_deltas
from dict_dp import dict_dp

#: Half-width of the margins the boundary tests draw around log phi == log xi.
BAND = 1e-9


def packed(lphi0, lds, sched, t_max, record):
    """The packed DP of one start, with its row layout."""
    return _packed_dp(lphi0, lds, sched, t_max, record, _row_layout(len(lds), t_max))


def simplex_spec(weights):
    """Spec of the weights rescaled to sum to one."""
    total = math.fsum(weights)
    return BranchingSpec(tuple(w / total for w in weights))


def random_spec(rng, k):
    """Random simplex point with every coordinate at least 0.05."""
    raw = rng.dirichlet(np.ones(k))
    raw = 0.05 + 0.95 * raw
    return simplex_spec(tuple(raw / raw.sum()))


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


class TestDecisionBoundary:
    """Survival comparisons: exact >= semantics on the float inputs."""

    def test_exact_tie_survives(self):
        """acc == lxi exactly is a survival."""
        assert _decide(0.0, (2,), (-1.0,), -2.0)

    def test_band_cases_match_exact_rational(self):
        """Margins of 1e-10, inside BAND, are settled exactly."""
        ld = -1.0 / 3.0
        acc = 0.0 + 1 * ld
        assert _decide(0.0, (1,), (ld,), acc - 1e-10)  # exact margin +1e-10
        assert not _decide(0.0, (1,), (ld,), acc + 1e-10)

    def test_outside_band_margins(self):
        assert _decide(0.0, (1,), (-0.5,), -0.5 - 2 * BAND)
        assert not _decide(0.0, (1,), (-0.5,), -0.5 + 2 * BAND)

    def test_threshold_bracketing_end_to_end(self):
        """Counts step when the threshold crosses a leaf amplitude.

        At t=3 the smallest leaf amplitude is L = 3 log(1/6), three steps of
        the smallest ratio; with xi just below L the leaf survives, just
        above it dies.
        """
        spec = BranchingSpec((1 / 6, 1 / 3, 1 / 2))
        lo = 3 * math.log(1 / 6)
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
    """The packed big-integer DP agrees with the dict DP oracle at every K."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_packed_equals_dict_at_depth_100(self, seed):
        """Both on identical K = 3 inputs at t = 100."""
        rng = rng_stream(17, seed)
        spec = random_spec(rng, 3)
        sched = Exogenous(1e-5, float(rng.uniform(0.3, 0.6)))
        lds = _sorted_log_deltas(spec)
        record = [0, 1, 37, 64, 65, 99, 100]
        assert dict_dp(0.0, lds, sched, 100, record) == packed(0.0, lds, sched, 100, record)

    @pytest.mark.parametrize("k, t_max", [(1, 300), (2, 200), (4, 40), (5, 22)])
    def test_packed_equals_dict_at_every_k(self, k, t_max):
        """Both on identical inputs for the other K, with an alpha just below
        the largest ratio and the largest first child from 0.5 below to 2
        above the first threshold, so truncation sets in from the first
        depth (at K = 1, the one path dies there or never)."""
        rng = rng_stream(19, k)
        spec = random_spec(rng, k) if k > 1 else BranchingSpec((1.0,))
        lds = _sorted_log_deltas(spec)
        for margin in (-0.5, 0.3, 1.0, 2.0):
            alpha = min(max(spec.deltas), 0.99) * float(rng.uniform(0.8, 0.99))
            sched = Exogenous(float(rng.uniform(1e-6, 1e-3)), alpha)
            lphi0 = sched.log_xi(1) - lds[0] + margin
            record = range(t_max + 1)
            assert packed(lphi0, lds, sched, t_max, record) == dict_dp(
                lphi0, lds, sched, t_max, record
            )

    @pytest.mark.parametrize("t_max", [70, 85, 100])
    def test_total_at_full_tree(self, t_max):
        """A threshold far below every path keeps all K^t paths, so every
        field is at its largest and the row-sum digest, taken modulo
        2^width - 1, must still return K^t exactly at every depth. K = 4
        and 5 run to t_max / 2 and t_max / 4, under the state guard."""
        sched = Exogenous(1e-300, 1e-10)
        for k, t in ((1, t_max), (2, t_max), (3, t_max), (4, t_max // 2), (5, t_max // 4)):
            spec = simplex_spec(range(1, k + 1))
            out = packed(0.0, _sorted_log_deltas(spec), sched, t, range(t + 1))
            assert out == {s: k**s for s in range(t + 1)}

    @pytest.mark.parametrize(
        "k, t_short, t_long", [(2, 100, 130), (3, 64, 70), (4, 30, 40), (5, 15, 22)]
    )
    def test_counts_do_not_depend_on_t_max(self, k, t_short, t_long):
        """The field width grows with t_max; the counts at a shared depth
        must not change with it."""
        spec = random_spec(rng_stream(29, k), k)
        sched = Exogenous(1e-4, 0.95 * max(spec.deltas))
        short = count_survivors_dp(spec, sched, t_short, [1.0, 3.0])
        long = count_survivors_dp(spec, sched, t_long, [1.0, 3.0], record_ts=range(t_short + 1))
        assert [r.counts for r in short] == [r.counts for r in long]
        assert short[-1].counts[0] > 0

    def test_threshold_on_first_live_field_defers_to_decide(self):
        """Dyadic log ratios and threshold make every float sum exact. At K =
        3, at each depth s = 4m the threshold -1.25 s equals the value -2s +
        1.5i + j of field j = 0.75s - 1.5i in every even row i <= s/2: the
        row's first live field, since equality survives; at K = 4, with
        the extra ratio -0.25, row (0, i) ties the same way. The counts are
        those _decide gives through the dict DP, and a threshold one ulp
        higher drops the tied fields."""
        sched = Exogenous(1.0, math.exp(-1.25))
        higher = Exogenous(1.0, math.nextafter(math.exp(-1.25), 1.0))
        assert sched.log_xi(8) == -10.0
        for k, t_max in ((3, 80), (4, 40)):
            lds = (-0.25, -0.5, -1.0, -2.0)[4 - k :]
            out = packed(0.0, lds, sched, t_max, range(t_max + 1))
            assert out == dict_dp(0.0, lds, sched, t_max, range(t_max + 1))
            assert packed(0.0, lds, higher, t_max, [8])[8] < out[8]

    @pytest.mark.parametrize("k, t_max", [(2, 120), (3, 60), (4, 30), (5, 18)])
    def test_start_one_ulp_above_one(self, k, t_max):
        """phi0 = 1 + 2^-52 has log one ulp below 2^-52, whose denominator
        is 2^105: far finer than the ratios' and the thresholds', so the
        boundary integers are over 100 bits wide. alpha, the geometric mean
        of the largest and smallest ratios, keeps some paths and truncates
        others."""
        spec = random_spec(rng_stream(37, k), k)
        lds = _sorted_log_deltas(spec)
        lphi0 = math.log(math.nextafter(1.0, 2.0))
        assert Fraction(lphi0).denominator == 2**105
        sched = Exogenous(0.9 * math.exp(lds[0]), math.exp((lds[0] + lds[-1]) / 2))
        record = range(t_max + 1)
        out = packed(lphi0, lds, sched, t_max, record)
        assert out == dict_dp(lphi0, lds, sched, t_max, record)
        assert 0 < out[t_max] < k**t_max


@dataclass(frozen=True)
class TiedThreshold:
    """A threshold at or beside one composition per depth: at depth s, the
    float sum ((lphi0 + c0*ld0) + c1*ld1) + ... for the composition whose
    count of each ratio but the last is round(f * what is left), f from
    fracs in turn, plus offset, then ulps steps of one ulp. That is field j
    of row c, the first live field of the row or its last dead one, by a
    margin of at most BAND."""

    lphi0: float
    lds: tuple[float, ...]
    fracs: tuple[float, ...]  # K - 1 of them
    offset: float
    ulps: int = 0

    def log_xi(self, s: int) -> float:
        acc, rest = self.lphi0, s
        for f, ld in zip(self.fracs, self.lds):
            n = round(f * rest)
            acc = acc + n * ld
            rest -= n
        x = acc + rest * self.lds[-1] + self.offset
        for _ in range(abs(self.ulps)):
            x = math.nextafter(x, math.copysign(math.inf, self.ulps))
        return x


#: Deepest horizon per K of the packed-DP properties, where the dict DP
#: oracle takes up to a few tenths of a second.
PROPERTY_T = {2: 200, 3: 90, 4: 40, 5: 22}


@st.composite
def packed_cases(draw):
    """A random K = 2..5 spec (equal two smallest ratios included), start
    and depth, and either a schedule with epsilon and an alpha below the
    largest ratio or a TiedThreshold."""
    k = draw(st.integers(2, 5))
    weights = draw(st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k))
    if draw(st.booleans()):
        weights[-2:] = [min(weights)] * 2
    spec = simplex_spec(weights)
    lds = _sorted_log_deltas(spec)
    lphi0 = math.log(draw(st.floats(0.3, 20.0)))
    if draw(st.booleans()):
        alpha = max(spec.deltas) * draw(st.floats(0.3, 0.999))
        sched = Exogenous(math.exp(draw(st.floats(-14.0, -1.0))), alpha)
    else:
        offset, ulps = draw(
            st.tuples(st.just(0.0), st.integers(-4, 4))
            | st.tuples(st.floats(-BAND, BAND), st.just(0))
        )
        fracs = tuple(draw(st.lists(st.floats(0.0, 1.0), min_size=k - 1, max_size=k - 1)))
        sched = TiedThreshold(lphi0, lds, fracs, offset, ulps)
    return lds, sched, lphi0, draw(st.integers(PROPERTY_T[k] // 2, PROPERTY_T[k]))


@st.composite
def bench_tree_cases(draw):
    """One start of a benchmark tree job: deltas (1/6, 1/3, 1/2) at the unit
    tilt, epsilon = 10^u for u in [-6.5, -5.5], phi0 = base * 2^k for base
    in [1, 2) and k = 0..4, and t <= 80."""
    spec = BranchingSpec((1 / 6, 1 / 3, 1 / 2))
    eps = 10.0 ** draw(st.floats(-6.5, -5.5))
    phi0 = 2.0 ** draw(st.floats(0.0, 1.0, exclude_max=True)) * 2 ** draw(st.integers(0, 4))
    sched = Exogenous(eps, alpha_for_unit_beta(spec).alpha)
    return spec, sched, phi0, draw(st.integers(0, 80))


class TestPackedProperties:
    """Property tests of the packed DP's row boundaries against the oracle."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(packed_cases())
    @example((_sorted_log_deltas(BranchingSpec((0.5, 0.25, 0.25))), Exogenous(1e-4, 0.45), 0.0, 70))
    @example((_sorted_log_deltas(BranchingSpec((0.5, 0.5))), Exogenous(1e-4, 0.45), 0.0, 70))
    def test_packed_equals_dict_dp(self, case):
        lds, sched, lphi0, t = case
        record = range(t + 1)
        assert packed(lphi0, lds, sched, t, record) == dict_dp(lphi0, lds, sched, t, record)

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(bench_tree_cases())
    def test_bench_tree_inputs_equal_dict_dp(self, case):
        spec, sched, phi0, t = case
        series = count_survivors_dp(spec, sched, t, [phi0])
        oracle = dict_dp(math.log(phi0), _sorted_log_deltas(spec), sched, t, range(t + 1))
        assert [r.counts[0] for r in series] == [oracle[s] for s in range(t + 1)]


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
        with pytest.raises(TooLarge, match="MAX_DP_STATES"):
            count_survivors_dp(
                BranchingSpec((1 / 6, 1 / 3, 1 / 2)),
                Exogenous(1e-4, 0.372041),
                3000,
                [1.0],
            )

    def test_negative_horizon_and_no_starts_refused(self):
        """A negative depth is refused, not met as the depth-0 row or as
        K^-1 in the size guard."""
        spec = BranchingSpec((1 / 2, 1 / 2))
        sched = Exogenous(0.2, 0.9)
        with pytest.raises(OutOfRange, match="t=-1"):
            enumerate_brute(spec, sched, -1, 1.0)
        with pytest.raises(OutOfRange, match="t_max=-1"):
            count_survivors_dp(spec, sched, -1, [1.0])
        with pytest.raises(OutOfRange, match="phi0"):
            count_survivors_dp(spec, sched, 5, [])

    def test_array_starts_equal_list_starts(self):
        """A numpy array of starts gives the list's counts; its truth value
        is never asked for, and an empty array is refused."""
        spec = BranchingSpec((1 / 6, 1 / 3, 1 / 2))
        sched = Exogenous(1e-3, 0.6)
        listed = count_survivors_dp(spec, sched, 12, [1.0, 2.0])
        assert count_survivors_dp(spec, sched, 12, np.array([1.0, 2.0])) == listed
        with pytest.raises(OutOfRange, match="phi0"):
            count_survivors_dp(spec, sched, 12, np.array([]))

    def test_brute_guard_does_not_form_k_to_the_t(self):
        """3^(10^9) has over 10^9 bits; the guard refuses without it."""
        spec = BranchingSpec((1 / 6, 1 / 3, 1 / 2))
        with pytest.raises(TooLarge):
            enumerate_brute(spec, Exogenous(1e-4, 0.372041), 10**9, 1.0)

    def test_every_start_checked_before_the_dp(self, monkeypatch):
        """A bad start anywhere in phi0s fails before any start's DP runs."""

        def no_dp(*args, **kwargs):
            raise AssertionError("a DP ran before every start was checked")

        monkeypatch.setattr(tree_module, "_packed_dp", no_dp)
        with pytest.raises(OutOfRange, match="phi0=-1.0"):
            count_survivors_dp(
                BranchingSpec((1 / 2, 1 / 2)), Exogenous(0.2, 0.9), 5, [1.0, 2.0, -1.0]
            )

    @pytest.mark.parametrize("t_max", [5, 80])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_starts_refused(self, bad, t_max):
        """A NaN or infinite start is refused as OutOfRange at any depth, not
        met as a ValueError or OverflowError from the row boundary, or
        counted as K^t."""
        with pytest.raises(OutOfRange, match="phi0"):
            count_survivors_dp(
                BranchingSpec((1 / 6, 1 / 3, 1 / 2)), Exogenous(1e-6, 0.37), t_max, [1.0, bad]
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
    """A random K = 1..5 spec, schedule, start and depth; for K > 1 a third
    of the cases put the threshold exactly on the all-largest-ratio path at
    every depth."""
    k = draw(st.integers(1, 5))
    weights = draw(st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k))
    spec = simplex_spec(weights)
    phi0 = draw(st.floats(0.3, 3.0))
    if k > 1 and draw(st.integers(0, 2)) == 0:
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

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        lphi0=st.floats(-5.0, 5.0),
        terms=st.lists(
            st.tuples(st.integers(0, 30), st.floats(-3.0, -0.01)), min_size=1, max_size=4
        ),
        offset=st.floats(-2 * BAND, 2 * BAND),
    )
    def test_decide_matches_exact_rational(self, lphi0, terms, offset):
        """At small margins the decision is the sign of the exact rational
        value of the float inputs' linear form."""
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

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        xs=st.lists(
            st.floats(allow_nan=False, allow_infinity=False)
            | st.sampled_from([0.0, -0.0, 5e-324, -5e-324, math.nextafter(2.0**-1022, 0.0)]),
            min_size=1,
            max_size=6,
        )
    )
    def test_exact_ints_are_the_floats_over_one_denominator(self, xs):
        """Every finite float, subnormals and -0.0 included, is its integer
        over the largest power-of-two denominator of the list."""
        ints, den = _exact_ints(xs)
        assert den == max(Fraction(x).denominator for x in xs)
        assert all(Fraction(n, den) == Fraction(x) for n, x in zip(ints, xs))
