"""Exact survivor counting for truncated K-way branching trees.

A tree starts at squared amplitude phi0. Each period t >= 1 every surviving
branch splits into K children with ratios delta_k, and a child whose
amplitude exp's below the period threshold xi_t is removed; a child exactly
at the threshold survives. phi0 itself is never truncated. Because paths
are exchangeable within branch-count compositions, survivor counts N_t are
computed exactly by brute-force enumeration (the oracle) or by dynamic
programming over compositions, with a packed big-integer backend for the
long-horizon K = 3 runs.

Every backend routes amplitude comparisons through one decision function:
a float comparison in log space with a 1e-9 guard band, falling back to
exact rational arithmetic on the float inputs inside the band. Decisions
are therefore bit-identical across backends.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import OutOfRange, StateExplosion, TooLarge
from .model import BranchingSpec, Exogenous
from .stats import fit_power_law

#: Half-width of the float decision band around log phi == log xi.
GUARD_BAND = 1e-9

#: Switch from the composition-dict DP to the packed big-integer DP (K=3).
_PACKED_MIN_T = 64


@dataclass(frozen=True)
class TreeResult:
    """Survivor counts at one depth, one entry per requested phi0."""

    t: int
    counts: tuple[int, ...]
    log_total_paths: float
    log_surviving_fraction: tuple[float, ...]


@dataclass(frozen=True)
class ScanRow:
    """One depth of a Born-ratio scan: pair ratios and the fitted exponent."""

    t: int
    ratios: tuple[float, ...]
    beta_hat: float


def log_bigint(n: int) -> float:
    """Natural log of a nonnegative int, exact beyond float overflow."""
    if n < 0:
        raise OutOfRange("log of a negative count")
    if n == 0:
        return -math.inf
    if n.bit_length() <= 52:
        return math.log(n)
    shift = n.bit_length() - 52
    return math.log(n >> shift) + shift * math.log(2.0)


def _decide(lphi0: float, counts: Sequence[int], lds: Sequence[float], lxi: float) -> bool:
    """Survival decision for one composition; equality survives.

    The float path accumulates left to right, ((lphi0 + c0*ld0) + c1*ld1) +
    ..., exactly the order the vectorized brute force uses. Inside the guard
    band the same linear form is re-evaluated in exact rational arithmetic
    on the float inputs.
    """
    acc = lphi0
    for c, ld in zip(counts, lds):
        acc = acc + c * ld
    diff = acc - lxi
    if diff > GUARD_BAND:
        return True
    if diff < -GUARD_BAND:
        return False
    exact = Fraction(lphi0) - Fraction(lxi)
    for c, ld in zip(counts, lds):
        exact += c * Fraction(ld)
    return exact >= 0


def _sorted_log_deltas(spec: BranchingSpec) -> tuple[float, ...]:
    return tuple(sorted(spec.log_deltas, reverse=True))


def _check_exogenous(sched) -> Exogenous:
    if not isinstance(sched, Exogenous):
        raise TypeError(
            "exact tree counting needs a deterministic Exogenous schedule, "
            f"got {type(sched).__name__}"
        )
    return sched


def _log_phi0(phi0: float) -> float:
    if phi0 <= 0.0:
        raise OutOfRange(f"phi0={phi0} must be positive")
    return math.log(phi0)


def _zero_tail(record: Sequence[int], start: int, out: dict[int, int]) -> None:
    for t in record:
        if t >= start:
            out[t] = 0


def _brute_levels(
    spec: BranchingSpec, sched: Exogenous, t: int, phi0: float, max_paths: int
) -> Iterator[np.ndarray]:
    """Log amplitudes of the surviving paths at each depth 0..t, one array per depth.

    Survivors are tracked as branch-count compositions level by level, so a
    survivor at depth s is structurally the child of a depth s-1 survivor;
    a composition reached by m distinct paths appears m times. Amplitudes
    accumulate left to right, ((lphi0 + c0*ld0) + c1*ld1) + ..., the order
    _decide uses, and guard-band cases fall back to _decide.
    """
    sched = _check_exogenous(sched)
    lphi0 = _log_phi0(phi0)
    k = spec.K
    if k**t > max_paths:
        raise TooLarge(f"K^t = {k}**{t} exceeds max_paths={max_paths}")
    lds = _sorted_log_deltas(spec)
    comps = np.zeros((1, k), dtype=np.int16)
    yield np.array([lphi0])
    for s in range(1, t + 1):
        children = np.repeat(comps, k, axis=0)
        for branch in range(k):
            children[branch::k, branch] += 1
        lxi = sched.log_xi(s)
        acc = np.full(children.shape[0], lphi0)
        for col in range(k):
            acc = acc + children[:, col].astype(np.float64) * lds[col]
        diff = acc - lxi
        keep = diff > GUARD_BAND
        for idx in np.nonzero(np.abs(diff) <= GUARD_BAND)[0]:
            keep[idx] = _decide(lphi0, children[idx], lds, lxi)
        comps = children[keep]
        yield acc[keep]


def enumerate_brute(
    spec: BranchingSpec,
    sched: Exogenous,
    t: int,
    phi0: float,
    max_paths: int = 10**8,
) -> list[TreeResult]:
    """Brute-force oracle: N_s for s = 0..t by enumerating all K^s paths.

    Guarded by max_paths on K^t.
    """
    logk = math.log(spec.K)
    series = []
    for s, amps in enumerate(_brute_levels(spec, sched, t, phi0, max_paths)):
        n = amps.size
        series.append(TreeResult(s, (n,), s * logk, (log_bigint(n) - s * logk,)))
    return series


def brute_leaf_log_amplitudes(
    spec: BranchingSpec,
    sched: Exogenous,
    t: int,
    phi0: float,
    max_paths: int = 10**8,
) -> np.ndarray:
    """Log amplitudes of every surviving depth-t path, in enumeration order.

    With multiplicity: a composition reached by m distinct paths appears m
    times, so exp of the values sums to the surviving squared amplitude.
    """
    return deque(_brute_levels(spec, sched, t, phi0, max_paths), maxlen=1)[0]


def _dict_dp(
    lphi0: float,
    lds: tuple[float, ...],
    sched: Exogenous,
    t_max: int,
    record: Sequence[int],
) -> dict[int, int]:
    """Composition-keyed DP for generic K; exact big-integer counts."""
    k = len(lds)
    states: dict[tuple[int, ...], int] = {(0,) * k: 1}
    out: dict[int, int] = {}
    if 0 in record:
        out[0] = 1
    for s in range(1, t_max + 1):
        lxi = sched.log_xi(s)
        new: dict[tuple[int, ...], int] = {}
        decisions: dict[tuple[int, ...], bool] = {}
        for comp, cnt in states.items():
            for branch in range(k):
                child = comp[:branch] + (comp[branch] + 1,) + comp[branch + 1 :]
                dec = decisions.get(child)
                if dec is None:
                    dec = _decide(lphi0, child, lds, lxi)
                    decisions[child] = dec
                if dec:
                    new[child] = new.get(child, 0) + cnt
        states = new
        if s in record:
            out[s] = sum(states.values())
        if not states:
            _zero_tail(record, s, out)
            break
    return out


def _packed_find_jmin(
    lphi0: float, i: int, jmax: int, lds: tuple[float, float, float], lxi: float, s: int
) -> int:
    """Smallest surviving j for row i at depth s (fields j in 0..jmax).

    Survival is monotone nondecreasing in j because lds is sorted
    descending; a float estimate of the boundary is corrected by scanning
    with the exact decision function.
    """
    la, lb, lc = lds

    def dec(j: int) -> bool:
        return _decide(lphi0, (i, j, s - i - j), lds, lxi)

    if lb == lc:
        return 0 if dec(0) else jmax + 1
    est = (lxi - ((lphi0 + i * la) + (s - i) * lc)) / (lb - lc)
    j = min(jmax + 1, max(0, math.ceil(est) - 2))
    while j <= jmax and not dec(j):
        j += 1
    while j > 0 and dec(j - 1):
        j -= 1
    return j


def _packed_digest(rows: list[int], width: int) -> int:
    """Total survivor count, the sum of every packed field of every row: a
    row is the sum of its fields mod 2^width - 1 (as 2^width = 1 there),
    and the total, at most 3^t, is below 2^width - 1."""
    return sum(rows) % ((1 << width) - 1)


def _packed_dp3(
    lphi0: float,
    lds: tuple[float, float, float],
    sched: Exogenous,
    t_max: int,
    record: Sequence[int],
) -> dict[int, int]:
    """Packed big-integer DP for K = 3.

    Row i holds the counts for compositions with i copies of the largest
    ratio; the j-th fixed-width field of the row is the count with j copies
    of the middle ratio. The whole transition
        count'(i, j) = count(i, j) + count(i, j-1) + count(i-1, j)
    is three big-integer adds per row, and truncation is one mask per row
    because survival is monotone in both i and j.
    """
    # field width: 3^t bounds any count and the 3-way add needs 2 spare bits
    width = int(t_max * math.log2(3.0)) + 3
    rows: list[int] = [1]
    out: dict[int, int] = {}
    if 0 in record:
        out[0] = 1
    for s in range(1, t_max + 1):
        lxi = sched.log_xi(s)
        rows.append(0)
        for i in range(len(rows) - 1, -1, -1):
            row = rows[i] + (rows[i] << width) + (rows[i - 1] if i > 0 else 0)
            if row:
                jmax = s - i
                jmin = _packed_find_jmin(lphi0, i, jmax, lds, lxi, s)
                if jmin > jmax:
                    row = 0
                elif jmin > 0:
                    row &= -(1 << (width * jmin))
            rows[i] = row
        if s in record:
            out[s] = _packed_digest(rows, width)
        if not any(rows):
            _zero_tail(record, s + 1, out)
            break
    return out


def count_survivors_dp(
    spec: BranchingSpec,
    sched: Exogenous,
    t_max: int,
    phi0s: Sequence[float],
    max_states: int = 2_000_000,
    record_ts: Iterable[int] | None = None,
) -> list[TreeResult]:
    """Exact N_t for each phi0, by composition dynamic programming.

    Returns one TreeResult per recorded depth (default: every t in
    0..t_max) with counts aligned to phi0s. The composition count
    C(t_max + K - 1, K - 1) is guarded by max_states.
    """
    sched = _check_exogenous(sched)
    if t_max < 0:
        raise OutOfRange(f"t_max={t_max} must be >= 0")
    if not phi0s:
        raise OutOfRange("need at least one phi0")
    n_states = math.comb(t_max + spec.K - 1, spec.K - 1)
    if n_states > max_states:
        raise StateExplosion(
            f"C(t_max+K-1, K-1) = {n_states} compositions exceeds "
            f"max_states={max_states}"
        )
    if record_ts is None:
        record = list(range(t_max + 1))
    else:
        record = sorted(set(int(t) for t in record_ts))
        if record and (record[0] < 0 or record[-1] > t_max):
            raise OutOfRange("record_ts outside [0, t_max]")
    lds = _sorted_log_deltas(spec)
    packed = spec.K == 3 and t_max > _PACKED_MIN_T
    per_phi: list[dict[int, int]] = []
    for phi0 in phi0s:
        lphi0 = _log_phi0(phi0)
        if packed:
            per_phi.append(_packed_dp3(lphi0, lds, sched, t_max, record))
        else:
            per_phi.append(_dict_dp(lphi0, lds, sched, t_max, record))
    logk = math.log(spec.K)
    series = []
    for t in record:
        counts = tuple(d[t] for d in per_phi)
        fracs = tuple(log_bigint(n) - t * logk for n in counts)
        series.append(TreeResult(t, counts, t * logk, fracs))
    return series


def born_ratio_scan(
    spec: BranchingSpec,
    sched: Exogenous,
    t_max: int,
    phi_pairs: Sequence[tuple[float, float]],
    max_states: int = 2_000_000,
    record_ts: Iterable[int] | None = None,
) -> list[ScanRow]:
    """Survivor-count ratios N_t(phi_a)/N_t(phi_b) and the fitted exponent.

    beta_hat(t) is the OLS slope of log N_t against log phi0 over the grid
    of all start values appearing in phi_pairs (nan while fewer than two
    grid points have survivors). Pair ratios are exact big-integer
    fractions converted to float; a zero denominator yields nan.
    """
    if not phi_pairs:
        raise OutOfRange("need at least one (phi_a, phi_b) pair")
    grid = sorted({float(p) for pair in phi_pairs for p in pair})
    series = count_survivors_dp(
        spec, sched, t_max, grid, max_states=max_states, record_ts=record_ts
    )
    return scan_rows_from_series(series, grid, phi_pairs)


def scan_rows_from_series(
    series: Sequence[TreeResult],
    phis: Sequence[float],
    phi_pairs: Sequence[tuple[float, float]],
) -> list[ScanRow]:
    """Ratios and fitted exponents from an already-computed count series.

    phis must list the start values in the same order as each
    TreeResult.counts; every value in phi_pairs must appear in phis.
    """
    index = {float(p): i for i, p in enumerate(phis)}
    for a, b in phi_pairs:
        if float(a) not in index or float(b) not in index:
            raise OutOfRange(f"pair ({a}, {b}) not covered by the phi grid")
    log_grid = [math.log(p) for p in phis]
    rows = []
    for res in series:
        ratios = []
        for a, b in phi_pairs:
            na = res.counts[index[float(a)]]
            nb = res.counts[index[float(b)]]
            ratios.append(float(Fraction(na, nb)) if nb > 0 else math.nan)
        pts = [(lp, log_bigint(n)) for lp, n in zip(log_grid, res.counts) if n > 0]
        if len({x for x, _ in pts}) >= 2:
            beta_hat = fit_power_law([x for x, _ in pts], [y for _, y in pts]).slope
        else:
            beta_hat = math.nan
        rows.append(ScanRow(res.t, tuple(ratios), beta_hat))
    return rows
