"""Exact survivor counting for truncated K-way branching trees.

A tree starts at squared amplitude phi0. Each period t >= 1 every surviving
branch splits into K children with ratios delta_k, and a child whose
amplitude falls below the period threshold xi_t is removed; a child exactly
at the threshold survives. phi0 itself is never truncated. Because paths
are exchangeable within branch-count compositions, survivor counts N_t are
computed exactly by brute-force enumeration (the oracle) or by one packed
big-integer dynamic program over compositions, for every K.

Both decide survival by one exact rule on the float inputs: every finite
float is n / 2^k, so lphi0 + sum_i c_i ld_i >= lxi is an integer comparison
over the inputs' largest power-of-two denominator. Decisions are therefore
identical across the two.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import OutOfRange, StateExplosion, TooLarge
from .model import BranchingSpec, Exogenous, _positive_finite
from .stats import start_exponent

#: Brute force refuses depths with more than this many paths, K^t.
MAX_BRUTE_PATHS = 10**8

#: The DP refuses horizons with more compositions than this, C(t + K - 1, K - 1).
MAX_DP_STATES = 2_000_000


@dataclass(frozen=True)
class TreeResult:
    """Survivor counts at one depth, one entry per requested phi0."""

    t: int
    counts: tuple[int, ...]


@dataclass(frozen=True)
class ScanRow:
    """One depth of a Born-ratio scan: start ratios and the fitted exponent."""

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


def _exact_ints(xs: Sequence[float]) -> tuple[list[int], int]:
    """Finite floats xs as integers over den, the largest of their
    power-of-two denominators: xs[i] == ints[i] / den exactly."""
    ratios = [x.as_integer_ratio() for x in xs]
    den = max(d for _, d in ratios)
    return [n * (den // d) for n, d in ratios], den


def _decide(lphi0: float, counts: Sequence[int], lds: Sequence[float], lxi: float) -> bool:
    """Survival of one composition, lphi0 + sum_i counts[i] * lds[i] >= lxi,
    decided exactly on the float inputs; equality survives."""
    (iphi, ixi, *ilds), _ = _exact_ints([lphi0, lxi, *lds])
    return iphi + sum(c * ld for c, ld in zip(counts, ilds)) >= ixi


def _sorted_log_deltas(spec: BranchingSpec) -> tuple[float, ...]:
    return tuple(sorted(spec.log_deltas, reverse=True))


def _check_exogenous(sched) -> Exogenous:
    if not isinstance(sched, Exogenous):
        raise TypeError(
            "the threshold schedule must be a deterministic Exogenous, "
            f"got {type(sched).__name__}"
        )
    return sched


def _log_phi0(phi0: float) -> float:
    return math.log(_positive_finite("phi0", phi0))


def _check_brute_size(k: int, t: int) -> None:
    """Refuse brute force over K^t > MAX_BRUTE_PATHS paths without forming
    K^t: 2^64 > MAX_BRUTE_PATHS, so K^min(t, 64) exceeds it exactly when
    K^t does, and K = 1 stays 1."""
    if k ** min(t, 64) > MAX_BRUTE_PATHS:
        raise TooLarge(f"K^t = {k}**{t} exceeds MAX_BRUTE_PATHS={MAX_BRUTE_PATHS}")


def enumerate_brute(
    spec: BranchingSpec,
    sched: Exogenous,
    t: int,
    phi0: float,
) -> list[TreeResult]:
    """Brute-force oracle: N_s for s = 0..t by enumerating all K^s paths.

    Each survivor is held as its row in the table of distinct branch-count
    compositions at its depth, so a survivor at depth s is structurally the
    child of a depth s-1 survivor, and a composition reached by m distinct
    paths appears m times. Child b of the p-th survivor is entry pK + b.
    Each distinct composition is decided once, by _decide. Guarded by
    MAX_BRUTE_PATHS on K^t.
    """
    sched = _check_exogenous(sched)
    lphi0 = _log_phi0(phi0)
    k = spec.K
    _check_brute_size(k, t)
    lds = _sorted_log_deltas(spec)
    comps = np.zeros((1, k), dtype=np.int64)  # the distinct compositions
    paths = np.zeros(1, dtype=np.int64)  # each survivor's row of comps
    out = [TreeResult(0, (1,))]
    for s in range(1, t + 1):
        # candidate qK + b is row q plus one step of ratio b; slot[qK + b] is its new row
        cands = (comps[:, None, :] + np.eye(k, dtype=np.int64)).reshape(-1, k)
        comps, slot = np.unique(cands, axis=0, return_inverse=True)
        lxi = sched.log_xi(s)
        live = np.array([_decide(lphi0, c, lds, lxi) for c in comps.tolist()], dtype=bool)
        children = slot.reshape(-1)[(paths[:, None] * k + np.arange(k)).reshape(-1)]
        paths = children[live[children]]
        out.append(TreeResult(s, (paths.size,)))
    return out


def _row_layout(k: int, t_max: int) -> tuple[list, list, list, list, list]:
    """Rows of the packed DP, built once per call and shared by every start.

    Row keys are the counts c of the K - 2 largest ratios, |c| <= t_max,
    ordered by |c|, each level found as the rows c + e_m of the one below
    (K <= 2 has the single row ()). Returns (keys, sizes, first, extra,
    ends): sizes[r] is |c|; first[r] is one predecessor row c - e_m, or
    len(keys), a row that stays 0; extra[r] holds the others (K >= 4);
    ends[s] is the number of rows with |c| <= s.
    """
    m = max(k - 2, 0)
    keys: list[tuple[int, ...]] = [(0,) * m]
    index = {keys[0]: 0}
    preds: list[list[int]] = [[]]
    ends = [1]
    for n in range(1, t_max + 1):
        for r in range(ends[n - 2] if n > 1 else 0, ends[n - 1]):
            c = keys[r]
            for q in range(m):
                child = c[:q] + (c[q] + 1,) + c[q + 1 :]
                i = index.get(child)
                if i is None:
                    i = index[child] = len(keys)
                    keys.append(child)
                    preds.append([])
                preds[i].append(r)
        ends.append(len(keys))
    first = [ps[0] if ps else len(keys) for ps in preds]
    return keys, [sum(c) for c in keys], first, [tuple(ps[1:]) for ps in preds], ends


def _packed_digest(rows: list[int], width: int) -> int:
    """Total survivor count, the sum of every packed field of every row: a
    row is the sum of its fields mod 2^width - 1 (as 2^width = 1 there),
    and the total, at most K^t, is below 2^width - 1."""
    return sum(rows) % ((1 << width) - 1)


def _packed_dp(
    lphi0: float,
    lds: tuple[float, ...],
    sched: Exogenous,
    t_max: int,
    record: Sequence[int],
    layout: tuple[list, list, list, list, list],
) -> dict[int, int]:
    """Packed big-integer DP over compositions, for any K >= 1.

    lds is sorted descending and layout is _row_layout(K, t_max). The j-th
    fixed-width field of row c counts the compositions c + (j, jmax - j):
    j copies of the second-smallest ratio, the smallest taking the rest,
    jmax = s - |c| at depth s. The whole transition
        row'(c) = row(c) + (row(c) << width) + sum_m row(c - e_m)
    is a few big-integer adds per row, and truncation is one mask per row
    because survival is monotone in j. K = 1 has one path and one field.

    Survival is _decide's exact rule in integers: lphi0 and lds over their
    common denominator den, and lxi * den rounded up, which cannot change
    a comparison with an integer. Field j of row c at depth s is then worth
    base(c) + s * lc + j * gap, where base(c) = lphi0 + sum_m c_m (ld_m -
    lc), lc is the smallest ratio and gap the second-smallest less lc, so
    a row's first live field is one integer division.
    """
    keys, sizes, first, extra, ends = layout
    k = len(lds)
    (iphi, *ilds), den = _exact_ints([lphi0, *lds])
    lc = ilds[-1]
    gap = ilds[-2] - lc if k > 1 else 0  # 0: ratios tied, field 0 decides the row
    bases = [iphi + sum(n * (ld - lc) for n, ld in zip(c, ilds)) for c in keys]
    # field width: K^t bounds any count, with spare bits for the K-way add
    width = int(t_max * math.log2(k)) + 3
    rows = [1] + [0] * len(keys)
    out: dict[int, int] = {0: 1} if 0 in record else {}
    for s in range(1, t_max + 1):
        n, d = sched.log_xi(s).as_integer_ratio()
        bar = -(-n * den // d) - s * lc  # field j lives iff base + j * gap >= bar
        if k == 1:  # one path, one field, nothing to shift in
            rows[0] = int(rows[0] and bases[0] >= bar)
        for r in range(ends[s] - 1 if k > 1 else -1, -1, -1):
            row = rows[r]
            row += (row << width) + rows[first[r]]
            if k > 3:
                for p in extra[r]:
                    row += rows[p]
            if row and bases[r] < bar:
                # clear the fields below the first live one (all of them at
                # jmax + 1), touching the fewer bits
                jmax = s - sizes[r]
                jmin = min(-((bases[r] - bar) // gap), jmax + 1) if gap else jmax + 1
                sh = width * jmin
                row = row >> sh << sh if 2 * sh > row.bit_length() else row & -(1 << sh)
            rows[r] = row
        if s in record:
            out[s] = _packed_digest(rows[: ends[s]], width)
        if not any(rows):
            out.update((t, 0) for t in record if t > s)
            break
    return out


def count_survivors_dp(
    spec: BranchingSpec,
    sched: Exogenous,
    t_max: int,
    phi0s: Sequence[float],
    record_ts: Iterable[int] | None = None,
) -> list[TreeResult]:
    """Exact N_t for each phi0, by the packed composition DP (_packed_dp).

    Returns one TreeResult per recorded depth (default: every t in
    0..t_max) with counts aligned to phi0s. The composition count
    C(t_max + K - 1, K - 1) is guarded by MAX_DP_STATES. Every start is
    checked before any DP runs, and the row layout is built once for all.
    """
    sched = _check_exogenous(sched)
    if t_max < 0:
        raise OutOfRange(f"t_max={t_max} must be >= 0")
    if not phi0s:
        raise OutOfRange("need at least one phi0")
    n_states = math.comb(t_max + spec.K - 1, spec.K - 1)
    if n_states > MAX_DP_STATES:
        raise StateExplosion(
            f"C(t_max+K-1, K-1) = {n_states} compositions exceeds "
            f"MAX_DP_STATES={MAX_DP_STATES}"
        )
    if record_ts is None:
        record = list(range(t_max + 1))
    else:
        record = sorted(set(int(t) for t in record_ts))
        if record and (record[0] < 0 or record[-1] > t_max):
            raise OutOfRange("record_ts outside [0, t_max]")
    lds = _sorted_log_deltas(spec)
    lphis = [_log_phi0(phi0) for phi0 in phi0s]
    layout = _row_layout(spec.K, t_max)
    per_phi = [_packed_dp(lphi0, lds, sched, t_max, record, layout) for lphi0 in lphis]
    return [TreeResult(t, tuple(d[t] for d in per_phi)) for t in record]


def scan_rows_from_series(
    series: Sequence[TreeResult], phis: Sequence[float]
) -> list[ScanRow]:
    """Survivor-count ratios over the first start and the fitted exponent.

    phis lists the start values in the order of each TreeResult.counts; a
    grid of another length raises OutOfRange. Ratio i - 1 is
    N_t(phis[i])/N_t(phis[0]), the exact big-integer ratio correctly
    rounded to float by int true division, or nan while the first start has
    no survivors. beta_hat(t) is start_exponent of log N_t against log phi0
    (nan while fewer than two starts have survivors).
    """
    log_grid = [math.log(p) for p in phis]
    rows = []
    for res in series:
        beta_hat = start_exponent(log_grid, [log_bigint(n) for n in res.counts])
        n0 = res.counts[0]
        ratios = tuple(n / n0 if n0 > 0 else math.nan for n in res.counts[1:])
        rows.append(ScanRow(res.t, ratios, beta_hat))
    return rows
