"""Deterministic branching driven by a reflected multiplicative congruence.

The two-branch tree whose ratios come from an LCG orbit: from state c the
branch-2 child has state a*c mod p and the branch-1 child the reflection
p - 1 - (a*c mod p); either child's ratio is its new state divided by p.
Every chain, the delta stream's and each walk path's, starts at state 1.
Ratios are then nearly uniform on (0, 1), the branch pair nearly conserves
total amplitude, and the induced log-ratio walk has E[-log delta] = 1 and
Var[log delta] = 1.

Both branches are affine maps mod p: branch 2 is c -> a c and branch 1 is
c -> -a c - 1. With sigma_i = -1 on branch 1 and +1 on branch 2, S_i the
product of sigma_1..sigma_i, and T_i the sum of S_j a^-j over the branch-1
steps j <= i, the state after i steps is c_i = S_i a^i (c_0 - T_i) mod p.
The delta stream evaluates that closed form _CHUNK transitions at a time,
each chunk starting from the last state of the one before. It and the walk
kernel round each c / p by one rule, _ratios, exactly as Python's int / int
does.

The modulus p is the Mersenne prime M61 = 2^61 - 1, so uint64 states
reduce exactly by carry-free splitting, and every multiplier that reduces
to neither 0 nor 1 is a unit, as the closed form's a^-1 needs. No run
depends on the orbit length, so the module makes no period checks.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Sequence

import numpy as np

from .errors import OutOfRange
from .model import Exogenous
from .rng import rng_stream
from .tree import _check_exogenous, _log_phi0
from .walk import SurvivalEstimate, _start_estimates

M61 = (1 << 61) - 1

#: Start state of every chain: c_0 = 1.
_C0 = 1

#: Transitions per chunk of the delta stream: its temporaries are this long,
#: whatever the stream's length.
_CHUNK = 4096

#: Default decay rate for LCG trees: e^{-11/12}. It assumed Var(log delta) =
#: 1/12, which makes drift/variance (1 - 11/12)/(1/12) = 1; the stream's
#: true Var(log delta) is 1 (module docstring), so drift/variance at this
#: alpha is 1/12.
DEFAULT_LCG_ALPHA = math.exp(-11.0 / 12.0)


@dataclass(frozen=True)
class LcgSpec:
    """Multiplier a, reduced mod M61, where it must be neither 0 nor 1."""

    a: int = 6364136223846793005
    a_eff: int = field(init=False, repr=False)

    def __post_init__(self) -> None:
        a_eff = self.a % M61
        if a_eff in (0, 1):
            raise OutOfRange(f"multiplier a={self.a} reduces to {a_eff} mod 2^61 - 1")
        object.__setattr__(self, "a_eff", a_eff)


def _shl32(v: np.ndarray) -> np.ndarray:
    """(v << 32) mod M61, up to one M61, for v <= 2^61: a rotation, as 2^61 = 1 mod M61."""
    return ((v & np.uint64((1 << 29) - 1)) << np.uint64(32)) + (v >> np.uint64(29))


def _mulmod(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """(x * y) mod M61, elementwise, for uint64 x, y < 2^61, carry-free."""
    mask = np.uint64(M61)
    x_hi = x >> np.uint64(32)  # < 2^29
    x_lo = x & np.uint64(0xFFFFFFFF)
    y_hi = y >> np.uint64(32)
    y_lo = y & np.uint64(0xFFFFFFFF)
    # x*y = (hh << 64) + (mid << 32) + ll with hh < 2^58, mid < 2^62, ll < 2^64
    hh = x_hi * y_hi
    mid = x_hi * y_lo + x_lo * y_hi
    ll = x_lo * y_lo
    # 2^64 = 8 mod M; fold mid to at most 2^61 before it is shifted
    mid = _shl32((mid & mask) + (mid >> np.uint64(61)))
    total = (hh << np.uint64(3)) + mid + (ll & mask) + (ll >> np.uint64(61))
    total = (total & mask) + (total >> np.uint64(61))
    total = (total & mask) + (total >> np.uint64(61))
    return np.where(total >= mask, total - mask, total)


def _cumsum_mod(v: np.ndarray) -> np.ndarray:
    """Prefix sums mod M61 of uint64 v < M61, at most _CHUNK terms.

    Each 32-bit half of the terms sums below 2^44. The high sums, below
    2^41, shift back below M61, so one subtraction reduces the total.
    """
    total = _shl32(np.cumsum(v >> np.uint64(32))) + np.cumsum(v & np.uint64(0xFFFFFFFF))
    return np.where(total >= np.uint64(M61), total - np.uint64(M61), total)


def _powers(a: int, n: int) -> np.ndarray:
    """a^1, ..., a^n mod M61 as uint64, by doubling."""
    pw = np.array([a], dtype=np.uint64)
    while pw.size < n:
        pw = np.concatenate([pw, _mulmod(pw[: n - pw.size], pw[-1])])
    return pw


def _ratios(c: np.ndarray) -> np.ndarray:
    """c / M61 for uint64 states c < M61, rounded as Python's int / int rounds.

    c/p = 2^-61 (c + c/p) with 0 <= c/p < 1, far below half a unit in the
    last place of c, so it rounds as c does except at an exact tie, where it
    rounds up. Below 2^53, c is exact. From 2^53 on, the ties of 2c sit on
    even integers, so 2c + 1 rounds as 2c + 2c/p does.
    """
    twice = (c << np.uint64(1)) + (c >= np.uint64(1 << 53))
    return twice.astype(np.float64) * 2.0**-62


def _lcg_children(c: np.ndarray, spec: LcgSpec) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized child states (branch 2, branch 1) for an array of states."""
    base = _mulmod(np.asarray(c, dtype=np.uint64), np.uint64(spec.a_eff))
    return base, np.uint64(M61 - 1) - base


def lcg_delta_stream(spec: LcgSpec, n: int, seed: int) -> np.ndarray:
    """Ratios along one chain of n transitions with fair random branches.

    Branch choices come from the harness RNG stream (seed, 0), never from
    the LCG itself. The states come from the closed form in the module
    docstring, _CHUNK transitions at a time.
    """
    if n < 1:
        raise OutOfRange(f"need n >= 1 transitions, got {n}")
    branches = rng_stream(seed, 0).integers(1, 3, size=n)
    size = min(n, _CHUNK)
    pw = _powers(spec.a_eff, size)
    inv = _powers(pow(spec.a_eff, -1, M61), size)
    out = np.empty(n)
    p = np.uint64(M61)
    c0 = np.uint64(_C0)
    for k in range(0, n, _CHUNK):
        reflect = branches[k : k + _CHUNK] == 1
        m = reflect.size
        negative = (np.cumsum(reflect) & 1).astype(bool)  # S_i = -1
        terms = np.where(negative, p - inv[:m], inv[:m])
        t = _cumsum_mod(np.where(reflect, terms, np.uint64(0)))
        x = _mulmod(pw[:m], np.where(t > c0, c0 + p - t, c0 - t))
        c = np.where(negative & (x > 0), p - x, x)
        out[k : k + m] = _ratios(c)
        c0 = c[-1]
    return out


def _lcg_block_worst(
    spec: LcgSpec, sched: Exogenous, t: int, rng: np.random.Generator, size: int
) -> np.ndarray:
    """Running worst gap max_s (log xi_s - amps_s) of each random-branch chain.

    amps_s is the chain's log amplitude from phi0 = 1, so a start phi0
    survives iff log phi0 >= the worst gap. A chain that reaches state 0
    has amps = -inf and a worst gap of +inf: no start survives it.
    """
    states = np.full(size, _C0, dtype=np.uint64)
    amps = np.zeros(size)
    worst = np.full(size, -np.inf)
    for s in range(1, t + 1):
        c2, c1 = _lcg_children(states, spec)
        pick = rng.integers(0, 2, size=size).astype(bool)
        states = np.where(pick, c1, c2)
        with np.errstate(divide="ignore"):
            amps = amps + np.log(_ratios(states))
        np.maximum(worst, sched.log_xi(s) - amps, out=worst)
    return worst


def lcg_walk_survival(
    spec: LcgSpec,
    sched: Exogenous,
    t: int,
    phi0s: Sequence[float],
    n_paths: int,
    seed: int = 0,
    workers: int | None = None,
) -> tuple[SurvivalEstimate, ...]:
    """Monte Carlo survival of the LCG log-amplitude walk, one estimate per start.

    All starts share each path's chain and branch choices (common random
    numbers), so survivor sets are nested, as in walk_survival. A schedule
    other than Exogenous raises TypeError before any draw. With no closed
    form, no survivor screen runs.
    """
    sched = _check_exogenous(sched)
    if len(phi0s) == 0:
        raise OutOfRange("need at least one phi0")
    lphis = [_log_phi0(p) for p in phi0s]
    if n_paths < 1:
        raise OutOfRange(f"n_paths={n_paths} must be >= 1")
    if t < 0:
        raise OutOfRange(f"t={t} must be >= 0")
    return _start_estimates(
        partial(_lcg_block_worst, spec, sched, t), lphis, n_paths, seed, workers
    )
