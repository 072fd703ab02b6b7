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

States are held in uint64, so the supported moduli are those whose
products one multiplication can reduce exactly: every p below 2^32, where
the uint64 product is exact, and the Mersenne prime 2^61 - 1, reduced with
carry-free splitting. LcgSpec refuses any other modulus as TooLarge, and a
multiplier that is not a unit mod p (the closed form needs a^-1) as
OutOfRange. Multipliers are reduced mod p at construction. No run depends
on the orbit length, so the module makes no primality or period checks.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Sequence

import numpy as np

from .errors import OutOfRange, TooLarge
from .model import Exogenous
from .rng import rng_stream
from .tree import _check_exogenous, _log_phi0
from .walk import SurvivalEstimate, _start_estimates

M61 = (1 << 61) - 1

#: Start state of every chain: c_0 = 1, a unit mod every p.
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
    """Modulus p and multiplier a, reduced mod p; every chain starts at _C0.

    p is below 2^32 or equal to 2^61 - 1, and a is a unit mod p other than 1.
    """

    p: int = M61
    a: int = 6364136223846793005
    a_eff: int = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.p < 3:
            raise OutOfRange(f"modulus p={self.p} too small")
        if self.p >= 1 << 32 and self.p != M61:
            raise TooLarge(f"modulus p={self.p} is neither below 2^32 nor 2^61 - 1")
        a_eff = self.a % self.p
        if a_eff in (0, 1):
            raise OutOfRange(f"multiplier {self.a} reduces to {a_eff} mod p")
        if math.gcd(a_eff, self.p) != 1:
            raise OutOfRange(f"multiplier {self.a} is not a unit mod p={self.p}")
        object.__setattr__(self, "a_eff", a_eff)


def _mulmod_m61(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """(x * y) mod 2^61-1, elementwise, for uint64 x, y < 2^61, carry-free."""
    mask = np.uint64(M61)
    x_hi = x >> np.uint64(32)  # < 2^29
    x_lo = x & np.uint64(0xFFFFFFFF)
    y_hi = y >> np.uint64(32)
    y_lo = y & np.uint64(0xFFFFFFFF)
    # x*y = hh*2^64 + mid*2^32 + ll with hh < 2^58, mid < 2^62, ll < 2^64
    hh = x_hi * y_hi
    mid = x_hi * y_lo + x_lo * y_hi
    ll = x_lo * y_lo
    # 2^64 = 8 mod M, and mid*2^32: fold mid below 2^61, then rotate by 32
    mid = (mid & mask) + (mid >> np.uint64(61))
    mid = ((mid & np.uint64((1 << 29) - 1)) << np.uint64(32)) + (mid >> np.uint64(29))
    total = (hh << np.uint64(3)) + mid + (ll & mask) + (ll >> np.uint64(61))
    total = (total & mask) + (total >> np.uint64(61))
    total = (total & mask) + (total >> np.uint64(61))
    return np.where(total >= mask, total - mask, total)


def _mulmod(x: np.ndarray, y: np.ndarray, p: int) -> np.ndarray:
    """(x * y) mod p, elementwise, for uint64 x, y < p and a modulus LcgSpec accepts."""
    if p == M61:
        return _mulmod_m61(x, y)
    return x * y % np.uint64(p)  # x, y < 2^32: the product is exact in uint64


def _cumsum_mod(v: np.ndarray, p: int) -> np.ndarray:
    """Prefix sums mod p of uint64 v < p, at most _CHUNK terms.

    Below 2^32 the plain sums stay below 2^44. For 2^61 - 1 each 32-bit
    half of the terms sums below 2^44, and the high sum is shifted back by
    a multiplication with 2^32.
    """
    if p != M61:
        return np.cumsum(v) % np.uint64(p)  # v < 2^32
    hi = _mulmod_m61(np.cumsum(v >> np.uint64(32)), np.uint64(1 << 32))
    total = hi + np.cumsum(v & np.uint64(0xFFFFFFFF))
    return np.where(total >= np.uint64(M61), total - np.uint64(M61), total)


def _powers(a: int, n: int, p: int) -> np.ndarray:
    """a^1, ..., a^n mod p as uint64, by doubling."""
    pw = np.array([a], dtype=np.uint64)
    while pw.size < n:
        pw = np.concatenate([pw, _mulmod(pw[: n - pw.size], pw[-1], p)])
    return pw


def _ratios(c: np.ndarray, p: int) -> np.ndarray:
    """c / p for uint64 states c < p, rounded as Python's int / int rounds.

    Below 2^32 both operands are exact floats and the float division rounds
    correctly. For 2^61 - 1, c/p = 2^-61 (c + c/p) with 0 <= c/p < 1, far
    below half a unit in the last place of c, so it rounds as c does except
    at an exact tie, where it rounds up. Below 2^53, c is exact. From 2^53
    on, the ties of 2c sit on even integers, so 2c + 1 rounds as
    2c + 2c/p does.
    """
    if p != M61:
        return c.astype(np.float64) / p
    twice = (c << np.uint64(1)) + (c >= np.uint64(1 << 53))
    return twice.astype(np.float64) * 2.0**-62


def _lcg_children(c: np.ndarray, spec: LcgSpec) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized child states (branch 2, branch 1) for an array of states."""
    base = _mulmod(np.asarray(c, dtype=np.uint64), np.uint64(spec.a_eff), spec.p)
    return base, np.uint64(spec.p - 1) - base


def lcg_delta_stream(spec: LcgSpec, n: int, seed: int) -> np.ndarray:
    """Ratios along one chain of n transitions with fair random branches.

    Branch choices come from the harness RNG stream (seed, 0), never from
    the LCG itself. The states come from the closed form in the module
    docstring, _CHUNK transitions at a time.
    """
    if n < 1:
        raise OutOfRange(f"need n >= 1 transitions, got {n}")
    branches = rng_stream(seed, 0).integers(1, 3, size=n)
    p = spec.p
    size = min(n, _CHUNK)
    pw = _powers(spec.a_eff, size, p)
    inv = _powers(pow(spec.a_eff, -1, p), size, p)
    out = np.empty(n)
    c0 = np.uint64(_C0)
    for k in range(0, n, _CHUNK):
        reflect = branches[k : k + _CHUNK] == 1
        m = reflect.size
        negative = (np.cumsum(reflect) & 1).astype(bool)  # S_i = -1
        terms = np.where(negative, np.uint64(p) - inv[:m], inv[:m])
        t = _cumsum_mod(np.where(reflect, terms, np.uint64(0)), p)
        x = _mulmod(pw[:m], np.where(t > c0, c0 + np.uint64(p) - t, c0 - t), p)
        c = np.where(negative & (x > 0), np.uint64(p) - x, x)
        out[k : k + m] = _ratios(c, p)
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
            amps = amps + np.log(_ratios(states, spec.p))
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
    other than Exogenous raises TypeError before any draw.
    """
    sched = _check_exogenous(sched)
    if len(phi0s) == 0:
        raise OutOfRange("need at least one phi0")
    lphis = [_log_phi0(p) for p in phi0s]
    if n_paths < 1:
        raise OutOfRange("n_paths must be >= 1")
    if t < 0:
        raise OutOfRange(f"t={t} must be >= 0")
    return _start_estimates(
        partial(_lcg_block_worst, spec, sched, t), lphis, n_paths, seed, workers
    )
