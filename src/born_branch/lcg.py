"""Deterministic branching driven by a reflected multiplicative congruence.

The two-branch tree whose ratios come from an LCG orbit: from state c the
branch-2 child has state a*c mod p and the branch-1 child the reflection
p - 1 - (a*c mod p); either child's ratio is its new state divided by p.
Every chain, the delta stream's and each walk path's, starts at state 1.
Ratios are then nearly uniform on (0, 1), the branch pair nearly conserves
total amplitude, and the induced log-ratio walk has E[-log delta] = 1 and
Var[log delta] = 1.

Multipliers are reduced mod p at construction. _lcg_children, the walk's
private child map, holds states in uint64, so p must fit 62 bits there:
for the Mersenne modulus 2^61 - 1 it multiplies with carry-free splitting,
and every other modulus, 2^31 - 1 included, takes exact Python integers.
The scalar delta stream takes Python integers at any width. No run depends
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

#: Start state of every chain: c_0 = 1, a unit of the field for every p.
_C0 = 1

#: Default decay rate for LCG trees: e^{-11/12}. It assumed Var(log delta) =
#: 1/12, which makes drift/variance (1 - 11/12)/(1/12) = 1; the stream's
#: true Var(log delta) is 1 (module docstring), so drift/variance at this
#: alpha is 1/12.
DEFAULT_LCG_ALPHA = math.exp(-11.0 / 12.0)


@dataclass(frozen=True)
class LcgSpec:
    """Prime modulus p and multiplier a, reduced mod p; every chain starts at _C0."""

    p: int = M61
    a: int = 6364136223846793005
    a_eff: int = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.p < 3:
            raise OutOfRange(f"modulus p={self.p} too small")
        a_eff = self.a % self.p
        if a_eff in (0, 1):
            raise OutOfRange(f"multiplier {self.a} reduces to {a_eff} mod p")
        object.__setattr__(self, "a_eff", a_eff)


def _mulmod_m61(a: int, c: np.ndarray) -> np.ndarray:
    """(a * c) mod 2^61-1 for uint64 c < 2^61, scalar a < 2^61, carry-free."""
    mask = np.uint64(M61)
    a_hi = np.uint64(a >> 32)  # < 2^29
    a_lo = np.uint64(a & 0xFFFFFFFF)
    c_hi = c >> np.uint64(32)
    c_lo = c & np.uint64(0xFFFFFFFF)
    # a*c = hh*2^64 + mid*2^32 + ll with hh < 2^58, mid < 2^62, ll < 2^64
    hh = a_hi * c_hi
    mid = a_hi * c_lo + a_lo * c_hi
    ll = a_lo * c_lo
    # 2^64 = 8 mod M, and mid*2^32: fold mid below 2^61, then rotate by 32
    mid = (mid & mask) + (mid >> np.uint64(61))
    mid = ((mid & np.uint64((1 << 29) - 1)) << np.uint64(32)) + (mid >> np.uint64(29))
    total = (hh << np.uint64(3)) + mid + (ll & mask) + (ll >> np.uint64(61))
    total = (total & mask) + (total >> np.uint64(61))
    total = (total & mask) + (total >> np.uint64(61))
    return np.where(total >= mask, total - mask, total)


def _mulmod_python(a: int, c: np.ndarray, p: int) -> np.ndarray:
    return np.array([(a * int(v)) % p for v in c], dtype=np.uint64)


def _lcg_children(c: np.ndarray, spec: LcgSpec) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized child states (branch 2, branch 1) for an array of states."""
    c = np.asarray(c, dtype=np.uint64)
    if spec.p == M61:
        base = _mulmod_m61(spec.a_eff, c)
    else:
        if spec.p.bit_length() > 62:
            raise TooLarge(f"modulus p={spec.p} exceeds the uint64 state width")
        base = _mulmod_python(spec.a_eff, c, spec.p)
    return base, np.uint64(spec.p - 1) - base


def lcg_delta_stream(spec: LcgSpec, n: int, seed: int) -> np.ndarray:
    """Ratios along one chain of n transitions with fair random branches.

    Branch choices come from the harness RNG stream (seed, 0), never from
    the LCG itself.
    """
    if n < 1:
        raise OutOfRange(f"need n >= 1 transitions, got {n}")
    branches = rng_stream(seed, 0).integers(1, 3, size=n)
    out = np.empty(n)
    c = _C0
    p = spec.p
    a = spec.a_eff
    for i in range(n):
        base = (a * c) % p
        c = base if branches[i] == 2 else p - 1 - base
        out[i] = c / p
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
            amps = amps + np.log(states.astype(np.float64) / spec.p)
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
    if not phi0s:
        raise OutOfRange("need at least one phi0")
    lphis = [_log_phi0(p) for p in phi0s]
    if n_paths < 1:
        raise OutOfRange("n_paths must be >= 1")
    if t < 0:
        raise OutOfRange(f"t={t} must be >= 0")
    return _start_estimates(
        partial(_lcg_block_worst, spec, sched, t), lphis, n_paths, seed, workers
    )
