"""Deterministic branching driven by a reflected multiplicative congruence.

The two-branch tree whose ratios come from an LCG orbit: from state c the
branch-2 child has state a*c mod p and the branch-1 child the reflection
p - 1 - (a*c mod p); either child's ratio is its new state divided by p.
Ratios are then nearly uniform on (0, 1), the branch pair nearly conserves
total amplitude, and the induced log-ratio walk has E[-log delta] = 1 and
Var[log delta] = 1.

Multipliers are reduced mod p at construction. For the Mersenne modulus
2^61 - 1 the chain update is vectorized in uint64 with carry-free
splitting; every other modulus, 2^31 - 1 included, takes exact Python
integers.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import partial
from typing import Sequence

import numpy as np

from .errors import OutOfRange, TooLarge
from .model import Exogenous
from .tree import _check_exogenous
from .walk import SurvivalEstimate, _start_estimates

M61 = (1 << 61) - 1
M31 = (1 << 31) - 1

#: lcg_tree refuses depths with more than this many paths.
MAX_TREE_PATHS = 2**25

#: Default decay rate for LCG trees: e^{-11/12}. It assumed Var(log delta) =
#: 1/12, which makes drift/variance (1 - 11/12)/(1/12) = 1; the stream's
#: true Var(log delta) is 1 (module docstring), so drift/variance at this
#: alpha is 1/12.
DEFAULT_LCG_ALPHA = math.exp(-11.0 / 12.0)


@dataclass(frozen=True)
class LcgSpec:
    """Prime modulus p, multiplier a (reduced mod p), and start state c0."""

    p: int = M61
    a: int = 6364136223846793005
    c0: int = 1
    a_eff: int = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.p < 3:
            raise OutOfRange(f"modulus p={self.p} too small")
        a_eff = self.a % self.p
        if a_eff in (0, 1):
            raise OutOfRange(f"multiplier {self.a} reduces to {a_eff} mod p")
        if not (0 < self.c0 < self.p):
            raise OutOfRange(f"start state c0={self.c0} outside (0, p)")
        object.__setattr__(self, "a_eff", a_eff)


def lcg_next(c: int, spec: LcgSpec, branch: int) -> int:
    """Next state: branch 2 multiplies, branch 1 reflects the product."""
    if not (0 <= c < spec.p):
        raise OutOfRange(f"state c={c} outside [0, p)")
    base = (spec.a_eff * c) % spec.p
    if branch == 2:
        return base
    if branch == 1:
        return spec.p - 1 - base
    raise OutOfRange(f"branch must be 1 or 2, got {branch}")


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


def lcg_children(c: np.ndarray, spec: LcgSpec) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized child states (branch 2, branch 1) for an array of states."""
    c = np.asarray(c, dtype=np.uint64)
    if spec.p == M61:
        base = _mulmod_m61(spec.a_eff, c)
    else:
        if spec.p.bit_length() > 62:
            raise TooLarge(f"modulus p={spec.p} exceeds the uint64 state width")
        base = _mulmod_python(spec.a_eff, c, spec.p)
    return base, np.uint64(spec.p - 1) - base


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    """Strong-probable-prime test on the first 12 prime bases.

    Deterministic for n < 3.18e23, the smallest strong pseudoprime to all
    of them, which covers every n < 2^64.
    """
    if n < 2 or any(n % q == 0 for q in _SMALL_PRIMES):
        return n in _SMALL_PRIMES
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho_factor(n: int) -> int:
    """A nontrivial factor of a composite n with no prime factor <= 37.

    Pollard's rho with Brent's cycle search; a constant c whose cycle
    closes modulo n itself is replaced by the next one.
    """
    for c in itertools.count(1):
        y, r, g = 2, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
                g = math.gcd(x - y, n)
                if g != 1:
                    break
            r *= 2
        if g != n:
            return g


def _prime_factors(n: int) -> set[int]:
    """Distinct prime factors of n >= 1."""
    found, rest = set(), [n] if n > 1 else []
    while rest:
        m = rest.pop()
        if _is_prime(m):
            found.add(m)
            continue
        f = next((q for q in _SMALL_PRIMES if m % q == 0), None) or _rho_factor(m)
        rest += [f, m // f]
    return found


def lcg_full_period(spec: LcgSpec) -> bool:
    """Whether the multiplicative order of a mod p is exactly p - 1.

    Exact test: factor p - 1 and check a^((p-1)/q) != 1 mod p for every
    prime factor q. Requires p prime (not verified here).
    """
    n = spec.p - 1
    return all(pow(spec.a_eff, n // q, spec.p) != 1 for q in _prime_factors(n))


def lcg_cycle_length(spec: LcgSpec, limit: int = 10**7) -> int | None:
    """Length of the pure branch-2 orbit of c0, or None if it exceeds limit.

    Brute-force walk, meant for small moduli to cross-validate
    lcg_full_period; full-size moduli should use the order test.
    """
    c = lcg_next(spec.c0, spec, 2)
    steps = 1
    while c != spec.c0:
        if steps >= limit:
            return None
        c = (spec.a_eff * c) % spec.p
        steps += 1
    return steps


def lcg_delta_stream(spec: LcgSpec, n: int, seed: int) -> np.ndarray:
    """Ratios along one chain of n transitions with fair random branches.

    Branch choices come from the harness RNG stream (seed, 0), never from
    the LCG itself.
    """
    from .rng import rng_stream

    if n < 1:
        raise OutOfRange(f"need n >= 1 transitions, got {n}")
    branches = rng_stream(seed, 0).integers(1, 3, size=n)
    out = np.empty(n)
    c = spec.c0
    p = spec.p
    a = spec.a_eff
    for i in range(n):
        base = (a * c) % p
        c = base if branches[i] == 2 else p - 1 - base
        out[i] = c / p
    return out


def lcg_tree(
    spec: LcgSpec,
    sched: Exogenous,
    t: int,
    phi0: float = 1.0,
) -> int:
    """Exact survivor count of the depth-t LCG tree over all 2^t paths.

    The exact oracle for lcg_walk_survival, guarded by MAX_TREE_PATHS. A
    path survives while log phi0 >= log xi_s - amps_s, with amps_s its log
    amplitude from phi0 = 1: the comparison _lcg_block_worst makes, in the
    same floats, so both decide every path alike. A schedule other than
    Exogenous raises TypeError.
    """
    sched = _check_exogenous(sched)
    if phi0 <= 0.0:
        raise OutOfRange(f"phi0={phi0} must be positive")
    if t < 0:
        raise OutOfRange(f"t={t} must be >= 0")
    if 2**t > MAX_TREE_PATHS:
        raise TooLarge(f"2^{t} paths exceed MAX_TREE_PATHS={MAX_TREE_PATHS}")
    lphi0 = math.log(phi0)
    states = np.array([spec.c0], dtype=np.uint64)
    amps = np.zeros(1)
    for s in range(1, t + 1):
        if states.size == 0:
            break
        c2, c1 = lcg_children(states, spec)
        children = np.concatenate([c2, c1])
        with np.errstate(divide="ignore"):
            damps = np.log(children.astype(np.float64) / spec.p)
        amps = np.concatenate([amps, amps]) + damps
        keep = lphi0 >= sched.log_xi(s) - amps
        states = children[keep]
        amps = amps[keep]
    return int(states.size)


def _lcg_block_worst(
    spec: LcgSpec, sched: Exogenous, t: int, rng: np.random.Generator, size: int
) -> np.ndarray:
    """Running worst gap max_s (log xi_s - amps_s) of each random-branch chain.

    amps_s is the chain's log amplitude from phi0 = 1, so a start phi0
    survives iff log phi0 >= the worst gap. A chain that reaches state 0
    has amps = -inf and a worst gap of +inf: no start survives it.
    """
    states = np.full(size, spec.c0, dtype=np.uint64)
    amps = np.zeros(size)
    worst = np.full(size, -np.inf)
    for s in range(1, t + 1):
        c2, c1 = lcg_children(states, spec)
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
    if any(p <= 0.0 for p in phi0s):
        raise OutOfRange("phi0 values must be positive")
    if n_paths < 1:
        raise OutOfRange("n_paths must be >= 1")
    if t < 0:
        raise OutOfRange(f"t={t} must be >= 0")
    lphis = [math.log(p) for p in phi0s]
    return _start_estimates(
        partial(_lcg_block_worst, spec, sched, t), lphis, n_paths, seed, workers
    )
