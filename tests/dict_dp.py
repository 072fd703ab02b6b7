"""Composition-keyed survivor-count DP, for use as a test oracle.

One dict entry per surviving branch-count composition, each child decided
separately by born_branch.tree._decide: the exact comparison in integers
over the float inputs' largest power-of-two denominator. The packed DP in
born_branch.tree applies the same rule, but this oracle shares none of its
packing, row layout or one-division row boundaries.
"""

from typing import Sequence

from born_branch.model import Exogenous
from born_branch.tree import _decide


def _zero_tail(record: Sequence[int], start: int, out: dict[int, int]) -> None:
    for t in record:
        if t >= start:
            out[t] = 0


def dict_dp(
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
