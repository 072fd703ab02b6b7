"""Reproducible keyed random streams and block-deterministic dispatch.

Every stochastic op in the package draws from SFC64 streams keyed by
(seed, stream_id), and this module builds every bit generator the package
uses. Monte Carlo work is pre-partitioned into fixed-size blocks, one
stream per block, and reduced in block order, so results are bit-identical
for any worker count.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Callable, TypeVar

import numpy as np

from .errors import OutOfRange

_MASK64 = (1 << 64) - 1

#: Paths per RNG block. Fixed so that partitioning, and therefore every
#: drawn number, is independent of the worker count.
BLOCK_SIZE = 1 << 14

#: The bit generator behind every stream, named in each run's results.json.
BIT_GENERATOR = np.random.SFC64

T = TypeVar("T")


def rng_stream(seed: int, stream_id: int) -> np.random.Generator:
    """Return an independent, platform-stable generator for (seed, stream_id).

    The stream is SFC64 seeded by SeedSequence(seed mod 2^64) with the
    spawn key (stream_id mod 2^64,), numpy's way of deriving independent
    child streams. Both are taken mod 2^64 as whole words, so distinct
    pairs give distinct keys; the same pair always reproduces the same
    sequence. A seed or stream_id that is not an integer (bool included)
    raises OutOfRange.
    """
    for name, value in (("seed", seed), ("stream_id", stream_id)):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise OutOfRange(f"{name}={value!r} must be an integer")
    seq = np.random.SeedSequence(int(seed) & _MASK64, spawn_key=(int(stream_id) & _MASK64,))
    return np.random.Generator(BIT_GENERATOR(seq))


def block_sizes(n: int) -> list[int]:
    """Split n items into BLOCK_SIZE blocks; only the last block is short."""
    if n < 0:
        raise OutOfRange(f"negative item count {n}")
    full, rem = divmod(n, BLOCK_SIZE)
    return [BLOCK_SIZE] * full + ([rem] if rem else [])


def map_blocks(
    fn: Callable[[int, np.random.Generator, int], T],
    n_items: int,
    seed: int,
    workers: int | None = None,
) -> list[T]:
    """Run fn(block_index, rng, block_size) over fixed blocks of n_items.

    Block i draws from rng_stream(seed, i). Results come back in block
    order whatever the worker count, so any associative reduction over them
    is deterministic. workers None means 1.
    """
    sizes = block_sizes(n_items)
    workers = 1 if workers is None else workers
    if workers < 1:
        raise OutOfRange(f"worker count must be >= 1, got {workers}")

    def run(i: int) -> T:
        return fn(i, rng_stream(seed, i), sizes[i])

    if workers == 1 or len(sizes) <= 1:
        return [run(i) for i in range(len(sizes))]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(run, range(len(sizes))))

