"""Job lists of the three benchmark workloads, generated from a workload seed.

A job is a short tuple of experiment invocations, each a plain dict with the
keys of ``born_branch.cli.ExperimentConfig`` (experiment, parameters, seed).
The parameters of each workload are fixed; the workload seed only picks the
per-job seeds and, for ``tree``, the start grid and epsilon. Generation uses
only the standard library so the job list can be built, and tested, without
importing the package.

Why these three (also recorded in BENCHMARK.json):

- ``tree``: exact counts with the packed big-integer DP (t_max > 64). Big-int
  adds and exact boundary decisions are nearly all of the time and no RNG or
  numpy Monte Carlo runs, so tree gains show here and Monte Carlo changes
  must leave it flat.
- ``mc``: one Monte Carlo study per job (walk, diffusion, measure, lcg), each
  sized so that no experiment is more than half of the job. Blocked Philox
  draws fill it. The second walk config has a short horizon in which most
  paths survive, so alive-only compaction has nothing to skip there.
- ``population``: the self-thresholding population, a few hundred short
  sequential steps on one stream with a log-sum-exp per step. Per-step
  overhead shows only here; block-dispatch changes must leave it flat.
"""
from __future__ import annotations

import math
import random

WORKLOADS = ("tree", "mc", "population")

#: Distinct jobs per run; the closed loop cycles through them.
JOBS_PER_LIST = 6

#: Paths in two full RNG blocks (rng.BLOCK_SIZE = 2**14), so workers=2 has
#: two blocks to share.
TWO_BLOCKS = 2 * (1 << 14)

TREE_DELTAS = [1 / 6, 1 / 3, 1 / 2]
TREE_T_MAX = 80


def _tree_job(rng: random.Random, seed: int) -> list[dict]:
    epsilon = 10.0 ** rng.uniform(-6.5, -5.5)
    base = 2.0 ** rng.uniform(0.0, 1.0)
    return [
        {
            "experiment": "tree",
            "parameters": {
                "deltas": TREE_DELTAS,
                "alpha": None,
                "epsilon": epsilon,
                "t_max": TREE_T_MAX,
                "phis": [base * 2.0**k for k in range(5)],
                "record_points": TREE_T_MAX // 2,
            },
            "seed": seed,
        }
    ]


def _mc_job(rng: random.Random, seed: int) -> list[dict]:
    return [
        {
            # about a quarter of the paths survive, as in the bundled config
            "experiment": "walk",
            "parameters": {
                "mu": 0.15, "sigma": 1.1, "epsilon": math.exp(-2.0),
                "x0s": [0.0, 1.0, 2.0], "t": 40, "n_paths": TWO_BLOCKS,
            },
            "seed": seed,
        },
        {
            # short horizon, far start: most paths survive
            "experiment": "walk",
            "parameters": {
                "mu": 0.15, "sigma": 1.1, "epsilon": math.exp(-6.0),
                "x0s": [0.0, 1.0], "t": 8, "n_paths": TWO_BLOCKS,
            },
            "seed": seed,
        },
        {
            "experiment": "diffusion",
            "parameters": {
                "mu": 1.0, "sigma": 1.0, "mc_d": 1.0, "mc_tau": 1.0, "mc_dt": 0.02,
                "mc_n_paths": TWO_BLOCKS,
            },
            "seed": seed,
        },
        {
            # unequal arms, so the frequencies test the delta weighting;
            # tau * min(delta) = 20 is the pipeline's shortest allowed horizon.
            # The small sigma keeps about 430 of 1200 paths alive (174 and 260
            # expected per arm, at least 50 needed), enough for a 5 SE check to
            # tell 0.4 from 0.5.
            "experiment": "measure",
            "parameters": {
                "deltas": [0.4, 0.6], "sigma": 0.05, "tau": 50.0, "n_paths": 1200,
                "n_boot": 100,
            },
            "seed": seed,
        },
        {
            "experiment": "lcg",
            "parameters": {
                "n_transitions": 50000, "t": 24, "phis": [1.0, 4.0, 16.0, 64.0],
                "n_paths": TWO_BLOCKS,
            },
            "seed": seed,
        },
    ]


def _population_job(rng: random.Random, seed: int) -> list[dict]:
    return [
        {
            "experiment": "endogenous",
            "parameters": {"n_particles": 4000, "tau": 3.0, "dt": 0.01},
            "seed": seed,
        }
    ]


_MAKERS = {"tree": _tree_job, "mc": _mc_job, "population": _population_job}


def make_jobs(workload: str, seed: int) -> list[list[dict]]:
    """The job list of a workload: the same (workload, seed) gives the same list."""
    if workload not in _MAKERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {list(WORKLOADS)}")
    rng = random.Random(f"born-branch-bench/{workload}/{seed}")
    return [_MAKERS[workload](rng, rng.randrange(1 << 31)) for _ in range(JOBS_PER_LIST)]
