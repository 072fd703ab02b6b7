"""Spans around calls into the package's public functions, recorded from outside.

``Tracer.install`` rebinds each traced function at every place it is bound in
a loaded ``born_branch`` module (so calls through ``cli.diff.*``, names
imported with ``from .x import y`` and calls within a module are all seen),
plus the experiment runners in ``cli.EXPERIMENTS``. The callable passed to
``rng.map_blocks`` is wrapped too, so every RNG block gets its own span,
on whichever thread runs it. ``Tracer.uninstall`` restores every binding.

Spans stay in memory; the benchmark writes them out when it ends.
"""
from __future__ import annotations

import functools
import inspect
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    job: str
    thread: int
    counts: dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _n_steps(tau: float, dt: float) -> int:
    # diffusion._resolve_steps: the step count batch_survive runs
    return max(1, int(round(tau / dt)))


# Counters of each traced function, from its bound arguments and its result.
# Names without a counter function only get spans.
Counter = Callable[[dict[str, Any], Any], dict[str, float]]
TRACED: dict[str, Counter | None] = {
    "cli.run": None,
    "tree.count_survivors_dp": lambda a, r: {"depth_steps": a["t_max"] * len(a["phi0s"])},
    "tree.scan_rows_from_series": None,
    "walk.estimate_survival": lambda a, r: {
        "path_steps": a["n_paths"] * a["t"], "paths": a["n_paths"], "alive": r.n_survivors,
    },
    "walk.survival_ratio": lambda a, r: {"path_steps": a["n_paths"] * a["t"]},
    "diffusion.batch_survive": lambda a, r: {
        "path_steps": a["size"] * _n_steps(a["tau"], a["dt"]),
        "paths": a["size"],
        "alive": int(r[0].sum()),
    },
    "diffusion.ratio_convergence_scan": None,
    "diffusion.log_survival_closed_form": None,
    "measure.measurement_pipeline": lambda a, r: {"paths": a["n_paths"], "alive": r.n_survivors},
    "measure.outcome_weights": None,
    "lcg.lcg_delta_stream": lambda a, r: {"transitions": a["n"]},
    "lcg.lcg_walk_survival": lambda a, r: {"path_steps": a["n_paths"] * a["t"]},
    "population.endogenous_population": lambda a, r: {
        "particle_steps": a["n_particles"] * len(r.times), "clones": r.resample_count,
    },
    "stats.fit_power_law": None,
    "stats.bootstrap_ci": None,
    "stats.ks_distance": None,
    "rng.map_blocks": lambda a, r: {"blocks": len(r), "workers": a["workers"] or 1},
}

#: Span name of one experiment runner (cli._run_tree and the like).
RUNNER = "cli.runner"
#: Span name of one RNG block inside map_blocks.
BLOCK = "rng.block"


class Tracer:
    """Collects spans while installed; ``job`` labels the spans of the current job."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.job = ""
        self.found: set[str] = set()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: list[tuple[Any, str, Any]] = []
        self._runners: dict[str, tuple] = {}

    # ------------------------------------------------------------ spans

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, parent: int | None = None) -> tuple[int, Span]:
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        span = Span(name, time.perf_counter(), 0.0, parent, self.job, threading.get_ident())
        with self._lock:  # block spans open on several threads at once
            self.spans.append(span)
            index = len(self.spans) - 1
        stack.append(index)
        return index, span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()

    def _wrap(self, name: str, fn: Callable) -> Callable:
        counter = TRACED.get(name)
        sig = inspect.signature(fn) if counter is not None else None
        is_map_blocks = name == "rng.map_blocks"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index, span = self._open(name)
            try:
                if is_map_blocks:
                    args, kwargs = self._wrap_block_fn(index, args, kwargs)
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if counter is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                span.counts = counter(bound.arguments, result)
            return result

        return wrapper

    def _wrap_block_fn(self, parent: int, args: tuple, kwargs: dict):
        fn = args[0] if args else kwargs.pop("fn")

        def block(i, rng, size):
            _, span = self._open(BLOCK, parent)
            try:
                return fn(i, rng, size)
            finally:
                self._close(span)

        return (block,) + tuple(args[1:]), kwargs

    # ------------------------------------------------------------ binding

    def install(self) -> None:
        """Rebind every traced function wherever a born_branch module binds it."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "born_branch" or n.startswith("born_branch."))]
        for name in TRACED:
            mod_name, attr = name.split(".")
            home = sys.modules.get(f"born_branch.{mod_name}")
            orig = getattr(home, attr, None)
            if orig is None:
                continue
            self.found.add(name)
            wrapped = self._wrap(name, orig)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._restore.append((mod, key, orig))
                        setattr(mod, key, wrapped)
        cli = sys.modules.get("born_branch.cli")
        experiments = getattr(cli, "EXPERIMENTS", {})
        self._runners = dict(experiments)
        for key, (params, runner) in self._runners.items():
            experiments[key] = (params, self._wrap(RUNNER, runner))
        if experiments:
            self.found.add(RUNNER)

    def uninstall(self) -> None:
        for mod, key, orig in reversed(self._restore):
            setattr(mod, key, orig)
        self._restore.clear()
        cli = sys.modules.get("born_branch.cli")
        if cli is not None:
            cli.EXPERIMENTS.update(self._runners)
        self._runners = {}


# ---------------------------------------------------------------- analysis


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover.

    Children running in parallel on worker threads may overlap each other;
    the union is subtracted, never more than the span itself.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return [
        s.duration - covered(children.get(i, []), s.start, s.end)
        for i, s in enumerate(spans)
    ]
