"""Per-layer metrics of the traced run, and which end-to-end metric each should move.

Every metric is the median over traced jobs of a per-job value. Jobs run at
workers=1 give all metrics except ``rng.*``, which come from the same jobs run
at workers=2, the parallel path they describe. A function never called in a
job counts 0 there, so a layer another workload does not use reads 0.

The ``moves`` field is the prediction a later change is judged against: the
end-to-end metric and workload a gain in this layer should show up in. A
layer that a workload does not call must leave that workload flat.
``job_s.*`` are the job wall times run.py prints; the gated ``job_ref.*``
metrics are the same times over the reference computation, so they move
together.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

Job = dict[str, dict[str, float]]  # span name -> aggregate (calls, busy, self, counters)


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    value: Callable[[Job], float]
    moves: str
    workers: int = 1


def _get(job: Job, name: str, key: str) -> float:
    return job.get(name, {}).get(key, 0.0)


def _busy(name: str) -> Callable[[Job], float]:
    return lambda job: _get(job, name, "busy")


def _self(name: str) -> Callable[[Job], float]:
    return lambda job: _get(job, name, "self")


def _calls(name: str) -> Callable[[Job], float]:
    return lambda job: _get(job, name, "calls")


def _total(name: str, counter: str) -> Callable[[Job], float]:
    return lambda job: _get(job, name, counter)


def _ratio(name: str, num: str, den: str) -> Callable[[Job], float]:
    def value(job: Job) -> float:
        d = _get(job, name, den)
        return _get(job, name, num) / d if d > 0 else 0.0
    return value


def _per_s(name: str, counter: str) -> Callable[[Job], float]:
    return _ratio(name, counter, "busy")


def _parallel_eff(job: Job) -> float:
    # busy time of all blocks over map_blocks wall time times its workers
    worker_s = _get(job, "rng.map_blocks", "worker_s")
    return _get(job, "rng.block", "busy") / worker_s if worker_s > 0 else 0.0


_MC = "job_s.* on mc"
_TREE = "job_s.* on tree, and job_s_w2.p50 on tree once the start grid runs in a pool; flat on mc and population"

LAYER_METRICS: tuple[LayerMetric, ...] = (
    LayerMetric("cli.run.self_s", "s", "lower", _self("cli.run"),
                "job_s.p50 on every workload (validation, config_hash, JSON/CSV writes)"),
    LayerMetric("tree.count_survivors_dp.busy_s", "s", "lower",
                _busy("tree.count_survivors_dp"), _TREE),
    LayerMetric("tree.count_survivors_dp.depth_steps_per_s", "1/s", "higher",
                _per_s("tree.count_survivors_dp", "depth_steps"), _TREE),
    LayerMetric("tree.scan_rows_from_series.self_s", "s", "lower",
                _self("tree.scan_rows_from_series"), _TREE),
    LayerMetric("walk.estimate_survival.busy_s", "s", "lower",
                _busy("walk.estimate_survival"), _MC),
    LayerMetric("walk.estimate_survival.path_steps_per_s", "1/s", "higher",
                _per_s("walk.estimate_survival", "path_steps"), _MC),
    LayerMetric("walk.estimate_survival.alive_frac", "frac", "higher",
                _ratio("walk.estimate_survival", "alive", "paths"),
                "bounds the saving alive-only draws can give on mc"),
    LayerMetric("walk.survival_ratio.busy_s", "s", "lower",
                _busy("walk.survival_ratio"), _MC),
    LayerMetric("walk.survival_ratio.path_steps_per_s", "1/s", "higher",
                _per_s("walk.survival_ratio", "path_steps"), _MC),
    LayerMetric("diffusion.batch_survive.calls", "count", "lower",
                _calls("diffusion.batch_survive"), _MC),
    LayerMetric("diffusion.batch_survive.busy_s", "s", "lower",
                _busy("diffusion.batch_survive"), _MC),
    LayerMetric("diffusion.batch_survive.path_steps_per_s", "1/s", "higher",
                _per_s("diffusion.batch_survive", "path_steps"), _MC),
    LayerMetric("diffusion.batch_survive.alive_frac", "frac", "higher",
                _ratio("diffusion.batch_survive", "alive", "paths"), _MC),
    LayerMetric("diffusion.ratio_convergence_scan.busy_s", "s", "lower",
                _busy("diffusion.ratio_convergence_scan"), _MC),
    LayerMetric("diffusion.log_survival_closed_form.calls", "count", "lower",
                _calls("diffusion.log_survival_closed_form"),
                "job_s.* on mc (closed-form and quadrature evaluations)"),
    LayerMetric("measure.measurement_pipeline.self_s", "s", "lower",
                _self("measure.measurement_pipeline"), _MC),
    LayerMetric("measure.measurement_pipeline.survivor_frac", "frac", "higher",
                _ratio("measure.measurement_pipeline", "alive", "paths"), _MC),
    LayerMetric("measure.outcome_weights.busy_s", "s", "lower",
                _busy("measure.outcome_weights"), _MC),
    LayerMetric("lcg.lcg_delta_stream.busy_s", "s", "lower",
                _busy("lcg.lcg_delta_stream"), _MC),
    LayerMetric("lcg.lcg_delta_stream.transitions_per_s", "1/s", "higher",
                _per_s("lcg.lcg_delta_stream", "transitions"), _MC),
    LayerMetric("lcg.lcg_walk_survival.busy_s", "s", "lower",
                _busy("lcg.lcg_walk_survival"), _MC),
    LayerMetric("lcg.lcg_walk_survival.path_steps_per_s", "1/s", "higher",
                _per_s("lcg.lcg_walk_survival", "path_steps"), _MC),
    LayerMetric("population.endogenous_population.busy_s", "s", "lower",
                _busy("population.endogenous_population"), "job_s.* on population only"),
    LayerMetric("population.endogenous_population.particle_steps_per_s", "1/s", "higher",
                _per_s("population.endogenous_population", "particle_steps"),
                "job_s.* on population only"),
    LayerMetric("population.endogenous_population.clone_frac", "frac", "lower",
                _ratio("population.endogenous_population", "clones", "particle_steps"),
                "job_s.* on population only"),
    LayerMetric("stats.fit_power_law.busy_s", "s", "lower",
                _busy("stats.fit_power_law"), "job_s.* on tree"),
    LayerMetric("stats.bootstrap_ci.busy_s", "s", "lower", _busy("stats.bootstrap_ci"), _MC),
    LayerMetric("stats.ks_distance.busy_s", "s", "lower", _busy("stats.ks_distance"), _MC),
    LayerMetric("rng.map_blocks.calls", "count", "lower", _calls("rng.map_blocks"),
                "job_s_w2.p50 on mc", workers=2),
    LayerMetric("rng.map_blocks.blocks", "count", "lower", _total("rng.map_blocks", "blocks"),
                "job_s_w2.p50 on mc", workers=2),
    LayerMetric("rng.map_blocks.busy_s", "s", "lower", _busy("rng.map_blocks"),
                "job_s_w2.p50 on mc", workers=2),
    LayerMetric("rng.block.busy_s", "s", "lower", _busy("rng.block"),
                "job_s_w2.p50 on mc", workers=2),
    LayerMetric("rng.map_blocks.parallel_eff", "frac", "higher", _parallel_eff,
                "job_s_w2.p50 on mc", workers=2),
)

#: Metrics of the traced run that do not come from spans of one job.
RUN_METRICS: tuple[tuple[str, str, str, str], ...] = (
    ("setup.import_s", "s", "lower", "setup_s on every workload"),
    ("setup.import.sympy_s", "s", "lower", "setup_s on every workload (dropping sympy shows here)"),
    ("setup.import.scipy_s", "s", "lower", "setup_s on every workload"),
    ("trace.overhead", "frac", "lower",
     "none: traced job_s.p50 over untraced job_s.p50, minus 1"),
    ("trace.claim_share", "frac", "higher",
     "none: share of traced job time inside the layers the workload was chosen for"),
    ("trace.names_not_found", "count", "lower", "none: traced names missing from the package"),
)

#: The layers each workload was chosen to stress; their spans should cover
#: most of its job time.
CLAIMS: dict[str, tuple[str, ...]] = {
    "tree": ("tree.count_survivors_dp",),
    "mc": (
        "walk.estimate_survival", "walk.survival_ratio", "diffusion.batch_survive",
        "measure.measurement_pipeline", "lcg.lcg_delta_stream", "lcg.lcg_walk_survival",
    ),
    "population": ("population.endogenous_population",),
}


def all_names() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    return [(m.name, m.unit, m.better) for m in LAYER_METRICS] + [
        (name, unit, better) for name, unit, better, _ in RUN_METRICS
    ]
