"""Tests of the benchmark's own logic.

    python3 -m pytest bench/test_bench.py -q
"""
from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, make_jobs  # noqa: E402


# ---------------------------------------------------------------- tail rule


def test_tail_has_ten_samples_beyond():
    samples = [float(v) for v in range(40, 0, -1)]  # 1..40, unsorted
    value, pct, n = run.tail_percentile(samples)
    assert (value, pct, n) == (30.0, 75.0, 40)
    assert sum(1 for s in samples if s > value) == 10


def test_tail_with_eleven_samples_is_the_smallest():
    value, pct, n = run.tail_percentile([float(v) for v in range(11)])
    assert value == 0.0 and pct == pytest.approx(100 / 11) and n == 11


@pytest.mark.parametrize("n", [1, 5, 10])
def test_tail_with_fewer_than_ten_beyond_reports_the_maximum(n):
    samples = [float(v) for v in range(n)]
    assert run.tail_percentile(samples) == (float(n - 1), 100.0, n)


# ---------------------------------------------------------------- self time


def _span(name, start, end, parent=None, thread=1):
    return tracing.Span(name, start, end, parent, "j", thread)


def test_self_time_of_nested_spans():
    spans = [_span("a", 0, 10), _span("b", 2, 5, 0), _span("c", 3, 4, 1), _span("d", 6, 7, 0)]
    assert tracing.self_times(spans) == [6, 2, 1, 1]


def test_self_time_with_overlapping_block_spans_on_threads():
    # two blocks run at once on two threads: subtract their union, not their sum
    spans = [_span("map", 0, 10), _span("blk", 1, 6, 0, 2), _span("blk", 2, 9, 0, 3)]
    assert tracing.self_times(spans) == [2, 5, 7]


def test_self_time_clips_children_to_the_parent():
    spans = [_span("a", 0, 4), _span("b", 3, 8, 0)]
    assert tracing.self_times(spans)[0] == 3


def test_tracer_records_block_spans_and_restores_bindings():
    from born_branch import cli, diffusion, measure, rng, walk  # noqa: F401 (cli is traced)

    orig = (rng.map_blocks, walk.map_blocks, measure.batch_survive)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.job = "t"
        from born_branch.model import Exogenous, GaussianShocks, WalkParams

        walk.estimate_survival(
            WalkParams(0.15, 1.1, GaussianShocks()), 0.0, Exogenous(0.1, 0.5), 5,
            (1 << 14) + 10, seed=1, workers=2,
        )
    finally:
        tracer.uninstall()
    assert (rng.map_blocks, walk.map_blocks, measure.batch_survive) == orig
    assert diffusion.batch_survive is measure.batch_survive
    names = [s.name for s in tracer.spans]
    assert names.count("rng.block") == 2
    blocks = [s for s in tracer.spans if s.name == "rng.block"]
    parent = tracer.spans[blocks[0].parent]
    assert parent.name == "rng.map_blocks" and parent.counts["blocks"] == 2
    assert tracer.spans[parent.parent].name == "walk.estimate_survival"
    assert set(tracing.TRACED) <= tracer.found


# ---------------------------------------------------------------- job lists


def test_same_seed_same_job_list():
    for workload in WORKLOADS:
        assert make_jobs(workload, 7) == make_jobs(workload, 7)
        assert make_jobs(workload, 7) != make_jobs(workload, 8)


def test_job_list_does_not_depend_on_the_process():
    code = "import json, workloads; print(json.dumps(workloads.make_jobs('tree', 3)))"
    lists = []
    for hashseed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hashseed)
        out = subprocess.run([sys.executable, "-c", code], cwd=BENCH, env=env,
                             capture_output=True, text=True, check=True, timeout=60)
        lists.append(out.stdout)
    assert lists[0] == lists[1] == json.dumps(make_jobs("tree", 3)) + "\n"


# ---------------------------------------------------------------- failures


@pytest.fixture(scope="module")
def tree_run(tmp_path_factory):
    jobs = make_jobs("tree", 5)[:1]
    runner = run.Runner(jobs, tmp_path_factory.mktemp("bench"))
    _, outputs = runner.run(0, 1)
    return jobs, outputs


def test_true_counts_pass(tree_run):
    jobs, outputs = tree_run
    errors = checks.execution_errors(jobs, [(0, outputs), (0, outputs)])
    assert errors == [[], []] and checks.fail_frac(errors) == 0.0


def test_injected_wrong_count_fails(tree_run):
    jobs, outputs = tree_run
    header, rows = outputs[0].rows()
    col = header.index(next(h for h in header if h.startswith("n_phi_")))
    row = next(r for r in rows if int(r[0]) == 10)
    bad_line = ",".join(row[:col] + [str(int(row[col]) + 1)] + row[col + 1:])
    series = outputs[0].series.decode().replace(",".join(row), bad_line, 1).encode()
    assert series != outputs[0].series
    bad = [checks.Output("tree", 0, outputs[0].results, series)]
    # wrong on its first run: the oracles catch it; on a later run: it differs
    assert checks.fail_frac(checks.execution_errors(jobs, [(0, bad)])) == 1.0
    assert checks.fail_frac(checks.execution_errors(jobs, [(0, outputs), (0, bad)])) == 0.5


def _results(**estimates):
    return {"estimates": estimates}


def test_injected_wrong_estimates_fail():
    mc = make_jobs("mc", 1)[0]
    by_name = {c["experiment"]: c for c in mc}
    p = by_name["diffusion"]["parameters"]
    good_z = checks._diffusion_oracle(by_name["diffusion"], checks.Output(
        "diffusion", 0, _results(mc_p_hat=0.3318), b""))
    bad_z = checks._diffusion_oracle(by_name["diffusion"], checks.Output(
        "diffusion", 0, _results(mc_p_hat=0.3318 + 6 * (0.22 / p["mc_n_paths"]) ** 0.5), b""))
    assert good_z == [] and bad_z
    header = b"delta,n_survivors,frequency\n"
    good = header + b"0.4,170,0.41\n0.6,260,0.59\n"
    swapped = header + b"0.4,260,0.59\n0.6,170,0.41\n"
    assert checks._measure_oracle(by_name["measure"], checks.Output("measure", 0, {}, good)) == []
    assert checks._measure_oracle(by_name["measure"], checks.Output("measure", 0, {}, swapped))
    assert checks._walk_oracle(by_name["walk"], checks.Output(
        "walk", 0, _results(p_hat={"0": 0.3, "1": 0.2}), b""))
    pop = make_jobs("population", 1)[0][0]
    assert checks._population_oracle(pop, checks.Output(
        "endogenous", 0, _results(slope=0.28, slope_rescaled=0.28 + 1e-8), b""))
    errors = checks.execution_errors([mc], [(0, "job 0: RuntimeError: boom")])
    assert checks.fail_frac(errors) == 1.0


@pytest.fixture(scope="module")
def walk_run(tmp_path_factory):
    """A job of two walk calls, sized down: the main config and the short one."""
    walks = [c for c in make_jobs("mc", 2)[0] if c["experiment"] == "walk"]
    for c in walks:
        c["parameters"]["n_paths"] = 2000
    _, outputs = run.Runner([walks], tmp_path_factory.mktemp("walks")).run(0, 1)
    return walks, outputs


def test_runner_keeps_each_call_output(walk_run):
    walks, outputs = walk_run
    starts = [sorted(o.results["estimates"]["p_hat"], key=float) for o in outputs]
    assert starts == [[f"{x:g}" for x in c["parameters"]["x0s"]] for c in walks]
    assert outputs[0].series != outputs[1].series


def test_wrong_first_walk_fails(walk_run):
    walks, outputs = walk_run
    assert checks.execution_errors([walks], [(0, outputs)]) == [[]]
    p_hat = dict(outputs[0].results["estimates"]["p_hat"])
    p_hat["0"] = 1.0  # survival from the lowest start above that of higher starts
    bad = dataclasses.replace(outputs[0], results=_results(p_hat=p_hat))
    assert checks.fail_frac(checks.execution_errors([walks], [(0, [bad, outputs[1]])])) == 1.0
    assert checks.fail_frac(
        checks.execution_errors([walks], [(0, outputs), (0, [bad, outputs[1]])])) == 0.5


def test_exit_code_one_fails():
    pop = make_jobs("population", 1)[0]
    out = checks.Output("endogenous", 1, _results(slope=0.2, slope_rescaled=0.2), b"")
    assert checks.fail_frac(checks.execution_errors([pop], [(0, [out])])) == 1.0


# ---------------------------------------------------------------- set-up


def test_importtime_counts_outermost_package_lines_once():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       sympy.core",
        "import time:        50 |        300 |     sympy",
        "import time:        10 |        400 |   born_branch.lcg",
        "import time:        10 |        500 | born_branch",
        "import time:        20 |         20 | sympy.extra",
        "import time:         5 |          5 | numpy",
    ])
    assert run.importtime_cumulative(stderr, "sympy") == pytest.approx(320e-6)
    assert run.importtime_cumulative(stderr, "scipy") == 0.0


# ---------------------------------------------------------------- declaration


def test_benchmark_json_matches_the_metrics_reported():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == layers.all_names()
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert set(run.REFERENCE) == set(WORKLOADS)
