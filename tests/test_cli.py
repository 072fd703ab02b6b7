"""Tests for the experiment runner: configs, outputs, exit codes."""

import csv
import dataclasses
import json
import math
import re
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

import born_branch
from born_branch import ConfigError, TooFewSurvivors, WalkParams, survival_closed_form
from born_branch import cli as cli_module
from born_branch import measure as measure_module
from born_branch import walk as walk_module
from born_branch.cli import (
    EXPERIMENTS,
    ExperimentConfig,
    config_hash,
    main,
    reference_config,
    run,
)


# (experiment, key, fixed value) of each check bound, and of each scale or
# example a check is tied to, none of which is a parameter
FIXED_BOUNDS = [
    ("tree", "beta_band", [0.85, 1.15]),
    ("lcg", "mean_tol", 0.01),
    ("lcg", "var_rel_tol", 0.02),
    ("lcg", "beta_band", [0.85, 1.15]),
    ("walk", "ratio_rel_tol", 0.05),
    ("endogenous", "slope_tol", 0.03),
    ("endogenous", "invariance_tol", 0.005),
    ("endogenous", "scale_factor", 100.0),
    ("demo_intro", "outside_rel_tol", 0.2),
    ("demo_intro", "n", 1000),
    ("demo_intro", "p", 0.2),
    ("demo_intro", "lo", 100),
    ("demo_intro", "hi", 300),
    ("demo_intro", "outside_target", 2.2e-14),
    ("demo_intro", "count_log10_bound", -37.0),
]

# The first costly step of each family that has one: the DP for tree, paths
# for walk, diffusion and measure, the walk for lcg, a whole population for
# endogenous.
FIRST_WORK = {
    "tree": (cli_module, "count_survivors_dp"),
    "walk": (walk_module, "map_blocks"),
    "diffusion": (cli_module, "map_blocks"),
    "measure": (measure_module, "map_blocks"),
    "lcg": (cli_module, "lcg_walk_survival"),
    "endogenous": (cli_module, "endogenous_population"),
}

# A config per family that runs in about a second.
SMALL_CONFIGS = {
    "tree": {"t_max": 30, "record_points": 10},
    "lcg": {"n_transitions": 20_000, "t": 30, "n_paths": 2_000, "phis": [1.0, 4.0]},
    "walk": {"t": 40, "n_paths": 4_000, "x0s": [0.0, 1.0], "epsilon": math.exp(-3.0)},
    "diffusion": {"tau_grid": [5, 10], "mc_n_paths": 2_000, "mc_tau": 5, "mc_dt": 0.5},
    "endogenous": {"n_particles": 400, "tau": 5.0},
    "measure": {"deltas": [0.3, 0.7], "tau": 70.0, "n_paths": 12_000, "n_boot": 100},
    "demo_intro": {},
}


def read_outputs(out_dir):
    results = json.loads((out_dir / "results.json").read_text())
    with (out_dir / "series.csv").open() as fh:
        rows = list(csv.reader(fh))
    return results, rows[0], rows[1:]


class TestExperimentConfig:
    """Eager validation of experiment names, keys, and parameters."""

    def test_unknown_experiment(self):
        with pytest.raises(ConfigError, match="unknown experiment"):
            ExperimentConfig("no_such_thing")

    def test_unknown_parameter_named_in_error(self):
        with pytest.raises(ConfigError, match="t_maxx"):
            ExperimentConfig("tree", {"t_maxx": 10})

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="extra"):
            ExperimentConfig._from_dict(json.loads('{"experiment": "tree", "extra": 1}'))

    def test_missing_experiment_key(self):
        with pytest.raises(ConfigError, match="experiment"):
            ExperimentConfig._from_dict(json.loads('{"seed": 3}'))

    def test_reference_configs_load_for_every_family(self):
        for name in EXPERIMENTS:
            cfg = reference_config(name)
            assert cfg.experiment == name

    def test_reference_config_unknown(self):
        with pytest.raises(ConfigError):
            reference_config("bogus")

    @pytest.mark.parametrize(
        "experiment, digest",
        [
            ("tree", "a0d220bfb45c2b4a"),
            ("lcg", "584d9c5c5dbb9434"),
            ("walk", "09dcb7f798b71873"),
            ("diffusion", "e56173e75142d03c"),
            ("endogenous", "b32437aecf8773c9"),
            ("measure", "088d357d0054e5a2"),
            ("demo_intro", "ccea4c7c18e45916"),
        ],
    )
    def test_reference_config_hash_is_pinned(self, experiment, digest):
        """The reference configs are the parameter defaults at seed 0, so a
        silently changed default changes this hash."""
        assert config_hash(reference_config(experiment)) == digest

    @pytest.mark.parametrize(
        "experiment, key, value",
        FIXED_BOUNDS,
        ids=[f"{experiment}-{key}" for experiment, key, _ in FIXED_BOUNDS],
    )
    def test_check_bound_is_not_a_parameter(self, experiment, key, value):
        """Check bounds, and what a check is tied to, are fixed per
        experiment: a config that sets one, even to its fixed value, is
        refused as an unknown key, and the key is named."""
        with pytest.raises(ConfigError, match=re.escape(f"unknown parameter key(s) ['{key}']")):
            ExperimentConfig(experiment, {key: value})

    @pytest.mark.parametrize("n", [0, -5])
    def test_diffusion_paths_below_one_is_a_config_error(self, n):
        """mc_n_paths is range-checked at config time, and refused as
        ConfigError like every other parameter's config-time check."""
        with pytest.raises(ConfigError, match=f"mc_n_paths={n} must be >= 1"):
            ExperimentConfig("diffusion", {"mc_n_paths": n})

    def test_output_is_not_a_config_key(self):
        """The output directory is set only by run(out_dir=) or --out."""
        with pytest.raises(ConfigError, match="output"):
            ExperimentConfig._from_dict(
                json.loads('{"experiment": "tree", "output": "runs/tree"}')
            )

    def test_readme_config_examples_load(self):
        """Every JSON config block in README.md is a valid config."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        blocks = re.findall(r"```json\n(.*?)```", readme, flags=re.S)
        assert blocks
        for block in blocks:
            ExperimentConfig._from_dict(json.loads(block))

    def test_readme_export_count_matches_all(self):
        """README.md states how many public names the package exports."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        stated = re.search(r"exports (\d+) public names", readme)
        assert stated and int(stated.group(1)) == len(born_branch.__all__)

    def test_readme_usage_names_every_flag(self, capsys):
        """README.md's usage line names exactly the CLI's flags, so a new
        flag is a visible change."""
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        flags = set(re.findall(r"--[a-z][-a-z]*", capsys.readouterr().out)) - {"--help"}
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        usage = re.search(r"^born-branch <experiment> .*$", readme, flags=re.M)
        assert usage and set(re.findall(r"--[a-z][-a-z]*", usage.group(0))) == flags

    def test_readme_parameter_count_matches_schemas(self):
        """README.md states how many settable parameters the experiment
        families take, so a new knob is a visible change."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        stated = re.search(r"take (\d+) settable parameters", readme)
        fields = sum(len(dataclasses.fields(schema)) for schema, _ in EXPERIMENTS.values())
        assert stated and int(stated.group(1)) == fields


class TestConfigHash:
    """The hash tracks science inputs and ignores execution knobs."""

    def test_workers_excluded(self):
        a = ExperimentConfig("tree", {"t_max": 20}, seed=1)
        b = ExperimentConfig("tree", {"t_max": 20}, seed=1, workers=8)
        assert config_hash(a) == config_hash(b)

    def test_parameters_and_seed_included(self):
        base = ExperimentConfig("tree", {"t_max": 20}, seed=1)
        assert config_hash(base) != config_hash(
            ExperimentConfig("tree", {"t_max": 21}, seed=1)
        )
        assert config_hash(base) != config_hash(
            ExperimentConfig("tree", {"t_max": 20}, seed=2)
        )

    def test_defaults_normalize(self):
        """Spelling out a default explicitly hashes the same as omitting
        it: the hash is over the resolved parameter set."""
        a = ExperimentConfig("walk", {})
        b = ExperimentConfig("walk", {"t": 300})
        assert config_hash(a) == config_hash(b)


class TestRunSmallConfigs:
    """One fast run per family, checking outputs and exit semantics."""

    def test_tree_infeasible_alpha_goes_extinct(self, tmp_path):
        """alpha = 0.6 above max delta = 1/2 kills even the best path from
        the largest start at t = 41, so 45 is the first recorded depth with
        no survivors; the run passes its extinction check and records the
        beta fit without judging it."""
        cfg = ExperimentConfig(
            "tree", {"t_max": 60, "alpha": 0.6, "epsilon": 0.01, "record_points": 12}
        )
        assert run(cfg, out_dir=tmp_path) == 0
        results, header, rows = read_outputs(tmp_path)
        assert results["checks"]["infeasible_goes_extinct"] == "pass"
        assert "beta_hat_in_band" not in results["checks"]
        assert results["estimates"]["extinction_t"] == 45
        assert header == ["t", "n_phi_1", "n_phi_2", "n_phi_4", "n_phi_8", "n_phi_16", "beta_hat"]
        assert len(rows) == 13

    def test_tree_final_ratios_are_exact_count_fractions(self, tmp_path):
        """The series keeps the counts and the fit; each final ratio is the
        exact fraction of two counts in the last row, rounded once."""
        cfg = ExperimentConfig("tree", {"t_max": 70, "record_points": 7, "phis": [1.0, 3.0, 8.0]})
        run(cfg, out_dir=tmp_path)
        results, header, rows = read_outputs(tmp_path)
        assert header == ["t", "n_phi_1", "n_phi_3", "n_phi_8", "beta_hat"]
        n0, n3, n8 = (int(v) for v in rows[-1][1:4])
        assert rows[-1][0] == "70" and n0 > 0
        assert results["estimates"]["ratios_final"] == {
            "3/1": float(Fraction(n3, n0)), "8/1": float(Fraction(n8, n0)),
        }

    def test_tree_record_points_beyond_t_max(self, tmp_path):
        """record_points far above t_max records every depth once, without
        a grid of record_points floats (80 MB here)."""
        cfg = ExperimentConfig("tree", {"t_max": 20, "record_points": 10**7})
        tracemalloc.start()
        try:
            run(cfg, out_dir=tmp_path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        _, _, rows = read_outputs(tmp_path)
        assert [int(row[0]) for row in rows] == list(range(21))
        assert peak < 10 * 2**20

    def test_lcg_small_run_fails_exponent_check(self, tmp_path):
        """The log-ratio variance of the congruential stream is 1, and its
        check passes; the walk exponent at DEFAULT_LCG_ALPHA sits far below
        1, so this family exits 2 deterministically. 2e5 transitions put the
        2% variance tolerance at about three standard errors. The uniformity
        check uses the 0.1% Kolmogorov level 1.95 / sqrt(n), so it passes."""
        cfg = ExperimentConfig(
            "lcg",
            {"n_transitions": 200_000, "t": 30, "n_paths": 2_000, "phis": [1.0, 4.0]},
        )
        assert run(cfg, out_dir=tmp_path) == 2
        results, _, _ = read_outputs(tmp_path)
        assert results["checks"]["var_log_delta"] == "pass"
        assert results["checks"]["mean_neg_log_delta"] == "pass"
        assert results["checks"]["delta_ks_uniform"] == "pass"
        assert results["checks"]["walk_beta_hat_in_band"] == "fail"
        assert results["targets"]["var_log_delta"] == 1.0
        assert results["targets"]["ks_tol"] == 1.95 / math.sqrt(200_000)
        assert results["targets"]["beta_band"] == [0.85, 1.15]

    def test_walk_small_run_passes(self, tmp_path):
        cfg = ExperimentConfig(
            "walk",
            {
                "t": 40,
                "n_paths": 4_000,
                "x0s": [0.0, 1.0],
                "epsilon": math.exp(-3.0),
            },
        )
        assert run(cfg, out_dir=tmp_path) == 0
        results, _, _ = read_outputs(tmp_path)
        assert results["checks"]["ratio_x1_over_x0_near_asymptotic"] == "pass"
        assert "tilt_ratio" not in results["checks"]
        beta = WalkParams(0.15, 1.1).beta
        assert results["targets"]["beta"] == beta
        assert results["targets"]["tilt_ratios"] == [math.exp(beta)]

    def test_deterministic_walk_rejected_before_drawing(self, tmp_path, monkeypatch, capsys):
        """With sigma = 0 the walk's tilt target mu/sigma^2 is undefined, so
        the run fails with exit code 1 before any path is drawn."""

        def no_draws(*args, **kwargs):
            raise AssertionError("paths drawn before beta refused sigma = 0")

        monkeypatch.setattr(walk_module, "map_blocks", no_draws)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"parameters": {"sigma": 0, "n_paths": 400_000}}))
        out = tmp_path / "o"
        assert main(["walk", "--config", str(cfg_path), "--out", str(out)]) == 1
        assert "sigma = 0" in capsys.readouterr().err
        assert not out.exists()

    def test_diffusion_small_run_passes(self, tmp_path):
        cfg = ExperimentConfig(
            "diffusion",
            {"tau_grid": [5, 10], "mc_n_paths": 20_000, "mc_tau": 5, "mc_dt": 0.02},
        )
        assert run(cfg, out_dir=tmp_path) == 0
        results, header, rows = read_outputs(tmp_path)
        assert results["checks"]["bridge_mc_z_within_3"] == "pass"
        assert len(rows) == 2

    def test_diffusion_mc_refused_just_below_fifty_survivors(self, tmp_path, monkeypatch):
        """The bridge MC predicts mc_n_paths closed_form_q survivors: the
        fewest paths that predict 50 run, and one path fewer is refused
        before any block is drawn."""
        q = survival_closed_form(1.0, 1.0, 3.0, 10.0)  # the defaults mc_d and mc_tau
        n = math.ceil(50 / q)
        assert (n - 1) * q < 50 <= n * q
        params = {"tau_grid": [5], "mc_dt": 10.0}
        cfg = ExperimentConfig("diffusion", {**params, "mc_n_paths": n})
        assert run(cfg, out_dir=tmp_path / "at") in (0, 2)
        assert read_outputs(tmp_path / "at")[0]["targets"]["closed_form_q"] == q

        def no_draws(*args, **kwargs):
            raise AssertionError("the bridge MC drew before the survivor screen")

        monkeypatch.setattr(cli_module, "map_blocks", no_draws)
        cfg = ExperimentConfig("diffusion", {**params, "mc_n_paths": n - 1})
        with pytest.raises(TooFewSurvivors, match=f"from {n - 1} paths: the bridge MC"):
            run(cfg, out_dir=tmp_path / "below")
        assert not (tmp_path / "below").exists()

    def test_endogenous_small_run_fails_slope_honestly(self, tmp_path):
        """Scale invariance is exact, but the measured threshold growth
        exceeds the exponential ansatz at every scale we have tried, so
        the slope check fails by construction, exit code 2."""
        cfg = ExperimentConfig("endogenous", {"n_particles": 400, "tau": 5.0})
        assert run(cfg, out_dir=tmp_path) == 2
        results, _, _ = read_outputs(tmp_path)
        assert results["checks"]["scale_invariance"] == "pass"
        assert results["checks"]["slope_in_ansatz_band"] == "fail"

    @pytest.mark.parametrize(
        "params, seed",
        [
            (SMALL_CONFIGS["endogenous"], 0),
            ({"n_particles": 4000, "tau": 3.0, "dt": 0.01}, 61),
            ({"n_particles": 4000, "tau": 3.0, "dt": 0.01}, 62),
        ],
        ids=["small", "bench-seed61", "bench-seed62"],
    )
    def test_endogenous_rescaled_slope_is_the_twin_run(self, params, seed, tmp_path):
        """slope_rescaled, fitted from the phi0 = 1 trajectory shifted by
        log SCALE_FACTOR, is the slope of a run at phi0 = SCALE_FACTOR, bit
        for bit. The gap is the fit's rounding of the shift, not always 0
        (2.8e-17 on the small config, 1.1e-16 at seed 61)."""
        run(ExperimentConfig("endogenous", params, seed=seed), out_dir=tmp_path)
        est = read_outputs(tmp_path)[0]["estimates"]
        p = cli_module.EndogenousParams(**params)
        twin = born_branch.endogenous_population(
            p.tilde_mu, p.sigma, p.varepsilon, p.n_particles, p.tau, p.dt,
            phi0=cli_module.SCALE_FACTOR, seed=seed,
        )
        assert est["slope_rescaled"] == twin.slope
        assert est["slope_gap"] == abs(est["slope"] - twin.slope)

    def test_endogenous_runs_one_population(self, tmp_path, monkeypatch):
        calls = []
        inner = cli_module.endogenous_population

        def counting(*args, **kwargs):
            calls.append(args)
            return inner(*args, **kwargs)

        monkeypatch.setattr(cli_module, "endogenous_population", counting)
        run(ExperimentConfig("endogenous", SMALL_CONFIGS["endogenous"]), out_dir=tmp_path)
        assert len(calls) == 1

    def test_measure_small_run_passes(self, tmp_path):
        cfg = ExperimentConfig(
            "measure",
            {
                "deltas": [0.3, 0.7],
                "sigma": math.sqrt(0.05),
                "tau": 70.0,
                "n_paths": 12_000,
                "n_boot": 100,
            },
            seed=5,
        )
        assert run(cfg, out_dir=tmp_path) == 0
        results, header, _ = read_outputs(tmp_path)
        assert results["checks"]["freq_delta_0.3_within_3se"] == "pass"
        assert results["checks"]["freq_delta_0.7_within_3se"] == "pass"
        # the medians are reported against the factorization's sqrt(tau)
        # reference only, with no per-arm target column
        assert set(results["targets"]) == {"born_weights", "median_sqrt_tau_reference"}
        assert header == [
            "delta", "n_survivors", "frequency", "freq_se",
            "median_y0", "median_lo", "median_hi", "born_weight",
        ]

    def test_demo_intro_defaults_pass(self, tmp_path):
        assert run(ExperimentConfig("demo_intro"), out_dir=tmp_path) == 0
        results, _, _ = read_outputs(tmp_path)
        assert results["checks"]["outside_prob_matches"] == "pass"
        assert results["checks"]["count_fraction_below_bound"] == "pass"
        assert results["estimates"]["outside_prob"] == pytest.approx(2.2e-14, rel=0.01)


class TestDeterminism:
    """Byte-identical outputs modulo runtime and timestamp."""

    def test_results_stable_across_runs_and_workers(self, tmp_path):
        cfg = ExperimentConfig(
            "walk",
            {"t": 30, "n_paths": 3_000, "x0s": [0.0, 1.0]},
        )
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        run(cfg, out_dir=a_dir)
        run(dataclasses.replace(cfg, workers=4), out_dir=b_dir)
        a = json.loads((a_dir / "results.json").read_text())
        b = json.loads((b_dir / "results.json").read_text())
        for volatile in ("runtime_seconds", "timestamp"):
            a.pop(volatile), b.pop(volatile)
        assert a == b
        assert (a_dir / "series.csv").read_bytes() == (b_dir / "series.csv").read_bytes()

    @pytest.mark.parametrize("experiment", ["walk", "measure"])
    def test_bundled_config_same_at_one_and_two_workers(self, experiment, tmp_path):
        """The reference walk (one shared-draw pass) and measure (one exact
        step) configs run in seconds, so their full reference runs are
        checked: identical estimates and series.csv bytes at 1 and 2
        workers, and every check passing."""
        outs = []
        for workers in ("1", "2"):
            out = tmp_path / workers
            assert main([experiment, "--workers", workers, "--out", str(out)]) == 0
            results, _, _ = read_outputs(out)
            outs.append((results["estimates"], (out / "series.csv").read_bytes()))
        assert outs[0] == outs[1]

    def test_lcg_reference_run_estimates_pinned(self, tmp_path):
        """The full lcg reference run gives these estimates, to the last bit,
        at 1 and 2 workers, with identical series.csv bytes. The delta
        stream's 10^6 ratios feed three of them, so any change in a state or
        in the rounding of a ratio shows here."""
        pinned = {
            "ks_uniform": 0.0006104810325358312,
            "mean_neg_log_delta": 0.9998410390886453,
            "var_log_delta": 1.0009069255190706,
            "beta_hat": 0.12512400569654605,
            "p_hat": {"1": 0.1759, "4": 0.2128, "16": 0.25165, "64": 0.29655},
        }
        series = []
        for workers in ("1", "2"):
            out = tmp_path / workers
            assert main(["lcg", "--workers", workers, "--out", str(out)]) == 2
            results, _, _ = read_outputs(out)
            assert results["config_hash"] == "584d9c5c5dbb9434"
            assert results["estimates"] == pinned
            series.append((out / "series.csv").read_bytes())
        assert series[0] == series[1]

    def test_results_schema(self, tmp_path):
        run(ExperimentConfig("demo_intro"), out_dir=tmp_path)
        results = json.loads((tmp_path / "results.json").read_text())
        assert set(results) == {
            "experiment",
            "config_hash",
            "seed",
            "estimates",
            "targets",
            "checks",
            "runtime_seconds",
            "timestamp",
        }
        assert results["experiment"] == "demo_intro"
        assert len(results["config_hash"]) == 16


class TestMain:
    """argparse entry point: flags, config files, error mapping."""

    def test_reference_run_via_main(self, tmp_path, capsys):
        code = main(["demo_intro", "--out", str(tmp_path)])
        assert code == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["results.json", "series.csv"]

    def test_default_output_directory(self, tmp_path, monkeypatch):
        """Without --out a run writes to out/<experiment>/ under the
        working directory, as the README documents."""
        monkeypatch.chdir(tmp_path)
        assert main(["demo_intro"]) == 0
        assert (tmp_path / "out" / "demo_intro" / "results.json").exists()
        assert (tmp_path / "out" / "demo_intro" / "series.csv").exists()

    def test_config_file_and_seed_override(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps(
                {
                    "experiment": "walk",
                    "parameters": {"t": 30, "n_paths": 2000},
                }
            )
        )
        out = tmp_path / "out"
        code = main(["walk", "--config", str(cfg_path), "--seed", "42", "--out", str(out)])
        results = json.loads((out / "results.json").read_text())
        assert results["seed"] == 42
        assert code == (2 if "fail" in results["checks"].values() else 0)

    def test_config_experiment_mismatch(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"experiment": "walk"}))
        code = main(["tree", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "does not match" in capsys.readouterr().err

    def test_bad_parameter_maps_to_exit_one(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"parameters": {"nope": 1}}))
        code = main(["tree", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "nope" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "experiment, config, key",
        [
            ("demo_intro", {"seed": "abc"}, "seed"),
            ("demo_intro", {"workers": "two"}, "workers"),
            ("demo_intro", {"workers": 0}, "workers"),
            ("walk", {"parameters": {"n_paths": "1000"}}, "n_paths"),
            ("tree", {"parameters": {"t_max": 20.5}}, "t_max"),
            ("tree", {"parameters": {"t_max": 20, "record_points": -1}}, "record_points"),
            ("tree", {"experiment": ["tree"]}, "experiment"),
            ("tree", {"parameters": "abc"}, "parameters"),
            ("tree", {"parameters": {"t_max": -3}}, "t_max"),
            ("tree", {"parameters": {"deltas": [0.5, 0.6]}}, "ratios"),
            ("diffusion", {"parameters": {"mc_n_paths": 0}}, "mc_n_paths"),
            ("diffusion", {"parameters": {"mc_n_paths": -5}}, "mc_n_paths"),
            ("endogenous", {"parameters": {"tau": math.nan}}, "tau"),
            ("tree", {"parameters": {"epsilon": math.nan}}, "epsilon"),
            ("walk", {"parameters": {"epsilon": math.inf}}, "epsilon"),
            ("walk", {"parameters": {"x0s": [0.0, math.nan]}}, "x0s"),
            ("measure", {"parameters": {"tau": 10**400}}, "tau"),
            ("walk", {"parameters": {"noise_sd": -0.5}}, "noise_sd"),
            ("walk", {"parameters": {"epsilon": 1.0, "x0s": [0.0, 1.0]}}, "x0=0.0"),
            ("lcg", {"parameters": {"a": (1 << 61) - 1}}, "a=2305843009213693951"),
            ("lcg", {"parameters": {"a": 1 << 61}}, "a=2305843009213693952"),
            ("diffusion", {"parameters": {"tau_grid": [], "mc_n_paths": 2000}}, "tau_grid"),
            ("walk", {"parameters": {"t": 0, "n_paths": 2000}}, "t"),
            ("walk", {"parameters": {"x0s": []}}, "x0s"),
            ("lcg", {"parameters": {"n_transitions": 0}}, "n_transitions"),
            ("tree", {"parameters": {"phis": [1.0, 2.0, -1.0]}}, "phis"),
            ("walk", {"parameters": {"sigma": 1e-9}}, "sigma"),
            ("diffusion", {"parameters": {"sigma": 1e-9}}, "sigma"),
            ("walk", {"parameters": {"sigma": 1e-200}}, "sigma"),
            ("measure", {"parameters": {"sigma": 1e-200}}, "sigma"),
            ("diffusion", {"parameters": {"sigma": 1e200}}, "sigma"),
            ("measure", {"parameters": {"sigma": 1e200}}, "sigma"),
            ("measure", {"parameters": {"prep_rate": 1100}}, "survivors"),
            ("endogenous", {"parameters": {"dt": 1e-300, "n_particles": 200, "tau": 1.0}}, "dt"),
            ("diffusion", {"parameters": {"mc_dt": 1e-300, "mc_n_paths": 100}}, "mc_dt"),
            ("endogenous", {"parameters": {"tau": 0.01, "dt": 0.01}}, "tau=0.01, dt"),
            ("diffusion", {"parameters": {"d_b": -1.5}}, "d_b"),
            ("diffusion", {"parameters": {"mc_d": 0}}, "mc_d"),
            ("walk", {"parameters": {"shock": "cauchy"}}, "shock"),
            ("tree", [], "object"),
            ("diffusion", {"parameters": {"mc_n_paths": 100}}, "mc_n_paths"),
            ("diffusion", {"parameters": {"sigma": 1e150}}, "survivors"),
        ],
        ids=["seed-str", "workers-str", "workers-zero", "int-param-str",
             "int-param-float", "record-points-negative", "experiment-list",
             "parameters-str", "t-max-negative", "deltas-off-simplex",
             "mc-paths-zero", "mc-paths-negative", "tau-nan", "epsilon-nan",
             "epsilon-infinity", "list-entry-nan", "int-beyond-float-range",
             "noise-sd-negative", "start-on-barrier",
             "lcg-multiplier-reduces-to-0", "lcg-multiplier-reduces-to-1",
             "tau-grid-empty", "walk-t-zero",
             "walk-x0s-empty",
             "n-transitions-zero", "tree-late-bad-start",
             "walk-tilt-beyond-float-range", "diffusion-tilt-beyond-float-range",
             "walk-sigma-squared-underflows", "measure-sigma-squared-underflows",
             "diffusion-sigma-squared-overflows", "measure-sigma-squared-overflows",
             "measure-weights-underflow", "endogenous-steps-beyond-bound",
             "diffusion-steps-beyond-bound", "endogenous-one-step",
             "diffusion-d_b-not-positive",
             "diffusion-mc_d-zero", "walk-shock-unknown", "config-not-object",
             "diffusion-mc-survivors-below-50", "diffusion-sigma-survival-near-zero"],
    )
    def test_bad_config_value_maps_to_exit_one(
        self, experiment, config, key, tmp_path, capsys, monkeypatch
    ):
        """A value of the wrong type or out of range fails the run, with an
        error line naming its key (or start), before the family's first
        costly step, and leaves no output directory: the directory is made
        only once the runner has returned."""
        if experiment in FIRST_WORK:

            def no_work(*args, **kwargs):
                raise AssertionError(f"{experiment} started work on a bad config")

            monkeypatch.setattr(*FIRST_WORK[experiment], no_work)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        out = tmp_path / "o"
        assert main([experiment, "--config", str(cfg_path), "--out", str(out)]) == 1
        assert re.search(rf"^error: .*\b{key}\b", capsys.readouterr().err, flags=re.M)
        assert not out.exists()

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["tree", "--config", str(tmp_path / "absent.json")])
        assert code == 1
        assert "error:" in capsys.readouterr().err
