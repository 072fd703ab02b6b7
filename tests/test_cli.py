"""Tests for the experiment runner: configs, outputs, exit codes."""

import csv
import json
import math

import pytest

from born_branch import ConfigError
from born_branch.cli import (
    EXPERIMENTS,
    ExperimentConfig,
    config_hash,
    main,
    reference_config,
    run,
)


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
            ExperimentConfig.from_json('{"experiment": "tree", "extra": 1}')

    def test_missing_experiment_key(self):
        with pytest.raises(ConfigError, match="experiment"):
            ExperimentConfig.from_json('{"seed": 3}')

    def test_json_round_trip(self):
        cfg = ExperimentConfig("walk", {"t": 50}, seed=9, workers=2)
        again = ExperimentConfig.from_json(cfg.to_json())
        assert again == cfg

    def test_reference_configs_load_for_every_family(self):
        for name in EXPERIMENTS:
            cfg = reference_config(name)
            assert cfg.experiment == name

    def test_reference_config_unknown(self):
        with pytest.raises(ConfigError):
            reference_config("bogus")


class TestConfigHash:
    """The hash tracks science inputs and ignores execution knobs."""

    def test_workers_and_output_excluded(self):
        a = ExperimentConfig("tree", {"t_max": 20}, seed=1)
        b = ExperimentConfig("tree", {"t_max": 20}, seed=1, workers=8, output="x")
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
        """alpha = 0.6 above max delta = 1/2 kills even the best path by
        t = 45 from the largest start; the run passes its extinction check
        and reports (not judges) the beta fit."""
        cfg = ExperimentConfig(
            "tree", {"t_max": 60, "alpha": 0.6, "epsilon": 0.01, "record_points": 12}
        )
        assert run(cfg, out_dir=tmp_path) == 0
        results, header, rows = read_outputs(tmp_path)
        assert results["checks"]["infeasible_goes_extinct"] == "pass"
        assert results["checks"]["beta_hat_in_band"] == "report"
        assert results["estimates"]["extinction_t"] == 45
        assert header[:2] == ["t", "log10_total_paths"]
        assert len(rows) == 13

    def test_tree_oracle_records_brute_force_agreement(self, tmp_path):
        cfg = ExperimentConfig(
            "tree", {"t_max": 12, "oracle": True, "record_points": 12}
        )
        run(cfg, out_dir=tmp_path)
        results, _, _ = read_outputs(tmp_path)
        assert results["estimates"]["dp_equals_bruteforce"] is True
        assert results["checks"]["dp_equals_bruteforce"] == "pass"

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

    def test_walk_small_run_passes(self, tmp_path):
        cfg = ExperimentConfig(
            "walk",
            {
                "t": 40,
                "n_paths": 4_000,
                "x0s": [0.0, 1.0],
                "ratio_rel_tol": 0.5,
                "epsilon": math.exp(-3.0),
            },
        )
        assert run(cfg, out_dir=tmp_path) == 0
        results, _, _ = read_outputs(tmp_path)
        assert results["checks"]["ratio_x1_over_x0_near_asymptotic"] == "pass"
        assert results["checks"]["tilt_ratio"] == "report"

    def test_diffusion_small_run_passes(self, tmp_path):
        cfg = ExperimentConfig(
            "diffusion",
            {"tau_grid": [5, 10], "mc_n_paths": 20_000, "mc_tau": 5, "mc_dt": 0.02},
        )
        assert run(cfg, out_dir=tmp_path) == 0
        results, header, rows = read_outputs(tmp_path)
        assert results["checks"]["bridge_mc_z_within_3"] == "pass"
        assert len(rows) == 2

    def test_endogenous_small_run_fails_slope_honestly(self, tmp_path):
        """Scale invariance is exact, but the measured threshold growth
        exceeds the exponential ansatz at every scale we have tried, so
        the slope check fails by construction, exit code 2."""
        cfg = ExperimentConfig("endogenous", {"n_particles": 400, "tau": 5.0})
        assert run(cfg, out_dir=tmp_path) == 2
        results, _, _ = read_outputs(tmp_path)
        assert results["checks"]["scale_invariance"] == "pass"
        assert results["checks"]["slope_in_ansatz_band"] == "fail"

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
        results, _, _ = read_outputs(tmp_path)
        assert results["checks"]["freq_delta_0.3_within_3se"] == "pass"
        assert results["checks"]["freq_delta_0.7_within_3se"] == "pass"

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
            {"t": 30, "n_paths": 3_000, "x0s": [0.0, 1.0], "ratio_rel_tol": 0.9},
        )
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        run(cfg, out_dir=a_dir)
        import dataclasses

        run(dataclasses.replace(cfg, workers=4), out_dir=b_dir)
        a = json.loads((a_dir / "results.json").read_text())
        b = json.loads((b_dir / "results.json").read_text())
        for volatile in ("runtime_seconds", "timestamp"):
            a.pop(volatile), b.pop(volatile)
        assert a == b
        assert (a_dir / "series.csv").read_bytes() == (b_dir / "series.csv").read_bytes()

    @pytest.mark.parametrize("experiment", ["walk", "measure"])
    def test_bundled_config_same_at_one_and_two_workers(self, experiment, tmp_path):
        """The bundled walk (one shared-draw pass) and measure (one exact
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
        assert (tmp_path / "results.json").exists()
        assert (tmp_path / "series.csv").exists()
        assert not (tmp_path / "plot.svg").exists()

    def test_default_output_directory(self, tmp_path, monkeypatch):
        """Without --out a run writes to out/<experiment>/ under the
        working directory, as the README documents."""
        monkeypatch.chdir(tmp_path)
        assert main(["demo_intro"]) == 0
        assert (tmp_path / "out" / "demo_intro" / "results.json").exists()
        assert (tmp_path / "out" / "demo_intro" / "series.csv").exists()

    def test_plot_flag_writes_svg(self, tmp_path):
        code = main(["demo_intro", "--out", str(tmp_path), "--plot"])
        assert code == 0
        svg = (tmp_path / "plot.svg").read_text()
        assert svg.startswith("<svg")

    def test_config_file_and_seed_override(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps(
                {
                    "experiment": "walk",
                    "parameters": {"t": 30, "n_paths": 2000, "ratio_rel_tol": 0.9},
                }
            )
        )
        out = tmp_path / "out"
        code = main(["walk", "--config", str(cfg_path), "--seed", "42", "--out", str(out)])
        assert code == 0
        results = json.loads((out / "results.json").read_text())
        assert results["seed"] == 42

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

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["tree", "--config", str(tmp_path / "absent.json")])
        assert code == 1
        assert "error:" in capsys.readouterr().err
