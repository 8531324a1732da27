import errno
import hashlib
import json
import os
import re
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from feaslearn import cli, data, models, trainers
from feaslearn import feasibility as fs
from feaslearn.errors import ConfigError


def _tiny_config(tmp_path, method="fl", name=None, seeds=(0, 1), **trainer_extra):
    trainer = {"method": method, "eta_theta": 1e-2, "eta_lambda": 0.1, "eps": 0.3,
               "batch_size": 16, "epochs": 3, "primal_optimizer": "adamw"}
    trainer.update(trainer_extra)
    name = name or f"tiny_{method}"
    return {
        "name": name,
        "dataset": {"generator": "two_moons", "n": 48, "noise": 0.1, "seed": 0},
        "split": {"test_fraction": 0.25, "seed": 0},
        "model": {"family": "mlp", "layers": [2, 6, 2]},
        "trainer": trainer,
        "seeds": list(seeds),
        "output_dir": str(tmp_path / name),
    }


class TestConfigLoading:
    def test_defaults_fill_in(self, tmp_path):
        cfg = cli.load_config({"dataset": {"generator": "two_moons"},
                               "trainer": {"method": "erm"}})
        assert cfg["seeds"] == [0, 1, 2, 3, 4]
        assert cfg["metrics"]["quantiles"] == [0.9, 0.95, 0.99]
        assert cfg["split"]["test_fraction"] == 0.0
        assert cfg["output_dir"].endswith("experiment")

    def test_missing_dataset_is_an_error(self):
        with pytest.raises(ConfigError, match="dataset"):
            cli.load_config({"trainer": {"method": "erm"}})

    def test_missing_method_is_an_error(self):
        with pytest.raises(ConfigError, match="method"):
            cli.load_config({"dataset": {"generator": "two_moons"}})

    def test_bad_json_reports_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"dataset": }')
        with pytest.raises(ConfigError, match="line 1"):
            cli.load_config(str(path))

    def test_file_holding_a_json_array_is_a_config_error(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigError, match="^config must be a JSON object$"):
            cli.load_config(str(path))

    @pytest.mark.parametrize("source", [[1], 3, None], ids=["list", "int", "none"])
    def test_source_neither_object_nor_path_is_a_config_error(self, source):
        with pytest.raises(ConfigError, match=re.escape(f"got {source!r}")):
            cli.load_config(source)

    def test_bad_quantiles(self):
        with pytest.raises(ConfigError, match="quantiles"):
            cli.load_config({"dataset": {"generator": "two_moons"},
                             "trainer": {"method": "erm"},
                             "metrics": {"quantiles": [1.5]}})

    def test_alpha_inf_string(self):
        # the trainer section is TrainerConfig's echo, which spells alpha = inf "inf"
        for alpha in ("inf", None, 3.0):
            cfg = cli.load_config({"dataset": {"generator": "two_moons"},
                                   "trainer": {"method": "fl", "alpha": alpha}})
            assert cfg["trainer"]["alpha"] == "inf"
        cfg = cli.load_config({"dataset": {"generator": "two_moons"},
                               "trainer": {"method": "rfl", "alpha": 2.0,
                                           "primal_optimizer": "adaptive_moments_decoupled_decay"}})
        assert cfg["trainer"]["alpha"] == 2.0 and cfg["trainer"]["primal_optimizer"] == "adamw"
        assert "seed" not in cfg["trainer"]

    def test_templates_all_load(self):
        for name, template in cli.config_templates().items():
            cfg = cli.load_config(template)
            assert cfg["trainer"]["method"] in ("erm", "fl", "rfl", "cserm"), name

    def test_templates_share_no_nested_dict(self):
        templates = cli.config_templates()
        fresh = json.dumps(templates, sort_keys=True)
        templates["two_moons_fl"]["dataset"]["n"] = 7
        templates["two_moons_fl"]["model"]["layers"].append(9)
        templates["outlier_regression_erm"]["dataset"]["outliers"]["offset"] = 9.0
        templates["noisy_cosine_fl"]["seeds"].append(9)
        assert templates["two_moons_erm"]["dataset"]["n"] == 1250
        assert templates["two_moons_erm"]["model"]["layers"] == [2, 70, 70, 2]
        assert templates["outlier_regression_rfl"]["dataset"]["outliers"]["offset"] == 1.2
        assert templates["noisy_cosine_erm"]["seeds"] == [0, 1, 2, 3, 4]
        assert json.dumps(cli.config_templates(), sort_keys=True) == fresh


class TestRunExperiment:
    def test_artifact_contract(self, tmp_path):
        summary = cli.run_experiment(_tiny_config(tmp_path))
        outdir = summary["output_dir"]
        assert os.path.exists(os.path.join(outdir, "summary.json"))
        for seed in (0, 1):
            seed_dir = os.path.join(outdir, f"seed_{seed}")
            for name in ("config.json", "trajectory.csv", "final_losses_train.csv",
                         "final_losses_test.csv", "multipliers.csv", "checkpoint.bin",
                         "status.txt"):
                assert os.path.exists(os.path.join(seed_dir, name)), name
        assert not summary["any_aborted"]
        agg = summary["aggregate"]
        assert "train_mean_loss" in agg and "test_mean_loss" in agg
        assert agg["train_mean_loss"]["n"] == 2

    def test_exit_code_zero_via_main(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(_tiny_config(tmp_path, seeds=(0,))))
        assert cli.main(["run", str(path)]) == cli.EXIT_OK
        assert "seeds" in capsys.readouterr().out

    def test_trajectory_checksum_reproducible(self, tmp_path):
        cfg = _tiny_config(tmp_path, seeds=(0,))
        cli.run_experiment(cfg)
        first = hashlib.sha256(
            open(os.path.join(cfg["output_dir"], "seed_0", "trajectory.csv"), "rb").read()
        ).hexdigest()
        cli.run_experiment(cfg)
        second = hashlib.sha256(
            open(os.path.join(cfg["output_dir"], "seed_0", "trajectory.csv"), "rb").read()
        ).hexdigest()
        assert first == second

    def test_zero_epochs_run_is_valid(self, tmp_path):
        cfg = _tiny_config(tmp_path, seeds=(0,))
        cfg["trainer"]["epochs"] = 0
        summary = cli.run_experiment(cfg)
        assert not summary["any_aborted"]
        metrics = summary["per_seed"]["0"]
        assert "train_mean_loss" in metrics
        traj = open(os.path.join(cfg["output_dir"], "seed_0", "trajectory.csv")).read()
        assert len(traj.strip().splitlines()) == 1  # header only

    def test_aborted_run_exits_three_and_keeps_artifacts(self, tmp_path):
        cfg = {
            "name": "blowup",
            "dataset": {"generator": "conflicting_pairs", "n_pairs": 2, "d": 1,
                        "label_gap": 2.0, "seed": 0},
            "model": {"family": "linear"},
            "trainer": {"method": "fl", "eta_theta": 1e-12, "eta_lambda": 1e13,
                        "eps": 0.0, "epochs": 3, "primal_optimizer": "sgd"},
            "seeds": [0],
            "output_dir": str(tmp_path / "blowup"),
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert cli.main(["run", str(path)]) == cli.EXIT_ABORTED
        status = open(os.path.join(cfg["output_dir"], "seed_0", "status.txt")).read()
        assert status.startswith("aborted")
        assert os.path.exists(os.path.join(cfg["output_dir"], "seed_0", "multipliers.csv"))

    def test_invalid_config_exits_two(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"trainer": {"method": "erm"}}))
        assert cli.main(["run", str(path)]) == cli.EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_missing_file_exits_two(self):
        assert cli.main(["run", "/nonexistent/config.json"]) == cli.EXIT_CONFIG

    def test_invalid_trainer_value_exits_two(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(_tiny_config(tmp_path, seeds=(0,), eta_theta=-1.0)))
        assert cli.main(["run", str(path)]) == cli.EXIT_CONFIG
        assert "eta_theta must be positive" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "tiny_fl")

    @pytest.mark.parametrize("key,value", [("lr", 0.1), ("seed", 3)])
    def test_bad_trainer_key_exits_two(self, tmp_path, capsys, key, value):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(_tiny_config(tmp_path, seeds=(0,), **{key: value})))
        assert cli.main(["run", str(path)]) == cli.EXIT_CONFIG
        assert f"'trainer.{key}'" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "tiny_fl")

    @pytest.mark.parametrize("metrics,named", [({"top_k": "banana", "bogus": 1}, "bogus"),
                                               ({"top_k": 10}, "top_k")])
    def test_unknown_metrics_key_exits_two(self, tmp_path, capsys, metrics, named):
        cfg = _tiny_config(tmp_path, seeds=(0,))
        cfg["metrics"] = metrics
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert cli.main(["run", str(path)]) == cli.EXIT_CONFIG
        assert f"'metrics.{named}': unknown metrics field" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "tiny_fl")

    @pytest.mark.parametrize("section,base,key", [
        ("", {}, "seed"),
        ("split", {"test_fraction": 0.25, "seed": 0}, "test_fracton"),
        ("metrics", {"quantiles": [0.9]}, "quantile"),
        ("dataset", {"generator": "two_moons", "n": 48, "seed": 0}, "noize"),
        ("dataset", {"generator": "noisy_cosine", "n": 20}, "sigm"),
        ("dataset", {"generator": "conflicting_pairs", "n_pairs": 4}, "label_gapp"),
        ("dataset", {"generator": "csv", "path": "data.csv"}, "tsk"),
        ("dataset.outliers", {"fraction": 0.1}, "placment"),
        ("model", {"family": "linear"}, "degree"),
        ("model", {"family": "poly", "degree": 3}, "degre"),
        ("model", {"family": "mlp", "layers": [2, 6, 2]}, "layer"),
        ("trainer", {"method": "erm", "epochs": 3}, "epoch"),
        ("trainer", {"method": "rfl", "alpha": 1.0, "eta_lambda": 1.0}, "analytic_dual"),
    ], ids=["top_level", "split", "metrics", "two_moons", "noisy_cosine", "conflicting_pairs", "csv",
            "outliers", "linear", "poly", "mlp", "trainer", "trainer_analytic_dual"])
    def test_unknown_key_in_any_section_exits_two_and_writes_nothing(self, tmp_path, capsys,
                                                                     section, base, key):
        cfg = _tiny_config(tmp_path, seeds=(0,))
        if section == "dataset.outliers":
            cfg["dataset"] = {"generator": "noisy_cosine", "n": 20, "outliers": {**base, key: 1}}
        elif section:
            cfg[section] = {**base, key: 1}
        else:
            cfg[key] = [0]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert cli.main(["run", str(path)]) == cli.EXIT_CONFIG
        named = f"'{section}.{key}': unknown {section}" if section else f"'{key}': unknown top-level"
        assert f"{named} field" in capsys.readouterr().err
        assert not os.path.exists(cfg["output_dir"])

    def test_dataset_path_without_generator_exits_two(self, tmp_path, capsys):
        cfg = _tiny_config(tmp_path, seeds=(0,))
        cfg["dataset"] = {"path": str(tmp_path / "data.csv")}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert cli.main(["run", str(path)]) == cli.EXIT_CONFIG
        assert "'dataset.generator': unknown generator None" in capsys.readouterr().err
        assert not os.path.exists(cfg["output_dir"])

    def test_misspelled_band_fit_config_exits_two_and_writes_nothing(self, tmp_path, capsys):
        # each misspelling used to be ignored, training poly 3 on sigma = 0.2 without a test split
        cfg = {"name": "band", "output_dir": str(tmp_path / "band"), "seeds": [0],
               "dataset": {"generator": "noisy_cosine", "n": 20, "sigm": 5.0, "seed": 0},
               "split": {"test_fracton": 0.25},
               "model": {"family": "poly", "degre": 20, "domian": [0.0, 1.0]},
               "trainer": {"method": "fl", "eps": 0.2, "epochs": 2}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert cli.main(["run", str(path)]) == cli.EXIT_CONFIG
        assert "'split.test_fracton': unknown split field" in capsys.readouterr().err
        assert not os.path.exists(cfg["output_dir"])

    def test_empty_test_split_exits_two(self, tmp_path, capsys):
        # round(0.01 * 20) = 0 test samples
        cfg = {"name": "tiny_split",
               "dataset": {"generator": "noisy_cosine", "n": 20, "sigma": 0.2, "seed": 0},
               "split": {"test_fraction": 0.01, "seed": 0},
               "model": {"family": "linear"},
               "trainer": {"method": "erm", "eta_theta": 0.05, "epochs": 2},
               "seeds": [0], "output_dir": str(tmp_path / "tiny_split")}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert cli.main(["run", str(path)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "'split.test_fraction'" in err and "0 test" in err

    @pytest.mark.parametrize("key", ["dataset", "model", "split", "metrics", "trainer"])
    def test_non_object_section_exits_two(self, tmp_path, capsys, key):
        cfg = _tiny_config(tmp_path, seeds=(0,))
        cfg[key] = 3
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert cli.main(["run", str(path)]) == cli.EXIT_CONFIG
        assert f"'{key}': must be a JSON object" in capsys.readouterr().err

    def test_repeated_seeds_exit_two(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(_tiny_config(tmp_path, seeds=(0, 1, 0))))
        assert cli.main(["run", str(path)]) == cli.EXIT_CONFIG
        assert "'seeds': repeated seeds [0]" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "tiny_fl")
        # true is not the seed 1
        path.write_text(json.dumps(_tiny_config(tmp_path, seeds=(True,))))
        assert cli.main(["run", str(path)]) == cli.EXIT_CONFIG
        assert "'seeds': must be a non-empty list" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "tiny_fl")

    @pytest.mark.parametrize("section,key,value,named", [
        ("metrics", "quantiles", 3, "'metrics.quantiles'"),
        ("dataset", "n", "abc", "'dataset.n'"),
        ("model", "layers", "ab", "'model.layers'"),
        ("model", "degree", "x", "'model.degree'"),
        ("trainer", "epochs", 2.5, "epochs must be a non-negative integer"),
        ("trainer", "batch_size", 0, "batch_size must be a positive integer"),
        ("trainer", "eta_theta", "x", "eta_theta must be a number"),
        ("trainer", "primal_optimizer", [1], "primal_optimizer must be one of"),
        ("trainer", "cosine_decay", "yes", "cosine_decay must be true or false"),
        ("trainer", "momentum", "x", "momentum must be a number"),
        ("trainer", "weight_decay", "x", "weight_decay must be a number"),
        ("trainer", "eta_lambda", "x", "eta_lambda must be a number"),  # on erm, which ignores it
        ("model", "family", "tree", "'model.family': unknown family 'tree'"),
        ("split", "test_fraction", 1.5, "'split.test_fraction': must lie in [0, 1)"),
        ("dataset", "seed", "x", "'dataset.seed': must be a non-negative integer or null"),
        ("split", "seed", -1, "'split.seed': must be a non-negative integer or null"),
        ("model", "domain", [0.0], "'model.domain': must be [lo, hi] or null, got [0.0]"),
        ("model", "degree", -1, "config field 'model': degree must be >= 0"),  # from build_model
    ])
    def test_mistyped_value_exits_two(self, tmp_path, capsys, section, key, value, named):
        cfg = _tiny_config(tmp_path, seeds=(0,))
        if key in ("degree", "domain"):
            cfg["model"] = {"family": "poly"}
        if key == "eta_lambda":
            cfg["trainer"]["method"] = "erm"
            cfg["output_dir"] = str(tmp_path / "tiny_fl")
        cfg.setdefault(section, {})[key] = value
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert cli.main(["run", str(path)]) == cli.EXIT_CONFIG
        assert named in capsys.readouterr().err
        if section == "trainer":  # rejected before anything is written
            assert not os.path.exists(tmp_path / "tiny_fl")

    @pytest.mark.parametrize("key,value", [("name", 3), ("output_dir", 5)])
    def test_non_string_name_or_output_dir_exits_two(self, tmp_path, capsys, key, value):
        cfg = _tiny_config(tmp_path, seeds=(0,))
        if key == "name":
            del cfg["output_dir"]
        cfg[key] = value
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert cli.main(["run", str(path)]) == cli.EXIT_CONFIG
        assert f"'{key}': must be a string" in capsys.readouterr().err

    @pytest.mark.parametrize("model,named", [
        ({"family": "mlp", "layers": [3, 4, 2]}, "expected input width 3"),
        ({"family": "linear"}, "cross_entropy expects (n, C) logits"),
        ({"family": "poly"}, "polynomial models take a single input feature"),
    ])
    def test_shape_mismatch_exits_two(self, tmp_path, capsys, model, named):
        cfg = _tiny_config(tmp_path, seeds=(0,))
        cfg["model"] = model
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert cli.main(["run", str(path)]) == cli.EXIT_CONFIG
        assert named in capsys.readouterr().err
        assert not os.path.exists(cfg["output_dir"])

    def test_eps_of_the_wrong_length_exits_two_and_writes_nothing(self, tmp_path, capsys):
        cfg = _tiny_config(tmp_path, seeds=(0,), eps=[0.3, 0.3])
        cfg["output_dir"] = str(tmp_path / "new" / "runs" / "tiny_fl")  # under directories not made yet
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert cli.main(["run", str(path)]) == cli.EXIT_CONFIG
        assert "eps must be a scalar or a length-36 vector" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "new")

    @pytest.mark.parametrize("content,named", [
        (None, "'dataset.path': required for csv"),
        ("missing", "'dataset.path': cannot read"),
        ("", "line 1: expected header"),
        ("id,feat_0,target\n0,0.5,1.0\n1,abc,2.0\n", "line 3: could not convert string to float: 'abc'"),
        # a decoding error under a UTF-8 locale, a bad header under others
        (b"\xff\xfeid,feat_0,target\n", "config field 'dataset"),
        ("id,feat_0,target\n0,0.1,1.0\n1,0.5,nan\n2,0.9,0.0\n3,0.3,1.0\n",
         "config field 'dataset': regression targets of samples [1] are not finite"),
        ("id,feat_0,target\n3,0.1,1.0\n0,0.5,2.0\n2,0.9,inf\n1,0.3,-inf\n",
         "config field 'dataset': regression targets of samples [1, 2] are not finite"),
    ], ids=["no_path", "missing_file", "empty_file", "non_numeric_cell", "not_utf8",
            "nan_target", "infinite_targets"])
    def test_bad_csv_dataset_exits_two(self, tmp_path, capsys, content, named):
        dataset = {"generator": "csv", "task": "regression"}
        if content is not None:
            dataset["path"] = str(tmp_path / "data.csv")
            if isinstance(content, bytes):
                (tmp_path / "data.csv").write_bytes(content)
            elif content != "missing":
                (tmp_path / "data.csv").write_text(content)
        cfg = {"name": "csv_run", "dataset": dataset, "model": {"family": "linear"},
               "trainer": {"method": "erm", "eta_theta": 0.05, "epochs": 2},
               "seeds": [0], "output_dir": str(tmp_path / "csv_run")}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert cli.main(["run", str(path)]) == cli.EXIT_CONFIG
        assert named in capsys.readouterr().err
        assert not os.path.exists(cfg["output_dir"])

    def test_summary_json_is_strict_json(self, tmp_path):
        cfg = _tiny_config(tmp_path, seeds=(0,))
        summary = cli.run_experiment(cfg)

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        text = open(os.path.join(summary["output_dir"], "summary.json")).read()
        assert json.loads(text, parse_constant=reject)["config"]["trainer"]["alpha"] == "inf"

    @pytest.mark.parametrize("method,extra", [
        ("erm", {}), ("fl", {"alpha": 2.0}), ("rfl", {"alpha": 2.0}),
        ("cserm", {"alpha": 2.0, "eps": [0.3] * 36}),
    ])
    def test_config_json_rebuilds_its_trainer_config(self, tmp_path, method, extra):
        cfg = _tiny_config(tmp_path, method=method, seeds=(0, 1), **extra)
        summary = cli.run_experiment(cfg)
        for seed in (0, 1):
            with open(os.path.join(summary["output_dir"], f"seed_{seed}", "config.json")) as fh:
                echoed = json.load(fh)
            fields = {k: v for k, v in echoed.items() if k not in ("dataset_signature", "experiment")}
            assert trainers.TrainerConfig(**fields).echo() == fields
            assert summary["config"]["trainer"] == {k: v for k, v in fields.items() if k != "seed"}

    def test_label_beyond_output_width_exits_two(self, tmp_path, capsys):
        # two_moons labels are 0 and 1; a one-output classifier cannot index label 1
        cfg = _tiny_config(tmp_path, seeds=(0,))
        cfg["model"]["layers"] = [2, 6, 1]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert cli.main(["run", str(path)]) == cli.EXIT_CONFIG
        assert "output width 1" in capsys.readouterr().err
        assert not os.path.exists(cfg["output_dir"])

    @pytest.mark.parametrize("method", ["erm", "fl"])
    def test_seed_metrics_forward_each_split_once(self, tmp_path, monkeypatch, method):
        # accuracy and the fl margins share the train logits
        calls = []
        real = models.Model.forward
        monkeypatch.setattr(models.Model, "forward",
                            lambda self, theta, x: calls.append(len(x)) or real(self, theta, x))
        summary = cli.run_experiment(_tiny_config(tmp_path, method=method, seeds=(0,)))
        assert sorted(calls) == [12, 36]
        assert ("margin_multiplier_spearman" in summary["per_seed"]["0"]) == (method == "fl")

    def test_summary_agrees_with_last_trajectory_row(self, tmp_path):
        cfg = {"name": "cosine_fl",
               "dataset": {"generator": "noisy_cosine", "n": 20, "sigma": 0.2, "seed": 0},
               "model": {"family": "poly", "degree": 6, "domain": [0.0, 1.0]},
               "trainer": {"method": "fl", "eta_theta": 0.05, "eta_lambda": 0.5, "eps": 0.05,
                           "epochs": 50},
               "seeds": [0], "output_dir": str(tmp_path / "cosine_fl")}
        summary = cli.run_experiment(cfg)
        per_seed = summary["per_seed"]["0"]
        assert per_seed["status"] == "completed"
        last = trainers.load_run(tmp_path / "cosine_fl" / "seed_0").trajectory[-1]
        assert per_seed["sat_fraction"] == last["sat_fraction"]
        assert per_seed["lam_fraction_zero"] == last["lam_frac_zero"]

    def test_user_supplied_csv_dataset(self, tmp_path):
        from feaslearn import data
        ds = data.gen_noisy_cosine(24, 0.1, 0)
        csv_path = tmp_path / "user.csv"
        data.save_dataset_csv(ds, csv_path)
        cfg = {
            "name": "csv_run",
            "dataset": {"generator": "csv", "path": str(csv_path), "task": "regression"},
            "model": {"family": "linear"},
            "trainer": {"method": "erm", "eta_theta": 0.05, "epochs": 5,
                        "primal_optimizer": "sgd"},
            "seeds": [0],
            "output_dir": str(tmp_path / "csv_run"),
        }
        summary = cli.run_experiment(cfg)
        assert not summary["any_aborted"]
        assert "train_mean_loss" in summary["per_seed"]["0"]

    def test_output_root_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.OUTPUT_ROOT_ENV, str(tmp_path / "rooted"))
        cfg = _tiny_config(tmp_path, seeds=(0,))
        cfg["output_dir"] = "relative_runs"
        summary = cli.run_experiment(cfg)
        assert summary["output_dir"] == str(tmp_path / "rooted" / "relative_runs")
        assert os.path.exists(summary["output_dir"])


class TestIdOrder:
    """A CSV whose rows are not in id order: every per-sample output follows the ids."""

    def _run(self, tmp_path, capsys, rows, task, model, trainer):
        csv_path = tmp_path / "permuted.csv"
        csv_path.write_text("id,feat_0,feat_1,target\n" + "".join(f"{r}\n" for r in rows))
        cfg = {"name": "permuted", "dataset": {"generator": "csv", "path": str(csv_path), "task": task},
               "model": model, "trainer": trainer, "seeds": [0],
               "output_dir": str(tmp_path / "permuted")}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert cli.main(["run", str(path)]) == cli.EXIT_OK
        capsys.readouterr()
        with open(tmp_path / "permuted" / "summary.json") as fh:
            summary = json.load(fh)
        return summary["per_seed"]["0"], trainers.load_run(tmp_path / "permuted" / "seed_0")

    def test_losses_and_sat_fraction_follow_ids(self, tmp_path, capsys):
        # id 2 is 5 off its target and its eps is 100: every constraint holds,
        # so no multiplier moves and theta stays 0
        per_seed, run = self._run(tmp_path, capsys, ["2,0.0,0.0,5.0", "0,0.0,0.0,0.0", "1,0.0,0.0,0.0"],
                                  "regression", {"family": "linear"},
                                  {"method": "fl", "eps": [0.0, 0.0, 100.0], "epochs": 2})
        assert run.train_losses.tolist() == [0.0, 0.0, 25.0]
        assert [row["sat_fraction"] for row in run.trajectory] == [1.0, 1.0]
        assert per_seed["sat_fraction"] == 1.0

    def test_margin_correlation_pairs_multipliers_and_margins_by_id(self, tmp_path, capsys):
        from scipy import stats
        rng = np.random.default_rng(0)
        ids = rng.permutation(24)
        x = rng.normal(size=(24, 2))
        labels = (x[:, 0] + 0.3 * rng.normal(size=24) > 0).astype(int)
        rows = [f"{i},{float(a)!r},{float(b)!r},{y}" for i, (a, b), y in zip(ids, x, labels)]
        per_seed, run = self._run(tmp_path, capsys, rows, "classification",
                                  {"family": "mlp", "layers": [2, 5, 2]},
                                  {"method": "fl", "eta_theta": 0.05, "eta_lambda": 0.5, "eps": 0.3,
                                   "epochs": 20})
        model = models.model_from_descriptor(run.params.descriptor)
        by_id = np.argsort(ids)
        margins = models.classification_margins(model.forward(run.params.theta, x[by_id]), labels[by_id])
        assert not per_seed["margin_corr_degenerate"]
        assert per_seed["margin_multiplier_spearman"] == stats.spearmanr(run.multipliers, -margins).statistic


class TestParallelSeeds:
    """Seeds train in forked workers, at most min(len(seeds), os.cpu_count()) of them."""

    @staticmethod
    def _seed_files(seed_dir):
        files = {}
        for name in sorted(os.listdir(seed_dir)):
            with open(os.path.join(seed_dir, name), "rb") as fh:
                files[name] = fh.read()
        meta = json.loads(files.pop("meta.json"))
        del meta["wall_clock_s"], meta["phase_s"]
        return files, meta

    @staticmethod
    def _without_wall_clock(summary):
        summary = json.loads(json.dumps(summary))
        for metrics in summary["per_seed"].values():
            del metrics["wall_clock_s"]
        del summary["aggregate"]["wall_clock_s"], summary["output_dir"], summary["config"]["output_dir"]
        return summary

    @pytest.mark.parametrize("method", ["fl", "rfl"])
    def test_seed_dirs_are_byte_identical_to_single_seed_runs(self, tmp_path, monkeypatch, method):
        def run(out, seeds):
            cfg = _tiny_config(tmp_path, method, seeds=seeds, **({"alpha": 2.0} if method == "rfl" else {}))
            return cli.run_experiment(dict(cfg, output_dir=str(tmp_path / out)))

        together = run("together", (0, 1, 2))
        for seed in (0, 1, 2):
            alone = run(f"alone_{seed}", (seed,))
            assert self._seed_files(tmp_path / "together" / f"seed_{seed}") == \
                self._seed_files(tmp_path / f"alone_{seed}" / f"seed_{seed}")
            assert together["per_seed"][str(seed)].keys() == alone["per_seed"][str(seed)].keys()
        monkeypatch.setattr(os, "cpu_count", lambda: 1)  # the same seeds, one after another
        assert self._without_wall_clock(together) == self._without_wall_clock(run("in_process", (0, 1, 2)))

    @pytest.mark.parametrize("failing", [{1}, {0}, {1, 2}], ids=["seed1", "seed0", "seeds1and2"])
    @pytest.mark.parametrize("pooled", [True, False], ids=["pool", "in_process"])
    @pytest.mark.parametrize("where", ["build_dataset", "_seed_metrics"])  # before or after save_run
    def test_error_on_any_seed_exits_two_and_leaves_nothing(self, tmp_path, capsys, monkeypatch,
                                                            failing, pooled, where):
        real = getattr(cli, where)

        def fails_on_some_seeds(cfg, *args):  # forked workers inherit the patch
            seed = args[0].config["seed"] if where == "_seed_metrics" else args[0]
            if seed == 1 and 2 in failing:
                time.sleep(0.3)  # seed 2 fails first, but seed 1 is reported
            if seed in failing:
                raise ConfigError(f"no data for seed {seed}")
            return real(cfg, *args)

        monkeypatch.setattr(cli, where, fails_on_some_seeds)
        if not pooled:
            monkeypatch.setattr(os, "cpu_count", lambda: 1)
        cfg = _tiny_config(tmp_path, seeds=(0, 1, 2))
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert cli.main(["run", str(path)]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: no data for seed {min(failing)}\n"
        assert not os.path.exists(cfg["output_dir"])
        # an output directory that was there before stays, without the seed dirs this call wrote
        os.makedirs(cfg["output_dir"])
        (tmp_path / "tiny_fl" / "notes.txt").write_text("kept\n")
        assert cli.main(["run", str(path)]) == cli.EXIT_CONFIG
        assert os.listdir(cfg["output_dir"]) == ["notes.txt"]

    @pytest.mark.parametrize("failing", [{1}, {0, 1, 2}], ids=["seed1", "every_seed"])
    @pytest.mark.parametrize("pooled", [True, False], ids=["pool", "in_process"])
    @pytest.mark.parametrize("where", ["build_dataset", "_seed_metrics"])  # before or after save_run
    def test_failing_rerun_leaves_an_earlier_run_byte_identical(self, tmp_path, monkeypatch,
                                                                failing, pooled, where):
        def files():
            root = tmp_path / "tiny_fl"
            return {str(p.relative_to(root)): p.read_bytes() if p.is_file() else None
                    for p in root.rglob("*")}

        cfg = _tiny_config(tmp_path, seeds=(0, 1, 2))
        cli.run_experiment(cfg)
        earlier = files()
        real = getattr(cli, where)

        def fails_on_some_seeds(cfg, *args):  # forked workers inherit the patch
            seed = args[0].config["seed"] if where == "_seed_metrics" else args[0]
            if seed in failing:
                raise ConfigError(f"no data for seed {seed}")
            return real(cfg, *args)

        monkeypatch.setattr(cli, where, fails_on_some_seeds)
        if not pooled:
            monkeypatch.setattr(os, "cpu_count", lambda: 1)
        with pytest.raises(ConfigError, match=f"no data for seed {min(failing)}"):
            cli.run_experiment(cfg)
        assert files() == earlier  # every file and directory, byte for byte

    def test_rerun_replaces_each_seed_dir_whole(self, tmp_path):
        cfg = _tiny_config(tmp_path, seeds=(0, 1))
        cli.run_experiment(cfg)
        first = self._seed_files(tmp_path / "tiny_fl" / "seed_0")
        (tmp_path / "tiny_fl" / "seed_0" / "notes.txt").write_text("gone\n")
        (tmp_path / "tiny_fl" / "notes.txt").write_text("kept\n")
        cli.run_experiment(cfg)
        assert sorted(os.listdir(tmp_path / "tiny_fl")) == ["notes.txt", "seed_0", "seed_1", "summary.json"]
        assert self._seed_files(tmp_path / "tiny_fl" / "seed_0") == first

    def test_daemonic_caller_runs_its_seeds_in_process(self, tmp_path):
        # a multiprocessing pool's worker is daemonic and may not start processes of its own
        import multiprocessing
        ctx = multiprocessing.get_context("fork")
        results = ctx.Queue()

        def run():
            try:
                results.put(sorted(cli.run_experiment(_tiny_config(tmp_path, seeds=(0, 1)))["per_seed"]))
            except Exception as err:
                results.put(repr(err))

        worker = ctx.Process(target=run, daemon=True)
        worker.start()
        assert results.get(timeout=60) == ["0", "1"]
        worker.join(timeout=60)
        assert not worker.is_alive()

    @pytest.mark.parametrize("cpus,workers", [(None, None), (1, None), (2, 2), (3, 3), (8, 3)])
    def test_pool_is_bounded_by_seeds_and_cpus(self, tmp_path, monkeypatch, cpus, workers):
        import concurrent.futures
        made = []

        class InProcessPool:
            def __init__(self, max_workers, mp_context, initializer, initargs):
                made.append((max_workers, mp_context.get_start_method()))
                assert (initializer, initargs) == (cli._die_with_parent, (os.getpid(),))

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = concurrent.futures.Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        summary = cli.run_experiment(_tiny_config(tmp_path, seeds=(0, 1, 2)))
        assert made == ([] if workers is None else [(workers, "fork")])
        assert sorted(summary["per_seed"]) == ["0", "1", "2"]

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="workers die with their parent on Linux")
    @pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="one CPU: the seeds run in-process")
    def test_workers_die_with_a_killed_parent(self, tmp_path):
        # The workers record their pids; then `feaslearn run` alone gets SIGKILL.
        cfg = _tiny_config(tmp_path, seeds=(0, 1), epochs=10**7)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code = ("import os, sys\n"
                "from feaslearn import cli\n"
                "real = cli._run_seed\n"
                "def recorded(cfg, outdir, seed):\n"
                f"    with open(os.path.join({str(tmp_path)!r}, f'worker_{{seed}}.pid'), 'w') as fh:\n"
                "        fh.write(str(os.getpid()))\n"
                "    return real(cfg, outdir, seed)\n"
                "cli._run_seed = recorded\n"
                f"sys.exit(cli.main(['run', {str(path)!r}]))\n")

        def alive(pid):  # a zombie no one reaps counts as gone
            try:
                with open(f"/proc/{pid}/stat") as fh:
                    return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
            except FileNotFoundError:
                return False

        pids = []
        parent = subprocess.Popen([sys.executable, "-c", code],
                                  env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
        try:
            deadline = time.monotonic() + 60
            while len(pids) < 2 and time.monotonic() < deadline and parent.poll() is None:
                time.sleep(0.05)
                pids = [int(p.read_text()) for p in tmp_path.glob("worker_*.pid") if p.read_text()]
            assert len(pids) == 2 and all(alive(pid) for pid in pids)
            parent.kill()
            parent.wait(timeout=30)
            deadline = time.monotonic() + 5
            while any(alive(pid) for pid in pids) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not any(alive(pid) for pid in pids)
            # a killed run publishes no seed directory
            assert not [p.name for p in (tmp_path / "tiny_fl").glob("seed_*")]
        finally:
            parent.kill()
            parent.wait(timeout=30)
            for pid in pids:  # so a failing run leaves no orphan training on
                if alive(pid):
                    os.kill(pid, signal.SIGKILL)


class TestCompare:
    def _two_method_runs(self, tmp_path):
        fl_cfg = _tiny_config(tmp_path, method="fl")
        erm_cfg = _tiny_config(tmp_path, method="erm")
        erm_cfg["trainer"].pop("eta_lambda", None)
        cli.run_experiment(fl_cfg)
        cli.run_experiment(erm_cfg)
        dirs = [os.path.join(fl_cfg["output_dir"], f"seed_{s}") for s in (0, 1)]
        dirs += [os.path.join(erm_cfg["output_dir"], f"seed_{s}") for s in (0, 1)]
        return dirs

    def test_emits_curves_per_method_and_split(self, tmp_path):
        dirs = self._two_method_runs(tmp_path)
        out = tmp_path / "cmp"
        report = cli.compare(dirs, quantiles=[0.5, 0.9], out_dir=str(out))
        assert sorted(report["methods"]) == ["erm", "fl"]
        for method in ("erm", "fl"):
            for split in ("train", "test"):
                assert (out / f"cdf_{method}_{split}.csv").exists()
                assert (out / f"cvar_{method}_{split}.csv").exists()
        assert (out / "table.csv").exists()
        assert (out / "comparison.json").exists()

    def test_main_prints_a_line_per_table_row(self, tmp_path, capsys):
        cfg = _tiny_config(tmp_path)
        cli.run_experiment(cfg)
        dirs = [os.path.join(cfg["output_dir"], f"seed_{s}") for s in (0, 1)]
        out = tmp_path / "cmp"
        assert cli.main(["compare", *dirs, "--out", str(out)]) == cli.EXIT_OK
        table = json.loads((out / "comparison.json").read_text())["table"]
        assert [(row["method"], row["split"]) for row in table] == [("fl", "train"), ("fl", "test")]
        assert capsys.readouterr().out.splitlines() == [
            f"{row['method']:24s} {row['split']:5s} mean={row['mean_loss']:.6g} "
            f"max={row['max_loss']:.6g} acc={row['accuracy']:.3f}" for row in table
        ] + [f"curves written to {out}"]

    def test_self_compare_is_idempotent(self, tmp_path):
        cfg = _tiny_config(tmp_path, seeds=(0,))
        cli.run_experiment(cfg)
        run = os.path.join(cfg["output_dir"], "seed_0")
        a = tmp_path / "cmp_a"
        b = tmp_path / "cmp_b"
        cli.compare([run], out_dir=str(a))
        cli.compare([run, run], out_dir=str(b))
        fa = (a / "cdf_fl_train.csv").read_text()
        fb = (b / "cdf_fl_train.csv").read_text()
        assert fa == fb

    def test_refuses_mismatched_datasets(self, tmp_path):
        cfg_a = _tiny_config(tmp_path, name="data_a", seeds=(0,))
        cfg_b = _tiny_config(tmp_path, name="data_b", seeds=(0,))
        cfg_b["dataset"]["seed"] = 99
        cli.run_experiment(cfg_a)
        cli.run_experiment(cfg_b)
        dirs = [os.path.join(cfg_a["output_dir"], "seed_0"),
                os.path.join(cfg_b["output_dir"], "seed_0")]
        with pytest.raises(ConfigError, match="signatures"):
            cli.compare(dirs, out_dir=str(tmp_path / "cmp"))
        assert cli.main(["compare", *dirs, "--out", str(tmp_path / "cmp2")]) == cli.EXIT_CONFIG

    def test_no_run_dirs_is_a_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="compare needs at least one run directory"):
            cli.compare([], out_dir=str(tmp_path / "cmp"))
        assert not (tmp_path / "cmp").exists()

    def test_run_without_a_dataset_signature_exits_two(self, tmp_path, capsys):
        cfg = _tiny_config(tmp_path, seeds=(0,))
        cli.run_experiment(cfg)
        run = os.path.join(cfg["output_dir"], "seed_0")
        config_path = os.path.join(run, "config.json")
        with open(config_path) as fh:
            config = json.load(fh)
        del config["dataset_signature"]
        with open(config_path, "w") as fh:
            json.dump(config, fh)
        out = tmp_path / "cmp"
        assert cli.main(["compare", run, "--out", str(out)]) == cli.EXIT_CONFIG
        assert "run directories lack dataset signatures; re-run training to compare" in capsys.readouterr().err
        assert not out.exists()

    def test_runs_without_a_test_split_report_the_train_split_only(self, tmp_path):
        cfg = _tiny_config(tmp_path)
        cfg["split"] = {"test_fraction": 0.0, "seed": 0}
        cli.run_experiment(cfg)
        dirs = [os.path.join(cfg["output_dir"], f"seed_{s}") for s in (0, 1)]
        out = tmp_path / "cmp"
        report = cli.compare(dirs, out_dir=str(out), svg=True)
        assert [(row["method"], row["split"], row["n_runs"]) for row in report["table"]] == [("fl", "train", 2)]
        assert sorted(p.name for p in out.iterdir()) == [
            "cdf_fl_train.csv", "cdf_train.svg", "comparison.json", "cvar_fl_train.csv", "cvar_train.svg",
            "table.csv"]

    def test_accuracy_is_over_the_runs_with_an_epoch_end_row(self, tmp_path):
        # A row's losses are over every run with final losses, its accuracy over
        # those with a trajectory row: a run that aborted before its first epoch
        # end adds no accuracy, and one that aborted later adds its last
        # completed epoch's, while its final losses are at the abort theta.
        ds = data.gen_two_moons(40, 0.1, 0)
        records = []
        for eta_lambda in (5.0, 1e300, 40.0):
            cfg = trainers.TrainerConfig(method="fl", eta_theta=1e-2, eta_lambda=eta_lambda, eps=0.3,
                                         batch_size=8, epochs=4, seed=0)
            records.append(trainers.train(cfg, models.MLP((2, 8, 2)), ds))
            trainers.save_run(records[-1], tmp_path / f"run_{len(records)}")
        done, aborted_at_start, aborted_later = records
        assert [r.status for r in records] == ["completed", "aborted", "aborted"]
        assert [len(r.trajectory) for r in records] == [4, 0, 2]
        assert aborted_later.trajectory[-1]["train_mean_loss"] != float(aborted_later.train_losses.mean())
        report = cli.compare([str(tmp_path / f"run_{i}") for i in (1, 2, 3)], out_dir=str(tmp_path / "cmp"))
        (row,) = report["table"]
        assert row["n_runs"] == 3
        assert row["mean_loss"] == float(np.mean([float(r.train_losses.mean()) for r in records]))
        accs = [done.trajectory[-1]["train_accuracy"], aborted_later.trajectory[-1]["train_accuracy"]]
        assert accs[0] != accs[1]
        assert (row["accuracy"], row["accuracy_std"]) == (float(np.mean(accs)), float(np.std(accs)))

    @pytest.mark.parametrize("q", ["1.0", "-0.5"])
    def test_quantile_outside_unit_interval_exits_two(self, tmp_path, capsys, q):
        cfg = _tiny_config(tmp_path, seeds=(0,))
        cli.run_experiment(cfg)
        out = tmp_path / "cmp"
        code = cli.main(["compare", os.path.join(cfg["output_dir"], "seed_0"),
                         "--quantiles", q, "--out", str(out)])
        assert code == cli.EXIT_CONFIG
        assert f"quantile q must lie in [0, 1), got {float(q)}" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_run_dir_exits_two(self, tmp_path, capsys):
        missing = str(tmp_path / "nowhere" / "seed_0")
        assert cli.main(["compare", missing, "--out", str(tmp_path / "cmp")]) == cli.EXIT_CONFIG
        assert "cannot read run directory" in capsys.readouterr().err

    @pytest.mark.parametrize("name,corrupt", [
        ("meta.json", lambda raw: raw[:50]),
        ("config.json", lambda raw: raw[:-3]),
        ("trajectory.csv", lambda raw: raw.replace(b"\n0,", b"\nzero,", 1)),
        ("checkpoint.bin", lambda raw: raw[:-8]),
        ("meta.json", lambda raw: b"{}"),
        ("config.json", lambda raw: json.dumps({k: v for k, v in json.loads(raw).items()
                                                if k != "method"}).encode()),
        # the last column dropped from the header, from the first row, or from every row
        ("trajectory.csv", lambda raw: re.sub(rb",[^,\n]*\n", b"\n", raw, count=1)),
        ("trajectory.csv", lambda raw: re.sub(rb"\n([^\n]*),[^,\n]*(?=\n)", rb"\n\1", raw, count=1)),
        ("trajectory.csv", lambda raw: re.sub(rb"\n([^\n]*),[^,\n]*(?=\n)", rb"\n\1", raw)),
        # a multiplier row that lost its value or gained a column, and two rows swapped
        ("multipliers.csv", lambda raw: re.sub(rb"\n1,[^\n]*", b"\n1", raw, count=1)),
        ("multipliers.csv", lambda raw: re.sub(rb"\n(1,[^\n]*)", rb"\n\1,0.0", raw, count=1)),
        ("final_losses_train.csv", lambda raw: re.sub(rb"\n(0,[^\n]*)\n(1,[^\n]*)", rb"\n\2\n\1", raw,
                                                      count=1)),
    ], ids=["truncated_meta", "truncated_config", "non_numeric_trajectory_cell", "short_checkpoint",
            "empty_meta_object", "config_without_method", "short_trajectory_header", "short_trajectory_row",
            "short_trajectory_rows", "missing_value", "extra_column", "ids_out_of_order"])
    def test_corrupt_run_dir_exits_two_naming_it(self, tmp_path, capsys, name, corrupt):
        cfg = _tiny_config(tmp_path, seeds=(0,))
        cli.run_experiment(cfg)
        run = os.path.join(cfg["output_dir"], "seed_0")
        with open(os.path.join(run, name), "rb") as fh:
            raw = fh.read()
        with open(os.path.join(run, name), "wb") as fh:
            fh.write(corrupt(raw))
        out = tmp_path / "cmp"
        assert cli.main(["compare", run, "--out", str(out)]) == cli.EXIT_CONFIG
        assert f"cannot read run directory {run}: " in capsys.readouterr().err
        assert not out.exists()

    def test_aborted_run_without_final_losses_is_left_out_of_the_table(self, tmp_path):
        def cosine(name, eta_theta):
            return {"name": name,
                    "dataset": {"generator": "noisy_cosine", "n": 20, "sigma": 0.2, "seed": 0},
                    "split": {"test_fraction": 0.25, "seed": 0}, "model": {"family": "linear"},
                    "trainer": {"method": "erm", "eta_theta": eta_theta, "epochs": 50},
                    "seeds": [0], "output_dir": str(tmp_path / name)}

        cli.run_experiment(cosine("done", 0.01))
        assert cli.run_experiment(cosine("diverged", 1e30))["any_aborted"]
        done, diverged = (str(tmp_path / name / "seed_0") for name in ("done", "diverged"))
        assert trainers.load_run(diverged).train_losses is None
        alone = cli.compare([done], out_dir=str(tmp_path / "alone"))
        pooled = cli.compare([done, diverged], out_dir=str(tmp_path / "pooled"))
        assert pooled["n_runs"] == 2
        assert [row["n_runs"] for row in pooled["table"]] == [1, 1]
        assert pooled["table"] == alone["table"]
        assert (tmp_path / "pooled" / "table.csv").read_text() == (tmp_path / "alone" / "table.csv").read_text()

    def test_svg_rendering(self, tmp_path):
        dirs = self._two_method_runs(tmp_path)
        out = tmp_path / "cmp_svg"
        cli.compare(dirs, out_dir=str(out), svg=True)
        svg = (out / "cdf_train.svg").read_text()
        assert svg.startswith("<svg") and "polyline" in svg


class TestVerify:
    def test_props_suite_passes(self):
        report = cli.verify("props")
        assert report["passed"]
        assert {c["check"] for c in report["checks"]} == {"cserm_identity",
                                                          "slack_elimination_suite"}

    def test_gradient_fault_injection_fails_with_coordinate(self, monkeypatch, capsys):
        original = models.LinearModel.backward

        def corrupted(self, cache, grad_pred):
            grad = original(self, cache, grad_pred)
            grad = grad.copy()
            grad[0] += 0.5
            return grad

        monkeypatch.setattr(models.LinearModel, "backward", corrupted)
        assert cli.main(["verify", "gradients"]) == cli.EXIT_VERIFY
        out = capsys.readouterr().out
        report = json.loads(out)
        linear = next(c for c in report["checks"])["families"]["linear"]
        assert linear["rel_error"] > 1e-5
        assert "coordinate" in linear

    def test_slack_fault_injection_fails_props(self, monkeypatch, capsys):
        # a slack that is not lam / alpha does not minimize the slack-form value
        monkeypatch.setattr(fs, "slack_view", lambda lam, alpha: np.asarray(lam) / alpha + 0.05)
        assert cli.main(["verify", "props"]) == cli.EXIT_VERIFY
        report = json.loads(capsys.readouterr().out)
        slack = next(c for c in report["checks"] if c["check"] == "slack_elimination_suite")
        assert not slack["passed"] and slack["n_failures"] > 0
        assert slack["worst_inner_gap"] > 1e-10

    def test_verify_all_union(self, tmp_path):
        report = cli.verify("all", report_path=str(tmp_path / "report.json"))
        assert report["passed"]
        assert len(report["checks"]) == 3
        assert json.load(open(tmp_path / "report.json"))["suite"] == "all"

    def test_unknown_suite_rejected(self):
        with pytest.raises(ConfigError):
            cli.verify("everything")


class TestGenConfig:
    def test_writes_valid_template(self, tmp_path):
        path = cli.gen_config("two_moons_fl", str(tmp_path / "t.json"))
        cfg = cli.load_config(path)
        assert cfg["trainer"]["method"] == "fl"
        assert cfg["model"]["layers"] == [2, 70, 70, 2]

    def test_main_writes_the_template_and_names_the_file(self, tmp_path, capsys):
        out = tmp_path / "t.json"
        assert cli.main(["gen-config", "noisy_cosine_fl", "--out", str(out)]) == cli.EXIT_OK
        assert capsys.readouterr().out == f"wrote {out}\n"
        assert json.loads(out.read_text()) == cli.config_templates()["noisy_cosine_fl"]

    def test_unknown_template_exits_two(self):
        assert cli.main(["gen-config", "mystery"]) == cli.EXIT_CONFIG

    def test_generated_configs_are_runnable(self, tmp_path):
        # shrink a template and run it end to end
        path = cli.gen_config("conflicting_pairs_rfl", str(tmp_path / "cp.json"))
        cfg = json.load(open(path))
        cfg["trainer"]["epochs"] = 5
        cfg["output_dir"] = str(tmp_path / "cp_run")
        summary = cli.run_experiment(cfg)
        assert not summary["any_aborted"]


@pytest.mark.parametrize("verb", ["gen-config", "verify", "compare", "run"])
def test_unwritable_output_path_exits_two_naming_it(tmp_path, capsys, monkeypatch, verb):
    # run and verify refuse the path before they train or run a check
    blocker = tmp_path / "a_file"
    blocker.write_text("not a directory\n")
    missing = tmp_path / "missing"
    if verb == "gen-config":
        path = missing / "x.json"
        argv = ["gen-config", "two_moons_fl", "--out", str(path)]
    elif verb == "verify":
        path = missing / "r.json"
        argv = ["verify", "props", "--report", str(path)]
    elif verb == "compare":
        cfg = _tiny_config(tmp_path, seeds=(0,))
        cli.run_experiment(cfg)
        path = blocker / "cmp"
        argv = ["compare", os.path.join(cfg["output_dir"], "seed_0"), "--out", str(path)]
    else:
        cfg = _tiny_config(tmp_path, seeds=(0,))  # one seed trains in this process, where it is counted
        path = blocker / "out"
        cfg["output_dir"] = str(path)
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        argv = ["run", str(tmp_path / "cfg.json")]
    calls = []
    for module, name in ((trainers, "train"), (cli.oracle, "check_cserm_identity")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, real=real, name=name: calls.append(name) or real(*a))
    before = sorted(tmp_path.rglob("*"))
    assert cli.main(argv) == cli.EXIT_CONFIG
    strerror = os.strerror(errno.ENOENT if verb in ("gen-config", "verify") else errno.ENOTDIR)
    assert f"config error: cannot write {path}: {strerror}\n" in capsys.readouterr().err
    assert calls == []
    assert sorted(tmp_path.rglob("*")) == before
    assert blocker.read_text() == "not a directory\n"


def test_report_in_a_directory_without_write_access_exits_two_before_any_check(tmp_path, capsys,
                                                                               monkeypatch):
    # os.access ignores permission bits for root, so the denial is simulated
    path = tmp_path / "r.json"
    monkeypatch.setattr(cli.oracle, "check_cserm_identity", lambda *a: pytest.fail("a check ran"))
    monkeypatch.setattr(os, "access", lambda at, mode: at != str(tmp_path))
    assert cli.main(["verify", "props", "--report", str(path)]) == cli.EXIT_CONFIG
    assert f"config error: cannot write {path}: {os.strerror(errno.EACCES)}\n" in capsys.readouterr().err
    assert not path.exists()


def test_cli_import_leaves_scipy_stats_unloaded(tmp_path):
    # and so does a classification fl run, which computes the margin correlation
    cfg = _tiny_config(tmp_path, seeds=(0,))
    code = ("import sys, feaslearn.cli\n"
            "print('scipy.stats' in sys.modules)\n"
            f"summary = feaslearn.cli.run_experiment({cfg!r})\n"
            "print('margin_multiplier_spearman' in summary['per_seed']['0'], 'scipy.stats' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert out.stdout.split() == ["False", "True", "False"]
