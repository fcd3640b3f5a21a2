import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
import yaml

import hiermogp
from hiermogp.cli import ConfigError, RunConfig, load_config, main, run_experiment, run_eval
from hiermogp.data import (
    HierarchicalDataset,
    OutputRecord,
    ReplicaBlock,
    SplitPlan,
    SyntheticConfig,
    generate_synthetic,
    load_csv,
    save_csv,
    split,
)


def base_config(out_dir, iterations=40, repeats=2, seed=0):
    return {
        "seed": seed,
        "output_dir": str(out_dir),
        "dataset": {
            "synthetic": {
                "n_outputs": 3,
                "n_replicas": 2,
                "points_per_replica": 8,
                "noise_variance": 0.05,
            }
        },
        "model": {"latent_dim": 2, "inducing_per_replica": 3, "inducing_latent": 2},
        "optimizer": {"learning_rate": 0.02, "iterations": iterations},
        "split": {"mode": "random_fraction", "fraction": 0.5},
        "experiment": {"repeats": repeats},
    }


def write_config(tmp_path, config):
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(config))
    return path


def test_config_validation_reports_field_paths():
    with pytest.raises(ConfigError, match="dataset"):
        RunConfig({"seed": 0})
    with pytest.raises(ConfigError, match="dataset.synthetic.n_outputs"):
        RunConfig({"dataset": {"synthetic": {"n_outputs": "many"}}})
    with pytest.raises(ConfigError, match="split.mode"):
        RunConfig({"dataset": {"synthetic": {}}, "split": {"mode": "bogus"}})
    with pytest.raises(ConfigError, match="shared_kernel.family"):
        RunConfig(
            {"dataset": {"synthetic": {"shared_kernel": {"family": "cubic"}}}}
        )


def test_config_rejects_unknown_fields(tmp_path, capsys):
    cases = {
        "optimizer.lerning_rate": {"optimizer": {"lerning_rate": 0.5}},
        "optimizer.gradient_mode": {"optimizer": {"gradient_mode": "numeric"}},
        "optimizer.fd_step": {"optimizer": {"fd_step": 1e-5}},
        "dataset.synthetic.shared_kernel.famly": {
            "dataset": {"synthetic": {"shared_kernel": {"famly": "rbf"}}}
        },
        "model.inducing": {"model": {"inducing": 4}},
        "sede": {"sede": 1},
    }
    for field, extra in cases.items():
        raw = {"dataset": {"synthetic": {}}, **extra}
        with pytest.raises(ConfigError, match=rf"^{field}: unknown field$"):
            RunConfig(raw)
    config = base_config(tmp_path / "run")
    config["optimizer"]["lerning_rate"] = 0.5
    assert main(["fit", "--config", str(write_config(tmp_path, config))]) == 2
    assert "optimizer.lerning_rate: unknown field" in capsys.readouterr().err


def test_generate_fit_predict_eval_chain(tmp_path):
    config_path = write_config(tmp_path, base_config(tmp_path / "run", iterations=30))
    assert main(["generate", "--config", str(config_path), "--out", str(tmp_path / "gen")]) == 0
    assert (tmp_path / "gen" / "dataset.csv").exists()

    assert main(["fit", "--config", str(config_path), "--out", str(tmp_path / "fit")]) == 0
    model = tmp_path / "fit" / "model.json"
    assert model.exists()
    assert (tmp_path / "fit" / "elbo_trace.csv").exists()
    manifest = json.loads((tmp_path / "fit" / "manifest.json").read_text())
    assert manifest["version"]
    assert np.isfinite(manifest["final_elbo"])

    # predictions at the held-out points, then scoring
    assert main(
        [
            "predict",
            "--model",
            str(model),
            "--at",
            str(tmp_path / "fit" / "test.csv"),
            "--out",
            str(tmp_path / "fit" / "predictions.csv"),
        ]
    ) == 0
    assert main(
        [
            "eval",
            "--predictions",
            str(tmp_path / "fit" / "predictions.csv"),
            "--truth",
            str(tmp_path / "fit" / "test.csv"),
            "--out",
            str(tmp_path / "fit" / "eval"),
        ]
    ) == 0
    metrics = json.loads((tmp_path / "fit" / "eval" / "metrics.json").read_text())
    assert metrics["n_test"] > 0
    assert np.isfinite(metrics["nmse"])
    assert (tmp_path / "fit" / "eval" / "metrics.csv").exists()


def test_eval_on_perfect_predictions(tmp_path):
    truth = tmp_path / "truth.csv"
    truth.write_text(
        "output,replica,x_0,y\n0,0,0.1,1.0\n0,0,0.2,2.0\n1,0,0.3,3.0\n1,0,0.4,4.0\n"
    )
    pred = tmp_path / "pred.csv"
    pred.write_text(
        "output,replica,x_0,mean,variance\n0,0,0.1,1.0,1.0\n0,0,0.2,2.0,1.0\n"
        "1,0,0.3,3.0,1.0\n1,0,0.4,4.0,1.0\n"
    )
    payload = run_eval(pred, truth, tmp_path / "out")
    assert payload["nmse"] == 0.0


def test_grid_prediction(tmp_path):
    config_path = write_config(tmp_path, base_config(tmp_path / "run", iterations=10))
    main(["fit", "--config", str(config_path), "--out", str(tmp_path / "fit")])
    assert main(
        [
            "predict",
            "--model",
            str(tmp_path / "fit" / "model.json"),
            "--grid",
            "5,0,1",
            "--out",
            str(tmp_path / "grid.csv"),
        ]
    ) == 0
    lines = (tmp_path / "grid.csv").read_text().splitlines()
    assert lines[0] == "output,replica,x_0,mean,variance"
    assert len(lines) == 1 + 5 * 3 * 2  # grid x outputs x replicas


def test_predict_rejects_output_index_the_model_lacks(tmp_path, capsys):
    config_path = write_config(tmp_path, base_config(tmp_path / "run", iterations=5))
    assert main(["fit", "--config", str(config_path), "--out", str(tmp_path / "fit")]) == 0
    points = tmp_path / "points.csv"
    points.write_text("output,replica,x_0,y\n0,0,0.1,0.0\n3,1,0.2,0.0\n")
    code = main(
        [
            "predict",
            "--model",
            str(tmp_path / "fit" / "model.json"),
            "--at",
            str(points),
            "--out",
            str(tmp_path / "pred.csv"),
        ]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "output indices up to 3" in err
    assert "3 outputs" in err
    assert not (tmp_path / "pred.csv").exists()


def test_experiment_keeps_standardization_constants(tmp_path):
    gen_config = base_config(tmp_path / "gen", iterations=5, repeats=1)
    main(["generate", "--config", str(write_config(tmp_path, gen_config)), "--out", str(tmp_path / "gen")])
    config = base_config(tmp_path / "runZ", iterations=5, repeats=1)
    config["dataset"] = {"csv": {"path": str(tmp_path / "gen" / "dataset.csv"), "standardize": True}}
    config_path = tmp_path / "config_std.yaml"
    config_path.write_text(yaml.safe_dump(config))
    assert main(["experiment", "--config", str(config_path)]) == 0
    assert main(["fit", "--config", str(config_path), "--out", str(tmp_path / "fitZ")]) == 0
    kept = json.loads((tmp_path / "runZ" / "model_rep0.json").read_text())["standardization"]
    fitted = json.loads((tmp_path / "fitZ" / "model.json").read_text())["standardization"]
    assert kept == fitted
    assert set(kept) == {"x_mean", "x_std", "y_mean", "y_std"}


def test_experiment_on_standardized_csv_scores_in_original_units(tmp_path):
    # targets and inputs far from unit scale, so NLPD in standardised units differs
    dataset = generate_synthetic(SyntheticConfig(n_outputs=3, n_replicas=2, points_per_replica=8), seed=4)
    scaled = HierarchicalDataset(
        outputs=[
            OutputRecord(replicas=[ReplicaBlock(3.0 * b.inputs - 1.0, 40.0 * b.targets + 7.0) for b in o.replicas])
            for o in dataset.outputs
        ]
    )
    save_csv(scaled, tmp_path / "scaled.csv")
    config = base_config(tmp_path / "runZ", iterations=10, repeats=1)
    config["dataset"] = {"csv": {"path": str(tmp_path / "scaled.csv"), "standardize": True}}
    summary = run_experiment(RunConfig(config), tmp_path / "runZ")

    _, test = split(load_csv(tmp_path / "scaled.csv"), SplitPlan(mode="random_fraction", fraction=0.5, seed=0))
    save_csv(test, tmp_path / "test_original.csv")
    scored = run_eval(tmp_path / "runZ" / "predictions_rep0.csv", tmp_path / "test_original.csv", tmp_path / "eval")
    assert np.isclose(summary["nlpd_values"][0], scored["nlpd"], rtol=1e-9, atol=0.0)
    assert np.isclose(summary["nmse_values"][0], scored["nmse"], rtol=1e-9, atol=0.0)
    written = load_csv(tmp_path / "runZ" / "test_rep0.csv")
    assert np.allclose(
        np.concatenate(written.training_arrays()[1]), np.concatenate(test.training_arrays()[1]), rtol=1e-12
    )


def test_experiment_summary_and_determinism(tmp_path):
    config = base_config(tmp_path / "runA", iterations=25, repeats=2)
    config_path = write_config(tmp_path, config)
    assert main(["experiment", "--config", str(config_path)]) == 0
    run_a = tmp_path / "runA"
    summary = json.loads((run_a / "summary.json").read_text())
    assert len(summary["nmse_values"]) == 2
    assert summary["nmse_sd"] >= 0.0

    config_b = dict(config)
    config_b["output_dir"] = str(tmp_path / "runB")
    (tmp_path / "b").mkdir()
    config_path_b = write_config(tmp_path / "b", config_b)
    assert main(["experiment", "--config", str(config_path_b)]) == 0
    run_b = tmp_path / "runB"
    for rep in range(2):
        a = (run_a / f"metrics_rep{rep}.json").read_bytes()
        b = (run_b / f"metrics_rep{rep}.json").read_bytes()
        assert a == b
        a_pred = (run_a / f"predictions_rep{rep}.csv").read_bytes()
        b_pred = (run_b / f"predictions_rep{rep}.csv").read_bytes()
        assert a_pred == b_pred


def test_experiment_missing_replica_random(tmp_path):
    config = base_config(tmp_path / "runM", iterations=25, repeats=1)
    config["dataset"]["synthetic"]["n_replicas"] = 3
    config["split"] = {"mode": "missing_replica", "missing": "random"}
    config_path = write_config(tmp_path, config)
    summary = run_experiment(load_config(config_path), tmp_path / "runM")
    assert np.isfinite(summary["nlpd_mean"])
    # every output lost exactly one replica in the train file
    train = (tmp_path / "runM" / "train_rep0.csv").read_text().splitlines()[1:]
    seen = {(int(row.split(",")[0]), int(row.split(",")[1])) for row in train}
    for d in range(3):
        replicas = {r for dd, r in seen if dd == d}
        assert len(replicas) == 2


def test_flat_ablation_runs_same_pipeline(tmp_path):
    config = base_config(tmp_path / "runF", iterations=20, repeats=1)
    config_path = write_config(tmp_path, config)
    assert main(["experiment", "--config", str(config_path), "--ablation", "flat"]) == 0
    model = json.loads((tmp_path / "runF" / "model_rep0.json").read_text())
    assert model["hier_kernel"]["shared"] is None
    manifest = json.loads((tmp_path / "runF" / "manifest.json").read_text())
    assert manifest["ablation"] == "flat"


def test_csv_dataset_experiment(tmp_path):
    # generate once, then run the experiment from the CSV source
    gen_config = base_config(tmp_path / "gen", iterations=10, repeats=1)
    config_path = write_config(tmp_path, gen_config)
    main(["generate", "--config", str(config_path), "--out", str(tmp_path / "gen")])
    config = base_config(tmp_path / "runC", iterations=20, repeats=2)
    config["dataset"] = {"csv": {"path": str(tmp_path / "gen" / "dataset.csv")}}
    config_path2 = tmp_path / "config_csv.yaml"
    config_path2.write_text(yaml.safe_dump(config))
    assert main(["experiment", "--config", str(config_path2)]) == 0
    assert (tmp_path / "runC" / "summary.json").exists()


def test_console_entry_point_runs():
    # the child imports the same hiermogp as this process, installed or not
    package_root = str(pathlib.Path(hiermogp.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, "-m", "hiermogp.cli", "--help"], capture_output=True, text=True, env=env
    )
    assert result.returncode == 0
    assert "generate" in result.stdout
    assert "experiment" in result.stdout


def test_seed_override(tmp_path):
    config = base_config(tmp_path / "runS", iterations=10, repeats=1)
    config_path = write_config(tmp_path, config)
    main(["experiment", "--config", str(config_path), "--seed", "7"])
    manifest = json.loads((tmp_path / "runS" / "manifest.json").read_text())
    assert manifest["seeds"] == [7]


@pytest.mark.parametrize("grid", ["3,0,x", "3.5,0,1", "3,nan,1"])
def test_predict_rejects_malformed_grid(tmp_path, capsys, grid):
    config_path = write_config(tmp_path, base_config(tmp_path / "run", iterations=5))
    assert main(["fit", "--config", str(config_path), "--out", str(tmp_path / "fit")]) == 0
    capsys.readouterr()
    model = str(tmp_path / "fit" / "model.json")
    code = main(["predict", "--model", model, "--grid", grid, "--out", str(tmp_path / "grid.csv")])
    assert code == 2
    assert "--grid" in capsys.readouterr().err
    assert not (tmp_path / "grid.csv").exists()


@pytest.mark.parametrize("fraction", [0.0, 1.0, 1.5, -0.2])
def test_split_fraction_outside_unit_interval_is_a_config_error(tmp_path, capsys, fraction):
    config = base_config(tmp_path / "run")
    config["split"]["fraction"] = fraction
    with pytest.raises(ConfigError, match="^split: fraction"):
        RunConfig(config)
    assert main(["fit", "--config", str(write_config(tmp_path, config))]) == 2
    assert "split: fraction must lie strictly between 0 and 1" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()
