import dataclasses
import functools
import json
import operator
import pathlib
import re

import numpy as np
import pytest
import yaml

from hiermogp import cli, prediction
from hiermogp.cli import ConfigError, RunConfig, load_config, main, run_experiment, run_eval
from hiermogp.data import (
    CsvSchemaError,
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
from hiermogp.elbo import elbo_per_output
from hiermogp.kernels import MATERN32, RBF
from hiermogp.model import state_from_dict
from hiermogp.prediction import predict_marginal
from hiermogp.training import ModelConfig, OptimizerConfig

from .helpers import random_state, run_child


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


def _kernel_section(lengthscale_field, value):
    """The shared kernel a 2-D synthetic config reads from one lengthscale field."""
    section = {"family": "rbf", lengthscale_field: value}
    return RunConfig({"dataset": {"synthetic": {"input_dim": 2, "shared_kernel": section}}}).synthetic.shared_kernel


def test_kernel_lengthscale_is_one_number_or_one_per_input_dimension():
    assert np.array_equal(_kernel_section("lengthscale", 0.5).lengthscales, [0.5, 0.5])
    assert np.array_equal(_kernel_section("lengthscale", 3).lengthscales, [3.0, 3.0])
    assert np.array_equal(_kernel_section("lengthscale", [0.5, 2.0]).lengthscales, [0.5, 2.0])


@pytest.mark.parametrize(
    "field, value, problem",
    [
        ("lengthscale", [0.5, 1.0, 2.0], "lengthscale: expected 2 values"),
        ("lengthscale", [], "lengthscale: expected 2 values"),
        ("lengthscale", "wide", "lengthscale: expected a number or a list of numbers"),
        ("lengthscale", [0.5, True], "lengthscale: expected a number or a list of numbers"),
        ("lengthscales", [0.5, 2.0], "lengthscales: unknown field"),
    ],
)
def test_kernel_lengthscale_rejects_a_wrong_count_type_or_spelling(tmp_path, capsys, field, value, problem):
    with pytest.raises(ConfigError, match=f"^dataset.synthetic.shared_kernel.{re.escape(problem)}$"):
        _kernel_section(field, value)
    config = base_config(tmp_path / "run")
    config["dataset"]["synthetic"].update(input_dim=2, shared_kernel={field: value})
    assert main(["fit", "--config", str(write_config(tmp_path, config))]) == 2
    assert f"dataset.synthetic.shared_kernel.{problem}" in capsys.readouterr().err


def test_config_rejects_unknown_fields(tmp_path, capsys):
    cases = {
        "optimizer.lerning_rate": {"optimizer": {"lerning_rate": 0.5}},
        "optimizer.gradient_mode": {"optimizer": {"gradient_mode": "numeric"}},
        "optimizer.fd_step": {"optimizer": {"fd_step": 1e-5}},
        "optimizer.adam_beta1": {"optimizer": {"adam_beta1": 0.9}},
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


def test_config_accepts_every_model_and_optimizer_field(tmp_path, capsys):
    # every field of the model, optimizer and synthetic-dataset config
    # dataclasses but those the CLI sets itself (flat from the ablation, seed
    # from the run seed) and the dataset's kernels (sections of
    # their own) is read from YAML with the type of its default
    other = {MATERN32: RBF, RBF: MATERN32, "per_output": "shared"}
    config = base_config(tmp_path / "run")
    sections = {
        "model": (config, ModelConfig),
        "optimizer": (config, OptimizerConfig),
        "synthetic": (config["dataset"], SyntheticConfig),
    }
    for section, (parent, config_class) in sections.items():
        parent[section] = {}
        for field in dataclasses.fields(config_class):
            default = field.default
            if field.name in ("flat", "seed") or field.name in cli._SYNTHETIC_KERNELS:
                continue
            if isinstance(default, str):
                parent[section][field.name] = other[default]
            elif isinstance(default, bool):
                parent[section][field.name] = not default
            elif isinstance(default, int):
                parent[section][field.name] = default + 1
            else:
                parent[section][field.name] = default / 2.0
    loaded = load_config(write_config(tmp_path, config))
    for section, (parent, _) in sections.items():
        for name, value in parent[section].items():
            assert getattr(getattr(loaded, section), name) == value, (section, name)
    assert len(config["dataset"]["synthetic"]) == 7
    for section in ("model", "optimizer"):
        bad = base_config(tmp_path / "run")
        bad[section]["bogus"] = 1
        assert main(["fit", "--config", str(write_config(tmp_path, bad))]) == 2
        assert f"{section}.bogus: unknown field" in capsys.readouterr().err


def test_readme_grammar_lists_exactly_the_fields_the_config_accepts():
    # flat and seed are left out on both sides: the CLI sets them itself
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"### Config grammar \(YAML\)\n\n```yaml\n(.*?)```", readme, re.S).group(1)
    grammar = yaml.safe_load(block)
    accepted = {
        "model": set(cli._MODEL_FIELDS),
        "optimizer": set(cli._OPTIMIZER_FIELDS),
        "dataset.synthetic": {*cli._SYNTHETIC_SCALARS, *cli._SYNTHETIC_KERNELS},
    }
    listed = {
        "model": set(grammar["model"]),
        "optimizer": set(grammar["optimizer"]),
        "dataset.synthetic": set(grammar["dataset"]["synthetic"]),
    }
    assert listed == accepted


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
    nlpd = "0.91893853320467267"  # log(2 pi) / 2 to 17 significant digits
    assert (tmp_path / "out" / "metrics.csv").read_text() == (
        f"output,nmse,nlpd\npooled,0,{nlpd}\n0,0,{nlpd}\n1,0,{nlpd}\n"
    )


def test_eval_reads_predictions_with_a_byte_order_mark(tmp_path):
    truth = tmp_path / "truth.csv"
    truth.write_text("output,replica,x_0,y\n0,0,0.1,1.0\n0,0,0.2,2.0\n1,0,0.3,3.0\n")
    rows = "output,replica,x_0,mean,variance\n0,0,0.1,1.5,1.0\n0,0,0.2,2.0,0.5\n1,0,0.3,2.5,2.0\n"
    for name, encoding in (("plain", "utf-8"), ("marked", "utf-8-sig")):
        (tmp_path / f"{name}.csv").write_text(rows, encoding=encoding)
        argv = ["eval", "--predictions", str(tmp_path / f"{name}.csv"), "--truth", str(truth), "--out", str(tmp_path / name)]
        assert main(argv) == 0
    assert (tmp_path / "marked" / "metrics.csv").read_text() == (tmp_path / "plain" / "metrics.csv").read_text()


def test_grid_prediction(tmp_path, monkeypatch):
    # every output is predicted at the same tagged grid points, so only the
    # first output's call computes their cross covariance; the table holds
    # the bits each output gets from a state that has predicted nothing else
    config_path = write_config(tmp_path, base_config(tmp_path / "run", iterations=10))
    main(["fit", "--config", str(config_path), "--out", str(tmp_path / "fit")])
    model, out = tmp_path / "fit" / "model.json", tmp_path / "grid.csv"
    crosses = []
    cross = prediction.hier_cross_cov

    def counted(*args):
        crosses.append(args[1].shape)
        return cross(*args)

    monkeypatch.setattr(prediction, "hier_cross_cov", counted)
    outputs = _count_predict_calls(monkeypatch)
    assert main(["predict", "--model", str(model), "--grid", "5,0,1", "--out", str(out)]) == 0
    assert outputs == [0, 1, 2] and crosses == [(5 * 2, 1)]  # the grid in both replicas
    monkeypatch.undo()
    lines = out.read_text().splitlines()
    assert lines[0] == "output,replica,x_0,mean,variance"
    assert len(lines) == 1 + 5 * 3 * 2  # grid x outputs x replicas
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    state = state_from_dict(json.loads(model.read_text()))
    for d in range(state.n_outputs):
        mine = rows[:, 0] == d
        cold = predict_marginal(dataclasses.replace(state), rows[mine, 2:3], rows[mine, 1].astype(int), d)
        assert np.array_equal(rows[mine, 3], cold.mean) and np.array_equal(rows[mine, 4], cold.variance)


def _predict_at(tmp_path, points_text):
    """Fit a 1-D model, then predict at a points file; returns the exit code."""
    config_path = write_config(tmp_path, base_config(tmp_path / "run", iterations=5))
    assert main(["fit", "--config", str(config_path), "--out", str(tmp_path / "fit")]) == 0
    points = tmp_path / "points.csv"
    points.write_text(points_text)
    model = str(tmp_path / "fit" / "model.json")
    return main(["predict", "--model", model, "--at", str(points), "--out", str(tmp_path / "pred.csv")])


def test_predict_rejects_output_index_the_model_lacks(tmp_path, capsys):
    assert _predict_at(tmp_path, "output,replica,x_0,y\n0,0,0.1,0.0\n3,1,0.2,0.0\n") == 2
    err = capsys.readouterr().err
    assert "output indices up to 3" in err
    assert "3 outputs" in err
    assert not (tmp_path / "pred.csv").exists()


def test_predict_at_points_without_targets(tmp_path):
    assert _predict_at(tmp_path, "output,replica,x_0\n0,0,0.1\n2,1,0.2\n") == 0
    lines = (tmp_path / "pred.csv").read_text().splitlines()
    assert lines[0] == "output,replica,x_0,mean,variance"
    rows = [line.split(",") for line in lines[1:]]
    assert [row[:2] for row in rows] == [["0", "0"], ["2", "1"]]
    assert np.isfinite([float(v) for row in rows for v in row[2:]]).all()


def test_predict_rejects_points_of_another_input_dimension(tmp_path, capsys):
    assert _predict_at(tmp_path, "output,replica,x_0,x_1,y\n0,0,0.1,0.5,0.0\n") == 2
    assert "2 input columns, model has input dimension 1" in capsys.readouterr().err
    assert not (tmp_path / "pred.csv").exists()


@pytest.mark.parametrize("command", ["fit", "eval"])
def test_malformed_data_file_exits_2_with_its_line(tmp_path, capsys, command):
    data = tmp_path / "data.csv"
    data.write_text("output,replica,x_0,y\n0,0,0.1,1.0\n0,0,0.2,oops\n")
    if command == "fit":
        config = base_config(tmp_path / "run", iterations=2)
        config["dataset"] = {"csv": {"path": str(data)}}
        argv = ["fit", "--config", str(write_config(tmp_path, config))]
    else:
        pred = tmp_path / "pred.csv"
        pred.write_text("output,replica,x_0,mean,variance\n0,0,0.1,1.0,1.0\n0,0,0.2,1.0,1.0\n")
        argv = ["eval", "--predictions", str(pred), "--truth", str(data), "--out", str(tmp_path / "o")]
    assert main(argv) == 2
    assert f"{data}:3: non-numeric field" in capsys.readouterr().err


_GOOD_TABLES = {  # two aligned rows of each table, with its header
    "truth": ("output,replica,x_0,y", ["0,0,0.1,1.0", "0,0,0.2,2.0"]),
    "predictions": ("output,replica,x_0,mean,variance", ["0,0,0.1,1.0,1.0", "0,0,0.2,2.0,1.0"]),
}


@pytest.mark.parametrize("table", ["truth", "predictions"])
@pytest.mark.parametrize(
    "text, problem",
    [
        ("{header}\n{good}\n0x,0,0.2,{tail}\n", ":3: non-numeric field (invalid literal for int() with base 10: '0x')"),
        ("{header}\n{good}\n0,0,oops,{tail}\n", ":3: non-numeric field (could not convert string to float: 'oops')"),
        ("{header}\n{good}\n0,0,0.2\n", ":3: expected {width} fields, got 3"),
        ("{header}\n{good}\n0,0,nan,{tail}\n", ":3: non-finite value"),
        ("{header}\n{good}\n0,0,0.2,inf{rest}\n", ":3: non-finite value"),
        ("{header}\n{good}\n0,-1,0.2,{tail}\n", ":3: output and replica indices must be >= 0"),
        ("{header}\n{good}\n9223372036854775808,0,0.2,{tail}\n", ":3: output and replica indices must be below 2**63"),
        ("{header}\n\n", ": no observations"),
        ("", ": empty file"),
        ("output,replica,x_1,{names}\n{good}\n", ":1: input columns must be x_0, x_1, ..."),
    ],
    ids=["index", "input", "fields", "nan_input", "inf_tail", "negative_index", "int64_index", "no_rows", "empty", "input_names"],
)
def test_malformed_table_is_the_same_data_error_as_truth_or_as_predictions(tmp_path, capsys, table, text, problem):
    # a dataset and a predictions table go through one reader and its checks
    paths = {name: tmp_path / f"{name}.csv" for name in _GOOD_TABLES}
    for name, (header, rows) in _GOOD_TABLES.items():
        paths[name].write_text("\n".join([header, *rows]) + "\n")
    header, rows = _GOOD_TABLES[table]
    tail = rows[1].split(",")[3:]
    fields = {"header": header, "good": rows[0], "tail": ",".join(tail), "rest": "".join("," + c for c in tail[1:])}
    paths[table].write_text(text.format(**fields, names=",".join(header.split(",")[3:])))
    argv = ["eval", "--predictions", str(paths["predictions"]), "--truth", str(paths["truth"]), "--out", str(tmp_path / "o")]
    assert main(argv) == 2
    width = len(header.split(","))
    assert capsys.readouterr().err == f"data error: {paths[table]}{problem.format(width=width)}\n"


@pytest.mark.parametrize("command", ["fit", "experiment"])
def test_malformed_yaml_config_exits_2_with_its_line(tmp_path, capsys, command):
    config = tmp_path / "config.yaml"
    config.write_text("seed: [1,\n")
    assert main([command, "--config", str(config)]) == 2
    assert capsys.readouterr().err == f"config error: {config}:2: expected the node content, but found '<stream end>'\n"


@pytest.mark.parametrize("with_split", [True, False], ids=["split", "no_split"])
@pytest.mark.parametrize(
    "sidecar_text, problem",
    [("{bad", "Expecting property name enclosed in double quotes"), ("[1, 2]", "expected a JSON object")],
    ids=["bad_json", "not_an_object"],
)
def test_malformed_sidecar_exits_2_with_its_path(tmp_path, capsys, sidecar_text, problem, with_split):
    data = tmp_path / "data.csv"
    save_csv(generate_synthetic(SyntheticConfig(n_outputs=2, n_replicas=2, points_per_replica=4), seed=0), data)
    sidecar = tmp_path / "data.csv.meta.json"
    sidecar.write_text(sidecar_text)
    config = base_config(tmp_path / "run", iterations=2)
    config["dataset"] = {"csv": {"path": str(data)}}
    if not with_split:
        del config["split"]
    assert main(["fit", "--config", str(write_config(tmp_path, config))]) == 2
    assert capsys.readouterr().err.startswith(f"data error: {sidecar}: {problem}")
    assert not (tmp_path / "run" / "model.json").exists()


_UNREADABLE = [  # command, the flag whose file is bad, how it is bad, exit code, message
    ("fit", "--config", "directory", 3, "file error: [Errno 21] Is a directory: '{bad}'"),
    ("eval", "--predictions", "directory", 3, "file error: [Errno 21] Is a directory: '{bad}'"),
    ("eval", "--truth", "directory", 3, "file error: [Errno 21] Is a directory: '{bad}'"),
    ("predict", "--model", "directory", 3, "file error: [Errno 21] Is a directory: '{bad}'"),
    ("predict", "--at", "directory", 3, "file error: [Errno 21] Is a directory: '{bad}'"),
    ("eval", "--predictions", "missing", 3, "missing file: [Errno 2] No such file or directory: '{bad}'"),
    ("eval", "--predictions", "binary", 2, "data error: {bad}: not a UTF-8 text file"),
    ("eval", "--truth", "binary", 2, "data error: {bad}: not a UTF-8 text file"),
    ("predict", "--at", "binary", 2, "data error: {bad}: not a UTF-8 text file"),
    ("predict", "--model", "binary", 2, "config error: {bad}: not a UTF-8 text file"),
    ("fit", "--config", "binary", 2, "config error: {bad}: not a UTF-8 text file"),
]


@pytest.mark.parametrize(
    "command, flag, kind, code, message",
    _UNREADABLE,
    ids=[f"{command}{flag}-{kind}" for command, flag, kind, *_ in _UNREADABLE],
)
def test_unreadable_file_exits_with_its_path(tmp_path, capsys, command, flag, kind, code, message):
    state = random_state(np.random.default_rng(0), n_outputs=3)
    files = {
        "--config": write_config(tmp_path, base_config(tmp_path / "run", iterations=2)),
        "--predictions": tmp_path / "pred.csv",
        "--truth": tmp_path / "truth.csv",
        "--model": tmp_path / "model.json",
        "--at": tmp_path / "points.csv",
    }
    files["--predictions"].write_text("output,replica,x_0,mean,variance\n0,0,0.1,1.0,1.0\n")
    files["--truth"].write_text("output,replica,x_0,y\n0,0,0.1,1.0\n")
    files["--model"].write_text(json.dumps({**state.to_dict(), "n_replicas": state.n_replicas}))
    files["--at"].write_text("output,replica,x_0\n0,0,0.1\n")
    bad = files[flag] = tmp_path / f"bad_{kind}"
    if kind == "directory":
        bad.mkdir()
    elif kind == "binary":
        bad.write_bytes(b"\x80seed: \xff\n")
    out = tmp_path / "out"
    argv = {
        "fit": ["fit", "--config", files["--config"], "--out", out],
        "eval": ["eval", "--predictions", files["--predictions"], "--truth", files["--truth"], "--out", out],
        "predict": ["predict", "--model", files["--model"], "--at", files["--at"], "--out", out],
    }[command]
    assert main([str(arg) for arg in argv]) == code
    assert capsys.readouterr().err.startswith(message.format(bad=bad))


def _edit(change):
    """A model-file edit that applies ``change`` to the parsed payload."""

    def apply(text):
        payload = json.loads(text)
        change(payload)
        return json.dumps(payload)

    return apply


def _deeper(*paths):
    """A model-file edit that nests every number of each field, named by its
    dotted path, one level deeper."""

    def change(payload):
        for path in paths:
            *parents, name = path.split(".")
            holder = functools.reduce(operator.getitem, parents, payload)
            holder[name] = np.asarray(holder[name])[..., None].tolist()

    return _edit(change)


def _standardized(**changes):
    """A model-file edit that adds standardisation constants of a
    one-dimensional model, with ``changes`` applied (``None`` drops a key)."""
    constants = {"x_mean": [0.5], "x_std": [2.0], "y_mean": 0.1, "y_std": 1.5, **changes}
    return _edit(lambda p: p.update(standardization={k: v for k, v in constants.items() if v is not None}))


@pytest.mark.parametrize(
    "edit, problem",
    [
        (_edit(lambda p: p.pop("latent_kernel")), "latent_kernel: missing field"),
        (_edit(lambda p: p.update(noise_variance=[-0.1, 0.1, 0.1])), "noise variances must be strictly positive"),
        (lambda text: text[: len(text) // 2], "Expecting"),
        (_edit(lambda p: p.update(notes="x")), "notes: unknown field"),
        (_edit(lambda p: p["latent_kernel"].update(period=1.0)), "latent_kernel: StationaryKernel.__init__() got an"),
        (_edit(lambda p: p.update(format="hiermogp-model-v0")), "unrecognised model format 'hiermogp-model-v0'"),
        (_standardized(y_std=None), "standardization: expected exactly the keys"),
        (_standardized(x_mean=[0.0, 0.0, 0.0]), "standardization.x_mean: expected 1 finite numbers"),
        (_standardized(y_std=0.0), "standardization.y_std: must be positive"),
        (_standardized(x_std=[np.nan]), "standardization.x_std: expected 1 finite numbers"),
        (_edit(lambda p: p.update(n_replicas=7)), "n_replicas: 7, but the inducing inputs cover 2 replicas"),
        (_edit(lambda p: p["latent_kernel"].update(family="matern32")), "latent_kernel: family 'matern32', expected"),
        (_deeper("latent_posterior.means", "latent_posterior.variances"), "latent_posterior: means and variances must be 2-D"),
        (_deeper("inducing.z_latent"), "inducing: z_latent must be 2-D"),
        (_deeper("inducing.z_input"), "inducing: replica blocks must be 2-D"),
        (_deeper("hier_kernel.replica.lengthscales"), "hier_kernel: kernel lengthscales must be a non-empty vector"),
        (_edit(lambda p: p["latent_kernel"].update(lengthscales=[])), "latent_kernel: kernel lengthscales must be a non-empty"),
    ],
    ids=[
        "missing_field",
        "negative_noise",
        "truncated_json",
        "unknown_field",
        "unknown_kernel_field",
        "wrong_format",
        "standardization_without_y_std",
        "standardization_of_wrong_dimension",
        "standardization_zero_std",
        "standardization_non_finite",
        "wrong_replica_count",
        "latent_kernel_without_psi_statistics",
        "latent_moments_of_rank_3",
        "latent_inducing_inputs_of_rank_3",
        "inducing_input_blocks_of_rank_3",
        "lengthscales_of_rank_2",
        "empty_lengthscales",
    ],
)
def test_malformed_model_file_exits_2_with_its_path(tmp_path, capsys, edit, problem):
    state = random_state(np.random.default_rng(0), n_outputs=3)
    assert (state.input_dim, state.n_replicas) == (1, 2)
    model = tmp_path / "model.json"
    model.write_text(edit(json.dumps({**state.to_dict(), "n_replicas": state.n_replicas})))
    out = tmp_path / "grid.csv"
    assert main(["predict", "--model", str(model), "--grid", "3,0,1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {model}: ")
    assert problem in err
    assert not out.exists()


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
    result = run_child("-m", "hiermogp.cli", "--help")
    assert result.returncode == 0
    assert "generate" in result.stdout
    assert "experiment" in result.stdout


def test_import_leaves_scipy_unloaded():
    result = run_child(
        "-c",
        "import sys, hiermogp, hiermogp.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))",
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


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


@pytest.mark.parametrize(
    "section, field, kind",
    [
        ("model", "latent_dim", "int"),
        ("optimizer", "learning_rate", "float"),
        (None, "seed", "int"),
        ("experiment", "repeats", "int"),
    ],
)
def test_yaml_boolean_is_not_a_number(tmp_path, capsys, section, field, kind):
    config = base_config(tmp_path / "run")
    (config if section is None else config[section])[field] = True
    path = f"{section or 'config'}.{field}"
    with pytest.raises(ConfigError, match=rf"^{path}: expected {kind}, got bool$"):
        RunConfig(config)
    config_path = write_config(tmp_path, config)
    assert "true" in config_path.read_text()
    assert main(["fit", "--config", str(config_path)]) == 2
    assert f"{path}: expected {kind}, got bool" in capsys.readouterr().err


@pytest.mark.parametrize("field", ["shared_family", "replica_family"])
def test_unknown_model_family_is_a_config_error(tmp_path, capsys, field):
    config = base_config(tmp_path / "run")
    config["model"][field] = "foo"
    with pytest.raises(ConfigError, match=rf"^model: {field}: unknown kernel family 'foo'$"):
        RunConfig(config)
    assert main(["fit", "--config", str(write_config(tmp_path, config))]) == 2
    assert f"model: {field}: unknown kernel family" in capsys.readouterr().err


@pytest.mark.parametrize(
    "missing, problem",
    [
        ([[7, 0]], "pair [7, 0] is outside the dataset (3 outputs, 2 replicas)"),
        ([[0, 0], [0, 1]], "every output must keep at least one observed replica"),
    ],
)
def test_split_missing_the_dataset_cannot_hold_is_a_config_error(tmp_path, capsys, missing, problem):
    config = base_config(tmp_path / "run", repeats=1)
    config["split"] = {"mode": "missing_replica", "missing": missing}
    assert main(["experiment", "--config", str(write_config(tmp_path, config))]) == 2
    assert f"split.missing: {problem}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "row, problem",
    [
        ("0x,0,0.2,2.0,1.0", "non-numeric field"),
        ("0,0,0.2,2.0", "expected 5 fields, got 4"),
        ("0,0,0.2,nan,1.0", "non-finite value"),
        ("0,0,0.2,inf,1.0", "non-finite value"),
        ("0,0,0.2,2.0,inf", "non-finite value"),
        ("0,0,0.2,2.0,0", "predictive variance 0 is not positive"),
        ("0,0,0.2,2.0,-1", "predictive variance -1 is not positive"),
    ],
)
def test_eval_rejects_malformed_prediction_rows(tmp_path, capsys, row, problem):
    # the table's schema is checked as every table's is (a data error); a
    # positive variance is eval's own check (a config error)
    error, prefix = (ConfigError, "config") if problem.startswith("predictive variance") else (CsvSchemaError, "data")
    truth = tmp_path / "truth.csv"
    truth.write_text("output,replica,x_0,y\n0,0,0.1,1.0\n0,0,0.2,2.0\n")
    pred = tmp_path / "pred.csv"
    pred.write_text(f"output,replica,x_0,mean,variance\n0,0,0.1,1.0,1.0\n{row}\n")
    with pytest.raises(error, match=f"^{re.escape(f'{pred}:3: {problem}')}"):
        run_eval(pred, truth, tmp_path / "out")
    code = main(["eval", "--predictions", str(pred), "--truth", str(truth), "--out", str(tmp_path / "o")])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"{prefix} error: {pred}:3: ")


@pytest.mark.parametrize(
    "truth_header, truth_rows",
    [
        ("x_0", ["0,0,0.1,1.0", "0,0,0.2,2.0"]),
        ("x_0,x_1", ["0,0,0.1,0.5,1.0", "0,0,0.2,0.5,2.0"]),
    ],
)
def test_eval_rejects_predictions_with_another_input_dimension(tmp_path, capsys, truth_header, truth_rows):
    # three input columns against a truth file with one or two
    truth = tmp_path / "truth.csv"
    truth.write_text(f"output,replica,{truth_header},y\n" + "\n".join(truth_rows) + "\n")
    pred = tmp_path / "pred.csv"
    pred.write_text(
        "output,replica,x_0,x_1,x_2,mean,variance\n0,0,0.1,0.5,0.5,1.0,1.0\n0,0,0.2,0.5,0.5,2.0,1.0\n"
    )
    n_truth = truth_header.count(",") + 1
    problem = f"{pred} has 3 input columns, truth file {truth} has {n_truth}"
    with pytest.raises(ConfigError, match=f"^{re.escape(problem)}$"):
        run_eval(pred, truth, tmp_path / "out")
    code = main(["eval", "--predictions", str(pred), "--truth", str(truth), "--out", str(tmp_path / "o")])
    assert code == 2
    assert problem in capsys.readouterr().err


@pytest.mark.parametrize(
    "pred_rows, problem",
    [
        (["0,0,0.1,1.0,1.0"], "{pred} has 1 prediction rows, truth file {truth} has 2"),
        (
            ["0,0,0.1,1.0,1.0", "", "0,0,0.2,2.0,1.0"],
            "{pred}:4: output, replica [0, 0], but truth file {truth} has [0, 1] there",
        ),
        (
            ["0,0,0.1,1.0,1.0", "0,1,0.25,2.0,1.0"],
            "{pred}:3: inputs [0.25], but truth file {truth} has [0.2] there",
        ),
    ],
    ids=["row_count", "row_alignment", "input_location"],
)
def test_eval_alignment_errors_name_both_files(tmp_path, capsys, pred_rows, problem):
    truth = tmp_path / "truth.csv"
    truth.write_text("output,replica,x_0,y\n0,0,0.1,1.0\n0,1,0.2,2.0\n")
    pred = tmp_path / "pred.csv"
    pred.write_text("output,replica,x_0,mean,variance\n" + "\n".join(pred_rows) + "\n")
    code = main(["eval", "--predictions", str(pred), "--truth", str(truth), "--out", str(tmp_path / "o")])
    assert code == 2
    assert f"config error: {problem.format(pred=pred, truth=truth)}" in capsys.readouterr().err


def test_shared_regime_on_per_output_inputs_runs_and_its_bound_recomputes(tmp_path):
    # one bound ties the noise across outputs on any inputs
    config = base_config(tmp_path / "run", iterations=20, repeats=1)
    config["model"]["regime"] = "shared"
    assert main(["experiment", "--config", str(write_config(tmp_path, config))]) == 0
    train = load_csv(tmp_path / "run" / "train_rep0.csv")
    assert not train.has_common_inputs()
    state = state_from_dict(json.loads((tmp_path / "run" / "model_rep0.json").read_text()))
    assert state.noise_variance.ndim == 0
    best = json.loads((tmp_path / "run" / "manifest.json").read_text())["per_repeat"][0]["final_elbo"]
    assert np.isclose(elbo_per_output(state, *train.training_arrays()).total, best, rtol=1e-9, atol=0.0)


@pytest.mark.parametrize("command", ["fit", "experiment"])
def test_split_that_holds_out_nothing_is_a_config_error(tmp_path, capsys, command):
    # 0.99 of an 8-point replica rounds to all 8 points
    config = base_config(tmp_path / "run", iterations=2, repeats=1)
    config["split"]["fraction"] = 0.99
    assert main([command, "--config", str(write_config(tmp_path, config))]) == 2
    assert "config error: split.fraction: 0.99 holds out no point of any replica" in capsys.readouterr().err
    assert not list((tmp_path / "run").glob("*.csv"))


@pytest.mark.parametrize(
    "truth_rows, problem",
    [
        (["0,0,0.1,1.0"], "nmse needs at least two test points"),
        (["0,0,0.1,1.0", "0,0,0.2,1.0"], "nmse is undefined for constant test targets"),
    ],
    ids=["one_row", "constant_targets"],
)
def test_eval_of_unscorable_truth_is_a_config_error(tmp_path, capsys, truth_rows, problem):
    truth = tmp_path / "truth.csv"
    truth.write_text("output,replica,x_0,y\n" + "\n".join(truth_rows) + "\n")
    pred = tmp_path / "pred.csv"
    pred_rows = [row.rsplit(",", 1)[0] + ",1.5,1.0" for row in truth_rows]
    pred.write_text("output,replica,x_0,mean,variance\n" + "\n".join(pred_rows) + "\n")
    code = main(["eval", "--predictions", str(pred), "--truth", str(truth), "--out", str(tmp_path / "o")])
    assert code == 2
    assert f"config error: {truth}: {problem}" in capsys.readouterr().err
    assert not (tmp_path / "o" / "metrics.json").exists()


def test_experiment_with_an_unscorable_test_split_is_a_config_error(tmp_path, capsys):
    # half of output 0's two points and none of output 1's single point are held out
    data = tmp_path / "data.csv"
    data.write_text("output,replica,x_0,y\n0,0,0.1,1.0\n0,0,0.6,2.0\n1,0,0.3,0.5\n")
    config = base_config(tmp_path / "run", iterations=2, repeats=1)
    config["dataset"] = {"csv": {"path": str(data)}}
    assert main(["experiment", "--config", str(write_config(tmp_path, config))]) == 2
    test_split = tmp_path / "run" / "test_rep0.csv"
    error = f"{test_split}: nmse needs at least two test points"
    assert f"config error: {error}" in capsys.readouterr().err
    assert not (tmp_path / "run" / "metrics_rep0.json").exists()
    # the repeat's files stay, explained by a manifest that names the failure
    manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
    assert manifest["command"] == "experiment" and manifest["per_repeat"] == []
    assert manifest["failed"] == {"repeat": 0, "seed": config["seed"], "error": f"ConfigError: {error}"}
    assert not (tmp_path / "run" / "summary.json").exists()


@pytest.mark.parametrize("variant", ["random_fraction", "missing_replica", "standardized_csv"])
def test_eval_of_an_experiment_repeat_writes_its_metrics_file(tmp_path, variant):
    # experiment and eval score through one path, so their metrics files agree byte for byte
    config = base_config(tmp_path / "run", iterations=10, repeats=1)
    if variant == "missing_replica":
        config["dataset"]["synthetic"]["n_replicas"] = 3
        config["split"] = {"mode": "missing_replica", "missing": "random"}
    elif variant == "standardized_csv":
        gen = tmp_path / "gen"
        assert main(["generate", "--config", str(write_config(tmp_path, config)), "--out", str(gen)]) == 0
        config["dataset"] = {"csv": {"path": str(gen / "dataset.csv"), "standardize": True}}
    assert main(["experiment", "--config", str(write_config(tmp_path, config))]) == 0
    run = tmp_path / "run"
    argv = ["--predictions", str(run / "predictions_rep0.csv"), "--truth", str(run / "test_rep0.csv")]
    assert main(["eval", *argv, "--out", str(tmp_path / "eval")]) == 0
    assert (tmp_path / "eval" / "metrics.json").read_bytes() == (run / "metrics_rep0.json").read_bytes()


def _count_predict_calls(monkeypatch):
    """Outputs of the ``predict_marginal`` calls the CLI makes."""
    outputs = []
    predict = cli.predict_marginal

    def counted(state, xstar, replica_tags, output, **kwargs):
        outputs.append(output)
        return predict(state, xstar, replica_tags, output, **kwargs)

    monkeypatch.setattr(cli, "predict_marginal", counted)
    return outputs


def _assert_rows_match_per_block_calls(model_path, points, predictions_path):
    state = state_from_dict(json.loads(model_path.read_text()))
    expected = []
    for d in range(points.n_outputs):
        for r in range(points.n_replicas):
            block = points.block(d, r)
            if block.n_points:
                moments = predict_marginal(state, block.inputs, np.full(block.n_points, r), d)
                expected += zip(moments.mean, moments.variance)
    rows = np.loadtxt(predictions_path, delimiter=",", skiprows=1, ndmin=2)
    assert rows.shape[0] == len(expected)
    assert np.allclose(rows[:, -2:], expected, rtol=1e-12, atol=0.0)


def test_experiment_predicts_each_output_in_one_call(tmp_path, monkeypatch):
    outputs = _count_predict_calls(monkeypatch)
    run_experiment(RunConfig(base_config(tmp_path, iterations=5, repeats=1)), tmp_path)
    test = load_csv(tmp_path / "test_rep0.csv")
    assert outputs == [d for d in range(test.n_outputs) if test.per_output_targets(d).size]
    _assert_rows_match_per_block_calls(tmp_path / "model_rep0.json", test, tmp_path / "predictions_rep0.csv")


def test_predict_at_predicts_each_output_in_one_call(tmp_path, monkeypatch):
    outputs = _count_predict_calls(monkeypatch)
    points = "output,replica,x_0\n0,1,0.3\n0,0,0.1\n2,1,0.2\n0,0,0.2\n2,0,0.7\n"
    assert _predict_at(tmp_path, points) == 0
    assert outputs == [0, 2]
    rows = (tmp_path / "pred.csv").read_text().splitlines()[1:]
    assert [row.split(",")[:3] for row in rows] == [
        ["0", "0", "0.10000000000000001"],
        ["0", "0", "0.20000000000000001"],
        ["0", "1", "0.29999999999999999"],
        ["2", "0", "0.69999999999999996"],
        ["2", "1", "0.20000000000000001"],
    ]
    _assert_rows_match_per_block_calls(
        tmp_path / "fit" / "model.json", load_csv(tmp_path / "points.csv", targets_optional=True), tmp_path / "pred.csv"
    )


CONFIGS = sorted((pathlib.Path(__file__).parents[1] / "configs").glob("*.yaml"))


def test_configs_directory_is_not_empty():
    assert [path.stem for path in CONFIGS] == ["missing_points", "missing_replica"]


@pytest.mark.parametrize("path", CONFIGS, ids=lambda path: path.stem)
def test_shipped_configs_run(tmp_path, path):
    raw = yaml.safe_load(path.read_text())
    raw["optimizer"]["iterations"] = 2
    raw["experiment"]["repeats"] = 1
    summary = run_experiment(RunConfig(raw), tmp_path)
    assert np.isfinite(summary["nmse_mean"]) and np.isfinite(summary["nlpd_mean"])
