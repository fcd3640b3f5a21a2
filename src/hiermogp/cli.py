"""Experiment driver: generate, fit, predict, eval and experiment pipelines.

Runs are declared in a YAML config (grammar documented in the README) and
produce CSV/JSON artifacts plus a manifest sufficient to reproduce the run.
The ``model``, ``optimizer`` and ``split`` sections parse straight into
``ModelConfig``, ``OptimizerConfig`` and ``SplitPlan`` (``_section``).
``fit`` and ``experiment`` share one per-repeat step (``_fit_repeat``) that
builds, splits and saves the data, fits, and saves the model and its bound
trace, and one manifest writer; ``experiment`` and ``eval`` score through
``_score``. The command parses no file text itself: the YAML config goes
through ``load_config``, every other file through the one reader and writer
of its format in ``data`` (``read_table``/``write_columns`` for datasets,
points and predictions, ``read_json``/``write_json`` for JSON files). Every
random choice (synthetic data, split, initial state) flows from the run seed,
and prediction draws nothing, so repeating a command with the same config and
seed reproduces its prediction and metrics files byte for byte. A malformed
config, data file or model file exits 2 with a message that names it; a
file that cannot be read at all exits 3.
"""

from __future__ import annotations

import argparse
import dataclasses
import pathlib
import sys
import time

import numpy as np
import yaml

from . import __version__
from .data import (
    CsvSchemaError,
    HierarchicalDataset,
    OutputRecord,
    ReplicaBlock,
    SplitPlan,
    SyntheticConfig,
    generate_synthetic,
    load_csv,
    read_json,
    read_table,
    save_csv,
    split,
    standardization_maps,
    table_columns,
    unstandardize_dataset,
    write_columns,
    write_json,
    write_table,
)
from .kernels import MATERN32, RBF, StationaryKernel
from .metrics import EvalReport, evaluate
from .model import ModelState, state_from_dict
from .prediction import predict_marginal
from .training import FitResult, ModelConfig, OptimizerConfig, fit


class ConfigError(ValueError):
    """A config field is missing or malformed; the message carries its path."""


# ---------------------------------------------------------------------------
# config parsing


def _expect_mapping(node, path, fields):
    """``node`` as a mapping whose keys are all among ``fields``."""
    if not isinstance(node, dict):
        raise ConfigError(f"{path}: expected a mapping")
    for key in node:
        if key not in fields:
            prefix = "" if path == "config" else f"{path}."
            raise ConfigError(f"{prefix}{key}: unknown field")
    return node


def _take(node: dict, path: str, key: str, kind, default="__required__"):
    if key not in node:
        if default == "__required__":
            raise ConfigError(f"{path}.{key}: required field is missing")
        return default
    value = node[key]
    if kind is float and type(value) is int:
        value = float(value)
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise ConfigError(f"{path}.{key}: expected {kind.__name__}, got {type(value).__name__}")
    return value


def _section(node, path: str, cls, kinds: dict):
    """A config section parsed straight into the dataclass ``cls``. The
    section may set the fields named in ``kinds``, each type-checked, and
    must set those without a default; the others keep the class's defaults,
    which live nowhere else. The class's own checks become ``ConfigError``s
    under ``path``."""
    node = _expect_mapping(node, path, kinds)
    required = {f.name for f in dataclasses.fields(cls) if f.default is f.default_factory is dataclasses.MISSING}
    fields = {key: _take(node, path, key, kind) for key, kind in kinds.items() if key in node or key in required}
    try:
        return cls(**fields)
    except ValueError as err:
        raise ConfigError(f"{path}: {err}") from None


_SYNTHETIC_KERNELS = ("shared_kernel", "replica_kernel", "latent_kernel")


def _config_fields(config_class, set_elsewhere) -> dict:
    """The fields of a config dataclass a YAML section may set, each typed as
    its default; ``set_elsewhere`` names the fields the CLI sets itself."""
    fields = dataclasses.fields(config_class)
    return {f.name: type(f.default) for f in fields if f.name not in set_elsewhere}


# ``flat`` comes from the ablation and ``seed`` from the run seed
_MODEL_FIELDS = _config_fields(ModelConfig, ("flat",))
_SYNTHETIC_SCALARS = _config_fields(SyntheticConfig, _SYNTHETIC_KERNELS)  # the kernels are sections
_OPTIMIZER_FIELDS = _config_fields(OptimizerConfig, ("seed",))
_SPLIT_FIELDS = {"mode": str, "fraction": float, "missing": object}  # SplitPlan checks ``missing``


def _kernel_from_config(node, path, default: StationaryKernel) -> StationaryKernel:
    """A kernel section; the fields it leaves out, or all of them, come from ``default``."""
    if node is None:
        return default
    node = _expect_mapping(node, path, ("family", "variance", "lengthscale", "lengthscales"))
    family = _take(node, path, "family", str, default.family)
    if family not in (RBF, MATERN32):
        raise ConfigError(f"{path}.family: unknown kernel family {family!r}")
    variance = _take(node, path, "variance", float, default.variance)
    lengthscale = node.get("lengthscale", node.get("lengthscales", default.lengthscales))
    lengthscales = np.atleast_1d(np.asarray(lengthscale, float))
    input_dim = default.input_dim
    if lengthscales.size == 1:
        lengthscales = np.full(input_dim, lengthscales[0])
    if lengthscales.size != input_dim:
        raise ConfigError(f"{path}.lengthscales: expected {input_dim} values")
    try:
        return StationaryKernel(family, variance, lengthscales)
    except ValueError as err:
        raise ConfigError(f"{path}: {err}") from None


class RunConfig:
    """Validated run description; see the README for the grammar."""

    def __init__(self, raw: dict):
        raw = _expect_mapping(
            raw, "config", ("seed", "output_dir", "experiment", "dataset", "model", "optimizer", "split")
        )
        self.seed = _take(raw, "config", "seed", int, 0)
        self.output_dir = _take(raw, "config", "output_dir", str, "runs/out")
        self.repeats = 1
        if "experiment" in raw:
            exp = _expect_mapping(raw["experiment"], "experiment", ("repeats",))
            self.repeats = _take(exp, "experiment", "repeats", int, 3)
            if self.repeats < 1:
                raise ConfigError("experiment.repeats: must be at least 1")

        dataset = _expect_mapping(_take(raw, "config", "dataset", dict), "dataset", ("csv", "synthetic"))
        self.csv_source = None
        self.synthetic = None
        if "csv" in dataset:
            csv = _expect_mapping(dataset["csv"], "dataset.csv", ("path", "standardize"))
            self.csv_source = {
                "path": _take(csv, "dataset.csv", "path", str),
                "standardize": _take(csv, "dataset.csv", "standardize", bool, False),
            }
        elif "synthetic" in dataset:
            path = "dataset.synthetic"
            syn = _expect_mapping(dataset["synthetic"], path, (*_SYNTHETIC_SCALARS, *_SYNTHETIC_KERNELS))
            # the scalars, with the default kernels at the configured dimensions
            scalars = {key: value for key, value in syn.items() if key in _SYNTHETIC_SCALARS}
            base = _section(scalars, path, SyntheticConfig, _SYNTHETIC_SCALARS)
            kernels = {
                name: _kernel_from_config(syn.get(name), f"{path}.{name}", getattr(base, name))
                for name in _SYNTHETIC_KERNELS
            }
            self.synthetic = dataclasses.replace(base, **kernels)
        else:
            raise ConfigError("dataset: needs a 'synthetic' or 'csv' section")

        self.model = _section(raw.get("model", {}), "model", ModelConfig, _MODEL_FIELDS)
        self.optimizer = _section(raw.get("optimizer", {}), "optimizer", OptimizerConfig, _OPTIMIZER_FIELDS)
        self.split = _section(raw["split"], "split", SplitPlan, _SPLIT_FIELDS) if "split" in raw else None
        self.raw = raw


def load_config(path) -> RunConfig:
    """The run config in the YAML file ``path``; a file that is not YAML is a
    ``ConfigError`` naming it and, where the parser has one, the line."""
    try:
        raw = yaml.safe_load(pathlib.Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError:
        raise ConfigError(f"{path}: not a UTF-8 text file") from None
    except yaml.MarkedYAMLError as err:
        raise ConfigError(f"{path}:{err.problem_mark.line + 1}: {err.problem}") from None
    except yaml.YAMLError as err:  # a character YAML does not allow
        raise ConfigError(f"{path}: {str(err).splitlines()[0]}") from None
    return RunConfig(raw if raw is not None else {})


# ---------------------------------------------------------------------------
# pipeline pieces


def _model_extras(train: HierarchicalDataset) -> dict:
    """What a saved model keeps of its training data: the replica count and,
    for standardised data, the constants that map predictions back."""
    extras = {"n_replicas": train.n_replicas}
    if "standardization" in train.metadata:
        extras["standardization"] = train.metadata["standardization"]
    return extras


_MODEL_EXTRAS = ("n_replicas", "standardization")  # the keys _model_extras writes


def _check_extras(state: ModelState, payload: dict) -> None:
    """Raise ``ValueError`` unless the extras of a saved model fit its state:
    ``n_replicas`` is the inducing blocks' replica count, and
    ``standardization`` holds the four constants, finite, with positive
    stds and input constants of the model's input dimension."""
    n_replicas = payload.get("n_replicas", state.n_replicas)
    if isinstance(n_replicas, bool) or n_replicas != state.n_replicas:
        raise ValueError(f"n_replicas: {n_replicas!r}, but the inducing inputs cover {state.n_replicas} replicas")
    constants = payload.get("standardization")
    if constants is None:
        return
    shapes = {"x_mean": (state.input_dim,), "x_std": (state.input_dim,), "y_mean": (), "y_std": ()}
    if not isinstance(constants, dict) or constants.keys() != shapes.keys():
        raise ValueError(f"standardization: expected exactly the keys {', '.join(shapes)}")
    for key, shape in shapes.items():
        try:
            value = np.asarray(constants[key], float)
        except (TypeError, ValueError):
            value = None
        if value is None or value.shape != shape or not np.all(np.isfinite(value)):
            expected = f"{shape[0]} finite numbers" if shape else "a finite number"
            raise ValueError(f"standardization.{key}: expected {expected}")
        if key.endswith("_std") and not np.all(value > 0.0):
            raise ValueError(f"standardization.{key}: must be positive")


def _load_model(path) -> tuple[ModelState, dict]:
    """A saved model and the payload it was read from; a malformed file,
    extras included, is a ``ConfigError`` whose message starts with its
    path."""
    try:
        payload = read_json(path)
    except CsvSchemaError as err:  # its message starts with the path
        raise ConfigError(str(err)) from None
    try:
        unknown = payload.keys() - {"format", *_MODEL_EXTRAS, *(f.name for f in dataclasses.fields(ModelState))}
        if unknown:
            raise ValueError(f"{min(unknown)}: unknown field")
        state = state_from_dict(payload)
        _check_extras(state, payload)
        return state, payload
    except ValueError as err:
        raise ConfigError(f"{path}: {err}") from None


def _fit_repeat(config: RunConfig, out_dir: pathlib.Path, seed: int, ablation: str | None, tag: str):
    """One repeat of ``fit`` and ``experiment``: build the dataset, split it as
    planned and save both parts in original units, fit, then save the model
    with its extras and the bound trace. File names end in ``tag``. Returns the
    fit, the held-out part in original units (None without a split) and the
    model's standardisation constants."""
    if config.csv_source is not None:
        dataset = load_csv(config.csv_source["path"], standardize=config.csv_source["standardize"])
    else:
        dataset = generate_synthetic(config.synthetic, seed=seed)
    train, test = dataset, None
    if config.split is not None:
        try:
            train, test = split(dataset, dataclasses.replace(config.split, seed=seed))
        except ValueError as err:  # the plan field at fault leads split's message
            raise ConfigError(f"split.{err}") from None
        save_csv(unstandardize_dataset(train), out_dir / f"train{tag}.csv")
        test = unstandardize_dataset(test)
        save_csv(test, out_dir / f"test{tag}.csv")
    model = dataclasses.replace(config.model, flat=(ablation == "flat"))
    result = fit(train, model, dataclasses.replace(config.optimizer, seed=seed))
    extras = _model_extras(train)
    write_json(out_dir / f"model{tag}.json", {**result.state.to_dict(), **extras})
    trace_path = out_dir / (f"trace{tag}.csv" if tag else "elbo_trace.csv")
    write_table(trace_path, ["iteration", "elbo"], enumerate(result.trace))
    return result, test, extras.get("standardization")


def _fit_record(result: FitResult) -> dict:
    return {
        "final_elbo": float(result.diagnostics["best_value"]),
        "jitter_events": result.diagnostics["jitter_events"],
    }


def _predict_dataset(state: ModelState, points: HierarchicalDataset, standardization: dict | None):
    """Marginal predictions at every point of a dataset in original units: the
    dataset's table columns, then the predictive mean and variance per row.
    Each output is predicted in one call over its replica-tagged points, mapped
    into model units with the saved standardisation constants."""
    columns = table_columns(points)
    outputs, replicas, raw_inputs, targets = columns
    to_model, to_original = standardization_maps(standardization)
    inputs, _ = to_model(raw_inputs, targets)
    mean, variance = np.empty(outputs.size), np.empty(outputs.size)
    for d in sorted(set(outputs.tolist())):
        rows = outputs == d
        moments = predict_marginal(state, inputs[rows], replicas[rows], d)
        mean[rows], variance[rows] = moments.mean, moments.variance
    _, mean = to_original(inputs, mean)
    y_scale = 1.0 if standardization is None else standardization["y_std"] ** 2
    return columns, mean, variance * y_scale


_PREDICTION_TAIL = ("mean", "variance")  # the tail columns of a predictions table


def _score(columns, mean, variance, source) -> EvalReport:
    """Pooled and per-output scores of predictions against the targets of
    ``columns``; held-out data that cannot be scored (fewer than two points,
    constant targets) is a ``ConfigError`` that names ``source``."""
    outputs, _, _, targets = columns
    try:
        return evaluate(targets, mean, variance, outputs)
    except ValueError as err:
        raise ConfigError(f"{source}: {err}") from None


def _write_manifest(out_dir: pathlib.Path, command: str, config: RunConfig, ablation, started: float, record: dict):
    """``manifest.json`` of ``fit`` and ``experiment``: the command, its config,
    the package version, ``record`` and the wall time since ``started``."""
    manifest = {"command": command, "config": config.raw, "ablation": ablation, "version": __version__, **record}
    write_json(out_dir / "manifest.json", {**manifest, "wall_clock_seconds": time.time() - started})


# ---------------------------------------------------------------------------
# commands


def cmd_generate(config: RunConfig, out_dir: pathlib.Path) -> pathlib.Path:
    if config.synthetic is None:
        raise ConfigError("dataset.synthetic: generate needs a synthetic dataset section")
    out_dir.mkdir(parents=True, exist_ok=True)
    dataset = generate_synthetic(config.synthetic, seed=config.seed)
    path = out_dir / "dataset.csv"
    save_csv(dataset, path)
    print(f"wrote {path} ({dataset.n_points} observations)")
    return path


def cmd_fit(config: RunConfig, out_dir: pathlib.Path, ablation: str | None = None) -> pathlib.Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    started = time.time()
    result, _, _ = _fit_repeat(config, out_dir, config.seed, ablation, tag="")
    _write_manifest(out_dir, "fit", config, ablation, started, {"seed": config.seed, **_fit_record(result)})
    model_path = out_dir / "model.json"
    print(f"wrote {model_path} (best bound {result.diagnostics['best_value']:.4f})")
    return model_path


def _parse_grid(spec: str):
    parts = spec.split(",")
    if len(parts) != 3:
        raise ConfigError("--grid expects 'count,low,high'")
    try:
        count = int(parts[0])
        low, high = float(parts[1]), float(parts[2])
    except ValueError:
        raise ConfigError(f"--grid expects an integer count and two numbers, got {spec!r}") from None
    if count < 1:
        raise ConfigError("--grid count must be positive")
    if not np.isfinite([low, high]).all():
        raise ConfigError("--grid bounds must be finite")
    return np.linspace(low, high, count)[:, None]


def run_predict(model_path, out_path, at_path=None, grid_spec=None) -> pathlib.Path:
    grid = _parse_grid(grid_spec) if at_path is None else None
    state, payload = _load_model(model_path)
    input_dim = state.input_dim
    if at_path is not None:
        points = load_csv(at_path, targets_optional=True)
        if points.input_dim != input_dim:
            raise ConfigError(
                f"points file has {points.input_dim} input columns, model has input dimension {input_dim}"
            )
        if points.n_outputs > state.n_outputs:
            raise ConfigError(
                f"points file uses output indices up to {points.n_outputs - 1}, "
                f"model has {state.n_outputs} outputs"
            )
        if points.n_replicas > state.n_replicas:
            raise ConfigError(
                f"points file uses replica indices up to {points.n_replicas - 1}, "
                f"model has {state.n_replicas} replicas"
            )
    else:
        if input_dim != 1:
            raise ConfigError("--grid only supports one-dimensional inputs")
        unobserved = ReplicaBlock(grid, np.full(grid.shape[0], np.nan))
        points = HierarchicalDataset(
            outputs=[OutputRecord(replicas=[unobserved] * state.n_replicas) for _ in range(state.n_outputs)]
        )
    columns, mean, variance = _predict_dataset(state, points, payload.get("standardization"))
    write_columns(out_path, (*columns[:3], mean, variance), _PREDICTION_TAIL)
    print(f"wrote {out_path} ({mean.size} predictions)")
    return pathlib.Path(out_path)


def run_eval(predictions_path, truth_path, out_dir: pathlib.Path) -> dict:
    out_dir.mkdir(parents=True, exist_ok=True)
    truth = load_csv(truth_path)
    outputs, replicas, inputs, moments, line_nos = read_table(predictions_path, _PREDICTION_TAIL)
    mean, variance = moments.T
    if inputs.shape[1] != truth.input_dim:
        raise ConfigError(
            f"{predictions_path} has {inputs.shape[1]} input columns, truth file {truth_path} has {truth.input_dim}"
        )
    if np.any(variance <= 0.0):
        i = int(np.argmax(variance <= 0.0))
        raise ConfigError(f"{predictions_path}:{line_nos[i]}: predictive variance {variance[i]:g} is not positive")
    columns = table_columns(truth)
    truth_outputs, truth_replicas, truth_inputs, _ = columns
    if outputs.size != truth_outputs.size:
        raise ConfigError(
            f"{predictions_path} has {outputs.size} prediction rows, truth file {truth_path} has {truth_outputs.size}"
        )
    got_labels, labels = np.column_stack([outputs, replicas]), np.column_stack([truth_outputs, truth_replicas])
    for name, got, want, bad in (
        ("output, replica", got_labels, labels, np.any(got_labels != labels, axis=1)),
        ("inputs", inputs, truth_inputs, ~np.all(np.isclose(inputs, truth_inputs, atol=1e-9), axis=1)),
    ):
        if bad.any():  # name the first misaligned row
            i = int(np.argmax(bad))
            raise ConfigError(
                f"{predictions_path}:{line_nos[i]}: {name} {got[i].tolist()}, but truth file {truth_path} "
                f"has {want[i].tolist()} there (rows go by output, replica, then point)"
            )
    report = _score(columns, mean, variance, truth_path)
    payload = report.to_dict()
    write_json(out_dir / "metrics.json", payload)
    pooled = ("pooled", report.nmse, report.nlpd)
    write_table(out_dir / "metrics.csv", ["output", "nmse", "nlpd"], [pooled, *report.per_output])
    print(f"nmse={report.nmse:.6f} nlpd={report.nlpd:.6f} over {report.n_test} test points")
    return payload


def run_experiment(config: RunConfig, out_dir: pathlib.Path, ablation: str | None = None) -> dict:
    """The full loop: data, split, fit, predict and score, repeated over seeds."""
    if config.split is None:
        raise ConfigError("split: experiments need a split section")
    out_dir.mkdir(parents=True, exist_ok=True)
    started = time.time()
    nmse_values, nlpd_values = [], []
    per_repeat = []
    seeds = [config.seed + rep for rep in range(config.repeats)]
    for rep, seed in enumerate(seeds):
        try:
            result, test, standardization = _fit_repeat(config, out_dir, seed, ablation, tag=f"_rep{rep}")
            columns, mean, variance = _predict_dataset(result.state, test, standardization)
            write_columns(out_dir / f"predictions_rep{rep}.csv", (*columns[:3], mean, variance), _PREDICTION_TAIL)
            metrics = _score(columns, mean, variance, out_dir / f"test_rep{rep}.csv").to_dict()
        except Exception as err:
            # the repeat's files so far stay explained by a manifest
            failed = {"repeat": rep, "seed": seed, "error": f"{type(err).__name__}: {err}"}
            record = {"seeds": seeds, "per_repeat": per_repeat, "failed": failed}
            _write_manifest(out_dir, "experiment", config, ablation, started, record)
            raise
        write_json(out_dir / f"metrics_rep{rep}.json", metrics)
        nmse_values.append(metrics["nmse"])
        nlpd_values.append(metrics["nlpd"])
        per_repeat.append({"seed": seed, **_fit_record(result), "n_test": metrics["n_test"]})
        print(f"repeat {rep}: nmse={metrics['nmse']:.6f} nlpd={metrics['nlpd']:.6f}")
    summary = {
        "ablation": ablation,
        "repeats": config.repeats,
        "nmse_mean": float(np.mean(nmse_values)),
        "nmse_sd": float(np.std(nmse_values, ddof=1)) if len(nmse_values) > 1 else 0.0,
        "nlpd_mean": float(np.mean(nlpd_values)),
        "nlpd_sd": float(np.std(nlpd_values, ddof=1)) if len(nlpd_values) > 1 else 0.0,
        "nmse_values": nmse_values,
        "nlpd_values": nlpd_values,
    }
    write_json(out_dir / "summary.json", summary)
    _write_manifest(out_dir, "experiment", config, ablation, started, {"seeds": seeds, "per_repeat": per_repeat})
    print(
        f"summary: nmse {summary['nmse_mean']:.6f} +/- {summary['nmse_sd']:.6f}, "
        f"nlpd {summary['nlpd_mean']:.6f} +/- {summary['nlpd_sd']:.6f}"
    )
    return summary


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hiermogp",
        description="Hierarchical multi-output GP experiments: generate, fit, predict, eval.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="YAML run config")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=None, help="override the output directory")

    p = sub.add_parser("generate", help="sample a synthetic dataset to CSV")
    add_common(p)
    p = sub.add_parser("fit", help="fit the model and save it with its bound trace")
    add_common(p)
    p.add_argument("--ablation", choices=["flat"], default=None, help="disable cross-replica coupling")
    p = sub.add_parser("predict", help="predict from a saved model")
    p.add_argument("--model", required=True)
    p.add_argument("--at", default=None, help="CSV of points (output,replica,x_*[,y])")
    p.add_argument("--grid", default=None, help="'count,low,high' grid for every output and replica")
    p.add_argument("--out", required=True, help="output CSV path")
    p = sub.add_parser("eval", help="score predictions against a truth CSV")
    p.add_argument("--predictions", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--out", default="eval_out")
    p = sub.add_parser("experiment", help="repeat generate/split/fit/predict/eval over seeds")
    add_common(p)
    p.add_argument("--ablation", choices=["flat"], default=None)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "predict":
            if (args.at is None) == (args.grid is None):
                raise ConfigError("predict needs exactly one of --at or --grid")
            run_predict(args.model, args.out, at_path=args.at, grid_spec=args.grid)
            return 0
        if args.command == "eval":
            run_eval(args.predictions, args.truth, pathlib.Path(args.out))
            return 0
        config = load_config(args.config)
        if args.seed is not None:
            config.seed = args.seed
        out_dir = pathlib.Path(args.out if args.out is not None else config.output_dir)
        if args.command == "generate":
            cmd_generate(config, out_dir)
        elif args.command == "fit":
            cmd_fit(config, out_dir, ablation=args.ablation)
        elif args.command == "experiment":
            run_experiment(config, out_dir, ablation=args.ablation)
        return 0
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except CsvSchemaError as err:
        print(f"data error: {err}", file=sys.stderr)
        return 2
    except FileNotFoundError as err:
        print(f"missing file: {err}", file=sys.stderr)
        return 3
    except OSError as err:  # a directory, or a file without permission; the message names its path
        print(f"file error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
