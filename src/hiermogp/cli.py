"""Experiment driver: generate, fit, predict, eval and experiment pipelines.

Runs are declared in a YAML config (grammar documented in the README) and
produce CSV/JSON artifacts plus a manifest sufficient to reproduce the run.
Every random choice flows from the run seed, so repeating a command with the
same config and seed reproduces its prediction and metrics files byte for
byte.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import pathlib
import sys
import time

import numpy as np
import yaml

from . import __version__
from .data import (
    HierarchicalDataset,
    SplitPlan,
    SyntheticConfig,
    generate_synthetic,
    load_csv,
    save_csv,
    split,
    unstandardize_dataset,
)
from .kernels import MATERN32, RBF, StationaryKernel
from .metrics import evaluate
from .model import ModelState, state_from_dict
from .prediction import predict_marginal
from .training import FitResult, ModelConfig, OptimizerConfig, fit


class ConfigError(ValueError):
    """A config field is missing or malformed; the message carries its path."""


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


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
    if kind is float and isinstance(value, int):
        value = float(value)
    if kind is not None and not isinstance(value, kind):
        raise ConfigError(f"{path}.{key}: expected {kind.__name__}, got {type(value).__name__}")
    return value


def _present(node: dict, path: str, kinds: dict) -> dict:
    """The fields of ``node`` named in ``kinds``, type-checked. Absent fields
    are left out, so their defaults live only in the config dataclasses."""
    return {key: _take(node, path, key, kind) for key, kind in kinds.items() if key in node}


_SYNTHETIC_SCALARS = {
    "n_outputs": int,
    "n_replicas": int,
    "points_per_replica": int,
    "input_dim": int,
    "latent_dim": int,
    "noise_variance": float,
    "share_inputs": bool,
}
_SYNTHETIC_KERNELS = ("shared_kernel", "replica_kernel", "latent_kernel")
_MODEL_FIELDS = {
    "latent_dim": int,
    "inducing_per_replica": int,
    "inducing_latent": int,
    "shared_family": str,
    "replica_family": str,
    "regime": str,
}
_OPTIMIZER_FIELDS = {
    "learning_rate": float,
    "iterations": int,
    "adam_beta1": float,
    "adam_beta2": float,
    "adam_eps": float,
}


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
            scalars = _present(syn, path, _SYNTHETIC_SCALARS)
            try:
                # the default kernels, at the configured dimensions
                defaults = SyntheticConfig(**{k: scalars[k] for k in ("input_dim", "latent_dim") if k in scalars})
                kernels = {
                    name: _kernel_from_config(syn.get(name), f"{path}.{name}", getattr(defaults, name))
                    for name in _SYNTHETIC_KERNELS
                }
                self.synthetic = SyntheticConfig(**scalars, **kernels)
            except ConfigError:
                raise
            except ValueError as err:
                raise ConfigError(f"{path}: {err}") from None
        else:
            raise ConfigError("dataset: needs a 'synthetic' or 'csv' section")

        model = _expect_mapping(raw.get("model", {}), "model", _MODEL_FIELDS)
        try:
            self.model = ModelConfig(**_present(model, "model", _MODEL_FIELDS))
        except ValueError as err:
            raise ConfigError(f"model: {err}") from None

        opt = _expect_mapping(raw.get("optimizer", {}), "optimizer", _OPTIMIZER_FIELDS)
        try:
            self.optimizer = OptimizerConfig(**_present(opt, "optimizer", _OPTIMIZER_FIELDS))
        except ValueError as err:
            raise ConfigError(f"optimizer: {err}") from None

        self.split_spec = None
        if "split" in raw:
            sp = _expect_mapping(raw["split"], "split", ("mode", "fraction", "missing"))
            mode = _take(sp, "split", "mode", str)
            if mode == "random_fraction":
                fraction = _take(sp, "split", "fraction", float, SplitPlan.fraction)
                try:
                    SplitPlan(mode=mode, fraction=fraction)
                except ValueError as err:
                    raise ConfigError(f"split: {err}") from None
                self.split_spec = {"mode": mode, "fraction": fraction}
            elif mode == "missing_replica":
                missing = sp.get("missing", "random")
                if missing != "random":
                    if not isinstance(missing, list) or not all(
                        isinstance(p, list) and len(p) == 2 for p in missing
                    ):
                        raise ConfigError("split.missing: expected 'random' or a list of [output, replica] pairs")
                self.split_spec = {"mode": mode, "missing": missing}
            else:
                raise ConfigError(f"split.mode: unknown mode {mode!r}")
        self.raw = raw

    def resolved(self) -> dict:
        return self.raw


def load_config(path) -> RunConfig:
    with open(path) as handle:
        raw = yaml.safe_load(handle)
    return RunConfig(raw if raw is not None else {})


# ---------------------------------------------------------------------------
# pipeline pieces


def _dataset_for_repeat(config: RunConfig, seed: int) -> HierarchicalDataset:
    if config.csv_source is not None:
        return load_csv(config.csv_source["path"], standardize=config.csv_source["standardize"])
    return generate_synthetic(config.synthetic, seed=seed)


def _plan_for_repeat(config: RunConfig, dataset: HierarchicalDataset, seed: int) -> SplitPlan | None:
    if config.split_spec is None:
        return None
    if config.split_spec["mode"] == "random_fraction":
        return SplitPlan(mode="random_fraction", fraction=config.split_spec["fraction"], seed=seed)
    missing = config.split_spec["missing"]
    if missing == "random":
        rng = np.random.default_rng(seed)
        missing = [[d, int(rng.integers(dataset.n_replicas))] for d in range(dataset.n_outputs)]
    return SplitPlan(mode="missing_replica", missing=[(int(d), int(r)) for d, r in missing], seed=seed)


def _model_config(config: RunConfig, ablation: str | None) -> ModelConfig:
    return dataclasses.replace(config.model, flat=(ablation == "flat"))


def _save_model(state: ModelState, path, extras: dict | None = None) -> None:
    payload = state.to_dict()
    if extras:
        payload.update(extras)
    pathlib.Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _model_extras(train: HierarchicalDataset) -> dict:
    """What a saved model keeps of its training data: the replica count and,
    for standardised data, the constants that map predictions back."""
    extras = {"n_replicas": train.n_replicas}
    if "standardization" in train.metadata:
        extras["standardization"] = train.metadata["standardization"]
    return extras


def _load_model(path) -> tuple[ModelState, dict]:
    payload = json.loads(pathlib.Path(path).read_text())
    return state_from_dict(payload), payload


def _write_trace(trace: np.ndarray, path) -> None:
    lines = ["iteration,elbo"]
    lines += [f"{i},{_fmt(v)}" for i, v in enumerate(trace)]
    pathlib.Path(path).write_text("\n".join(lines) + "\n")


def _original_moments(moments, standardization: dict | None):
    """Predictive mean and variance in the units of the data before standardisation."""
    if standardization is None:
        return moments.mean, moments.variance
    y_std = standardization["y_std"]
    return moments.mean * y_std + standardization["y_mean"], moments.variance * y_std**2


def _predict_dataset(state: ModelState, dataset: HierarchicalDataset, seed: int):
    """Marginal predictions at every observed point of a dataset, row-aligned
    with the CSV serialisation order (output-major, then replica). Rows of a
    standardised dataset are in its original units."""
    standardization = dataset.metadata.get("standardization")
    original = unstandardize_dataset(dataset)
    rows = []
    for d in range(dataset.n_outputs):
        for r in range(dataset.n_replicas):
            block = dataset.block(d, r)
            if block.n_points == 0:
                continue
            tags = np.full(block.n_points, r, dtype=int)
            moments = predict_marginal(state, block.inputs, tags, d, seed=seed)
            mean, variance = _original_moments(moments, standardization)
            raw = original.block(d, r)
            for i in range(block.n_points):
                rows.append((d, r, raw.inputs[i], mean[i], variance[i], raw.targets[i]))
    return rows


def _write_predictions(rows, input_dim: int, path) -> None:
    header = ["output", "replica"] + [f"x_{i}" for i in range(input_dim)] + ["mean", "variance"]
    lines = [",".join(header)]
    for d, r, x, mean, variance, _ in rows:
        cells = [str(d), str(r)] + [_fmt(v) for v in x] + [_fmt(mean), _fmt(variance)]
        lines.append(",".join(cells))
    pathlib.Path(path).write_text("\n".join(lines) + "\n")


def _metrics_from_rows(rows) -> dict:
    y_true = np.array([row[5] for row in rows])
    mean = np.array([row[3] for row in rows])
    variance = np.array([row[4] for row in rows])
    outputs = np.array([row[0] for row in rows])
    return evaluate(y_true, mean, variance, outputs).to_dict()


def _write_json(payload: dict, path) -> None:
    pathlib.Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


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


def _fit_once(config: RunConfig, dataset: HierarchicalDataset, seed: int, ablation: str | None) -> FitResult:
    opt = dataclasses.replace(config.optimizer, seed=seed)
    return fit(dataset, _model_config(config, ablation), opt)


def cmd_fit(config: RunConfig, out_dir: pathlib.Path, ablation: str | None = None) -> pathlib.Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    started = time.time()
    dataset = _dataset_for_repeat(config, config.seed)
    plan = _plan_for_repeat(config, dataset, config.seed)
    if plan is not None:
        train, test = split(dataset, plan)
        save_csv(unstandardize_dataset(train), out_dir / "train.csv")
        save_csv(unstandardize_dataset(test), out_dir / "test.csv")
    else:
        train = dataset
    result = _fit_once(config, train, config.seed, ablation)
    model_path = out_dir / "model.json"
    _save_model(result.state, model_path, _model_extras(train))
    _write_trace(result.trace, out_dir / "elbo_trace.csv")
    manifest = {
        "command": "fit",
        "config": config.resolved(),
        "seed": config.seed,
        "ablation": ablation,
        "version": __version__,
        "final_elbo": float(result.trace[result.best_index]),
        "jitter_events": result.diagnostics["jitter_events"],
        "wall_clock_seconds": time.time() - started,
    }
    _write_json(manifest, out_dir / "manifest.json")
    print(f"wrote {model_path} (best bound {result.trace[result.best_index]:.4f})")
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


def run_predict(model_path, out_path, at_path=None, grid_spec=None, seed: int = 0) -> pathlib.Path:
    grid = _parse_grid(grid_spec) if at_path is None else None
    state, payload = _load_model(model_path)
    standardization = payload.get("standardization")
    rows = []
    input_dim = state.input_dim
    if at_path is not None:
        points = load_csv(at_path)
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
        targets_iter = [
            (d, r, points.block(d, r).inputs)
            for d in range(points.n_outputs)
            for r in range(points.n_replicas)
            if points.block(d, r).n_points > 0
        ]
    else:
        if input_dim != 1:
            raise ConfigError("--grid only supports one-dimensional inputs")
        targets_iter = [
            (d, r, grid) for d in range(state.n_outputs) for r in range(state.n_replicas)
        ]
    for d, r, inputs in targets_iter:
        raw_inputs = inputs
        if standardization is not None:
            x_mean = np.asarray(standardization["x_mean"])
            x_std = np.asarray(standardization["x_std"])
            inputs = (inputs - x_mean) / x_std
        tags = np.full(inputs.shape[0], r, dtype=int)
        moments = predict_marginal(state, inputs, tags, d, seed=seed)
        mean, variance = _original_moments(moments, standardization)
        for i in range(inputs.shape[0]):
            rows.append((d, r, raw_inputs[i], mean[i], variance[i], np.nan))
    _write_predictions(rows, input_dim, out_path)
    print(f"wrote {out_path} ({len(rows)} predictions)")
    return pathlib.Path(out_path)


def run_eval(predictions_path, truth_path, out_dir: pathlib.Path) -> dict:
    out_dir.mkdir(parents=True, exist_ok=True)
    truth = load_csv(truth_path)
    pred_lines = pathlib.Path(predictions_path).read_text().splitlines()
    header = pred_lines[0].split(",")
    if header[:2] != ["output", "replica"] or header[-2:] != ["mean", "variance"]:
        raise ConfigError(f"{predictions_path}: expected output,replica,x_*,mean,variance columns")
    y_true, means, variances, outputs = [], [], [], []
    rows = [line.split(",") for line in pred_lines[1:] if line.strip()]
    truth_rows = []
    for d in range(truth.n_outputs):
        for r in range(truth.n_replicas):
            block = truth.block(d, r)
            for i in range(block.n_points):
                truth_rows.append((d, r, block.inputs[i], block.targets[i]))
    if len(rows) != len(truth_rows):
        raise ConfigError(
            f"prediction rows ({len(rows)}) and truth rows ({len(truth_rows)}) disagree"
        )
    for cells, (d, r, x, y) in zip(rows, truth_rows):
        if int(cells[0]) != d or int(cells[1]) != r:
            raise ConfigError("prediction and truth files are not row-aligned")
        if not np.allclose([float(c) for c in cells[2:-2]], x, atol=1e-9):
            raise ConfigError("prediction and truth files disagree on input locations")
        outputs.append(d)
        y_true.append(y)
        means.append(float(cells[-2]))
        variances.append(float(cells[-1]))
    report = evaluate(np.array(y_true), np.array(means), np.array(variances), np.array(outputs))
    payload = report.to_dict()
    _write_json(payload, out_dir / "metrics.json")
    lines = ["output,nmse,nlpd"]
    lines.append(f"pooled,{_fmt(report.nmse)},{_fmt(report.nlpd)}")
    for d, a, b in report.per_output:
        lines.append(f"{d},{_fmt(a)},{_fmt(b)}")
    (out_dir / "metrics.csv").write_text("\n".join(lines) + "\n")
    print(f"nmse={report.nmse:.6f} nlpd={report.nlpd:.6f} over {report.n_test} test points")
    return payload


def run_experiment(config: RunConfig, out_dir: pathlib.Path, ablation: str | None = None) -> dict:
    """The full loop: data, split, fit, predict and score, repeated over seeds."""
    if config.split_spec is None:
        raise ConfigError("split: experiments need a split section")
    out_dir.mkdir(parents=True, exist_ok=True)
    started = time.time()
    nmse_values, nlpd_values = [], []
    per_repeat = []
    for rep in range(config.repeats):
        seed = config.seed + rep
        dataset = _dataset_for_repeat(config, seed)
        plan = _plan_for_repeat(config, dataset, seed)
        train, test = split(dataset, plan)
        save_csv(unstandardize_dataset(train), out_dir / f"train_rep{rep}.csv")
        save_csv(unstandardize_dataset(test), out_dir / f"test_rep{rep}.csv")
        result = _fit_once(config, train, seed, ablation)
        _save_model(result.state, out_dir / f"model_rep{rep}.json", _model_extras(train))
        _write_trace(result.trace, out_dir / f"trace_rep{rep}.csv")
        rows = _predict_dataset(result.state, test, seed)
        _write_predictions(rows, dataset.input_dim, out_dir / f"predictions_rep{rep}.csv")
        metrics = _metrics_from_rows(rows)
        _write_json(metrics, out_dir / f"metrics_rep{rep}.json")
        nmse_values.append(metrics["nmse"])
        nlpd_values.append(metrics["nlpd"])
        per_repeat.append(
            {
                "seed": seed,
                "final_elbo": float(result.trace[result.best_index]),
                "jitter_events": result.diagnostics["jitter_events"],
                "n_test": metrics["n_test"],
            }
        )
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
    _write_json(summary, out_dir / "summary.json")
    manifest = {
        "command": "experiment",
        "config": config.resolved(),
        "seeds": [config.seed + rep for rep in range(config.repeats)],
        "ablation": ablation,
        "version": __version__,
        "per_repeat": per_repeat,
        "wall_clock_seconds": time.time() - started,
    }
    _write_json(manifest, out_dir / "manifest.json")
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

    def add_common(p, needs_config=True):
        if needs_config:
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
    p.add_argument("--seed", type=int, default=0)
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
            run_predict(args.model, args.out, at_path=args.at, grid_spec=args.grid, seed=args.seed)
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
    except FileNotFoundError as err:
        print(f"missing file: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
