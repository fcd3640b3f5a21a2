"""Hierarchical datasets: synthetic generation, CSV ingestion and splitting.

A dataset is a grid of (output, replica) blocks, each holding the observed
inputs and targets for that replica of that output. Blocks may be empty,
which is how an entirely missing replica is represented.

Datasets, points files and predictions share one table layout, one point per
row under the header ``output,replica,x_0[,x_1,...]`` and tail columns (``y``,
or ``mean,variance``); output and replica are integer indices from zero. A
JSON sidecar (``<path>.meta.json``) carries a dataset's metadata.

Each format has one writer and one reader, its inverse: ``write_columns`` and
``read_table`` for that layout, ``write_json`` and ``read_json`` for JSON.
Every table goes through ``write_table`` (floats with 17 significant digits,
which read back exactly); a file off its format is a ``CsvSchemaError`` that
starts with its path. ``standardization_maps`` is the one place the
standardisation constants are applied, in either direction.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass, field

import numpy as np

from .kernels import (
    MATERN32,
    RBF,
    HierarchicalKernel,
    StationaryKernel,
    hier_block_cov,
    latent_cov,
)
from .kron import cholesky_jitter
from .model import plain


@dataclass
class ReplicaBlock:
    inputs: np.ndarray  # (n, v)
    targets: np.ndarray  # (n,)

    def __post_init__(self):
        self.inputs = np.atleast_2d(np.asarray(self.inputs, float))
        self.targets = np.asarray(self.targets, float).ravel()
        if self.inputs.shape[0] != self.targets.shape[0]:
            raise ValueError(
                f"{self.inputs.shape[0]} inputs but {self.targets.shape[0]} targets"
            )

    @property
    def n_points(self) -> int:
        return self.targets.shape[0]


@dataclass
class OutputRecord:
    replicas: list
    name: str = ""


@dataclass
class HierarchicalDataset:
    outputs: list
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.outputs:
            raise ValueError("a dataset needs at least one output")
        counts = {len(o.replicas) for o in self.outputs}
        if len(counts) != 1:
            raise ValueError("every output must carry the same number of replicas")
        dims = {
            b.inputs.shape[1] for o in self.outputs for b in o.replicas if b.n_points > 0
        }
        if len(dims) > 1:
            raise ValueError(f"inputs disagree on dimension: {sorted(dims)}")

    @property
    def n_outputs(self) -> int:
        return len(self.outputs)

    @property
    def n_replicas(self) -> int:
        return len(self.outputs[0].replicas)

    @property
    def input_dim(self) -> int:
        for o in self.outputs:
            for b in o.replicas:
                if b.n_points > 0:
                    return b.inputs.shape[1]
        raise ValueError("dataset has no observations")

    @property
    def n_points(self) -> int:
        return sum(b.n_points for o in self.outputs for b in o.replicas)

    def block(self, output: int, replica: int) -> ReplicaBlock:
        return self.outputs[output].replicas[replica]

    def per_output_blocks(self, output: int) -> list:
        v = self.input_dim
        return [
            b.inputs if b.n_points else np.zeros((0, v))
            for b in self.outputs[output].replicas
        ]

    def per_output_targets(self, output: int) -> np.ndarray:
        parts = [b.targets for b in self.outputs[output].replicas]
        return np.concatenate(parts) if parts else np.zeros(0)

    def training_arrays(self):
        """Per-output block lists and stacked target vectors."""
        x = [self.per_output_blocks(d) for d in range(self.n_outputs)]
        y = [self.per_output_targets(d) for d in range(self.n_outputs)]
        return x, y

    def has_common_inputs(self) -> bool:
        """True when every output is observed on the same inputs, in order."""
        x = [self.per_output_blocks(d) for d in range(self.n_outputs)]
        return all(np.array_equal(a, b) for blocks in x[1:] for a, b in zip(x[0], blocks))


@dataclass
class SyntheticConfig:
    """Settings for sampling a dataset from the model's own prior."""

    n_outputs: int = 50
    n_replicas: int = 3
    points_per_replica: int = 10
    input_dim: int = 1
    latent_dim: int = 2
    shared_kernel: StationaryKernel = None
    replica_kernel: StationaryKernel = None
    latent_kernel: StationaryKernel = None
    noise_variance: float = 0.02
    share_inputs: bool = False

    def __post_init__(self):
        if self.shared_kernel is None:
            self.shared_kernel = StationaryKernel(MATERN32, 0.1, np.ones(self.input_dim))
        if self.replica_kernel is None:
            self.replica_kernel = StationaryKernel(MATERN32, 1.0, np.ones(self.input_dim))
        if self.latent_kernel is None:
            self.latent_kernel = StationaryKernel(RBF, 1.0, np.ones(self.latent_dim))
        for name in ("n_outputs", "n_replicas", "points_per_replica", "input_dim", "latent_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        if not 0.0 <= self.noise_variance < np.inf:
            raise ValueError("noise_variance must be nonnegative and finite")


def generate_synthetic(config: SyntheticConfig, seed: int) -> HierarchicalDataset:
    """Sample a dataset from the joint prior.

    Latent coordinates are standard normal; inputs are uniform on [0, 1] per
    output and replica (one common set when ``share_inputs``). Function
    values are drawn through the Kronecker-structured Cholesky factors of the
    latent-coordinate Gram and the hierarchical input Gram over the pooled
    per-replica grids, then sliced back to each output's own input set.
    """
    rng = np.random.default_rng(seed)
    d, r, n, v = (
        config.n_outputs,
        config.n_replicas,
        config.points_per_replica,
        config.input_dim,
    )
    latents = rng.standard_normal((d, config.latent_dim))
    if config.share_inputs:
        grids = [[np.sort(rng.uniform(size=(n, v)), axis=0) for _ in range(r)]] * d
    else:
        grids = [[np.sort(rng.uniform(size=(n, v)), axis=0) for _ in range(r)] for _ in range(d)]

    hier = HierarchicalKernel(shared=config.shared_kernel, replica=config.replica_kernel)
    kh = latent_cov(config.latent_kernel, latents, latents)
    chol_h, _ = cholesky_jitter(kh, base_jitter=1e-10)
    if config.share_inputs:
        pooled = [grids[0][rep] for rep in range(r)]
        rows_of = lambda d_idx, rep: np.arange(rep * n, (rep + 1) * n)
    else:
        # pool every output's replica-r grid into one super block so a single
        # Kronecker draw carries the exact cross-output covariance
        pooled = [np.concatenate([grids[di][rep] for di in range(d)], axis=0) for rep in range(r)]
        rows_of = lambda d_idx, rep: np.arange(rep * d * n + d_idx * n, rep * d * n + (d_idx + 1) * n)
    kx = hier_block_cov(hier, pooled, pooled)
    chol_x, _ = cholesky_jitter(kx, base_jitter=1e-10)
    white = rng.standard_normal((kx.shape[0], d))
    values = chol_x @ white @ chol_h.T  # (pooled points, outputs)
    noise = rng.normal(scale=np.sqrt(config.noise_variance), size=(d, r, n))

    outputs = []
    for di in range(d):
        replicas = []
        for rep in range(r):
            f = values[rows_of(di, rep), di]
            replicas.append(ReplicaBlock(inputs=grids[di][rep], targets=f + noise[di, rep]))
        outputs.append(OutputRecord(replicas=replicas, name=f"output_{di}"))
    return HierarchicalDataset(outputs=outputs, metadata={"generator": {"seed": int(seed), **plain(config)}})


@dataclass
class SplitPlan:
    """How to carve a dataset into train and test parts.

    ``random_fraction`` keeps the given fraction of each replica for
    training; ``missing_replica`` moves whole (output, replica) blocks into
    the test set: the ``missing`` pairs, or with ``"random"`` one replica per
    output, drawn from ``seed`` in output order.
    """

    mode: str
    fraction: float = 0.5
    missing: list | str = "random"
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("random_fraction", "missing_replica"):
            raise ValueError(f"unknown split mode {self.mode!r}")
        if self.mode == "random_fraction" and not 0.0 < self.fraction < 1.0:
            raise ValueError("fraction must lie strictly between 0 and 1")
        if self.mode == "missing_replica" and self.missing != "random":
            is_index = lambda i: isinstance(i, (int, np.integer)) and not isinstance(i, bool)
            if not isinstance(self.missing, (list, tuple)) or not all(
                isinstance(p, (list, tuple)) and len(p) == 2 and all(map(is_index, p)) for p in self.missing
            ):
                raise ValueError("missing: expected 'random' or a list of [output, replica] pairs")
            if not self.missing:
                raise ValueError("missing_replica mode needs at least one (output, replica) pair")


def split(dataset: HierarchicalDataset, plan: SplitPlan):
    """Disjoint, exhaustive train/test partition according to the plan. Each
    error message starts with the plan field at fault."""
    rng = np.random.default_rng(plan.seed)
    pairs = set()
    if plan.mode == "missing_replica":
        missing = plan.missing
        if missing == "random":
            missing = [(d, int(rng.integers(dataset.n_replicas))) for d in range(dataset.n_outputs)]
        pairs = {(int(d), int(r)) for d, r in missing}
        for d, r in pairs:
            if not (0 <= d < dataset.n_outputs and 0 <= r < dataset.n_replicas):
                raise ValueError(
                    f"missing: pair [{d}, {r}] is outside the dataset "
                    f"({dataset.n_outputs} outputs, {dataset.n_replicas} replicas)"
                )
        if any(sum(1 for dd, _ in pairs if dd == d) == dataset.n_replicas for d in range(dataset.n_outputs)):
            raise ValueError("missing: every output must keep at least one observed replica")
    train_outputs, test_outputs = [], []
    for d, record in enumerate(dataset.outputs):
        train_reps, test_reps = [], []
        for r, block in enumerate(record.replicas):
            n = block.n_points
            if plan.mode == "missing_replica" or n == 0:
                rows = np.arange(n)
                train_idx, test_idx = (rows[:0], rows) if (d, r) in pairs else (rows, rows[:0])
            else:
                n_train = max(1, int(round(plan.fraction * n)))
                perm = rng.permutation(n)
                train_idx, test_idx = np.sort(perm[:n_train]), np.sort(perm[n_train:])
            train_reps.append(ReplicaBlock(block.inputs[train_idx], block.targets[train_idx]))
            test_reps.append(ReplicaBlock(block.inputs[test_idx], block.targets[test_idx]))
        train_outputs.append(OutputRecord(replicas=train_reps, name=record.name))
        test_outputs.append(OutputRecord(replicas=test_reps, name=record.name))
    meta = dict(dataset.metadata)
    train = HierarchicalDataset(outputs=train_outputs, metadata=meta)
    test = HierarchicalDataset(outputs=test_outputs, metadata=meta)
    if test.n_points == 0:
        raise ValueError(
            "missing: the held-out blocks have no observations"
            if plan.mode == "missing_replica"
            else f"fraction: {plan.fraction:g} holds out no point of any replica"
        )
    return train, test


def _cell(value) -> str:
    if isinstance(value, (str, int)):
        return str(value)
    return format(float(value), ".17g")


def write_table(path, header, rows) -> None:
    """Write a CSV table: the header, then one line per row of cells. Floats
    keep 17 significant digits, so they read back exactly; integers and
    strings are written as they print."""
    lines = [",".join(header)] + [",".join(_cell(value) for value in row) for row in rows]
    pathlib.Path(path).write_text("\n".join(lines) + "\n")


def write_json(path, payload) -> None:
    """Write a JSON artifact: indented by two spaces, keys sorted."""
    pathlib.Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def table_columns(dataset: HierarchicalDataset):
    """The dataset as the columns of its table, in row order (output, then
    replica, then point): output and replica indices, inputs (n, v) and
    targets."""
    blocks = [(d, r, b) for d, o in enumerate(dataset.outputs) for r, b in enumerate(o.replicas) if b.n_points]
    if not blocks:
        raise ValueError("dataset has no observations")
    counts = [b.n_points for *_, b in blocks]
    return (
        np.repeat([d for d, _, _ in blocks], counts),
        np.repeat([r for _, r, _ in blocks], counts),
        np.concatenate([b.inputs for *_, b in blocks]),
        np.concatenate([b.targets for *_, b in blocks]),
    )


def write_columns(path, columns, tail) -> None:
    """Write a table of the one layout, ``output,replica,x_0[,x_1,...]`` then
    the ``tail`` columns: ``columns`` holds the output and replica indices, the
    inputs (n, v) and one column per name of ``tail``."""
    outputs, replicas, inputs, *values = columns
    header = ["output", "replica"] + [f"x_{i}" for i in range(inputs.shape[1])] + list(tail)
    write_table(path, header, zip(outputs.tolist(), replicas.tolist(), *inputs.T, *values))


def save_csv(dataset: HierarchicalDataset, path) -> None:
    """Write the dataset plus a JSON metadata sidecar."""
    path = pathlib.Path(path)
    write_columns(path, table_columns(dataset), ("y",))
    if dataset.metadata:
        write_json(path.with_name(path.name + ".meta.json"), dataset.metadata)


class CsvSchemaError(ValueError):
    """A data file (a table or a JSON file) does not follow its format; the
    message starts with the file's path."""


def _read_text(path) -> str:
    # utf-8-sig drops the byte-order mark that spreadsheets write before "CSV UTF-8"
    try:
        return pathlib.Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError:
        raise CsvSchemaError(f"{path}: not a UTF-8 text file") from None


def read_json(path) -> dict:
    """The JSON object in ``path``; anything else is a ``CsvSchemaError``
    whose message starts with the path."""
    try:
        payload = json.loads(_read_text(path))
    except json.JSONDecodeError as err:
        raise CsvSchemaError(f"{path}: {err}") from None
    if not isinstance(payload, dict):
        raise CsvSchemaError(f"{path}: expected a JSON object")
    return payload


def read_table(path, tail, optional=False):
    """Read a table of the one layout that ``write_columns`` writes; with
    ``optional`` the ``tail`` columns may be left out, and then read NaN.
    Returns its columns in file order: output and replica indices, inputs
    (n, v), the tail (n, len(tail)) and each row's line number. Blank lines
    are skipped; anything else off the layout is a ``CsvSchemaError``
    ``<path>:<line>: <problem>``."""
    lines = _read_text(path).splitlines()
    if not lines:
        raise CsvSchemaError(f"{path}: empty file")
    header = [h.strip() for h in lines[0].split(",")]
    has_tail = header[len(header) - len(tail) :] == list(tail)
    if header[:2] != ["output", "replica"] or not (has_tail or optional):
        tail_spec = ("[,{}]" if optional else ",{}").format(",".join(tail))
        raise CsvSchemaError(f"{path}:1: header must be output,replica,x_0[,...]{tail_spec}")
    v = len(header) - 2 - (len(tail) if has_tail else 0)
    if v < 1 or header[2 : 2 + v] != [f"x_{i}" for i in range(v)]:
        raise CsvSchemaError(f"{path}:1: input columns must be x_0, x_1, ...")
    labels, values = [], []  # (output, replica, line number) and the floats of each row
    for line_no, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        cells = line.split(",")
        if len(cells) != len(header):
            raise CsvSchemaError(f"{path}:{line_no}: expected {len(header)} fields, got {len(cells)}")
        try:
            index = (int(cells[0]), int(cells[1]))
            row = [float(c) for c in cells[2:]]
        except ValueError as err:
            raise CsvSchemaError(f"{path}:{line_no}: non-numeric field ({err})") from None
        if not np.all(np.isfinite(row)):
            raise CsvSchemaError(f"{path}:{line_no}: non-finite value")
        if min(index) < 0:
            raise CsvSchemaError(f"{path}:{line_no}: output and replica indices must be >= 0")
        labels.append((*index, line_no))
        values.append(row)
    if not labels:
        raise CsvSchemaError(f"{path}: no observations")
    (outputs, replicas, line_nos), values = np.array(labels).T, np.array(values)
    tail_values = values[:, v:] if has_tail else np.full((len(values), len(tail)), np.nan)
    return outputs, replicas, values[:, :v], tail_values, line_nos


# (output, replica) blocks a data file may span; every block is built, empty
# or not, at about 1 KB and 8 us each
_MAX_BLOCKS = 1_000_000


def load_csv(path, standardize: bool = False, targets_optional: bool = False) -> HierarchicalDataset:
    """Read a dataset; optionally rescale inputs and targets to zero mean and
    unit variance, recording the constants in the metadata. With
    ``targets_optional`` the ``y`` column may be left out, and the targets
    then read NaN. Indices may leave gaps, which read as empty blocks, but a
    file whose largest indices span more than ``_MAX_BLOCKS`` (output,
    replica) blocks is a ``CsvSchemaError`` that names the row with the
    largest index."""
    path = pathlib.Path(path)
    outputs, replicas, inputs, targets, line_nos = read_table(path, ("y",), optional=targets_optional)
    n_outputs, n_replicas = int(outputs.max()) + 1, int(replicas.max()) + 1
    if n_outputs * n_replicas > _MAX_BLOCKS:
        i = int(np.argmax(np.maximum(outputs, replicas)))
        raise CsvSchemaError(
            f"{path}:{int(line_nos[i])}: output {int(outputs[i])}, replica {int(replicas[i])} would make "
            f"{n_outputs} x {n_replicas} (output, replica) blocks, more than {_MAX_BLOCKS}"
        )
    block_of = outputs * n_replicas + replicas  # blocks go by output, then replica
    ends = np.cumsum(np.bincount(block_of, minlength=n_outputs * n_replicas))
    rows = np.split(np.argsort(block_of, kind="stable"), ends[:-1])  # each block's rows in file order
    blocks = [ReplicaBlock(inputs[r], targets[r, 0]) for r in rows]
    records = [OutputRecord(blocks[d * n_replicas : (d + 1) * n_replicas], f"output_{d}") for d in range(n_outputs)]
    sidecar = path.with_name(path.name + ".meta.json")
    dataset = HierarchicalDataset(records, read_json(sidecar) if sidecar.exists() else {})
    if standardize:
        dataset = standardize_dataset(dataset)
    return dataset


def standardization_maps(constants: dict | None):
    """``(to_model, to_original)``: the maps of ``(inputs, targets)`` into and
    out of the standardised units that ``constants`` describe (identities
    without constants)."""
    if constants is None:
        return (lambda x, y: (x, y),) * 2
    x_mean, x_std = np.asarray(constants["x_mean"]), np.asarray(constants["x_std"])
    y_mean, y_std = constants["y_mean"], constants["y_std"]
    return (
        lambda x, y: ((x - x_mean) / x_std, (y - y_mean) / y_std),
        lambda x, y: (x * x_std + x_mean, y * y_std + y_mean),
    )


def _map_blocks(dataset: HierarchicalDataset, to_units, metadata: dict) -> HierarchicalDataset:
    outputs = [
        OutputRecord(
            replicas=[ReplicaBlock(*to_units(b.inputs, b.targets)) if b.n_points else b for b in record.replicas],
            name=record.name,
        )
        for record in dataset.outputs
    ]
    return HierarchicalDataset(outputs=outputs, metadata=metadata)


def standardize_dataset(dataset: HierarchicalDataset) -> HierarchicalDataset:
    """Rescale inputs and targets to zero mean and unit variance."""
    all_x = np.concatenate(
        [b.inputs for o in dataset.outputs for b in o.replicas if b.n_points > 0], axis=0
    )
    all_y = np.concatenate([b.targets for o in dataset.outputs for b in o.replicas])
    x_std = all_x.std(axis=0)
    x_std[x_std == 0.0] = 1.0
    constants = {
        "x_mean": all_x.mean(axis=0).tolist(),
        "x_std": x_std.tolist(),
        "y_mean": float(all_y.mean()),
        "y_std": float(all_y.std()) or 1.0,
    }
    to_model, _ = standardization_maps(constants)
    return _map_blocks(dataset, to_model, {**dataset.metadata, "standardization": constants})


def unstandardize_dataset(dataset: HierarchicalDataset) -> HierarchicalDataset:
    """Map a standardised dataset back to its original units; others are returned as is."""
    constants = dataset.metadata.get("standardization")
    if constants is None:
        return dataset
    _, to_original = standardization_maps(constants)
    metadata = {k: v for k, v in dataset.metadata.items() if k != "standardization"}
    return _map_blocks(dataset, to_original, metadata)
