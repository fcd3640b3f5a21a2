"""Benchmark workloads: data, model shape and one experiment through the public API.

Every workload samples from the synthetic settings of the acceptance suite
(Matern-3/2 shared and replica kernels with variances 0.1 and 1.0, an RBF
latent kernel, noise variance 0.02, two latent dimensions), which are the
``SyntheticConfig`` defaults. One seed drives generation, split, fit and
prediction, as in ``cli.run_experiment``.

The library is reached through module attributes (``training.fit``,
``prediction.predict_marginal``, ...), so the tracer in ``tracing.py`` can
wrap the bindings these calls look up.
"""

from __future__ import annotations

import contextlib
import math
import time
from dataclasses import dataclass, field

import numpy as np

from hiermogp import data, elbo, metrics, prediction, training


@dataclass(frozen=True)
class Workload:
    name: str
    n_outputs: int
    n_replicas: int
    points_per_replica: int
    share_inputs: bool
    holdout: str  # "random_fraction", "missing_replica" or "alternate"
    inducing_per_replica: int
    inducing_latent: int
    regime: str
    iterations: int  # Adam iterations per fit: under a second, so a run holds many fits


WORKLOADS = {
    w.name: w
    for w in (
        Workload("desk", 10, 3, 10, False, "random_fraction", 8, 6, "per_output", 40),
        # shared grid at generation only: the per-output split below makes the
        # training inputs differ per output
        Workload("wide", 50, 3, 10, True, "random_fraction", 6, 4, "per_output", 8),
        Workload("replicas", 10, 12, 10, False, "missing_replica", 4, 10, "per_output", 20),
        Workload("shared_grid", 50, 6, 20, True, "alternate", 6, 4, "shared", 120),
        # fast shape for the self-check; not part of BENCHMARK.json
        Workload("tiny", 3, 2, 8, False, "random_fraction", 3, 2, "per_output", 30),
    )
}


@dataclass
class Prepared:
    """A workload's inputs for one seed: the train/test split."""

    workload: Workload
    seed: int
    train: data.HierarchicalDataset
    test: data.HierarchicalDataset

    def training_arrays(self):
        """The (x, y) arguments ``fit`` builds for the workload's regime."""
        if self.workload.regime == "shared":
            x = self.train.per_output_blocks(0)
            y = np.concatenate(
                [self.train.per_output_targets(d) for d in range(self.train.n_outputs)]
            )
            return x, y
        return self.train.training_arrays()

    def test_blocks(self):
        """(output, replica, block) for every held-out block, output-major."""
        return [
            (d, r, self.test.block(d, r))
            for d in range(self.test.n_outputs)
            for r in range(self.test.n_replicas)
            if self.test.block(d, r).n_points > 0
        ]


def holdout_alternate(dataset: data.HierarchicalDataset):
    """Every second grid point goes to the test set, for all outputs alike,
    so the training grid stays common to every output (shared regime)."""

    def half(start):
        outputs = [
            data.OutputRecord(
                replicas=[
                    data.ReplicaBlock(b.inputs[start::2], b.targets[start::2])
                    for b in record.replicas
                ],
                name=record.name,
            )
            for record in dataset.outputs
        ]
        return data.HierarchicalDataset(outputs=outputs, metadata=dict(dataset.metadata))

    return half(0), half(1)


def prepare(workload: Workload, seed: int) -> Prepared:
    """Generate and split a workload's dataset from the seed."""
    config = data.SyntheticConfig(
        n_outputs=workload.n_outputs,
        n_replicas=workload.n_replicas,
        points_per_replica=workload.points_per_replica,
        share_inputs=workload.share_inputs,
    )
    dataset = data.generate_synthetic(config, seed)
    if workload.holdout == "alternate":
        train, test = holdout_alternate(dataset)
    else:
        if workload.holdout == "random_fraction":
            plan = data.SplitPlan(mode="random_fraction", fraction=0.5, seed=seed)
        else:
            # one random replica per output, drawn as the CLI draws it
            rng = np.random.default_rng(seed)
            missing = [(d, int(rng.integers(dataset.n_replicas))) for d in range(dataset.n_outputs)]
            plan = data.SplitPlan(mode="missing_replica", missing=missing, seed=seed)
        train, test = data.split(dataset, plan)
    return Prepared(workload=workload, seed=seed, train=train, test=test)


@dataclass
class Experiment:
    """Timings, outcomes and check results of one fit-predict-score cycle."""

    fit_s: float = 0.0
    fit_cpu_s: float = 0.0
    iteration_ms: list = field(default_factory=list)
    pass_s: float = 0.0
    block_ms: list = field(default_factory=list)  # one per held-out block, in order
    eval_s: float = 0.0
    final_elbo: float = math.nan
    nmse: float = math.nan
    nlpd: float = math.nan
    jitter_events: int = 0
    attempted: int = 0
    errors: list = field(default_factory=list)
    failed_ops: set = field(default_factory=set)  # "fit" or (output, replica)

    @property
    def failed(self) -> int:
        return len(self.failed_ops)

    def fail(self, op, message: str) -> None:
        """Count ``op`` as failed once, however many checks reject it."""
        self.failed_ops.add(op)
        self.errors.append(message)


def _check_block(moments, n_points: int) -> str | None:
    mean = np.asarray(moments.mean)
    variance = np.asarray(moments.variance)
    if mean.shape != (n_points,) or variance.shape != (n_points,):
        return f"{mean.shape}/{variance.shape} predicted rows for {n_points} points"
    if not np.all(np.isfinite(mean)):
        return "non-finite predictive mean"
    if not (np.all(np.isfinite(variance)) and np.all(variance > 0.0)):
        return "predictive variance not finite and positive"
    return None


def _predict_block(prepared: Prepared, state, d: int, r: int, block):
    if prepared.workload.holdout == "missing_replica":
        return prediction.predict_missing_replica(state, d, r, block.inputs, seed=prepared.seed)
    tags = np.full(block.n_points, r, dtype=int)
    return prediction.predict_marginal(state, block.inputs, tags, d, seed=prepared.seed)


def run_experiment(prepared: Prepared, on_pass=None, between=None) -> Experiment:
    """Fit, predict every held-out block once, and score.

    Correctness checks run outside the timed regions. A fit that raises or
    whose bound does not recompute fails the fit operation; a block whose
    prediction raises or is malformed fails that block. ``on_pass`` wraps
    the prediction pass (the tracer opens a span there). ``between`` is
    called before every Adam step and every block prediction, and the time
    it takes is left out of every timing.
    """
    wl = prepared.workload
    exp = Experiment()
    model_config = training.ModelConfig(
        latent_dim=2,
        inducing_per_replica=wl.inducing_per_replica,
        inducing_latent=wl.inducing_latent,
        regime=wl.regime,
    )
    opt_config = training.OptimizerConfig(
        learning_rate=0.01, iterations=wl.iterations, seed=prepared.seed
    )
    exp.attempted += 1
    # an iteration runs from one Adam step's call (after ``between``) to the next's
    adam_step = training.adam_step
    stamps, resumed = [], []

    def stamped_adam_step(*args, **kwargs):
        stamps.append(time.perf_counter())
        if between:
            between()
        resumed.append(time.perf_counter())
        return adam_step(*args, **kwargs)

    training.adam_step = stamped_adam_step
    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        result = training.fit(prepared.train, model_config, opt_config)
    except (training.FitError, np.linalg.LinAlgError, ValueError) as err:
        exp.fail("fit", f"fit raised {type(err).__name__}: {err}")
        return exp
    finally:
        training.adam_step = adam_step
    wall1, exp.fit_cpu_s = time.perf_counter(), time.process_time() - cpu0
    resumed.insert(0, wall0)
    exp.iteration_ms = [1e3 * (b - a) for a, b in zip(resumed, stamps)]
    exp.fit_s = 1e-3 * sum(exp.iteration_ms) + wall1 - resumed[-1]
    exp.final_elbo = float(result.diagnostics["best_value"])
    exp.jitter_events = int(result.diagnostics["jitter_events"])

    x, y = prepared.training_arrays()
    bound = elbo.elbo_shared if wl.regime == "shared" else elbo.elbo_per_output
    recomputed = bound(result.state, x, y).total
    if not abs(recomputed - exp.final_elbo) <= 1e-6 * max(1.0, abs(exp.final_elbo)):
        exp.fail("fit", f"bound at the returned state is {recomputed!r}, fit reported {exp.final_elbo!r}")

    outcomes = []
    pass0 = time.perf_counter()
    with on_pass() if on_pass else contextlib.nullcontext():
        for d, r, block in prepared.test_blocks():
            if between:
                between()
            t0 = time.perf_counter()
            try:
                moments = _predict_block(prepared, result.state, d, r, block)
            except (np.linalg.LinAlgError, ValueError) as err:
                moments = f"raised {type(err).__name__}: {err}"
            exp.block_ms.append(1e3 * (time.perf_counter() - t0))
            outcomes.append((d, r, block, moments))
    exp.pass_s = time.perf_counter() - pass0
    pooled = []
    for d, r, block, moments in outcomes:
        exp.attempted += 1
        problem = moments if isinstance(moments, str) else _check_block(moments, block.n_points)
        if problem:
            exp.fail((d, r), f"block ({d}, {r}) {problem}")
        else:
            pooled.append((d, block.targets, moments))
    if len(pooled) < len(outcomes):
        return exp

    y_true = np.concatenate([t for _, t, _ in pooled])
    if y_true.size != prepared.test.n_points:
        exp.fail("fit", f"{y_true.size} prediction rows for {prepared.test.n_points} held-out points")
        return exp
    mean = np.concatenate([m.mean for _, _, m in pooled])
    variance = np.concatenate([m.variance for _, _, m in pooled])
    outputs = np.concatenate([np.full(t.size, d) for d, t, _ in pooled])
    t0 = time.perf_counter()
    report = metrics.evaluate(y_true, mean, variance, outputs)
    exp.eval_s = time.perf_counter() - t0
    exp.nmse, exp.nlpd = report.nmse, report.nlpd
    return exp

