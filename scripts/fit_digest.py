#!/usr/bin/env python3
"""Fingerprints of the fit, to check that a change leaves it bit for bit.

For each shape of the benchmark (``perfbench/workloads.WORKLOADS``, read
only) and each seed, generates and splits the workload's data as the
benchmark does and prints one line with three SHA-256 digests. Each shape
also has a ``<shape>-flat`` line: the same data and settings with the flat
ablation (``ModelConfig(flat=True)``), which has no shared level.

- ``fit``: the bound trace of ``training.fit`` with the workload's model
  and optimiser settings, and the returned state's flat parameter vector;
- ``step``: at the initial state, the bound breakdown, the gradient and
  the jitters of one ``objective.evaluate_with_grad``;
- ``predict``: from the fitted state, the predictive mean and variance of
  every held-out block, predicted as the benchmark predicts it
  (``predict_missing_replica`` when whole replicas are held out,
  ``predict_marginal`` with the block's replica tag otherwise).

Run it on two checkouts and diff the output: any difference in the last
bit of any of these numbers changes a digest.

    PYTHONPATH=src python3 scripts/fit_digest.py [--seeds 0-9] [--shapes desk,tiny-flat]
"""

import argparse
import hashlib
import sys
from pathlib import Path

import numpy as np

from hiermogp import objective, prediction, training
from hiermogp.params import ParamLayout

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402


def seeds(text: str) -> list[int]:
    """``"3"``, ``"0-9"`` or ``"0,2,5"`` as a list of seeds."""
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def digest(*arrays) -> str:
    sha = hashlib.sha256()
    for array in arrays:
        array = np.ascontiguousarray(array, dtype=np.float64)
        sha.update(repr(array.shape).encode())
        sha.update(array.tobytes())
    return sha.hexdigest()


def predict_block(prepared, state, d: int, r: int, block):
    if prepared.workload.holdout == "missing_replica":
        return prediction.predict_missing_replica(state, d, r, block.inputs)
    return prediction.predict_marginal(state, block.inputs, np.full(block.n_points, r, dtype=int), d)


def fingerprint(workload, seed: int, flat: bool) -> tuple[str, str, str]:
    prepared = workloads.prepare(workload, seed)
    model = training.ModelConfig(
        latent_dim=2,
        inducing_per_replica=workload.inducing_per_replica,
        inducing_latent=workload.inducing_latent,
        flat=flat,
        regime=workload.regime,
    )
    optimizer = training.OptimizerConfig(learning_rate=0.01, iterations=workload.iterations, seed=seed)

    template = training.initialize_state(prepared.train, model, seed)
    layout = ParamLayout(template)
    data = objective.read_data(template, *prepared.train.training_arrays())
    breakdown, grad, jitters = objective.evaluate_with_grad(layout.pack(template), layout, data)
    step = digest(
        [breakdown.data_fit, breakdown.kl_inducing, breakdown.kl_latent],
        grad,
        [jitters[name] for name in sorted(jitters)],
    )

    result = training.fit(prepared.train, model, optimizer)
    fit = digest(result.trace, layout.pack(result.state))
    moments = [predict_block(prepared, result.state, d, r, block) for d, r, block in prepared.test_blocks()]
    predict = digest(*[array for m in moments for array in (m.mean, m.variance)])
    return fit, step, predict


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seeds, default=[0], help="e.g. 0-9 or 0,3 (default 0)")
    shapes = [name for workload in workloads.WORKLOADS for name in (workload, f"{workload}-flat")]
    parser.add_argument("--shapes", default=",".join(shapes), help="comma-separated workload names, each with or without -flat")
    args = parser.parse_args()
    for name in args.shapes.split(","):
        workload, flat = name.removesuffix("-flat"), name.endswith("-flat")
        for seed in args.seeds:
            fit, step, predict = fingerprint(workloads.WORKLOADS[workload], seed, flat)
            print(f"{name:<16s} seed {seed:<3d} fit {fit}  step {step}  predict {predict}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
