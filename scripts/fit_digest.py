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

A change that is not bit for bit is measured instead with two more modes.
``--dump PATH.npz`` fits nothing: for each shape and seed it writes, at the
initial state and at three perturbed states ``theta + 0.05 N(0, 1)`` drawn
from the seed, the bound breakdown, the gradient, both jitters and every
held-out block's predictive mean and variance. ``--compare A.npz B.npz``
prints, per shape and quantity, the largest relative difference between
two dumps (an array's largest absolute difference over the larger of the
two arrays' largest magnitudes) and the key where it occurs; it exits 1
when the dumps hold different keys or shapes.

    PYTHONPATH=src python3 scripts/fit_digest.py --seeds 0-2 --dump before.npz
    PYTHONPATH=src python3 scripts/fit_digest.py --compare before.npz after.npz
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


def setup(workload, seed: int, flat: bool):
    """The workload's prepared data and model settings at ``seed``, the
    layout of the initial state and the bound's data."""
    prepared = workloads.prepare(workload, seed)
    model = training.ModelConfig(
        latent_dim=2,
        inducing_per_replica=workload.inducing_per_replica,
        inducing_latent=workload.inducing_latent,
        flat=flat,
        regime=workload.regime,
    )
    template = training.initialize_state(prepared.train, model, seed)
    return prepared, model, ParamLayout(template), objective.read_data(template, *prepared.train.training_arrays())


def fingerprint(workload, seed: int, flat: bool) -> tuple[str, str, str]:
    prepared, model, layout, data = setup(workload, seed, flat)
    optimizer = training.OptimizerConfig(learning_rate=0.01, iterations=workload.iterations, seed=seed)
    breakdown, grad, jitters = objective.evaluate_with_grad(layout.pack(layout.template), layout, data)
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


def states(name: str, workload, seed: int, flat: bool) -> dict[str, np.ndarray]:
    """What ``--dump`` writes for one shape and seed, keyed
    ``shape/seed<s>/state<k>/quantity`` (``.../mean/<block>`` and
    ``.../variance/<block>`` for the predictions); state 0 is the initial
    state and states 1-3 its perturbations."""
    prepared, _, layout, data = setup(workload, seed, flat)
    theta = layout.pack(layout.template)
    rng = np.random.default_rng(seed)
    out = {}
    for k in range(4):
        at = theta if k == 0 else theta + 0.05 * rng.standard_normal(theta.shape)
        breakdown, grad, jitters = objective.evaluate_with_grad(at, layout, data)
        key = f"{name}/seed{seed}/state{k}"
        for quantity in ("data_fit", "kl_inducing", "kl_latent"):
            out[f"{key}/{quantity}"] = np.asarray(getattr(breakdown, quantity))
        out[f"{key}/gradient"] = grad
        for jitter in sorted(jitters):
            out[f"{key}/jitter_{jitter}"] = np.asarray(jitters[jitter])
        state = layout.unpack(at)
        for i, (d, r, block) in enumerate(prepared.test_blocks()):
            moments = predict_block(prepared, state, d, r, block)
            out[f"{key}/mean/{i}"], out[f"{key}/variance/{i}"] = moments.mean, moments.variance
    return out


def relative_difference(a: np.ndarray, b: np.ndarray) -> float:
    """The largest ``|a - b|`` over the larger of ``max |a|`` and ``max |b|``
    for arrays of one shape: 0 for equal arrays, NaNs included, and inf for
    arrays with a non-finite value where they differ."""
    if np.array_equal(a, b, equal_nan=True):
        return 0.0
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        return np.inf
    return float(np.max(np.abs(a - b)) / max(np.max(np.abs(a)), np.max(np.abs(b))))


def compare(path_a: str, path_b: str) -> int:
    """Print the largest relative difference per shape and quantity; 1 when
    the dumps hold different keys or an array of another shape."""
    with np.load(path_a) as a, np.load(path_b) as b:
        if set(a.files) != set(b.files):
            for key in sorted(set(a.files) ^ set(b.files)):
                print(f"only in {path_a if key in a.files else path_b}: {key}")
            return 1
        worst = {}  # (shape, quantity) -> (difference, key), in the dump's order
        for key in a.files:
            x, y = a[key], b[key]
            if x.shape != y.shape:
                print(f"{key}: shape {x.shape} against {y.shape}")
                return 1
            parts = key.split("/")
            group, difference = (parts[0], parts[3]), relative_difference(x, y)
            if group not in worst or difference > worst[group][0]:
                worst[group] = (difference, key)
    for (shape, quantity), (difference, key) in worst.items():
        print(f"{shape:<16s} {quantity:<14s} {difference:.3e}  {key if difference else ''}".rstrip())
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seeds, default=[0], help="e.g. 0-9 or 0,3 (default 0)")
    shapes = [name for workload in workloads.WORKLOADS for name in (workload, f"{workload}-flat")]
    parser.add_argument("--shapes", default=",".join(shapes), help="comma-separated workload names, each with or without -flat")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--dump", metavar="PATH.npz", help="write the initial and perturbed states' quantities instead")
    mode.add_argument("--compare", nargs=2, metavar=("A.npz", "B.npz"), help="compare two dumps instead")
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    dumped = {}
    for name in args.shapes.split(","):
        workload, flat = name.removesuffix("-flat"), name.endswith("-flat")
        for seed in args.seeds:
            if args.dump:
                dumped.update(states(name, workloads.WORKLOADS[workload], seed, flat))
                continue
            fit, step, predict = fingerprint(workloads.WORKLOADS[workload], seed, flat)
            print(f"{name:<16s} seed {seed:<3d} fit {fit}  step {step}  predict {predict}", flush=True)
    if args.dump:
        np.savez(args.dump, **dumped)
        print(f"wrote {len(dumped)} arrays to {args.dump}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
