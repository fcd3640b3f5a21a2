#!/usr/bin/env python3
"""Cost of one bound-and-gradient step as the number of outputs grows.

For each shape, samples a synthetic dataset on one common grid (10 points
per replica), holds out half of every replica's points per output,
initialises a model as ``fit`` does, and times
``objective.evaluate_with_grad`` at the initial state. On the common grid
the outputs' training points are drawn from 10 per replica, so the bound's
Gram has that many rows whatever the number of outputs. The per-output shape
gives every output inputs of its own, so every point is distinct and the
Gram grows with the outputs; its targets are the common-grid draws, since
the step's cost does not depend on their values and sampling distinct inputs
jointly takes a Gram over all D * R * 10 points. Prints one
line per shape: the median milliseconds per step over ``--steps`` steps,
after one warm-up step; the user and system CPU milliseconds per step over
those steps (``os.times``, this process only, counted in clock ticks of
typically 10 ms), where system time shows the kernel mapping and trimming
heap memory; the minor page faults per step over those steps
(``resource.getrusage(RUSAGE_SELF).ru_minflt``, this process only), each a
page of memory the step touched for the first time since the allocator gave
it back; the median microseconds per predicted block, over as many
``prediction.predict_missing_replica`` calls at the initial state on one
10-point block (output 0's inputs in replica 0, predicted as a missing
replica), after the state's first prediction has factored and cached what
every block shares: ``us/block`` on points the state has not seen (the block
shifted by a new tiny offset on each call, so each call computes its cross
covariance) and ``us/block seen`` on the block itself again (its input terms
read from the state's memo); and the number of distinct tape nodes one step
builds (its one leaf, the parameter vector, included).

    OPENBLAS_NUM_THREADS=1 python3 scripts/scale_step.py [--steps 20]

The shapes are D = 10, 200 and 1000 outputs with R = 3 replicas (6 inducing
inputs per replica, 4 latent inducing points) and D = 200 with R = 12
(4 inducing inputs per replica, 10 latent inducing points), each on a
common grid, and D = 1000 with R = 3 on per-output inputs.
"""

import argparse
import os
import resource
import statistics
import time

import numpy as np

from hiermogp import autodiff, data, objective, prediction, training
from hiermogp.params import ParamLayout

# (outputs, replicas, inducing inputs per replica, latent inducing points, common grid)
SHAPES = (
    (10, 3, 6, 4, True),
    (200, 3, 6, 4, True),
    (1000, 3, 6, 4, True),
    (200, 12, 4, 10, True),
    (1000, 3, 6, 4, False),
)


def synthetic(n_outputs, n_replicas, share_inputs, seed):
    config = data.SyntheticConfig(n_outputs=n_outputs, n_replicas=n_replicas, share_inputs=True)
    dataset = data.generate_synthetic(config, seed)
    if share_inputs:
        return dataset
    rng = np.random.default_rng(seed)
    outputs = [
        data.OutputRecord(
            replicas=[
                data.ReplicaBlock(np.sort(rng.uniform(size=b.inputs.shape), axis=0), b.targets)
                for b in record.replicas
            ],
            name=record.name,
        )
        for record in dataset.outputs
    ]
    return data.HierarchicalDataset(outputs=outputs, metadata=dataset.metadata)


def measure(n_outputs, n_replicas, m_r, m_h, share_inputs, steps, seed=0):
    dataset = synthetic(n_outputs, n_replicas, share_inputs, seed)
    train, _ = data.split(dataset, data.SplitPlan(mode="random_fraction", fraction=0.5, seed=seed))
    model = training.ModelConfig(inducing_per_replica=m_r, inducing_latent=m_h)
    template = training.initialize_state(train, model, seed)
    layout = ParamLayout(template)
    bound_data = objective.read_data(template, *train.training_arrays())
    theta = layout.pack(template)
    # every node reachable from the bound, parameter and constant leaves included
    nodes = len(autodiff._topological_order(objective.build_graph(theta, layout, template, bound_data)[0].total))
    objective.evaluate_with_grad(theta, layout, template, bound_data)  # warm-up
    times = []
    cpu_start, faults_start = os.times(), resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(steps):
        start = time.perf_counter()
        objective.evaluate_with_grad(theta, layout, template, bound_data)
        times.append(1e3 * (time.perf_counter() - start))
    cpu_end, faults_end = os.times(), resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    user, system = (1e3 * (b - a) / steps for a, b in zip(cpu_start[:2], cpu_end[:2]))
    faults = (faults_end - faults_start) / steps
    block_us = predict_block_us(template, dataset.block(0, 0).inputs, steps)
    return statistics.median(times), user, system, faults, block_us, nodes


def predict_block_us(state, grid, calls):
    """Median microseconds of a missing-replica prediction, after a first
    call on ``grid``: on ``grid`` shifted by a new offset of 1e-9 per call,
    points the state has not seen, and on ``grid`` itself, which it has."""
    prediction.predict_missing_replica(state, 0, 0, grid)
    unseen = [grid + 1e-9 * (k + 1) for k in range(calls)]
    return _median_us(state, unseen), _median_us(state, [grid] * calls)


def _median_us(state, grids):
    times = []
    for grid in grids:
        start = time.perf_counter()
        prediction.predict_missing_replica(state, 0, 0, grid)
        times.append(1e6 * (time.perf_counter() - start))
    return statistics.median(times)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--steps", type=int, default=20)
    args = parser.parse_args()
    for n_outputs, n_replicas, m_r, m_h, share_inputs in SHAPES:
        ms, user, system, faults, (block_us, seen_us), nodes = measure(
            n_outputs, n_replicas, m_r, m_h, share_inputs, args.steps
        )
        inputs = "common grid" if share_inputs else "per output "
        print(f"D={n_outputs:<5d} R={n_replicas:<3d} m_r={m_r} m_h={m_h} {inputs}  {ms:8.2f} ms/step  "
              f"user {user:7.2f}  sys {system:6.2f} ms/step  {faults:8.1f} faults/step  {block_us:7.1f} us/block  "
              f"{seen_us:7.1f} us/block seen  {nodes:4d} tape nodes",
              flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
