#!/usr/bin/env python3
"""Cost of one bound-and-gradient step as the number of outputs grows.

For each shape, samples a synthetic dataset on one common grid (10 points
per replica), holds out half of every replica's points per output (so the
training inputs differ per output), initialises a model as ``fit`` does,
and times ``objective.evaluate_with_grad`` at the initial state. Prints one
line per shape: the median milliseconds per step over ``--steps`` steps,
after one warm-up step, and the number of distinct tape nodes one step
builds (its parameter and constant leaves included).

    OPENBLAS_NUM_THREADS=1 python3 scripts/scale_step.py [--steps 20]

The shapes are D = 10, 200 and 1000 outputs with R = 3 replicas (6 inducing
inputs per replica, 4 latent inducing points), and D = 200 with R = 12
(4 inducing inputs per replica, 10 latent inducing points).
"""

import argparse
import statistics
import time

from hiermogp import autodiff, data, objective, training
from hiermogp.params import ParamLayout

# (outputs, replicas, inducing inputs per replica, latent inducing points)
SHAPES = ((10, 3, 6, 4), (200, 3, 6, 4), (1000, 3, 6, 4), (200, 12, 4, 10))


def measure(n_outputs, n_replicas, m_r, m_h, steps, seed=0):
    config = data.SyntheticConfig(n_outputs=n_outputs, n_replicas=n_replicas, share_inputs=True)
    dataset = data.generate_synthetic(config, seed)
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
    for _ in range(steps):
        start = time.perf_counter()
        objective.evaluate_with_grad(theta, layout, template, bound_data)
        times.append(1e3 * (time.perf_counter() - start))
    return statistics.median(times), nodes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--steps", type=int, default=20)
    args = parser.parse_args()
    for n_outputs, n_replicas, m_r, m_h in SHAPES:
        ms, nodes = measure(n_outputs, n_replicas, m_r, m_h, args.steps)
        print(f"D={n_outputs:<5d} R={n_replicas:<3d} m_r={m_r} m_h={m_h}  "
              f"{ms:8.2f} ms/step  {nodes:4d} tape nodes", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
