"""Builders for random tiny model states and datasets used across tests,
a fit's first step on synthetic data, a layout's spans by name, the
parameter node as the bound records it, the inducing covariances and the
latent dimension of a state, finite-difference oracles for tape gradients
and the bound's gradient, the fused nodes those oracles contract and
transform tape outputs with, and a runner for child Python processes."""

import os
import pathlib
import subprocess
import sys

import numpy as np

import hiermogp
from hiermogp import autodiff as ad
from hiermogp import data, objective, training
from hiermogp.kernels import MATERN32, RBF, HierarchicalKernel, StationaryKernel
from hiermogp.latent import InducingState, LatentPosterior
from hiermogp.model import ModelState
from hiermogp.params import ParamLayout


def random_chol(rng, n, scale=0.5):
    b = rng.standard_normal((n, n)) * scale
    return np.linalg.cholesky(b @ b.T + np.eye(n))


def random_state(
    rng,
    n_outputs=2,
    n_replicas=2,
    m_per_replica=2,
    m_latent=2,
    latent_dim=2,
    input_dim=1,
    flat=False,
    per_output_noise=True,
    input_family=MATERN32,
    latent_var_scale=1.0,
    mean_scale=0.5,
):
    shared = None
    if not flat:
        shared = StationaryKernel(
            input_family, rng.uniform(0.1, 0.5), rng.uniform(0.6, 1.5, size=input_dim)
        )
    replica = StationaryKernel(
        input_family, rng.uniform(0.5, 1.5), rng.uniform(0.6, 1.5, size=input_dim)
    )
    latent_kernel = StationaryKernel(
        RBF, rng.uniform(0.5, 1.5), rng.uniform(0.6, 1.5, size=latent_dim)
    )
    posterior = LatentPosterior(
        means=rng.standard_normal((n_outputs, latent_dim)),
        variances=rng.uniform(0.05, 0.5, size=(n_outputs, latent_dim)) * latent_var_scale,
    )
    m_x = m_per_replica * n_replicas
    inducing = InducingState(
        z_input=[rng.uniform(size=(m_per_replica, input_dim)) for _ in range(n_replicas)],
        z_latent=rng.standard_normal((m_latent, latent_dim)),
        mean=mean_scale * rng.standard_normal((m_x, m_latent)),
        cov_latent_chol=random_chol(rng, m_latent),
        cov_input_chol=random_chol(rng, m_x),
    )
    if per_output_noise:
        noise = rng.uniform(0.05, 0.3, size=n_outputs)
    else:
        noise = np.asarray(rng.uniform(0.05, 0.3))
    return ModelState(
        hier_kernel=HierarchicalKernel(shared=shared, replica=replica),
        latent_kernel=latent_kernel,
        latent_posterior=posterior,
        inducing=inducing,
        noise_variance=noise,
    )


def random_shared_data(rng, state, n_per_replica=3):
    blocks = [
        rng.uniform(size=(n_per_replica, state.input_dim)) for _ in range(state.n_replicas)
    ]
    n_points = n_per_replica * state.n_replicas
    y = rng.standard_normal(state.n_outputs * n_points)
    return blocks, y


def shared_as_per_output(state, blocks, y):
    """Shared-grid data (R blocks, targets stacked output-major) as per-output data."""
    return [blocks] * state.n_outputs, np.reshape(y, (state.n_outputs, -1))


def random_per_output_data(rng, state, n_per_replica=3, ragged=False):
    x = []
    y = []
    for _ in range(state.n_outputs):
        counts = [
            int(rng.integers(1, n_per_replica + 1)) if ragged else n_per_replica
            for _ in range(state.n_replicas)
        ]
        blocks = [rng.uniform(size=(c, state.input_dim)) for c in counts]
        x.append(blocks)
        y.append(rng.standard_normal(sum(counts)))
    return x, y


def initial_step(n_outputs, n_replicas, inducing_per_replica, inducing_latent, points_per_replica=10, flat=False):
    """``(theta, layout, bound_data)`` of a fit's first step on
    synthetic data with per-output inputs."""
    config = data.SyntheticConfig(n_outputs=n_outputs, n_replicas=n_replicas, points_per_replica=points_per_replica)
    dataset = data.generate_synthetic(config, seed=0)
    train, _ = data.split(dataset, data.SplitPlan(mode="random_fraction", fraction=0.5, seed=0))
    model = training.ModelConfig(inducing_per_replica=inducing_per_replica, inducing_latent=inducing_latent, flat=flat)
    template = training.initialize_state(train, model, seed=0)
    layout = ParamLayout(template)
    return layout.pack(template), layout, objective.read_data(template, *train.training_arrays())


def span(layout, name):
    """The span of ``layout`` named ``name``; a ``KeyError`` if it has none."""
    return {s.name: s for s in layout.spans}[name]


def constrained(layout, leaf):
    """The outputs of ``layout.constrain`` on the vector node ``leaf`` as
    nodes by name, recorded as ``objective.build_graph`` records them."""
    named, backward = layout.constrain(leaf.value)
    return dict(zip(named, ad.fused(tuple(named.values()), (leaf,), backward)))


def cov_latent(inducing):
    """The output-side inducing covariance ``S_h = L_h L_h^T``."""
    return inducing.cov_latent_chol @ inducing.cov_latent_chol.T


def cov_input(inducing):
    """The input-side inducing covariance ``S_x = L_x L_x^T``."""
    return inducing.cov_input_chol @ inducing.cov_input_chol.T


def latent_dim(state):
    """The dimension of a state's latent output coordinates."""
    return state.latent_posterior.latent_dim


def central_fd_grad(theta, layout, data, step_rel=1e-5):
    """Central differences of the bound, one coordinate at a time, with a step
    of ``step_rel`` relative to the coordinate (at least ``step_rel``)."""
    theta = np.asarray(theta, float)
    grad = np.empty_like(theta)
    for i in range(theta.size):
        step = step_rel * max(1.0, abs(theta[i]))
        plus = theta.copy()
        minus = theta.copy()
        plus[i] += step
        minus[i] -= step
        f_plus = objective.evaluate(plus, layout, data)[0].total
        f_minus = objective.evaluate(minus, layout, data)[0].total
        grad[i] = (f_plus - f_minus) / (2.0 * step)
    return grad


def fd_grad(fun, x, step=1e-6):
    """Central finite differences of a scalar function of one array."""
    x = np.asarray(x, float)
    g = np.zeros_like(x)
    flat = x.ravel()
    for i in range(flat.size):
        plus = flat.copy()
        minus = flat.copy()
        plus[i] += step
        minus[i] -= step
        g.ravel()[i] = (fun(plus.reshape(x.shape)) - fun(minus.reshape(x.shape))) / (2 * step)
    return g


def contract(*terms):
    """``sum_k <w_k, x_k>`` over ``(x_k, w_k)`` pairs as one fused node: the
    scalar a finite-difference check reads a node's outputs through. A
    weight may be a scalar or an array broadcast to its node's shape."""
    nodes = tuple(x for x, _ in terms)
    weights = [np.broadcast_to(np.asarray(w, float), x.value.shape) for x, w in terms]
    value = sum(np.vdot(w, x.value) for x, w in zip(nodes, weights))
    return ad.fused(value, nodes, lambda g: tuple(g * w for w in weights))


def exp(x):
    """Elementwise ``exp`` of a node as one fused node."""
    value = np.exp(x.value)
    return ad.fused(value, (x,), lambda g: (g * value,))


def symmetrised(x):
    """``(x + x^T) / 2`` of a square node as one fused node."""
    return ad.fused(0.5 * (x.value + x.value.T), (x,), lambda g: (0.5 * (g + g.T),))


def check(build, *arrays, step=1e-6, rtol=1e-6, atol=1e-8):
    """Compare autodiff gradients of a scalar graph against finite differences."""
    leaves = [ad.Node(a) for a in arrays]
    out = build(*leaves)
    grads = ad.grad(out, leaves)
    for k, array in enumerate(arrays):

        def value_at(replaced, k=k):
            args = [ad.Node(a) for a in arrays]
            args[k] = ad.Node(replaced)
            return float(build(*args).value)

        fd = fd_grad(value_at, array, step=step)
        assert np.allclose(grads[k], fd, rtol=rtol, atol=atol), f"leaf {k}"


def run_child(*args):
    """Run ``python *args`` with the same hiermogp as this process, installed or not."""
    package_root = str(pathlib.Path(hiermogp.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)
