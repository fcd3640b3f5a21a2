"""Training: initialisation, gradients, Adam ascent and the fit loop."""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from . import objective
from .data import HierarchicalDataset
from .kernels import MATERN32, RBF, HierarchicalKernel, StationaryKernel, hier_block_cov, latent_cov
from .kron import cholesky_jitter
from .latent import InducingState, LatentPosterior
from .model import ElboBreakdown, ModelState
from .params import ParamLayout

log = logging.getLogger(__name__)

_PLATEAU_WINDOW = 500


class FitError(RuntimeError):
    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


@dataclass
class ModelConfig:
    """Shape of the model to fit."""

    latent_dim: int = 2
    inducing_per_replica: int = 6
    inducing_latent: int = 2
    shared_family: str = MATERN32
    replica_family: str = MATERN32
    flat: bool = False  # force zero cross-replica coupling (ablation)
    regime: str = "per_output"  # or "shared"

    def __post_init__(self):
        for name in ("latent_dim", "inducing_per_replica", "inducing_latent"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        if self.regime not in ("per_output", "shared"):
            raise ValueError(f"unknown regime {self.regime!r}")


@dataclass
class OptimizerConfig:
    learning_rate: float = 0.01
    iterations: int = 10_000
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    seed: int = 0
    trainable: list = None  # span names; None trains everything

    def __post_init__(self):
        if self.learning_rate <= 0.0:
            raise ValueError("learning_rate must be positive")
        if self.iterations < 1:
            raise ValueError("iterations must be at least 1")
        for name in ("adam_beta1", "adam_beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValueError(f"{name} must lie in [0, 1)")
        if not self.adam_eps > 0.0:
            raise ValueError("adam_eps must be positive")


@dataclass
class FitResult:
    state: ModelState
    trace: np.ndarray
    best_index: int
    diagnostics: dict = field(default_factory=dict)


def _signal_summary(dataset: HierarchicalDataset) -> np.ndarray | None:
    """One row per output: its stacked targets, when every output shares the
    same grid (otherwise there is no comparable summary and PCA is skipped)."""
    if not dataset.has_common_inputs() or dataset.n_points == 0:
        return None
    return np.stack([dataset.per_output_targets(d) for d in range(dataset.n_outputs)])


def _pca_latent_init(summary: np.ndarray, latent_dim: int, rng) -> np.ndarray:
    """Latent means from the principal directions of the output-by-signal matrix.

    Directions whose singular value is numerically zero carry no separation
    and are replaced by small random draws instead of being blown up by the
    per-direction standardisation.
    """
    centered = summary - summary.mean(axis=0, keepdims=True)
    u, s, _ = np.linalg.svd(centered, full_matrices=False)
    informative = int(np.sum(s > 1e-8 * max(s[0] if s.size else 0.0, 1e-300)))
    k = min(latent_dim, informative)
    scores = u[:, :k] * s[:k]
    std = scores.std(axis=0)
    std[std < 1e-12] = 1.0
    scores = scores / std
    if k < latent_dim:
        pad = 0.1 * rng.standard_normal((summary.shape[0], latent_dim - k))
        scores = np.concatenate([scores, pad], axis=1)
    return scores


def _strided_inducing_inputs(dataset: HierarchicalDataset, m_per_replica: int, rng) -> list:
    """Per replica, a uniformly strided subset of the pooled observed inputs."""
    v = dataset.input_dim
    blocks = []
    pooled_all = np.concatenate(
        [b.inputs for o in dataset.outputs for b in o.replicas if b.n_points > 0], axis=0
    )
    lo, hi = pooled_all.min(axis=0), pooled_all.max(axis=0)
    for r in range(dataset.n_replicas):
        points = [o.replicas[r].inputs for o in dataset.outputs if o.replicas[r].n_points > 0]
        pool = np.concatenate(points, axis=0) if points else np.zeros((0, v))
        if pool.shape[0] >= m_per_replica:
            order = np.argsort(pool[:, 0], kind="stable")
            idx = np.linspace(0, pool.shape[0] - 1, m_per_replica).round().astype(int)
            blocks.append(pool[order][idx])
        else:
            # not enough observations in this replica: pad with uniform draws
            fill = rng.uniform(lo, hi, size=(m_per_replica - pool.shape[0], v))
            blocks.append(np.concatenate([pool, fill], axis=0))
    return blocks


def initialize_state(
    dataset: HierarchicalDataset,
    config: ModelConfig,
    seed: int,
    init_strategy: str = "auto",
) -> ModelState:
    """Conventional starting point; every choice here lands in the manifest.

    Latent means come from PCA of the targets when outputs share a grid and
    from small Gaussian noise otherwise; inducing inputs stride the observed
    inputs; the inducing posterior starts at a damped copy of its prior.
    """
    if init_strategy not in ("auto", "pca", "random"):
        raise ValueError(f"unknown init_strategy {init_strategy!r}")
    rng = np.random.default_rng(seed)
    d = dataset.n_outputs
    v = dataset.input_dim
    q = config.latent_dim

    summary = None if init_strategy == "random" else _signal_summary(dataset)
    if init_strategy == "pca" and summary is None:
        raise ValueError("pca initialisation needs comparable input grids across outputs")
    latent_means = (
        _pca_latent_init(summary, q, rng) if summary is not None else 0.1 * rng.standard_normal((d, q))
    )
    posterior = LatentPosterior(means=latent_means, variances=np.full((d, q), 0.5))

    shared = None
    if not config.flat:
        # start the shared level damped relative to the replica level; growing
        # it is easy for the optimiser, shrinking a dominant one is slow
        shared = StationaryKernel(config.shared_family, 0.1, np.ones(v))
    hier = HierarchicalKernel(
        shared=shared, replica=StationaryKernel(config.replica_family, 1.0, np.ones(v))
    )
    latent_kernel = StationaryKernel(RBF, 1.0, np.ones(q))

    z_input = _strided_inducing_inputs(dataset, config.inducing_per_replica, rng)
    z_latent = rng.standard_normal((config.inducing_latent, q))
    m_x = config.inducing_per_replica * dataset.n_replicas

    kuu_x = hier_block_cov(hier, z_input, z_input)
    kuu_h = latent_cov(latent_kernel, z_latent, z_latent)
    cov_input_chol = np.sqrt(0.1) * cholesky_jitter(kuu_x).lower
    cov_latent_chol = np.sqrt(0.1) * cholesky_jitter(kuu_h).lower

    inducing = InducingState(
        z_input=z_input,
        z_latent=z_latent,
        mean=np.zeros((m_x, config.inducing_latent)),
        cov_latent_chol=cov_latent_chol,
        cov_input_chol=cov_input_chol,
    )
    targets = np.concatenate([dataset.per_output_targets(i) for i in range(d)])
    base_noise = 0.1 * float(np.var(targets))
    if base_noise <= 0.0:
        base_noise = 1e-2
    noise = np.full(d, base_noise) if config.regime == "per_output" else np.asarray(base_noise)
    return ModelState(
        hier_kernel=hier,
        latent_kernel=latent_kernel,
        latent_posterior=posterior,
        inducing=inducing,
        noise_variance=noise,
    )


def grad_elbo(theta: np.ndarray, layout: ParamLayout, template: ModelState, x, y, regime: str):
    """Bound value and analytic gradient at an unconstrained parameter vector."""
    breakdown, grad, jitters = objective.evaluate_with_grad(theta, layout, template, x, y, regime)
    if not np.isfinite(breakdown.total):
        raise FitError(
            "bound is not finite at the requested parameters",
            diagnostics={"breakdown": breakdown},
        )
    bad = ~np.isfinite(grad)
    if bad.any():
        spans = sorted({layout.span_of_index(i) for i in np.flatnonzero(bad)})
        raise FitError(
            f"non-finite gradient in parameter spans {spans}",
            diagnostics={"spans": spans},
        )
    return breakdown, grad, jitters


def adam_step(params, grads, moments, config: OptimizerConfig, t: int):
    """One bias-corrected Adam ascent step; t counts from 1."""
    if t < 1:
        raise ValueError("step index starts at 1")
    m, v = moments
    m = config.adam_beta1 * m + (1.0 - config.adam_beta1) * grads
    v = config.adam_beta2 * v + (1.0 - config.adam_beta2) * grads**2
    m_hat = m / (1.0 - config.adam_beta1**t)
    v_hat = v / (1.0 - config.adam_beta2**t)
    new_params = params + config.learning_rate * m_hat / (np.sqrt(v_hat) + config.adam_eps)
    return new_params, (m, v)


def fit(
    dataset: HierarchicalDataset,
    model_config: ModelConfig,
    optimizer_config: OptimizerConfig,
    init_strategy: str = "auto",
    initial_state: ModelState | None = None,
) -> FitResult:
    """Maximise the bound for a fixed number of Adam iterations.

    Returns the best state encountered together with the full bound trace
    (one entry per evaluated iterate, including the final one). A plateau in
    the best value is logged but never stops the run. A ``FitError`` carries
    the best state so far (``None`` before the first finite bound) and the
    trace so far in its ``diagnostics``, under ``best_state`` and ``trace``.
    """
    if model_config.regime == "shared" and not dataset.has_common_inputs():
        raise ValueError("shared regime requires every output on one common input grid")
    state0 = initial_state or initialize_state(
        dataset, model_config, optimizer_config.seed, init_strategy
    )
    layout = ParamLayout(state0)
    template = state0
    if model_config.regime == "shared":
        x = dataset.per_output_blocks(0)
        y = np.concatenate([dataset.per_output_targets(d) for d in range(dataset.n_outputs)])
    else:
        x, y = dataset.training_arrays()

    mask = None
    if optimizer_config.trainable is not None:
        mask = layout.mask_for(optimizer_config.trainable)

    theta = layout.pack(state0)
    moments = (np.zeros_like(theta), np.zeros_like(theta))
    trace = np.empty(optimizer_config.iterations + 1)
    best_value = -np.inf
    best_theta = theta.copy()
    best_index = 0
    jitter_events = 0
    last_improvement = 0

    def progress(evaluated: int) -> dict:
        """The best state so far and the first ``evaluated`` trace entries."""
        best_state = layout.unpack(best_theta, template) if best_value > -np.inf else None
        return {"best_state": best_state, "trace": trace[:evaluated].copy()}

    for t in range(1, optimizer_config.iterations + 1):
        try:
            breakdown, grad, jitters = grad_elbo(theta, layout, template, x, y, model_config.regime)
        except FitError as err:
            err.diagnostics.update(iteration=t, **progress(t - 1))
            raise
        trace[t - 1] = breakdown.total
        jitter_events += sum(1 for j in jitters.values() if j > 0.0)
        if breakdown.total > best_value:
            best_value = breakdown.total
            best_theta = theta.copy()
            best_index = t - 1
            last_improvement = t
        elif t - last_improvement == _PLATEAU_WINDOW:
            log.info("bound has not improved for %d iterations (iteration %d)", _PLATEAU_WINDOW, t)
        if mask is not None:
            grad = grad * mask
        theta, moments = adam_step(theta, grad, moments, optimizer_config, t)
    final, _ = objective.evaluate(theta, layout, template, x, y, model_config.regime)
    trace[-1] = final.total
    if final.total > best_value:
        best_value = final.total
        best_theta = theta.copy()
        best_index = optimizer_config.iterations
    if not np.all(np.isfinite(trace)):
        raise FitError("bound trace contains non-finite values", diagnostics=progress(trace.size))
    best_state = layout.unpack(best_theta, template)
    diagnostics = {
        "jitter_events": jitter_events,
        "best_value": best_value,
        "final_value": float(final.total),
    }
    return FitResult(state=best_state, trace=trace, best_index=best_index, diagnostics=diagnostics)
