import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hiermogp.data import SyntheticConfig, generate_synthetic
from hiermogp.params import ParamLayout
from hiermogp.training import (
    FitError,
    ModelConfig,
    OptimizerConfig,
    adam_step,
    fit,
    grad_elbo,
    initialize_state,
)

from .helpers import central_fd_grad, random_per_output_data, random_shared_data, random_state


def test_layout_roundtrip_state():
    rng = np.random.default_rng(0)
    for flat in (False, True):
        state = random_state(rng, flat=flat)
        layout = ParamLayout(state)
        theta = layout.pack(state)
        rebuilt = layout.unpack(theta, state)
        assert np.allclose(layout.pack(rebuilt), theta)
        assert rebuilt.hier_kernel.replica.family == state.hier_kernel.replica.family
        assert np.allclose(rebuilt.inducing.mean, state.inducing.mean)
        assert np.allclose(rebuilt.latent_posterior.variances, state.latent_posterior.variances)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_pack_unpack_identity_on_random_vectors(seed):
    rng = np.random.default_rng(seed)
    state = random_state(rng)
    layout = ParamLayout(state)
    theta = rng.standard_normal(layout.size)
    rebuilt = layout.pack(layout.unpack(theta, state))
    assert np.allclose(rebuilt, theta, rtol=0, atol=1e-12)


def test_span_lookup_and_mask():
    rng = np.random.default_rng(1)
    state = random_state(rng)
    layout = ParamLayout(state)
    assert layout.span_of_index(0) == layout.spans[0].name
    mask = layout.mask_for(["log_noise_variance"])
    span = layout.span("log_noise_variance")
    assert mask.sum() == span.size
    assert np.all(mask[span.start : span.stop] == 1.0)
    with pytest.raises(KeyError):
        layout.mask_for(["no_such_span"])


def test_gradient_zero_at_latent_prior():
    # kl_latent is minimised at mean zero, unit variance; with data terms
    # blocked out, those spans should carry zero gradient
    rng = np.random.default_rng(2)
    state = random_state(rng)
    state.latent_posterior.means[:] = 0.0
    state.latent_posterior.variances[:] = 1.0
    x, y = random_per_output_data(rng, state)
    layout = ParamLayout(state)
    theta = layout.pack(state)
    _, grad, _ = grad_elbo(theta, layout, state, x, y, "per_output")
    # the latent spans also feed the data fit; isolate the kl part by
    # comparing against a state with data influence removed (zero targets
    # and zero inducing mean keeps the psi terms, so use the kl directly)
    from hiermogp import autodiff as ad

    mean_node = ad.Node(np.zeros_like(state.latent_posterior.means))
    logvar_node = ad.Node(np.zeros_like(state.latent_posterior.variances))
    s = ad.exp(logvar_node)
    kl = 0.5 * ad.sum(s + mean_node * mean_node - 1.0 - logvar_node)
    g_mean, g_logvar = ad.grad(kl, [mean_node, logvar_node])
    assert np.allclose(g_mean, 0.0)
    assert np.allclose(g_logvar, 0.0)


def fd_check(state, x, y, regime, rtol=1e-4, step=1e-5):
    layout = ParamLayout(state)
    theta = layout.pack(state)
    _, grad, _ = grad_elbo(theta, layout, state, x, y, regime)
    grad_fd = central_fd_grad(theta, layout, state, x, y, regime, step_rel=step)
    scale = np.maximum(1.0, np.maximum(np.abs(grad), np.abs(grad_fd)))
    worst = np.max(np.abs(grad - grad_fd) / scale)
    assert worst < rtol, (worst, layout.span_of_index(int(np.argmax(np.abs(grad - grad_fd) / scale))))


def test_gradients_match_finite_differences_both_regimes():
    for trial in range(5):
        rng = np.random.default_rng(700 + trial)
        state = random_state(rng, per_output_noise=True, flat=(trial % 2 == 1))
        x, y = random_per_output_data(rng, state, ragged=True)
        fd_check(state, x, y, "per_output")
    for trial in range(5):
        rng = np.random.default_rng(800 + trial)
        state = random_state(rng, per_output_noise=False)
        x, y = random_shared_data(rng, state)
        fd_check(state, x, y, "shared")


def test_noise_only_gradient_matches_hand_derivative():
    # single datum, inducing mean zero: the noise gradient reduces to the
    # calculus of -(1/2) log(2 pi s) - y^2/(2 s) plus trace corrections;
    # compare against finite differences of the bound itself
    rng = np.random.default_rng(3)
    state = random_state(rng, n_outputs=1, n_replicas=1, m_per_replica=1, m_latent=1)
    x = [[np.array([[0.5]])]]
    y = [np.array([0.7])]
    layout = ParamLayout(state)
    theta = layout.pack(state)
    breakdown, grad, _ = grad_elbo(theta, layout, state, x, y, "per_output")
    span = layout.span("log_noise_variance")

    def value_at(log_sig2):
        theta2 = theta.copy()
        theta2[span.start] = log_sig2
        b, _, _ = grad_elbo(theta2, layout, state, x, y, "per_output")
        return b.total

    step = 1e-6
    fd = (value_at(theta[span.start] + step) - value_at(theta[span.start] - step)) / (2 * step)
    assert np.isclose(grad[span.start], fd, rtol=1e-6, atol=1e-8)


def test_adam_zero_gradient_is_identity():
    cfg = OptimizerConfig(iterations=1)
    params = np.array([1.0, -2.0])
    moments = (np.zeros(2), np.zeros(2))
    new, _ = adam_step(params, np.zeros(2), moments, cfg, 1)
    assert np.array_equal(new, params)


def test_adam_first_step_formula():
    cfg = OptimizerConfig(learning_rate=0.05, iterations=1)
    g = np.array([0.3, -2.0])
    params = np.zeros(2)
    new, _ = adam_step(params, g, (np.zeros(2), np.zeros(2)), cfg, 1)
    # bias correction makes the first step lr * g / (|g| + eps')
    expected = 0.05 * g / (np.abs(g) + cfg.adam_eps * np.sqrt(1.0 - cfg.adam_beta2))
    assert np.allclose(new, expected, rtol=1e-9)


def test_adam_constant_gradient_reaches_signed_step():
    cfg = OptimizerConfig(learning_rate=0.01, iterations=1)
    g = np.array([0.5, -0.1])
    params = np.zeros(2)
    moments = (np.zeros(2), np.zeros(2))
    steps = []
    for t in range(1, 400):
        new, moments = adam_step(params, g, moments, cfg, t)
        steps.append(new - params)
        params = new
    assert np.allclose(steps[-1], 0.01 * np.sign(g), rtol=1e-3)


def tiny_dataset(seed=0, n_outputs=3, n_replicas=2, points=6):
    config = SyntheticConfig(
        n_outputs=n_outputs,
        n_replicas=n_replicas,
        points_per_replica=points,
        noise_variance=0.05,
    )
    return generate_synthetic(config, seed=seed)


def test_fit_improves_bound_and_is_deterministic():
    dataset = tiny_dataset()
    model_config = ModelConfig(inducing_per_replica=3, inducing_latent=2)
    opt = OptimizerConfig(iterations=60, seed=4)
    first = fit(dataset, model_config, opt)
    second = fit(dataset, model_config, opt)
    assert np.array_equal(first.trace, second.trace)
    assert first.trace[-1] > first.trace[0]
    assert np.all(np.isfinite(first.trace))
    assert np.isclose(first.trace.max(), first.diagnostics["best_value"])
    assert first.best_index == int(np.argmax(first.trace))


def test_fit_best_state_attains_trace_max():
    dataset = tiny_dataset(seed=5)
    model_config = ModelConfig(inducing_per_replica=3, inducing_latent=2)
    opt = OptimizerConfig(iterations=40, seed=1)
    result = fit(dataset, model_config, opt)
    from hiermogp.elbo import elbo_per_output

    x, y = dataset.training_arrays()
    value = elbo_per_output(result.state, x, y).total
    assert np.isclose(value, result.trace.max(), rtol=1e-9)


def test_noise_only_fit_recovers_residual_variance():
    # shrink every kernel amplitude so the model explains nothing: the
    # targets are then pure residuals and the noise MLE is their mean square
    from hiermogp.kernels import HierarchicalKernel, StationaryKernel
    from hiermogp.model import ModelState

    dataset = tiny_dataset(seed=7, n_outputs=2, points=8)
    model_config = ModelConfig(inducing_per_replica=2, inducing_latent=2)
    base = initialize_state(dataset, model_config, seed=0)
    tiny = lambda k: StationaryKernel(k.family, 1e-8, k.lengthscales)
    state = ModelState(
        hier_kernel=HierarchicalKernel(
            shared=tiny(base.hier_kernel.shared), replica=tiny(base.hier_kernel.replica)
        ),
        latent_kernel=tiny(base.latent_kernel),
        latent_posterior=base.latent_posterior,
        inducing=base.inducing,
        noise_variance=base.noise_variance,
    )
    state.inducing.cov_input_chol *= 1e-4
    state.inducing.cov_latent_chol *= 1e-4
    opt = OptimizerConfig(
        iterations=2500, learning_rate=0.05, seed=2, trainable=["log_noise_variance"]
    )
    result = fit(dataset, model_config, opt, initial_state=state)
    x, y = dataset.training_arrays()
    for d in range(dataset.n_outputs):
        residual_ms = float(np.mean(np.asarray(y[d]) ** 2))
        assert np.isclose(result.state.noise_variance[d], residual_ms, rtol=0.01)


def test_noise_only_best_sequence_is_monotone():
    # the sequence of accepted (best so far) bound values never decreases
    dataset = tiny_dataset(seed=8)
    model_config = ModelConfig(inducing_per_replica=2, inducing_latent=2)
    opt = OptimizerConfig(iterations=300, learning_rate=0.05, seed=0, trainable=["log_noise_variance"])
    result = fit(dataset, model_config, opt)
    best_sequence = np.maximum.accumulate(result.trace)
    assert np.all(np.diff(best_sequence) >= -1e-9)
    assert np.isclose(best_sequence[-1], result.trace[result.best_index])


def test_fit_shared_regime_requires_common_grid():
    dataset = tiny_dataset(seed=9)
    model_config = ModelConfig(regime="shared", inducing_per_replica=2)
    with pytest.raises(ValueError, match="common input grid"):
        fit(dataset, model_config, OptimizerConfig(iterations=1))


def test_fit_shared_regime_runs_on_common_grid():
    config = SyntheticConfig(
        n_outputs=2, n_replicas=2, points_per_replica=5, share_inputs=True, noise_variance=0.05
    )
    dataset = generate_synthetic(config, seed=3)
    assert dataset.has_common_inputs()
    model_config = ModelConfig(regime="shared", inducing_per_replica=2, inducing_latent=2)
    result = fit(dataset, model_config, OptimizerConfig(iterations=30, seed=0))
    assert result.state.noise_variance.ndim == 0
    assert result.trace[-1] > result.trace[0]


def test_initialize_state_pca_on_common_grid():
    config = SyntheticConfig(
        n_outputs=4, n_replicas=2, points_per_replica=5, share_inputs=True, noise_variance=0.05
    )
    dataset = generate_synthetic(config, seed=11)
    state = initialize_state(dataset, ModelConfig(inducing_per_replica=2), seed=0)
    # PCA scores are standardised per latent dimension
    assert np.allclose(state.latent_posterior.means.std(axis=0), 1.0, atol=1e-6)
    # strided inducing inputs lie inside the observed range
    pool = np.concatenate([b.inputs for o in dataset.outputs for b in o.replicas])
    for block in state.inducing.z_input:
        assert block.min() >= pool.min() - 1e-12
        assert block.max() <= pool.max() + 1e-12


def test_initialize_state_random_fallback_on_ragged_grids():
    dataset = tiny_dataset(seed=12, n_outputs=4)
    assert not dataset.has_common_inputs()
    state = initialize_state(dataset, ModelConfig(inducing_per_replica=2), seed=0)
    assert state.latent_posterior.means.std() < 0.5  # 0.1-scale draw
    with pytest.raises(ValueError, match="comparable"):
        initialize_state(dataset, ModelConfig(inducing_per_replica=2), seed=0, init_strategy="pca")


def test_initialize_state_degenerate_pca_direction():
    # two outputs give a rank-one summary; the second latent direction must
    # come from the random pad, not a blown-up zero singular direction
    config = SyntheticConfig(
        n_outputs=2, n_replicas=2, points_per_replica=8, share_inputs=True, noise_variance=0.05
    )
    dataset = generate_synthetic(config, seed=7)
    state = initialize_state(dataset, ModelConfig(inducing_per_replica=2), seed=0)
    means = state.latent_posterior.means
    assert np.all(np.isfinite(means))
    assert np.abs(means).max() < 10.0


def test_fit_error_reports_offending_span():
    rng = np.random.default_rng(13)
    state = random_state(rng)
    x, y = random_per_output_data(rng, state)
    layout = ParamLayout(state)
    theta = layout.pack(state)
    theta[layout.span("log_noise_variance").start] = 800.0  # exp overflows
    with pytest.raises(FitError):
        grad_elbo(theta, layout, state, x, y, "per_output")


@pytest.mark.parametrize(
    "config, field, value",
    [
        (ModelConfig, "latent_dim", 0),
        (ModelConfig, "inducing_per_replica", 0),
        (ModelConfig, "inducing_latent", 0),
        (OptimizerConfig, "adam_beta1", 1.0),
        (OptimizerConfig, "adam_beta1", -0.1),
        (OptimizerConfig, "adam_beta2", 1.0),
        (OptimizerConfig, "adam_eps", 0.0),
    ],
)
def test_bad_model_and_optimizer_configs_are_rejected(config, field, value):
    from hiermogp.cli import ConfigError, RunConfig

    with pytest.raises(ValueError, match=field):
        config(**{field: value})
    section = "model" if config is ModelConfig else "optimizer"
    with pytest.raises(ConfigError, match=rf"^{section}: {field}"):
        RunConfig({"dataset": {"synthetic": {}}, section: {field: value}})


def test_fit_error_keeps_best_state_and_trace(monkeypatch):
    from hiermogp import objective
    from hiermogp.elbo import elbo_per_output
    from hiermogp.model import ElboBreakdown, ModelState

    original = objective.evaluate_with_grad
    calls = []

    def nan_gradient_at_third_call(*args, **kwargs):
        calls.append(1)
        breakdown, grad, jitters = original(*args, **kwargs)
        if len(calls) == 3:
            grad = np.full_like(grad, np.nan)
        return breakdown, grad, jitters

    monkeypatch.setattr(objective, "evaluate_with_grad", nan_gradient_at_third_call)
    dataset = tiny_dataset(seed=2)
    with pytest.raises(FitError, match="non-finite gradient") as caught:
        fit(dataset, ModelConfig(inducing_per_replica=3, inducing_latent=2), OptimizerConfig(iterations=10))
    diagnostics = caught.value.diagnostics
    assert diagnostics["iteration"] == 3
    trace = diagnostics["trace"]
    assert trace.shape == (2,) and np.all(np.isfinite(trace))
    best = diagnostics["best_state"]
    assert isinstance(best, ModelState)
    x, y = dataset.training_arrays()
    assert np.isclose(elbo_per_output(best, x, y).total, trace.max(), rtol=1e-12)

    # a non-finite bound at the final iterate fails after the loop, keeping the same
    monkeypatch.setattr(objective, "evaluate_with_grad", original)
    monkeypatch.setattr(objective, "evaluate", lambda *args: (ElboBreakdown(np.nan, 0.0, 0.0), {}))
    with pytest.raises(FitError, match="non-finite values") as caught:
        fit(dataset, ModelConfig(inducing_per_replica=3, inducing_latent=2), OptimizerConfig(iterations=4))
    monkeypatch.undo()
    trace = caught.value.diagnostics["trace"]
    assert trace.shape == (5,) and np.all(np.isfinite(trace[:4])) and np.isnan(trace[4])
    best = caught.value.diagnostics["best_state"]
    assert np.isclose(elbo_per_output(best, x, y).total, trace[:4].max(), rtol=1e-12)
