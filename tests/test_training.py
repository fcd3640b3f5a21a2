import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hiermogp import autodiff as ad
from hiermogp import training
from hiermogp.data import SyntheticConfig, generate_synthetic, load_csv, save_csv
from hiermogp.latent import InducingState, kl_latent
from hiermogp.objective import read_data
from hiermogp.params import ParamLayout
from hiermogp.prediction import predict_marginal
from hiermogp.training import (
    FitError,
    ModelConfig,
    OptimizerConfig,
    adam_step,
    fit,
    grad_elbo,
    initialize_state,
)

from .helpers import (
    central_fd_grad,
    check,
    contract,
    random_chol,
    random_per_output_data,
    random_shared_data,
    random_state,
    shared_as_per_output,
)


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


@pytest.mark.parametrize("flat", [False, True])
@pytest.mark.parametrize("per_output_noise", [True, False])
def test_parameter_node_matches_unpack_and_finite_differences(flat, per_output_noise):
    rng = np.random.default_rng(4)
    state = random_state(rng, n_outputs=3, input_dim=2, flat=flat, per_output_noise=per_output_noise)
    layout = ParamLayout(state)
    theta = layout.pack(state) + 0.1 * rng.standard_normal(layout.size)
    p = {name: node.value for name, node in layout.constrain(ad.Node(theta)).items()}
    rebuilt = layout.unpack(theta, state)
    hk = rebuilt.hier_kernel
    kernels = {"replica": hk.replica, "latent_kernel": rebuilt.latent_kernel}
    if not flat:
        kernels["shared"] = hk.shared
    for name, kernel in kernels.items():
        assert p[f"{name}_variance"] == kernel.variance
        assert np.array_equal(p[f"{name}_lengthscales"], kernel.lengthscales)
    assert ("shared_variance" in p) != flat
    assert p["input_self_variance"] == hk.diag_value
    for side in ("latent", "input"):
        chol = getattr(rebuilt.inducing, f"cov_{side}_chol")
        assert np.array_equal(p[f"cov_{side}"], chol @ chol.T)
        assert np.isclose(p[f"logdet_cov_{side}"], 2.0 * np.sum(np.log(np.diag(chol))), rtol=1e-14, atol=0.0)
    assert np.allclose(np.exp(p["log_noise_variance"]), rebuilt.noise_variance, rtol=1e-15, atol=0.0)

    weights = {name: rng.standard_normal(np.shape(value)) for name, value in p.items()}

    def contracted(theta):
        return contract(*[(node, weights[name]) for name, node in layout.constrain(theta).items()])

    check(contracted, theta)
    leaf = ad.Node(theta)
    (g,) = ad.grad(contracted(leaf), [leaf])
    assert all(np.all(g[s.start : s.stop] != 0.0) for s in layout.spans)  # every span is reached


def test_span_lookup_and_mask():
    rng = np.random.default_rng(1)
    state = random_state(rng)
    layout = ParamLayout(state)
    assert layout.span_of_index(0) == layout.spans[0].name
    span = layout.span("log_noise_variance")
    assert span.size == state.n_outputs
    assert layout.span_of_index(span.start) == layout.span_of_index(span.stop - 1) == span.name
    with pytest.raises(KeyError):
        layout.span("no_such_span")


def test_inducing_inputs_are_one_span_at_twelve_replicas():
    # unequal replica blocks: sizes 1, 2, 3, 1, 2, 3, ...
    rng = np.random.default_rng(3)
    state = random_state(rng, n_replicas=12, input_dim=2)
    sizes = [1 + r % 3 for r in range(12)]
    m_x = sum(sizes)
    state.inducing = InducingState(
        z_input=[rng.uniform(size=(m, 2)) for m in sizes],
        z_latent=state.inducing.z_latent,
        mean=rng.standard_normal((m_x, state.inducing.m_h)),
        cov_latent_chol=state.inducing.cov_latent_chol,
        cov_input_chol=random_chol(rng, m_x),
    )
    layout = ParamLayout(state)
    theta = layout.pack(state)

    # the span sits where the per-replica spans were and holds their blocks in order
    span = layout.span("inducing_inputs")
    assert span.shape == (m_x, 2)
    assert span.start == layout.span("latent_log_variance").stop
    assert span.stop == layout.span("inducing_latents").start
    assert np.array_equal(theta[span.start : span.stop], np.concatenate([b.ravel() for b in state.inducing.z_input]))

    # round trip: pack, unpack and pack again reproduce theta; blocks keep their sizes
    rebuilt = layout.unpack(theta, state)
    assert [b.shape for b in rebuilt.inducing.z_input] == [(m, 2) for m in sizes]
    for got, want in zip(rebuilt.inducing.z_input, state.inducing.z_input):
        assert np.array_equal(got, want)
    repacked = layout.pack(rebuilt)
    assert np.array_equal(repacked[span.start : span.stop], theta[span.start : span.stop])
    assert np.allclose(repacked, theta, rtol=0, atol=1e-12)
    random_theta = rng.standard_normal(layout.size)
    unpacked = layout.unpack(random_theta, state)
    assert np.array_equal(np.concatenate(unpacked.inducing.z_input).ravel(), random_theta[span.start : span.stop])

    assert layout.span("inducing_inputs").size == m_x * 2
    for name in ("inducing_inputs_1", "inducing_inputs_0", "inducing", "log_noise_varianc"):
        with pytest.raises(KeyError):
            layout.span(name)


def test_gradient_zero_at_latent_prior():
    # the latent KL is smallest at the prior (mean zero, unit variance): its
    # gradient in the means and log variances is zero there and not elsewhere
    rng = np.random.default_rng(2)
    at_prior = [ad.Node(np.zeros((3, 2))), ad.Node(np.zeros((3, 2)))]
    for g in ad.grad(kl_latent(*at_prior), at_prior):
        assert np.array_equal(g, np.zeros((3, 2)))
    mu, log_s = rng.standard_normal((3, 2)), rng.uniform(-1.0, 1.0, size=(3, 2))
    away = [ad.Node(mu), ad.Node(log_s)]
    g_mu, g_log_s = ad.grad(kl_latent(*away), away)
    assert np.all(g_mu != 0.0) and np.all(g_log_s != 0.0)
    assert np.allclose(g_mu, mu, rtol=1e-15, atol=0.0)
    assert np.allclose(g_log_s, 0.5 * (np.exp(log_s) - 1.0), rtol=1e-15, atol=0.0)


def fd_check(state, x, y, rtol=1e-4, step=1e-5):
    layout = ParamLayout(state)
    theta = layout.pack(state)
    data = read_data(state, x, y)
    _, grad, _ = grad_elbo(theta, layout, state, data)
    grad_fd = central_fd_grad(theta, layout, state, data, step_rel=step)
    scale = np.maximum(1.0, np.maximum(np.abs(grad), np.abs(grad_fd)))
    worst = np.max(np.abs(grad - grad_fd) / scale)
    assert worst < rtol, (worst, layout.span_of_index(int(np.argmax(np.abs(grad - grad_fd) / scale))))


def test_gradients_match_finite_differences_both_regimes():
    for trial in range(5):
        rng = np.random.default_rng(700 + trial)
        state = random_state(rng, per_output_noise=True, flat=(trial % 2 == 1))
        x, y = random_per_output_data(rng, state, ragged=True)
        fd_check(state, x, y)
    for trial in range(5):
        rng = np.random.default_rng(800 + trial)
        state = random_state(rng, per_output_noise=False)
        x, y = random_shared_data(rng, state)
        fd_check(state, *shared_as_per_output(state, x, y))


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
    data = read_data(state, x, y)
    breakdown, grad, _ = grad_elbo(theta, layout, state, data)
    span = layout.span("log_noise_variance")

    def value_at(log_sig2):
        theta2 = theta.copy()
        theta2[span.start] = log_sig2
        b, _, _ = grad_elbo(theta2, layout, state, data)
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
    expected = 0.05 * g / (np.abs(g) + training._ADAM_EPS * np.sqrt(1.0 - training._ADAM_BETA2))
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


def test_noise_gradient_vanishes_at_the_residual_mean_square():
    # shrink every kernel amplitude so the model explains nothing: the
    # targets are then pure residuals, and the bound's gradient in a log
    # noise variance s is -n/2 + sum(y^2)/(2 s) over the n points it covers,
    # zero where s is their mean square and -n/4 at twice that; tied noise
    # sums the per-output gradients
    from hiermogp.kernels import HierarchicalKernel, StationaryKernel
    from hiermogp.model import ModelState

    dataset = tiny_dataset(seed=7, n_outputs=2, points=8)
    x, y = dataset.training_arrays()
    sum_sq = np.array([np.sum(t**2) for t in y])
    n = np.array([t.size for t in y], dtype=float)
    tiny = lambda k: StationaryKernel(k.family, 1e-8, k.lengthscales)
    for regime, mean_sq, n_covered in (
        ("per_output", sum_sq / n, n),
        ("shared", sum_sq.sum() / n.sum(), n.sum()),
    ):
        base = initialize_state(dataset, ModelConfig(inducing_per_replica=2, inducing_latent=2, regime=regime), seed=0)
        base.inducing.cov_input_chol *= 1e-4
        base.inducing.cov_latent_chol *= 1e-4
        for scale, want, tol in ((1.0, 0.0, 1e-9 * n_covered), (2.0, -n_covered / 4, 1e-9)):
            state = ModelState(
                hier_kernel=HierarchicalKernel(
                    shared=tiny(base.hier_kernel.shared), replica=tiny(base.hier_kernel.replica)
                ),
                latent_kernel=tiny(base.latent_kernel),
                latent_posterior=base.latent_posterior,
                inducing=base.inducing,
                noise_variance=np.asarray(scale * mean_sq),
            )
            layout = ParamLayout(state)
            _, grad, _ = grad_elbo(layout.pack(state), layout, state, read_data(state, x, y))
            span = layout.span("log_noise_variance")
            assert np.all(np.abs(grad[span.start : span.stop] - want) <= tol), (regime, scale)


def test_noise_only_best_sequence_is_monotone():
    # the sequence of accepted (best so far) bound values never decreases
    dataset = tiny_dataset(seed=8)
    model_config = ModelConfig(inducing_per_replica=2, inducing_latent=2)
    opt = OptimizerConfig(iterations=300, learning_rate=0.05, seed=0)
    result = fit(dataset, model_config, opt)
    best_sequence = np.maximum.accumulate(result.trace)
    assert np.all(np.diff(best_sequence) >= -1e-9)
    assert np.isclose(best_sequence[-1], result.trace[result.best_index])


def test_an_output_without_rows_keeps_its_initial_noise(tmp_path):
    # a table with rows for outputs 0 and 2 only: output 1 is still fitted
    # (its latent coordinate and noise are parameters), but no datum reaches
    # its noise, whose gradient is zero, so Adam never moves it; it is still
    # predicted, from the other outputs through its latent coordinate
    full = tmp_path / "full.csv"
    save_csv(tiny_dataset(seed=13), full)
    lines = full.read_text().splitlines()
    gapped = tmp_path / "gapped.csv"
    gapped.write_text("\n".join(line for line in lines if not line.startswith("1,")) + "\n")
    dataset = load_csv(gapped)
    assert dataset.n_outputs == 3 and dataset.per_output_targets(1).size == 0

    model_config = ModelConfig(inducing_per_replica=2, inducing_latent=2)
    initial = initialize_state(dataset, model_config, seed=0)
    layout = ParamLayout(initial)
    theta = layout.pack(initial)
    _, grad, _ = grad_elbo(theta, layout, initial, read_data(initial, *dataset.training_arrays()))
    noise = layout.span("log_noise_variance")
    assert grad[noise.start + 1] == 0.0 and np.all(grad[[noise.start, noise.start + 2]] != 0.0)

    result = fit(dataset, model_config, OptimizerConfig(iterations=50, seed=0))
    assert np.all(np.isfinite(result.trace))
    assert result.state.noise_variance[1] == layout.unpack(theta, initial).noise_variance[1]
    assert result.state.noise_variance[0] != initial.noise_variance[0]
    xstar = np.linspace(0.0, 1.0, 5)[:, None]
    for r in range(dataset.n_replicas):
        moments = predict_marginal(result.state, xstar, np.full(5, r), 1)
        assert np.all(np.isfinite(moments.mean)) and np.all(np.isfinite(moments.variance))
        assert np.all(moments.variance > 0.0)


def test_fit_shared_regime_ties_the_noise_on_per_output_inputs():
    dataset = tiny_dataset(seed=9)
    assert not dataset.has_common_inputs()
    model_config = ModelConfig(regime="shared", inducing_per_replica=2, inducing_latent=2)
    result = fit(dataset, model_config, OptimizerConfig(iterations=30, seed=0))
    from hiermogp.elbo import elbo_per_output

    assert result.state.noise_variance.ndim == 0
    value = elbo_per_output(result.state, *dataset.training_arrays()).total
    assert np.isclose(value, result.trace[result.best_index], rtol=1e-9)


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
        grad_elbo(theta, layout, state, read_data(state, x, y))


@pytest.mark.parametrize(
    "config, field, value",
    [
        (ModelConfig, "latent_dim", 0),
        (ModelConfig, "inducing_per_replica", 0),
        (ModelConfig, "inducing_latent", 0),
        (OptimizerConfig, "learning_rate", float("nan")),
        (OptimizerConfig, "learning_rate", float("inf")),
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


def test_fit_reads_the_data_once(monkeypatch):
    from hiermogp import objective

    reads, seen = [], set()
    original_read, build_graph = objective.read_data, objective.build_graph

    def counting_read(*args):
        reads.append(original_read(*args))
        return reads[-1]

    def recording_build(theta, layout, template, data, *rest):
        seen.add(id(data))
        return build_graph(theta, layout, template, data, *rest)

    monkeypatch.setattr(objective, "read_data", counting_read)
    monkeypatch.setattr(objective, "build_graph", recording_build)
    fit(tiny_dataset(seed=4), ModelConfig(inducing_per_replica=2), OptimizerConfig(iterations=5))
    assert len(reads) == 1
    assert seen == {id(reads[0])}


@pytest.mark.parametrize("noise", [np.nan, np.inf, [0.1, np.nan]])
def test_state_rejects_non_finite_noise(noise):
    import dataclasses

    state = random_state(np.random.default_rng(14))
    with pytest.raises(ValueError, match="noise variances"):
        dataclasses.replace(state, noise_variance=noise)
