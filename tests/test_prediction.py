import itertools

import numpy as np
import pytest

from hiermogp import prediction
from hiermogp.data import SyntheticConfig, generate_synthetic, split, SplitPlan
from hiermogp.kernels import MATERN32, RBF, HierarchicalKernel, StationaryKernel
from hiermogp.latent import InducingState, LatentPosterior
from hiermogp.metrics import nmse
from hiermogp.model import ModelState
from hiermogp.prediction import (
    predict_conditional,
    predict_marginal,
    predict_missing_replica,
)
from hiermogp.training import ModelConfig, OptimizerConfig, fit

from .helpers import random_state
from .oracles import (
    mean_base,
    optimal_inducing_dense,
    predict_marginal_mean_closed_form,
    predict_marginal_per_draw,
    tri_solve,
    unvec,
)


def single_output_state(rng, n_train_per_replica=10, n_replicas=2, noise=1e-6):
    """One output, delta latent posterior, inducing points on the data."""
    x_blocks = [np.sort(rng.uniform(size=(n_train_per_replica, 1)), axis=0) for _ in range(n_replicas)]
    h = rng.standard_normal((1, 2))
    state = ModelState(
        hier_kernel=HierarchicalKernel(
            shared=StationaryKernel(MATERN32, 0.3, [0.8]),
            replica=StationaryKernel(MATERN32, 1.0, [0.6]),
        ),
        latent_kernel=StationaryKernel(RBF, 1.0, [1.0, 1.0]),
        latent_posterior=LatentPosterior(means=h, variances=np.full((1, 2), 1e-12)),
        inducing=InducingState(
            z_input=[b.copy() for b in x_blocks],
            z_latent=h.copy(),
            mean=np.zeros((n_train_per_replica * n_replicas, 1)),
            cov_latent_chol=np.eye(1),
            cov_input_chol=np.eye(n_train_per_replica * n_replicas),
        ),
        noise_variance=np.asarray(noise),
    )
    return state, x_blocks


def with_optimal_inducing(state, x_blocks, y):
    mean, cov = optimal_inducing_dense(state, [x_blocks], [y])
    m_x = state.inducing.m_x
    return ModelState(
        hier_kernel=state.hier_kernel,
        latent_kernel=state.latent_kernel,
        latent_posterior=state.latent_posterior,
        inducing=InducingState(
            z_input=state.inducing.z_input,
            z_latent=state.inducing.z_latent,
            mean=unvec(mean, m_x, 1),
            cov_latent_chol=np.eye(1),
            cov_input_chol=np.linalg.cholesky(cov + 1e-12 * np.eye(m_x)),
        ),
        noise_variance=state.noise_variance,
    )


def test_interpolation_at_training_points():
    # inducing on the 20 data points, optimal posterior, vanishing noise:
    # the predictive mean reproduces the targets
    rng = np.random.default_rng(0)
    state, x_blocks = single_output_state(rng)
    xs = np.concatenate(x_blocks, axis=0)
    tags = np.concatenate([np.full(b.shape[0], r) for r, b in enumerate(x_blocks)])
    y = np.sin(3.0 * xs[:, 0]) + 0.2 * xs[:, 0]
    fitted = with_optimal_inducing(state, x_blocks, y)
    moments = predict_conditional(fitted, xs, tags, fitted.latent_posterior.means[0])
    assert np.max(np.abs(moments.mean - y)) < 1e-4


def test_far_field_reverts_to_prior():
    rng = np.random.default_rng(1)
    state, _ = single_output_state(rng)
    far = np.array([[1e6]])
    moments = predict_conditional(state, far, [0], state.latent_posterior.means[0])
    prior_level = state.latent_kernel.variance * state.hier_kernel.diag_value
    assert abs(moments.mean[0]) < 1e-6
    assert abs(moments.variance[0] - prior_level) < 1e-6


def test_zero_posterior_reduction():
    # zero mean and (near) zero inducing covariance leave the Nystrom-corrected prior
    rng = np.random.default_rng(2)
    state, x_blocks = single_output_state(rng)
    state.inducing.cov_input_chol[:] = 1e-14 * np.eye(state.inducing.m_x)
    xstar = np.array([[0.25], [0.9]])
    tags = np.array([0, 1])
    moments = predict_conditional(state, xstar, tags, state.latent_posterior.means[0])
    assert np.allclose(moments.mean, 0.0)
    from hiermogp.kernels import hier_cross_cov, hier_block_cov
    from hiermogp.kron import cholesky_jitter

    cross = hier_cross_cov(state.hier_kernel, xstar, tags, state.inducing.z_input)
    kuu_x = hier_block_cov(state.hier_kernel, state.inducing.z_input, state.inducing.z_input)
    nystrom = np.sum(cross * tri_solve(cholesky_jitter(kuu_x), cross.T).T, axis=1)
    prior_h = state.latent_kernel.variance
    expected = prior_h * state.hier_kernel.diag_value - prior_h * nystrom
    assert np.allclose(moments.variance, expected, atol=1e-8)


def test_marginal_delta_limit_matches_conditional():
    rng = np.random.default_rng(3)
    state = random_state(rng, n_outputs=2)
    state.latent_posterior.variances[:] = 1e-14
    xstar = rng.uniform(size=(5, 1))
    tags = rng.integers(0, state.n_replicas, size=5)
    for d in range(2):
        marg = predict_marginal(state, xstar, tags, d, mc_samples=64, seed=0, include_noise=False)
        cond = predict_conditional(state, xstar, tags, state.latent_posterior.means[d])
        assert np.allclose(marg.mean, cond.mean, atol=1e-6)
        assert np.allclose(marg.variance, cond.variance, atol=1e-6)


def test_marginal_variance_obeys_total_variance_law():
    rng = np.random.default_rng(4)
    state = random_state(rng, n_outputs=2, latent_var_scale=2.0)
    xstar = rng.uniform(size=(4, 1))
    tags = rng.integers(0, state.n_replicas, size=4)
    seed, samples = 7, 200
    marg = predict_marginal(state, xstar, tags, 0, mc_samples=samples, seed=seed, include_noise=False)
    # replay the same latent draws through the conditional path
    mu = state.latent_posterior.means[0]
    std = np.sqrt(state.latent_posterior.variances[0])
    draws = mu + std * np.random.default_rng(seed).standard_normal((samples, mu.shape[0]))
    cond_means = np.stack(
        [predict_conditional(state, xstar, tags, h).mean for h in draws], axis=1
    )
    cond_vars = np.stack(
        [predict_conditional(state, xstar, tags, h).variance for h in draws], axis=1
    )
    assert np.allclose(marg.mean, cond_means.mean(axis=1), atol=1e-9)
    assert np.allclose(
        marg.variance, cond_vars.mean(axis=1) + cond_means.var(axis=1), atol=1e-9
    )
    assert np.all(marg.variance >= cond_vars.mean(axis=1) - 1e-12)


def test_marginal_mean_closed_form_within_monte_carlo_error():
    rng = np.random.default_rng(5)
    state = random_state(rng, n_outputs=3, latent_var_scale=1.5)
    xstar = rng.uniform(size=(6, 1))
    tags = rng.integers(0, state.n_replicas, size=6)
    samples, seed = 100_000, 11
    closed = predict_marginal_mean_closed_form(state, xstar, tags, 1)
    marg = predict_marginal(state, xstar, tags, 1, mc_samples=samples, seed=seed)
    # standard error of the Monte Carlo mean, from the conditional-mean spread
    mu = state.latent_posterior.means[1]
    std = np.sqrt(state.latent_posterior.variances[1])
    draws = mu + std * np.random.default_rng(seed).standard_normal((samples, mu.shape[0]))
    from hiermogp.kernels import latent_cov

    rows = latent_cov(state.latent_kernel, draws, state.inducing.z_latent)
    per_sample = mean_base(state, xstar, tags) @ rows.T
    se = per_sample.std(axis=1, ddof=1) / np.sqrt(samples)
    assert np.all(np.abs(closed - marg.mean) <= 3.0 * se + 1e-12)


def assert_matches_oracle(got, want):
    assert np.allclose(got.mean, want.mean, rtol=1e-8, atol=1e-12)
    assert np.allclose(got.variance, want.variance, rtol=1e-8, atol=1e-12)


@pytest.mark.parametrize("flat", [False, True])
def test_marginal_matches_per_draw_oracle(flat):
    rng = np.random.default_rng(40 + flat)
    state = random_state(rng, n_outputs=3, n_replicas=3, flat=flat, latent_var_scale=2.0)
    xstar = rng.uniform(-0.5, 1.5, size=(7, 1))
    tags = rng.integers(0, state.n_replicas, size=7)
    # one state throughout, so every (output, draws, seed) reuses or adds to its cache
    for d in range(state.n_outputs):
        for samples, seed, include_noise in itertools.product((1, 2, 7, 500), (0, 5), (False, True)):
            kwargs = dict(mc_samples=samples, seed=seed, include_noise=include_noise)
            assert_matches_oracle(
                predict_marginal(state, xstar, tags, d, **kwargs),
                predict_marginal_per_draw(state, xstar, tags, d, **kwargs),
            )


@pytest.mark.parametrize("flat", [False, True])
def test_missing_replica_matches_per_draw_oracle(flat):
    rng = np.random.default_rng(42 + flat)
    state = random_state(rng, n_outputs=2, n_replicas=3, flat=flat)
    grid = np.linspace(0.0, 1.0, 6)[:, None]
    for d in range(state.n_outputs):
        for r in range(state.n_replicas):
            for include_noise in (False, True):
                got = predict_missing_replica(state, d, r, grid, mc_samples=300, seed=3, include_noise=include_noise)
                want = predict_marginal_per_draw(
                    state, grid, np.full(6, r), d, mc_samples=300, seed=3, include_noise=include_noise
                )
                assert_matches_oracle(got, want)


def test_full_covariance_diagonal_matches_marginal_variances():
    rng = np.random.default_rng(44)
    state = random_state(rng, n_outputs=2)
    xstar = rng.uniform(size=(5, 1))
    tags = rng.integers(0, state.n_replicas, size=5)
    h = state.latent_posterior.means[1]
    for include_noise in (False, True):
        marginal = predict_conditional(state, xstar, tags, h, output=1, include_noise=include_noise)
        full = predict_conditional(state, xstar, tags, h, output=1, include_noise=include_noise, full_cov=True)
        assert np.allclose(full.mean, marginal.mean, rtol=1e-12, atol=0.0)
        assert np.allclose(np.diag(full.variance), marginal.variance, rtol=1e-10, atol=1e-12)
        assert np.allclose(full.variance, full.variance.T, rtol=0.0, atol=1e-12)


def count_calls(monkeypatch, name):
    calls = []
    original = getattr(prediction, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(prediction, name, counted)
    return calls


def test_each_state_factors_once_and_each_output_draws_once(monkeypatch):
    rng = np.random.default_rng(45)
    state = random_state(rng, n_outputs=3, n_replicas=2)
    factored = count_calls(monkeypatch, "cholesky_jitter")
    latent_rows = count_calls(monkeypatch, "latent_cov")
    for d in range(state.n_outputs):
        for r in range(state.n_replicas):
            xstar = rng.uniform(size=(4, 1))
            predict_marginal(state, xstar, np.full(4, r), d, mc_samples=50)
            predict_missing_replica(state, d, r, xstar, mc_samples=50)
    # one latent Gram plus one set of draws per output
    assert len(latent_rows) == 1 + state.n_outputs
    predict_conditional(state, xstar, [0] * 4, state.latent_posterior.means[0], full_cov=True)
    assert len(factored) == 2

    # an equal state that is a different object is factored again
    twin = ModelState(
        hier_kernel=state.hier_kernel,
        latent_kernel=state.latent_kernel,
        latent_posterior=state.latent_posterior,
        inducing=state.inducing,
        noise_variance=state.noise_variance,
    )
    a = predict_marginal(twin, xstar, [1] * 4, 0, mc_samples=50)
    b = predict_marginal(state, xstar, [1] * 4, 0, mc_samples=50)
    assert len(factored) == 4
    assert np.array_equal(a.mean, b.mean) and np.array_equal(a.variance, b.variance)


def test_unseeded_draws_are_not_reused():
    rng = np.random.default_rng(46)
    state = random_state(rng, n_outputs=2, latent_var_scale=2.0)
    xstar = rng.uniform(size=(3, 1))
    a = predict_marginal(state, xstar, [0, 1, 0], 0, mc_samples=20, seed=None)
    b = predict_marginal(state, xstar, [0, 1, 0], 0, mc_samples=20, seed=None)
    assert not np.array_equal(a.mean, b.mean)


def test_invalid_output_and_replica_raise():
    rng = np.random.default_rng(6)
    state = random_state(rng)
    with pytest.raises(ValueError):
        predict_marginal(state, np.zeros((1, 1)), [0], output=99)
    with pytest.raises(ValueError):
        predict_missing_replica(state, 0, replica=99, grid=np.zeros((1, 1)))
    with pytest.raises(ValueError, match="replica tag"):
        predict_conditional(state, np.zeros((1, 1)), [7], state.latent_posterior.means[0])


def test_marginal_rejects_fewer_than_one_draw():
    rng = np.random.default_rng(6)
    state = random_state(rng)
    for samples in (0, -3):
        with pytest.raises(ValueError, match="mc_samples"):
            predict_marginal(state, np.zeros((1, 1)), [0], output=0, mc_samples=samples)
        with pytest.raises(ValueError, match="mc_samples"):
            predict_missing_replica(state, 0, 0, np.zeros((1, 1)), mc_samples=samples)


def test_variance_never_negative():
    rng = np.random.default_rng(7)
    for trial in range(5):
        state = random_state(rng, mean_scale=2.0)
        xstar = rng.uniform(-0.5, 1.5, size=(8, 1))
        tags = rng.integers(0, state.n_replicas, size=8)
        for d in range(state.n_outputs):
            m = predict_marginal(state, xstar, tags, d, mc_samples=100, seed=trial, include_noise=False)
            assert np.all(m.variance >= 0.0)


def test_missing_replica_self_consistency():
    # replica-level variance near zero makes all replicas share one curve;
    # the held-out replica is then recoverable almost exactly
    config = SyntheticConfig(
        n_outputs=4,
        n_replicas=3,
        points_per_replica=8,
        shared_kernel=StationaryKernel(MATERN32, 1.0, [1.0]),
        replica_kernel=StationaryKernel(MATERN32, 1e-6, [1.0]),
        noise_variance=0.0,
    )
    dataset = generate_synthetic(config, seed=21)
    plan = SplitPlan(mode="missing_replica", missing=[(d, d % 3) for d in range(4)])
    train, test = split(dataset, plan)
    result = fit(
        train,
        ModelConfig(inducing_per_replica=5, inducing_latent=3),
        OptimizerConfig(iterations=2500, learning_rate=0.02, seed=0),
    )
    y_true, y_pred = [], []
    for d in range(4):
        r = d % 3
        block = test.block(d, r)
        moments = predict_missing_replica(result.state, d, r, block.inputs, seed=0)
        y_true.append(block.targets)
        y_pred.append(moments.mean)
    score = nmse(np.concatenate(y_true), np.concatenate(y_pred))
    assert score < 0.05, score


def test_flat_model_missing_replica_reverts_to_prior():
    # with zero cross-replica coupling, a replica with no data learns nothing:
    # the optimal inducing posterior leaves its mean at zero and its variance
    # above the observed replica's at the same inputs
    rng = np.random.default_rng(8)
    state, x_blocks = single_output_state(rng, n_train_per_replica=6, noise=0.01)
    state = ModelState(
        hier_kernel=HierarchicalKernel(shared=None, replica=state.hier_kernel.replica),
        latent_kernel=state.latent_kernel,
        latent_posterior=state.latent_posterior,
        inducing=state.inducing,
        noise_variance=state.noise_variance,
    )
    # replica 0 entirely missing, replica 1 observed
    blocks = [np.zeros((0, 1)), x_blocks[1]]
    y = np.sin(4 * x_blocks[1][:, 0])
    fitted = with_optimal_inducing(state, blocks, y)
    grid = np.linspace(0.1, 0.9, 5)[:, None]
    h = state.latent_posterior.means[0]
    missing = predict_conditional(fitted, grid, np.zeros(5, int), h)
    observed = predict_conditional(fitted, grid, np.ones(5, int), h)
    assert np.all(np.abs(missing.mean) < 1e-8)
    assert np.any(np.abs(observed.mean) > 0.1)
    assert np.all(missing.variance >= observed.variance - 1e-9)


def test_adding_data_never_increases_variance():
    # nested datasets, fixed hyperparameters, exactly optimal inducing
    # posterior (single output keeps the optimum Kronecker-compatible)
    rng = np.random.default_rng(9)
    state, x_blocks = single_output_state(rng, n_train_per_replica=5, noise=0.05)
    xs = np.concatenate(x_blocks, axis=0)
    y_full = np.sin(3 * xs[:, 0])
    n_small = 6
    subset_idx = np.arange(n_small)

    def moments_for(idx):
        blocks, ys, tags = [], [], []
        offset = 0
        for r, b in enumerate(x_blocks):
            sel = [i - offset for i in idx if offset <= i < offset + b.shape[0]]
            blocks.append(b[sel])
            ys.append(y_full[[i for i in idx if offset <= i < offset + b.shape[0]]])
            offset += b.shape[0]
        # inducing stay at the full design, independent of the data subset
        fitted = with_optimal_inducing(state, blocks, np.concatenate(ys))
        grid = np.linspace(0, 1, 7)[:, None]
        return predict_conditional(fitted, grid, np.zeros(7, int), state.latent_posterior.means[0])

    small = moments_for(list(subset_idx))
    large = moments_for(list(range(xs.shape[0])))
    assert np.all(large.variance <= small.variance + 1e-9)
