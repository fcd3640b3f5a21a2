import dataclasses

import numpy as np
import pytest

from hiermogp import prediction
from hiermogp.data import SyntheticConfig, generate_synthetic, split, SplitPlan
from hiermogp.kernels import MATERN32, RBF, HierarchicalKernel, StationaryKernel
from hiermogp.latent import InducingState, LatentPosterior
from hiermogp.metrics import nmse
from hiermogp.model import ModelState
from hiermogp.prediction import (
    PredictiveMoments,
    predict_conditional,
    predict_marginal,
    predict_missing_replica,
)
from hiermogp.training import ModelConfig, OptimizerConfig, fit

from .helpers import random_state
from .oracles import (
    conditional_moments_at,
    hier_cross_dense,
    latent_draws,
    mixture_moments,
    optimal_inducing_dense,
    predict_marginal_mean_closed_form,
    predict_marginal_per_draw,
    predict_marginal_quadrature,
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


def without_noise(moments, state, d):
    """An observation's moments of output ``d`` as the latent function's: the
    output's noise taken off the variance."""
    return PredictiveMoments(mean=moments.mean, variance=moments.variance - state.noise_for(d))


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
    from hiermogp.kernels import hier_block_cov
    from hiermogp.kron import cholesky_jitter

    cross = hier_cross_dense(state.hier_kernel, xstar, tags, state.inducing.z_input)
    kuu_x = hier_block_cov(state.hier_kernel, state.inducing.z_input, state.inducing.z_input)
    nystrom = np.sum(cross * tri_solve(cholesky_jitter(kuu_x)[0], cross.T).T, axis=1)
    prior_h = state.latent_kernel.variance
    expected = prior_h * state.hier_kernel.diag_value - prior_h * nystrom
    assert np.allclose(moments.variance, expected, atol=1e-8)


def test_marginal_delta_limit_matches_conditional():
    rng = np.random.default_rng(3)
    state = random_state(rng, n_outputs=2)
    state.latent_posterior.variances[:] = 1e-14
    xstar = rng.uniform(size=(5, 1))
    tags = rng.integers(0, state.n_replicas, size=5)
    # the marginal adds output d's own noise, per output or tied, which the
    # conditional leaves out
    tied = dataclasses.replace(state, noise_variance=np.asarray(0.2))
    for model, noise in ((state, state.noise_variance.tolist()), (tied, [0.2, 0.2])):
        for d in range(2):
            marg = predict_marginal(model, xstar, tags, d)
            cond = predict_conditional(model, xstar, tags, model.latent_posterior.means[d])
            assert np.allclose(marg.mean, cond.mean, rtol=0.0, atol=1e-8)
            assert np.allclose(marg.variance - noise[d], cond.variance, rtol=0.0, atol=1e-8)


def test_marginal_variance_obeys_total_variance_law():
    # the conditional path at Gauss-Hermite nodes of the latent posterior,
    # mixed: mean of the conditional variances plus variance of the means
    rng = np.random.default_rng(4)
    state = random_state(rng, n_outputs=2, latent_var_scale=2.0)
    xstar = rng.uniform(size=(4, 1))
    tags = rng.integers(0, state.n_replicas, size=4)
    marg = without_noise(predict_marginal(state, xstar, tags, 0), state, 0)
    t, w = np.polynomial.hermite.hermgauss(80)
    mu = state.latent_posterior.means[0]
    scale = np.sqrt(2.0 * state.latent_posterior.variances[0])
    conditionals = [predict_conditional(state, xstar, tags, mu + scale * np.array([a, b])) for a in t for b in t]
    cond_means = np.stack([c.mean for c in conditionals], axis=1)
    cond_vars = np.stack([c.variance for c in conditionals], axis=1)
    weights = np.outer(w, w).ravel() / np.pi
    mixed = mixture_moments(state, 0, cond_means, cond_vars, weights, include_noise=False)
    assert np.allclose(marg.mean, mixed.mean, rtol=1e-9, atol=1e-12)
    assert np.allclose(marg.variance, mixed.variance, rtol=1e-9, atol=1e-12)
    assert np.all(marg.variance >= cond_vars @ weights - 1e-12)


def test_marginal_mean_equals_closed_form():
    rng = np.random.default_rng(5)
    state = random_state(rng, n_outputs=3, latent_var_scale=1.5)
    xstar = rng.uniform(size=(6, 1))
    tags = rng.integers(0, state.n_replicas, size=6)
    for d in range(state.n_outputs):
        closed = predict_marginal_mean_closed_form(state, xstar, tags, d)
        assert np.allclose(predict_marginal(state, xstar, tags, d).mean, closed, rtol=1e-12, atol=0.0)


def assert_matches_oracle(got, want):
    assert np.allclose(got.mean, want.mean, rtol=1e-9, atol=1e-12)
    assert np.allclose(got.variance, want.variance, rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("flat", [False, True])
def test_marginal_matches_quadrature_oracle(flat):
    rng = np.random.default_rng(40 + flat)
    state = random_state(rng, n_outputs=3, n_replicas=3, flat=flat, latent_var_scale=2.0)
    xstar = rng.uniform(-0.5, 1.5, size=(7, 1))
    tags = rng.integers(0, state.n_replicas, size=7)
    for d in range(state.n_outputs):
        noisy = predict_marginal(state, xstar, tags, d)
        assert_matches_oracle(noisy, predict_marginal_quadrature(state, xstar, tags, d))
        latent = predict_marginal_quadrature(state, xstar, tags, d, include_noise=False)
        assert_matches_oracle(without_noise(noisy, state, d), latent)


def assert_within_monte_carlo_error(got, state, xstar, tags, d, samples, seed):
    """``got`` within four standard errors of the per-draw oracle's moments
    over ``samples`` seeded draws; the errors come from the same draws."""
    want = predict_marginal_per_draw(state, xstar, tags, d, mc_samples=samples, seed=seed, include_noise=False)
    means, variances = conditional_moments_at(state, xstar, tags, latent_draws(state, d, samples, seed))
    se_mean = means.std(axis=1, ddof=1) / np.sqrt(samples)
    se_variance = (variances + (means - want.mean[:, None]) ** 2).std(axis=1, ddof=1) / np.sqrt(samples)
    assert np.all(np.abs(got.mean - want.mean) <= 4.0 * se_mean)
    assert np.all(np.abs(got.variance - want.variance) <= 4.0 * se_variance)


@pytest.mark.parametrize("flat", [False, True])
def test_marginal_matches_per_draw_oracle(flat):
    rng = np.random.default_rng(40 + flat)
    state = random_state(rng, n_outputs=3, n_replicas=3, flat=flat, latent_var_scale=2.0)
    xstar = rng.uniform(-0.5, 1.5, size=(7, 1))
    tags = rng.integers(0, state.n_replicas, size=7)
    for d in range(state.n_outputs):
        got = without_noise(predict_marginal(state, xstar, tags, d), state, d)
        assert_within_monte_carlo_error(got, state, xstar, tags, d, samples=200_000, seed=d)


@pytest.mark.parametrize("flat", [False, True])
def test_missing_replica_matches_per_draw_oracle(flat):
    rng = np.random.default_rng(42 + flat)
    state = random_state(rng, n_outputs=2, n_replicas=3, flat=flat)
    grid = np.linspace(0.0, 1.0, 6)[:, None]
    for d in range(state.n_outputs):
        for r in range(state.n_replicas):
            tags = np.full(6, r)
            noisy = predict_missing_replica(state, d, r, grid)
            assert_matches_oracle(noisy, predict_marginal_quadrature(state, grid, tags, d))
            latent = without_noise(noisy, state, d)
            assert_within_monte_carlo_error(latent, state, grid, tags, d, samples=20_000, seed=3)


@pytest.mark.parametrize("flat", [False, True])
def test_mixed_tag_block_predicts_as_its_per_tag_blocks(flat):
    # row for row and bit for bit: a block's tags only route the replica
    # level of each row's cross covariance. Each per-tag block keeps all the
    # rows, since BLAS products of other row counts may round differently;
    # across block sizes the rows agree to rounding
    rng = np.random.default_rng(43)
    state = random_state(rng, n_outputs=2, n_replicas=3, m_per_replica=8, flat=flat)
    xstar = rng.uniform(size=(9, 1))
    tags = rng.permutation([0, 0, 0, 1, 1, 2, 2, 2, 2])
    for d in range(state.n_outputs):
        mixed = predict_marginal(state, xstar, tags, d)
        for r in range(state.n_replicas):
            rows = tags == r
            alone = predict_marginal(state, xstar, np.full(9, r), d)
            assert np.array_equal(mixed.mean[rows], alone.mean[rows])
            assert np.array_equal(mixed.variance[rows], alone.variance[rows])
            apart = predict_marginal(state, xstar[rows], tags[rows], d)
            assert np.allclose(mixed.mean[rows], apart.mean, rtol=1e-9, atol=0.0)
            assert np.allclose(mixed.variance[rows], apart.variance, rtol=1e-9, atol=0.0)


def count_calls(monkeypatch, name):
    calls = []
    original = getattr(prediction, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(prediction, name, counted)
    return calls


def test_each_state_factors_and_computes_its_moments_once(monkeypatch):
    rng = np.random.default_rng(45)
    state = random_state(rng, n_outputs=3, n_replicas=2)
    factored = count_calls(monkeypatch, "cholesky_jitter")
    latent_rows = count_calls(monkeypatch, "latent_cov")
    psi = count_calls(monkeypatch, "psi_stats")
    for d in range(state.n_outputs):
        for r in range(state.n_replicas):
            xstar = rng.uniform(size=(4, 1))
            predict_marginal(state, xstar, np.full(4, r), d)
            predict_missing_replica(state, d, r, xstar)
    # the latent Gram and every output's psi statistics, each in one call
    assert (len(factored), len(latent_rows), len(psi)) == (2, 1, 1)
    # a latent point's kernel row, then nothing more is computed for the state
    predict_conditional(state, xstar, [0] * 4, state.latent_posterior.means[0])
    assert (len(factored), len(latent_rows), len(psi)) == (2, 2, 1)

    # an equal state that is a different object is factored again
    twin = dataclasses.replace(state)
    a = predict_marginal(twin, xstar, [1] * 4, 0)
    b = predict_marginal(state, xstar, [1] * 4, 0)
    assert (len(factored), len(psi)) == (4, 2)
    assert np.array_equal(a.mean, b.mean) and np.array_equal(a.variance, b.variance)


def assert_same_bits(got, want):
    assert np.array_equal(got.mean, want.mean) and np.array_equal(got.variance, want.variance)


@pytest.mark.parametrize("flat", [False, True])
def test_warm_predictions_on_a_common_grid_equal_cold_ones(flat):
    # every output at the same points: after output 0 each block reads its
    # input terms from the memo, and gives the bits of a state that has
    # never predicted (an equal twin)
    rng = np.random.default_rng(47)
    state = random_state(rng, n_outputs=4, n_replicas=3, m_per_replica=3, flat=flat)
    grid = rng.uniform(-0.2, 1.2, size=(6, 1))
    for d in range(state.n_outputs):
        for r in range(state.n_replicas):
            tags = np.full(6, r)
            assert_same_bits(
                predict_marginal(state, grid, tags, d), predict_marginal(dataclasses.replace(state), grid, tags, d)
            )
            assert_same_bits(
                predict_missing_replica(state, d, r, grid), predict_missing_replica(dataclasses.replace(state), d, r, grid)
            )
        h = state.latent_posterior.means[d]
        tags = rng.integers(0, state.n_replicas, size=6)
        predict_conditional(state, grid, tags, h)  # the marginal path of a latent point reads the memo too
        assert_same_bits(predict_conditional(state, grid, tags, h), predict_conditional(dataclasses.replace(state), grid, tags, h))


def test_shared_points_compute_their_cross_covariance_once_per_replica(monkeypatch):
    rng = np.random.default_rng(48)
    state = random_state(rng, n_outputs=5, n_replicas=3)
    grid = rng.uniform(size=(4, 1))
    crosses = count_calls(monkeypatch, "hier_cross_cov")
    for d in range(state.n_outputs):
        for r in range(state.n_replicas):
            predict_marginal(state, grid, np.full(4, r), d)
            predict_missing_replica(state, d, r, grid.tolist())
    assert len(crosses) == state.n_replicas


def test_the_same_points_with_other_tags_get_their_own_entry(monkeypatch):
    rng = np.random.default_rng(49)
    state = random_state(rng, n_outputs=2, n_replicas=3)
    xstar = rng.uniform(size=(5, 1))
    crosses = count_calls(monkeypatch, "hier_cross_cov")
    by_tags = {}
    for tags in ((0, 0, 0, 0, 0), (1, 1, 1, 1, 1), (0, 1, 2, 1, 0), (0, 1, 2, 1, 2)):
        by_tags[tags] = predict_marginal(state, xstar, tags, 0)
        assert_same_bits(by_tags[tags], predict_marginal(dataclasses.replace(state), xstar, tags, 0))
    assert len(crosses) == 4 + 4  # one per tag set, then the twins'
    for tags, first in by_tags.items():
        assert_same_bits(predict_marginal(state, xstar, np.array(tags), 0), first)
    assert len(crosses) == 8 and len(prediction._posterior(state).memo) == 4


def test_changing_the_callers_arrays_changes_nothing_cached():
    rng = np.random.default_rng(50)
    state = random_state(rng, n_outputs=2, n_replicas=3)
    xstar, tags = rng.uniform(size=(5, 1)), np.array([0, 2, 1, 1, 0])
    kept_x, kept_tags = xstar.copy(), tags.copy()
    first = predict_marginal(state, xstar, tags, 0)
    first_mean = first.mean.copy()
    xstar += 0.25
    tags[:] = 2
    first.mean[:] = 0.0  # nor the returned arrays
    first.variance[:] = -1.0
    for d in range(state.n_outputs):
        assert_same_bits(predict_marginal(state, xstar, tags, d), predict_marginal(dataclasses.replace(state), xstar, tags, d))
        assert_same_bits(
            predict_marginal(state, kept_x, kept_tags, d), predict_marginal(dataclasses.replace(state), kept_x, kept_tags, d)
        )
    assert np.array_equal(predict_marginal(state, kept_x, kept_tags, 0).mean, first_mean)


def test_bad_tags_and_points_still_raise_after_the_same_points_were_predicted():
    rng = np.random.default_rng(51)
    state = random_state(rng, n_outputs=2, n_replicas=3)
    xstar = rng.uniform(size=(3, 1))
    for tags in ([0, 1, 2], [1, 1, 1]):
        predict_marginal(state, xstar, tags, 0)
    memo = prediction._posterior(state).memo
    for tags in ([0, 1, 3], [7, 7, 7], [-1, 0, 0], [0, 1], [[0], [1], [2]]):
        with pytest.raises(ValueError, match="replica tag"):
            predict_marginal(state, xstar, tags, 1)
    with pytest.raises(ValueError, match="outside 0..2"):
        predict_missing_replica(state, 0, 3, xstar)
    with pytest.raises(ValueError, match="dimension"):
        predict_marginal(state, np.hstack([xstar, xstar]), [0, 1, 2], 0)
    assert len(memo) == 2


def test_eviction_at_the_cap_keeps_results_bit_for_bit(monkeypatch):
    # one point set more than the cap evicts the oldest, and only it
    rng = np.random.default_rng(52)
    state = random_state(rng, n_outputs=2, n_replicas=2)
    cap = prediction._MEMO_POINT_SETS
    sets = [rng.uniform(size=(3, 1)) for _ in range(cap + 3)]
    crosses = count_calls(monkeypatch, "hier_cross_cov")
    first = [predict_marginal(state, x, [0, 1, 1], 0) for x in sets]
    memo = prediction._posterior(state).memo
    assert len(crosses) == cap + 3 and len(memo) == cap
    again = predict_marginal(state, sets[-1], [0, 1, 1], 0)  # kept
    assert len(crosses) == cap + 3
    assert_same_bits(again, first[-1])
    for k, x in enumerate(sets[:3]):  # evicted: computed again, each evicting the oldest left
        assert_same_bits(predict_marginal(state, x, [0, 1, 1], 0), first[k])
        assert len(crosses) == cap + 4 + k and len(memo) == cap
    for x in sets:
        assert_same_bits(predict_marginal(state, x, [0, 1, 1], 1), predict_marginal(dataclasses.replace(state), x, [0, 1, 1], 1))


def test_prediction_rejects_a_latent_kernel_without_psi_statistics():
    # prediction needs the psi statistics of an RBF latent kernel, so no
    # state with another one can be built
    rng = np.random.default_rng(46)
    state = random_state(rng)
    with pytest.raises(ValueError, match="'matern32'"):
        dataclasses.replace(state, latent_kernel=dataclasses.replace(state.latent_kernel, family=MATERN32))


def test_invalid_output_and_replica_raise():
    rng = np.random.default_rng(6)
    state = random_state(rng)
    with pytest.raises(ValueError):
        predict_marginal(state, np.zeros((1, 1)), [0], output=99)
    with pytest.raises(ValueError):
        predict_missing_replica(state, 0, replica=99, grid=np.zeros((1, 1)))
    with pytest.raises(ValueError, match="replica tag"):
        predict_conditional(state, np.zeros((1, 1)), [7], state.latent_posterior.means[0])


def test_variance_never_negative():
    rng = np.random.default_rng(7)
    for trial in range(5):
        state = random_state(rng, mean_scale=2.0)
        xstar = rng.uniform(-0.5, 1.5, size=(8, 1))
        tags = rng.integers(0, state.n_replicas, size=8)
        for d in range(state.n_outputs):
            # for v >= 0, (v + noise) - noise >= 0 holds exactly, so a variance
            # clipped at zero still reads non-negative here
            m = without_noise(predict_marginal(state, xstar, tags, d), state, d)
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
        moments = predict_missing_replica(result.state, d, r, block.inputs)
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
