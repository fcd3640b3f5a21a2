import dataclasses

import numpy as np
import pytest
from numpy.linalg import _umath_linalg

from hiermogp import autodiff as ad
from hiermogp import kron as kron_module
from hiermogp import objective
from hiermogp.elbo import elbo_per_output, elbo_shared
from hiermogp.kernels import HierarchicalKernel, RBF, StationaryKernel, hier_block_cov, latent_cov
from hiermogp.latent import InducingState, LatentPosterior
from hiermogp.model import ElboBreakdown, ModelState
from hiermogp.objective import read_data
from hiermogp.params import ParamLayout

from .helpers import check, initial_step, random_chol, random_per_output_data, random_shared_data, random_state
from .oracles import (
    SizeGuardError,
    _jittered,
    elbo_naive_oracle,
    exact_log_marginal_fixed_h,
    kron,
    optimal_inducing_dense,
    psi_closed_form,
    tri_solve,
    unvec,
)


def test_breakdown_total_identity():
    b = ElboBreakdown(data_fit=1.5, kl_inducing=0.25, kl_latent=0.125)
    assert b.total == 1.5 - 0.25 - 0.125


def test_shared_requires_scalar_noise():
    rng = np.random.default_rng(0)
    state = random_state(rng, per_output_noise=True)
    x, y = random_shared_data(rng, state)
    with pytest.raises(ValueError):
        elbo_shared(state, x, y)


def test_shared_dimension_mismatch():
    rng = np.random.default_rng(0)
    state = random_state(rng, per_output_noise=False)
    x, y = random_shared_data(rng, state)
    with pytest.raises(ValueError):
        elbo_shared(state, x, y[:-1])


def test_efficient_matches_naive_shared():
    for trial in range(20):
        rng = np.random.default_rng(300 + trial)
        state = random_state(
            rng,
            n_outputs=int(rng.integers(1, 4)),
            n_replicas=int(rng.integers(1, 4)),
            m_per_replica=int(rng.integers(1, 3)),
            m_latent=int(rng.integers(1, 4)),
            per_output_noise=False,
            flat=bool(rng.integers(0, 2)),
        )
        x, y = random_shared_data(rng, state, n_per_replica=int(rng.integers(1, 5)))
        fast = elbo_shared(state, x, y)
        slow = elbo_naive_oracle(state, x, y)
        for name in ("data_fit", "kl_inducing", "kl_latent", "total"):
            a, b = getattr(fast, name), getattr(slow, name)
            assert np.isclose(a, b, rtol=1e-8, atol=1e-8), (trial, name, a, b)


def test_efficient_matches_naive_per_output():
    for trial in range(20):
        rng = np.random.default_rng(400 + trial)
        state = random_state(
            rng,
            n_outputs=int(rng.integers(1, 4)),
            n_replicas=int(rng.integers(1, 4)),
            m_per_replica=int(rng.integers(1, 3)),
            m_latent=int(rng.integers(1, 4)),
            per_output_noise=True,
            flat=bool(rng.integers(0, 2)),
        )
        x, y = random_per_output_data(rng, state, n_per_replica=4, ragged=True)
        fast = elbo_per_output(state, x, y)
        slow = elbo_naive_oracle(state, x, y)
        for name in ("data_fit", "kl_inducing", "kl_latent", "total"):
            a, b = getattr(fast, name), getattr(slow, name)
            assert np.isclose(a, b, rtol=1e-8, atol=1e-8), (trial, name, a, b)


def test_regimes_coincide_on_identical_inputs_and_noise():
    # on a common grid every output indexes every point; tying the noise is
    # the only difference between the regimes, so the bound agrees and the
    # tied noise's gradient is the sum of the per-output ones
    for trial in range(6):
        rng = np.random.default_rng(1000 + trial)
        tied = random_state(rng, n_outputs=4, n_replicas=3, flat=(trial % 3 == 2), per_output_noise=False)
        blocks, y = random_shared_data(rng, tied, n_per_replica=3)
        x_list, y_list = [blocks] * tied.n_outputs, list(np.reshape(y, (tied.n_outputs, -1)))
        per_output = ModelState(
            hier_kernel=tied.hier_kernel,
            latent_kernel=tied.latent_kernel,
            latent_posterior=tied.latent_posterior,
            inducing=tied.inducing,
            noise_variance=np.full(tied.n_outputs, float(tied.noise_variance)),
        )
        data = read_data(tied, x_list, y_list)
        assert data.points.shape[0] == 3 * tied.n_replicas
        assert np.all(data.index == data.index[0]) and np.all(data.index < data.points.shape[0])
        results = []
        for state in (tied, per_output):
            layout = ParamLayout(state)
            breakdown, grad, _ = objective.evaluate_with_grad(layout.pack(state), layout, state, data)
            results.append((breakdown, layout.split(grad)))
        (a, grad_a), (b, grad_b) = results
        for name in ("data_fit", "kl_inducing", "kl_latent", "total"):
            assert np.isclose(getattr(a, name), getattr(b, name), rtol=1e-10, atol=0.0), (trial, name)
        assert elbo_shared(tied, blocks, y).total == a.total
        for name, value in grad_a.items():
            other = grad_b[name]
            if name == "log_noise_variance":
                other = np.sum(other, keepdims=True)
            assert np.allclose(value, other, rtol=1e-10, atol=1e-12 * np.abs(value).max()), (trial, name)


def test_permuting_one_outputs_replica_block_leaves_the_bound_unchanged():
    # reordering one output's points within a replica block moves its index
    # entries, not the distinct points the Gram is built over, and must give
    # the same bound
    for trial in range(6):
        rng = np.random.default_rng(950 + trial)
        state = random_state(
            rng, n_outputs=3, n_replicas=3, flat=(trial % 3 == 2), per_output_noise=(trial % 2 == 0)
        )
        blocks, y = random_shared_data(rng, state, n_per_replica=4)
        x = [blocks] * state.n_outputs
        y = list(np.reshape(y, (state.n_outputs, -1)))
        d, r = trial % state.n_outputs, trial % state.n_replicas
        order = np.roll(np.arange(4), 1 + trial % 3)
        x_perm = [list(b) for b in x]
        x_perm[d][r] = blocks[r][order]
        y_perm = [y_d.copy() for y_d in y]
        y_perm[d][4 * r : 4 * r + 4] = y[d][4 * r : 4 * r + 4][order]
        assert read_data(state, x, y).points.shape[0] == 4 * state.n_replicas
        assert read_data(state, x_perm, y_perm).points.shape[0] == 4 * state.n_replicas
        a, b = elbo_per_output(state, x, y), elbo_per_output(state, x_perm, y_perm)
        for name in ("data_fit", "kl_inducing", "kl_latent", "total"):
            assert np.isclose(getattr(a, name), getattr(b, name), rtol=1e-10, atol=0.0), (trial, name)


def test_per_output_with_missing_replica_and_empty_output_matches_naive():
    # output 0 misses replica 1, output 2 has no points at all: padded rows
    # and empty outputs must contribute nothing beyond their n_d = 0 terms
    for trial in range(5):
        rng = np.random.default_rng(900 + trial)
        state = random_state(rng, n_outputs=3, n_replicas=3, flat=(trial % 2 == 1))
        x, y = random_per_output_data(rng, state, n_per_replica=3, ragged=True)
        x[0][1] = np.zeros((0, state.input_dim))
        y[0] = rng.standard_normal(sum(b.shape[0] for b in x[0]))
        x[2] = [np.zeros((0, state.input_dim)) for _ in range(state.n_replicas)]
        y[2] = np.zeros(0)
        fast = elbo_per_output(state, x, y)
        slow = elbo_naive_oracle(state, x, y)
        for name in ("data_fit", "kl_inducing", "kl_latent", "total"):
            a, b = getattr(fast, name), getattr(slow, name)
            assert np.isclose(a, b, rtol=1e-8, atol=0.0), (trial, name, a, b)


def test_permuting_outputs_leaves_bound_unchanged():
    for trial in range(5):
        rng = np.random.default_rng(950 + trial)
        state = random_state(rng, n_outputs=4, n_replicas=2, flat=(trial % 2 == 1))
        x, y = random_per_output_data(rng, state, n_per_replica=3, ragged=True)
        perm = rng.permutation(state.n_outputs)
        post = state.latent_posterior
        permuted = ModelState(
            hier_kernel=state.hier_kernel,
            latent_kernel=state.latent_kernel,
            latent_posterior=LatentPosterior(means=post.means[perm], variances=post.variances[perm]),
            inducing=state.inducing,
            noise_variance=state.noise_variance[perm],
        )
        a = elbo_per_output(state, x, y)
        b = elbo_per_output(permuted, [x[d] for d in perm], [y[d] for d in perm])
        for name in ("data_fit", "kl_latent", "total"):
            assert np.isclose(getattr(a, name), getattr(b, name), rtol=1e-10, atol=0.0), (trial, name)


def _one_output(state, d):
    """``state`` restricted to output ``d``: its latent posterior and noise."""
    post = state.latent_posterior
    return ModelState(
        hier_kernel=state.hier_kernel,
        latent_kernel=state.latent_kernel,
        latent_posterior=LatentPosterior(means=post.means[d : d + 1], variances=post.variances[d : d + 1]),
        inducing=state.inducing,
        noise_variance=state.noise_variance[d : d + 1],
    )


def test_permuting_the_outputs_permutes_the_per_output_terms():
    # the data fit is a sum of one term per output, each read from that
    # output's index into the distinct points; reordering the outputs
    # reorders the index rows and the terms, not the points
    for trial in range(4):
        rng = np.random.default_rng(980 + trial)
        state = random_state(rng, n_outputs=4, n_replicas=2, flat=(trial % 2 == 1))
        x, y = random_per_output_data(rng, state, n_per_replica=3, ragged=True)
        x[2][0] = x[0][0][:2]  # two outputs share points
        y[2] = rng.standard_normal(sum(b.shape[0] for b in x[2]))
        perm = rng.permutation(state.n_outputs)
        x_perm, y_perm = [x[d] for d in perm], [y[d] for d in perm]
        a, b = read_data(state, x, y), read_data(state, x_perm, y_perm)
        assert np.array_equal(a.points, b.points) and np.array_equal(a.tags, b.tags)
        assert np.array_equal(b.index, a.index[perm]) and np.array_equal(b.targets, a.targets[perm])
        terms = [elbo_per_output(_one_output(state, d), x[d : d + 1], y[d : d + 1]).data_fit for d in range(4)]
        post = state.latent_posterior
        permuted = ModelState(
            hier_kernel=state.hier_kernel,
            latent_kernel=state.latent_kernel,
            latent_posterior=LatentPosterior(means=post.means[perm], variances=post.variances[perm]),
            inducing=state.inducing,
            noise_variance=state.noise_variance[perm],
        )
        permuted_terms = [
            elbo_per_output(_one_output(permuted, d), x_perm[d : d + 1], y_perm[d : d + 1]).data_fit for d in range(4)
        ]
        assert np.allclose(permuted_terms, np.asarray(terms)[perm], rtol=1e-12, atol=0.0), trial
        for bound_state, xs, ys, parts in ((state, x, y, terms), (permuted, x_perm, y_perm, permuted_terms)):
            total = elbo_per_output(bound_state, xs, ys).data_fit
            assert np.isclose(total, np.sum(parts), rtol=1e-10, atol=0.0), trial


def test_a_point_observed_by_two_outputs_is_one_gram_row():
    for trial in range(4):
        rng = np.random.default_rng(990 + trial)
        state = random_state(rng, n_outputs=3, n_replicas=2, flat=(trial % 2 == 1))
        x, y = random_per_output_data(rng, state, n_per_replica=3)
        shared = x[0][1][1]
        x[1][1] = np.vstack([x[1][1], shared])  # output 1 also observes a point of output 0
        x[2][0] = np.vstack([x[2][0], shared])  # output 2 observes it in another replica
        y[1] = np.append(y[1], 0.3)
        y[2] = np.concatenate([y[2][:3], [-0.7], y[2][3:]])
        data = read_data(state, x, y)
        n_total = sum(b.shape[0] for blocks in x for b in blocks)
        assert data.points.shape[0] == n_total - 1
        row = data.index[0, 3 + 1]  # output 0, replica 1, second point
        assert data.index[1, 6] == row and data.tags[row] == 1
        assert data.index[2, 3] != row and data.tags[data.index[2, 3]] == 0
        assert np.array_equal(data.points[data.index[2, 3]], data.points[row])
        fast = elbo_per_output(state, x, y)
        slow = elbo_naive_oracle(state, x, y)
        for name in ("data_fit", "total"):
            assert np.isclose(getattr(fast, name), getattr(slow, name), rtol=1e-8, atol=0.0), (trial, name)


def test_an_output_with_no_points_contributes_only_its_n_d_zero_terms():
    # an empty output adds nothing to the data fit, and the gradient in its
    # noise and latent coordinates is that of its latent KL term alone
    for trial in range(4):
        rng = np.random.default_rng(1010 + trial)
        state = random_state(rng, n_outputs=3, n_replicas=2, flat=(trial % 2 == 1))
        x, y = random_per_output_data(rng, state, n_per_replica=3, ragged=True)
        empty = trial % 3
        x[empty] = [np.zeros((0, state.input_dim)) for _ in range(state.n_replicas)]
        y[empty] = np.zeros(0)
        keep = [d for d in range(3) if d != empty]
        post = state.latent_posterior
        rest = ModelState(
            hier_kernel=state.hier_kernel,
            latent_kernel=state.latent_kernel,
            latent_posterior=LatentPosterior(means=post.means[keep], variances=post.variances[keep]),
            inducing=state.inducing,
            noise_variance=state.noise_variance[keep],
        )
        full = elbo_per_output(state, x, y)
        without = elbo_per_output(rest, [x[d] for d in keep], [y[d] for d in keep])
        assert np.isclose(full.data_fit, without.data_fit, rtol=1e-12, atol=0.0), trial
        assert np.isclose(full.kl_inducing, without.kl_inducing, rtol=1e-12, atol=0.0), trial
        mu, s = post.means[empty], post.variances[empty]
        kl_empty = 0.5 * np.sum(s + mu**2 - 1.0 - np.log(s))
        assert np.isclose(full.kl_latent - without.kl_latent, kl_empty, rtol=1e-10, atol=1e-12), trial
        layout = ParamLayout(state)
        _, grad, _ = objective.evaluate_with_grad(layout.pack(state), layout, state, read_data(state, x, y))
        grads = layout.split(grad)
        assert grads["log_noise_variance"][empty] == 0.0
        assert np.allclose(grads["latent_mean"][empty], -mu, rtol=1e-12, atol=1e-14)
        assert np.allclose(grads["latent_log_variance"][empty], -0.5 * (s - 1.0), rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("tied_noise", [False, True])
def test_data_fit_node_matches_finite_differences(tied_noise):
    # every argument of the fused data-fit node, on data with a point two
    # outputs share, a point one output observes twice, a padded output and
    # an empty one; the inverse Grams and covariance factors are symmetric,
    # as the bound's are
    rng = np.random.default_rng(1020)
    state = random_state(rng, n_outputs=4, n_replicas=2, per_output_noise=not tied_noise)
    x, y = random_per_output_data(rng, state, n_per_replica=3, ragged=True)
    x[1][0] = np.vstack([x[1][0], x[0][0][:1], x[0][0][:1]])
    y[1] = rng.standard_normal(sum(b.shape[0] for b in x[1]))
    x[3] = [np.zeros((0, state.input_dim)) for _ in range(state.n_replicas)]
    y[3] = np.zeros(0)
    data = read_data(state, x, y)
    n_points, m_x, m_h = data.points.shape[0], 4, state.inducing.m_h

    def spd(n):
        lower = random_chol(rng, n)
        return lower @ lower.T

    arrays = (
        rng.standard_normal((n_points, m_x)),  # kfu
        rng.uniform(0.1, 1.0, size=(4, m_h)),  # psi1
        np.stack([spd(m_h) for _ in range(4)]),  # psi2
        spd(m_x),  # a_x
        spd(m_h),  # a_h
        rng.standard_normal((m_x, m_h)),  # mean
        spd(m_x),  # sigma_x
        spd(m_h),  # sigma_h
        np.asarray(0.8),  # variance
        np.asarray(1.3),  # amplitude
        rng.uniform(-1.0, 0.0, size=1 if tied_noise else 4),  # log_noise
    )
    check(lambda *args: objective.data_fit(data, *args), *arrays)


def test_permuting_replicas_leaves_bound_unchanged():
    # inducing blocks, replica tags of the data and targets move together
    for trial in range(5):
        rng = np.random.default_rng(960 + trial)
        state = random_state(rng, n_outputs=3, n_replicas=3, m_per_replica=2, flat=(trial % 2 == 1))
        x, y = random_per_output_data(rng, state, n_per_replica=3, ragged=True)
        perm = rng.permutation(state.n_replicas)
        ind = state.inducing
        starts = np.cumsum([0] + [b.shape[0] for b in ind.z_input])
        rows = np.concatenate([np.arange(starts[r], starts[r + 1]) for r in perm])
        cov_input = ind.cov_input[np.ix_(rows, rows)]
        permuted = ModelState(
            hier_kernel=state.hier_kernel,
            latent_kernel=state.latent_kernel,
            latent_posterior=state.latent_posterior,
            inducing=InducingState(
                z_input=[ind.z_input[r] for r in perm],
                z_latent=ind.z_latent,
                mean=ind.mean[rows],
                cov_latent_chol=ind.cov_latent_chol,
                cov_input_chol=np.linalg.cholesky(cov_input),
            ),
            noise_variance=state.noise_variance,
        )
        x_perm, y_perm = [], []
        for blocks, targets in zip(x, y):
            cuts = np.cumsum([b.shape[0] for b in blocks])[:-1]
            pieces = np.split(targets, cuts)
            x_perm.append([blocks[r] for r in perm])
            y_perm.append(np.concatenate([pieces[r] for r in perm]))
        a = elbo_per_output(state, x, y)
        b = elbo_per_output(permuted, x_perm, y_perm)
        for name in ("data_fit", "kl_inducing", "total"):
            assert np.isclose(getattr(a, name), getattr(b, name), rtol=1e-9, atol=0.0), (trial, name)


def test_hierarchical_bound_tends_to_flat_as_shared_variance_vanishes():
    rng = np.random.default_rng(970)
    state = random_state(rng, n_outputs=3, n_replicas=2, per_output_noise=False)
    x_shared, y_shared = random_shared_data(rng, state, n_per_replica=3)
    x, y = random_per_output_data(rng, state, n_per_replica=3, ragged=True)

    def with_shared(shared):
        return ModelState(
            hier_kernel=HierarchicalKernel(shared=shared, replica=state.hier_kernel.replica),
            latent_kernel=state.latent_kernel,
            latent_posterior=state.latent_posterior,
            inducing=state.inducing,
            noise_variance=state.noise_variance,
        )

    flat = with_shared(None)
    shared = state.hier_kernel.shared
    for bound, args in ((elbo_shared, (x_shared, y_shared)), (elbo_per_output, (x, y))):
        target = bound(flat, *args).total
        gaps = [
            abs(bound(with_shared(StationaryKernel(shared.family, v, shared.lengthscales)), *args).total - target)
            for v in (1e-1, 1e-3, 1e-5, 1e-7)
        ]
        # the gap shrinks in proportion to the shared variance
        assert all(later < 0.05 * earlier for earlier, later in zip(gaps, gaps[1:])), gaps
        assert gaps[-1] <= 1e-6 * max(1.0, abs(target)), gaps


def test_zero_data_reduction():
    # y = 0 and zero inducing mean leave only the constant and trace terms
    rng = np.random.default_rng(6)
    state = random_state(rng, per_output_noise=False, mean_scale=0.0)
    x, y = random_shared_data(rng, state, n_per_replica=2)
    y = np.zeros_like(y)
    got = elbo_shared(state, x, y)

    sig2 = float(state.noise_variance)
    ind = state.inducing
    n_total = state.n_outputs * sum(b.shape[0] for b in x)
    kuu = kron(
        _jittered(latent_cov(state.latent_kernel, ind.z_latent, ind.z_latent)),
        _jittered(hier_block_cov(state.hier_kernel, ind.z_input, ind.z_input)),
    )
    kuu_inv = tri_solve(np.linalg.cholesky(kuu), np.eye(kuu.shape[0]))
    _, psi2 = psi_closed_form(state.latent_posterior, state.latent_kernel, ind.z_latent)
    kfu_x = hier_block_cov(state.hier_kernel, x, ind.z_input)
    phi = kron(np.sum(psi2, axis=0), kfu_x.T @ kfu_x)
    psi0 = state.n_outputs * state.latent_kernel.variance * np.trace(hier_block_cov(state.hier_kernel, x, x))
    sigma_u = kron(ind.cov_latent, ind.cov_input)
    expected = (
        -0.5 * n_total * np.log(2 * np.pi * sig2)
        - 0.5 * (psi0 - np.trace(kuu_inv @ phi)) / sig2
        - 0.5 * np.trace(kuu_inv @ phi @ kuu_inv @ sigma_u) / sig2
    )
    assert np.isclose(got.data_fit, expected, rtol=1e-8)


def test_single_output_collapses_to_one_term():
    rng = np.random.default_rng(7)
    state = random_state(rng, n_outputs=1, per_output_noise=True)
    x, y = random_per_output_data(rng, state, n_per_replica=3)
    fast = elbo_per_output(state, x, y)
    slow = elbo_naive_oracle(state, x, y)
    assert np.isclose(fast.total, slow.total, rtol=1e-8)


def test_noise_scaling_of_zero_target_output():
    # with y_d = 0, that output's quadratic terms scale by 1/4 when sigma_d
    # doubles, on top of the log-term shift
    rng = np.random.default_rng(8)
    state = random_state(rng, n_outputs=2, per_output_noise=True)
    x, y = random_per_output_data(rng, state, n_per_replica=3)
    y[0] = np.zeros_like(y[0])
    n_0 = y[0].size
    sig2 = state.noise_variance[0]
    state0 = ModelState(
        hier_kernel=state.hier_kernel,
        latent_kernel=state.latent_kernel,
        latent_posterior=LatentPosterior(
            means=state.latent_posterior.means[:1],
            variances=state.latent_posterior.variances[:1],
        ),
        inducing=state.inducing,
        noise_variance=state.noise_variance[:1],
    )
    f0 = elbo_per_output(state0, x[:1], y[:1]).data_fit
    q0 = f0 + 0.5 * n_0 * np.log(2 * np.pi * sig2)
    state0_doubled = ModelState(
        hier_kernel=state.hier_kernel,
        latent_kernel=state.latent_kernel,
        latent_posterior=state0.latent_posterior,
        inducing=state.inducing,
        noise_variance=state.noise_variance[:1] * 4.0,
    )
    f0_doubled = elbo_per_output(state0_doubled, x[:1], y[:1]).data_fit
    q0_doubled = f0_doubled + 0.5 * n_0 * np.log(2 * np.pi * 4.0 * sig2)
    assert np.isclose(q0_doubled, q0 / 4.0, rtol=1e-8)


def test_naive_oracle_guards_size():
    rng = np.random.default_rng(9)
    state = random_state(rng, m_per_replica=8, n_replicas=4, m_latent=8)
    x, y = random_per_output_data(rng, state, n_per_replica=2)
    with pytest.raises(SizeGuardError):
        elbo_naive_oracle(state, x, y)


def test_naive_oracle_finite_on_tiny_instances():
    rng = np.random.default_rng(10)
    state = random_state(rng)
    x, y = random_per_output_data(rng, state)
    breakdown = elbo_naive_oracle(state, x, y)
    assert np.isfinite(breakdown.total)


def delta_state(state, variances=1e-10):
    return ModelState(
        hier_kernel=state.hier_kernel,
        latent_kernel=state.latent_kernel,
        latent_posterior=LatentPosterior(
            means=state.latent_posterior.means,
            variances=np.full_like(state.latent_posterior.variances, variances),
        ),
        inducing=state.inducing,
        noise_variance=state.noise_variance,
    )


def test_exact_log_marginal_scalar_case():
    rng = np.random.default_rng(11)
    state = random_state(rng, n_outputs=1, n_replicas=1, m_per_replica=1, m_latent=1)
    # one datum, unit prior amplitude at distance zero, unit noise
    hk = HierarchicalKernel(
        shared=None,
        replica=StationaryKernel(state.hier_kernel.replica.family, 1.0, [1.0]),
    )
    state = ModelState(
        hier_kernel=hk,
        latent_kernel=StationaryKernel(RBF, 1.0, np.ones(state.latent_dim)),
        latent_posterior=LatentPosterior(
            means=np.zeros((1, state.latent_dim)), variances=np.ones((1, state.latent_dim))
        ),
        inducing=state.inducing,
        noise_variance=np.asarray(1.0),
    )
    y_val = 0.7
    got = exact_log_marginal_fixed_h(state, [np.zeros((1, 1))], np.array([y_val]))
    expected = -0.5 * np.log(2 * np.pi * 2.0) - 0.5 * y_val**2 / 2.0
    assert np.isclose(got, expected, rtol=1e-12)


def test_exact_log_marginal_block_diagonal_outputs():
    # with orthogonal latent coordinates far apart, the latent kernel Gram is
    # nearly the identity and the marginal splits over outputs
    rng = np.random.default_rng(12)
    state = random_state(rng, n_outputs=2, per_output_noise=True)
    far = LatentPosterior(
        means=np.array([[0.0, 0.0], [60.0, 60.0]]), variances=np.ones((2, 2))
    )
    state = ModelState(
        hier_kernel=state.hier_kernel,
        latent_kernel=StationaryKernel(RBF, 1.0, np.ones(2)),
        latent_posterior=far,
        inducing=state.inducing,
        noise_variance=state.noise_variance,
    )
    x, y = random_per_output_data(rng, state, n_per_replica=2)
    joint = exact_log_marginal_fixed_h(state, x, y)
    total = 0.0
    for d in range(2):
        single = ModelState(
            hier_kernel=state.hier_kernel,
            latent_kernel=state.latent_kernel,
            latent_posterior=LatentPosterior(
                means=far.means[d : d + 1], variances=far.variances[d : d + 1]
            ),
            inducing=state.inducing,
            noise_variance=state.noise_variance[d : d + 1],
        )
        total += exact_log_marginal_fixed_h(single, x[d : d + 1], y[d : d + 1])
    assert np.isclose(joint, total, rtol=1e-10)


def test_exact_log_marginal_matches_direct_density():
    rng = np.random.default_rng(13)
    state = random_state(rng, n_outputs=2, per_output_noise=False)
    x, y = random_shared_data(rng, state, n_per_replica=2)
    kh = latent_cov(state.latent_kernel, state.latent_posterior.means, state.latent_posterior.means)
    kx = hier_block_cov(state.hier_kernel, x, x)
    cov = kron(kh, kx) + float(state.noise_variance) * np.eye(y.size)
    sign, logabs = np.linalg.slogdet(cov)
    direct = -0.5 * (y.size * np.log(2 * np.pi) + logabs + y @ np.linalg.solve(cov, y))
    got = exact_log_marginal_fixed_h(state, x, y)
    assert np.isclose(got, direct, rtol=1e-10)


def test_bound_never_exceeds_exact_marginal():
    # delta-concentrated latent posterior, arbitrary inducing posterior
    for trial in range(8):
        rng = np.random.default_rng(500 + trial)
        state = delta_state(random_state(rng, per_output_noise=True))
        x, y = random_per_output_data(rng, state, n_per_replica=3)
        bound = elbo_per_output(state, x, y)
        exact = exact_log_marginal_fixed_h(state, x, y)
        assert bound.data_fit - bound.kl_inducing <= exact + 1e-6


def test_bound_tight_at_optimal_inducing_posterior():
    # inducing points placed on the data, latent inducing on the latent
    # coordinates, optimal dense inducing posterior: the bound closes
    for trial in range(5):
        rng = np.random.default_rng(600 + trial)
        d, r, n = 2, 2, 3
        base = random_state(rng, n_outputs=d, n_replicas=r, m_per_replica=n, m_latent=d)
        x, y = random_per_output_data(rng, base, n_per_replica=n)
        # shared inputs across outputs so inducing-at-data spans everything
        blocks = x[0]
        x = [blocks] * d
        state = delta_state(
            ModelState(
                hier_kernel=base.hier_kernel,
                latent_kernel=base.latent_kernel,
                latent_posterior=base.latent_posterior,
                inducing=InducingState(
                    z_input=[b.copy() for b in blocks],
                    z_latent=base.latent_posterior.means.copy(),
                    mean=np.zeros((r * n, d)),
                    cov_latent_chol=np.eye(d),
                    cov_input_chol=np.eye(r * n),
                ),
                noise_variance=base.noise_variance,
            )
        )
        mean, cov = optimal_inducing_dense(state, x, y)
        opt_state = ModelState(
            hier_kernel=state.hier_kernel,
            latent_kernel=state.latent_kernel,
            latent_posterior=state.latent_posterior,
            inducing=InducingState(
                z_input=state.inducing.z_input,
                z_latent=state.inducing.z_latent,
                mean=unvec(mean, r * n, d),
                cov_latent_chol=state.inducing.cov_latent_chol,
                cov_input_chol=state.inducing.cov_input_chol,
            ),
            noise_variance=state.noise_variance,
        )
        bound = elbo_naive_oracle(opt_state, x, y, sigma_u=cov)
        exact = exact_log_marginal_fixed_h(state, x, y)
        gap = exact - (bound.data_fit - bound.kl_inducing)
        assert abs(gap) < 1e-5, (trial, gap)
        assert bound.data_fit - bound.kl_inducing <= exact + 1e-6


def _step_tape_nodes(n_replicas, inducing_per_replica, inducing_latent):
    """Nodes of one step's bound graph: 10 outputs with per-output inputs."""
    pieces, _ = objective.build_graph(*initial_step(10, n_replicas, inducing_per_replica, inducing_latent))
    return len(ad._topological_order(pieces.total))


def test_desk_shaped_step_stays_within_its_tape_budget():
    # 10 outputs with 3 replicas of per-output inputs, m_r=8 and m_h=6: one
    # leaf, the parameter vector, and fused nodes only (the constrained
    # parameters, Grams, psi statistics, KL terms, each inducing Gram's
    # inverse and log-determinant, the data fit and the total): 31 nodes
    assert _step_tape_nodes(3, 8, 6) <= 34


def test_step_tape_does_not_grow_with_replicas():
    assert _step_tape_nodes(3, 6, 4) == _step_tape_nodes(12, 4, 10)


@pytest.mark.parametrize("flat", [False, True])
def test_gradient_runs_each_closed_form_backward_once(monkeypatch, flat):
    # the benchmark's tiny shape: 3 outputs, 2 replicas of 8 points, 3 inducing
    # inputs per replica and 2 inducing latents
    step = initial_step(3, 2, 3, 2, points_per_replica=8, flat=flat)
    calls = {}
    build_graph = objective.build_graph

    def counted(node):
        backward = node.backward

        def wrapped(*cotangents):
            calls[id(node)] += 1
            gradients = backward(*cotangents)
            for parent, i in node.parents:  # one gradient per argument, in its shape
                assert np.shape(gradients[i]) == parent.value.shape
            return gradients

        return wrapped

    def wrapping_build_graph(*args):
        pieces, leaves = build_graph(*args)
        for node in ad._topological_order(pieces.total):
            if node.backward is not None:
                calls[id(node)] = 0
                node.backward = counted(node)
        return pieces, leaves

    monkeypatch.setattr(objective, "build_graph", wrapping_build_graph)
    objective.evaluate_with_grad(*step)
    # the constrained parameters, both inducing Grams and their inverses, the
    # psi statistics, both KL terms, the data/inducing Gram, the data fit and the total
    assert len(calls) == 11
    assert set(calls.values()) == {1}


def test_bound_and_gradient_factor_each_inducing_gram_once(monkeypatch):
    rng = np.random.default_rng(3)
    state = random_state(rng, n_outputs=3, n_replicas=2)
    layout = ParamLayout(state)
    bound_data = read_data(state, *random_per_output_data(rng, state))
    calls = []
    original = kron_module._lapack

    def counted(gufunc, a):  # every factorisation and inverse kron runs passes here
        if gufunc is _umath_linalg.cholesky_lo:
            calls.append(a.shape)
        return original(gufunc, a)

    monkeypatch.setattr(kron_module, "_lapack", counted)
    _, _, jitters = objective.evaluate_with_grad(layout.pack(state), layout, state, bound_data)
    assert jitters == {"kuu_h": 0.0, "kuu_x": 0.0}
    # one factor of Kuu_h and one of Kuu_x, each used for its inverse and log-determinant
    assert sorted(calls) == [(2, 2), (4, 4)]


@pytest.mark.parametrize("flat", [False, True])
def test_steps_on_one_bound_data_equal_steps_on_fresh_bound_data(flat):
    # a BoundData keeps the data fit's per-point array and its replica
    # pairs' blocks and sums across steps; at another theta in between,
    # each step is bitwise what a freshly read BoundData gives
    rng = np.random.default_rng(21)
    state = random_state(rng, n_outputs=3, n_replicas=2, flat=flat)
    x, y = random_per_output_data(rng, state)
    layout = ParamLayout(state)
    theta = layout.pack(state)
    reused = read_data(state, x, y)
    other = theta + 0.05 * rng.standard_normal(theta.shape)
    for t in (theta, other, theta):
        b_r, g_r, j_r = objective.evaluate_with_grad(t, layout, state, reused)
        b_f, g_f, j_f = objective.evaluate_with_grad(t, layout, state, read_data(state, x, y))
        assert b_r == b_f and j_r == j_f and np.array_equal(g_r, g_f)
    # a graph's gradient taken after another forward pass on the same data
    pieces, leaves = objective.build_graph(theta, layout, state, reused)
    objective.evaluate(other, layout, state, reused)
    (g_late,) = ad.grad(pieces.total, leaves)
    fresh, fresh_leaves = objective.build_graph(theta, layout, state, read_data(state, x, y))
    assert np.array_equal(g_late, ad.grad(fresh.total, fresh_leaves)[0])


def _scratch(data):
    """The arrays of a BoundData that every step overwrites."""
    pairs = (a for p in (data.kfu_pairs, data.kuu_pairs) for a in (p.block, *p.sums))
    return [data.per_point, data.bins, data.u_rows, data.u_rows_grad, *pairs]


def test_two_read_data_calls_share_no_buffer():
    rng = np.random.default_rng(22)
    state = random_state(rng, n_outputs=3, n_replicas=2)
    x, y = random_per_output_data(rng, state)
    layout = ParamLayout(state)
    datasets = read_data(state, x, y), read_data(state, x, y)
    for bound_data in datasets:
        objective.evaluate_with_grad(layout.pack(state), layout, state, bound_data)

    first, second = map(_scratch, datasets)
    # the per-point array, its bins, the rows of U and their cotangent, and per replica pairs a block and two sums
    assert len(first) == len(second) == 10
    assert not any(np.shares_memory(a, b) for a in first for b in second)


@pytest.mark.parametrize("flat", [False, True])
def test_read_data_makes_the_scratch_every_step_reuses(flat):
    # steps at two parameter vectors write into the arrays read_data made,
    # never replace them, and leave zero where the backward pass relies on
    # zeros: the padding of each block and the sums outside the rectangles
    rng = np.random.default_rng(23)
    state = random_state(rng, n_outputs=3, n_replicas=3, flat=flat)
    x, y = random_per_output_data(rng, state, n_per_replica=4, ragged=True)
    layout = ParamLayout(state)
    theta = layout.pack(state)
    data = read_data(state, x, y)
    made = _scratch(data)
    assert data.per_point.shape == (*data.index.shape, state.inducing.m_h + 2)
    assert data.u_rows.shape == data.u_rows_grad.shape == (*data.index.shape, state.inducing.m_h)
    padded = 0
    for t in (theta, theta + 0.05 * rng.standard_normal(theta.shape)):
        objective.evaluate_with_grad(t, layout, state, data)
        assert all(a is b for a, b in zip(_scratch(data), made))
        for p in (data.kfu_pairs, data.kuu_pairs):
            padding, outside = np.ones(p.block.shape, bool), np.ones(p.shape, bool)
            for in_gram, in_block in p.rectangles:
                padding[in_block] = outside[in_gram] = False
            assert not p.block[padding].any()
            assert not any(s[outside].any() for s in p.sums)
            padded += padding.sum()
    assert padded  # the ragged data leave some blocks padded


def test_read_data_stacks_the_points_replica_by_replica():
    # the replica level's layout rests on the points coming sorted on tag:
    # on ragged data where outputs share points, skip replicas and all leave
    # one replica unobserved, the tags never decrease, ones spread through
    # both pairs are the (tag_a == tag_b) mask, and the unobserved replica
    # has no rectangle in the data/inducing Gram
    for trial in range(8):
        rng = np.random.default_rng(740 + trial)
        state = random_state(rng, n_outputs=4, n_replicas=4, m_per_replica=2, input_dim=2)
        n_replicas, v = state.n_replicas, state.input_dim
        sizes = rng.multinomial(4, np.ones(n_replicas) / n_replicas) + 1  # unequal inducing blocks
        z_input = [rng.uniform(size=(m, v)) for m in sizes]
        state = dataclasses.replace(state, inducing=dataclasses.replace(state.inducing, z_input=z_input))
        unseen = int(rng.integers(n_replicas))
        pool = [rng.uniform(size=(3, v)) for _ in range(n_replicas)]  # points several outputs observe
        x, y = [], []
        for _ in range(state.n_outputs):
            blocks = []
            for r in range(n_replicas):
                if r == unseen or rng.random() < 0.3:
                    blocks.append(np.zeros((0, v)))
                else:
                    own = rng.uniform(size=(int(rng.integers(0, 3)), v))
                    blocks.append(rng.permutation(np.vstack([own, pool[r][rng.random(3) < 0.5]])))
            x.append(blocks)
            y.append(rng.standard_normal(sum(b.shape[0] for b in blocks)))
        data = read_data(state, x, y)
        assert np.all(np.diff(data.tags) >= 0), trial
        z_tags = np.repeat(np.arange(n_replicas), sizes)
        for pairs, tags in ((data.kfu_pairs, data.tags), (data.kuu_pairs, z_tags)):
            ones = np.ones(pairs.rows_a.shape + pairs.rows_b.shape[1:])
            mask = np.asarray(tags[:, None] == z_tags[None, :], float)
            assert np.array_equal(pairs.spread(ones, np.zeros(pairs.shape)), mask), trial
        assert len(data.kuu_pairs.rectangles) == n_replicas
        assert len(data.kfu_pairs.rectangles) == np.unique(data.tags).size < n_replicas
        z0, z1 = sum(sizes[:unseen]), sum(sizes[: unseen + 1])
        assert all(c.stop <= z0 or c.start >= z1 for (_, c), _ in data.kfu_pairs.rectangles), trial
