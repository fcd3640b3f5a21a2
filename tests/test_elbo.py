import numpy as np
import pytest

from hiermogp import autodiff as ad
from hiermogp import data, objective, training
from hiermogp.elbo import elbo_per_output, elbo_shared
from hiermogp.kernels import HierarchicalKernel, RBF, StationaryKernel, hier_block_cov, latent_cov
from hiermogp.latent import InducingState, LatentPosterior
from hiermogp.model import ElboBreakdown, ModelState
from hiermogp.objective import read_data
from hiermogp.params import ParamLayout

from .helpers import random_per_output_data, random_shared_data, random_state
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
    rng = np.random.default_rng(5)
    state = random_state(rng, n_outputs=3, per_output_noise=False)
    blocks, y = random_shared_data(rng, state, n_per_replica=3)
    n_points = 3 * state.n_replicas
    per_state = ModelState(
        hier_kernel=state.hier_kernel,
        latent_kernel=state.latent_kernel,
        latent_posterior=state.latent_posterior,
        inducing=state.inducing,
        noise_variance=np.full(state.n_outputs, float(state.noise_variance)),
    )
    x_list = [blocks] * state.n_outputs
    y_list = [y[d * n_points : (d + 1) * n_points] for d in range(state.n_outputs)]
    a = elbo_shared(state, blocks, y)
    b = elbo_per_output(per_state, x_list, y_list)
    assert np.isclose(a.total, b.total, rtol=1e-8)
    assert np.isclose(a.data_fit, b.data_fit, rtol=1e-8)


def test_permuting_one_outputs_replica_block_leaves_the_bound_unchanged():
    # on a common grid the data are read as one group carrying every output;
    # reordering one output's points splits them into one group per output,
    # which must give the same bound
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
        assert read_data(state, x, y).points.shape[0] == 1
        assert read_data(state, x_perm, y_perm).points.shape[0] == state.n_outputs
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
    config = data.SyntheticConfig(n_outputs=10, n_replicas=n_replicas)
    dataset = data.generate_synthetic(config, seed=0)
    train, _ = data.split(dataset, data.SplitPlan(mode="random_fraction", fraction=0.5, seed=0))
    model = training.ModelConfig(inducing_per_replica=inducing_per_replica, inducing_latent=inducing_latent)
    template = training.initialize_state(train, model, seed=0)
    layout = ParamLayout(template)
    bound_data = read_data(template, *train.training_arrays())
    pieces, _ = objective.build_graph(layout.pack(template), layout, template, bound_data)
    return len(ad._topological_order(pieces.total))


def test_desk_shaped_step_stays_within_its_tape_budget():
    # 10 outputs with 3 replicas of per-output inputs, m_r=8 and m_h=6: the
    # closed forms (Grams, psi statistics, KL terms, each inducing Gram's
    # inverse and log-determinant) are fused nodes, and the inducing inputs
    # are one leaf
    assert _step_tape_nodes(3, 8, 6) <= 120


def test_step_tape_does_not_grow_with_replicas():
    assert _step_tape_nodes(3, 6, 4) == _step_tape_nodes(12, 4, 10)


def test_bound_and_gradient_factor_each_inducing_gram_once(monkeypatch):
    rng = np.random.default_rng(3)
    state = random_state(rng, n_outputs=3, n_replicas=2)
    layout = ParamLayout(state)
    bound_data = read_data(state, *random_per_output_data(rng, state))
    calls = []
    original = np.linalg.cholesky

    def counted(a):
        calls.append(a.shape)
        return original(a)

    monkeypatch.setattr(np.linalg, "cholesky", counted)
    _, _, jitters = objective.evaluate_with_grad(layout.pack(state), layout, state, bound_data)
    assert jitters == {"kuu_h": 0.0, "kuu_x": 0.0}
    # one factor of Kuu_h and one of Kuu_x, each used for its inverse and log-determinant
    assert sorted(calls) == [(2, 2), (4, 4)]
