import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hiermogp.kernels import MATERN32, RBF, StationaryKernel, latent_cov
from hiermogp.latent import InducingState, LatentPosterior, kl_inducing, kl_latent, psi_stats
from hiermogp.model import ModelState

from .helpers import check, contract, random_state
from .oracles import (
    kl_inducing_closed_form,
    kl_latent_closed_form,
    kron,
    psi_closed_form,
    psi_stats_mc,
    vec,
)


def posterior(rng, d, q, var_scale=1.0):
    return LatentPosterior(
        means=rng.standard_normal((d, q)),
        variances=rng.uniform(0.1, 1.0, size=(d, q)) * var_scale,
    )


def rbf_kernel(rng, q):
    return StationaryKernel(RBF, rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0, size=q))


def test_posterior_validation():
    with pytest.raises(ValueError):
        LatentPosterior(means=np.zeros((2, 2)), variances=np.zeros((2, 2)))


def test_non_rbf_kernel_rejected():
    # the closed-form psi statistics, hence the bound, exist for RBF only
    rng = np.random.default_rng(0)
    state = random_state(rng)
    spec = StationaryKernel(MATERN32, 1.0, np.ones(state.latent_dim))
    with pytest.raises(ValueError, match="latent_kernel: family 'matern32', expected 'rbf'"):
        ModelState(
            hier_kernel=state.hier_kernel,
            latent_kernel=spec,
            latent_posterior=state.latent_posterior,
            inducing=state.inducing,
            noise_variance=state.noise_variance,
        )
    # the Monte Carlo oracle accepts any family
    post = LatentPosterior(means=np.zeros((1, 1)), variances=np.ones((1, 1)))
    psi_stats_mc(post, StationaryKernel(MATERN32, 1.0, [1.0]), np.zeros((1, 1)), samples=10, seed=0)


def test_delta_limit_recovers_plain_kernel():
    rng = np.random.default_rng(0)
    d, q, m = 3, 2, 4
    means = rng.standard_normal((d, q))
    post = LatentPosterior(means=means, variances=np.full((d, q), 1e-12))
    spec = rbf_kernel(rng, q)
    z = rng.standard_normal((m, q))
    psi1, psi2 = psi_closed_form(post, spec, z)
    plain = latent_cov(spec, means, z)
    assert np.allclose(psi1, plain, atol=1e-6)
    for i in range(d):
        assert np.allclose(psi2[i], np.outer(plain[i], plain[i]), atol=1e-6)


def test_mc_single_sample_zero_variance_is_plain_eval():
    rng = np.random.default_rng(2)
    means = rng.standard_normal((2, 2))
    post = LatentPosterior(means=means, variances=np.full((2, 2), 1e-300))
    spec = rbf_kernel(rng, 2)
    z = rng.standard_normal((3, 2))
    psi1, _ = psi_stats_mc(post, spec, z, samples=1, seed=5)
    assert np.allclose(psi1, latent_cov(spec, means, z))


def test_mc_deterministic_under_seed():
    rng = np.random.default_rng(3)
    post = posterior(rng, 2, 2)
    spec = rbf_kernel(rng, 2)
    z = rng.standard_normal((3, 2))
    a = psi_stats_mc(post, spec, z, samples=500, seed=9)
    b = psi_stats_mc(post, spec, z, samples=500, seed=9)
    assert np.array_equal(a[0], b[0])
    assert np.array_equal(a[1], b[1])


def test_mc_error_shrinks_with_sample_count():
    rng = np.random.default_rng(4)
    post = posterior(rng, 1, 1)
    spec = StationaryKernel(RBF, 1.0, [1.0])
    z = np.array([[0.3]])
    exact = psi_closed_form(post, spec, z)[0][0, 0]
    errors = []
    for samples in (1_000, 100_000):
        reps = [
            abs(psi_stats_mc(post, spec, z, samples=samples, seed=s)[0][0, 0] - exact)
            for s in range(8)
        ]
        errors.append(np.mean(reps))
    # a factor of 100 more samples should shrink the error by about 10
    assert errors[1] < errors[0] / 3.0


def mc_with_se(post, spec, z, samples, seed):
    """Monte Carlo psi1/psi2 with elementwise standard errors."""
    rng = np.random.default_rng(seed)
    d, q = post.means.shape
    m = z.shape[0]
    psi1 = np.zeros((d, m))
    se1 = np.zeros((d, m))
    psi2 = np.zeros((d, m, m))
    se2 = np.zeros((d, m, m))
    std = np.sqrt(post.variances)
    from hiermogp.kernels import eval_stationary

    for i in range(d):
        draws = post.means[i] + std[i] * rng.standard_normal((samples, q))
        rows = eval_stationary(spec, draws, z)
        psi1[i] = rows.mean(axis=0)
        se1[i] = rows.std(axis=0, ddof=1) / np.sqrt(samples)
        outer = rows[:, :, None] * rows[:, None, :]
        psi2[i] = outer.mean(axis=0)
        se2[i] = outer.std(axis=0, ddof=1) / np.sqrt(samples)
    return psi1, se1, psi2, se2


def test_closed_form_matches_monte_carlo_oracle():
    # 20 random configurations, 1e5 samples, 5 standard errors
    failures = 0
    for trial in range(20):
        rng = np.random.default_rng(100 + trial)
        d = rng.integers(1, 6)
        q = rng.integers(1, 4)
        m = rng.integers(1, 5)
        post = posterior(rng, d, q)
        spec = rbf_kernel(rng, q)
        z = rng.standard_normal((m, q))
        exact1, exact2 = psi_closed_form(post, spec, z)
        psi1, se1, psi2, se2 = mc_with_se(post, spec, z, samples=100_000, seed=trial)
        assert np.all(np.abs(exact1 - psi1) <= 5.0 * se1 + 1e-12)
        assert np.all(np.abs(exact2 - psi2) <= 5.0 * se2 + 1e-12)
    assert failures == 0


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_psi2_symmetric_psd(seed):
    rng = np.random.default_rng(seed)
    d, q, m = 3, 2, 4
    post = posterior(rng, d, q)
    spec = rbf_kernel(rng, q)
    _, psi2 = psi_closed_form(post, spec, rng.standard_normal((m, q)))
    for i in range(d):
        assert np.allclose(psi2[i], psi2[i].T)
        assert np.linalg.eigvalsh(psi2[i]).min() >= -1e-10
    total = np.sum(psi2, axis=0)
    assert np.linalg.eigvalsh(total).min() >= -1e-10


def test_kl_latent_values():
    prior_match = LatentPosterior(means=np.zeros((3, 2)), variances=np.ones((3, 2)))
    assert kl_latent_closed_form(prior_match) == 0.0
    single = LatentPosterior(means=np.array([[1.0]]), variances=np.array([[1.0]]))
    assert np.isclose(kl_latent_closed_form(single), 0.5)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_kl_latent_nonnegative(seed):
    rng = np.random.default_rng(seed)
    assert kl_latent_closed_form(posterior(rng, 3, 2, var_scale=rng.uniform(0.1, 5.0))) >= -1e-10


@pytest.mark.parametrize("d, q, m", [(3, 2, 4), (1, 1, 1), (4, 3, 2)])
def test_psi_stats_vjp(d, q, m):
    rng = np.random.default_rng(10 * d + m)
    args = (
        np.asarray(rng.uniform(0.5, 1.5)),
        rng.uniform(0.6, 1.5, size=q),
        rng.standard_normal((d, q)),
        np.log(rng.uniform(0.1, 1.0, size=(d, q))),
        rng.standard_normal((m, q)),
    )
    w1 = rng.standard_normal((d, m))
    w2 = rng.standard_normal((d, m, m))

    def weighted(*args, use1=True, use2=True):
        psi1, psi2 = psi_stats(*args)
        return contract(*[term for term, use in (((psi1, w1), use1), ((psi2, w2), use2)) if use])

    check(weighted, *args)
    # either statistic alone: the other one's cotangent is zero
    check(lambda *a: weighted(*a, use2=False), *args)
    check(lambda *a: weighted(*a, use1=False), *args)


def test_kl_latent_vjp():
    rng = np.random.default_rng(11)
    check(kl_latent, rng.standard_normal((3, 2)), np.log(rng.uniform(0.1, 2.0, size=(3, 2))))


def test_kl_inducing_vjp():
    # the closed form holds for any matrices, so none is made symmetric here
    rng = np.random.default_rng(12)
    m_x, m_h = 4, 3
    check(
        kl_inducing,
        rng.standard_normal((m_x, m_h)),
        rng.standard_normal((m_h, m_h)),
        rng.standard_normal((m_x, m_x)),
        np.asarray(rng.standard_normal()),
        np.asarray(rng.standard_normal()),
        rng.standard_normal((m_h, m_h)),
        rng.standard_normal((m_x, m_x)),
        np.asarray(rng.standard_normal()),
        np.asarray(rng.standard_normal()),
    )


def random_inducing(rng, m_h=2, m_x=4, q=2, v=1, mean_scale=1.0):
    def chol(n):
        b = rng.standard_normal((n, n)) * 0.3
        return np.linalg.cholesky(b @ b.T + np.eye(n))

    half = m_x // 2
    return InducingState(
        z_input=[rng.uniform(size=(half, v)), rng.uniform(size=(m_x - half, v))],
        z_latent=rng.standard_normal((m_h, q)),
        mean=mean_scale * rng.standard_normal((m_x, m_h)),
        cov_latent_chol=chol(m_h),
        cov_input_chol=chol(m_x),
    )


def random_kuu(rng, n):
    b = rng.standard_normal((n, n))
    return b @ b.T + n * np.eye(n)


def dense_gaussian_kl(mean, cov, prior_cov):
    n = cov.shape[0]
    prior_chol = np.linalg.cholesky(prior_cov)
    cov_chol = np.linalg.cholesky(cov)
    logdet_prior = 2.0 * np.sum(np.log(np.diag(prior_chol)))
    logdet_cov = 2.0 * np.sum(np.log(np.diag(cov_chol)))
    prior_inv = np.linalg.inv(prior_cov)
    return 0.5 * (
        logdet_prior - logdet_cov + np.trace(prior_inv @ cov) + mean @ prior_inv @ mean - n
    )


def test_kl_inducing_zero_at_prior():
    rng = np.random.default_rng(8)
    kuu_h = random_kuu(rng, 2)
    kuu_x = random_kuu(rng, 4)
    state = InducingState(
        z_input=[rng.uniform(size=(2, 1)), rng.uniform(size=(2, 1))],
        z_latent=rng.standard_normal((2, 2)),
        mean=np.zeros((4, 2)),
        cov_latent_chol=np.linalg.cholesky(kuu_h),
        cov_input_chol=np.linalg.cholesky(kuu_x),
    )
    assert abs(kl_inducing_closed_form(state, kuu_h, kuu_x)) < 1e-9


def test_kl_inducing_matches_dense_kl():
    for trial in range(20):
        rng = np.random.default_rng(200 + trial)
        state = random_inducing(rng)
        kuu_h = random_kuu(rng, state.m_h)
        kuu_x = random_kuu(rng, state.m_x)
        got = kl_inducing_closed_form(state, kuu_h, kuu_x)
        dense = dense_gaussian_kl(
            vec(state.mean),
            kron(state.cov_latent, state.cov_input),
            kron(kuu_h, kuu_x),
        )
        assert np.isclose(got, dense, rtol=1e-8, atol=1e-8)


def test_kl_inducing_mean_term_is_quadratic():
    rng = np.random.default_rng(9)
    state = random_inducing(rng)
    kuu_h = random_kuu(rng, state.m_h)
    kuu_x = random_kuu(rng, state.m_x)
    base = kl_inducing_closed_form(
        InducingState(
            z_input=state.z_input,
            z_latent=state.z_latent,
            mean=np.zeros_like(state.mean),
            cov_latent_chol=state.cov_latent_chol,
            cov_input_chol=state.cov_input_chol,
        ),
        kuu_h,
        kuu_x,
    )
    one = kl_inducing_closed_form(state, kuu_h, kuu_x)
    doubled = kl_inducing_closed_form(
        InducingState(
            z_input=state.z_input,
            z_latent=state.z_latent,
            mean=2.0 * state.mean,
            cov_latent_chol=state.cov_latent_chol,
            cov_input_chol=state.cov_input_chol,
        ),
        kuu_h,
        kuu_x,
    )
    # doubling the mean scales only the quadratic part by four
    assert np.isclose(doubled - base, 4.0 * (one - base), rtol=1e-9)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_kl_inducing_nonnegative(seed):
    rng = np.random.default_rng(seed)
    state = random_inducing(rng, mean_scale=rng.uniform(0.0, 2.0))
    assert kl_inducing_closed_form(state, random_kuu(rng, state.m_h), random_kuu(rng, state.m_x)) >= -1e-10
