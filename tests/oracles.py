"""Slow, direct reference formulas that the package's fast paths are held to.

Dense Kronecker algebra, the closed forms of ``latent`` evaluated on constant
arrays, Monte Carlo psi statistics, the naive dense bound, the exact
marginal likelihood at fixed latent coordinates, the optimal dense inducing
posterior and the per-draw predictive moments. The package itself uses none
of them.
"""

import numpy as np
from scipy.linalg import solve_triangular

from hiermogp import autodiff as ad
from hiermogp import latent
from hiermogp.kernels import eval_stationary, hier_block_cov, hier_cross_cov, latent_cov
from hiermogp.kron import CholeskyFactor, choose_jitter, cholesky_jitter
from hiermogp.model import ElboBreakdown
from hiermogp.prediction import PredictiveMoments


class SizeGuardError(ValueError):
    """The dense reference path refused an instance that is too large."""


# -- dense Kronecker algebra; vectorisation is column-stacking throughout:
# vec(W)[j * rows + i] = W[i, j]


def kron(a, b):
    """Kronecker product; block (i, j) equals ``a[i, j] * b``."""
    return np.kron(np.asarray(a, float), np.asarray(b, float))


def vec(a):
    """Column-stacking vectorisation."""
    return np.asarray(a).ravel(order="F")


def unvec(x, rows, cols):
    """Inverse of :func:`vec`."""
    x = np.asarray(x)
    if x.size != rows * cols:
        raise ValueError(f"cannot reshape {x.size} entries into {rows}x{cols}")
    return x.reshape((rows, cols), order="F")


def kron_matvec(a, b, x):
    """Compute ``(a (x) b) @ x`` without forming the Kronecker product.

    Uses ``(a (x) b) vec(W) = vec(b @ W @ a.T)`` with the column-stacking
    convention of :func:`vec`, so the cost is two small matrix products.
    """
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    x = np.asarray(x, float)
    if x.ndim != 1 or x.size != a.shape[1] * b.shape[1]:
        raise ValueError(
            f"vector of length {x.size} does not match {a.shape[1]} * {b.shape[1]}"
        )
    w = unvec(x, b.shape[1], a.shape[1])
    return vec(b @ w @ a.T)


def trace_kron(a, b):
    """``Tr(a (x) b) = Tr(a) * Tr(b)``."""
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    if a.shape[0] != a.shape[1] or b.shape[0] != b.shape[1]:
        raise ValueError("trace_kron requires square factors")
    return float(np.trace(a) * np.trace(b))


def tri_solve(factor, rhs):
    """Solve ``(L L^T) x = rhs`` via two triangular solves."""
    rhs = np.asarray(rhs, float)
    if rhs.shape[0] != factor.n:
        raise ValueError(f"rhs has {rhs.shape[0]} rows, factor is {factor.n}x{factor.n}")
    half = solve_triangular(factor.lower, rhs, lower=True)
    return solve_triangular(factor.lower, half, lower=True, trans="T")


def logdet(factor):
    """Log determinant of the factored matrix."""
    return float(2.0 * np.sum(np.log(np.diag(factor.lower))))


def full_cov(k_outputs, k_inputs):
    """Joint covariance ``k_outputs (x) k_inputs``, outputs-major."""
    k_outputs = np.asarray(k_outputs, float)
    k_inputs = np.asarray(k_inputs, float)
    for name, m in (("output", k_outputs), ("input", k_inputs)):
        if m.shape[0] != m.shape[1]:
            raise ValueError(f"{name} covariance must be square")
        if not np.allclose(m, m.T, rtol=0.0, atol=1e-10 * (1.0 + np.abs(m).max(initial=0.0))):
            raise ValueError(f"{name} covariance must be symmetric")
    return kron(k_outputs, k_inputs)


# -- the package's closed forms on constant arrays


def tape_value(fn, *args):
    """Value of a tape function of ``latent`` with every array argument as a
    constant leaf; a tuple of nodes gives a tuple of arrays."""
    out = fn(*[ad.Node(a) if isinstance(a, np.ndarray) else a for a in args])
    if isinstance(out, tuple):
        return tuple(node.value for node in out)
    return out.value


def psi_closed_form(posterior, kernel, z_latent):
    """``latent.psi_stats`` (psi1, psi2) for a posterior and an RBF output kernel."""
    return tape_value(
        latent.psi_stats,
        kernel.variance,
        kernel.lengthscales,
        posterior.means,
        np.log(posterior.variances),
        np.atleast_2d(np.asarray(z_latent, float)),
    )


def kl_latent_closed_form(posterior):
    """``latent.kl_latent`` of a latent posterior."""
    return float(tape_value(latent.kl_latent, posterior.means, np.log(posterior.variances)))


def kl_inducing_closed_form(inducing, kuu_h, kuu_x):
    """``latent.kl_inducing`` of an inducing state against prior Grams."""
    factor_h = cholesky_jitter(np.asarray(kuu_h, float))
    factor_x = cholesky_jitter(np.asarray(kuu_x, float))
    return float(
        tape_value(
            latent.kl_inducing,
            inducing.mean,
            inducing.cov_latent,
            inducing.cov_input,
            float(2.0 * np.sum(np.log(np.diag(inducing.cov_latent_chol)))),
            float(2.0 * np.sum(np.log(np.diag(inducing.cov_input_chol)))),
            tri_solve(factor_h, np.eye(factor_h.n)),
            tri_solve(factor_x, np.eye(factor_x.n)),
            logdet(factor_h),
            logdet(factor_x),
        )
    )


def psi_stats_mc(posterior, kernel, z_latent, samples, seed):
    """Monte Carlo (psi1, psi2) for any output kernel family; unbiased and
    deterministic under the seed."""
    if samples < 1:
        raise ValueError("samples must be at least 1")
    z = np.atleast_2d(np.asarray(z_latent, float))
    rng = np.random.default_rng(seed)
    d, q = posterior.means.shape
    m = z.shape[0]
    psi1 = np.zeros((d, m))
    psi2 = np.zeros((d, m, m))
    std = np.sqrt(posterior.variances)
    for i in range(d):
        draws = posterior.means[i] + std[i] * rng.standard_normal((samples, q))
        rows = eval_stationary(kernel, draws, z)  # (samples, m)
        psi1[i] = rows.mean(axis=0)
        psi2[i] = rows.T @ rows / samples
    return psi1, psi2


# -- dense bound, exact marginal and optimal inducing posterior


def _is_per_output(x):
    return len(x) > 0 and not isinstance(x[0], np.ndarray)


def _jittered(matrix, base_jitter=1e-6):
    jitter = choose_jitter(matrix, base_jitter)
    if jitter > 0.0:
        matrix = matrix + jitter * np.eye(matrix.shape[0])
    return matrix


def elbo_naive_oracle(state, x, y, sigma_u=None):
    """Dense reference bound for tiny instances.

    Assembles the full inducing covariance, the full expected cross
    covariance and the full expected Gram product as explicit Kronecker
    products and evaluates the bound term by term. ``sigma_u`` optionally
    replaces the Kronecker-factorised inducing covariance with an arbitrary
    dense one (test-only escape hatch for optimality checks).
    """
    ind = state.inducing
    m_total = ind.m_h * ind.m_x
    if m_total > 200:
        raise SizeGuardError(f"naive oracle limited to m_h * m_x <= 200, got {m_total}")
    per_output = _is_per_output(x)
    psi1, psi2 = psi_closed_form(state.latent_posterior, state.latent_kernel, ind.z_latent)
    kuu_h = _jittered(latent_cov(state.latent_kernel, ind.z_latent, ind.z_latent))
    kuu_x = _jittered(hier_block_cov(state.hier_kernel, ind.z_input, ind.z_input))
    kuu = kron(kuu_h, kuu_x)
    factor = CholeskyFactor(lower=np.linalg.cholesky(kuu))
    kuu_inv = tri_solve(factor, np.eye(m_total))
    m_vec = vec(ind.mean)
    if sigma_u is None:
        sigma_u = kron(ind.cov_latent, ind.cov_input)
    else:
        sigma_u = np.asarray(sigma_u, float)
        if sigma_u.shape != (m_total, m_total):
            raise ValueError(f"sigma_u must be {m_total}x{m_total}")

    if per_output:
        x_list, y_list = x, y
        noise = [state.noise_for(d) for d in range(state.n_outputs)]
    else:
        n_points = sum(np.atleast_2d(b).shape[0] for b in x)
        x_list = [x] * state.n_outputs
        y = np.asarray(y, float).ravel()
        y_list = [y[d * n_points : (d + 1) * n_points] for d in range(state.n_outputs)]
        noise = [float(state.noise_variance)] * state.n_outputs
    total_points = sum(np.asarray(yd).size for yd in y_list)
    if total_points * state.n_outputs > 5000:
        raise SizeGuardError("naive oracle limited to tiny datasets")

    mm_plus_su = np.outer(m_vec, m_vec) + sigma_u
    data_fit = 0.0
    for d in range(state.n_outputs):
        blocks = [np.atleast_2d(np.asarray(b, float)) for b in x_list[d]]
        y_d = np.asarray(y_list[d], float).ravel()
        n_d = y_d.size
        sig2 = noise[d]
        kfu_x = hier_block_cov(state.hier_kernel, blocks, ind.z_input)
        psi_full = kron(psi1[d : d + 1], kfu_x)  # (n_d, m_total)
        phi_full = kron(psi2[d], kfu_x.T @ kfu_x)
        psi0_d = state.latent_kernel.variance * np.trace(hier_block_cov(state.hier_kernel, blocks, blocks))
        data_fit += (
            -0.5 * n_d * np.log(2.0 * np.pi * sig2)
            - 0.5 * float(y_d @ y_d) / sig2
            + float(y_d @ psi_full @ kuu_inv @ m_vec) / sig2
            - 0.5 * (psi0_d - float(np.trace(kuu_inv @ phi_full))) / sig2
            - 0.5 * float(np.trace(kuu_inv @ phi_full @ kuu_inv @ mm_plus_su)) / sig2
        )

    logdet_kuu = logdet(factor)
    logdet_su = float(2.0 * np.sum(np.log(np.diag(np.linalg.cholesky(sigma_u)))))
    kl_inducing = 0.5 * (
        logdet_kuu
        - logdet_su
        + float(np.trace(kuu_inv @ sigma_u))
        + float(m_vec @ kuu_inv @ m_vec)
        - m_total
    )
    s = state.latent_posterior.variances
    mu = state.latent_posterior.means
    kl_latent = float(0.5 * np.sum(s + mu**2 - 1.0 - np.log(s)))
    return ElboBreakdown(data_fit=data_fit, kl_inducing=kl_inducing, kl_latent=kl_latent)


def exact_log_marginal_fixed_h(state, x, y, latents=None):
    """Exact Gaussian log marginal likelihood with latent coordinates held fixed.

    Dense evaluation of ``log N(y | 0, K_h (x) K_x + noise)``; for per-output
    inputs, the cross-output blocks are scaled by the latent kernel entry.
    """
    h = state.latent_posterior.means if latents is None else np.atleast_2d(np.asarray(latents, float))
    kh = latent_cov(state.latent_kernel, h, h)
    if _is_per_output(x):
        x_list = [[np.atleast_2d(np.asarray(b, float)) for b in blocks] for blocks in x]
        y_full = np.concatenate([np.asarray(yd, float).ravel() for yd in y])
        sizes = [sum(b.shape[0] for b in blocks) for blocks in x_list]
        offsets = np.concatenate([[0], np.cumsum(sizes)])
        cov = np.zeros((offsets[-1], offsets[-1]))
        for a in range(state.n_outputs):
            for b in range(a, state.n_outputs):
                block = kh[a, b] * hier_block_cov(state.hier_kernel, x_list[a], x_list[b])
                cov[offsets[a] : offsets[a + 1], offsets[b] : offsets[b + 1]] = block
                if b != a:
                    cov[offsets[b] : offsets[b + 1], offsets[a] : offsets[a + 1]] = block.T
        noise_diag = np.concatenate(
            [np.full(sizes[d], state.noise_for(d)) for d in range(state.n_outputs)]
        )
    else:
        blocks = [np.atleast_2d(np.asarray(b, float)) for b in x]
        kx = hier_block_cov(state.hier_kernel, blocks, blocks)
        cov = kron(kh, kx)
        y_full = np.asarray(y, float).ravel()
        n_points = kx.shape[0]
        if state.noise_variance.ndim == 0:
            noise_diag = np.full(cov.shape[0], float(state.noise_variance))
        else:
            noise_diag = np.repeat(state.noise_variance, n_points)
    if y_full.size != cov.shape[0]:
        raise ValueError(f"target vector has {y_full.size} entries, covariance is {cov.shape[0]}")
    cov[np.diag_indices_from(cov)] += noise_diag
    lower = np.linalg.cholesky(cov)
    alpha = np.linalg.solve(lower, y_full)
    return float(
        -0.5 * y_full.size * np.log(2.0 * np.pi)
        - np.sum(np.log(np.diag(lower)))
        - 0.5 * float(alpha @ alpha)
    )


def optimal_inducing_dense(state, x, y):
    """Closed-form maximiser of the bound over the inducing mean and covariance.

    The bound is quadratic in the inducing mean vector and concave in the
    (unrestricted, dense) inducing covariance; the optimum is
    ``S = K (K + Phi_w)^-1 K`` and ``m = K (K + Phi_w)^-1 b`` with the
    noise-weighted statistics ``Phi_w`` and ``b``. Returned dense, for use
    with the naive oracle and with single-output states.
    """
    ind = state.inducing
    psi1, psi2 = psi_closed_form(state.latent_posterior, state.latent_kernel, ind.z_latent)
    kuu_h = _jittered(latent_cov(state.latent_kernel, ind.z_latent, ind.z_latent))
    kuu_x = _jittered(hier_block_cov(state.hier_kernel, ind.z_input, ind.z_input))
    kuu = kron(kuu_h, kuu_x)
    m_total = kuu.shape[0]
    per_output = _is_per_output(x)
    if per_output:
        x_list, y_list = x, y
        noise = [state.noise_for(d) for d in range(state.n_outputs)]
    else:
        n_points = sum(np.atleast_2d(b).shape[0] for b in x)
        y = np.asarray(y, float).ravel()
        x_list = [x] * state.n_outputs
        y_list = [y[d * n_points : (d + 1) * n_points] for d in range(state.n_outputs)]
        noise = [float(state.noise_variance)] * state.n_outputs
    phi_w = np.zeros((m_total, m_total))
    b_w = np.zeros(m_total)
    for d in range(state.n_outputs):
        blocks = [np.atleast_2d(np.asarray(b, float)) for b in x_list[d]]
        kfu_x = hier_block_cov(state.hier_kernel, blocks, ind.z_input)
        psi_full = kron(psi1[d : d + 1], kfu_x)
        phi_full = kron(psi2[d], kfu_x.T @ kfu_x)
        phi_w += phi_full / noise[d]
        b_w += psi_full.T @ np.asarray(y_list[d], float).ravel() / noise[d]
    solve = np.linalg.solve(kuu + phi_w, np.column_stack([b_w[:, None], kuu]))
    mean = kuu @ solve[:, 0]
    cov = kuu @ solve[:, 1:]
    cov = 0.5 * (cov + cov.T)
    return mean, cov


# -- prediction


def mean_base(state, xstar, replica_tags):
    """``cross Kx^-1 M Kh^-1``: the conditional mean is this times a latent kernel row."""
    ind = state.inducing
    factor_x = cholesky_jitter(hier_block_cov(state.hier_kernel, ind.z_input, ind.z_input))
    factor_h = cholesky_jitter(latent_cov(state.latent_kernel, ind.z_latent, ind.z_latent))
    kh_inv = solve_triangular(
        factor_h.lower, solve_triangular(factor_h.lower, np.eye(ind.m_h), lower=True), lower=True, trans="T"
    )
    w = solve_triangular(
        factor_x.lower, solve_triangular(factor_x.lower, ind.mean, lower=True), lower=True, trans="T"
    ) @ kh_inv
    return hier_cross_cov(state.hier_kernel, xstar, replica_tags, ind.z_input) @ w


def predict_marginal_per_draw(
    state, xstar, replica_tags, output, mc_samples=2000, seed=0, include_noise=True
):
    """Mixture moments from the conditional moments of every latent draw.

    Builds the (n, mc_samples) conditional means and variances and reduces
    them: mean of the means, mean of the variances plus variance of the means.
    Uses the same draws as ``prediction.predict_marginal``.
    """
    xstar = np.atleast_2d(np.asarray(xstar, float))
    ind = state.inducing
    factor_x = cholesky_jitter(hier_block_cov(state.hier_kernel, ind.z_input, ind.z_input))
    factor_h = cholesky_jitter(latent_cov(state.latent_kernel, ind.z_latent, ind.z_latent))
    cross = hier_cross_cov(state.hier_kernel, xstar, replica_tags, ind.z_input)
    half = solve_triangular(factor_x.lower, cross.T, lower=True)
    b = solve_triangular(factor_x.lower, half, lower=True, trans="T").T  # cross Kx^-1
    nystrom_x = np.sum(b * cross, axis=1)
    smoothed_x = np.sum((b @ ind.cov_input) * b, axis=1)

    rng = np.random.default_rng(seed)
    mu = state.latent_posterior.means[output]
    std = np.sqrt(state.latent_posterior.variances[output])
    draws = mu + std * rng.standard_normal((mc_samples, mu.shape[0]))
    rows = latent_cov(state.latent_kernel, draws, ind.z_latent)  # (s, m_h)
    half_h = solve_triangular(factor_h.lower, rows.T, lower=True)
    rows_inv = solve_triangular(factor_h.lower, half_h, lower=True, trans="T").T  # rows Kh^-1
    nystrom_h = np.sum(rows_inv * rows, axis=1)
    smoothed_h = np.sum((rows_inv @ ind.cov_latent) * rows_inv, axis=1)

    means = mean_base(state, xstar, replica_tags) @ rows.T  # (n, s)
    cond_var = (
        state.latent_kernel.variance * state.hier_kernel.diag_value
        - nystrom_x[:, None] * nystrom_h[None, :]
        + smoothed_x[:, None] * smoothed_h[None, :]
    )
    variance = np.maximum(cond_var.mean(axis=1) + means.var(axis=1), 0.0)
    if include_noise:
        variance = variance + state.noise_for(output)
    return PredictiveMoments(mean=means.mean(axis=1), variance=variance)


def predict_marginal_mean_closed_form(state, xstar, replica_tags, output):
    """Mixture mean through the expected latent kernel row psi1 (RBF only)."""
    psi1, _ = psi_closed_form(state.latent_posterior, state.latent_kernel, state.inducing.z_latent)
    return mean_base(state, np.atleast_2d(np.asarray(xstar, float)), replica_tags) @ psi1[output]
