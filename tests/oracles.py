"""Slow, direct reference formulas that the package's fast paths are held to."""

import numpy as np
from scipy.linalg import solve_triangular

from hiermogp.kernels import hier_block_cov, hier_cross_cov, latent_cov
from hiermogp.kron import cholesky_jitter
from hiermogp.prediction import PredictiveMoments


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
