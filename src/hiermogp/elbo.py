"""Evidence lower bound assembly, in efficient and reference forms.

``elbo_shared`` and ``elbo_per_output`` evaluate the production
Kronecker-factorised bound (one isotropic noise for a common input set, one
noise per output otherwise); both read their data into the one batched bound
of ``objective.build_graph``. ``elbo_naive_oracle`` rebuilds the same bound
with dense Kronecker products and no factorisation shortcuts, and
``exact_log_marginal_fixed_h`` evaluates the exact Gaussian log marginal for
fixed latent coordinates; both exist to pin the efficient path down in tests.
"""

from __future__ import annotations

import numpy as np

from . import kron, objective
from .kernels import hier_block_cov, latent_cov
from .latent import psi_stats_closed_form
from .model import ElboBreakdown, ModelState
from .params import ParamLayout


class SizeGuardError(ValueError):
    """The dense reference path refused an instance that is too large."""


def _layout_and_theta(state: ModelState):
    layout = ParamLayout(state)
    return layout, layout.pack(state)


def elbo_shared(state: ModelState, x, y) -> ElboBreakdown:
    """Bound for all outputs observed on one common replica-blocked input set."""
    if state.noise_variance.ndim != 0:
        raise ValueError("the shared-input bound uses a single scalar noise variance")
    layout, theta = _layout_and_theta(state)
    breakdown, _ = objective.evaluate(theta, layout, state, x, y, "shared")
    return breakdown


def elbo_per_output(state: ModelState, x, y) -> ElboBreakdown:
    """Bound for per-output input sets with per-output noise variances."""
    layout, theta = _layout_and_theta(state)
    breakdown, _ = objective.evaluate(theta, layout, state, x, y, "per_output")
    return breakdown


def _is_per_output(x) -> bool:
    return len(x) > 0 and not isinstance(x[0], np.ndarray)


def _jittered(matrix: np.ndarray, base_jitter: float = 1e-6) -> np.ndarray:
    jitter = kron.choose_jitter(matrix, base_jitter)
    if jitter > 0.0:
        matrix = matrix + jitter * np.eye(matrix.shape[0])
    return matrix


def elbo_naive_oracle(state: ModelState, x, y, sigma_u: np.ndarray | None = None) -> ElboBreakdown:
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
    psi = psi_stats_closed_form(state.latent_posterior, state.latent_kernel, ind.z_latent)
    kuu_h = _jittered(latent_cov(state.latent_kernel, ind.z_latent, ind.z_latent))
    kuu_x = _jittered(hier_block_cov(state.hier_kernel, ind.z_input, ind.z_input))
    kuu = kron.kron(kuu_h, kuu_x)
    factor = kron.CholeskyFactor(lower=np.linalg.cholesky(kuu))
    kuu_inv = kron.tri_solve(factor, np.eye(m_total))
    m_vec = kron.vec(ind.mean)
    if sigma_u is None:
        sigma_u = kron.kron(ind.cov_latent, ind.cov_input)
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
        psi_full = kron.kron(psi.psi1[d : d + 1], kfu_x)  # (n_d, m_total)
        phi_full = kron.kron(psi.psi2[d], kfu_x.T @ kfu_x)
        psi0_d = psi.psi0[d] * np.trace(hier_block_cov(state.hier_kernel, blocks, blocks))
        data_fit += (
            -0.5 * n_d * np.log(2.0 * np.pi * sig2)
            - 0.5 * float(y_d @ y_d) / sig2
            + float(y_d @ psi_full @ kuu_inv @ m_vec) / sig2
            - 0.5 * (psi0_d - float(np.trace(kuu_inv @ phi_full))) / sig2
            - 0.5 * float(np.trace(kuu_inv @ phi_full @ kuu_inv @ mm_plus_su)) / sig2
        )

    logdet_kuu = kron.logdet(factor)
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


def exact_log_marginal_fixed_h(state: ModelState, x, y, latents: np.ndarray | None = None) -> float:
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
        cov = kron.kron(kh, kx)
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


def optimal_inducing_dense(state: ModelState, x, y):
    """Closed-form maximiser of the bound over the inducing mean and covariance.

    The bound is quadratic in the inducing mean vector and concave in the
    (unrestricted, dense) inducing covariance; the optimum is
    ``S = K (K + Phi_w)^-1 K`` and ``m = K (K + Phi_w)^-1 b`` with the
    noise-weighted statistics ``Phi_w`` and ``b``. Returned dense, for use
    with the naive oracle and with single-output states.
    """
    ind = state.inducing
    psi = psi_stats_closed_form(state.latent_posterior, state.latent_kernel, ind.z_latent)
    kuu_h = _jittered(latent_cov(state.latent_kernel, ind.z_latent, ind.z_latent))
    kuu_x = _jittered(hier_block_cov(state.hier_kernel, ind.z_input, ind.z_input))
    kuu = kron.kron(kuu_h, kuu_x)
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
        psi_full = kron.kron(psi.psi1[d : d + 1], kfu_x)
        phi_full = kron.kron(psi.psi2[d], kfu_x.T @ kfu_x)
        phi_w += phi_full / noise[d]
        b_w += psi_full.T @ np.asarray(y_list[d], float).ravel() / noise[d]
    solve = np.linalg.solve(kuu + phi_w, np.column_stack([b_w[:, None], kuu]))
    mean = kuu @ solve[:, 0]
    cov = kuu @ solve[:, 1:]
    cov = 0.5 * (cov + cov.T)
    return mean, cov
