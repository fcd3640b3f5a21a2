"""Variational distributions over latent coordinates and inducing values,
and the closed forms of the bound that depend only on them.

The posterior over latent output coordinates factorises into independent
diagonal Gaussians, one per output. The posterior over inducing values is a
Gaussian whose covariance is the Kronecker product of an output-side and an
input-side factor, which shrinks the variational parameter count from
(m_h * m_x)^2 to m_h^2 + m_x^2.

The three closed forms the bound needs are written once here, each as a fused
``autodiff`` node with a hand-written backward pass (``autodiff.fused``): the
psi statistics of the ARD RBF output kernel under the latent posterior
(Titsias & Lawrence, Bayesian GPLVM), the Kronecker-factorised inducing KL
and the latent KL. Gradients flow into whichever arguments are ``Node``s.
``objective.build_graph`` assembles the bound from them; the tests evaluate
them on constant arrays and check every backward pass against finite
differences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .kernels import validate_replica_blocks


@dataclass
class LatentPosterior:
    """Diagonal Gaussian per output over latent coordinates."""

    means: np.ndarray  # (n_outputs, latent_dim)
    variances: np.ndarray  # (n_outputs, latent_dim), strictly positive

    def __post_init__(self):
        self.means = np.atleast_2d(np.asarray(self.means, float))
        self.variances = np.atleast_2d(np.asarray(self.variances, float))
        if self.means.shape != self.variances.shape:
            raise ValueError("means and variances must share a shape")
        if np.any(self.variances <= 0.0):
            raise ValueError("latent variances must be strictly positive")

    @property
    def n_outputs(self) -> int:
        return self.means.shape[0]

    @property
    def latent_dim(self) -> int:
        return self.means.shape[1]


@dataclass
class InducingState:
    """Inducing locations and the Kronecker-factorised Gaussian over their values.

    ``mean`` is an (m_x, m_h) matrix; its column-stacking vectorisation is the
    mean of the inducing-value vector. The covariance is
    ``(cov_latent_chol @ cov_latent_chol.T) (x) (cov_input_chol @ cov_input_chol.T)``.
    """

    z_input: list  # R blocks of (m_r, v) inducing inputs
    z_latent: np.ndarray  # (m_h, latent_dim)
    mean: np.ndarray  # (m_x, m_h)
    cov_latent_chol: np.ndarray  # (m_h, m_h) lower triangular
    cov_input_chol: np.ndarray  # (m_x, m_x) lower triangular

    def __post_init__(self):
        self.z_input = [np.atleast_2d(np.asarray(b, float)) for b in self.z_input]
        validate_replica_blocks(self.z_input)
        self.z_latent = np.atleast_2d(np.asarray(self.z_latent, float))
        self.mean = np.asarray(self.mean, float)
        self.cov_latent_chol = np.asarray(self.cov_latent_chol, float)
        self.cov_input_chol = np.asarray(self.cov_input_chol, float)
        if self.mean.shape != (self.m_x, self.m_h):
            raise ValueError(f"mean must be {self.m_x}x{self.m_h}, got {self.mean.shape}")
        for name, chol, n in (
            ("cov_latent_chol", self.cov_latent_chol, self.m_h),
            ("cov_input_chol", self.cov_input_chol, self.m_x),
        ):
            if chol.shape != (n, n):
                raise ValueError(f"{name} must be {n}x{n}")
            if np.any(np.diag(chol) <= 0.0):
                raise ValueError(f"{name} needs a strictly positive diagonal")

    @property
    def n_replicas(self) -> int:
        return len(self.z_input)

    @property
    def m_x(self) -> int:
        return sum(b.shape[0] for b in self.z_input)

    @property
    def m_h(self) -> int:
        return self.z_latent.shape[0]

    @property
    def cov_latent(self) -> np.ndarray:
        return self.cov_latent_chol @ self.cov_latent_chol.T

    @property
    def cov_input(self) -> np.ndarray:
        return self.cov_input_chol @ self.cov_input_chol.T


def psi_stats(variance, lengthscales, mu, log_s, zh):
    """Closed-form psi1 (d, m) and psi2 (d, m, m) of an ARD RBF output kernel,
    as two nodes of one closed form.

    For each output with posterior N(mu, diag(exp(log_s))) and inducing
    coordinates z, psi1[m] integrates k(h, z_m) against the Gaussian, which
    lengthens each squared lengthscale by the variance; psi2[m, m'] integrates
    k(h, z_m) k(h, z_m') and factorises into a fixed term in z_m - z_m' and a
    Gaussian in their midpoint. psi0 is the kernel variance (stationarity).
    One backward pass serves both statistics: with ``a1 = l^2 + s`` and
    ``a2 = l^2 + 2 s``, each exponent is a sum over latent dimensions of
    squared distances over ``a1`` or ``a2``, half log-ratios ``a/l^2`` and,
    for psi2, ``(z_m - z_m')^2 / 4 l^2``, whose derivatives are written out
    below.
    """
    args = (variance, lengthscales, mu, log_s, zh)
    v, ls, mu, log_s, zh = ad.values(args)
    s = np.exp(log_s)
    l2 = ls * ls
    ratio = s / l2
    a1 = l2 + s  # (d, q)
    log_norm1 = 0.5 * np.log(1.0 + ratio).sum(axis=1)  # (d,)
    dmu = mu[:, None, :] - zh[None, :, :]  # (d, m, q)
    expo1 = (dmu * dmu / a1[:, None, :]).sum(axis=2)
    unit1 = np.exp(-0.5 * expo1 - log_norm1[:, None])

    zd = zh[:, None, :] - zh[None, :, :]  # (m, m, q)
    fixed = (zd * zd / (4.0 * l2)).sum(axis=2)
    zbar = 0.5 * (zh[:, None, :] + zh[None, :, :])
    dmb = mu[:, None, None, :] - zbar[None]  # (d, m, m, q)
    a2 = l2 + 2.0 * s
    expo2 = (dmb * dmb / a2[:, None, None, :]).sum(axis=3)
    log_norm2 = 0.5 * np.log(1.0 + 2.0 * ratio).sum(axis=1)
    unit2 = np.exp(-fixed[None] - expo2 - log_norm2[:, None, None])
    psi1 = v * unit1
    psi2 = (v * v) * unit2

    def backward(g1, g2):
        w1 = g1 * psi1  # cotangents of the exponents
        w2 = g2 * psi2
        r1 = dmu / a1[:, None, :]
        wr1 = w1[:, :, None] * r1
        r2 = dmb / a2[:, None, None, :]
        wr2 = w2[..., None] * r2
        w1_sum = w1.sum(axis=1)[:, None]  # (d, 1)
        w2_sum = w2.sum(axis=(1, 2))[:, None]
        # the exponents through a1 and a2, each entering as l^2 and as s
        t1 = 0.5 * ((wr1 * r1).sum(axis=1) - w1_sum / a1)
        t2 = (wr2 * r2).sum(axis=(1, 2)) - 0.5 * w2_sum / a2
        w2_pairs = w2.sum(axis=0)  # (m, m), symmetrised below
        w2_pairs = w2_pairs + w2_pairs.T
        grad_l2 = (
            (t1 + t2).sum(axis=0)
            + 0.5 * (w1_sum + w2_sum).sum() / l2  # the -log l^2 of both log-ratios
            + (w2_pairs[:, :, None] * zd * zd).sum(axis=(0, 1)) / (8.0 * l2 * l2)
        )
        grad_s = t1 + 2.0 * t2
        grad_mu = -wr1.sum(axis=1) - 2.0 * wr2.sum(axis=(1, 2))
        pairs = wr2.sum(axis=0)  # (m, m, q); z_m is in the midpoint of its row and its column
        grad_zh = (
            wr1.sum(axis=0)
            + pairs.sum(axis=1)
            + pairs.sum(axis=0)
            - (w2_pairs[:, :, None] * zd).sum(axis=1) / (2.0 * l2)
        )
        grad_v = np.vdot(g1, unit1) + 2.0 * v * np.vdot(g2, unit2)
        return grad_v, 2.0 * ls * grad_l2, grad_mu, s * grad_s, grad_zh

    return ad.fused((psi1, psi2), args, backward)


def kl_inducing(mean, cov_h, cov_x, logdet_cov_h, logdet_cov_x, inv_kh, inv_kx, logdet_kh, logdet_kx):
    """KL divergence of N(vec M, S_h (x) S_x) from its prior N(0, K_h (x) K_x),
    as one node.

    Both Gaussians factor over the output (h) and input (x) sides, so the
    divergence reduces to per-factor log determinants and traces plus one
    quadratic form in the (m_x, m_h) mean; nothing of size (m_h * m_x)^2 is
    built. Takes the posterior factors S with their log determinants and the
    inverse prior Grams A = K^-1 with the log determinants of K.
    """
    args = (mean, cov_h, cov_x, logdet_cov_h, logdet_cov_x, inv_kh, inv_kx, logdet_kh, logdet_kx)
    m, s_h, s_x, logdet_sh, logdet_sx, a_h, a_x, logdet_kh, logdet_kx = ad.values(args)
    m_x, m_h = m.shape
    ax_m = a_x @ m
    quad_mean = (m.T @ ax_m @ a_h).trace()
    tr_h = (a_h @ s_h).trace()
    tr_x = (a_x @ s_x).trace()
    value = 0.5 * (
        m_x * (logdet_kh - logdet_sh)
        + m_h * (logdet_kx - logdet_sx)
        + quad_mean
        + tr_h * tr_x
        - float(m_h * m_x)
    )

    def backward(g):
        h = 0.5 * g
        return (
            h * (ax_m @ a_h + a_x.T @ m @ a_h.T),
            (h * tr_x) * a_h.T,
            (h * tr_h) * a_x.T,
            -h * m_x,
            -h * m_h,
            h * ((m.T @ ax_m).T + tr_x * s_h.T),
            h * (m @ a_h.T @ m.T + tr_h * s_x.T),
            h * m_x,
            h * m_h,
        )

    return ad.fused(value, args, backward)


def kl_latent(mu, log_s):
    """KL divergence of the diagonal latent posterior from its standard normal
    prior, as one node."""
    args = (mu, log_s)
    mu, log_s = ad.values(args)
    s = np.exp(log_s)
    value = 0.5 * (s + mu * mu - 1.0 - log_s).sum()
    return ad.fused(value, args, lambda g: (g * mu, 0.5 * g * (s - 1.0)))
