"""Variational distributions over latent coordinates and inducing values,
and the closed forms of the bound that depend only on them.

The posterior over latent output coordinates factorises into independent
diagonal Gaussians, one per output. The posterior over inducing values is a
Gaussian whose covariance is the Kronecker product of an output-side and an
input-side factor, which shrinks the variational parameter count from
(m_h * m_x)^2 to m_h^2 + m_x^2.

The three closed forms the bound needs are written once here, as ``autodiff``
graph nodes: the psi statistics of the ARD RBF output kernel under the latent
posterior (Titsias & Lawrence, Bayesian GPLVM), the Kronecker-factorised
inducing KL and the latent KL. ``objective.build_graph`` assembles the bound
from them; the tests evaluate them on constant arrays.
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
    """Closed-form psi1 (d, m) and psi2 (d, m, m) of an ARD RBF output kernel.

    For each output with posterior N(mu, diag(exp(log_s))) and inducing
    coordinates z, psi1[m] integrates k(h, z_m) against the Gaussian, which
    lengthens each squared lengthscale by the variance; psi2[m, m'] integrates
    k(h, z_m) k(h, z_m') and factorises into a fixed term in z_m - z_m' and a
    Gaussian in their midpoint. psi0 is the kernel variance (stationarity).
    """
    d, q = mu.shape
    m = zh.shape[0]
    s = ad.exp(log_s)
    l2 = lengthscales * lengthscales
    ratio = s / l2  # (d, q)
    log_norm1 = 0.5 * ad.sum(ad.log(1.0 + ratio), axis=1)  # (d,)
    dmu = ad.reshape(mu, (d, 1, q)) - ad.reshape(zh, (1, m, q))
    expo1 = ad.sum(dmu * dmu / ad.reshape(l2 + s, (d, 1, q)), axis=2)
    psi1 = variance * ad.exp(-0.5 * expo1 - ad.reshape(log_norm1, (d, 1)))

    zd = ad.reshape(zh, (m, 1, q)) - ad.reshape(zh, (1, m, q))
    fixed = ad.sum(zd * zd / (4.0 * l2), axis=2)  # (m, m)
    zbar = 0.5 * (ad.reshape(zh, (m, 1, q)) + ad.reshape(zh, (1, m, q)))
    dmb = ad.reshape(mu, (d, 1, 1, q)) - ad.reshape(zbar, (1, m, m, q))
    expo2 = ad.sum(dmb * dmb / ad.reshape(l2 + 2.0 * s, (d, 1, 1, q)), axis=3)
    log_norm2 = 0.5 * ad.sum(ad.log(1.0 + 2.0 * ratio), axis=1)
    psi2 = (variance * variance) * ad.exp(
        -ad.reshape(fixed, (1, m, m)) - expo2 - ad.reshape(log_norm2, (d, 1, 1))
    )
    return psi1, psi2


def kl_inducing(mean, cov_h, cov_x, logdet_cov_h, logdet_cov_x, inv_kh, inv_kx, logdet_kh, logdet_kx):
    """KL divergence of N(vec M, S_h (x) S_x) from its prior N(0, K_h (x) K_x).

    Both Gaussians factor over the output (h) and input (x) sides, so the
    divergence reduces to per-factor log determinants and traces plus one
    quadratic form in the (m_x, m_h) mean; nothing of size (m_h * m_x)^2 is
    built. Takes the posterior factors S with their log determinants and the
    inverse prior Grams K^-1 with the log determinants of K.
    """
    m_x, m_h = mean.shape
    quad_mean = ad.trace(ad.transpose(mean) @ (inv_kx @ mean) @ inv_kh)
    return 0.5 * (
        m_x * (logdet_kh - logdet_cov_h)
        + m_h * (logdet_kx - logdet_cov_x)
        + quad_mean
        + ad.trace(inv_kh @ cov_h) * ad.trace(inv_kx @ cov_x)
        - float(m_h * m_x)
    )


def kl_latent(mu, log_s):
    """KL divergence of the diagonal latent posterior from its standard normal prior."""
    s = ad.exp(log_s)
    return 0.5 * ad.sum(s + mu * mu - 1.0 - log_s)
