"""Predictive distributions, including for entirely missing replicas.

Conditioned on fixed latent coordinates, the predictive moments are exact
Gaussian algebra through the inducing posterior. Marginalising the latent
posterior is intractable, so the mixture moments are estimated by seeded
Monte Carlo over the latent coordinate of the requested output. The tests
hold the estimate to a per-draw oracle and its mean to the closed form
through the expected latent kernel row psi1 (``tests/oracles.py``).

A fitted state's inducing Grams are factored once, on its first prediction,
and an output's latent draws are reduced once per (output, draws, seed) to
four sample statistics. A block then costs its cross covariance against the
inducing inputs plus O(n m_x^2) algebra. The cache is keyed on the state's
identity, so a ``ModelState`` must not be changed in place once it has been
predicted from.
"""

from __future__ import annotations

import logging
import weakref
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_solve, solve_triangular

from .kernels import hier_block_cov, hier_cross_cov, latent_cov
from .kron import cholesky_jitter
from .model import ModelState

log = logging.getLogger(__name__)

_NEGATIVE_VARIANCE_TOL = -1e-10


@dataclass(frozen=True)
class PredictiveMoments:
    mean: np.ndarray
    variance: np.ndarray


@dataclass(frozen=True)
class _LatentMoments:
    """Sample statistics of an output's latent kernel rows ``k_s`` over its draws."""

    row_mean: np.ndarray  # (m_h,) mean of the k_s
    row_cov: np.ndarray  # (m_h, m_h) covariance of the k_s, ddof=0
    nystrom: float  # mean of k_s Kh^-1 k_s
    smoothed: float  # mean of k_s Kh^-1 S_h Kh^-1 k_s


@dataclass
class _Posterior:
    """What prediction needs from one fitted state, factored once; holds no
    reference to the state, which keys it weakly. With ``S = C C^T``,
    ``smooth = (L^-1 C)^T`` maps ``L^-1 k`` to a root of ``k K^-1 S K^-1 k``."""

    chol_x: np.ndarray  # Cholesky factors L of Kuu_x and Kuu_h
    chol_h: np.ndarray
    smooth_x: np.ndarray
    smooth_h: np.ndarray
    w: np.ndarray  # (m_x, m_h): Kx^-1 M Kh^-1
    outputs: dict = field(default_factory=dict)  # (output, mc_samples, seed) -> _LatentMoments


_POSTERIORS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _posterior(state: ModelState) -> _Posterior:
    post = _POSTERIORS.get(state)
    if post is None:
        ind = state.inducing
        chol_x = cholesky_jitter(hier_block_cov(state.hier_kernel, ind.z_input, ind.z_input)).lower
        chol_h = cholesky_jitter(latent_cov(state.latent_kernel, ind.z_latent, ind.z_latent)).lower
        post = _POSTERIORS[state] = _Posterior(
            chol_x=chol_x,
            chol_h=chol_h,
            smooth_x=solve_triangular(chol_x, ind.cov_input_chol, lower=True).T,
            smooth_h=solve_triangular(chol_h, ind.cov_latent_chol, lower=True).T,
            w=cho_solve((chol_h, True), cho_solve((chol_x, True), ind.mean).T).T,
        )
    return post


def _latent_moments(post: _Posterior, state: ModelState, latents: np.ndarray) -> _LatentMoments:
    rows = latent_cov(state.latent_kernel, latents, state.inducing.z_latent)  # (s, m_h)
    half = solve_triangular(post.chol_h, rows.T, lower=True)
    smooth = post.smooth_h @ half
    row_mean = rows.mean(axis=0)
    centred = rows - row_mean
    return _LatentMoments(
        row_mean=row_mean,
        row_cov=centred.T @ centred / rows.shape[0],
        nystrom=float(np.mean(np.sum(half * half, axis=0))),
        smoothed=float(np.mean(np.sum(smooth * smooth, axis=0))),
    )


def _output_moments(post: _Posterior, state: ModelState, output: int, mc_samples: int, seed):
    """Latent moments of ``mc_samples`` seeded draws of the output's coordinate,
    kept for reuse unless the seed is not an int (unseeded or a generator)."""
    key = (int(output), int(mc_samples), int(seed)) if isinstance(seed, (int, np.integer)) else None
    if key is None or key not in post.outputs:
        rng = np.random.default_rng(seed)
        mu = state.latent_posterior.means[output]
        std = np.sqrt(state.latent_posterior.variances[output])
        moments = _latent_moments(post, state, mu + std * rng.standard_normal((mc_samples, mu.shape[0])))
        if key is None:
            return moments
        post.outputs[key] = moments
    return post.outputs[key]


def _input_terms(post: _Posterior, state: ModelState, xstar: np.ndarray, replica_tags):
    """Per-block operators: ``cross Kx^-1 M Kh^-1``, ``Lx^-1 cross^T`` and its smoothing root."""
    cross = hier_cross_cov(state.hier_kernel, xstar, replica_tags, state.inducing.z_input)
    half = solve_triangular(post.chol_x, cross.T, lower=True)
    return cross @ post.w, half, post.smooth_x @ half


def _block_moments(post, state, xstar, replica_tags, moments: _LatentMoments):
    """Mixture mean and variance: mean conditional variance plus variance of conditional means."""
    base, half, smooth = _input_terms(post, state, xstar, replica_tags)
    variance = (
        state.latent_kernel.variance * state.hier_kernel.diag_value
        - moments.nystrom * np.sum(half * half, axis=0)
        + moments.smoothed * np.sum(smooth * smooth, axis=0)
        + np.sum((base @ moments.row_cov) * base, axis=1)
    )
    return base @ moments.row_mean, _clip_variance(variance)


def _clip_variance(variance: np.ndarray) -> np.ndarray:
    low = variance.min(initial=0.0)
    if low < 0.0:
        if low < _NEGATIVE_VARIANCE_TOL:
            log.warning("predictive variance dipped to %g; clipping at zero", low)
        variance = np.maximum(variance, 0.0)
    return variance


def predict_conditional(
    state: ModelState,
    xstar: np.ndarray,
    replica_tags,
    latent_point: np.ndarray,
    output: int | None = None,
    include_noise: bool = False,
    full_cov: bool = False,
):
    """Exact predictive moments for one output at a fixed latent coordinate.

    ``xstar`` rows carry replica tags that route the replica-level kernel;
    ``output`` selects the noise variance when it is per output. With
    ``full_cov`` the full covariance matrix is returned in place of the
    marginal variances.
    """
    xstar = np.atleast_2d(np.asarray(xstar, float))
    latent_point = np.asarray(latent_point, float).reshape(1, -1)
    post = _posterior(state)
    moments = _latent_moments(post, state, latent_point)
    noise = state.noise_for(output if output is not None else 0) if include_noise else 0.0
    if not full_cov:
        mean, variance = _block_moments(post, state, xstar, replica_tags, moments)
        return PredictiveMoments(mean=mean, variance=variance + noise)
    base, half, smooth = _input_terms(post, state, xstar, replica_tags)
    # prior covariance of the tagged points; the columns come grouped by
    # replica, and column rank[i] is point i
    tags = np.asarray(replica_tags, int)
    blocks = [xstar[tags == r] for r in range(state.n_replicas)]
    rank = np.argsort(np.argsort(tags, kind="stable"))
    kxx = hier_cross_cov(state.hier_kernel, xstar, tags, blocks)[:, rank]
    cov = (
        state.latent_kernel.variance * kxx
        - moments.nystrom * (half.T @ half)
        + moments.smoothed * (smooth.T @ smooth)
    )
    return PredictiveMoments(mean=base @ moments.row_mean, variance=cov + noise * np.eye(cov.shape[0]))


def predict_marginal(
    state: ModelState,
    xstar: np.ndarray,
    replica_tags,
    output: int,
    mc_samples: int = 2000,
    seed: int = 0,
    include_noise: bool = True,
) -> PredictiveMoments:
    """Moments of the latent-posterior mixture for one output.

    The mean averages the conditional mean over draws of the output's latent
    coordinate; the variance adds the spread of the conditional means to the
    average conditional variance.
    """
    if not 0 <= output < state.n_outputs:
        raise ValueError(f"output {output} outside 0..{state.n_outputs - 1}")
    if mc_samples < 1:
        raise ValueError(f"mc_samples must be at least 1, got {mc_samples}")
    xstar = np.atleast_2d(np.asarray(xstar, float))
    post = _posterior(state)
    moments = _output_moments(post, state, output, mc_samples, seed)
    mean, variance = _block_moments(post, state, xstar, replica_tags, moments)
    if include_noise:
        variance = variance + state.noise_for(output)
    return PredictiveMoments(mean=mean, variance=variance)


def predict_missing_replica(
    state: ModelState,
    output: int,
    replica: int,
    grid: np.ndarray,
    mc_samples: int = 2000,
    seed: int = 0,
    include_noise: bool = True,
) -> PredictiveMoments:
    """Predict an output over a replica it was never observed in.

    Information reaches the block through the shared-level kernel and the
    inducing variables, which pool every output's view of that replica.
    """
    grid = np.atleast_2d(np.asarray(grid, float))
    if not 0 <= replica < state.n_replicas:
        raise ValueError(f"replica {replica} outside 0..{state.n_replicas - 1}")
    tags = np.full(grid.shape[0], replica, dtype=int)
    return predict_marginal(state, grid, tags, output, mc_samples, seed, include_noise)
