"""Predictive distributions, including for entirely missing replicas.

Conditioned on fixed latent coordinates, the predictive moments are exact
Gaussian algebra through the inducing posterior. Marginalising an output's
diagonal Gaussian latent posterior is exact too: the conditional mean and
variance are linear in the latent kernel row ``k_s = k(h, Z_h)`` and in
``k_s k_s^T``, so the mixture's mean and variance need only their
expectations, the psi statistics psi1 and psi2 of the RBF latent kernel
(Titsias & Lawrence 2010; LVMOGP, Dai, Alvarez & Lawrence 2017), which the
bound computes with ``latent.psi_stats``. The tests hold these moments to
Gauss-Hermite quadrature, to per-draw Monte Carlo and to the mean through
psi1 (``tests/oracles.py``).

A fitted state's inducing Grams are factored and their Cholesky factors
inverted once, on its first prediction, in the same pass as every output's
latent moments; the inducing inputs are stacked once there too, with each
replica's column range, the layout ``hier_cross_cov`` takes. A block then
costs its cross covariance against that layout (the shared level over every
column, the replica level on the block's tag's column range) plus GEMMs with
the cached inverses, O(n m_x^2) in all.

Most of that work does not depend on the output: the product
``base = cross Kx^-1 M Kh^-1`` and, per point, the sums of squares of
``half = Lx^-1 cross^T`` and of its smoothing root. These are memoised per
fitted state, keyed on the exact shape and bytes of the points (as float)
and of their tags (as int), for at most ``_MEMO_POINT_SETS`` point sets, the
oldest evicted first. Only points and tags that passed ``hier_cross_cov``'s
checks are stored, and no stored array is returned or written to.
When outputs share their inputs (a common time grid, every output over an
unseen replica, ``predict --grid``), each distinct point set is computed
once, and every other output costs only its own terms:
``prior - nystrom_d sum(half^2) + smoothed_d sum(smooth^2) + diag(base C_d
base^T)`` and the mean ``base psi1_d``, summed in the same order on a hit as
on a miss, so the two agree bit for bit.

The cache, memo included, is keyed on the state's identity, so a
``ModelState`` must not be changed in place once it has been predicted from.
"""

from __future__ import annotations

import logging
import weakref
from dataclasses import dataclass, field

import numpy as np

from .kernels import hier_block_cov, hier_cross_cov, latent_cov, stack_blocks
from .kron import cholesky_jitter, tril_inverse
from .latent import psi_stats
from .model import ModelState

log = logging.getLogger(__name__)

_NEGATIVE_VARIANCE_TOL = -1e-10
_MEMO_POINT_SETS = 32  # point sets whose input terms a fitted state keeps, the oldest evicted first


@dataclass(frozen=True)
class PredictiveMoments:
    mean: np.ndarray
    variance: np.ndarray


@dataclass(frozen=True)
class _LatentMoments:
    """Moments of the latent kernel rows ``k_s`` under latent distributions,
    one row each: every output's posterior, or a single latent point."""

    row_mean: np.ndarray  # (d, m_h): psi1 = E[k_s]
    row_cov: np.ndarray  # (d, m_h, m_h): psi2 - psi1 psi1^T
    nystrom: np.ndarray  # (d,): E[k_s Kh^-1 k_s] = tr(Kh^-1 psi2)
    smoothed: np.ndarray  # (d,): E[k_s Kh^-1 S_h Kh^-1 k_s] = tr(Kh^-1 S_h Kh^-1 psi2)


@dataclass(frozen=True)
class _Posterior:
    """What prediction needs from one fitted state, computed once; holds no
    reference to the state, which keys it weakly. With ``S = C C^T``,
    ``smooth = (L^-1 C)^T`` maps ``L^-1 k`` to a root of ``k K^-1 S K^-1 k``."""

    z_input: np.ndarray  # (m_x, v) inducing inputs stacked by replica;
    z_starts: tuple  # replica r at rows z_starts[r]:z_starts[r + 1]
    prior: float  # prior variance of any point: Kh(h, h) times the hierarchical diagonal
    inv_x: np.ndarray  # inverses L^-1 of the Cholesky factors of Kuu_x and Kuu_h
    inv_h: np.ndarray
    smooth_x: np.ndarray
    smooth_h: np.ndarray
    w: np.ndarray  # (m_x, m_h): Kx^-1 M Kh^-1
    outputs: _LatentMoments  # under the outputs' latent posteriors
    # (points' shape and bytes, tags' shape and bytes) -> their _point_terms, oldest first
    memo: dict = field(default_factory=dict, compare=False, repr=False)


_POSTERIORS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _posterior(state: ModelState) -> _Posterior:
    post = _POSTERIORS.get(state)
    if post is None:
        kernel, latents, ind = state.latent_kernel, state.latent_posterior, state.inducing
        kuu_x = hier_block_cov(state.hier_kernel, ind.z_input, ind.z_input)
        kuu_h = latent_cov(kernel, ind.z_latent, ind.z_latent)
        inv_x = tril_inverse(cholesky_jitter(kuu_x)[0])
        inv_h = tril_inverse(cholesky_jitter(kuu_h)[0])
        smooth_h = (inv_h @ ind.cov_latent_chol).T
        psi, _ = psi_stats(kernel.variance, kernel.lengthscales, latents.means, np.log(latents.variances), ind.z_latent)
        z_input, z_starts = stack_blocks(ind.z_input)
        post = _POSTERIORS[state] = _Posterior(
            z_input=z_input,
            z_starts=z_starts,
            prior=kernel.variance * state.hier_kernel.diag_value,
            inv_x=inv_x,
            inv_h=inv_h,
            smooth_x=(inv_x @ ind.cov_input_chol).T,
            smooth_h=smooth_h,
            w=inv_x.T @ (inv_x @ ind.mean @ inv_h.T) @ inv_h,
            outputs=_latent_moments(inv_h, smooth_h, *psi),
        )
    return post


def _latent_moments(inv_h, smooth_h, psi1: np.ndarray, psi2: np.ndarray) -> _LatentMoments:
    """The moments from psi1 (d, m_h) and psi2 (d, m_h, m_h); each trace
    ``tr(A psi2 A^T)`` is summed as ``(A psi2) * A``."""
    root = smooth_h @ inv_h  # C^T Kh^-1
    return _LatentMoments(
        row_mean=psi1,
        row_cov=psi2 - psi1[:, :, None] * psi1[:, None, :],
        nystrom=np.sum((inv_h @ psi2) * inv_h, axis=(1, 2)),
        smoothed=np.sum((root @ psi2) * root, axis=(1, 2)),
    )


def _point_terms(post: _Posterior, hier_kernel, xstar, replica_tags):
    """What tagged points contribute whatever the output: ``base`` (n, m_h)
    and, per point, ``|half|^2`` and ``|smooth|^2``, the input-side factors
    of the latent moments' ``nystrom`` and ``smoothed``, where ``base`` is
    ``cross Kx^-1 M Kh^-1``, ``half`` is ``Lx^-1 cross^T`` and ``smooth``
    its smoothing root. Computed on the first call with these exact points
    and tags, then read from ``post.memo``, so never written to."""
    points, tags = np.asarray(xstar, float), np.asarray(replica_tags, int)
    key = (points.shape, points.tobytes(), tags.shape, tags.tobytes())
    terms = post.memo.get(key)
    if terms is None:
        cross = hier_cross_cov(hier_kernel, points, tags, post.z_input, post.z_starts)
        half = post.inv_x @ cross.T
        base, smooth = cross @ post.w, post.smooth_x @ half
        half *= half
        smooth *= smooth
        terms = base, half.sum(axis=0), smooth.sum(axis=0)
        if len(post.memo) >= _MEMO_POINT_SETS:
            post.memo.pop(next(iter(post.memo)), None)
        post.memo[key] = terms
    return terms


def _block_moments(post, hier_kernel, xstar, replica_tags, moments: _LatentMoments, d: int):
    """Mixture mean and variance under row ``d`` of ``moments``: mean
    conditional variance plus variance of conditional means,
    ``prior - nystrom_d |half|^2 + smoothed_d |smooth|^2 + diag(base C_d base^T)``,
    summed in that order into a new array."""
    base, half_sq, smooth_sq = _point_terms(post, hier_kernel, xstar, replica_tags)
    variance = half_sq * -moments.nystrom[d]
    variance += post.prior
    spread = smooth_sq * moments.smoothed[d]
    variance += spread
    mixed = base @ moments.row_cov[d]
    mixed *= base
    variance += mixed.sum(axis=1, out=spread)
    return base @ moments.row_mean[d], _clip_variance(variance)


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
) -> PredictiveMoments:
    """Exact predictive mean and marginal variances of the latent function,
    noise excluded, at a fixed latent coordinate. Averaged over draws from an
    output's latent posterior, these give the mixture moments of
    :func:`predict_marginal` less that output's noise.

    ``xstar`` rows carry replica tags that route the replica-level kernel.
    """
    xstar = np.atleast_2d(np.asarray(xstar, float))
    latent_point = np.asarray(latent_point, float).reshape(1, -1)
    post = _posterior(state)
    row = latent_cov(state.latent_kernel, latent_point, state.inducing.z_latent)  # psi1 of a point mass
    moments = _latent_moments(post.inv_h, post.smooth_h, row, row[:, :, None] * row[:, None, :])
    mean, variance = _block_moments(post, state.hier_kernel, xstar, replica_tags, moments, 0)
    return PredictiveMoments(mean=mean, variance=variance)


def predict_marginal(
    state: ModelState,
    xstar: np.ndarray,
    replica_tags,
    output: int,
    *,
    seed=None,
) -> PredictiveMoments:
    """Exact moments of an observation of one output: the latent-posterior
    mixture plus the output's noise variance.

    The mean is the conditional mean at the expected latent kernel row psi1;
    the variance adds the spread of the conditional means to the average
    conditional variance, both through psi2, then the noise. ``seed`` is
    accepted and ignored: nothing is sampled.
    """
    if not 0 <= output < state.n_outputs:
        raise ValueError(f"output {output} outside 0..{state.n_outputs - 1}")
    post = _posterior(state)
    mean, variance = _block_moments(post, state.hier_kernel, xstar, replica_tags, post.outputs, output)
    variance += state.noise_for(output)
    return PredictiveMoments(mean=mean, variance=variance)


def predict_missing_replica(
    state: ModelState,
    output: int,
    replica: int,
    grid: np.ndarray,
    *,
    seed=None,
) -> PredictiveMoments:
    """Predict an observation of an output, noise included, over a replica it
    was never observed in.

    Information reaches the block through the shared-level kernel and the
    inducing variables, which pool every output's view of that replica.
    ``seed`` is ignored, as in :func:`predict_marginal`.
    """
    grid = np.atleast_2d(np.asarray(grid, float))
    if not 0 <= replica < state.n_replicas:
        raise ValueError(f"replica {replica} outside 0..{state.n_replicas - 1}")
    tags = np.full(grid.shape[0], replica, dtype=int)
    return predict_marginal(state, grid, tags, output)
