"""Inducing Grams factored once: the jitter ladder, and the inverse and
log-determinant the bound reads from the factor.

Every inducing Gram in this package (``Kuu_h`` over latent coordinates,
``Kuu_x`` over replica-blocked inputs) is one factor of a Kronecker product,
so only the factors are ever decomposed, and each once. ``cholesky_jitter``
factors a Gram with the smallest diagonal jitter from a fixed ladder and
returns the factor from the trial that succeeded, with the jitter the bound
reports. ``spd_inverse`` builds the Gram's inverse and log-determinant from
that factor, with their backward pass, as a plain numpy closed form that
``objective.build_graph`` records on the tape, and ``tril_inverse`` is the
one triangular inverse it and prediction share. Both the
factorisation and the inverse call the LAPACK gufuncs that
``np.linalg.cholesky`` and ``np.linalg.inv`` call, through ``_lapack``, with
the same error handling and without those functions' Python wrappers, so
the results are theirs bit for bit. The dense Kronecker helpers the tests
check this structure with live in ``tests/oracles.py``.
"""

from __future__ import annotations

import functools

import numpy as np
from numpy.linalg import _umath_linalg


class IndefiniteMatrixError(np.linalg.LinAlgError):
    """Matrix stayed non positive definite after jitter escalation."""


def _raise_linalg_error(err, flag):
    raise np.linalg.LinAlgError("LAPACK found the matrix not positive definite or singular")


@np.errstate(call=_raise_linalg_error, invalid="call", over="ignore", divide="ignore", under="ignore")
def _lapack(gufunc, a: np.ndarray) -> np.ndarray:
    """``gufunc(a)`` in double precision, raising ``LinAlgError`` where LAPACK
    reports failure, as ``np.linalg`` runs the gufuncs of ``cholesky`` and
    ``inv``: a failed factorisation or solve fills its result with NaN and
    sets the invalid flag, and every other floating-point flag is ignored."""
    return gufunc(a, signature="d->d")


@functools.lru_cache(maxsize=32)
def _lower_mask(n: int) -> np.ndarray:
    """The (n, n) mask of the lower triangle, the one ``np.tril`` builds."""
    mask = np.tri(n, dtype=bool)
    mask.flags.writeable = False
    return mask


def cholesky_jitter(a: np.ndarray, base_jitter: float = 1e-6) -> tuple[np.ndarray, float]:
    """``(lower, j)``: the lower Cholesky factor of ``a + j * I`` for the
    smallest ``j`` from ``{0} U {base * mean_diag * 10^k, k=0..6}`` that makes
    it factorisable, from the trial that succeeded. Only the lower triangle
    of ``a`` is read."""
    a = np.asarray(a, float)
    if a.shape[0] != a.shape[1]:
        raise ValueError("cholesky_jitter requires a square matrix")
    try:
        return _lapack(_umath_linalg.cholesky_lo, a), 0.0
    except np.linalg.LinAlgError:
        pass
    scale = float(np.mean(np.diag(a))) if a.size else 1.0
    if not np.isfinite(scale) or scale <= 0.0:
        scale = 1.0
    eye = np.eye(a.shape[0])
    for k in range(7):
        jitter = base_jitter * scale * 10.0**k
        try:
            return _lapack(_umath_linalg.cholesky_lo, a + jitter * eye), jitter
        except np.linalg.LinAlgError:
            continue
    raise IndefiniteMatrixError(
        f"matrix not positive definite even with jitter {base_jitter * scale * 1e6:g}"
    )


def tril_inverse(l: np.ndarray) -> np.ndarray:
    """Inverse of the lower triangle of ``l``; the upper triangle is never read.

    The triangle is taken as ``np.tril`` takes it, through a mask cached per
    size, and inverted reversed in both axes, which is upper triangular. The
    inverse is LAPACK's ``gesv`` against the identity, the gufunc
    ``np.linalg.inv`` calls, as ``np.linalg.solve(u, np.eye(m))`` is, without
    building the identity in Python: partial pivoting finds nothing to swap
    and every elimination multiplier is zero, so the LU factorisation is
    exact and the solve is one substitution, in the row order of forward
    substitution on ``L`` as a LAPACK triangular solve takes it. Solving
    against ``L`` itself pivots on ill-conditioned factors and loses several
    times more accuracy. The copy keeps the result contiguous, which matrix
    products need to be fast.
    """
    lower = np.where(_lower_mask(l.shape[0]), l, 0.0)
    return _lapack(_umath_linalg.inv, lower[::-1, ::-1])[::-1, ::-1].copy()


def spd_inverse(lower: np.ndarray):
    """``((A, log|K + j I|), backward)`` with ``A = (K + j I)^-1``, from
    ``lower``, the factor of ``K + j I`` that :func:`cholesky_jitter`
    returned for ``K``.

    ``A = L^-T L^-1`` and the log-determinant is ``2 sum(log diag L)``; no
    factorisation runs here. The backward pass is ``g_logdet A - A G A`` for
    the cotangents ``G`` of ``A`` and ``g_logdet`` of the log-determinant:
    the gradient of the matrix function, which on the symmetric matrices the
    bound passes here is the gradient in ``K``. The jitter is a constant of
    the step, so it has no gradient."""
    half = tril_inverse(lower)
    inverse = half.T @ half
    logdet = 2.0 * np.log(lower.diagonal()).sum()

    def backward(g_inverse, g_logdet):
        grad = inverse @ g_inverse @ inverse
        grad *= -1.0
        grad += g_logdet * inverse
        return (grad,)

    return (inverse, logdet), backward
