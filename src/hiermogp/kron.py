"""Dense linear algebra helpers built around Kronecker structure.

Covariances in this package factor as ``A (x) B`` over output and input
spaces. These routines let the rest of the code exploit that factorisation
instead of materialising the full product. Vectorisation is column-stacking
throughout: ``vec(W)[j * rows + i] = W[i, j]``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular


class IndefiniteMatrixError(np.linalg.LinAlgError):
    """Matrix stayed non positive definite after jitter escalation."""


@dataclass(frozen=True)
class CholeskyFactor:
    """Lower-triangular factor of ``a + jitter_used * I``."""

    lower: np.ndarray
    jitter_used: float = 0.0

    @property
    def n(self) -> int:
        return self.lower.shape[0]


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product; block (i, j) equals ``a[i, j] * b``."""
    return np.kron(np.asarray(a, float), np.asarray(b, float))


def vec(a: np.ndarray) -> np.ndarray:
    """Column-stacking vectorisation."""
    return np.asarray(a).ravel(order="F")


def unvec(x: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Inverse of :func:`vec`."""
    x = np.asarray(x)
    if x.size != rows * cols:
        raise ValueError(f"cannot reshape {x.size} entries into {rows}x{cols}")
    return x.reshape((rows, cols), order="F")


def kron_matvec(a: np.ndarray, b: np.ndarray, x: np.ndarray) -> np.ndarray:
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


def trace_kron(a: np.ndarray, b: np.ndarray) -> float:
    """``Tr(a (x) b) = Tr(a) * Tr(b)``."""
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    if a.shape[0] != a.shape[1] or b.shape[0] != b.shape[1]:
        raise ValueError("trace_kron requires square factors")
    return float(np.trace(a) * np.trace(b))


def _factor_with_jitter(a: np.ndarray, base_jitter: float) -> tuple[np.ndarray, float]:
    """``(lower factor of a + jitter * I, jitter)`` for the jitter :func:`choose_jitter` picks."""
    try:
        return np.linalg.cholesky(a), 0.0
    except np.linalg.LinAlgError:
        pass
    scale = float(np.mean(np.diag(a))) if a.size else 1.0
    if not np.isfinite(scale) or scale <= 0.0:
        scale = 1.0
    eye = np.eye(a.shape[0])
    for k in range(7):
        jitter = base_jitter * scale * 10.0**k
        try:
            return np.linalg.cholesky(a + jitter * eye), jitter
        except np.linalg.LinAlgError:
            continue
    raise IndefiniteMatrixError(
        f"matrix not positive definite even with jitter {base_jitter * scale * 1e6:g}"
    )


def choose_jitter(a: np.ndarray, base_jitter: float = 1e-6) -> float:
    """Smallest jitter from ``{0} U {base * mean_diag * 10^k, k=0..6}`` that
    makes ``a + jitter * I`` factorisable."""
    return _factor_with_jitter(np.asarray(a, float), base_jitter)[1]


def cholesky_jitter(a: np.ndarray, base_jitter: float = 1e-6) -> CholeskyFactor:
    """Factor ``a + j * I`` for the smallest workable jitter ``j``, keeping the
    factor of the trial that succeeded."""
    a = np.asarray(a, float)
    if a.shape[0] != a.shape[1]:
        raise ValueError("cholesky_jitter requires a square matrix")
    lower, jitter = _factor_with_jitter(a, base_jitter)
    return CholeskyFactor(lower=lower, jitter_used=jitter)


def tri_solve(factor: CholeskyFactor, rhs: np.ndarray) -> np.ndarray:
    """Solve ``(L L^T) x = rhs`` via two triangular solves."""
    rhs = np.asarray(rhs, float)
    if rhs.shape[0] != factor.n:
        raise ValueError(f"rhs has {rhs.shape[0]} rows, factor is {factor.n}x{factor.n}")
    half = solve_triangular(factor.lower, rhs, lower=True)
    return solve_triangular(factor.lower, half, lower=True, trans="T")


def logdet(factor: CholeskyFactor) -> float:
    """Log determinant of the factored matrix."""
    return float(2.0 * np.sum(np.log(np.diag(factor.lower))))
