"""Cholesky factorisation with jitter escalation for the model's Gram matrices.

Every inducing Gram in this package (``Kuu_h`` over latent coordinates,
``Kuu_x`` over replica-blocked inputs) is one factor of a Kronecker product,
so only the factors are ever decomposed. A Gram that is numerically
singular is factored with the smallest diagonal jitter from a fixed ladder,
and the bound reports the jitter each Gram needed. The dense
Kronecker helpers the tests check this structure with live in
``tests/oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


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
