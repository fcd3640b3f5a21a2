"""Covariance functions over inputs, replicas and latent output coordinates.

Two stationary families (ARD RBF and Matern 3/2) are combined in two ways:

* a hierarchical kernel over inputs, where pairs from the same replica get
  the sum of a shared-level and a replica-level kernel while pairs from
  different replicas only share the shared-level part;
* a kernel over the per-output latent coordinates, whose Gram matrix plays
  the role of a learned coregionalisation matrix.

The joint covariance over (output, replica, input) triples is the Kronecker
product of the two Gram matrices, outputs-major: the output index varies
slowest, matching the stacking of the target vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

RBF = "rbf"
MATERN32 = "matern32"
_FAMILIES = (RBF, MATERN32)
_SQRT3 = np.sqrt(3.0)


@dataclass(frozen=True)
class StationaryKernel:
    """An ARD stationary kernel with one lengthscale per input dimension."""

    family: str
    variance: float
    lengthscales: np.ndarray

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown kernel family {self.family!r}")
        object.__setattr__(self, "lengthscales", np.atleast_1d(np.asarray(self.lengthscales, float)))
        if self.variance <= 0.0:
            raise ValueError("kernel variance must be positive")
        if np.any(self.lengthscales <= 0.0):
            raise ValueError("kernel lengthscales must be positive")

    @property
    def input_dim(self) -> int:
        return self.lengthscales.shape[0]


@dataclass(frozen=True)
class HierarchicalKernel:
    """Two-level kernel over replicated inputs.

    ``shared`` covers every pair of points regardless of replica; ``replica``
    is added on top for pairs from the same replica. ``shared=None`` removes
    the cross-replica coupling entirely (the flat ablation).
    """

    shared: StationaryKernel | None
    replica: StationaryKernel

    def __post_init__(self):
        if self.shared is not None and self.shared.input_dim != self.replica.input_dim:
            raise ValueError("shared and replica kernels disagree on input dimension")

    @property
    def input_dim(self) -> int:
        return self.replica.input_dim

    @property
    def diag_value(self) -> float:
        """Self-covariance of any point (same replica with itself)."""
        base = self.replica.variance
        if self.shared is not None:
            base += self.shared.variance
        return base


def validate_replica_blocks(blocks, input_dim=None):
    """Check a list of (n_r, v) arrays shares one input dimension; return v."""
    if len(blocks) == 0:
        raise ValueError("at least one replica block is required")
    dims = {np.asarray(b).shape[1] for b in blocks}
    if len(dims) != 1:
        raise ValueError(f"replica blocks disagree on input dimension: {sorted(dims)}")
    (v,) = dims
    if input_dim is not None and v != input_dim:
        raise ValueError(f"replica blocks have dimension {v}, expected {input_dim}")
    return v


def _scaled_sqdist(x1: np.ndarray, x2: np.ndarray, lengthscales: np.ndarray) -> np.ndarray:
    # direct pairwise differences: exact for coincident points, unlike the
    # usual |a|^2 + |b|^2 - 2ab expansion; one dimension at a time, since a
    # sum over a short last axis is slow
    sq = np.zeros((x1.shape[0], x2.shape[0]))
    for k, scale in enumerate(lengthscales):
        diff = (x1[:, k, None] - x2[None, :, k]) / scale
        sq += diff * diff
    return sq


def eval_stationary(spec: StationaryKernel, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
    """Gram matrix of a stationary kernel between two point sets."""
    x1 = np.atleast_2d(np.asarray(x1, float))
    x2 = np.atleast_2d(np.asarray(x2, float))
    if x1.shape[1] != spec.input_dim or x2.shape[1] != spec.input_dim:
        raise ValueError(
            f"points have dimension {x1.shape[1]}/{x2.shape[1]}, kernel expects {spec.input_dim}"
        )
    sq = _scaled_sqdist(x1, x2, spec.lengthscales)
    if spec.family == RBF:
        return spec.variance * np.exp(-0.5 * sq)
    r = np.sqrt(sq)
    return spec.variance * (1.0 + _SQRT3 * r) * np.exp(-_SQRT3 * r)


def hier_block_cov(spec: HierarchicalKernel, a, b) -> np.ndarray:
    """Replica-blocked covariance between two lists of replica input blocks.

    Block (r, r') is ``shared(A_r, B_r')`` off the diagonal and
    ``(shared + replica)(A_r, B_r)`` on it. Serves the data Gram, the
    inducing Gram and the data/inducing cross covariance alike: the rows of
    ``a``, tagged with their replica, through :func:`hier_cross_cov`.
    """
    if len(a) != len(b):
        raise ValueError(f"replica count mismatch: {len(a)} vs {len(b)}")
    v = validate_replica_blocks(a, spec.input_dim)
    validate_replica_blocks(b, v)
    a = [np.atleast_2d(np.asarray(blk, float)) for blk in a]
    tags = np.repeat(np.arange(len(a)), [blk.shape[0] for blk in a])
    return hier_cross_cov(spec, np.concatenate(a, axis=0), tags, b)


def hier_cross_cov(spec: HierarchicalKernel, points: np.ndarray, replica_tags, b) -> np.ndarray:
    """Covariance between individually tagged points and replica blocks.

    Each row of ``points`` carries a replica tag; columns follow the blocks
    of ``b``. Same-tag columns get the replica-level kernel added.
    """
    points = np.atleast_2d(np.asarray(points, float))
    tags = np.asarray(replica_tags, int)
    if tags.shape != (points.shape[0],):
        raise ValueError("one replica tag per point is required")
    if tags.size and (tags.min() < 0 or tags.max() >= len(b)):
        bad = tags[(tags < 0) | (tags >= len(b))][0]
        raise ValueError(f"unknown replica tag {bad}; dataset has {len(b)} replicas")
    b = [np.atleast_2d(np.asarray(blk, float)) for blk in b]
    n_cols = sum(blk.shape[0] for blk in b)
    out = np.zeros((points.shape[0], n_cols))
    if spec.shared is not None:
        out += eval_stationary(spec.shared, points, np.concatenate(b, axis=0))
    c0 = 0
    for r, br in enumerate(b):
        rows = np.flatnonzero(tags == r)
        if rows.size and br.shape[0]:
            out[rows, c0 : c0 + br.shape[0]] += eval_stationary(spec.replica, points[rows], br)
        c0 += br.shape[0]
    return out


def latent_cov(spec: StationaryKernel, h1: np.ndarray, h2: np.ndarray) -> np.ndarray:
    """Gram matrix of the output kernel on latent coordinates."""
    return eval_stationary(spec, h1, h2)
