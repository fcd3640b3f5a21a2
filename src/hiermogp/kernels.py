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

The stationary formula is written once, here. With the scaled squared
distance sq = sum_k ((x1_k - x2_k) / l_k)^2 and r = sqrt(sq), the kernel is
``v * exp(-sq / 2)`` (RBF) or ``v * ((1 + sqrt(3) r) * exp(-sqrt(3) r))``
(Matern 3/2), and its derivative in sq is ``-k / 2`` or
``-1.5 v exp(-sqrt(3) r)``, finite at r = 0. ``eval_stationary`` serves the
numpy callers (data generation, initialisation, prediction). The bound's
Grams are fused nodes of the ``autodiff`` tape, built on one numpy value and
hand-written backward pass of the same formula: ``gram`` for the latent
inducing Gram, and ``hier_gram`` for the inducing Gram ``Kuu_x`` and its
cross covariance with the distinct training points, both levels of the
hierarchical kernel in one node. Every caller shares one replica layout:
points stacked replica by replica, with each replica's row range given by
offsets (``stack_blocks``). Between two such sets the replica level is one
rectangle per replica, which the bound evaluates as one batch of padded
blocks laid out once per fit from both sets' offsets (``replica_pairs``),
with the scratch arrays the backward pass overwrites.
In numpy the hierarchical kernel is one loop over replicas, written once:
``hier_block_cov`` takes each replica's rows as a slice of points in that
layout, and ``hier_cross_cov`` as an index of tagged points in any order,
against inducing inputs in that layout, which prediction builds once per
fitted state and ``hier_block_cov`` per call.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from . import autodiff as ad

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
        object.__setattr__(self, "variance", float(self.variance))
        object.__setattr__(self, "lengthscales", np.atleast_1d(np.asarray(self.lengthscales, float)))
        if not 0.0 < self.variance < np.inf:
            raise ValueError("kernel variance must be positive and finite")
        if not np.all((0.0 < self.lengthscales) & (self.lengthscales < np.inf)):
            raise ValueError("kernel lengthscales must be positive and finite")

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


def _scaled_diff(x1: np.ndarray, x2: np.ndarray, k: int, scale) -> np.ndarray:
    """(..., n1, n2) differences of input dimension ``k``, over its lengthscale."""
    diff = x1[..., :, k, None] - x2[..., None, :, k]
    diff /= scale
    return diff


def _scaled_sqdist(x1: np.ndarray, x2: np.ndarray, lengthscales: np.ndarray) -> np.ndarray:
    # direct pairwise differences: exact for coincident points, unlike the
    # usual |a|^2 + |b|^2 - 2ab expansion; one dimension at a time, since a
    # sum over a short last axis is slow
    sq = _scaled_diff(x1, x2, 0, lengthscales[0])
    sq *= sq
    for k in range(1, len(lengthscales)):
        diff = _scaled_diff(x1, x2, k, lengthscales[k])
        diff *= diff
        sq += diff
    return sq


def _scaled_sqdist_keeping_diffs(x1: np.ndarray, x2: np.ndarray, lengthscales: np.ndarray):
    """:func:`_scaled_sqdist` and each input dimension's scaled difference,
    kept for a backward pass. The squares go to new arrays, which gives the
    same bits as squaring in place."""
    diffs = [_scaled_diff(x1, x2, k, lengthscales[k]) for k in range(len(lengthscales))]
    sq = diffs[0] * diffs[0]
    for diff in diffs[1:]:
        sq += diff * diff
    return sq, diffs


def _profile(family: str, sq: np.ndarray):
    """Overwrite ``sq`` with the unit-variance kernel and return it, with the
    ``exp(-sqrt(3) r)`` factor of Matern's derivative (``None`` for RBF)."""
    if family == RBF:
        sq *= -0.5
        return np.exp(sq, out=sq), None
    r3 = np.sqrt(sq, out=sq)
    r3 *= _SQRT3
    decay = np.negative(r3)
    np.exp(decay, out=decay)
    r3 += 1.0
    r3 *= decay
    return r3, decay


def eval_stationary(spec: StationaryKernel, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
    """Gram matrix of a stationary kernel between two point sets."""
    x1 = np.atleast_2d(np.asarray(x1, float))
    x2 = np.atleast_2d(np.asarray(x2, float))
    _check_dims(spec, x1, x2)
    return _stationary(spec, x1, x2)


def _check_dims(spec, x1: np.ndarray, x2: np.ndarray) -> None:
    if x1.shape[1] != spec.input_dim or x2.shape[1] != spec.input_dim:
        raise ValueError(
            f"points have dimension {x1.shape[1]}/{x2.shape[1]}, kernel expects {spec.input_dim}"
        )


def _stationary(spec: StationaryKernel, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
    """:func:`eval_stationary` on float point arrays already checked."""
    unit, _ = _profile(spec.family, _scaled_sqdist(x1, x2, spec.lengthscales))
    unit *= spec.variance
    return unit


@dataclass(frozen=True)
class ReplicaPairs:
    """The same-replica pairs of two point sets ``a`` and ``b`` stacked
    replica by replica: per replica both observe, its rectangle of their
    Gram as one block of a batch, each set's rows padded to a common count.
    Made once per fit by :func:`replica_pairs`; the replica level of
    :func:`hier_gram` is evaluated on these blocks only. Its backward pass
    overwrites ``block`` and the two ``sums``, made with the layout, on every
    call, so one instance must not be used by two threads at once."""

    rows_a: np.ndarray  # (R', n_pad) rows of ``a`` per block, padded with a real row
    rows_b: np.ndarray  # (R', m_pad)
    rectangles: tuple  # per block, (its rectangle in the (N_a, N_b) Gram, its real pairs) as indices
    shape: tuple  # (N_a, N_b)
    block: np.ndarray  # (R', n_pad, m_pad) scratch for :meth:`gather`, zero in the padding
    sums: tuple  # two (N_a, N_b) scratch arrays for :meth:`spread`, zero outside the rectangles

    def __post_init__(self):
        for array in (self.rows_a, self.rows_b):
            array.flags.writeable = False

    def gather(self, dense: np.ndarray) -> np.ndarray:
        """``block`` holding the real pairs of a Gram-shaped array. What it
        holds lasts until the next call."""
        for in_gram, in_block in self.rectangles:
            self.block[in_block] = dense[in_gram]
        return self.block

    def spread(self, blocks: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``out``, an (N_a, N_b) array zero outside the rectangles, with the
        real pairs of a block array written into their rectangles."""
        for in_gram, in_block in self.rectangles:
            out[in_gram] = blocks[in_block]
        return out


def replica_pairs(starts_a, starts_b) -> ReplicaPairs:
    """The :class:`ReplicaPairs` of two point sets stacked replica by
    replica, with offsets as :func:`stack_blocks` gives them: replica r at
    rows ``starts[r]:starts[r + 1]`` of each. Its scratch arrays start at
    zero."""
    bounds = zip(starts_a, starts_a[1:], starts_b, starts_b[1:])
    ranges = tuple((a0, a1, b0, b1) for a0, a1, b0, b1 in bounds if a1 > a0 and b1 > b0)
    n_pad = max((a1 - a0 for a0, a1, _, _ in ranges), default=0)
    m_pad = max((b1 - b0 for _, _, b0, b1 in ranges), default=0)
    i, j = np.arange(n_pad), np.arange(m_pad)  # rows a0:a1, then row a0 again, up to n_pad
    shape = (starts_a[-1], starts_b[-1])
    return ReplicaPairs(
        rows_a=np.array([a0 + i * (i < a1 - a0) for a0, a1, _, _ in ranges], int).reshape(len(ranges), n_pad),
        rows_b=np.array([b0 + j * (j < b1 - b0) for _, _, b0, b1 in ranges], int).reshape(len(ranges), m_pad),
        rectangles=tuple(
            ((slice(a0, a1), slice(b0, b1)), (r, slice(a1 - a0), slice(b1 - b0)))
            for r, (a0, a1, b0, b1) in enumerate(ranges)
        ),
        shape=shape,
        block=np.zeros((len(ranges), n_pad, m_pad)),
        sums=(np.zeros(shape), np.zeros(shape)),
    )


def _same(array, out):
    return array


def _stationary_with_backward(family: str, variance, lengthscales, p1, p2, grad1: bool, grad2: bool, pairs=None):
    """The stationary Gram of point arrays (..., n1, v) and (..., n2, v) and
    its backward pass: ``backward(g)`` gives the gradients in the variance,
    the lengthscales and each point set, ``None`` for a point set whose flag
    is off (the data get none and cost nothing). A point set's gradient has
    the Gram's leading axes, not summed over any axis the set was broadcast
    along.

    With ``pairs``, the :class:`ReplicaPairs` of two (N_a, v) and (N_b, v)
    point sets, the value is the block array of their same-replica pairs
    only, and ``backward`` takes the (N_a, N_b) cotangent. Its sums run on
    the two ``pairs.sums``, each block in its rectangle and zeros elsewhere,
    so every sum adds the same nonzero terms in the same order as the dense
    Gram times the same-replica mask, bit for bit."""
    v, ls = ad.values((variance, lengthscales))
    q1, q2 = (p1, p2) if pairs is None else (p1[pairs.rows_a], p2[pairs.rows_b])
    sq, diffs = _scaled_sqdist_keeping_diffs(q1, q2, ls)
    unit, decay = _profile(family, sq)
    value = v * unit

    def backward(g):
        g_dense = g
        if pairs is None:
            shape, spread, (first, second) = value.shape, _same, (None, None)
        else:
            shape, spread, (first, second) = pairs.shape, pairs.spread, pairs.sums
            g = pairs.gather(g_dense)
        if decay is None:  # RBF: d(value)/d(sq) = -value / 2
            slope = g * value
            slope *= -0.5
        else:  # Matern 3/2: d(value)/d(sq) = -1.5 v exp(-sqrt(3) r)
            slope = g * decay
            slope *= -1.5 * v
        g_v = np.vdot(g_dense, spread(unit, first))
        grad_ls = np.zeros(ls.shape)
        g1 = np.zeros(shape[:-1] + ls.shape) if grad1 else None
        g2 = np.zeros(shape[:-2] + p2.shape[-2:]) if grad2 else None
        for k, (scale, diff) in enumerate(zip(ls, diffs)):
            weighted = spread(diff * slope, first)
            grad_ls[k] = np.vdot(weighted, spread(diff, second)) * (-2.0 / scale)
            if g1 is not None:
                g1[..., k] = weighted.sum(axis=-1) * (2.0 / scale)
            if g2 is not None:
                g2[..., k] = weighted.sum(axis=-2) * (-2.0 / scale)
        return g_v, grad_ls, g1, g2

    return value, backward


def gram(family: str, variance, lengthscales, x1, x2) -> ad.Node:
    """The stationary Gram of point sets (n1, v) and (n2, v) as one tape node.

    Gradients flow into whichever arguments are ``Node``s (the variance, the
    lengthscales and the inducing inputs, never the data); the rest are
    constants. The same node may be passed as both point sets. Batched point
    sets (..., n, v) give the batched value (..., n1, n2), but their
    gradients are not summed over broadcast axes."""
    live = (isinstance(x1, ad.Node), isinstance(x2, ad.Node))
    value, backward = _stationary_with_backward(family, variance, lengthscales, *ad.values((x1, x2)), *live)
    return ad.fused(value, (variance, lengthscales, x1, x2), backward)


def hier_gram(shared_params, replica_params, xa, xb, pairs: ReplicaPairs) -> ad.Node:
    """Hierarchical Gram of two point sets stacked replica by replica as one
    tape node, the form of :func:`hier_cross_cov` the bound differentiates:
    the shared kernel over every pair plus the replica kernel over the
    per-replica rectangles of ``pairs``. Each level is ``(family, variance,
    lengthscales)`` as :func:`gram` takes them, and ``shared_params=None``
    leaves the shared level out (the flat ablation). The replica level is
    evaluated on the rectangles in one batch and written into a new zero
    array, one slice each, as a node's value is never scratch, and the
    shared level is added to that; the backward pass sums through the
    scratch of ``pairs``. Value and gradients equal the dense replica Gram
    times the ``(tag_a == tag_b)`` mask bit for bit. Gradients flow into the
    ``Node`` arguments as in :func:`gram`."""
    live = (isinstance(xa, ad.Node), isinstance(xb, ad.Node))
    points = ad.values((xa, xb))
    replica, replica_backward = _stationary_with_backward(*replica_params, *points, *live, pairs)
    # the second point set first: with one node as both, the tape sums its
    # column gradient first (the shared_grid fit is chaotic in the last bit,
    # and this order reproduces its recorded scores at seed 0)
    args = (*replica_params[1:], xb, xa)
    value = pairs.spread(replica, np.zeros(pairs.shape))
    if shared_params is not None:
        shared, shared_backward = _stationary_with_backward(*shared_params, *points, *live)
        value += shared
        args = (*shared_params[1:], *args)

    def backward(g):
        g_vf, g_lsf, g_a, g_b = replica_backward(g)
        if shared_params is None:
            return g_vf, g_lsf, g_b, g_a
        g_vg, g_lsg, s_a, s_b = shared_backward(g)
        if live[0]:
            g_a += s_a
        if live[1]:
            g_b += s_b
        return g_vg, g_lsg, g_vf, g_lsf, g_b, g_a

    return ad.fused(value, args, backward)


def stack_blocks(blocks, input_dim=None) -> tuple[np.ndarray, tuple]:
    """The replica layout of a list of (n_r, v) blocks: the blocks stacked in
    order as one (sum n_r, v) array, and the offsets ``starts``, block r
    being rows ``starts[r]:starts[r + 1]``. Checks the blocks as
    :func:`validate_replica_blocks` does."""
    validate_replica_blocks(blocks, input_dim)
    blocks = [np.atleast_2d(np.asarray(blk, float)) for blk in blocks]
    return np.concatenate(blocks, axis=0), tuple(accumulate((blk.shape[0] for blk in blocks), initial=0))


def hier_block_cov(spec: HierarchicalKernel, a, b) -> np.ndarray:
    """Replica-blocked covariance between two lists of replica input blocks.

    Block (r, r') is ``shared(A_r, B_r')`` off the diagonal and
    ``(shared + replica)(A_r, B_r)`` on it. Serves the data Gram, the
    inducing Gram and the data/inducing cross covariance alike: both lists
    stacked once, replica r's rows of ``a`` one row slice.
    """
    if len(a) != len(b):
        raise ValueError(f"replica count mismatch: {len(a)} vs {len(b)}")
    points, rows = stack_blocks(a, spec.input_dim)
    columns, starts = stack_blocks(b, points.shape[1])
    ranges = ((r, slice(a0, a1)) for r, (a0, a1) in enumerate(zip(rows, rows[1:])) if a1 > a0)
    return _hier_cov(spec, points, ranges, columns, starts)


def hier_cross_cov(
    spec: HierarchicalKernel, points: np.ndarray, replica_tags, columns: np.ndarray, starts
) -> np.ndarray:
    """Covariance between individually tagged points and stacked replica blocks.

    Each row of ``points`` carries a replica tag; ``columns`` and ``starts``
    are a :func:`stack_blocks` layout, block r at columns
    ``starts[r]:starts[r + 1]``. The replica level is added on each present
    tag's rows, all of them as one slice when every row has the same tag.
    """
    points = np.atleast_2d(np.asarray(points, float))
    tags = np.asarray(replica_tags, int)
    n_replicas = len(starts) - 1
    if tags.shape != (points.shape[0],):
        raise ValueError("one replica tag per point is required")
    lo, hi = (tags.min(), tags.max()) if tags.size else (0, -1)
    if lo < 0 or hi >= n_replicas:
        bad = tags[(tags < 0) | (tags >= n_replicas)][0]
        raise ValueError(f"unknown replica tag {bad}; dataset has {n_replicas} replicas")
    _check_dims(spec, points, columns)
    if lo == hi:
        rows = ((lo, slice(None)),)
    else:
        # the tags present; not np.unique, whose first call imports numpy.ma,
        # 15-25 ms of a process's set-up
        present = np.flatnonzero(np.bincount(tags, minlength=n_replicas))
        rows = ((r, np.flatnonzero(tags == r)) for r in present)
    return _hier_cov(spec, points, rows, columns, starts)


def _hier_cov(spec: HierarchicalKernel, points, replica_rows, columns, starts) -> np.ndarray:
    """The hierarchical kernel between checked float ``points`` and stacked
    ``columns``: the shared level over every pair, and for each ``(r, rows)``
    of ``replica_rows`` (a slice or an index of ``points``) the replica level
    added on those rows and replica r's columns ``starts[r]:starts[r + 1]``."""
    if spec.shared is None:
        out = np.zeros((points.shape[0], columns.shape[0]))
    else:
        out = _stationary(spec.shared, points, columns)
    for r, rows in replica_rows:
        block = slice(starts[r], starts[r + 1])
        out[rows, block] += _stationary(spec.replica, points[rows], columns[block])
    return out


def latent_cov(spec: StationaryKernel, h1: np.ndarray, h2: np.ndarray) -> np.ndarray:
    """Gram matrix of the output kernel on latent coordinates."""
    return eval_stationary(spec, h1, h2)
