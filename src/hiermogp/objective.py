"""Differentiable evidence lower bound.

Builds the bound as an autodiff graph over the flat unconstrained parameter
vector, in the Kronecker-efficient form: every term factors into an
output-side piece (built from psi statistics of the latent posterior) and an
input-side piece (built from the hierarchical kernel), so nothing of size
(m_h * m_x)^2 is ever materialised. The bound is a fixed chain of closed
forms, plain numpy functions that return their value with a hand-written
backward pass: the constrained parameters (``params.ParamLayout.constrain``),
the psi statistics and both KL terms (``latent``), the Grams (``kernels``:
``gram`` and ``hier_gram``), each inducing Gram's inverse and
log-determinant from the one factor the jitter ladder of ``kron`` finds
(``kron.spd_inverse``), and the two written here, the data fit
(``data_fit``) and the total. ``build_graph`` alone records them on the
``autodiff`` tape, over one leaf, the parameter vector, and says which
arguments get no gradient (the data points). ``autodiff.grad`` calls
each closed form's backward pass once per gradient, with the cotangents of
all its outputs, and each returns its arguments' gradients in their shapes
(the tied noise's is summed over outputs). The inducing inputs are one span
of replica-tagged points, as the data are, so a step's tape has the same
nodes at any replica count and any output count. The forward value backs
the public bound evaluation; the backward pass supplies analytic gradients
for training, as one flat vector.

The data reach the bound once, through ``read_data``: per-output input
blocks and targets become a frozen ``BoundData`` of the distinct tagged
points and one index into them per output, which every evaluation reuses,
so the data/inducing Gram has one row per distinct point however many
outputs observe it. The points are stacked replica by replica, as the
inducing inputs are, so the replica level of that Gram and of the inducing
Gram is one rectangle per replica (``kernels.ReplicaPairs``), laid out once
from both sets' offsets. ``read_data`` makes every array a step
overwrites with that layout. The noise in the template state is one
variance per output or one tied across outputs; the bound has no other
notion of a data regime."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .kernels import RBF, ReplicaPairs, gram, hier_gram, replica_pairs, stack_blocks
from .kron import cholesky_jitter as choose_jitter  # the name perfbench/tracing.py wraps per step
from .kron import spd_inverse
from .latent import kl_inducing, kl_latent, psi_stats
from .model import ElboBreakdown, ModelState
from .params import ParamLayout

_LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass
class GraphPieces:
    data_fit: ad.Node
    kl_inducing: ad.Node
    kl_latent: ad.Node
    total: ad.Node
    jitters: dict


@dataclass(frozen=True)
class BoundData:
    """Training data as the bound reads it: the N_u distinct replica-tagged
    points, sorted on tag, and per output an index into them with the
    targets laid out along it. Indices are padded with N_u, which names a
    zero row appended to every per-point array, and the padding's targets
    are zero. On a common grid every output indexes every point. ``kfu_pairs``
    and ``kuu_pairs`` give the per-replica row and column ranges of the
    data/inducing Gram and of the inducing Gram, for the template's blocks.

    :func:`read_data` also makes the step's scratch with this layout: the
    bins of :meth:`sum_to_points` and ``per_point``, which the data fit's
    backward pass fills, both for rows m_h + 2 wide; ``u_rows`` and
    ``u_rows_grad``, two contiguous (D, n_max, m_h) arrays for each
    output's rows of ``U`` and the two addends of their cotangent; and the
    two ``ReplicaPairs``' arrays. So a step allocates no per-output array
    m_h wide. Every step overwrites them, so two steps may run on one
    ``BoundData`` one after the other, never at once: do not share one
    between threads. The data fit's forward pass gathers the rows of ``U``
    into ``u_rows`` and its backward pass gathers them again from the small
    ``U`` it keeps, so another forward pass on the same ``BoundData`` before
    a graph's backward pass leaves that graph's gradient unchanged."""

    points: np.ndarray  # (N_u, v)
    tags: np.ndarray  # (N_u,)
    index: np.ndarray  # (D, n_max)
    targets: np.ndarray  # (D, n_max)
    counts: np.ndarray  # (D,) points per output
    yy: np.ndarray  # (D,) y_d^T y_d
    kfu_pairs: ReplicaPairs  # points x inducing inputs
    kuu_pairs: ReplicaPairs  # inducing inputs x inducing inputs
    bins: np.ndarray  # (D * n_max * c,) the bin of each per-point value, c = m_h + 2
    per_point: np.ndarray  # (D, n_max, c) scratch
    u_rows: np.ndarray  # (D, n_max, m_h) scratch
    u_rows_grad: np.ndarray  # (D, n_max, m_h) scratch

    def __post_init__(self):
        for array in (self.points, self.tags, self.index, self.targets, self.counts, self.yy, self.bins):
            array.flags.writeable = False

    def sum_to_points(self, values: np.ndarray) -> np.ndarray:
        """(N_u, c): the (D, n_max, c) ``values`` summed onto the points the
        index names, with the padding's sum dropped, in one ``bincount``. Bin
        ``point * c + column`` adds its terms in flat order, as a per-column
        sum would."""
        n, c = self.points.shape[0], values.shape[-1]
        return np.bincount(self.bins, values.ravel(), minlength=(n + 1) * c).reshape(n + 1, c)[:n]


def read_data(template: ModelState, x, y) -> BoundData:
    """Read per-output data, D lists of R input blocks and D target vectors,
    for the bound of states with ``template``'s shape and inducing blocks."""
    n_outputs, n_replicas = template.n_outputs, template.n_replicas
    if len(x) != n_outputs or len(y) != n_outputs:
        raise ValueError(f"per-output data must have {n_outputs} entries")
    x = [[np.atleast_2d(np.asarray(b, float)) for b in blocks] for blocks in x]
    y = [np.asarray(y_d, float).ravel() for y_d in y]
    counts = np.array([sum(b.shape[0] for b in blocks) for blocks in x], float)
    for d, blocks in enumerate(x):
        if len(blocks) != n_replicas:
            raise ValueError(f"output {d}: expected {n_replicas} replica blocks")
        if y[d].size != counts[d]:
            raise ValueError(f"output {d}: {y[d].size} targets for {int(counts[d])} points")
    # every observed point as a (tag, input) row, output by output; equal rows are one point
    tagged = [np.column_stack([np.full(b.shape[0], r), b]) for blocks in x for r, b in enumerate(blocks)]
    distinct, rows = np.unique(np.concatenate(tagged), axis=0, return_inverse=True)
    rows = np.split(rows.ravel(), np.cumsum(counts[:-1]).astype(int))
    n_max = int(counts.max(initial=0))
    index = np.full((n_outputs, n_max), distinct.shape[0])
    targets = np.zeros((n_outputs, n_max))
    for d, (rows_d, y_d) in enumerate(zip(rows, y)):
        index[d, : y_d.size] = rows_d
        targets[d, : y_d.size] = y_d
    # np.unique sorts the rows tag first, so each replica's points are one
    # row range, the layout kernels.replica_pairs needs
    points, tags = distinct[:, 1:].copy(), distinct[:, 0].astype(int)
    starts = np.searchsorted(tags, np.arange(n_replicas + 1)).tolist()
    _, z_starts = stack_blocks(template.inducing.z_input)
    c = template.inducing.m_h + 2  # a point's two trace cotangents, then its row of U
    return BoundData(
        points,
        tags,
        index,
        targets,
        counts,
        (targets**2).sum(axis=1),
        kfu_pairs=replica_pairs(starts, z_starts),
        kuu_pairs=replica_pairs(z_starts, z_starts),
        bins=(index.ravel()[:, None] * c + np.arange(c)).ravel(),
        per_point=np.empty((*index.shape, c)),
        u_rows=np.empty((*index.shape, c - 2)),
        u_rows_grad=np.empty((*index.shape, c - 2)),
    )


def data_fit(k, p1, p2, a_x, a_h, m, s_x, s_h, vh, amp, log_noise, *, data: BoundData):
    """The bound's expected log-likelihood of ``data``, summed over outputs,
    with its backward pass.

    ``k`` is the (N_u, m_x) Gram ``kfu`` between the distinct points of
    ``data`` and the inducing inputs; ``p1`` and ``p2`` are the outputs' psi
    statistics; ``a_x`` and ``a_h`` the inverse inducing Grams; ``m`` the
    (m_x, m_h) inducing mean; ``s_x`` and ``s_h`` the inducing covariance
    factors; ``vh * amp`` the prior variance of one point; and
    ``log_noise`` the log noise variance, per output (D,) or tied (1,).

    Output d reads the rows ``I_d`` of ``K = kfu``. With ``U = K A_x M``,
    ``Q_d = A_h psi2_d A_h`` and ``G = A S A`` on either side, its statistics
    are ``y_d^T U[I_d] A_h psi1_d``, ``tr(Q_d U[I_d]^T U[I_d])`` and the
    traces ``tr(K[I_d]^T K[I_d] B) = sum_{i in I_d} (K B K^T)_ii`` for
    ``B = A_x`` and ``G_x``. So every product over the inducing inputs runs
    once per distinct point, and the per-output work is gathers and batched
    products m_h wide. The gradient is exact where ``a_x`` and ``s_x``
    are symmetric, as the bound's are."""
    index, y, n = data.index, data.targets, data.counts
    g_h = a_h @ s_h @ a_h
    s_a = s_x @ a_x
    k_a = k @ a_x
    k_g, u = k_a @ s_a, k_a @ m  # K G_x and U

    def per_output(per_point):  # (N_u,) -> (D,)
        return np.append(per_point, 0.0)[index].sum(axis=1)

    tr_a = per_output(np.einsum("ij,ij->i", k_a, k))
    tr_g = per_output(np.einsum("ij,ij->i", k_g, k))
    u_pad = np.concatenate([u, np.zeros((1, u.shape[1]))])  # the padding's row of U is zero
    u_d = np.take(u_pad, index, axis=0, out=data.u_rows)  # (D, n_max, m_h)
    yu = (y[:, None, :] @ u_d)[:, 0]
    ah_p1 = p1 @ a_h.T
    data_dot = (yu * ah_p1).sum(axis=1)
    p2_a = p2 @ a_h
    q = a_h @ p2_a
    uu = u_d.swapaxes(1, 2) @ u_d
    quad_m = (uu * q).sum(axis=(1, 2))
    th_a = (p2 * a_h).sum(axis=(1, 2))
    th_g = (p2 * g_h).sum(axis=(1, 2))
    sigma2 = np.exp(log_noise)
    tied = log_noise.shape != n.shape  # one noise variance for every output
    inner = data_dot - 0.5 * (data.yy + vh * amp * n - th_a * tr_a + quad_m + th_g * tr_g)
    # the log of the variance itself: a variance that overflows leaves the bound non-finite
    value = (-0.5 * n * (_LOG_2PI + np.log(sigma2)) + inner / sigma2).sum()

    def backward(g):
        w = g / sigma2  # the cotangent of each output's data_dot
        if tied:
            w = np.broadcast_to(w, n.shape)
        half = 0.5 * w
        d_uu = -half[:, None, None] * q
        d_q = -half[:, None, None] * uu
        d_th_a, d_th_g = half * tr_a, -half * tr_g
        # each point collects the cotangents of the outputs indexing it: of
        # each output's two traces, then of its rows of U, whose two addends
        # are made in the contiguous scratch and added into the strided
        # per_point in one pass; the rows are gathered again, since another
        # forward pass may have overwritten u_rows
        per_point = data.per_point
        per_point[..., 0] = (half * th_a)[:, None]
        per_point[..., 1] = (-half * th_g)[:, None]
        u_d = np.take(u_pad, index, axis=0, out=data.u_rows)
        from_quad = np.matmul(u_d, d_uu + d_uu.swapaxes(1, 2), out=data.u_rows_grad)
        from_dot = np.multiply((w[:, None] * y)[:, :, None], ah_p1[:, None, :], out=data.u_rows)  # u_d is read no more
        np.add(from_dot, from_quad, out=per_point[..., 2:])
        summed = data.sum_to_points(per_point)
        c_a, c_g, d_u = summed[:, :1], summed[:, 1:2], summed[:, 2:]
        d_k = d_u @ (a_x @ m).T
        d_k += (2.0 * c_a) * k_a
        d_k += (2.0 * c_g) * k_g
        d_gx = (c_g * k).T @ k
        d_ax_m = k.T @ d_u
        d_ax = (c_a * k).T @ k + d_gx @ s_a.T + (a_x @ s_x).T @ d_gx + d_ax_m @ m.T
        d_ah_p1 = w[:, None] * yu
        p2_flat = p2.reshape(p2.shape[0], -1)  # the operands np.tensordot(d_th, p2, axes=1) builds
        d_gh = np.dot(d_th_g.reshape(1, -1), p2_flat).reshape(p2.shape[1:])
        d_ah = (
            d_ah_p1.T @ p1
            + (d_q @ p2_a.swapaxes(1, 2) + (a_h @ p2).swapaxes(1, 2) @ d_q).sum(axis=0)
            + np.dot(d_th_a.reshape(1, -1), p2_flat).reshape(p2.shape[1:])
            + d_gh @ (s_h @ a_h).T
            + (a_h @ s_h).T @ d_gh
        )
        d_p2 = a_h.T @ d_q @ a_h.T + d_th_a[:, None, None] * a_h + d_th_g[:, None, None] * g_h
        d_psi0 = -(half * n).sum()
        d_noise = -0.5 * g * n - w * inner
        if tied:
            d_noise = d_noise.sum(keepdims=True)
        return (
            d_k,
            d_ah_p1 @ a_h,
            d_p2,
            d_ax,
            d_ah,
            a_x.T @ d_ax_m,
            a_x.T @ d_gx @ a_x.T,
            a_h.T @ d_gh @ a_h.T,
            d_psi0 * amp,
            d_psi0 * vh,
            d_noise,
        )

    return value, backward


def build_graph(theta: np.ndarray, layout: ParamLayout, data: BoundData):
    """Assemble the bound; returns the graph pieces and the one leaf, the
    parameter vector, in a list."""
    theta_leaf = ad.Node(np.asarray(theta, float))
    named, backward = layout.constrain(theta_leaf.value)
    p = dict(zip(named, ad.fused(tuple(named.values()), (theta_leaf,), backward)))
    hk = layout.template.hier_kernel
    levels = (p["replica_variance"], p["replica_lengthscales"])
    families = (None, hk.replica.family)
    if not layout.template.is_flat:
        levels = (p["shared_variance"], p["shared_lengthscales"], *levels)
        families = (hk.shared.family, hk.replica.family)
    vh, lsh = p["latent_kernel_variance"], p["latent_kernel_lengthscales"]
    mu, log_s = p["latent_mean"], p["latent_log_variance"]
    z = p["inducing_inputs"]  # (m_x, v): the replica blocks, stacked
    zh, m_mat = p["inducing_latents"], p["inducing_mean"]
    sigma_h, sigma_x = p["cov_latent"], p["cov_input"]

    kuu_h = ad.record(gram, vh, lsh, zh, zh, family=RBF)
    kuu_x = ad.record(hier_gram, *levels, z, z, families=families, pairs=data.kuu_pairs)
    lower_h, jitter_h = choose_jitter(kuu_h.value)
    lower_x, jitter_x = choose_jitter(kuu_x.value)
    inverse_h, backward_h = spd_inverse(lower_h)  # the factor is read; the Gram gets the gradient
    a_h, logdet_kh = ad.fused(inverse_h, (kuu_h,), backward_h)
    inverse_x, backward_x = spd_inverse(lower_x)
    a_x, logdet_kx = ad.fused(inverse_x, (kuu_x,), backward_x)

    logdet_sh, logdet_sx = p["logdet_cov_latent"], p["logdet_cov_input"]
    kl_u = ad.record(kl_inducing, m_mat, sigma_h, sigma_x, logdet_sh, logdet_sx, a_h, a_x, logdet_kh, logdet_kx)
    kl_h = ad.record(kl_latent, mu, log_s)
    psi1, psi2 = ad.record(psi_stats, vh, lsh, mu, log_s, zh)
    # (N_u, m_x); the data points are a constant of the form: they get no gradient
    kfu = ad.record(hier_gram, *levels, z, families=families, pairs=data.kfu_pairs, xa=data.points)
    amplitude, log_noise = p["input_self_variance"], p["log_noise_variance"]
    fit = ad.record(data_fit, kfu, psi1, psi2, a_x, a_h, m_mat, sigma_x, sigma_h, vh, amplitude, log_noise, data=data)
    total = ad.fused(fit.value - kl_u.value - kl_h.value, (fit, kl_u, kl_h), lambda g: (g, -g, -g))
    pieces = GraphPieces(
        data_fit=fit,
        kl_inducing=kl_u,
        kl_latent=kl_h,
        total=total,
        jitters={"kuu_h": jitter_h, "kuu_x": jitter_x},
    )
    return pieces, [theta_leaf]


def _breakdown(pieces: GraphPieces) -> ElboBreakdown:
    values = (pieces.data_fit, pieces.kl_inducing, pieces.kl_latent)
    return ElboBreakdown(*(float(v.value) for v in values))


def evaluate(theta, layout, data):
    pieces, _ = build_graph(theta, layout, data)
    return _breakdown(pieces), pieces.jitters


def evaluate_with_grad(theta, layout, data):
    pieces, leaves = build_graph(theta, layout, data)
    (flat_grad,) = ad.grad(pieces.total, leaves)
    return _breakdown(pieces), flat_grad, pieces.jitters
