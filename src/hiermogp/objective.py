"""Differentiable evidence lower bound.

Builds the bound as an autodiff graph over the flat unconstrained parameter
vector, in the Kronecker-efficient form: every term factors into an
output-side piece (built from psi statistics of the latent posterior) and an
input-side piece (built from the hierarchical kernel), so nothing of size
(m_h * m_x)^2 is ever materialised. The psi statistics and both KL terms come
from ``latent``; the Grams and the data-fit term are assembled here. The
forward value backs the public bound evaluation; the backward pass supplies
analytic gradients for training.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .kernels import RBF
from .kron import choose_jitter
from .latent import kl_inducing, kl_latent, psi_stats
from .model import ElboBreakdown, ModelState
from .params import ParamLayout

_LOG_2PI = float(np.log(2.0 * np.pi))
_SQRT3 = np.sqrt(3.0)
_TINY_SQDIST = 1e-36


@dataclass
class GraphPieces:
    data_fit: ad.Node
    kl_inducing: ad.Node
    kl_latent: ad.Node
    total: ad.Node
    jitters: dict


def _gram(family: str, variance: ad.Node, lengthscales: ad.Node, x1, x2) -> ad.Node:
    """Gram between point sets (..., n1, v) and (..., n2, v), batched over leading axes."""
    x1, x2 = ad.as_node(x1), ad.as_node(x2)
    *lead1, n1, v = x1.shape
    *lead2, n2, _ = x2.shape
    diff = (ad.reshape(x1, (*lead1, n1, 1, v)) - ad.reshape(x2, (*lead2, 1, n2, v))) / lengthscales
    sq = ad.sum(diff * diff, axis=-1)
    if family == RBF:
        return variance * ad.exp(-0.5 * sq)
    # Matern 3/2; the clamp keeps sqrt differentiable at coincident points,
    # where the true gradient vanishes anyway
    r = ad.sqrt(ad.maximum(sq, _TINY_SQDIST))
    return variance * ((1.0 + _SQRT3 * r) * ad.exp(-_SQRT3 * r))


def _hier_gram(shared_params, replica_params, xa, tags_a, xb, tags_b) -> ad.Node:
    """Hierarchical Gram of replica-tagged points: the shared kernel over every
    pair plus ``(tag_a == tag_b)`` times the replica kernel. Rows of ``xa``
    tagged -1 are padding and come out zero."""
    within = _gram(*replica_params, xa, xb) * (tags_a[..., :, None] == tags_b[..., None, :])
    if shared_params is None:
        return within
    return _gram(*shared_params, xa, xb) * (tags_a >= 0)[..., :, None] + within


def _input_groups(x, y, n_outputs: int, n_replicas: int, input_dim: int, regime: str):
    """Read the data into G groups of padded, replica-tagged input points.

    The shared regime is one group whose target columns are all D outputs;
    per-output data are D groups of one column each, padded to the longest
    output with tag -1 and zero targets. Returns points (G, n, v), tags
    (G, n), targets (G, D/G, n), and per output its point count and y^T y.
    """
    if regime == "shared":
        if len(x) != n_replicas:
            raise ValueError(f"expected {n_replicas} replica blocks, got {len(x)}")
        y = np.asarray(y, float).ravel()
        n_points = sum(np.atleast_2d(b).shape[0] for b in x)
        if y.size != n_outputs * n_points:
            raise ValueError(f"target vector has {y.size} entries, expected {n_outputs * n_points}")
        groups, group_targets = [x], [y.reshape(n_outputs, n_points)]
    elif regime == "per_output":
        if len(x) != n_outputs or len(y) != n_outputs:
            raise ValueError(f"per-output data must have {n_outputs} entries")
        groups = x
        group_targets = [np.asarray(y_d, float).reshape(1, -1) for y_d in y]
    else:
        raise ValueError(f"unknown regime {regime!r}")
    groups = [[np.atleast_2d(np.asarray(b, float)) for b in blocks] for blocks in groups]
    n_max = max(sum(b.shape[0] for b in blocks) for blocks in groups)
    points = np.zeros((len(groups), n_max, input_dim))
    tags = np.full((len(groups), n_max), -1)
    targets = np.zeros((len(groups), group_targets[0].shape[0], n_max))
    counts = []
    for g, (blocks, y_g) in enumerate(zip(groups, group_targets)):
        if len(blocks) != n_replicas:
            raise ValueError(f"output {g}: expected {n_replicas} replica blocks")
        n_g = sum(b.shape[0] for b in blocks)
        if y_g.shape[1] != n_g:
            raise ValueError(f"output {g}: {y_g.shape[1]} targets for {n_g} points")
        points[g, :n_g] = np.concatenate(blocks, axis=0)
        tags[g, :n_g] = np.repeat(np.arange(n_replicas), [b.shape[0] for b in blocks])
        targets[g, :, :n_g] = y_g
        counts += [n_g] * y_g.shape[0]
    return points, tags, targets, np.asarray(counts, float), np.sum(targets**2, axis=2).ravel()


def _chol_with_jitter(k: ad.Node, base_jitter: float):
    jitter = choose_jitter(k.value, base_jitter)
    if jitter > 0.0:
        k = k + jitter * np.eye(k.shape[0])
    return ad.cholesky(k), jitter


def _inverse_from_chol(lower: ad.Node) -> ad.Node:
    eye = np.eye(lower.shape[0])
    half = ad.solve_triangular(lower, eye, trans="N")
    return ad.transpose(half) @ half


def build_graph(
    theta: np.ndarray,
    layout: ParamLayout,
    template: ModelState,
    x,
    y,
    regime: str,
    base_jitter: float = 1e-6,
):
    """Assemble the bound; returns the graph pieces and leaves in layout order."""
    if template.latent_kernel.family != RBF:
        raise ValueError("training requires an RBF kernel over latent coordinates")
    arrays = layout.split(np.asarray(theta, float))
    leaves = {name: ad.Node(value) for name, value in arrays.items()}
    flat = template.is_flat
    n_outputs = template.n_outputs
    n_replicas = template.n_replicas
    points, tags, targets, counts, yy = _input_groups(
        x, y, n_outputs, n_replicas, template.input_dim, regime
    )
    m_h = template.inducing.m_h
    m_x = template.inducing.m_x

    def scalar(name):
        return ad.reshape(leaves[name], ())

    shared_params = None
    vg = None
    if not flat:
        vg = ad.exp(scalar("log_shared_variance"))
        shared_params = (
            template.hier_kernel.shared.family,
            vg,
            ad.exp(leaves["log_shared_lengthscales"]),
        )
    vf = ad.exp(scalar("log_replica_variance"))
    replica_params = (template.hier_kernel.replica.family, vf, ad.exp(leaves["log_replica_lengthscales"]))
    vh = ad.exp(scalar("log_latent_kernel_variance"))
    lsh = ad.exp(leaves["log_latent_kernel_lengthscales"])
    mu = leaves["latent_mean"]
    log_s = leaves["latent_log_variance"]
    z_blocks = [leaves[f"inducing_inputs_{r}"] for r in range(n_replicas)]
    z = ad.concat(z_blocks, axis=0)
    z_tags = np.repeat(np.arange(n_replicas), [b.shape[0] for b in z_blocks])
    zh = leaves["inducing_latents"]
    m_mat = leaves["inducing_mean"]

    def cov_factor(side: str, n: int) -> ad.Node:
        strict = ad.strict_lower_embed(leaves[f"cov_{side}_offdiag"], n)
        return strict + ad.diag_embed(ad.exp(leaves[f"cov_{side}_log_diag"]))

    l_sig_h = cov_factor("latent", m_h)
    l_sig_x = cov_factor("input", m_x)
    sigma_h = l_sig_h @ ad.transpose(l_sig_h)
    sigma_x = l_sig_x @ ad.transpose(l_sig_x)
    logdet_sh = 2.0 * ad.sum(leaves["cov_latent_log_diag"])
    logdet_sx = 2.0 * ad.sum(leaves["cov_input_log_diag"])

    kuu_h = _gram(RBF, vh, lsh, zh, zh)
    kuu_x = _hier_gram(shared_params, replica_params, z, z_tags, z, z_tags)
    l_h, jitter_h = _chol_with_jitter(kuu_h, base_jitter)
    l_x, jitter_x = _chol_with_jitter(kuu_x, base_jitter)
    a_h = _inverse_from_chol(l_h)
    a_x = _inverse_from_chol(l_x)
    logdet_kh = 2.0 * ad.sum(ad.log(ad.diagonal(l_h)))
    logdet_kx = 2.0 * ad.sum(ad.log(ad.diagonal(l_x)))

    kl_u = kl_inducing(m_mat, sigma_h, sigma_x, logdet_sh, logdet_sx, a_h, a_x, logdet_kh, logdet_kx)
    kl_h = kl_latent(mu, log_s)
    psi1, psi2 = psi_stats(vh, lsh, mu, log_s, zh)

    # data fit: one term per output, from the statistics Phi_x[d] = Kfu_d^T Kfu_d
    # and b[d] = Kfu_d^T y_d; a group's Phi_x serves each output it carries
    ax_m = a_x @ m_mat
    w = ax_m @ a_h  # Kx^-1 M Kh^-1
    g_h = a_h @ sigma_h @ a_h
    g_x = a_x @ sigma_x @ a_x
    diag_amplitude = vf if flat else vf + vg  # self covariance of the input kernel
    kfu = _hier_gram(shared_params, replica_params, points, tags, z, z_tags)  # (G, n, m_x)
    phi_x = ad.transpose(kfu, (0, 2, 1)) @ kfu  # (G, m_x, m_x)
    b = ad.reshape(ad.matmul(targets, kfu), (n_outputs, m_x))

    def tr_x(a):  # (G,)
        return ad.sum(phi_x * a, axis=(1, 2))

    def tr_h(a):  # (D,)
        return ad.sum(psi2 * a, axis=(1, 2))

    data_dot = ad.sum((b @ w) * psi1, axis=1)
    quad_m = ad.sum((ad.transpose(ax_m) @ phi_x @ ax_m) * (a_h @ psi2 @ a_h), axis=(1, 2))
    quad_s = tr_h(g_h) * tr_x(g_x)
    corr = tr_h(a_h) * tr_x(a_x)
    psi0 = vh * diag_amplitude * counts
    sigma2 = ad.exp(leaves["log_noise_variance"])  # (D,), or tied (1,)
    data_fit = ad.sum(
        -0.5 * counts * (_LOG_2PI + ad.log(sigma2))
        + (data_dot - 0.5 * (yy + psi0 - corr + quad_m + quad_s)) / sigma2
    )

    total = data_fit - kl_u - kl_h
    pieces = GraphPieces(
        data_fit=data_fit,
        kl_inducing=kl_u,
        kl_latent=kl_h,
        total=total,
        jitters={"kuu_h": jitter_h, "kuu_x": jitter_x},
    )
    ordered_leaves = [leaves[s.name] for s in layout.spans]
    return pieces, ordered_leaves


def evaluate(theta, layout, template, x, y, regime, base_jitter=1e-6):
    pieces, _ = build_graph(theta, layout, template, x, y, regime, base_jitter)
    breakdown = ElboBreakdown(
        data_fit=float(pieces.data_fit.value),
        kl_inducing=float(pieces.kl_inducing.value),
        kl_latent=float(pieces.kl_latent.value),
    )
    return breakdown, pieces.jitters


def evaluate_with_grad(theta, layout, template, x, y, regime, base_jitter=1e-6):
    pieces, leaves = build_graph(theta, layout, template, x, y, regime, base_jitter)
    grads = ad.grad(pieces.total, leaves)
    flat_grad = np.concatenate([g.ravel() for g in grads]) if grads else np.zeros(0)
    breakdown = ElboBreakdown(
        data_fit=float(pieces.data_fit.value),
        kl_inducing=float(pieces.kl_inducing.value),
        kl_latent=float(pieces.kl_latent.value),
    )
    return breakdown, flat_grad, pieces.jitters
