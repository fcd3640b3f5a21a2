"""Differentiable evidence lower bound.

Builds the bound as an autodiff graph over the flat unconstrained parameter
vector, in the Kronecker-efficient form: every term factors into an
output-side piece (built from psi statistics of the latent posterior) and an
input-side piece (built from the hierarchical kernel), so nothing of size
(m_h * m_x)^2 is ever materialised. This module only assembles the bound
from pieces that live elsewhere: the psi statistics and both KL terms come
from ``latent``, the Grams from ``kernels`` (``gram`` and ``hier_gram``),
and each inducing Gram is factored once by the jitter ladder of ``kron``,
whose factor gives its inverse and log-determinant (``kron.spd_inverse``).
Only the data-fit term is built here from generic tape operations. The
inducing inputs are one leaf of replica-tagged points, as the data are, so
a step's tape has the same nodes at any replica count.
The forward value backs the public bound evaluation; the backward pass
supplies analytic gradients for training.

The data reach the bound once, through ``read_data``: per-output input
blocks and targets become a frozen ``BoundData`` of padded point groups,
which every evaluation reuses. The noise in the template state is one
variance per output or one tied across outputs; the bound has no other
notion of a data regime."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .data import common_inputs
from .kernels import RBF, gram, hier_gram
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
    """Training data as the bound reads it, in G groups of padded,
    replica-tagged input points: one group carrying every output when all
    outputs have the same input blocks, one group per output otherwise.
    Padding rows are tagged -1 and have zero targets."""

    points: np.ndarray  # (G, n, v)
    tags: np.ndarray  # (G, n)
    targets: np.ndarray  # (G, D/G, n)
    counts: np.ndarray  # (D,) points per output
    yy: np.ndarray  # (D,) y_d^T y_d

    def __post_init__(self):
        for array in (self.points, self.tags, self.targets, self.counts, self.yy):
            array.flags.writeable = False


def read_data(template: ModelState, x, y) -> BoundData:
    """Read per-output data, D lists of R input blocks and D target vectors."""
    n_outputs, n_replicas = template.n_outputs, template.n_replicas
    if len(x) != n_outputs or len(y) != n_outputs:
        raise ValueError(f"per-output data must have {n_outputs} entries")
    x = [[np.atleast_2d(np.asarray(b, float)) for b in blocks] for blocks in x]
    y = [np.asarray(y_d, float).ravel() for y_d in y]
    counts = np.array([sum(b.shape[0] for b in blocks) for blocks in x], float)
    n_max = int(counts.max())
    targets = np.zeros((n_outputs, n_max))
    for d, blocks in enumerate(x):
        if len(blocks) != n_replicas:
            raise ValueError(f"output {d}: expected {n_replicas} replica blocks")
        if y[d].size != counts[d]:
            raise ValueError(f"output {d}: {y[d].size} targets for {int(counts[d])} points")
        targets[d, : y[d].size] = y[d]
    groups = x[:1] if common_inputs(x) else x
    points = np.zeros((len(groups), n_max, template.input_dim))
    tags = np.full((len(groups), n_max), -1)
    for g, blocks in enumerate(groups):
        n_g = int(counts[g])
        points[g, :n_g] = np.concatenate(blocks, axis=0)
        tags[g, :n_g] = np.repeat(np.arange(n_replicas), [b.shape[0] for b in blocks])
    targets = targets.reshape(len(groups), -1, n_max)
    return BoundData(points, tags, targets, counts, np.sum(targets**2, axis=2).ravel())


def build_graph(
    theta: np.ndarray,
    layout: ParamLayout,
    template: ModelState,
    data: BoundData,
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
    z = leaves["inducing_inputs"]  # (m_x, v): the replica blocks, stacked
    z_tags = np.repeat(np.arange(n_replicas), [b.shape[0] for b in template.inducing.z_input])
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

    kuu_h = gram(RBF, vh, lsh, zh, zh)
    kuu_x = hier_gram(shared_params, replica_params, z, z_tags, z, z_tags)
    lower_h, jitter_h = choose_jitter(kuu_h.value, base_jitter)
    lower_x, jitter_x = choose_jitter(kuu_x.value, base_jitter)
    a_h, logdet_kh = spd_inverse(kuu_h, lower_h)
    a_x, logdet_kx = spd_inverse(kuu_x, lower_x)

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
    kfu = hier_gram(shared_params, replica_params, data.points, data.tags, z, z_tags)  # (G, n, m_x)
    phi_x = ad.transpose(kfu, (0, 2, 1)) @ kfu  # (G, m_x, m_x)
    b = ad.reshape(ad.matmul(data.targets, kfu), (n_outputs, m_x))

    def tr_x(a):  # (G,)
        return ad.sum(phi_x * a, axis=(1, 2))

    def tr_h(a):  # (D,)
        return ad.sum(psi2 * a, axis=(1, 2))

    data_dot = ad.sum((b @ w) * psi1, axis=1)
    quad_m = ad.sum((ad.transpose(ax_m) @ phi_x @ ax_m) * (a_h @ psi2 @ a_h), axis=(1, 2))
    quad_s = tr_h(g_h) * tr_x(g_x)
    corr = tr_h(a_h) * tr_x(a_x)
    psi0 = vh * diag_amplitude * data.counts
    sigma2 = ad.exp(leaves["log_noise_variance"])  # (D,), or tied (1,)
    data_fit = ad.sum(
        -0.5 * data.counts * (_LOG_2PI + ad.log(sigma2))
        + (data_dot - 0.5 * (data.yy + psi0 - corr + quad_m + quad_s)) / sigma2
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


def _breakdown(pieces: GraphPieces) -> ElboBreakdown:
    values = (pieces.data_fit, pieces.kl_inducing, pieces.kl_latent)
    return ElboBreakdown(*(float(v.value) for v in values))


def evaluate(theta, layout, template, data, base_jitter=1e-6):
    pieces, _ = build_graph(theta, layout, template, data, base_jitter)
    return _breakdown(pieces), pieces.jitters


def evaluate_with_grad(theta, layout, template, data, base_jitter=1e-6):
    pieces, leaves = build_graph(theta, layout, template, data, base_jitter)
    grads = ad.grad(pieces.total, leaves)
    flat_grad = np.concatenate([g.ravel() for g in grads]) if grads else np.zeros(0)
    return _breakdown(pieces), flat_grad, pieces.jitters
