"""Flat, unconstrained parameterisation of the model state.

Every constrained quantity maps through a smooth bijection: variances,
lengthscales and noise through ``log``, covariance factors through their
lower triangle with a log diagonal. Locations and means pass through
unchanged. The layout is an ordered list of named spans so gradients and
diagnostics can always be attributed to a parameter group; their names,
order and shapes come from the same map from state to unconstrained arrays
that packing uses (``_unconstrained``), with each factor's triangle at the
flat positions ``_triangles`` gives. The inverse map is written once too
(``_constrained``): ``unpack`` builds a state from it, and ``constrain``
makes it the bound's first closed form, a plain numpy function whose
outputs are every quantity the bound reads of the vector and whose
backward pass gives the flat gradient; ``objective.build_graph`` records it
as the one parameter node. The inducing inputs of every replica form
one span, ``inducing_inputs``, of shape (m_x, v): the replica blocks
stacked in order, as the bound reads them. A layout keeps the template it
was built from for what the vector does not hold (kernel families, the
flat ablation, tied or per-output noise, inducing block sizes), so the
bound's entry points take ``(theta, layout, data)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import HierarchicalKernel, StationaryKernel
from .latent import InducingState, LatentPosterior
from .model import ModelState


@dataclass(frozen=True)
class Span:
    name: str
    shape: tuple
    start: int
    stop: int


def _unconstrained(state: ModelState, triangles: dict[str, tuple]) -> dict[str, np.ndarray]:
    """The state's unconstrained arrays by span name, in layout order: the
    one map from state to vector, from which the spans take their names,
    order and shapes. ``triangles`` are the factors' flat positions, from
    :func:`_triangles`."""
    arrays: dict[str, np.ndarray] = {}
    hk = state.hier_kernel
    if hk.shared is not None:
        arrays["log_shared_variance"] = np.log([hk.shared.variance])
        arrays["log_shared_lengthscales"] = np.log(hk.shared.lengthscales)
    arrays["log_replica_variance"] = np.log([hk.replica.variance])
    arrays["log_replica_lengthscales"] = np.log(hk.replica.lengthscales)
    arrays["log_latent_kernel_variance"] = np.log([state.latent_kernel.variance])
    arrays["log_latent_kernel_lengthscales"] = np.log(state.latent_kernel.lengthscales)
    arrays["latent_mean"] = state.latent_posterior.means
    arrays["latent_log_variance"] = np.log(state.latent_posterior.variances)
    arrays["inducing_inputs"] = np.concatenate(state.inducing.z_input, axis=0)
    arrays["inducing_latents"] = state.inducing.z_latent
    arrays["inducing_mean"] = state.inducing.mean
    for side, chol in (("latent", state.inducing.cov_latent_chol), ("input", state.inducing.cov_input_chol)):
        lower, diagonal = triangles[side]
        flat = chol.reshape(-1)
        arrays[f"cov_{side}_offdiag"] = flat[lower]
        arrays[f"cov_{side}_log_diag"] = np.log(flat[diagonal])
    arrays["log_noise_variance"] = np.log(np.atleast_1d(state.noise_variance))
    return arrays


_KERNELS = ("shared", "replica", "latent_kernel")
_SIDES = ("latent", "input")
# spans the bound reads unconstrained
_PASSED = (
    "latent_mean",
    "latent_log_variance",
    "inducing_inputs",
    "inducing_latents",
    "inducing_mean",
    "log_noise_variance",
)


def _triangles(state: ModelState) -> dict[str, tuple]:
    """Per covariance side, the flat positions in its (n, n) factor of the
    strict lower triangle, in ``np.tril_indices`` order, and of the
    diagonal."""
    triangles = {}
    for side, chol in zip(_SIDES, (state.inducing.cov_latent_chol, state.inducing.cov_input_chol)):
        n = chol.shape[0]
        rows, cols = np.tril_indices(n, k=-1)
        triangles[side] = (rows * n + cols, np.arange(n) * (n + 1))
    return triangles


def _constrained(arrays: dict[str, np.ndarray], triangles: dict[str, tuple]) -> dict[str, np.ndarray]:
    """What both the state and the bound read of unconstrained ``arrays``,
    by name, the inverse of :func:`_unconstrained` on those spans: each
    kernel's variance (0-d) and lengthscales, and both covariance factors.
    ``triangles`` are the factors' flat positions, from :func:`_triangles`."""
    out = {}
    for kernel in _KERNELS:
        if f"log_{kernel}_variance" in arrays:
            out[f"{kernel}_variance"] = np.exp(arrays[f"log_{kernel}_variance"].reshape(()))
            out[f"{kernel}_lengthscales"] = np.exp(arrays[f"log_{kernel}_lengthscales"])
    for side in _SIDES:
        log_diag = arrays[f"cov_{side}_log_diag"]
        lower, diagonal = triangles[side]
        chol = np.zeros((log_diag.size, log_diag.size))
        flat = chol.reshape(-1)
        flat[lower] = arrays[f"cov_{side}_offdiag"]
        flat[diagonal] = np.exp(log_diag)
        out[f"cov_{side}_chol"] = chol
    return out


class ParamLayout:
    """Named spans of one flat vector, derived from a template state, which
    the layout keeps."""

    def __init__(self, template: ModelState):
        self.template = template
        self._triangles = _triangles(template)
        spans = []
        offset = 0
        for name, array in _unconstrained(template, self._triangles).items():
            spans.append(Span(name=name, shape=array.shape, start=offset, stop=offset + array.size))
            offset += array.size
        self.spans: tuple[Span, ...] = tuple(spans)
        self.size = offset
        self._slices = {s.name: slice(s.start, s.stop) for s in self.spans}

    def span_of_index(self, index: int) -> str:
        for s in self.spans:
            if s.start <= index < s.stop:
                return s.name
        raise IndexError(index)

    def split(self, theta: np.ndarray) -> dict[str, np.ndarray]:
        if theta.shape != (self.size,):
            raise ValueError(f"expected a vector of length {self.size}, got {theta.shape}")
        return {s.name: theta[s.start : s.stop].reshape(s.shape) for s in self.spans}

    # -- state <-> vector ---------------------------------------------------

    def pack(self, state: ModelState) -> np.ndarray:
        theta = np.empty(self.size)
        for name, array in _unconstrained(state, self._triangles).items():
            theta[self._slices[name]] = np.reshape(array, -1)
        return theta

    def unpack(self, theta: np.ndarray) -> ModelState:
        arrays = self.split(np.asarray(theta, float))
        c = _constrained(arrays, self._triangles)
        template = self.template

        def kernel(name: str, family: str) -> StationaryKernel:
            variance = float(c[f"{name}_variance"])
            return StationaryKernel(family=family, variance=variance, lengthscales=c[f"{name}_lengthscales"])

        hk = template.hier_kernel
        ends = np.cumsum([b.shape[0] for b in template.inducing.z_input])[:-1]
        inducing = InducingState(
            z_input=[b.copy() for b in np.split(arrays["inducing_inputs"], ends)],
            z_latent=arrays["inducing_latents"].copy(),
            mean=arrays["inducing_mean"].copy(),
            cov_latent_chol=c["cov_latent_chol"],
            cov_input_chol=c["cov_input_chol"],
        )
        noise = np.exp(arrays["log_noise_variance"])
        # at D=1 the span shape cannot tell tied noise from per-output noise
        if template.noise_variance.ndim == 0:
            noise = np.asarray(noise[0])
        return ModelState(
            hier_kernel=HierarchicalKernel(
                shared=None if template.is_flat else kernel("shared", hk.shared.family),
                replica=kernel("replica", hk.replica.family),
            ),
            latent_kernel=kernel("latent_kernel", template.latent_kernel.family),
            latent_posterior=LatentPosterior(
                means=arrays["latent_mean"].copy(), variances=np.exp(arrays["latent_log_variance"])
            ),
            inducing=inducing,
            noise_variance=noise,
        )

    def constrain(self, theta: np.ndarray):
        """``(arrays, backward)``: every quantity the bound reads of the
        vector ``theta``, by name, and the backward pass, which takes their
        cotangents in that order. The arrays are each kernel's variance (0-d)
        and lengthscales; the spans of ``_PASSED`` unchanged; the inducing
        covariances ``cov_latent`` and ``cov_input`` (``L L^T`` of each
        factor) with their log-determinants ``logdet_cov_latent`` and
        ``logdet_cov_input``; and ``input_self_variance``, the input kernel's
        variance at zero distance. The backward pass returns the flat
        gradient: through ``S = L L^T`` the factor gets ``(G + G^T) L``, whose
        diagonal is chained through the exp and gets twice the
        log-determinant's cotangent."""
        arrays = self.split(theta)
        c = _constrained(arrays, self._triangles)
        kernels = [k for k in _KERNELS if f"{k}_variance" in c]
        values = {}
        for kernel in kernels:
            for quantity in ("variance", "lengthscales"):
                values[f"{kernel}_{quantity}"] = c[f"{kernel}_{quantity}"]
        for name in _PASSED:
            values[name] = arrays[name]
        for side in _SIDES:
            chol = c[f"cov_{side}_chol"]
            values[f"cov_{side}"] = chol @ chol.T
            values[f"logdet_cov_{side}"] = 2.0 * arrays[f"cov_{side}_log_diag"].sum()
        values["input_self_variance"] = c["replica_variance"]
        if not self.template.is_flat:
            values["input_self_variance"] = values["input_self_variance"] + c["shared_variance"]
        names = tuple(values)

        def backward(*cotangents):  # each span's gradient written straight into the flat one
            g = dict(zip(names, cotangents))
            flat, where = np.empty(self.size), self._slices
            for name in _PASSED:
                flat[where[name]] = g[name].reshape(-1)
            for kernel in kernels:
                g_variance = g[f"{kernel}_variance"]
                if kernel != "latent_kernel":
                    g_variance = g_variance + g["input_self_variance"]
                flat[where[f"log_{kernel}_variance"]] = g_variance * c[f"{kernel}_variance"]
                lengthscales = f"{kernel}_lengthscales"
                flat[where[f"log_{lengthscales}"]] = g[lengthscales] * c[lengthscales]
            for side in _SIDES:
                chol, g_cov = c[f"cov_{side}_chol"], g[f"cov_{side}"]
                g_chol = g_cov @ chol + g_cov.T @ chol
                flat[where[f"cov_{side}_offdiag"]] = g_chol.take(self._triangles[side][0])
                g_logdet = g[f"logdet_cov_{side}"]
                flat[where[f"cov_{side}_log_diag"]] = g_chol.diagonal() * chol.diagonal() + 2.0 * g_logdet
            return (flat,)

        return values, backward
