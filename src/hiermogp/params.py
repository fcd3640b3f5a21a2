"""Flat, unconstrained parameterisation of the model state.

Every constrained quantity maps through a smooth bijection: variances,
lengthscales and noise through ``log``, covariance factors through their
lower triangle with a log diagonal. Locations and means pass through
unchanged. The layout is an ordered list of named spans so gradients and
diagnostics can always be attributed to a parameter group; their names,
order and shapes come from the same map from state to unconstrained arrays
that packing uses (``_unconstrained``). The inverse map is written once too
(``_constrained``): ``unpack`` builds a state from it, and ``constrain``
makes it the bound's one parameter node, whose outputs are every quantity
the bound reads of the vector. The inducing inputs of every replica form
one span, ``inducing_inputs``, of shape (m_x, v): the replica blocks
stacked in order, as the bound reads them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .kernels import HierarchicalKernel, StationaryKernel
from .latent import InducingState, LatentPosterior
from .model import ModelState


@dataclass(frozen=True)
class Span:
    name: str
    shape: tuple
    start: int
    stop: int

    @property
    def size(self) -> int:
        return self.stop - self.start


def _unconstrained(state: ModelState) -> dict[str, np.ndarray]:
    """The state's unconstrained arrays by span name, in layout order: the
    one map from state to vector, from which the spans take their names,
    order and shapes."""
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
        n = chol.shape[0]
        rows, cols = np.tril_indices(n, k=-1)
        arrays[f"cov_{side}_offdiag"] = chol[rows, cols]
        arrays[f"cov_{side}_log_diag"] = np.log(np.diag(chol))
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
    """The constrained arrays of unconstrained ``arrays`` by name, the inverse
    of :func:`_unconstrained`: each kernel's variance (0-d) and
    lengthscales, the latent means and variances, the inducing inputs,
    latents and mean, both covariance factors and the noise variance.
    ``triangles`` are the factors' indices, from :func:`_triangles`."""
    out = {}
    for kernel in _KERNELS:
        if f"log_{kernel}_variance" in arrays:
            out[f"{kernel}_variance"] = np.exp(arrays[f"log_{kernel}_variance"].reshape(()))
            out[f"{kernel}_lengthscales"] = np.exp(arrays[f"log_{kernel}_lengthscales"])
    out["latent_mean"] = arrays["latent_mean"]
    out["latent_variance"] = np.exp(arrays["latent_log_variance"])
    for name in ("inducing_inputs", "inducing_latents", "inducing_mean"):
        out[name] = arrays[name]
    for side in _SIDES:
        log_diag = arrays[f"cov_{side}_log_diag"]
        lower, diagonal = triangles[side]
        chol = np.zeros((log_diag.size, log_diag.size))
        flat = chol.reshape(-1)
        flat[lower] = arrays[f"cov_{side}_offdiag"]
        flat[diagonal] = np.exp(log_diag)
        out[f"cov_{side}_chol"] = chol
    out["noise_variance"] = np.exp(arrays["log_noise_variance"])
    return out


class ParamLayout:
    """Named spans of one flat vector, derived from a template state."""

    def __init__(self, template: ModelState):
        self._flat = template.is_flat
        # at D=1 the span shape cannot tell tied noise from per-output noise
        self._per_output_noise = template.noise_variance.ndim == 1
        spans = []
        offset = 0
        for name, array in _unconstrained(template).items():
            spans.append(Span(name=name, shape=array.shape, start=offset, stop=offset + array.size))
            offset += array.size
        self.spans: tuple[Span, ...] = tuple(spans)
        self.size = offset
        self._by_name = {s.name: s for s in self.spans}
        self._slices = {s.name: slice(s.start, s.stop) for s in self.spans}
        self._triangles = _triangles(template)

    def span(self, name: str) -> Span:
        return self._by_name[name]

    def span_of_index(self, index: int) -> str:
        for s in self.spans:
            if s.start <= index < s.stop:
                return s.name
        raise IndexError(index)

    def split(self, theta: np.ndarray) -> dict[str, np.ndarray]:
        if theta.shape != (self.size,):
            raise ValueError(f"expected a vector of length {self.size}, got {theta.shape}")
        return {s.name: theta[s.start : s.stop].reshape(s.shape) for s in self.spans}

    def join(self, arrays: dict[str, np.ndarray]) -> np.ndarray:
        theta = np.empty(self.size)
        for s in self.spans:
            theta[s.start : s.stop] = np.reshape(arrays[s.name], -1)
        return theta

    # -- state <-> vector ---------------------------------------------------

    def pack(self, state: ModelState) -> np.ndarray:
        return self.join(_unconstrained(state))

    def unpack(self, theta: np.ndarray, template: ModelState) -> ModelState:
        c = _constrained(self.split(np.asarray(theta, float)), self._triangles)

        def kernel(name: str, family: str) -> StationaryKernel:
            variance = float(c[f"{name}_variance"])
            return StationaryKernel(family=family, variance=variance, lengthscales=c[f"{name}_lengthscales"])

        hk = template.hier_kernel
        ends = np.cumsum([b.shape[0] for b in template.inducing.z_input])[:-1]
        inducing = InducingState(
            z_input=[b.copy() for b in np.split(c["inducing_inputs"], ends)],
            z_latent=c["inducing_latents"].copy(),
            mean=c["inducing_mean"].copy(),
            cov_latent_chol=c["cov_latent_chol"],
            cov_input_chol=c["cov_input_chol"],
        )
        noise = c["noise_variance"]
        if not self._per_output_noise:
            noise = np.asarray(noise[0])
        return ModelState(
            hier_kernel=HierarchicalKernel(
                shared=None if self._flat else kernel("shared", hk.shared.family),
                replica=kernel("replica", hk.replica.family),
            ),
            latent_kernel=kernel("latent_kernel", template.latent_kernel.family),
            latent_posterior=LatentPosterior(means=c["latent_mean"].copy(), variances=c["latent_variance"]),
            inducing=inducing,
            noise_variance=noise,
        )

    def constrain(self, theta: ad.Node) -> dict[str, ad.Node]:
        """Every quantity the bound reads of the vector ``theta``, by name, as
        the outputs of one tape node: each kernel's variance (0-d) and
        lengthscales; the spans of ``_PASSED`` unchanged; the inducing
        covariances ``cov_latent`` and ``cov_input`` (``L L^T`` of each
        factor) with their log-determinants ``logdet_cov_latent`` and
        ``logdet_cov_input``; and ``input_self_variance``, the input kernel's
        variance at zero distance. The backward pass returns the flat
        gradient: through ``S = L L^T`` the factor gets ``(G + G^T) L``, whose
        diagonal is chained through the exp and gets twice the
        log-determinant's cotangent."""
        arrays = self.split(theta.value)
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
        if not self._flat:
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

        return dict(zip(names, ad.fused(tuple(values.values()), (theta,), backward)))
