"""Flat, unconstrained parameterisation of the model state.

Every constrained quantity maps through a smooth bijection: variances,
lengthscales and noise through ``log``, covariance factors through their
lower triangle with a log diagonal. Locations and means pass through
unchanged. The layout is an ordered list of named spans so gradients and
diagnostics can always be attributed to a parameter group; their names,
order and shapes come from the same map from state to unconstrained arrays
that packing uses. The inducing inputs of every replica form one span,
``inducing_inputs``, of shape (m_x, v): the replica blocks stacked in
order, as the bound reads them.
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

    def mask_for(self, names) -> np.ndarray:
        """0/1 mask selecting the spans of the given names."""
        mask = np.zeros(self.size)
        for name in names:
            if name not in self._by_name:
                raise KeyError(f"no parameter span named {name!r}")
            s = self._by_name[name]
            mask[s.start : s.stop] = 1.0
        return mask

    # -- state <-> vector ---------------------------------------------------

    def pack(self, state: ModelState) -> np.ndarray:
        return self.join(_unconstrained(state))

    def unpack(self, theta: np.ndarray, template: ModelState) -> ModelState:
        arrays = self.split(np.asarray(theta, float))
        hk = template.hier_kernel
        shared = None
        if not self._flat:
            shared = StationaryKernel(
                family=hk.shared.family,
                variance=float(np.exp(arrays["log_shared_variance"][0])),
                lengthscales=np.exp(arrays["log_shared_lengthscales"]),
            )
        replica = StationaryKernel(
            family=hk.replica.family,
            variance=float(np.exp(arrays["log_replica_variance"][0])),
            lengthscales=np.exp(arrays["log_replica_lengthscales"]),
        )
        latent_kernel = StationaryKernel(
            family=template.latent_kernel.family,
            variance=float(np.exp(arrays["log_latent_kernel_variance"][0])),
            lengthscales=np.exp(arrays["log_latent_kernel_lengthscales"]),
        )
        posterior = LatentPosterior(
            means=arrays["latent_mean"].copy(),
            variances=np.exp(arrays["latent_log_variance"]),
        )

        def build_chol(side: str, n: int) -> np.ndarray:
            chol = np.zeros((n, n))
            rows, cols = np.tril_indices(n, k=-1)
            chol[rows, cols] = arrays[f"cov_{side}_offdiag"]
            chol[np.diag_indices(n)] = np.exp(arrays[f"cov_{side}_log_diag"])
            return chol

        ind = template.inducing
        ends = np.cumsum([b.shape[0] for b in ind.z_input])[:-1]
        inducing = InducingState(
            z_input=[b.copy() for b in np.split(arrays["inducing_inputs"], ends)],
            z_latent=arrays["inducing_latents"].copy(),
            mean=arrays["inducing_mean"].copy(),
            cov_latent_chol=build_chol("latent", ind.m_h),
            cov_input_chol=build_chol("input", ind.m_x),
        )
        noise = np.exp(arrays["log_noise_variance"])
        if not self._per_output_noise:
            noise = np.asarray(noise[0])
        return ModelState(
            hier_kernel=HierarchicalKernel(shared=shared, replica=replica),
            latent_kernel=latent_kernel,
            latent_posterior=posterior,
            inducing=inducing,
            noise_variance=noise,
        )
