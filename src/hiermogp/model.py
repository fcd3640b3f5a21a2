"""Model state: every free quantity of the hierarchical latent-output GP."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import HierarchicalKernel, StationaryKernel
from .latent import InducingState, LatentPosterior


@dataclass(eq=False)
class ModelState:
    """All free parameters of the model in structured form.

    ``noise_variance`` is a scalar array for the shared-input bound and one
    entry per output for the per-output bound. States compare and hash by
    identity, so prediction can cache what it factors per state.
    """

    hier_kernel: HierarchicalKernel
    latent_kernel: StationaryKernel
    latent_posterior: LatentPosterior
    inducing: InducingState
    noise_variance: np.ndarray

    def __post_init__(self):
        self.noise_variance = np.asarray(self.noise_variance, float)
        if not np.all((0.0 < self.noise_variance) & (self.noise_variance < np.inf)):
            raise ValueError("noise variances must be strictly positive and finite")
        if self.latent_kernel.input_dim != self.latent_posterior.latent_dim:
            raise ValueError("latent kernel dimension disagrees with the posterior")
        if self.inducing.z_latent.shape[1] != self.latent_posterior.latent_dim:
            raise ValueError("latent inducing points live in the wrong dimension")
        from .kernels import validate_replica_blocks

        validate_replica_blocks(self.inducing.z_input, self.hier_kernel.input_dim)
        if self.noise_variance.ndim not in (0, 1):
            raise ValueError("noise_variance must be a scalar or a vector")
        if self.noise_variance.ndim == 1 and self.noise_variance.shape[0] != self.n_outputs:
            raise ValueError("per-output noise needs one entry per output")

    @property
    def n_outputs(self) -> int:
        return self.latent_posterior.n_outputs

    @property
    def n_replicas(self) -> int:
        return self.inducing.n_replicas

    @property
    def latent_dim(self) -> int:
        return self.latent_posterior.latent_dim

    @property
    def input_dim(self) -> int:
        return self.hier_kernel.input_dim

    @property
    def is_flat(self) -> bool:
        return self.hier_kernel.shared is None

    def noise_for(self, output: int) -> float:
        if self.noise_variance.ndim == 0:
            return float(self.noise_variance)
        return float(self.noise_variance[output])

    def to_dict(self) -> dict:
        """JSON-ready representation; round-trips through :func:`state_from_dict`."""

        def kernel_dict(k):
            if k is None:
                return None
            return {
                "family": k.family,
                "variance": float(k.variance),
                "lengthscales": k.lengthscales.tolist(),
            }

        return {
            "format": "hiermogp-model-v1",
            "hier_kernel": {
                "shared": kernel_dict(self.hier_kernel.shared),
                "replica": kernel_dict(self.hier_kernel.replica),
            },
            "latent_kernel": kernel_dict(self.latent_kernel),
            "latent_posterior": {
                "means": self.latent_posterior.means.tolist(),
                "variances": self.latent_posterior.variances.tolist(),
            },
            "inducing": {
                "z_input": [b.tolist() for b in self.inducing.z_input],
                "z_latent": self.inducing.z_latent.tolist(),
                "mean": self.inducing.mean.tolist(),
                "cov_latent_chol": self.inducing.cov_latent_chol.tolist(),
                "cov_input_chol": self.inducing.cov_input_chol.tolist(),
            },
            "noise_variance": self.noise_variance.tolist(),
        }


def state_from_dict(payload: dict) -> ModelState:
    if payload.get("format") != "hiermogp-model-v1":
        raise ValueError(f"unrecognised model format {payload.get('format')!r}")

    def kernel_from(d):
        if d is None:
            return None
        return StationaryKernel(
            family=d["family"],
            variance=d["variance"],
            lengthscales=np.asarray(d["lengthscales"], float),
        )

    return ModelState(
        hier_kernel=HierarchicalKernel(
            shared=kernel_from(payload["hier_kernel"]["shared"]),
            replica=kernel_from(payload["hier_kernel"]["replica"]),
        ),
        latent_kernel=kernel_from(payload["latent_kernel"]),
        latent_posterior=LatentPosterior(
            means=np.asarray(payload["latent_posterior"]["means"], float),
            variances=np.asarray(payload["latent_posterior"]["variances"], float),
        ),
        inducing=InducingState(
            z_input=[np.asarray(b, float) for b in payload["inducing"]["z_input"]],
            z_latent=np.asarray(payload["inducing"]["z_latent"], float),
            mean=np.asarray(payload["inducing"]["mean"], float),
            cov_latent_chol=np.asarray(payload["inducing"]["cov_latent_chol"], float),
            cov_input_chol=np.asarray(payload["inducing"]["cov_input_chol"], float),
        ),
        noise_variance=np.asarray(payload["noise_variance"], float),
    )


@dataclass(frozen=True)
class ElboBreakdown:
    """The bound and its three pieces; ``total = data_fit - kl_inducing - kl_latent``."""

    data_fit: float
    kl_inducing: float
    kl_latent: float

    @property
    def total(self) -> float:
        return self.data_fit - self.kl_inducing - self.kl_latent
