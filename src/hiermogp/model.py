"""Model state: every free quantity of the hierarchical latent-output GP, saved field by field."""

from __future__ import annotations

from dataclasses import dataclass, fields, is_dataclass

import numpy as np

from .kernels import RBF, HierarchicalKernel, StationaryKernel, validate_replica_blocks
from .latent import InducingState, LatentPosterior

FORMAT = "hiermogp-model-v1"


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
        if self.latent_kernel.family != RBF:  # the bound and prediction need its psi statistics
            raise ValueError(f"latent_kernel: family {self.latent_kernel.family!r}, expected {RBF!r}")
        if self.latent_kernel.input_dim != self.latent_posterior.latent_dim:
            raise ValueError("latent kernel dimension disagrees with the posterior")
        if self.inducing.z_latent.shape[1] != self.latent_posterior.latent_dim:
            raise ValueError("latent inducing points live in the wrong dimension")
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
        """JSON-ready form: the format tag and every field, arrays as nested lists."""
        return {"format": FORMAT, **plain(self)}


def plain(value):
    """``value`` in JSON-ready form: a dataclass as a dict of its fields,
    lists item by item and arrays as nested lists, recursively."""
    if is_dataclass(value):
        return {f.name: plain(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, list):
        return [plain(v) for v in value]
    return value.tolist() if isinstance(value, np.ndarray) else value


def state_from_dict(payload: dict) -> ModelState:
    """The state :meth:`ModelState.to_dict` wrote; other top-level keys are the
    caller's. A wrong tag, or a missing or malformed field, raises ``ValueError``."""
    if payload.get("format") != FORMAT:
        raise ValueError(f"unrecognised model format {payload.get('format')!r}")
    build = {  # the flat ablation saves its shared kernel as null
        "hier_kernel": lambda d: HierarchicalKernel(**{level: k and StationaryKernel(**k) for level, k in d.items()}),
        "latent_kernel": lambda d: StationaryKernel(**d),
        "latent_posterior": lambda d: LatentPosterior(**d),
        "inducing": lambda d: InducingState(**d),
        "noise_variance": lambda v: np.asarray(v, float),
    }
    parts = {}
    for name, make in build.items():
        if name not in payload:
            raise ValueError(f"{name}: missing field")
        try:
            parts[name] = make(payload[name])
        except (AttributeError, TypeError, ValueError) as err:
            raise ValueError(f"{name}: {err}") from None
    return ModelState(**parts)


@dataclass(frozen=True)
class ElboBreakdown:
    """The bound and its three pieces; ``total = data_fit - kl_inducing - kl_latent``."""

    data_fit: float
    kl_inducing: float
    kl_latent: float

    @property
    def total(self) -> float:
        return self.data_fit - self.kl_inducing - self.kl_latent
