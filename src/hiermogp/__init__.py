"""Hierarchical multi-output Gaussian processes with latent output coordinates.

Outputs are embedded as points in a low-dimensional latent space whose kernel
replaces a fixed coregionalisation matrix; replicated observations of each
output share a two-level hierarchical kernel over inputs. Inference is
variational with Kronecker-structured inducing variables, which also carries
predictions for held-out points and entirely missing replicas.
"""

__version__ = "0.1.0"

from .data import (
    HierarchicalDataset,
    OutputRecord,
    ReplicaBlock,
    SplitPlan,
    SyntheticConfig,
    generate_synthetic,
    load_csv,
    save_csv,
    split,
)
from .elbo import elbo_per_output, elbo_shared
from .kernels import HierarchicalKernel, StationaryKernel
from .latent import InducingState, LatentPosterior
from .metrics import EvalReport, evaluate, nlpd, nmse
from .model import ElboBreakdown, ModelState
from .prediction import (
    PredictiveMoments,
    predict_conditional,
    predict_marginal,
    predict_missing_replica,
)
from .training import FitResult, ModelConfig, OptimizerConfig, fit, initialize_state

__all__ = [
    "ElboBreakdown",
    "EvalReport",
    "FitResult",
    "HierarchicalDataset",
    "HierarchicalKernel",
    "InducingState",
    "LatentPosterior",
    "ModelConfig",
    "ModelState",
    "OptimizerConfig",
    "OutputRecord",
    "PredictiveMoments",
    "ReplicaBlock",
    "SplitPlan",
    "StationaryKernel",
    "SyntheticConfig",
    "elbo_per_output",
    "elbo_shared",
    "evaluate",
    "fit",
    "generate_synthetic",
    "initialize_state",
    "load_csv",
    "nlpd",
    "nmse",
    "predict_conditional",
    "predict_marginal",
    "predict_missing_replica",
    "save_csv",
    "split",
]
