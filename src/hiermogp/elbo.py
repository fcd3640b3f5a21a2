"""Evidence lower bound of a model state on data.

``elbo_shared`` and ``elbo_per_output`` evaluate the Kronecker-factorised
bound (one isotropic noise for a common input set, one noise per output
otherwise); both read their data into the one batched bound of
``objective.build_graph``. The dense reference forms the tests hold them to
live in ``tests/oracles.py``.
"""

from __future__ import annotations

from . import objective
from .model import ElboBreakdown, ModelState
from .params import ParamLayout


def _layout_and_theta(state: ModelState):
    layout = ParamLayout(state)
    return layout, layout.pack(state)


def elbo_shared(state: ModelState, x, y) -> ElboBreakdown:
    """Bound for all outputs observed on one common replica-blocked input set."""
    if state.noise_variance.ndim != 0:
        raise ValueError("the shared-input bound uses a single scalar noise variance")
    layout, theta = _layout_and_theta(state)
    breakdown, _ = objective.evaluate(theta, layout, state, x, y, "shared")
    return breakdown


def elbo_per_output(state: ModelState, x, y) -> ElboBreakdown:
    """Bound for per-output input sets with per-output noise variances."""
    layout, theta = _layout_and_theta(state)
    breakdown, _ = objective.evaluate(theta, layout, state, x, y, "per_output")
    return breakdown
