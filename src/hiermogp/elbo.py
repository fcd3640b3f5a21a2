"""Evidence lower bound of a model state on data.

``elbo_per_output`` evaluates the Kronecker-factorised bound on per-output
data, with one noise variance per output or one tied across outputs.
``elbo_shared`` is the same bound for every output observed on one common
replica-blocked input set with a single noise variance: it hands each output
that input set and its slice of the stacked targets. Both read their data
once through ``objective.read_data``. The dense reference forms the tests
hold them to live in ``tests/oracles.py``.
"""

from __future__ import annotations

import numpy as np

from . import objective
from .model import ElboBreakdown, ModelState
from .params import ParamLayout


def elbo_shared(state: ModelState, x, y) -> ElboBreakdown:
    """Bound for all outputs observed on one common replica-blocked input set;
    ``y`` stacks the outputs' targets, output-major."""
    if state.noise_variance.ndim != 0:
        raise ValueError("the shared-input bound uses a single scalar noise variance")
    return elbo_per_output(state, [x] * state.n_outputs, np.reshape(y, (state.n_outputs, -1)))


def elbo_per_output(state: ModelState, x, y) -> ElboBreakdown:
    """Bound for per-output input sets: D lists of R input blocks and D target vectors."""
    layout = ParamLayout(state)
    data = objective.read_data(state, x, y)
    breakdown, _ = objective.evaluate(layout.pack(state), layout, data)
    return breakdown
