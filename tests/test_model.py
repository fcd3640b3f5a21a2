"""The model file: ``ModelState.to_dict`` and ``state_from_dict``."""

import dataclasses
import json

import numpy as np
import pytest

from hiermogp.data import write_json
from hiermogp.kernels import MATERN32, RBF, HierarchicalKernel, StationaryKernel
from hiermogp.latent import InducingState, LatentPosterior
from hiermogp.model import ModelState, state_from_dict

from .helpers import random_chol, random_state

# The model file of small_state() as hiermogp-model-v1 has always been written.
# Its keys are the dataclass field names, so renaming a field changes the format.
SMALL_STATE_TEXT = """\
{
  "format": "hiermogp-model-v1",
  "hier_kernel": {
    "replica": {
      "family": "matern32",
      "lengthscales": [
        2.0
      ],
      "variance": 1.0
    },
    "shared": {
      "family": "matern32",
      "lengthscales": [
        0.5
      ],
      "variance": 0.25
    }
  },
  "inducing": {
    "cov_input_chol": [
      [
        1.0,
        0.0
      ],
      [
        0.5,
        2.0
      ]
    ],
    "cov_latent_chol": [
      [
        1.0
      ]
    ],
    "mean": [
      [
        0.3
      ],
      [
        -0.2
      ]
    ],
    "z_input": [
      [
        [
          0.0
        ]
      ],
      [
        [
          0.75
        ]
      ]
    ],
    "z_latent": [
      [
        -1.0
      ]
    ]
  },
  "latent_kernel": {
    "family": "rbf",
    "lengthscales": [
      1.0
    ],
    "variance": 1.5
  },
  "latent_posterior": {
    "means": [
      [
        0.1
      ]
    ],
    "variances": [
      [
        0.5
      ]
    ]
  },
  "noise_variance": 0.1
}
"""


def small_state():
    return ModelState(
        hier_kernel=HierarchicalKernel(
            # an integer variance is written as the float it stands for
            shared=StationaryKernel(MATERN32, 0.25, [0.5]), replica=StationaryKernel(MATERN32, 1, [2.0])
        ),
        latent_kernel=StationaryKernel(RBF, 1.5, [1.0]),
        latent_posterior=LatentPosterior(means=[[0.1]], variances=[[0.5]]),
        inducing=InducingState(
            z_input=[[[0.0]], [[0.75]]],
            z_latent=[[-1.0]],
            mean=[[0.3], [-0.2]],
            cov_latent_chol=[[1.0]],
            cov_input_chol=[[1.0, 0.0], [0.5, 2.0]],
        ),
        noise_variance=0.1,
    )


def test_model_file_text_is_pinned(tmp_path):
    path = tmp_path / "model.json"
    write_json(path, small_state().to_dict())
    assert path.read_text() == SMALL_STATE_TEXT


@pytest.mark.parametrize("flat", [False, True], ids=["hierarchical", "flat"])
@pytest.mark.parametrize("per_output_noise", [False, True], ids=["tied", "per_output"])
def test_state_from_dict_rewrites_the_same_text(tmp_path, flat, per_output_noise):
    rng = np.random.default_rng(5)
    state = random_state(rng, n_outputs=3, n_replicas=3, m_latent=2, flat=flat, per_output_noise=per_output_noise)
    state.inducing = InducingState(  # unequal inducing blocks
        z_input=[rng.uniform(size=(m, 1)) for m in (1, 2, 3)],
        z_latent=state.inducing.z_latent,
        mean=rng.standard_normal((6, 2)),
        cov_latent_chol=state.inducing.cov_latent_chol,
        cov_input_chol=random_chol(rng, 6),
    )
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    write_json(first, state.to_dict())
    again = state_from_dict(json.loads(first.read_text()))
    write_json(second, again.to_dict())
    assert second.read_text() == first.read_text()
    assert [b.shape[0] for b in again.inducing.z_input] == [1, 2, 3]
    assert again.is_flat == flat
    assert again.noise_variance.shape == state.noise_variance.shape


def test_a_latent_kernel_other_than_rbf_is_rejected():
    # the bound and prediction need the psi statistics of an RBF latent kernel
    state = small_state()
    matern = StationaryKernel(MATERN32, 1.5, [1.0])
    with pytest.raises(ValueError, match="^latent_kernel: family 'matern32', expected 'rbf'$"):
        dataclasses.replace(state, latent_kernel=matern)
