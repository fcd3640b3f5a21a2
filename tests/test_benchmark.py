"""The benchmark command runs end to end on its smallest workload.

``perfbench/run.py`` reaches the package through the module bindings its
tracer wraps and through ``elbo.elbo_shared`` and ``elbo.elbo_per_output``,
so a change that renames one of them or alters their signatures fails here.
A binding that still exists but is no longer called would make its metric
read 0 without any error, so the traced run checks that the bindings are
called as often as the code calls them.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("trace", ["0", "1"])
def test_benchmark_runs_on_tiny_workload(trace):
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "tiny",
         "--seed", "0", "--seconds", "2", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, result
    if trace == "1":
        metrics = {name: metric["value"] for name, metric in result["metrics"].items()}
        # the step's hooks: fit calls Adam through the module global
        # training.adam_step, and the bound through objective.build_graph
        # and autodiff.grad
        for hook in ("training.adam_step", "autodiff.grad", "objective.build_graph"):
            assert metrics[f"{hook}.ms_per_step"] > 0, hook
        # the bound factors each inducing Gram through objective.choose_jitter
        assert metrics["kron.choose_jitter.ms_per_step"] > 0
        # a fitted state's prediction factors Kuu_x and Kuu_h once each
        assert metrics["kron.cholesky_jitter.calls_per_pass"] == 2
        # tiny's pass: the latent Gram Kuu_h once per state (every output's
        # latent moments come from the psi statistics), the inducing Gram
        # once, and the cross-covariance on every block
        assert metrics["kernels.latent_cov.calls_per_pass"] == 1
        assert metrics["kernels.hier_block_cov.calls_per_pass"] == 1
        assert metrics["kernels.hier_cross_cov.ms_per_pass"] > 0
        assert metrics["objective.tape_nodes_per_step"] == 31
