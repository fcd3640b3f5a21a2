"""The benchmark command runs end to end on its smallest workload.

``perfbench/run.py`` reaches the package through the module bindings its
tracer wraps and through ``elbo.elbo_shared`` and ``elbo.elbo_per_output``,
so a change that renames one of them or alters their signatures fails here.
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
