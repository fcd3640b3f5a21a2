"""Fast self-check of the benchmark on the tiny shape (about 15 s).

    python3 perfbench/selfcheck.py

1. Runs the benchmark command on the ``tiny`` workload untraced and traced,
   and checks that the result line names every end-to-end, respectively
   per-layer, metric of ``BENCHMARK.json`` with its unit.
2. Corrupts the predictions in turn (shifted means, a non-finite mean, a
   non-positive variance, a dropped row) and checks that the correctness
   check fires: ``correct`` is false, ``failed`` is at least 1 and the exit
   code is not 0.

Exits 0 when every check holds.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys

import run

SECONDS = "2"


def _last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


def check_names(bench: dict, problems: list) -> None:
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        done = subprocess.run(
            [sys.executable, str(run.HERE / "run.py"), "--workload", "tiny", "--seed", "0",
             "--seconds", SECONDS, "--trace", str(trace)],
            cwd=run.ROOT, capture_output=True, text=True, timeout=170,
        )
        if done.returncode != 0:
            problems.append(f"trace {trace}: exit {done.returncode}: {done.stderr[-500:]}")
            continue
        result = _last_json(done.stdout)
        expected = {m["name"]: m["unit"] for m in bench[key]}
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        if printed != expected:
            problems.append(f"trace {trace}: printed {sorted(printed.items())}, expected {sorted(expected.items())}")
        if not result["correct"] or result["failed"] or result["attempted"] < 1:
            problems.append(f"trace {trace}: clean run not accepted: {result}")
        print(f"trace {trace}: {len(printed)} metrics, exit 0", flush=True)


def check_corruptions(problems: list) -> None:
    import numpy as np
    from hiermogp import prediction

    corruptions = {
        "shifted mean": lambda m: type(m)(mean=m.mean + 5.0, variance=m.variance),
        "non-finite mean": lambda m: type(m)(mean=np.full_like(m.mean, np.nan), variance=m.variance),
        "non-positive variance": lambda m: type(m)(mean=m.mean, variance=-m.variance),
        "dropped row": lambda m: type(m)(mean=m.mean[1:], variance=m.variance[1:]),
    }
    original = prediction.predict_marginal
    for label, corrupt in corruptions.items():
        prediction.predict_marginal = lambda *a, _c=corrupt, **k: _c(original(*a, **k))
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                code = run.main(["--workload", "tiny", "--seed", "0", "--seconds", SECONDS])
        finally:
            prediction.predict_marginal = original
        result = _last_json(out.getvalue())
        if code == 0 or result["correct"] or result["failed"] < 1:
            problems.append(f"{label}: check did not fire (exit {code}, {result})")
        print(f"{label}: exit {code}, failed {result['failed']} of {result['attempted']}", flush=True)


def main() -> int:
    run.pin_threads()
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems: list = []
    check_names(bench, problems)
    run.setup("tiny", 0)  # puts the library on the import path
    check_corruptions(problems)
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    print("self-check " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
