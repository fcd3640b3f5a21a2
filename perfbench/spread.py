"""Run the benchmark command once per seed and report each metric's spread.

    python3 perfbench/spread.py --workloads desk wide --seeds 1 2 3 4 5
    python3 perfbench/spread.py --seeds $(seq 1 10) --out perfbench/baseline.json

Reads the command, ``run_seconds`` and the metric bounds from
``BENCHMARK.json`` and runs every seed of a workload in turn, untraced.
For each end-to-end metric it prints the median, the quartiles
(``statistics.quantiles`` with n=4) and the spread, the distance between
the quartiles as a share of the median, next to a third of the metric's
bound. With ``--out`` it writes the summary, every run's values and the
first run's environment as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def summarise(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / abs(median),
        "values": values,
    }


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    report = {"run_seconds": bench["run_seconds"], "workloads": {}}
    worst = 0.0
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            started = time.perf_counter()
            done = subprocess.run(
                bench["command"] + ["--workload", workload, "--seed", str(seed),
                                    "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=900,
            )
            wall = time.perf_counter() - started
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr[-2000:]}", file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            details = json.loads(lines[-2])
            runs.append({"seed": seed, "wall_s": wall, "result": result, "scores": details["scores"]})
            report.setdefault("environment", details["environment"])
            print(f"{workload} seed {seed}: {wall:.1f} s, correct={result['correct']}", flush=True)
        metrics = {}
        for name in bounds:
            metrics[name] = summarise([r["result"]["metrics"][name]["value"] for r in runs])
            bound = bounds[name]
            worst = max(worst, metrics[name]["spread"] / bound)
            flag = "  OVER A THIRD OF BOUND" if metrics[name]["spread"] > bound / 3 else ""
            print(f"  {name:48s} median {metrics[name]['median']:12.5g}  spread {metrics[name]['spread']:.4f}"
                  f"  bound/3 {bound / 3:.4f}{flag}")
        report["workloads"][workload] = {
            "seeds": args.seeds,
            "metrics": metrics,
            "run_wall_s": summarise([r["wall_s"] for r in runs]),
            "correct": all(r["result"]["correct"] for r in runs),
            "scores": {r["seed"]: r["scores"] for r in runs},
        }
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"largest spread as a share of its bound: {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
