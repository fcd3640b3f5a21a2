"""Record the scores the benchmark's correctness check holds each seed to.

    python3 perfbench/record_reference.py

Runs one experiment per workload and seed (seeds 0-299 and the held-out
seed 1000 unless ``--seeds`` says otherwise; no timing) and writes
``perfbench/reference.json``, keeping the records of other workloads and
seeds: the seed's nmse, nlpd and bound, and per workload the envelope of
all its recorded seeds, which seeds without a record must stay inside.
Record again only when the model's results are meant to change.
"""

from __future__ import annotations

import argparse
import json
import sys

import run

DEFAULT_SEED = 0  # the benchmark command's default
HELD_OUT_SEED = 1000  # kept for checking a claimed gain on a seed not used while writing it

# Tolerances for a recorded seed: loose enough for a different summation
# order in the bound or the predictor, tight enough that a wrong formula or
# a corrupted prediction fails.
TOLERANCE = {
    "nmse": {"abs": 0.01, "rel": 0.02},
    "nlpd": {"abs": 0.05, "rel": 0.0},
    "final_elbo": {"abs": 1e-3, "rel": 1e-4},
}


ENVELOPE_MARGIN = 0.5  # share of the recorded range added on each side


def _envelope(values):
    """[min, max] of the recorded values, widened on each side by
    ``ENVELOPE_MARGIN`` times their range."""
    low, high = min(values), max(values)
    pad = ENVELOPE_MARGIN * (high - low)
    return [low - pad, high + pad]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", nargs="+", type=int, default=[*range(300), HELD_OUT_SEED])
    parser.add_argument("--workloads", nargs="+", default=["desk", "wide", "replicas", "shared_grid", "tiny"])
    args = parser.parse_args(argv)
    run.pin_threads()
    path = run.HERE / "reference.json"
    out = json.loads(path.read_text()) if path.exists() else {"workloads": {}}
    out.update(default_seed=DEFAULT_SEED, held_out_seed=HELD_OUT_SEED, tolerance=TOLERANCE)
    for name in args.workloads:
        seeds = out["workloads"].get(name, {}).get("seeds", {})
        for seed in args.seeds:
            prepared, _, _ = run.setup(name, seed)
            import workloads

            exp = workloads.run_experiment(prepared)
            if exp.failed:
                print(f"{name} seed {seed}: {exp.errors}", file=sys.stderr)
                return 1
            seeds[str(seed)] = {"nmse": exp.nmse, "nlpd": exp.nlpd, "final_elbo": exp.final_elbo}
            print(f"{name} seed {seed}: {seeds[str(seed)]}", flush=True)
        envelope = {
            key: _envelope([s[key] for s in seeds.values()])
            for key in ("nmse", "nlpd", "final_elbo")
        }
        envelope["nmse"][0] = max(envelope["nmse"][0], 0.0)
        out["workloads"][name] = {"seeds": seeds, "envelope": envelope}
    path.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
