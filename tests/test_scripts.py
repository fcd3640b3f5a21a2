"""The scripts under ``scripts/`` run end to end on their smallest settings."""

import json
import math
import re
from pathlib import Path

import numpy as np

from .helpers import run_child

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_scale_step_reports_one_tape_count_for_every_shape():
    done = run_child(str(SCRIPTS / "scale_step.py"), "--steps", "1")
    assert done.returncode == 0, done.stderr[-2000:]
    lines = done.stdout.strip().splitlines()
    counts = [re.search(r"(\d+) tape nodes$", line) for line in lines]
    assert len(lines) == 5 and all(counts), done.stdout
    assert len({int(c.group(1)) for c in counts}) == 1, done.stdout
    for label in (r"us/block(?! seen)", r"us/block seen"):  # points the state has not seen, and a repeated block
        blocks = [re.search(r"([\d.]+) " + label, line) for line in lines]
        assert all(blocks) and all(float(b.group(1)) > 0.0 for b in blocks), done.stdout
    faults = [re.search(r"user +[\d.]+ +sys +[\d.]+ ms/step +([\d.]+) faults/step", line) for line in lines]
    assert all(faults), done.stdout


def test_gene_style_study_runs_from_its_csv(tmp_path):
    # save_csv, load_csv with standardisation, experiment and its sidecars
    done = run_child(str(SCRIPTS / "run_gene_style.py"), "--repeats", "2", "--iterations", "3", "--out", str(tmp_path))
    assert done.returncode == 0, done.stderr[-2000:]
    assert (tmp_path / "gene_style.csv.meta.json").exists()
    summary = json.loads((tmp_path / "experiment" / "summary.json").read_text())
    assert summary["repeats"] == 2 and len(summary["nmse_values"]) == 2
    assert all(math.isfinite(summary[key]) for key in ("nmse_mean", "nmse_sd", "nlpd_mean", "nlpd_sd"))


def test_fit_digest_prints_one_repeatable_line_per_shape():
    for shape in ("tiny", "tiny-flat"):  # the hierarchical model and the flat ablation
        runs = [run_child(str(SCRIPTS / "fit_digest.py"), "--shapes", shape, "--seeds", "0") for _ in range(2)]
        for done in runs:
            assert done.returncode == 0, done.stderr[-2000:]
        lines = runs[0].stdout.strip().splitlines()
        line = shape + r" +seed 0 +fit [0-9a-f]{64}  step [0-9a-f]{64}  predict [0-9a-f]{64}"
        assert len(lines) == 1 and re.fullmatch(line, lines[0]), lines
        assert runs[1].stdout == runs[0].stdout


def test_fit_digest_dumps_states_and_compares_dumps(tmp_path):
    def digest(*args):
        done = run_child(str(SCRIPTS / "fit_digest.py"), *map(str, args))
        assert done.returncode in (0, 1), done.stderr[-2000:]
        return done

    dumps = [tmp_path / "a.npz", tmp_path / "b.npz"]
    for path in dumps:
        assert digest("--shapes", "tiny", "--seeds", "0", "--dump", path).returncode == 0
    with np.load(dumps[0]) as dump:
        arrays = {key: dump[key] for key in dump.files}
    # the initial state and three perturbed ones, each with its bound breakdown,
    # gradient, jitters and every held-out block's predictive moments
    assert {key.split("/")[2] for key in arrays} == {f"state{k}" for k in range(4)}
    quantities = {"data_fit", "kl_inducing", "kl_latent", "gradient", "jitter_kuu_h", "jitter_kuu_x", "mean", "variance"}
    assert {key.split("/")[3] for key in arrays} == quantities
    gradients = [arrays[f"tiny/seed0/state{k}/gradient"] for k in range(4)]
    assert all(not np.array_equal(gradients[0], g) for g in gradients[1:])

    same = digest("--compare", *dumps)
    lines = same.stdout.strip().splitlines()
    assert same.returncode == 0 and len(lines) == len(quantities), same.stdout
    assert all(float(line.split()[2]) == 0.0 for line in lines), same.stdout

    # one value changed in a copy shows at its quantity and key, and nowhere else
    key = "tiny/seed0/state2/gradient"
    arrays[key] = arrays[key].copy()
    arrays[key][1] *= 1.0 + 1e-6
    np.savez(tmp_path / "c.npz", **arrays)
    changed = digest("--compare", dumps[0], tmp_path / "c.npz")
    moved = [line for line in changed.stdout.strip().splitlines() if float(line.split()[2]) != 0.0]
    assert changed.returncode == 0 and len(moved) == 1, changed.stdout
    assert moved[0].split()[1] == "gradient" and moved[0].endswith(key) and 0.0 < float(moved[0].split()[2]) <= 1e-6

    # dumps that hold different keys are not compared
    del arrays["tiny/seed0/state0/mean/0"]
    np.savez(tmp_path / "d.npz", **arrays)
    missing = digest("--compare", dumps[0], tmp_path / "d.npz")
    assert missing.returncode == 1 and "tiny/seed0/state0/mean/0" in missing.stdout
