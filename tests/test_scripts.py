"""The scripts under ``scripts/`` run end to end on their smallest settings."""

import json
import math
import re
from pathlib import Path

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
    runs = [run_child(str(SCRIPTS / "fit_digest.py"), "--shapes", "tiny", "--seeds", "0") for _ in range(2)]
    for done in runs:
        assert done.returncode == 0, done.stderr[-2000:]
    lines = runs[0].stdout.strip().splitlines()
    assert len(lines) == 1 and re.fullmatch(r"tiny +seed 0 +fit [0-9a-f]{64}  step [0-9a-f]{64}  predict [0-9a-f]{64}", lines[0]), lines
    assert runs[1].stdout == runs[0].stdout
