"""The scripts under ``scripts/`` run end to end on their smallest settings."""

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
    blocks = [re.search(r"([\d.]+) us/block ", line) for line in lines]
    assert all(blocks) and all(float(b.group(1)) > 0.0 for b in blocks), done.stdout
