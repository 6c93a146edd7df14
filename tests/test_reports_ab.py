from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SCRIPT = REPO / "scripts" / "reports_ab.py"
SRC = REPO / "src"


def test_reports_ab_passes_a_tree_against_itself_and_names_an_edited_report_file(tmp_path):
    same = subprocess.run([sys.executable, str(SCRIPT), str(SRC), str(SRC)], capture_output=True, text=True)
    assert same.returncode == 0, same.stdout + same.stderr
    assert same.stdout.splitlines()[-1] == "same results"

    edited = tmp_path / "src"
    shutil.copytree(SRC, edited, ignore=shutil.ignore_patterns("__pycache__"))
    evaluate = edited / "ms2smiles" / "evaluate.py"
    text = evaluate.read_text(encoding="utf-8")
    assert text.count('"Think Rate (%)"') == 1
    evaluate.write_text(text.replace('"Think Rate (%)"', '"Think rate (%)"'), encoding="utf-8")
    differ = subprocess.run([sys.executable, str(SCRIPT), str(SRC), str(edited)], capture_output=True, text=True)
    assert differ.returncode == 1, differ.stdout + differ.stderr
    assert differ.stdout.splitlines() == [
        "fixture parallelism 1 workers 1: reports/aggregate.csv differs",
        "fixture parallelism 2 workers 2: reports/aggregate.csv differs",
        "2 differences",
    ]
