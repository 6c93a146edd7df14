from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SCRIPT = REPO / "scripts" / "perception_ab.py"
SRC = REPO / "src"


def test_perception_ab_passes_a_tree_against_itself_and_names_a_moved_kekule_pattern(tmp_path):
    same = subprocess.run([sys.executable, str(SCRIPT), str(SRC), str(SRC), "--turns", "1"], capture_output=True, text=True)
    assert same.returncode == 0, same.stdout + same.stderr
    lines = same.stdout.splitlines()
    assert lines[0].endswith("SMILES compared, 0 differ")
    assert lines[-1] == "same perception"

    edited = tmp_path / "src"
    shutil.copytree(SRC, edited, ignore=shutil.ignore_patterns("__pycache__"))
    perception = edited / "ms2smiles" / "chem" / "perception.py"
    text = perception.read_text(encoding="utf-8")
    # Try each atom's partners in reverse rank order: another Kekulé pattern, the same molecule.
    assert text.count("row.sort(key=lambda v: (ranks[v], v))") == 1
    perception.write_text(text.replace("row.sort(key=lambda v: (ranks[v], v))", "row.sort(key=lambda v: (-ranks[v], v))"))
    differ = subprocess.run([sys.executable, str(SCRIPT), str(SRC), str(edited), "--turns", "0"], capture_output=True, text=True)
    assert differ.returncode == 1, differ.stdout + differ.stderr
    lines = differ.stdout.splitlines()
    assert lines[-1].endswith("SMILES differ, 0 failed processes")
    differing = lines[:-2]
    assert "c1ccc2c(c1)cc[nH]2: orders differ" in differing  # indole
    assert all(line.endswith(", orders differ") or line.endswith(": orders differ") for line in differing)
