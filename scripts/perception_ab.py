#!/usr/bin/env python3
"""Check that two source trees perceive every molecule alike, and time parsing.

Usage: python scripts/perception_ab.py OLD_SRC NEW_SRC [--turns N]

Each SRC is a directory holding the ``ms2smiles`` package (a checkout's
``src``).  The SMILES are the bundled corpus, the ``smiles`` column of
``bench/data/molecules.tsv``, ``bench/workloads.INVALID_SMILES`` and
``EDGE_SPELLINGS``: fused ring systems whose input-aromatic bonds are not
all perceived aromatic, each written in lowercase and with explicit ``-``.
``bench/`` is read, never written.

For each tree, a fresh Python process with that SRC first on its path
parses every SMILES.  Per SMILES the two trees must agree on validity and
error class, and for a valid molecule on its canonical SMILES, bond orders
(the Kekulé pattern), hydrogens, aromatic atoms and bonds, and Morgan
fingerprint.  Each SMILES that differs is printed with the fields that do.

Then the two trees take ``--turns`` turns each, alternating which goes
first.  In a turn, each of two sets, the 22 molecules of
``bench/data/large_library.tsv`` and the 96 of
``bench/data/small_universe.tsv``, gets a fresh process that parses the
set once and then fingerprints the parsed molecules once, timing each step
in CPU time, so both steps start from cold per-process memos.  Prints per
set and step the median [lower quartile, upper quartile] CPU-ms per tree
and the old/new ratio of the medians.  Exits 1 if any SMILES differs or a
process fails on either tree.  Standard library only.
"""

from __future__ import annotations

import argparse
import csv
import json
import statistics
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
CORPUS = REPO / "tests" / "data" / "corpus_smiles.txt"
BENCH_DATA = REPO / "bench" / "data"
EDGE_SPELLINGS = (
    "c1ccc2c3ccccc3c2c1",  # biphenylene
    "c1ccc-2c(c1)-c1ccccc-21",
    "c1ccc2c(c1)c1cccc3cccc2c13",  # fluoranthene
    "c1ccc-2c(c1)-c1cccc3cccc-2c13",
    "Cc1ccc2c3ccccc3c2c1",  # 2-methylbiphenylene
    "Cc1ccc-2c(c1)-c1ccccc-21",
)

# Runs in the child process: SRC first on the path, and the package must come
# from it.  Reads a JSON list of SMILES lists on stdin, writes JSON on stdout.
CHILD = """
import json, sys, time
from pathlib import Path
src, mode = sys.argv[1:]
sys.path.insert(0, src)
import ms2smiles
if not Path(ms2smiles.__file__).resolve().is_relative_to(Path(src).resolve()):
    sys.exit(f"ms2smiles imported from {ms2smiles.__file__}, not from {src}")
from ms2smiles.chem import ChemError, canonical_smiles, mol_from_smiles
from ms2smiles.similarity.fingerprints import morgan_fingerprint

groups = json.load(sys.stdin)
if mode == "time":
    morgan_fingerprint(mol_from_smiles("Oc1ccccc1"))  # first-call costs are not a molecule's
    (group,) = groups
    start = time.process_time()
    mols = [mol_from_smiles(smiles) for smiles in group]
    parsed = time.process_time()
    for mol in mols:
        morgan_fingerprint(mol)
    done = time.process_time()
    json.dump([1000.0 * (parsed - start), 1000.0 * (done - parsed)], sys.stdout)
    sys.exit()

def perceived(smiles):
    try:
        mol = mol_from_smiles(smiles)
    except ChemError as exc:
        return {"error": type(exc).__name__}
    return {
        "canonical": canonical_smiles(mol),
        "orders": [int(b.order) for b in mol.bonds],
        "hydrogens": list(mol.hydrogens),
        "aromatic_atoms": sorted(mol.aromatic_atoms),
        "aromatic_bonds": sorted(mol.aromatic_bonds),
        "fingerprint": format(morgan_fingerprint(mol), "x"),
    }

json.dump([[perceived(smiles) for smiles in group] for group in groups], sys.stdout)
"""


def read_column(path: Path, column: str) -> list[str]:
    with open(path, newline="", encoding="utf-8") as fh:
        return [row[column] for row in csv.DictReader(fh, delimiter="\t")]


def compared_smiles() -> list[str]:
    sys.dont_write_bytecode = True  # leave bench/ as it is
    sys.path.insert(0, str(REPO / "bench"))
    import workloads

    corpus = [line.strip() for line in CORPUS.read_text(encoding="utf-8").splitlines()]
    corpus = [line for line in corpus if line and not line.startswith("#")]
    listed = corpus + read_column(BENCH_DATA / "molecules.tsv", "smiles")
    listed += [*workloads.INVALID_SMILES, *EDGE_SPELLINGS]
    return list(dict.fromkeys(listed))


def timed_sets() -> dict[str, list[str]]:
    library = BENCH_DATA / "large_library.tsv"
    return {
        "large_library": read_column(library, "ground_truth") + read_column(library, "candidate"),
        "small_universe": read_column(BENCH_DATA / "small_universe.tsv", "smiles"),
    }


def child(src: Path, mode: str, groups: list[list[str]]):
    """The child's JSON answer, or a string saying why it failed."""
    done = subprocess.run(
        [sys.executable, "-c", CHILD, str(src), mode], input=json.dumps(groups), capture_output=True, text=True
    )
    if done.returncode != 0:
        return f"exit {done.returncode}: {(done.stderr or done.stdout).strip()[-500:]}"
    return json.loads(done.stdout)


def summary(values: list[float]) -> str:
    if len(values) < 2:
        return f"{values[0]:.1f}"
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"{median:.1f} [{q1:.1f}, {q3:.1f}]"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_src", type=Path)
    parser.add_argument("new_src", type=Path)
    parser.add_argument("--turns", type=int, default=11, help="timed turns per tree (default: 11)")
    args = parser.parse_args(argv)
    sides = {"old": args.old_src.resolve(), "new": args.new_src.resolve()}

    smiles = compared_smiles()
    failures = 0
    results = {}
    for side, src in sides.items():
        answer = child(src, "results", [smiles])
        if isinstance(answer, str):
            print(f"{side}: {answer}")
            failures += 1
        else:
            results[side] = answer[0]
    differing = 0
    if len(results) == 2:
        for text, old, new in zip(smiles, results["old"], results["new"]):
            fields = sorted(f for f in old.keys() | new.keys() if old.get(f) != new.get(f))
            if fields:
                print(f"{text}: {', '.join(fields)} differ")
                differing += 1
        print(f"{len(smiles)} SMILES compared, {differing} differ")

    sets = timed_sets()
    steps = ("parse", "fingerprint")
    times = {(name, step, side): [] for name in sets for step in steps for side in sides}
    for turn in range(args.turns):
        for side in ("old", "new") if turn % 2 == 0 else ("new", "old"):
            for name, group in sets.items():
                answer = child(sides[side], "time", [group])
                if isinstance(answer, str):
                    print(f"{side} turn {turn} {name}: {answer}")
                    failures += 1
                    continue
                for step, ms in zip(steps, answer):
                    times[name, step, side].append(ms)
    if args.turns and not failures:
        for step in steps:
            print(f"cold {step} CPU ms, median [quartiles] of {args.turns} alternating turns per tree")
            for name, group in sets.items():
                old, new = times[name, step, "old"], times[name, step, "new"]
                ratio = statistics.median(old) / statistics.median(new)
                print(f"{name} ({len(group)}): old {summary(old)}  new {summary(new)}  old/new {ratio:.2f}x")
    same = not failures and not differing
    print("same perception" if same else f"{differing} SMILES differ, {failures} failed processes")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
