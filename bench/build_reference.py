#!/usr/bin/env python3
"""Build the benchmark's fixed molecule universes and reference tables.

Writes ``data/small_universe.tsv`` (a seeded selection from the bundled
corpus), ``data/large_library.tsv`` (fragment-assembled ground truths and
candidates from ``largegen``), ``data/molecules.tsv`` (formula, DBE and weight bin of every
valid molecule) and ``data/pairs.tsv`` (Tanimoto and MCES of every ground
truth / candidate pair a workload seed can produce).  The tables record what
the package computed when they were built; later versions are checked
against them.

Usage: python3 bench/build_reference.py   (takes a few minutes)
"""

from __future__ import annotations

import csv
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from ms2smiles.chem import ChemError, canonical_formula, dbe, mol_from_smiles, molecular_formula, monoisotopic_mass  # noqa: E402
from ms2smiles.dataset import weight_bin_for_mass  # noqa: E402
from ms2smiles.similarity import mces, morgan_fingerprint, tanimoto  # noqa: E402

import largegen  # noqa: E402
from workloads import DATA, INVALID_SMILES, MCES_BUDGET  # noqa: E402

SEED = 20261017
SMALL_UNIVERSE = 48  # ground truths, and as many pool molecules
CORPUS = HERE.parent / "tests" / "data" / "corpus_smiles.txt"


def _write(path: Path, header: tuple[str, ...], rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, delimiter="\t", lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def small_universe() -> tuple[list[str], list[str]]:
    eligible = []
    for line in CORPUS.read_text(encoding="utf-8").splitlines():
        smiles = line.strip()
        if not smiles or smiles.startswith("#") or "." in smiles:
            continue
        if 3 <= mol_from_smiles(smiles).n_bonds <= 24:
            eligible.append(smiles)
    chosen = random.Random(SEED).sample(eligible, 2 * SMALL_UNIVERSE)
    return chosen[:SMALL_UNIVERSE], chosen[SMALL_UNIVERSE:]


def main() -> int:
    for smiles in INVALID_SMILES:
        try:
            mol_from_smiles(smiles)
        except ChemError:
            continue
        raise SystemExit(f"{smiles!r} was meant to be invalid")

    ground_truths, pool = small_universe()
    _write(DATA / "small_universe.tsv", ("role", "smiles"),
           [("ground_truth", s) for s in ground_truths] + [("pool", s) for s in pool])

    library = largegen.build_library(SEED)
    _write(DATA / "large_library.tsv", ("slot", "class", "ground_truth", "relation", "candidate"),
           [(f.slot, f.cls, f.base.smiles, f.relation, f.partner.smiles) for f in library])

    pairs = [(gt, c) for gt in ground_truths for c in [gt, *pool]]
    pairs += [(f.base.smiles, f.partner.smiles) for f in library]

    mols = {}
    for smiles in {s for pair in pairs for s in pair}:
        mols[smiles] = mol_from_smiles(smiles)
    mol_rows = []
    for smiles in sorted(mols):
        counts = molecular_formula(mols[smiles])
        mol_rows.append((smiles, canonical_formula(counts), repr(dbe(counts)), weight_bin_for_mass(monoisotopic_mass(counts))))
    _write(DATA / "molecules.tsv", ("smiles", "formula", "dbe", "bin"), mol_rows)

    fps = {s: morgan_fingerprint(m) for s, m in mols.items()}
    pair_rows = []
    for n, (gt, cand) in enumerate(pairs, start=1):
        result = mces(mols[gt], mols[cand], budget=MCES_BUDGET)
        pair_rows.append((gt, cand, repr(tanimoto(fps[gt], fps[cand])), repr(result.dissimilarity), int(result.optimal)))
        if n % 500 == 0:
            print(f"{n}/{len(pairs)} pairs", file=sys.stderr)
    _write(DATA / "pairs.tsv", ("ground_truth", "candidate", "tanimoto", "mces", "optimal"), pair_rows)
    truncated = sum(1 for row in pair_rows if not row[4])
    print(f"{len(mol_rows)} molecules, {len(pair_rows)} pairs ({truncated} truncated at reference time)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
