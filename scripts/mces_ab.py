#!/usr/bin/env python3
"""Compare two versions of ``similarity/mces.py``: same results, and how fast.

Usage: python scripts/mces_ab.py OLD_MCES_PY NEW_MCES_PY

Both files are loaded as sibling modules of the ``ms2smiles.similarity``
package (the importable one, else this checkout's ``src``), so each runs
against the same chemistry code.  The 11 pairs of
``bench/data/large_library.tsv`` and every ``bench/data/pairs.tsv`` pair
are run at budget 4096 and at the default budget.  Per set and budget it
prints the pairs whose ``(common_edges, optimal)`` differ, and apart from
those the number of pairs whose node counts differ, with each side's node
total.  A change that searches a different tree moves node counts only; a
change that claims the same tree must also show 0 node differences.

Then the two versions take ``TURNS`` turns each, alternating which goes
first, timing each heavy library slot (one whose search expands at least
1000 nodes at the default budget) and the whole of ``pairs.tsv`` at budget
4096 in CPU time, twice:

* cold: on freshly parsed molecules each time, so every call builds its
  profiles as a first call would;
* warm: on one molecule per SMILES whose profiles that side's ``_profile``
  built before the clock started, so the time is the per-search cost that
  ``evaluate`` pays once a molecule is memoized.  Each side has its own
  molecule set, because both sides cache into ``Molecule._mces``.

Prints per workload and mode the median [lower quartile, upper quartile]
CPU-ms per side and the old/new ratio of the medians, then one closing
line saying whether every
set and budget had identical values and 0 node differences, that is,
whether the two versions search the same tree.  Exits 1 if any value or
``optimal`` flag differs, whatever the node counts.  Standard library only.
"""

from __future__ import annotations

import argparse
import csv
import importlib.util
import statistics
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
PAIRS_BUDGET = 4096
HEAVY_NODES = 1000
TURNS = 11  # timed turns per side

try:
    import ms2smiles  # noqa: F401
except ImportError:
    sys.path.insert(0, str(REPO / "src"))

from ms2smiles.chem import mol_from_smiles  # noqa: E402


def load_sibling(path: Path, name: str):
    """Import ``path`` as ``ms2smiles.similarity.<name>``, so its relative
    imports resolve inside the package."""
    spec = importlib.util.spec_from_file_location(f"ms2smiles.similarity.{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def read_pairs(name: str, columns: tuple[str, str]) -> list[tuple[str, str]]:
    with open(REPO / "bench" / "data" / name, newline="", encoding="utf-8") as fh:
        return [(row[columns[0]], row[columns[1]]) for row in csv.DictReader(fh, delimiter="\t")]


def results(module, pairs, budget: int) -> list[tuple[int, bool, int]]:
    """``(common_edges, optimal, nodes)`` per pair, on freshly parsed molecules."""
    mols = [(mol_from_smiles(a), mol_from_smiles(b)) for a, b in pairs]
    out = []
    for a, b in mols:
        r = module.mces(a, b, budget)
        out.append((r.common_edges, r.optimal, r.nodes))
    return out


def warm_pairs(module, pairs) -> list:
    """One molecule per SMILES, with ``module``'s profile already built."""
    mols = {smiles: mol_from_smiles(smiles) for pair in pairs for smiles in pair}
    for mol in mols.values():
        module._profile(mol)
    return [(mols[a], mols[b]) for a, b in pairs]


def cpu_ms(module, mols, budget: int) -> float:
    start = time.process_time()
    for a, b in mols:
        module.mces(a, b, budget)
    return 1000.0 * (time.process_time() - start)


def summary(values: list[float]) -> str:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"{median:.1f} [{q1:.1f}, {q3:.1f}]"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    sides = {"old": load_sibling(args.old, "_mces_ab_old"), "new": load_sibling(args.new, "_mces_ab_new")}
    budget = sides["old"].DEFAULT_MCES_BUDGET
    library = read_pairs("large_library.tsv", ("ground_truth", "candidate"))
    reference = read_pairs("pairs.tsv", ("ground_truth", "candidate"))

    same = True
    node_diffs = 0
    library_nodes = []
    for label, pairs in (("library", library), ("pairs.tsv", reference)):
        for pair_budget in (PAIRS_BUDGET, budget):
            old, new = (results(module, pairs, pair_budget) for module in sides.values())
            diff = [i for i, (x, y) in enumerate(zip(old, new)) if x[:2] != y[:2]]
            same = same and not diff
            status = "values identical" if not diff else f"values DIFFERENT at {len(diff)} pairs, first {diff[:10]}"
            moved = sum(x[2] != y[2] for x, y in zip(old, new))
            node_diffs += moved
            totals = f"old {sum(r[2] for r in old)}, new {sum(r[2] for r in new)}"
            print(f"{label}: {len(pairs)} pairs at budget {pair_budget}, {status}; "
                  f"nodes differ at {moved} pairs (totals {totals})")
            if label == "library" and pair_budget == budget:
                library_nodes = [nodes for _, _, nodes in old]

    heavy = [slot for slot, nodes in enumerate(library_nodes) if nodes >= HEAVY_NODES]
    workloads = [(f"slot {slot}", [library[slot]], budget) for slot in heavy]
    workloads.append(("pairs.tsv", reference, PAIRS_BUDGET))
    warm = {(name, side): warm_pairs(module, pairs) for name, pairs, _ in workloads for side, module in sides.items()}
    modes = ("cold", "warm")
    times = {(name, mode, side): [] for name, _, _ in workloads for mode in modes for side in sides}
    for turn in range(TURNS):
        order = ("old", "new") if turn % 2 == 0 else ("new", "old")
        for name, pairs, pair_budget in workloads:
            for side in order:
                fresh = [(mol_from_smiles(a), mol_from_smiles(b)) for a, b in pairs]
                times[name, "cold", side].append(cpu_ms(sides[side], fresh, pair_budget))
                times[name, "warm", side].append(cpu_ms(sides[side], warm[name, side], pair_budget))

    print(f"CPU ms, median [quartiles] of {TURNS} alternating turns per side "
          "(cold: fresh molecules; warm: profiles built before the clock)")
    for name, _, _ in workloads:
        for mode in modes:
            old, new = times[name, mode, "old"], times[name, mode, "new"]
            ratio = statistics.median(old) / statistics.median(new)
            print(f"{name + ' ' + mode:>15}: old {summary(old)}  new {summary(new)}  old/new {ratio:.2f}x")
    if same and not node_diffs:
        print("same tree: identical values and 0 node differences at every set and budget")
    else:
        values = "identical values" if same else "values DIFFERENT"
        print(f"not the same tree: {values}, nodes differ at {node_diffs} pairs over all sets and budgets")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
