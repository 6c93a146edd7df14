from __future__ import annotations

import csv
import importlib
import itertools
import math
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import ms2smiles
from ms2smiles.chem import canonical_formula, mol_from_smiles, molecular_formula, write_smiles
from ms2smiles.chem.mol import Molecule
from ms2smiles.similarity import DEFAULT_MCES_BUDGET, McesResult, mces, mces_floor

from oracles import brute_force_mces, seeded_lower_bound_all_pairs

mces_module = importlib.import_module("ms2smiles.similarity.mces")


def test_identity():
    mol = mol_from_smiles("NC(Cc1ccc(O)cc1)C(=O)O")
    result = mces(mol, mol)
    assert result.common_edges == mol.n_bonds
    assert result.dissimilarity == 0.0
    assert result.optimal


def test_ethanol_vs_propane():
    result = mces(mol_from_smiles("CCO"), mol_from_smiles("CCC"))
    assert result.common_edges == 1
    assert result.dissimilarity == 0.5


def test_degenerate_edge_free_pairs():
    assert mces(mol_from_smiles("C"), mol_from_smiles("C")).dissimilarity == 0.0
    assert mces(mol_from_smiles("C"), mol_from_smiles("O")).dissimilarity == 1.0
    assert mces(mol_from_smiles("C"), mol_from_smiles("CC")).dissimilarity == 1.0
    assert mces(mol_from_smiles("[Na+].[Cl-]"), mol_from_smiles("[Na+].[Cl-]")).dissimilarity == 1.0
    for a, b in (("C", "C"), ("C", "CC"), ("CC", "[Na+].[Cl-]")):
        assert mces_floor(mol_from_smiles(a), mol_from_smiles(b)) == 0.0


def test_bond_orders_must_match():
    result = mces(mol_from_smiles("C=C"), mol_from_smiles("CC"))
    assert result.common_edges == 0
    assert result.dissimilarity == 1.0


def test_symmetry(corpus):
    rng = random.Random(3)
    mols = [mol_from_smiles(s) for s in rng.sample(corpus, 24)]
    for i in range(0, len(mols) - 1, 2):
        a, b = mols[i], mols[i + 1]
        assert mces(a, b).dissimilarity == pytest.approx(mces(b, a).dissimilarity)


def test_oracle_equivalence_sample(corpus):
    small = [s for s in corpus if mol_from_smiles(s).n_atoms <= 8]
    rng = random.Random(5)
    for _ in range(40):
        a = mol_from_smiles(rng.choice(small))
        b = mol_from_smiles(rng.choice(small))
        got = mces(a, b, budget=10**6)
        assert got.optimal
        assert got.common_edges == brute_force_mces(a, b)


def test_kekulized_vs_aromatic_same_molecule_is_zero():
    a = mol_from_smiles("OC1=CC=CC=C1CC(N)C(=O)O")
    b = mol_from_smiles("O=C(O)C(N)Cc1ccccc1O")
    result = mces(a, b)
    assert result.dissimilarity == 0.0
    assert result.optimal


def test_removing_an_edge_never_helps():
    base = mol_from_smiles("CC(C)c1ccc(O)cc1")
    other = mol_from_smiles("CCCc1ccc(N)cc1")
    full = mces(base, other, budget=10**6).common_edges
    for drop in range(base.n_bonds):
        bonds = [b for i, b in enumerate(base.bonds) if i != drop]
        smaller = Molecule(
            atoms=base.atoms,
            bonds=bonds,
            hydrogens=base.hydrogens,
            ring_bonds=frozenset(),
            aromatic_atoms=base.aromatic_atoms,
            perceived=True,
        )
        assert mces(smaller, other, budget=10**6).common_edges <= full


# The search needs 3210 nodes to prove 13 common edges; seeding finds 12.
TERT_BUTYL_VS_NONYLPHENOL = ("CC(C)(C)c1ccc(C(=O)c2ccc(C(C)(C)C)cc2)cc1", "CCCCCCCCCc1ccc(O)cc1")


def test_budget_truncation_yields_lower_bound():
    a, b = (mol_from_smiles(s) for s in TERT_BUTYL_VS_NONYLPHENOL)
    quick = mces(a, b, budget=64)
    slow = mces(a, b, budget=4096)
    assert mces_floor(a, b) <= quick.dissimilarity
    assert quick.common_edges <= slow.common_edges
    assert quick.common_edges <= min(a.n_bonds, b.n_bonds)
    assert quick.dissimilarity >= slow.dissimilarity - 1e-12
    if not quick.optimal:
        assert quick.dissimilarity >= 1 - min(a.n_bonds, b.n_bonds) / max(a.n_bonds, b.n_bonds)


def test_result_bounds(corpus):
    rng = random.Random(17)
    for _ in range(20):
        a = mol_from_smiles(rng.choice(corpus))
        b = mol_from_smiles(rng.choice(corpus))
        r = mces(a, b, budget=4096)
        assert 0.0 <= mces_floor(a, b) <= r.dissimilarity <= 1.0
        assert r.common_edges <= min(a.n_bonds, b.n_bonds)


def test_node_budget_in_search_returns_best_lower_bound():
    a, b = (mol_from_smiles(s) for s in TERT_BUTYL_VS_NONYLPHENOL)
    pa, pb = mces_module._profile(a), mces_module._profile(b)
    seeded = mces_module._seeded_lower_bound(pa, pb, a.n_bonds)
    assert seeded < mces_module._degree_sequence_bound(pa, pb)
    # The root maps no bond, so a one-node search returns the seeded bound.
    assert mces(a, b, budget=1) == McesResult(seeded, 1 - seeded / a.n_bonds, False, 1)


def _bound_chain(a, b) -> tuple[int, int]:
    """Seeded lower bound and the degree-sequence upper bound."""
    pa, pb = mces_module._profile(a), mces_module._profile(b)
    no_cap = a.n_bonds + b.n_bonds + 1
    return mces_module._seeded_lower_bound(pa, pb, no_cap), mces_module._degree_sequence_bound(pa, pb)


def _shared_label_count(a, b) -> int:
    """Edges the two molecules' edge-label multisets have in common."""
    labels_a, labels_b = (
        Counter(label for _, _, label in mces_module._profile(m).edges) for m in (a, b)
    )
    return sum((labels_a & labels_b).values())


def test_bounds_bracket_the_oracle(corpus):
    small = [s for s in corpus if mol_from_smiles(s).n_atoms <= 8]
    special = ["C", "O", "CC", "CO", "C=O", "[Na+].[Cl-]", "CC.O", "CCO.CC", "C1CC1.N", "OC=O"]
    rng = random.Random(23)
    pairs = [(rng.choice(small), rng.choice(small)) for _ in range(200)]
    pairs += [(x, rng.choice(small)) for x in special for _ in range(3)]
    pairs += list(itertools.combinations(special, 2))
    for sa, sb in pairs:
        a, b = mol_from_smiles(sa), mol_from_smiles(sb)
        seeded, degree = _bound_chain(a, b)
        label = _shared_label_count(a, b)
        exact = brute_force_mces(a, b)
        assert seeded <= exact <= degree <= label, (sa, sb)
        assert (degree == 0) == (label == 0), (sa, sb)
        result = mces(a, b, budget=10**6)
        assert result.optimal and result.common_edges == exact
        assert mces_floor(a, b) <= result.dissimilarity


# Pairs whose line graphs match further than any atom map does: a triangle
# and a three-bond star have the same line graph.
LINE_GRAPH_TRAPS = (
    "C1CC1", "CC(C)C", "C1OC1", "CC(C)O", "C12CC1C2",
    "CC1(C)CC1", "C1=CC1", "CC=C(C)C", "N1CC1", "CN(C)C",
)


def test_search_equals_the_oracle(corpus):
    small = [s for s in corpus if mol_from_smiles(s).n_atoms <= 8]
    rng = random.Random(29)
    pairs = [(rng.choice(small), rng.choice(small)) for _ in range(300)]
    pairs += list(itertools.combinations_with_replacement(LINE_GRAPH_TRAPS, 2))
    for sa, sb in pairs:
        a, b = mol_from_smiles(sa), mol_from_smiles(sb)
        pa, pb = mces_module._profile(a), mces_module._profile(b)
        found, finished, _ = mces_module._mcsplit(pa, pb, 0, a.n_bonds + b.n_bonds, 10**6)
        assert finished and found == brute_force_mces(a, b), (sa, sb)


STEROID_ANALOG = (
    "CC12CCC(OC5OC(C(=O)O)C(OC6OC(C(=O)O)C(O)C(O)C6O)C(O)C5O)CC1CCC1C2CCC2(C)C(C(C)CCCC(C)C)CCC12",
    "CC12CCC(OC5OC(C(=O)O)C(OC6OC(CO)C(O)C(O)C6NC(C)=O)C(O)C5O)CC1CCC1C2CCC2(C)C(C(C)CCCC(C)C)CCC12",
)
PEPTIDE_ANALOG = (
    "NC(Cc9c[nH]cn9)C(=O)NC(C(C)CC)C(=O)NC(C)C(=O)NC(CCC(N)=O)C(=O)NC(C(C)C)C(=O)"
    "NC(Cc9ccc(O)cc9)C(=O)NC(C(C)C)C(=O)O",
    "NC(Cc9c[nH]cn9)C(=O)NC(Cc9c[nH]cn9)C(=O)NC(C)C(=O)NC(CCC(N)=O)C(=O)NC(C(C)C)C(=O)"
    "NC(Cc9ccc(O)cc9)C(=O)NC(C(C)C)C(=O)O",
)


@pytest.mark.parametrize(("pair", "common"), [(STEROID_ANALOG, 55), (PEPTIDE_ANALOG, 58)])
def test_large_analogs_are_certified_without_search(monkeypatch, pair, common):
    # Seeding meets the degree-sequence bound on the peptide pair.  On the
    # steroid pair it stops one edge short and a short search proves 55.
    seeded_to_the_bound = pair == PEPTIDE_ANALOG

    def no_search(*args):
        raise AssertionError("the partition search ran")

    if seeded_to_the_bound:
        monkeypatch.setattr(mces_module, "_mcsplit", no_search)
    a, b = (mol_from_smiles(s) for s in pair)
    result = mces(a, b)
    assert result.optimal
    assert result.common_edges == common
    assert result.dissimilarity == 1 - common / max(a.n_bonds, b.n_bonds)
    assert (result.nodes == 0) == seeded_to_the_bound


def test_seeding_runs_every_seed_whatever_the_budget(monkeypatch):
    # Seeding is fixed work outside the node budget: a pair the seeds
    # certify expands no node, and one node still gets every seed's bound.
    a, b = (mol_from_smiles(s) for s in PEPTIDE_ANALOG)
    assert mces(a, b, budget=1) == McesResult(58, 1 - 58 / max(a.n_bonds, b.n_bonds), True, 0)

    a, b = (mol_from_smiles(s) for s in TERT_BUTYL_VS_NONYLPHENOL)
    pa, pb = mces_module._profile(a), mces_module._profile(b)
    upper = mces_module._degree_sequence_bound(pa, pb)
    every_seed = mces_module._seeded_lower_bound(pa, pb, upper)
    monkeypatch.setattr(mces_module, "_SEEDS", 1)
    assert mces_module._seeded_lower_bound(pa, pb, upper) < every_seed
    monkeypatch.undo()
    assert mces(a, b, budget=1).common_edges == every_seed


def test_search_stops_at_exactly_the_node_budget():
    a, b = (mol_from_smiles(s) for s in TERT_BUTYL_VS_NONYLPHENOL)
    pa, pb = mces_module._profile(a), mces_module._profile(b)
    seeded = mces_module._seeded_lower_bound(pa, pb, a.n_bonds)
    upper = mces_module._degree_sequence_bound(pa, pb)
    full, finished, full_nodes = mces_module._mcsplit(pa, pb, seeded, upper, 10**6)
    assert finished and full < upper and full_nodes > 768

    found, finished, nodes = mces_module._mcsplit(pa, pb, seeded, upper, 768)
    assert not finished and nodes == 768
    assert seeded <= found <= full
    assert mces(a, b, budget=768) == McesResult(found, 1 - found / a.n_bonds, False, 768)
    # The search that needs exactly the budget finishes; one node less does not.
    assert mces(a, b, budget=full_nodes) == McesResult(full, 1 - full / a.n_bonds, True, full_nodes)
    assert not mces(a, b, budget=full_nodes - 1).optimal


def test_common_edges_never_decrease_as_the_budget_grows(corpus):
    rng = random.Random(47)
    pairs = [tuple(map(mol_from_smiles, TERT_BUTYL_VS_NONYLPHENOL))]
    while len(pairs) < 5:  # corpus pairs that the bounds leave to the search
        a, b = (mol_from_smiles(rng.choice(corpus)) for _ in range(2))
        if mces(a, b, budget=10**6).nodes > 16:
            pairs.append((a, b))
    truncated = 0
    for a, b in pairs:
        results = [mces(a, b, budget=4**e) for e in range(8)]
        truncated += sum(not r.optimal for r in results)
        for smaller, larger in zip(results, results[1:]):
            assert smaller.common_edges <= larger.common_edges
            assert smaller.nodes <= larger.nodes
            if smaller.optimal:
                assert larger == smaller
    assert truncated >= len(pairs)


# ``bench/data/large_library.tsv`` slots 5 and 10: unrelated decoys of the
# same weight bin, the pairs the product-graph clique search left open.
LIPID_VS_GLYCOSIDE = (
    "C(OC(=O)CCC=CCC=CCCCCCCC)C(O)COC(=O)CCC=CCC=CCC=CCCCCC",
    "c1ccc(cc1)OC2OC(CO)C(OC3OCC(O)C(O)C3O)C(O)C2NC(C)=O",
)
GLYCOSIDE_VS_STEROID = (
    "O=c1ccc2ccc(cc2o1)OC2OCC(OC3OC(C(=O)O)C(O)C(O)C3O)C(O)C2O",
    "CC12CCC(OC5OC(CO)C(O)C(O)C5O)CC1=CCC1C2CCC2(C)C(C(C)CCCC(C)C)CCC12",
)


# Nodes the partition search expands on each decoy pair.  The counts pin the
# branching order: a faster search must visit the same tree.
DECOY_NODES = {LIPID_VS_GLYCOSIDE: 10_002, GLYCOSIDE_VS_STEROID: 2_367}


@pytest.mark.parametrize(("pair", "common"), [(LIPID_VS_GLYCOSIDE, 18), (GLYCOSIDE_VS_STEROID, 22)])
def test_decoy_pairs_are_certified(pair, common):
    a, b = (mol_from_smiles(s) for s in pair)
    result = mces(a, b)  # the default budget certifies both
    assert result.optimal
    assert result.common_edges == common
    assert result.nodes == DECOY_NODES[pair]


_SEEDING_SCRIPT = """
import importlib, math, sys
from ms2smiles.chem import mol_from_smiles
mces_module = importlib.import_module("ms2smiles.similarity.mces")
smiles = sys.stdin.read().split()
for sa, sb in zip(smiles[::2], smiles[1::2]):
    pa = mces_module._profile(mol_from_smiles(sa))
    pb = mces_module._profile(mol_from_smiles(sb))
    print(mces_module._seeded_lower_bound(pa, pb, 10**6), pa.env[:3])
"""


def test_seeding_does_not_depend_on_the_hash_seed(corpus):
    rng = random.Random(41)
    smiles = rng.sample(corpus, 40) + list(STEROID_ANALOG) + list(PEPTIDE_ANALOG)
    src = str(Path(ms2smiles.__file__).resolve().parents[1])
    outputs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", _SEEDING_SCRIPT],
            input="\n".join(smiles),
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
            check=True,
        )
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    assert len(outputs[0].splitlines()) == len(smiles) // 2


@pytest.mark.parametrize("budget", [math.nan, 0.0, -1.0, 0, -1, 1.0, 0.5, True, "16"])
def test_budget_must_be_positive(budget):
    a, b = mol_from_smiles("CCOC(=O)C"), mol_from_smiles("CCOC(=O)CC")
    with pytest.raises(ValueError, match="count of search nodes, an int of at least 1"):
        mces(a, b, budget=budget)


BENCH_DATA = Path(__file__).resolve().parents[1] / "bench" / "data"


def test_reference_pairs_keep_their_certified_values():
    with open(BENCH_DATA / "pairs.tsv", newline="", encoding="utf-8") as fh:
        rows = [row for row in csv.DictReader(fh, delimiter="\t") if row["optimal"] == "1"]
    assert len(rows) == 2357
    mols: dict[str, Molecule] = {}
    for row in rows:
        for smiles in (row["ground_truth"], row["candidate"]):
            if smiles not in mols:
                mols[smiles] = mol_from_smiles(smiles)
        result = mces(mols[row["ground_truth"]], mols[row["candidate"]])  # the default budget
        assert result.optimal, row
        assert result.dissimilarity == float(row["mces"]), row


def _library_pairs() -> list[tuple[str, str]]:
    with open(BENCH_DATA / "large_library.tsv", newline="", encoding="utf-8") as fh:
        return [(row["ground_truth"], row["candidate"]) for row in csv.DictReader(fh, delimiter="\t")]


def test_seeding_equals_the_all_pairs_ranking(corpus):
    rng = random.Random(43)
    pairs = [(rng.choice(corpus), rng.choice(corpus)) for _ in range(150)]
    pairs += _library_pairs()  # both analog and all four decoy pairs among them
    for sa, sb in pairs:
        pa, pb = (mces_module._profile(mol_from_smiles(s)) for s in (sa, sb))
        for upper in (10**6, mces_module._degree_sequence_bound(pa, pb)):
            expected = seeded_lower_bound_all_pairs(pa, pb, upper, mces_module._SEEDS)
            assert mces_module._seeded_lower_bound(pa, pb, upper) == expected, (sa, sb)


# Common edges per large-library slot at the default budget.  Slots 7 and 9
# stop at the budget; their values are the same from 2**11 to 2**17 nodes.
LIBRARY_COMMON_EDGES = [7, 6, 17, 14, 40, 18, 55, 27, 58, 34, 22]


def test_library_at_the_default_budget():
    for slot, pair in enumerate(_library_pairs()):
        result = mces(*map(mol_from_smiles, pair))
        assert result.common_edges == LIBRARY_COMMON_EDGES[slot], slot
        assert result.optimal == (slot not in (7, 9)), slot
        assert result.optimal or result.nodes == DEFAULT_MCES_BUDGET


def test_identity_check_keeps_the_values(corpus, monkeypatch):
    canon_module = importlib.import_module("ms2smiles.chem.canon")
    canonicalized = []
    original = canon_module._canonical_string
    monkeypatch.setattr(canon_module, "_canonical_string", lambda mol: canonicalized.append(mol) or original(mol))
    rng = random.Random(73)
    mols = [m for m in map(mol_from_smiles, rng.sample(corpus, 40)) if m.n_bonds]
    for mol in mols:  # the same object needs no canonical string
        assert mces(mol, mol) == McesResult(mol.n_bonds, 0.0, True)
    assert canonicalized == []

    spellings = [
        ("OCC", "CCO"),
        ("C1=CC=CC=C1", "c1ccccc1"),
        ("OC1=CC=CC=C1CC(N)C(=O)O", "O=C(O)C(N)Cc1ccccc1O"),
        ("[NH3+]CC(=O)[O-]", "[O-]C(=O)C[NH3+]"),
    ]
    for mol in mols:
        ranks = list(range(mol.n_atoms))
        rng.shuffle(ranks)
        spellings.append((canon_module.canonical_smiles(mol), write_smiles(mol, ranks)))
    for sa, sb in spellings:
        a, b = mol_from_smiles(sa), mol_from_smiles(sb)
        assert mces(a, b) == McesResult(a.n_bonds, 0.0, True), (sa, sb)

    # Same formula, not the same molecule: isomers and charge or isotope
    # variants go on to the bounds and the search.
    by_formula: dict[str, list[str]] = {}
    for smiles in corpus:
        mol = mol_from_smiles(smiles)
        if mol.n_atoms <= 8:
            by_formula.setdefault(canonical_formula(molecular_formula(mol)), []).append(smiles)
    pairs = [("CCO", "COC"), ("CCCO", "CC(C)O"), ("CCO", "[13CH3]CO"), ("NCC(=O)O", "[NH3+]CC(=O)[O-]")]
    pairs += [(group[0], other) for group in by_formula.values() for other in group[1:3]]
    assert len(pairs) > 20
    for sa, sb in pairs:
        a, b = mol_from_smiles(sa), mol_from_smiles(sb)
        got = mces(a, b, budget=10**6)
        assert got.optimal and got.common_edges == brute_force_mces(a, b), (sa, sb)
