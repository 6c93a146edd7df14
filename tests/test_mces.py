from __future__ import annotations

import csv
import hashlib
import importlib
import itertools
import math
import random
import sys
from collections import Counter
from pathlib import Path

import pytest

from ms2smiles.chem import canonical_formula, mol_from_smiles, molecular_formula, write_smiles
from ms2smiles.chem.canon import canonical_smiles, same_structure
from ms2smiles.chem.mol import Molecule
from ms2smiles.similarity import DEFAULT_MCES_BUDGET, McesResult, mces, mces_floor

import oracles
from oracles import (
    brute_force_mces,
    mcsplit_splitting_every_partner,
    partner_bound,
    split_by_grouping,
)

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


# From its starting bound of 1, the search needs 4023 nodes to prove 13
# common edges.
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
    assert 1 < mces_module._degree_sequence_bound(pa, pb)
    # The root maps no bond, so a one-node search returns the starting bound.
    assert mces(a, b, budget=1) == McesResult(1, 1 - 1 / a.n_bonds, False, 1)


def test_one_node_finds_the_one_common_edge_it_starts_from(corpus):
    # A positive degree-sequence bound means a shared edge label, so one
    # edge is common before any search.  With a bound of 2 or more the
    # search runs from that 1, and its root maps no bond.
    rng = random.Random(59)
    mols = {s: mol_from_smiles(s) for s in rng.sample(corpus, 80)}
    outcomes = Counter()
    for sa, sb in itertools.combinations(mols, 2):
        a, b = mols[sa], mols[sb]
        if same_structure(a, b, canonical_smiles):
            continue
        pa, pb = mces_module._profile(a), mces_module._profile(b)
        if mces_module._degree_sequence_bound(pa, pb) < 2:
            continue
        r = mces(a, b, budget=1)
        assert (r.common_edges, r.nodes) == (1, 1), (sa, sb)
        if r.optimal:  # the root pruned every child: 1 is the maximum
            assert mces(a, b, budget=10**6).common_edges == 1, (sa, sb)
        outcomes[r.optimal] += 1
    assert outcomes == {False: 2711, True: 19}


def _bound_chain(a, b) -> tuple[int, int]:
    """The search's starting lower bound and the degree-sequence upper bound."""
    pa, pb = mces_module._profile(a), mces_module._profile(b)
    degree = mces_module._degree_sequence_bound(pa, pb)
    return min(degree, 1), degree


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
        lower, degree = _bound_chain(a, b)
        label = _shared_label_count(a, b)
        exact = brute_force_mces(a, b)
        assert lower <= exact <= degree <= label, (sa, sb)
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
def test_large_analogs_are_certified_by_a_short_search(pair, common):
    a, b = (mol_from_smiles(s) for s in pair)
    result = mces(a, b)
    assert result.optimal
    assert result.common_edges == common
    assert result.dissimilarity == 1 - common / max(a.n_bonds, b.n_bonds)
    assert result.nodes == ANALOG_NODES[pair]


def test_search_stops_at_exactly_the_node_budget():
    a, b = (mol_from_smiles(s) for s in TERT_BUTYL_VS_NONYLPHENOL)
    pa, pb = mces_module._profile(a), mces_module._profile(b)
    upper = mces_module._degree_sequence_bound(pa, pb)
    full, finished, full_nodes = mces_module._mcsplit(pa, pb, 1, upper, 10**6)
    assert finished and full < upper and full_nodes > 768

    found, finished, nodes = mces_module._mcsplit(pa, pb, 1, upper, 768)
    assert not finished and nodes == 768
    assert 1 <= found <= full
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


# Nodes the partition search expands per large-library slot at the default
# budget, 0 where the bounds meet without a search.  The counts pin the
# branching order: a faster search must visit the same tree.
LIBRARY_NODES = [7, 9, 45, 14, 39, 10_011, 59, 16_384, 93, 16_384, 2_593]
DECOY_NODES = {LIPID_VS_GLYCOSIDE: LIBRARY_NODES[5], GLYCOSIDE_VS_STEROID: LIBRARY_NODES[10]}
# The analogs are slots 6 and 8.  The search reaches the peptide's
# degree-sequence bound, and proves the steroid one edge short of its own.
ANALOG_NODES = {STEROID_ANALOG: LIBRARY_NODES[6], PEPTIDE_ANALOG: LIBRARY_NODES[8]}


@pytest.mark.parametrize(("pair", "common"), [(LIPID_VS_GLYCOSIDE, 18), (GLYCOSIDE_VS_STEROID, 22)])
def test_decoy_pairs_are_certified(pair, common):
    a, b = (mol_from_smiles(s) for s in pair)
    result = mces(a, b)  # the default budget certifies both
    assert result.optimal
    assert result.common_edges == common
    assert result.nodes == DECOY_NODES[pair]


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
    nodes = []
    for row in rows:
        for smiles in (row["ground_truth"], row["candidate"]):
            if smiles not in mols:
                mols[smiles] = mol_from_smiles(smiles)
        result = mces(mols[row["ground_truth"]], mols[row["candidate"]])  # the default budget
        assert result.optimal, row
        assert result.dissimilarity == float(row["mces"]), row
        nodes.append(result.nodes)
    # The node total pins the search tree over every searched pair.
    assert (sum(nodes), sum(n > 0 for n in nodes)) == (20108, 2189)


def _library_pairs() -> list[tuple[str, str]]:
    with open(BENCH_DATA / "large_library.tsv", newline="", encoding="utf-8") as fh:
        return [(row["ground_truth"], row["candidate"]) for row in csv.DictReader(fh, delimiter="\t")]


def _split_pairs(corpus) -> list[tuple[Molecule, Molecule]]:
    """150 seeded corpus pairs and the 11 large-library pairs."""
    rng = random.Random(53)
    pairs = [(rng.choice(corpus), rng.choice(corpus)) for _ in range(150)] + _library_pairs()
    return [tuple(map(mol_from_smiles, pair)) for pair in pairs]


def _split_path(moved_left: int, moved_right: int) -> str:
    """Which way ``_split`` handles a class with these moved bond counts."""
    fewer, more = sorted((moved_left, moved_right))
    if more == 0:
        return "unmoved"
    if fewer == 0:
        return "moved on one side"
    if fewer == 1:
        return "one moved bond per side" if more == 1 else "one moved bond on a side"
    return "grouped"


def test_split_equals_the_grouping_reference(corpus, monkeypatch):
    split = mces_module._split
    paths, checked = Counter(), []

    def checked_split(classes, tok_a, tok_b, hit_a, hit_b, ends_a, ends_b):
        got = split(classes, tok_a, tok_b, hit_a, hit_b, ends_a, ends_b)
        assert got == split_by_grouping(classes, tok_a, tok_b, hit_a, hit_b, ends_a, ends_b, len(tok_b))
        for left, right, _, _ in classes:
            paths[_split_path((left & hit_a).bit_count(), (right & hit_b).bit_count())] += 1
        checked.append(got)
        return got

    monkeypatch.setattr(mces_module, "_split", checked_split)
    for a, b in _split_pairs(corpus):
        mces(a, b, budget=512)
    assert len(checked) > 1000
    assert len(paths) == 5 and min(paths.values()) > 50, paths  # every path of _split runs


def test_bit_count_bound_covers_every_split(corpus, monkeypatch):
    # The search splits a partner only when the bit-count bound leaves room,
    # so wherever it does split, the bound must cover what the exact check
    # counts: the mapped pair, the free bonds and the child's min sum.  The
    # search computes the bound inline as ``estimate``; it is read from the
    # caller's frame and must equal the reference bound of the same inputs.
    split = mces_module._split
    checked = []

    def checked_split(classes, tok_a, tok_b, hit_a, hit_b, ends_a, ends_b):
        search_locals = sys._getframe(1).f_locals  # the search node that splits
        assert "estimate" in search_locals, "the search no longer names its partner bound `estimate`"
        estimate = search_locals["estimate"]
        assert estimate == partner_bound(classes, hit_a, hit_b)
        children, free, child_bound = split(classes, tok_a, tok_b, hit_a, hit_b, ends_a, ends_b)
        checked.append(estimate - (1 + free + child_bound))
        return children, free, child_bound

    mols = _split_pairs(corpus)
    monkeypatch.setattr(mces_module, "_split", checked_split)
    results = [mces(a, b, budget=512) for a, b in mols]
    assert min(checked) >= 0
    assert len(checked) > 1000

    # Without the bound every partner is split, and the tree is the same.
    # The trees match, so the partners estimated are the ones split here.
    reference_splits = []

    def counted_split(*args):
        reference_splits.append(1)
        return split_by_grouping(*args)

    monkeypatch.setattr(oracles, "split_by_grouping", counted_split)
    monkeypatch.setattr(mces_module, "_mcsplit", mcsplit_splitting_every_partner)
    assert [mces(a, b, budget=512) for a, b in mols] == results
    assert len(reference_splits) > 2 * len(checked)


# SHA-256 of the records below, taken from the search without its per-node
# fast paths: a faster search must visit the same nodes in the same order.
SEARCH_ORDER_DIGEST = "82f7bca294f267aec8b96a087bf9976cdc9961304279290727579445f98b8433"


def test_truncated_searches_keep_their_node_order(corpus):
    # Slots 7 and 9 read the same common edges at every budget from about
    # 2**11 nodes, so end values alone cannot catch a reordered tree.  The
    # best count after each budget can: it rises as the search visits nodes.
    library = _library_pairs()
    records = []
    for slot in (5, 7, 9, 10):
        a, b = map(mol_from_smiles, library[slot])
        for e in range(15):
            r = mces(a, b, budget=2**e)
            records.append((slot, 2**e, r.common_edges, r.optimal, r.nodes))
    rng = random.Random(97)
    pairs = [tuple(map(mol_from_smiles, (rng.choice(corpus), rng.choice(corpus)))) for _ in range(200)]
    searched = 0
    for i, (a, b) in enumerate(pairs):
        if mces(a, b, budget=1).nodes == 0:
            continue  # the bounds decide this pair without a search
        searched += 1
        for budget in range(1, 33):
            r = mces(a, b, budget=budget)
            records.append((i, budget, r.common_edges, r.optimal, r.nodes))
    assert (searched, len(records)) == (180, 60 + 180 * 32)
    assert hashlib.sha256(repr(records).encode()).hexdigest() == SEARCH_ORDER_DIGEST


# Common edges per large-library slot at the default budget.  Slots 7 and 9
# stop at the budget; their values are the same from 2**11 to 2**17 nodes.
LIBRARY_COMMON_EDGES = [7, 6, 17, 14, 40, 18, 55, 27, 58, 34, 22]


def test_library_at_the_default_budget():
    for slot, pair in enumerate(_library_pairs()):
        result = mces(*map(mol_from_smiles, pair))
        assert result.common_edges == LIBRARY_COMMON_EDGES[slot], slot
        assert result.nodes == LIBRARY_NODES[slot], slot
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
