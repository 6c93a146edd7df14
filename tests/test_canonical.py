from __future__ import annotations

import csv
import random
from pathlib import Path

from ms2smiles.chem import (
    canonical_smiles,
    mol_from_smiles,
    molecular_formula,
    molecules_equal,
    same_structure,
    write_smiles,
)
from ms2smiles.chem.canon import _atom_seed, labeled_adjacency, refine_ranks

from oracles import refine_ranks_rehashing

LARGE_LIBRARY = Path(__file__).resolve().parents[1] / "bench" / "data" / "large_library.tsv"

TABLE4_MEDIUM = [
    "NCC(C1=CC=C(O)C=C1)C(=O)O",
    "OC1=CC=CC(C(C(=O)O)N)=C1",
    "NCC(C2=CC=CC(O)=C2)C(=O)O",
    "CC1=CC=C(O)C=C1C(=O)N",
    "OC1=CC=CC=C1CC(N)C(=O)O",
    "NC(Cc1ccc(O)cc1)C(=O)O",
    "NCC(C3=CC(O)=CC=C3)C(=O)O",
    "NCC(C4=CC=CC=C4O)C(=O)O",
    "O=C(O)C(N)Cc1ccc(O)cc1",
    "O=C(O)C(N)Cc1ccccc1O",
]


def test_same_molecule_different_traversal():
    assert canonical_smiles(mol_from_smiles("OCC")) == canonical_smiles(mol_from_smiles("CCO"))


def test_candidate_pairs_canonicalize_together():
    canon = [canonical_smiles(mol_from_smiles(s)) for s in TABLE4_MEDIUM]
    assert canon[5] == canon[8]  # ranks 6 and 9
    assert canon[4] == canon[9]  # ranks 5 and 10
    assert canon[2] == canon[6]  # ranks 3 and 7 both put the hydroxyl meta
    assert canon[5] != canon[4]
    assert len(set(canon)) == 7


def test_round_trip_sample(corpus):
    for smiles in corpus[:150]:
        mol = mol_from_smiles(smiles)
        back = mol_from_smiles(canonical_smiles(mol))
        assert molecules_equal(mol, back), smiles
        assert molecular_formula(mol) == molecular_formula(back), smiles


def test_canonical_invariance_under_relabeling(corpus):
    rng = random.Random(424242)
    for smiles in rng.sample(corpus, 60):
        mol = mol_from_smiles(smiles)
        reference = canonical_smiles(mol)
        for _ in range(4):
            ranks = list(range(mol.n_atoms))
            rng.shuffle(ranks)
            scrambled = write_smiles(mol, ranks)
            again = mol_from_smiles(scrambled)
            assert canonical_smiles(again) == reference, (smiles, scrambled)


def test_stereo_blind_canonicalization():
    assert canonical_smiles(mol_from_smiles("C[C@H](N)C(=O)O")) == canonical_smiles(
        mol_from_smiles("C[C@@H](N)C(=O)O")
    )
    assert canonical_smiles(mol_from_smiles("C/C=C/C")) == canonical_smiles(mol_from_smiles("C/C=C\\C"))


def test_multi_component_ordering():
    a = canonical_smiles(mol_from_smiles("[Na+].CC(=O)[O-]"))
    b = canonical_smiles(mol_from_smiles("CC(=O)[O-].[Na+]"))
    assert a == b
    assert "." in a


def test_no_stereo_tokens_in_output(corpus):
    for smiles in corpus[:200]:
        out = canonical_smiles(mol_from_smiles(smiles))
        assert not any(token in out for token in ("/", "\\", "@")), (smiles, out)


def test_molecules_equal_examples():
    tyr = mol_from_smiles("NC(Cc1ccc(O)cc1)C(=O)O")
    permuted = mol_from_smiles("OC(=O)C(N)Cc1ccc(O)cc1")
    assert molecules_equal(tyr, permuted)
    assert molecules_equal(
        mol_from_smiles("OC1=CC=CC=C1CC(N)C(=O)O"), mol_from_smiles("O=C(O)C(N)Cc1ccccc1O")
    )
    assert not molecules_equal(mol_from_smiles("CCO"), mol_from_smiles("CCC"))
    assert not molecules_equal(mol_from_smiles("CCO"), mol_from_smiles("COC"))


def test_equal_distinguishes_isotopes_and_charges():
    assert not molecules_equal(mol_from_smiles("[13CH4]"), mol_from_smiles("C"))
    assert not molecules_equal(mol_from_smiles("[NH4+]"), mol_from_smiles("N"))


def test_isomer_zoo_stays_distinct():
    isomers = ["CCCCN", "CC(C)CN", "CC(C)(C)N", "CCNCC", "CNC(C)C", "CCCNC", "CN(C)CC"]
    canon = {canonical_smiles(mol_from_smiles(s)) for s in isomers}
    assert len(canon) == len(isomers)


def _large_library() -> list[str]:
    with open(LARGE_LIBRARY, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh, delimiter="\t"))
    return [row[column] for row in rows for column in ("ground_truth", "candidate")]


def test_refinement_equals_the_rehashing_oracle(corpus):
    rng = random.Random(61)
    for smiles in corpus + _large_library():
        mol = mol_from_smiles(smiles)
        seeds = [_atom_seed(mol, i) for i in range(mol.n_atoms)]
        adjacency = labeled_adjacency(mol)
        expected = refine_ranks_rehashing(seeds, adjacency)
        assert refine_ranks(seeds, adjacency) == expected, smiles
        # Individualization rounds, as canonicalization runs them.
        marks: dict[int, int] = {}
        for i in rng.sample(range(mol.n_atoms), min(3, mol.n_atoms)):
            marks[i] = len(marks)
            marked = [(seed, marks.get(j, -1)) for j, seed in enumerate(seeds)]
            assert refine_ranks(marked, adjacency) == refine_ranks_rehashing(marked, adjacency), smiles


def test_same_structure_canonicalizes_only_pairs_with_equal_atom_labels():
    canonicalized = []

    def canonical(mol):
        canonicalized.append(mol)
        return canonical_smiles(mol)

    truth = mol_from_smiles("NC(Cc1ccc(O)cc1)C(=O)O")
    assert same_structure(truth, truth, canonical) and canonicalized == []
    for other in ("CCO", "[NH3+]C(Cc1ccc(O)cc1)C(=O)[O-]", "NC(Cc1ccc(O)cc1)C(=O)[18OH]", "NCC(=O)O"):
        assert not same_structure(truth, mol_from_smiles(other), canonical), other
    assert canonicalized == []
    # Another spelling, a Kekule spelling and a same-label isomer.
    for other, same in (("O=C(O)C(N)Cc1ccc(O)cc1", True), ("NC(CC1=CC=C(O)C=C1)C(=O)O", True),
                        ("Oc1ccccc1CC(N)C(=O)O", False)):
        canonicalized.clear()
        assert same_structure(truth, mol_from_smiles(other), canonical) is same, other
        assert len(canonicalized) == 2, other
