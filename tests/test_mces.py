from __future__ import annotations

import random

import pytest

from ms2smiles.chem import mol_from_smiles
from ms2smiles.chem.mol import Molecule
from ms2smiles.similarity import mces

from oracles import brute_force_mces


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
        got = mces(a, b, budget=10.0)
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
    full = mces(base, other, budget=10.0).common_edges
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
        assert mces(smaller, other, budget=10.0).common_edges <= full


def test_budget_truncation_yields_lower_bound():
    a = mol_from_smiles("CC(C)(C)c1ccc(C(=O)c2ccc(C(C)(C)C)cc2)cc1")
    b = mol_from_smiles("CCCCCCCCCc1ccc(O)cc1")
    quick = mces(a, b, budget=0.02)
    slow = mces(a, b, budget=0.2)
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
        r = mces(a, b, budget=0.3)
        assert 0.0 <= r.dissimilarity <= 1.0
        assert r.common_edges <= min(a.n_bonds, b.n_bonds)
