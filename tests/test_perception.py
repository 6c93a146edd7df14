from __future__ import annotations

import pytest

import ms2smiles.chem.perception as perception_module
import ms2smiles.chem.rings as rings_module
from ms2smiles.chem import (
    BondOrder,
    ChemError,
    KekulizationFailure,
    ValenceViolation,
    canonical_formula,
    mol_from_smiles,
    molecular_formula,
    molecules_equal,
    parse_smiles,
    perceive,
)


def test_benzene_kekulized():
    mol = mol_from_smiles("c1ccccc1")
    orders = sorted(int(b.order) for b in mol.bonds)
    assert orders == [1, 1, 1, 2, 2, 2]
    assert all(h == 1 for h in mol.hydrogens)
    assert canonical_formula(molecular_formula(mol)) == "C6H6"
    assert len(mol.aromatic_bonds) == 6


def test_implicit_hydrogen_fill():
    assert canonical_formula(molecular_formula(mol_from_smiles("CC(C)(C)N"))) == "C4H11N"
    assert molecular_formula(mol_from_smiles("C")) == {"C": 1, "H": 4}
    assert canonical_formula(molecular_formula(mol_from_smiles("NC(Cc1ccc(O)cc1)C(=O)O"))) == "C9H11NO3"


def test_bracket_atoms_get_no_implicit_h():
    assert molecular_formula(mol_from_smiles("[CH2]")) == {"C": 1, "H": 2}
    assert molecular_formula(mol_from_smiles("[C]")) == {"C": 1}


@pytest.mark.parametrize("smiles", ["c1ccc1", "c1cccccc1", "cC", "c1ccccc1c"])
def test_bad_aromatic_inputs_rejected(smiles):
    with pytest.raises(ChemError):
        mol_from_smiles(smiles)


def test_aromatic_cyclobutadiene_like_is_invalid():
    with pytest.raises((KekulizationFailure, ValenceViolation)):
        mol_from_smiles("c1ccc1")


@pytest.mark.parametrize(
    "smiles,formula",
    [
        ("c1cc[nH]c1", "C4H5N"),
        ("c1ccncc1", "C5H5N"),
        ("c1ccoc1", "C4H4O"),
        ("c1ccsc1", "C4H4S"),
        ("c1cnc[nH]1", "C3H4N2"),
        ("c1ccc2ccccc2c1", "C10H8"),
        ("O=c1cccc[nH]1", "C5H5NO"),
    ],
)
def test_heteroaromatic_hydrogens(smiles, formula):
    assert canonical_formula(molecular_formula(mol_from_smiles(smiles))) == formula


@pytest.mark.parametrize(
    "smiles",
    ["N(=O)=O", "C(C)(C)(C)(C)C", "[CH5+]", "O(C)(C)C", "FF(F)F"],
)
def test_valence_violations(smiles):
    with pytest.raises(ValenceViolation):
        mol_from_smiles(smiles)


@pytest.mark.parametrize(
    "smiles",
    ["[NH4+]", "CS(=O)C", "OS(=O)(=O)O", "OP(=O)(O)O", "[O-]C(=O)C", "[BH4-]", "[o+]1ccccc1", "[IH2+2]"],
)
def test_charged_and_hypervalent_ok(smiles):
    mol_from_smiles(smiles)


def test_explicit_hydrogen_nodes_collapse():
    assert molecules_equal(mol_from_smiles("[H]C([H])([H])[H]"), mol_from_smiles("C"))
    assert molecular_formula(mol_from_smiles("[H]OC([H])([H])C")) == {"C": 2, "H": 6, "O": 1}
    # isotopic hydrogen stays a node
    heavy_water = mol_from_smiles("[2H]O[2H]")
    assert heavy_water.n_atoms == 3


def test_kekulized_and_aromatic_inputs_perceive_identically():
    aromatic = mol_from_smiles("Oc1ccccc1")
    kekulized = mol_from_smiles("OC1=CC=CC=C1")
    assert molecules_equal(aromatic, kekulized)
    assert kekulized.aromatic_bonds and kekulized.aromatic_atoms


def test_perceived_molecule_has_no_aromatic_orders():
    mol = mol_from_smiles("c1ccc2c(c1)cc[nH]2")
    assert all(b.order in (BondOrder.SINGLE, BondOrder.DOUBLE, BondOrder.TRIPLE) for b in mol.bonds)
    assert mol.perceived


def test_perceive_is_idempotent_on_reparse(corpus):
    for smiles in corpus[:40]:
        mol = perceive(parse_smiles(smiles))
        assert mol.hydrogens is not None
        assert sum(mol.hydrogens) >= 0


def test_each_molecule_searches_its_ring_bonds_once(monkeypatch):
    search = rings_module.ring_bond_indices
    calls = []

    def counted(mol):
        calls.append(mol)
        return search(mol)

    monkeypatch.setattr(perception_module, "ring_bond_indices", counted)
    monkeypatch.setattr(rings_module, "ring_bond_indices", counted)
    for smiles in ("c1ccccc1O", "C1CCC2CCCCC2C1", "c1ccc2[nH]ccc2c1", "O=C1CCCC1.c1ccncc1"):
        calls.clear()
        mol = mol_from_smiles(smiles)
        assert mol.ring_bonds and len(calls) == 1, smiles


def test_perceive_builds_one_molecule_and_leaves_its_input_alone(monkeypatch):
    built = []
    construct = perception_module.Molecule

    def counted(*args, **kwargs):
        built.append(construct(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(perception_module, "Molecule", counted)
    for smiles in ("c1ccccc1O", "[H]OC([H])([H])C", "c1ccc2[nH]ccc2c1", "CCO.c1ccncc1"):
        raw = parse_smiles(smiles)

        def fields():
            return (list(raw.atoms), list(raw.bonds), raw.hydrogens, raw.ring_bonds, raw.aromatic_bonds, raw.perceived)

        before = fields()
        built.clear()
        mol = perceive(raw)
        assert built == [mol], smiles
        assert fields() == before, smiles
