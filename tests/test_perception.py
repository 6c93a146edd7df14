from __future__ import annotations

import csv
from pathlib import Path

import pytest

import ms2smiles.chem.perception as perception_module
import ms2smiles.chem.rings as rings_module
from ms2smiles.chem import (
    BondOrder,
    ChemError,
    KekulizationFailure,
    ValenceViolation,
    canonical_formula,
    canonical_smiles,
    mol_from_smiles,
    molecular_formula,
    molecules_equal,
    parse_smiles,
    perceive,
)
from ms2smiles.similarity.mces import mces


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


BENCH_MOLECULES = Path(__file__).resolve().parents[1] / "bench" / "data" / "molecules.tsv"
KEKULIZE = perception_module._kekulize
# Fused ring systems whose four- or five-ring bonds are written aromatic in
# lowercase but perceived in no aromatic ring: (lowercase, with "-").
EDGE_SPELLINGS = [
    ("c1ccc2c3ccccc3c2c1", "c1ccc-2c(c1)-c1ccccc-21"),  # biphenylene
    ("c1ccc2c(c1)c1cccc3cccc2c13", "c1ccc-2c(c1)-c1cccc3cccc-2c13"),  # fluoranthene
    ("Cc1ccc2c3ccccc3c2c1", "Cc1ccc-2c(c1)-c1ccccc-21"),  # 2-methylbiphenylene
]


def _corpus_and_bench_smiles(corpus):
    with open(BENCH_MOLECULES, newline="", encoding="utf-8") as fh:
        return corpus + [row["smiles"] for row in csv.DictReader(fh, delimiter="\t")]


def _perceived(smiles):
    try:
        mol = mol_from_smiles(smiles)
    except ChemError as exc:
        return type(exc).__name__
    return [b.order for b in mol.bonds], mol.hydrogens, mol.aromatic_atoms, mol.aromatic_bonds


def _record_kekulize(monkeypatch, force_ranked):
    """Patch step 3 to log (ranked, its orders) per call, optionally always ranked."""
    calls = []

    def recorded(atoms, bonds, adj, orders, collapsed, ranked=False):
        ranked = ranked or force_ranked
        written = KEKULIZE(atoms, bonds, adj, orders, collapsed, ranked=ranked)
        calls.append((ranked, list(orders)))
        return written

    monkeypatch.setattr(perception_module, "_kekulize", recorded)
    return calls


def test_step_three_order_never_reaches_the_output(corpus, monkeypatch):
    smiles = _corpus_and_bench_smiles(corpus)
    by_index = _record_kekulize(monkeypatch, force_ranked=False)
    default = [_perceived(s) for s in smiles]
    assert not any(ranked for ranked, _ in by_index)  # the re-placement never runs here
    by_rank = _record_kekulize(monkeypatch, force_ranked=True)
    assert [_perceived(s) for s in smiles] == default
    # The two orders place step 3 differently, so the equality above is not vacuous.
    assert len(by_index) == len(by_rank)
    assert sum(a != b for (_, a), (_, b) in zip(by_index, by_rank)) > 100


@pytest.mark.parametrize("lowercase, dashed", EDGE_SPELLINGS)
def test_unperceived_written_aromatic_bonds_keep_one_pattern(lowercase, dashed, monkeypatch):
    calls = _record_kekulize(monkeypatch, force_ranked=False)
    a = mol_from_smiles(lowercase)
    assert [ranked for ranked, _ in calls] == [False, True]
    calls.clear()
    b = mol_from_smiles(dashed)
    assert [ranked for ranked, _ in calls] == [False]
    assert canonical_smiles(a) == canonical_smiles(b)
    assert mces(a, b).dissimilarity == 0.0


def _needy_subgraph_is_forest(mol) -> bool:
    """Do the atoms holding an aromatic double bond, and the aromatic bonds
    between them, form a forest (edges = atoms - components)?"""
    aromatic = [mol.bonds[bi] for bi in mol.aromatic_bonds]
    needy = {i for b in aromatic if b.order == BondOrder.DOUBLE for i in (b.a, b.b)}
    edges = [(b.a, b.b) for b in aromatic if b.a in needy and b.b in needy]
    neighbours = {i: [] for i in needy}
    for a, b in edges:
        neighbours[a].append(b)
        neighbours[b].append(a)
    seen: set[int] = set()
    components = 0
    for start in needy:
        if start in seen:
            continue
        components += 1
        seen.add(start)
        stack = [start]
        while stack:
            for j in neighbours[stack.pop()]:
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
    return len(edges) == len(needy) - components


def _count_refinements(monkeypatch):
    """Patch ``refine_ranks`` to log, per call, whether step 6 made it."""
    refine, rekekulize = perception_module.refine_ranks, perception_module._canonical_rekekulize
    calls, inside = [], []

    def counted(seeds, adjacency):
        calls.append(bool(inside))
        return refine(seeds, adjacency)

    def step_six(*args):
        inside.append(True)
        try:
            rekekulize(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(perception_module, "refine_ranks", counted)
    monkeypatch.setattr(perception_module, "_canonical_rekekulize", step_six)
    return calls


def test_step_six_ranks_atoms_only_when_its_needy_subgraph_has_a_cycle(corpus, monkeypatch):
    calls = _count_refinements(monkeypatch)
    written_aromatic = without_ring = forced = 0
    for smiles in corpus:
        calls.clear()
        try:
            mol = mol_from_smiles(smiles)
        except ChemError:
            continue
        tied = bool(mol.aromatic_bonds) and not _needy_subgraph_is_forest(mol)
        assert len(calls) == (1 if tied else 0), smiles
        written_aromatic += any(atom.aromatic for atom in parse_smiles(smiles).atoms)
        without_ring += not mol.aromatic_bonds
        forced += bool(mol.aromatic_bonds) and not tied
    assert written_aromatic > 300 and without_ring > 300 and forced > 50


@pytest.mark.parametrize(
    "smiles, step_six, total",
    [
        ("c1ccccc1", 1, 1),  # benzene
        ("c1ccc2ccccc2c1", 1, 1),  # naphthalene
        ("c1ccc2c3ccccc3c2c1", 1, 2),  # biphenylene in lowercase: step 3 is placed again by rank
        ("NC(Cc1ccc(O)cc1)C(=O)O", 1, 1),  # tyrosine
        ("c1cc[nH]c1", 0, 0),  # pyrrole
        ("c1ccoc1", 0, 0),  # furan
        ("c1ccsc1", 0, 0),  # thiophene
        ("c1cnc[nH]1", 0, 0),  # imidazole
        ("NC(Cc1cnc[nH]1)C(=O)O", 0, 0),  # histidine
    ],
)
def test_rank_refinements_per_molecule(smiles, step_six, total, monkeypatch):
    calls = _count_refinements(monkeypatch)
    mol_from_smiles(smiles)
    assert (calls.count(True), len(calls)) == (step_six, total)


def test_forced_matchings_place_alike_by_rank_and_by_index(corpus, monkeypatch):
    smiles = _corpus_and_bench_smiles(corpus)
    calls = _count_refinements(monkeypatch)
    forced = []
    for text in smiles:
        calls.clear()
        try:
            mol = mol_from_smiles(text)
        except ChemError:
            continue
        if mol.aromatic_bonds and not calls:
            forced.append((text, [b.order for b in mol.bonds]))
    assert len(forced) > 50
    monkeypatch.setattr(perception_module, "_is_forest", lambda bonds, arom_bonds, needy: False)
    for text, by_index in forced:
        calls.clear()
        assert [b.order for b in mol_from_smiles(text).bonds] == by_index, text
        assert calls == [True], text


def test_kekule_search_stops_at_its_step_limit():
    # 18 benzenes, each matched two ways, before an odd ring that no matching covers.
    with pytest.raises(KekulizationFailure, match="search limit exceeded"):
        mol_from_smiles(".".join(["c1ccccc1"] * 18 + ["c1cccc1"]))
