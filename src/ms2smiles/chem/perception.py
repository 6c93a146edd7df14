"""Perception: turn a raw parsed graph into a measured, normalized molecule.

Pipeline:

1. fold plain explicit-hydrogen nodes into their heavy neighbor;
2. resolve unmarked bonds between aromatic atoms (aromatic in a ring,
   single otherwise);
3. kekulize input-aromatic systems by backtracking perfect matching,
   trying atoms in index order;
4. assign implicit hydrogens from the valence model and check valences;
5. detect aromatic rings on the kekulized graph (per-ring electron count,
   4n+2) and verify every input-aromatic atom sits in one;
6. re-kekulize the detected rings deterministically from canonical atom
   ranks, so every representation of the same molecule carries the same
   double-bond pattern.  Atoms are ranked only when the needy subgraph (the
   atoms that need a double bond and the aromatic bonds between them) has a
   cycle; a forest has one perfect matching, placed in atom-index order, as
   in a molecule whose only aromatic rings are pyrroles, furans, thiophenes
   or imidazoles.

Two matchings in step 3 differ only around cycles, so every atom gets the
same bond-order sum and multiple-bond flags from any of them: steps 4 and 5
find the same hydrogens and rings, and step 6 rewrites every perceived
aromatic bond.  Only an input-aromatic bond outside every perceived ring
(biphenylene's four-ring in lowercase) keeps step 3's order; then
``perceive`` places step 3 again over ranks refined from the raw atom labels.

Step 6 gives "OC1=CC=CC=C1R" and "Oc1ccccc1R" one Kekulé pattern.  The
canonical writer and fingerprints read normalized bond labels and never see
it; only MCES, whose edge labels are kekulized orders, does.  Steps 3 and 6
share one matcher, ``_place_double_bonds``; step 5 reuses the ring bonds
found for step 2.

``perceive`` builds one new ``Molecule`` after step 1 and finishes it in
place; the molecule it is given is never mutated.  No step changes a bond's
index or endpoints, so every step reads the adjacency built for the ring
search.
"""

from __future__ import annotations

from .canon import refine_ranks
from .elements import VALENCES, allowed_valences, implicit_hydrogens
from .errors import KekulizationFailure, ValenceViolation
from .mol import Atom, Bond, BondOrder, Molecule
from .rings import ring_bond_indices, small_rings
from .smiles import parse_smiles

_MATCHING_STEP_LIMIT = 200_000


def mol_from_smiles(text: str) -> Molecule:
    """Parse and perceive in one step; raises ``ChemError`` on invalid input."""
    return perceive(parse_smiles(text))


def perceive(mol: Molecule) -> Molecule:
    atoms, bonds, collapsed = _collapse_hydrogens(mol)
    out = Molecule(atoms=atoms, bonds=bonds)
    out.ring_bonds = ring_bond_indices(out)
    out.ring_atoms = frozenset(i for bi in out.ring_bonds for i in (bonds[bi].a, bonds[bi].b))

    orders = [
        bond.order or (BondOrder.AROMATIC if bi in out.ring_bonds else BondOrder.SINGLE)
        for bi, bond in enumerate(bonds)
    ]

    adj = out.adjacency()
    _check_aromatic_flags(atoms, adj, orders)
    written = _kekulize(atoms, bonds, adj, orders, collapsed)
    out.hydrogens = _fill_hydrogens(atoms, adj, orders, collapsed)
    out.bonds = [Bond(b.a, b.b, orders[bi]) for bi, b in enumerate(bonds)]
    arom_atoms, arom_bonds = _perceive_aromatic_rings(out)
    if not arom_bonds.issuperset(written):  # step 6 leaves these as step 3 placed them
        for bi in written:
            orders[bi] = BondOrder.AROMATIC
        _kekulize(atoms, bonds, adj, orders, collapsed, ranked=True)
        out.bonds = [Bond(b.a, b.b, orders[bi]) for bi, b in enumerate(bonds)]

    for i, atom in enumerate(atoms):
        if atom.aromatic and i not in arom_atoms:
            raise KekulizationFailure(
                f"atom {i} ({atom.element}) is written aromatic but no aromatic ring contains it"
            )

    _canonical_rekekulize(out, arom_atoms, arom_bonds)
    out.aromatic_atoms, out.aromatic_bonds = arom_atoms, arom_bonds
    out.perceived = True
    return out


def _collapse_hydrogens(mol: Molecule) -> tuple[list[Atom], list[Bond], list[int]]:
    """Fold [H] nodes into their heavy neighbor's hydrogen count.

    Isotopic, charged or H-bonded hydrogens stay as graph nodes.
    """
    atoms, bonds, adj = mol.atoms, mol.bonds, mol.adjacency()
    drop: set[int] = set()
    extra: dict[int, int] = {}
    for i, atom in enumerate(atoms):
        if atom.element != "H" or atom.isotope is not None or atom.charge != 0:
            continue
        if atom.explicit_h not in (None, 0) or len(adj[i]) != 1:
            continue
        j, bi = adj[i][0]
        if atoms[j].element == "H" or bonds[bi].order not in (None, BondOrder.SINGLE):
            continue
        drop.add(i)
        extra[j] = extra.get(j, 0) + 1

    if not drop:
        return list(atoms), list(bonds), [0] * len(atoms)

    remap: dict[int, int] = {}
    kept_atoms: list[Atom] = []
    collapsed: list[int] = []
    for i, atom in enumerate(atoms):
        if i in drop:
            continue
        remap[i] = len(kept_atoms)
        kept_atoms.append(atom)
        collapsed.append(extra.get(i, 0))
    kept_bonds = [
        Bond(remap[b.a], remap[b.b], b.order)
        for b in bonds
        if b.a not in drop and b.b not in drop
    ]
    return kept_atoms, kept_bonds, collapsed


def _check_aromatic_flags(
    atoms: list[Atom], adj: list[list[tuple[int, int]]], orders: list[BondOrder | None]
) -> None:
    for i, atom in enumerate(atoms):
        if atom.aromatic and not any(orders[bi] == BondOrder.AROMATIC for _, bi in adj[i]):
            raise KekulizationFailure(
                f"aromatic atom {i} ({atom.element.lower()}) has no aromatic bond"
            )


def _needs_pi_bond(atoms, adj, orders, collapsed, i: int) -> bool:
    """Does this atom of an aromatic system require one double bond?"""
    for _, bi in adj[i]:
        if orders[bi] in (BondOrder.DOUBLE, BondOrder.TRIPLE):
            return False
    atom = atoms[i]
    sigma = len(adj[i]) + (atom.explicit_h or 0) + collapsed[i]
    element, charge = atom.element, atom.charge
    if element == "C":
        return charge == 0
    if element in ("N", "P", "As"):
        return (charge == 0 and sigma == 2) or (charge == 1 and sigma == 3)
    if element in ("O", "S", "Se", "Te"):
        return charge == 1 and sigma == 2
    return False


def _kekulize(atoms, bonds, adj, orders, collapsed, ranked: bool = False) -> list[int]:
    """Assign single/double orders over the aromatic bonds, in place, trying
    atoms in index order, or with ``ranked`` in the order of ranks refined
    from the raw atom labels.  Returns the bonds it assigned."""
    arom_bonds = [bi for bi, o in enumerate(orders) if o == BondOrder.AROMATIC]
    if not arom_bonds:
        return arom_bonds
    needy = {
        i
        for bi in arom_bonds
        for i in (bonds[bi].a, bonds[bi].b)
        if _needs_pi_bond(atoms, adj, orders, collapsed, i)
    }
    ranks = range(len(atoms))
    if ranked:
        seeds = [
            (a.element, a.charge, a.isotope or 0, -1 if a.explicit_h is None else a.explicit_h,
             a.aromatic, len(adj[i]))
            for i, a in enumerate(atoms)
        ]
        label_adj = [[(int(orders[bi]), j) for j, bi in adj[i]] for i in range(len(atoms))]
        ranks, _ = refine_ranks(seeds, label_adj)
    if not _place_double_bonds(bonds, arom_bonds, needy, ranks, orders):
        raise KekulizationFailure("no alternating single/double assignment exists")
    return arom_bonds


def _place_double_bonds(bonds, arom_bonds, needy, ranks, orders) -> bool:
    """Write single/double ``orders`` over ``arom_bonds`` giving each ``needy``
    atom one double bond, trying atoms in the order of ``ranks`` (ties by
    index).  False when no such assignment exists."""
    partners: dict[int, list[int]] = {i: [] for i in needy}
    for bi in arom_bonds:
        a, b = bonds[bi].a, bonds[bi].b
        if a in needy and b in needy:
            partners[a].append(b)
            partners[b].append(a)
    for row in partners.values():
        row.sort(key=lambda v: (ranks[v], v))

    matching = _perfect_matching(sorted(needy, key=lambda i: (ranks[i], i)), partners)
    if matching is None:
        return False
    for bi in arom_bonds:
        a, b = bonds[bi].a, bonds[bi].b
        orders[bi] = BondOrder.DOUBLE if matching.get(a) == b else BondOrder.SINGLE
    return True


def _perfect_matching(order: list[int], partners: dict[int, list[int]]) -> dict[int, int] | None:
    matched: dict[int, int] = {}
    steps = 0

    def backtrack() -> bool:
        nonlocal steps
        steps += 1
        if steps > _MATCHING_STEP_LIMIT:
            raise KekulizationFailure("kekulization search limit exceeded")
        u = next((x for x in order if x not in matched), None)
        if u is None:
            return True
        for v in partners[u]:
            if v in matched:
                continue
            matched[u] = v
            matched[v] = u
            if backtrack():
                return True
            del matched[u]
            del matched[v]
        return False

    return matched if backtrack() else None


def _fill_hydrogens(atoms, adj, orders, collapsed) -> list[int]:
    hydrogens: list[int] = []
    for i, atom in enumerate(atoms):
        order_sum = sum(int(orders[bi]) for _, bi in adj[i]) + collapsed[i]
        if atom.explicit_h is not None:
            occupied = order_sum + atom.explicit_h
            allowed = allowed_valences(atom.element, atom.charge)
            if allowed and occupied > max(allowed):
                raise ValenceViolation(
                    f"atom {i} ({atom.element}, charge {atom.charge:+d}) has valence "
                    f"{occupied}, allowed {allowed}"
                )
            hydrogens.append(atom.explicit_h + collapsed[i])
        else:
            implicit = implicit_hydrogens(atom.element, order_sum)
            if implicit < 0:
                raise ValenceViolation(
                    f"atom {i} ({atom.element}) has bond-order sum {order_sum}, "
                    f"allowed valences {VALENCES[atom.element]}"
                )
            hydrogens.append(implicit + collapsed[i])
    return hydrogens


def _pi_contribution(mol: Molecule, i: int, double_to_ring: bool, any_multiple: bool) -> int | None:
    """Electrons an atom donates to a candidate aromatic ring; None blocks."""
    atom = mol.atoms[i]
    element, charge = atom.element, atom.charge
    if element == "C":
        if double_to_ring:
            return 1
        if any_multiple:
            return 0
        if charge < 0:
            return 2
        if charge > 0:
            return 0
        return None
    if element in ("N", "P", "As"):
        if double_to_ring:
            return 1
        if any_multiple:
            return 0
        if charge > 0:
            return None
        return 2
    if element in ("O", "S", "Se", "Te"):
        return 1 if double_to_ring else 2
    if element == "B":
        if double_to_ring:
            return 1
        return 2 if charge < 0 else 0
    return None


def _perceive_aromatic_rings(mol: Molecule) -> tuple[frozenset[int], frozenset[int]]:
    if not mol.ring_atoms:
        return frozenset(), frozenset()
    double_to_ring = [False] * mol.n_atoms
    any_multiple = [False] * mol.n_atoms
    for bond in mol.bonds:
        if bond.order in (BondOrder.DOUBLE, BondOrder.TRIPLE):
            any_multiple[bond.a] = True
            any_multiple[bond.b] = True
            if bond.order == BondOrder.DOUBLE and bond.a in mol.ring_atoms and bond.b in mol.ring_atoms:
                double_to_ring[bond.a] = True
                double_to_ring[bond.b] = True

    arom_atoms: set[int] = set()
    arom_bonds: set[int] = set()
    for atoms_in_ring, bonds_in_ring in small_rings(mol, max_size=7):
        electrons = 0
        for i in atoms_in_ring:
            contribution = _pi_contribution(mol, i, double_to_ring[i], any_multiple[i])
            if contribution is None:
                electrons = -1
                break
            electrons += contribution
        if electrons >= 0 and electrons % 4 == 2:
            arom_atoms.update(atoms_in_ring)
            arom_bonds.update(bonds_in_ring)
    return frozenset(arom_atoms), frozenset(arom_bonds)


def _is_forest(bonds, arom_bonds, needy) -> bool:
    """Do the ``needy`` atoms and the ``arom_bonds`` between them form a forest?

    Two perfect matchings differ along alternating cycles, so a forest has at
    most one and every atom order places it."""
    root = {i: i for i in needy}

    def find(i: int) -> int:
        while root[i] != i:
            root[i] = root[root[i]]
            i = root[i]
        return i

    for bi in arom_bonds:
        a, b = bonds[bi].a, bonds[bi].b
        if a in needy and b in needy:
            ra, rb = find(a), find(b)
            if ra == rb:
                return False
            root[ra] = rb
    return True


def _canonical_rekekulize(
    mol: Molecule, arom_atoms: frozenset[int], arom_bonds: frozenset[int]
) -> None:
    """Redistribute double bonds inside perceived aromatic rings, in place,
    so the pattern depends only on the molecule, not on the input traversal.

    Atoms are ranked only when the needy subgraph has a cycle; otherwise its
    one matching is placed in atom-index order."""
    if not arom_bonds:
        return
    orders = [bond.order for bond in mol.bonds]
    adj = mol.adjacency()
    needy = {
        i
        for bi in arom_bonds
        for i in (mol.bonds[bi].a, mol.bonds[bi].b)
        if any(orders[b] == BondOrder.DOUBLE and b in arom_bonds for _, b in adj[i])
    }
    ranks = range(mol.n_atoms)
    if not _is_forest(mol.bonds, arom_bonds, needy):
        seeds = [
            (a.element, a.charge, a.isotope or 0, mol.hydrogens[i], len(adj[i]), i in arom_atoms)
            for i, a in enumerate(mol.atoms)
        ]
        label_adj = [
            [(int(BondOrder.AROMATIC) if bi in arom_bonds else int(orders[bi]), j) for j, bi in adj[i]]
            for i in range(mol.n_atoms)
        ]
        ranks, _ = refine_ranks(seeds, label_adj)
    if not _place_double_bonds(mol.bonds, arom_bonds, needy, ranks, orders):
        # the pre-normalization pattern is a witness
        raise KekulizationFailure("internal: aromatic ring lost its kekule pattern")
    mol.bonds = [Bond(b.a, b.b, orders[bi]) for bi, b in enumerate(mol.bonds)]
