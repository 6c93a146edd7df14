"""Canonical SMILES generation and structure equality.

Atom ranking is iterative neighborhood refinement (Morgan-style relaxation)
over stable 64-bit hashes, seeded with element, charge, isotope, hydrogen
count, degree, ring membership and the perceived aromatic flag.  Residual
rank ties are broken by generating the output string from every tied start
atom and keeping the lexicographically smallest.

Bond identity everywhere in this module uses the normalized label: bonds of
perceived aromatic rings compare as "aromatic" regardless of the kekulized
orders underneath, so any kekule pattern of the same ring system produces
the same canonical string and the same equality verdict.
"""

from __future__ import annotations

import hashlib
import heapq
from typing import Hashable, Sequence

from .elements import AROMATIC_BRACKET, ORGANIC_SUBSET, implicit_hydrogens
from .mol import BondOrder, Molecule


def stable_hash(*parts: Hashable) -> int:
    """Deterministic 64-bit hash, identical across runs and platforms."""
    digest = hashlib.blake2b(repr(parts).encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def refine_ranks(
    seeds: Sequence[Hashable],
    adjacency: Sequence[Sequence[tuple[int, int]]],
) -> tuple[list[int], list[int]]:
    """Iteratively refine atom invariants until the partition stabilizes.

    ``adjacency[i]`` lists ``(bond_label, neighbor)`` pairs with int labels.
    Returns dense ranks plus the final per-atom keys; keys are comparable
    across molecules.

    Each distinct seed, and in each round each distinct ``("refine", key,
    sorted neighbourhood)`` tuple, is hashed once; seeds that compare equal
    must therefore have equal reprs.  The round that only confirms stability
    hashes nothing: the partition is stable when its distinct tuples are as
    many as the current classes.
    """

    def keys_of(parts: list[tuple]) -> list[int]:
        hashes = {part: stable_hash(*part) for part in set(parts)}
        return [hashes[part] for part in parts]

    keys = keys_of([("seed", seed) for seed in seeds])
    n_classes = len(set(keys))
    while True:
        parts = [
            ("refine", keys[i], tuple(sorted([(label, keys[j]) for label, j in adjacency[i]])))
            for i in range(len(keys))
        ]
        n_distinct = len(set(parts))
        if n_distinct == n_classes:
            break
        keys = keys_of(parts)
        n_classes = n_distinct
    order = {key: rank for rank, key in enumerate(sorted(set(keys)))}
    return [order[k] for k in keys], keys


def normalized_bond_label(mol: Molecule, bond_index: int) -> int:
    """Bond label for identity purposes: kekulized order, aromatic rings as 4."""
    if bond_index in mol.aromatic_bonds:
        return int(BondOrder.AROMATIC)
    return int(mol.bonds[bond_index].order)


def labeled_adjacency(mol: Molecule) -> list[list[tuple[int, int]]]:
    """Per-atom ``(normalized_bond_label, neighbor)`` pairs, in adjacency order."""
    return [
        [(normalized_bond_label(mol, bi), j) for j, bi in neighbors]
        for neighbors in mol.adjacency()
    ]


def _atom_seed(mol: Molecule, i: int) -> tuple:
    atom = mol.atoms[i]
    return (
        atom.element,
        atom.charge,
        atom.isotope or 0,
        mol.hydrogens[i],
        mol.degree(i),
        i in mol.ring_atoms,
        i in mol.aromatic_atoms,
    )


def _discrete_ranks(
    seeds: list,
    adjacency: list[list[tuple[int, int]]],
    component: list[int],
    start: int,
) -> list[int]:
    """Refine to a fully discrete partition on one component.

    The start atom is individualized first; remaining tied classes are broken
    one atom at a time (lowest rank class, lowest current rank member), each
    followed by re-refinement.  Ties left by plain refinement are automorphism
    orbits for molecular graphs, so which member gets individualized does not
    change the resulting string.
    """
    comp = set(component)
    marks: dict[int, int] = {start: 0}
    while True:
        marked_seeds = [(seeds[i], marks.get(i, -1)) for i in range(len(seeds))]
        ranks, _ = refine_ranks(marked_seeds, adjacency)
        classes: dict[int, list[int]] = {}
        for i in comp:
            classes.setdefault(ranks[i], []).append(i)
        tied = [members for members in classes.values() if len(members) > 1]
        if not tied:
            return ranks
        members = min(tied, key=lambda ms: min(ranks[i] for i in ms))
        marks[min(members)] = len(marks)


def _implied_aromatic_h(element: str, degree: int) -> int:
    if element == "C":
        return 1 if degree == 2 else 0
    return 0


def _atom_token(mol: Molecule, i: int) -> str:
    atom = mol.atoms[i]
    h = mol.hydrogens[i]
    aromatic = i in mol.aromatic_atoms
    plain_ok = atom.charge == 0 and atom.isotope is None and atom.element in ORGANIC_SUBSET
    if plain_ok:
        if aromatic:
            if atom.element in ("C", "N", "O", "P", "S") and h == _implied_aromatic_h(
                atom.element, mol.degree(i)
            ):
                return atom.element.lower()
        else:
            order_sum = sum(int(mol.bonds[bi].order) for _, bi in mol.neighbors(i))
            if h == implicit_hydrogens(atom.element, order_sum):
                return atom.element
    symbol = atom.element.lower() if aromatic and atom.element.lower() in AROMATIC_BRACKET else atom.element
    parts = ["["]
    if atom.isotope is not None:
        parts.append(str(atom.isotope))
    parts.append(symbol)
    if h == 1:
        parts.append("H")
    elif h > 1:
        parts.append(f"H{h}")
    if atom.charge == 1:
        parts.append("+")
    elif atom.charge == -1:
        parts.append("-")
    elif atom.charge > 1:
        parts.append(f"+{atom.charge}")
    elif atom.charge < -1:
        parts.append(str(atom.charge))
    parts.append("]")
    return "".join(parts)


def _bond_token(mol: Molecule, bond_index: int) -> str:
    if bond_index in mol.aromatic_bonds:
        return ""
    bond = mol.bonds[bond_index]
    if bond.order == BondOrder.DOUBLE:
        return "="
    if bond.order == BondOrder.TRIPLE:
        return "#"
    # Single bond: must be written out between two aromatic atoms, where the
    # parser would otherwise read an aromatic ring bond.
    if bond.a in mol.aromatic_atoms and bond.b in mol.aromatic_atoms:
        return "-"
    return ""


def _component_string(mol: Molecule, start: int, ranks: Sequence[int]) -> str:
    adj = mol.adjacency()

    def neighbor_order(u: int) -> list[tuple[int, int]]:
        return sorted(adj[u], key=lambda vb: (ranks[vb[0]], normalized_bond_label(mol, vb[1]), vb[0]))

    # Pass 1: fix the traversal (tree children, ring closures, output order).
    position: dict[int, int] = {}
    children: dict[int, list[tuple[int, int]]] = {}
    opens_at: dict[int, list[int]] = {}
    closes_at: dict[int, list[int]] = {}
    used_bonds: set[int] = set()

    def visit(u: int) -> None:
        position[u] = len(position)
        children[u] = []
        for v, bi in neighbor_order(u):
            if bi in used_bonds:
                continue
            if v in position:
                used_bonds.add(bi)
                opens_at.setdefault(v, []).append(bi)
                closes_at.setdefault(u, []).append(bi)
            else:
                used_bonds.add(bi)
                children[u].append((v, bi))
                visit(v)

    visit(start)

    # Pass 2: ring-closure digits, smallest free number first.  Digits for
    # bonds opening at an atom are ordered by where the partner closes.
    closer_pos: dict[int, int] = {}
    for bis in opens_at.values():
        for bi in bis:
            bond = mol.bonds[bi]
            closer_pos[bi] = max(position[bond.a], position[bond.b])
    digit_of: dict[int, int] = {}
    free: list[int] = list(range(1, 100))
    heapq.heapify(free)
    for u in sorted(position, key=position.get):
        for bi in sorted(opens_at.get(u, []), key=lambda b: closer_pos[b]):
            digit_of[bi] = heapq.heappop(free)
        for bi in closes_at.get(u, []):
            heapq.heappush(free, digit_of[bi])

    def digit_str(bi: int) -> str:
        d = digit_of[bi]
        return str(d) if d <= 9 else f"%{d:02d}"

    def render(u: int) -> str:
        out = [_atom_token(mol, u)]
        for bi in sorted(opens_at.get(u, []), key=lambda b: digit_of[b]):
            out.append(digit_str(bi))
        for bi in closes_at.get(u, []):
            out.append(_bond_token(mol, bi) + digit_str(bi))
        kids = children[u]
        for v, bi in kids[:-1]:
            out.append("(" + _bond_token(mol, bi) + render(v) + ")")
        if kids:
            v, bi = kids[-1]
            out.append(_bond_token(mol, bi) + render(v))
        return "".join(out)

    return render(start)


def write_smiles(mol: Molecule, ranks: Sequence[int]) -> str:
    """Write a SMILES string following the atom priority in ``ranks``.

    Tests feed random ranks here to produce scrambled but equivalent
    traversals; the canonical writer adds individualization on top.
    """
    mol.require_perceived("SMILES writing")
    parts = []
    for comp in mol.components():
        best_rank = min(ranks[i] for i in comp)
        starts = [i for i in comp if ranks[i] == best_rank]
        parts.append(min(_component_string(mol, s, ranks) for s in starts))
    return ".".join(sorted(parts))


def canonical_smiles(mol: Molecule) -> str:
    """Deterministic SMILES: identical for every isomorphic input.

    Each atom of the lowest refinement class of a component is tried as the
    traversal start with fully individualized ranks, and the lexicographically
    smallest string wins.  The result is cached on the molecule.
    """
    mol.require_perceived("canonical SMILES")
    if mol._canonical is None:
        mol._canonical = _canonical_string(mol)
    return mol._canonical


def _canonical_string(mol: Molecule) -> str:
    seeds = [_atom_seed(mol, i) for i in range(mol.n_atoms)]
    adjacency = labeled_adjacency(mol)
    base_ranks, _ = refine_ranks(seeds, adjacency)
    parts = []
    for comp in mol.components():
        best_rank = min(base_ranks[i] for i in comp)
        candidates = [i for i in comp if base_ranks[i] == best_rank]
        parts.append(
            min(
                _component_string(mol, start, _discrete_ranks(seeds, adjacency, comp, start))
                for start in candidates
            )
        )
    return ".".join(sorted(parts))


def _equality_label(mol: Molecule, i: int) -> tuple:
    atom = mol.atoms[i]
    return (atom.element, atom.charge, atom.isotope or 0, mol.hydrogens[i])


def _equality_labels(mol: Molecule) -> list[tuple]:
    return [_equality_label(mol, i) for i in range(mol.n_atoms)]


def same_structure(a: Molecule, b: Molecule, canonical=canonical_smiles) -> bool:
    """Whether ``a`` and ``b`` have equal canonical SMILES, canonicalizing
    only when needed.

    The same object is the same structure.  Otherwise only molecules with
    equal atom and bond counts and equal sorted (element, charge, isotope,
    total H) atom labels can be, since the canonical string determines these;
    none of them reads a bond order, so Kekule patterns cannot split a pair.
    Only those pairs are canonicalized, through ``canonical``: callers pass
    their own module's ``canonical_smiles`` binding, the one that
    ``bench/tracing.py`` wraps.
    """
    if a is b:
        return True
    if a.n_atoms != b.n_atoms or a.n_bonds != b.n_bonds:
        return False
    if sorted(_equality_labels(a)) != sorted(_equality_labels(b)):
        return False
    return canonical(a) == canonical(b)


def molecules_equal(a: Molecule, b: Molecule) -> bool:
    """Labeled-graph isomorphism on (element, charge, isotope, total H) atoms
    and normalized bond labels.  Independent of the canonical writer, so it
    can serve as its correctness oracle.
    """
    a.require_perceived("equality")
    b.require_perceived("equality")
    if a.n_atoms != b.n_atoms or a.n_bonds != b.n_bonds:
        return False
    labels_a = _equality_labels(a)
    labels_b = _equality_labels(b)
    if sorted(labels_a) != sorted(labels_b):
        return False

    adj_a = labeled_adjacency(a)
    adj_b = labeled_adjacency(b)
    _, keys_a = refine_ranks(labels_a, adj_a)
    _, keys_b = refine_ranks(labels_b, adj_b)
    if sorted(keys_a) != sorted(keys_b):
        return False

    candidates: dict[int, list[int]] = {}
    for j, key in enumerate(keys_b):
        candidates.setdefault(key, []).append(j)

    edge_label_b: dict[tuple[int, int], int] = {}
    for bi, bond in enumerate(b.bonds):
        edge_label_b[bond.key()] = normalized_bond_label(b, bi)

    # Static matching order: walk components, preferring atoms adjacent to
    # already-ordered ones so the edge checks prune early.
    order: list[int] = []
    placed = [False] * a.n_atoms
    class_size = {key: len(js) for key, js in candidates.items()}
    pending: list[int] = []
    for root in sorted(range(a.n_atoms), key=lambda i: (class_size[keys_a[i]], i)):
        if placed[root]:
            continue
        pending.append(root)
        placed[root] = True
        while pending:
            u = pending.pop()
            order.append(u)
            for v, _ in sorted(a.neighbors(u), key=lambda vb: (class_size[keys_a[vb[0]]], vb[0])):
                if not placed[v]:
                    placed[v] = True
                    pending.append(v)

    mapping: dict[int, int] = {}
    used_b: set[int] = set()

    def backtrack(depth: int) -> bool:
        if depth == len(order):
            return True
        u = order[depth]
        for j in candidates[keys_a[u]]:
            if j in used_b:
                continue
            ok = True
            for label, v in adj_a[u]:
                if v in mapping:
                    pair = (j, mapping[v]) if j < mapping[v] else (mapping[v], j)
                    if edge_label_b.get(pair) != label:
                        ok = False
                        break
            if ok:
                mapping[u] = j
                used_b.add(j)
                if backtrack(depth + 1):
                    return True
                del mapping[u]
                used_b.discard(j)
        return False

    return backtrack(0)
