"""Independent reference implementations used to cross-check the fast paths.

Nothing here imports the modules it checks beyond the shared data types.
"""

from __future__ import annotations

from ms2smiles.chem.mol import Molecule


def brute_force_mces(a: Molecule, b: Molecule) -> int:
    """Exhaustive maximum common edge subgraph over injective partial atom maps.

    Each atom of ``a`` maps to an unused same-element atom of ``b`` or stays
    unmapped; an edge counts when both endpoints are mapped, the image pair is
    bonded in ``b``, and the bond orders match.  Exponential; intended for
    molecules with at most ~8 heavy atoms.
    """

    def edge_label(mol: Molecule, bond) -> tuple:
        ea, eb = mol.atoms[bond.a].element, mol.atoms[bond.b].element
        pair = (ea, eb) if ea <= eb else (eb, ea)
        return (pair, int(bond.order))

    edges_a = [(bond.a, bond.b, edge_label(a, bond)) for bond in a.bonds]
    edges_b = {bond.key(): edge_label(b, bond) for bond in b.bonds}
    na, nb = a.n_atoms, b.n_atoms

    # suffix[i]: edges whose larger endpoint is >= i, an upper bound on what
    # the remaining assignments can still add.
    suffix = [0] * (na + 1)
    for i in range(na - 1, -1, -1):
        suffix[i] = suffix[i + 1] + sum(1 for u, v, _ in edges_a if max(u, v) == i)

    incident = [[] for _ in range(na)]
    for u, v, label in edges_a:
        incident[max(u, v)].append((min(u, v), label))

    best = 0
    used = [False] * nb

    def recurse(i: int, mapping: dict[int, int], count: int) -> None:
        nonlocal best
        if count + suffix[i] <= best:
            return
        if i == na:
            best = max(best, count)
            return
        recurse(i + 1, mapping, count)
        element = a.atoms[i].element
        for j in range(nb):
            if used[j] or b.atoms[j].element != element:
                continue
            gained = 0
            for other, label in incident[i]:
                if other in mapping:
                    key = (j, mapping[other]) if j < mapping[other] else (mapping[other], j)
                    if edges_b.get(key) == label:
                        gained += 1
            used[j] = True
            mapping[i] = j
            recurse(i + 1, mapping, count + gained)
            del mapping[i]
            used[j] = False

    recurse(0, {}, 0)
    return best


def adjacency_set(mol: Molecule) -> set[tuple[str, str, int]]:
    """Multiset-free view of the bond list for hand-built adjacency checks."""
    out = set()
    for bond in mol.bonds:
        ea, eb = mol.atoms[bond.a].element, mol.atoms[bond.b].element
        lo, hi = sorted((ea, eb))
        out.add((lo, hi, int(bond.order)))
    return out

