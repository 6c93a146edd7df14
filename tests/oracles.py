"""Independent reference implementations used to cross-check the fast paths.

Nothing here imports the modules it checks beyond the shared data types.
"""

from __future__ import annotations

import hashlib

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



def seeded_lower_bound_all_pairs(pa, pb, upper: int, seeds: int) -> int:
    """The MCES seeded lower bound, ranking every same-element atom pair.

    ``pa`` and ``pb`` are the two molecules' MCES profiles.  Every pair is
    ranked by (-depth, u, v), where depth counts the leading environment
    radii on which the two atoms agree.  From each of the first ``seeds``
    pairs a mapping is grown breadth-first along same-order bonds (each
    neighbour takes its unused same-element, same-order partner of greatest
    depth, the lowest index on a tie), then restarted from every ranked pair
    whose atoms are both still free.  Returns the best common edge count,
    stopping at the first seed that reaches ``upper``.
    """

    def depth(u: int, v: int) -> int:
        d = 0
        for x, y in zip(pa.env[u], pb.env[v]):
            if x != y:
                break
            d += 1
        return d

    ranked = sorted(
        (-depth(u, v), u, v)
        for u, element in enumerate(pa.elements)
        for v, other in enumerate(pb.elements)
        if element == other
    )

    def grow(u0: int, v0: int) -> None:
        phi[u0] = v0
        used[v0] = True
        queue = [u0]
        for u in queue:
            for u2, order in pa.neighbors[u]:
                if phi[u2] >= 0:
                    continue
                pick, pick_depth = -1, 0
                for v2, order2 in pb.neighbors[phi[u]]:
                    if order2 == order and not used[v2] and pb.elements[v2] == pa.elements[u2]:
                        if depth(u2, v2) > pick_depth:
                            pick, pick_depth = v2, depth(u2, v2)
                if pick >= 0:
                    phi[u2] = pick
                    used[pick] = True
                    queue.append(u2)

    best = 0
    for _, u0, v0 in ranked[:seeds]:
        phi = [-1] * len(pa.elements)
        used = [False] * len(pb.elements)
        grow(u0, v0)
        for _, u, v in ranked:
            if phi[u] < 0 and not used[v]:
                grow(u, v)
        bonds_b = {(x, y, order) for x, y, (_, order) in pb.edges}
        common = sum(
            1
            for u, v, (_, order) in pa.edges
            if phi[u] >= 0 and phi[v] >= 0
            and ((phi[u], phi[v], order) in bonds_b or (phi[v], phi[u], order) in bonds_b)
        )
        best = max(best, common)
        if best >= upper:
            break
    return best


def refine_ranks_rehashing(seeds, adjacency) -> tuple[list[int], list[int]]:
    """Morgan-style refinement that hashes every atom in every round.

    The straightforward form of ``chem.canon.refine_ranks``: each round
    rehashes each atom's key and sorted neighbourhood with blake2b over the
    repr, including the round that only confirms the partition is stable.
    """

    def stable_hash(*parts) -> int:
        digest = hashlib.blake2b(repr(parts).encode("utf-8"), digest_size=8).digest()
        return int.from_bytes(digest, "big")

    keys = [stable_hash("seed", seed) for seed in seeds]
    n_classes = len(set(keys))
    while True:
        new_keys = [
            stable_hash("refine", keys[i], tuple(sorted((label, keys[j]) for label, j in adjacency[i])))
            for i in range(len(seeds))
        ]
        new_n = len(set(new_keys))
        if new_n == n_classes:
            break
        keys = new_keys
        n_classes = new_n
    order = {key: rank for rank, key in enumerate(sorted(set(keys)))}
    return [order[k] for k in keys], keys
