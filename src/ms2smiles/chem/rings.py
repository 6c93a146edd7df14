"""Ring perception: cycle bonds via bridge finding, and small-cycle listing."""

from __future__ import annotations

from .mol import Molecule


def ring_bond_indices(mol: Molecule) -> frozenset[int]:
    """Indices of bonds that lie on at least one cycle (non-bridge edges)."""
    n = mol.n_atoms
    adj = mol.adjacency()
    disc = [-1] * n
    low = [0] * n
    bridges: set[int] = set()
    timer = 0
    for root in range(n):
        if disc[root] != -1:
            continue
        # Iterative DFS: (node, incoming bond index, neighbor cursor).
        stack = [(root, -1, 0)]
        disc[root] = low[root] = timer
        timer += 1
        while stack:
            u, in_bond, cursor = stack[-1]
            if cursor < len(adj[u]):
                stack[-1] = (u, in_bond, cursor + 1)
                v, bi = adj[u][cursor]
                if bi == in_bond:
                    continue
                if disc[v] == -1:
                    disc[v] = low[v] = timer
                    timer += 1
                    stack.append((v, bi, 0))
                else:
                    low[u] = min(low[u], disc[v])
            else:
                stack.pop()
                if stack:
                    p = stack[-1][0]
                    low[p] = min(low[p], low[u])
                    if low[u] > disc[p]:
                        bridges.add(in_bond)
    return frozenset(bi for bi in range(mol.n_bonds) if bi not in bridges)


def small_rings(mol: Molecule, max_size: int = 7) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All simple cycles up to ``max_size`` atoms, as (atom_tuple, bond_tuple).

    Restricted to ``mol.ring_bonds``, deduplicated by atom set.  Each cycle's
    atoms are listed in traversal order starting from its smallest atom index.
    """
    adj_ring: list[list[tuple[int, int]]] = [[] for _ in mol.atoms]
    for bi in mol.ring_bonds:
        bond = mol.bonds[bi]
        adj_ring[bond.a].append((bond.b, bi))
        adj_ring[bond.b].append((bond.a, bi))

    found: dict[frozenset[int], tuple[tuple[int, ...], tuple[int, ...]]] = {}

    def extend(start: int, path: list[int], path_bonds: list[int], on_path: set[int]) -> None:
        u = path[-1]
        for v, bi in adj_ring[u]:
            if v == start and len(path) >= 3:
                key = frozenset(path)
                if key not in found:
                    found[key] = (tuple(path), tuple(path_bonds[1:]) + (bi,))
            elif v > start and v not in on_path and len(path) < max_size:
                path.append(v)
                path_bonds.append(bi)
                on_path.add(v)
                extend(start, path, path_bonds, on_path)
                on_path.remove(v)
                path_bonds.pop()
                path.pop()

    for start in range(mol.n_atoms):
        if adj_ring[start]:
            extend(start, [start], [-1], {start})
    return list(found.values())
