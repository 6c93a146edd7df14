"""Maximum common edge subgraph and the normalized dissimilarity.

An edge of one molecule may map to an edge of the other when both carry the
same kekulized bond order and the same unordered endpoint-element pair, and
the per-edge correspondences must extend to one consistent partial injective
atom mapping.  The search is branch-and-bound maximum clique on the modular
product of the two line graphs: one product vertex per oriented compatible
edge pair, adjacency between pairs whose union is still a consistent
injective mapping (which also rules out the triangle/star line-graph
ambiguity).  The common subgraph may be disconnected.

Before the search, the product's vertices are renumbered by descending
degree, which tightens the coloring bound; each adjacency row is permuted
in C as a binary string.  A greedy clique, the same in either numbering,
gives the search its first lower bound, and when it already reaches the
label-multiset bound no relabeling or search runs.

A wall-clock budget bounds each call.  Building the product, relabeling it
and searching all check the deadline.  On expiry the best clique found so
far (the greedy one if the search never started) is returned with
``optimal=False``: a lower bound on the common edge count, hence an upper
bound on the dissimilarity.

``mces_floor`` gives the dissimilarity that the label-multiset bound
allows, a lower bound on any ``mces`` result, without building the product.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from operator import itemgetter

from ..chem.canon import canonical_smiles
from ..chem.mol import Molecule

_PRODUCT_CAP = 20_000


@dataclass(frozen=True)
class McesResult:
    common_edges: int
    dissimilarity: float
    optimal: bool


class _Deadline(Exception):
    pass


def mces(a: Molecule, b: Molecule, budget: float = 1.0) -> McesResult:
    """Largest label-compatible common edge subgraph of two molecules."""
    a.require_perceived("MCES")
    b.require_perceived("MCES")
    n_ea, n_eb = a.n_bonds, b.n_bonds
    max_e = max(n_ea, n_eb)
    if max_e == 0:
        same_single_atom = (
            a.n_atoms == 1 and b.n_atoms == 1 and a.atoms[0].element == b.atoms[0].element
        )
        return McesResult(0, 0.0 if same_single_atom else 1.0, True)
    if min(n_ea, n_eb) == 0:
        return McesResult(0, 1.0, True)

    edges_a = _labeled_edges(a)
    edges_b = _labeled_edges(b)
    label_bound = _label_multiset_bound(edges_a, edges_b)
    if label_bound == 0:
        return McesResult(0, 1.0, True)

    # Identical structures need no search; this also keeps the exact-match /
    # zero-dissimilarity correspondence immune to budget truncation.
    if n_ea == n_eb and canonical_smiles(a) == canonical_smiles(b):
        return McesResult(n_ea, 0.0, True)

    deadline = time.monotonic() + budget
    adj = _product_adjacency(a, b, edges_a, edges_b, deadline)
    if adj is None:
        # No time to build the product graph; a single compatible pair is
        # always a consistent common subgraph, so 1 is a safe lower bound.
        return McesResult(1, _dissim(1, max_e), False)

    # The greedy clique visits vertices in the relabeled order, so it is the
    # same before and after relabeling; taking it first skips the relabel
    # whenever it already reaches the label bound.
    best = _greedy_clique(adj)
    if best >= label_bound:
        return McesResult(best, _dissim(best, max_e), True)
    adj = _relabel_by_degree(adj, deadline)
    if adj is None:
        return McesResult(best, _dissim(best, max_e), False)
    optimal = True
    try:
        best = _max_clique(adj, best, label_bound, deadline)
    except _Deadline as exc:
        best = exc.args[0]
        optimal = False
    return McesResult(best, _dissim(best, max_e), optimal)


def mces_floor(a: Molecule, b: Molecule) -> float:
    """A lower bound on ``mces(a, b).dissimilarity`` that runs no search.

    No common subgraph, optimal or truncated, has more edges than the
    label-multiset bound, which reads the same edge labels as the search.
    0.0 when either molecule has no bonds.
    """
    a.require_perceived("MCES")
    b.require_perceived("MCES")
    if min(a.n_bonds, b.n_bonds) == 0:
        return 0.0
    bound = _label_multiset_bound(_labeled_edges(a), _labeled_edges(b))
    return _dissim(bound, max(a.n_bonds, b.n_bonds))


def _dissim(common: int, max_e: int) -> float:
    return min(1.0, max(0.0, 1.0 - common / max_e))


def _labeled_edges(mol: Molecule) -> list[tuple[int, int, tuple]]:
    edges = []
    for bond in mol.bonds:
        ea, eb = mol.atoms[bond.a].element, mol.atoms[bond.b].element
        pair = (ea, eb) if ea <= eb else (eb, ea)
        edges.append((bond.a, bond.b, (pair, int(bond.order))))
    return edges


_edge_label = itemgetter(2)


def _label_multiset_bound(edges_a, edges_b) -> int:
    return sum((Counter(map(_edge_label, edges_a)) & Counter(map(_edge_label, edges_b))).values())


def _product_adjacency(
    a: Molecule, b: Molecule, edges_a, edges_b, deadline: float
) -> list[int] | None:
    """Adjacency bitsets of the oriented modular product, or None on timeout."""
    elem_a = [atom.element for atom in a.atoms]
    elem_b = [atom.element for atom in b.atoms]
    by_label: dict[tuple, list[int]] = {}
    for j, (_, _, label) in enumerate(edges_b):
        by_label.setdefault(label, []).append(j)

    ea_of: list[int] = []
    eb_of: list[int] = []
    assigns: list[tuple[tuple[int, int], tuple[int, int]]] = []
    for i, (u1, u2, label) in enumerate(edges_a):
        for j in by_label.get(label, ()):
            v1, v2, _ = edges_b[j]
            if elem_a[u1] == elem_b[v1] and elem_a[u2] == elem_b[v2]:
                ea_of.append(i)
                eb_of.append(j)
                assigns.append(((u1, v1), (u2, v2)))
            if v1 != v2 and elem_a[u1] == elem_b[v2] and elem_a[u2] == elem_b[v1]:
                ea_of.append(i)
                eb_of.append(j)
                assigns.append(((u1, v2), (u2, v1)))
            if len(assigns) > _PRODUCT_CAP:
                return None

    n = len(assigns)
    if n == 0:
        return []

    mask_ea: dict[int, int] = {}
    mask_eb: dict[int, int] = {}
    mask_a_atom: dict[int, int] = {}
    mask_b_atom: dict[int, int] = {}
    mask_assign: dict[tuple[int, int], int] = {}
    for p in range(n):
        bit = 1 << p
        mask_ea[ea_of[p]] = mask_ea.get(ea_of[p], 0) | bit
        mask_eb[eb_of[p]] = mask_eb.get(eb_of[p], 0) | bit
        for x, y in assigns[p]:
            mask_a_atom[x] = mask_a_atom.get(x, 0) | bit
            mask_b_atom[y] = mask_b_atom.get(y, 0) | bit
            mask_assign[(x, y)] = mask_assign.get((x, y), 0) | bit

    full = (1 << n) - 1
    adj: list[int] = []
    for p in range(n):
        if p % 256 == 0 and time.monotonic() > deadline:
            return None
        conflict = mask_ea[ea_of[p]] | mask_eb[eb_of[p]]
        for x, y in assigns[p]:
            agree = mask_assign[(x, y)]
            conflict |= mask_a_atom[x] & ~agree
            conflict |= mask_b_atom[y] & ~agree
        adj.append(full & ~conflict & ~(1 << p))
    return adj


def _relabel_by_degree(adj: list[int], deadline: float) -> list[int] | None:
    """Renumber vertices by descending degree, or None on timeout.

    The new vertex ``j`` is the old vertex ``order[j]``.  Each row is spelled
    as a fixed-width binary string and its characters are picked in the new
    order by one ``itemgetter``, so the permutation of a row runs in C.
    """
    n = len(adj)
    if n == 0:
        return []
    order = sorted(range(n), key=lambda v: adj[v].bit_count(), reverse=True)
    # Character i of a row's string is bit n-1-i, so new bit j sits at
    # character n-1-j and is read from the old string at n-1-order[j].
    pick = itemgetter(*[n - 1 - order[n - 1 - i] for i in range(n)])
    width = f"0{n}b"
    relabeled: list[int] = []
    for new, old in enumerate(order):
        if new % 256 == 0 and time.monotonic() > deadline:
            return None
        relabeled.append(int("".join(pick(format(adj[old], width))), 2))
    return relabeled


def _greedy_clique(adj: list[int]) -> int:
    n = len(adj)
    if n == 0:
        return 0
    order = sorted(range(n), key=lambda v: adj[v].bit_count(), reverse=True)
    cand = (1 << n) - 1
    size = 0
    for v in order:
        if cand >> v & 1:
            size += 1
            cand &= adj[v]
    return size


def _max_clique(adj: list[int], lower: int, cap: int, deadline: float) -> int:
    """Tomita-style branch and bound with greedy coloring bounds."""
    best = lower
    n = len(adj)

    def expand(size: int, cand: int) -> None:
        nonlocal best
        if best >= cap:
            return
        if time.monotonic() > deadline:
            raise _Deadline(best)
        if cand == 0:
            if size > best:
                best = size
            return
        # Greedy coloring: a color class is an independent set, so the color
        # number of a vertex bounds how far the clique can still grow.
        order: list[int] = []
        colors: list[int] = []
        uncolored = cand
        color = 0
        while uncolored:
            color += 1
            avail = uncolored
            while avail:
                v = (avail & -avail).bit_length() - 1
                order.append(v)
                colors.append(color)
                avail &= ~adj[v] & ~(1 << v)
                uncolored &= ~(1 << v)
        for idx in range(len(order) - 1, -1, -1):
            if size + colors[idx] <= best or best >= cap:
                return
            v = order[idx]
            expand(size + 1, cand & adj[v])
            cand &= ~(1 << v)

    expand(0, (1 << n) - 1)
    return best
