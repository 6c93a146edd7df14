"""Maximum common edge subgraph and the normalized dissimilarity.

An edge of one molecule may map to an edge of the other when both carry the
same kekulized bond order and the same unordered endpoint-element pair, and
the per-edge correspondences must extend to one consistent partial injective
atom mapping.  The common subgraph may be disconnected.

After the edge-free, label-multiset and identity checks, ``mces`` brackets
the optimum between a lower bound (a common subgraph it has found) and an
upper bound (a count no common subgraph can exceed), and stops as soon as
the two meet.  In order, cheapest first:

1. Degree-sequence upper bound.  Each atom's bonds are counted per class
   (element, neighbour element, bond order).  A common edge at atom u maps
   to a distinct edge of the same class at u's image, so per class the two
   molecules' descending count sequences, paired off, bound twice the
   common edges at those atoms.
2. Seeded lower bound, before any product is built.  Same-element atom
   pairs are ranked by the radius (0-4) to which their circular
   environments agree.  From each of the best ``_SEEDS`` pairs one
   element-preserving injective mapping is grown along same-order bonds,
   then restarted from the next unmapped ranked pair, and the A-bonds whose
   image is a same-order B-bond are counted.  The first seed that reaches
   the upper bound ends the call.
3. Modular product and greedy clique.  The product of the two line graphs
   has one vertex per oriented compatible edge pair and an edge between
   pairs whose union is still a consistent injective mapping (which also
   rules out the triangle/star line-graph ambiguity).  Its greedy clique
   joins the seeded value as the lower bound.
4. Assignment upper bound, only for pairs still open.  A maximum-weight
   matching per element, where an atom pair weighs the size of the
   multiset intersection of its incident (neighbour element, order) labels,
   bounds twice the common edges of any single mapping.
5. Relabel and search.  The product's vertices are renumbered by
   descending degree, which tightens the coloring bound (each row is
   permuted in C as a binary string), and a branch-and-bound maximum clique
   search runs from the lower bound and stops at the upper one.

``optimal=True`` means the lower bound met an upper bound, or the search
finished, so the count is the maximum.  A wall-clock budget bounds each call: seeding checks the
deadline once per seed, the matching once per row, and the product, the
relabel and the search as they go.  On expiry the largest lower bound found
so far is returned with ``optimal=False``: a lower bound on the common edge
count, hence an upper bound on the dissimilarity.

Everything read from one molecule (labelled edges, per-atom counts,
environment codes) is built once and cached on the ``Molecule``.
``mces_floor`` gives the dissimilarity that the degree-sequence bound
allows, a lower bound on any ``mces`` result, without any search.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from operator import itemgetter

from ..chem.canon import canonical_smiles, stable_hash
from ..chem.mol import Molecule

_PRODUCT_CAP = 20_000
_SEEDS = 10
_ENV_RADIUS = 4


@dataclass(frozen=True)
class McesResult:
    common_edges: int
    dissimilarity: float
    optimal: bool


class _Deadline(Exception):
    pass


@dataclass(frozen=True, slots=True)
class _Profile:
    """The per-molecule inputs of every MCES step."""

    edges: list[tuple[int, int, tuple]]  # (atom, atom, label) per bond
    labels: Counter  # multiset of edge labels
    elements: list[str]
    by_element: dict[str, list[int]]  # atom indices, ascending
    neighbors: list[list[tuple[int, int]]]  # (neighbour, order), by neighbour index
    incident: list[tuple]  # sorted ((neighbour element, order), count) items
    degrees: dict[tuple, list[int]]  # (element, neighbour element, order) -> counts, descending
    env: list[tuple[int, ...]]  # environment codes at radius 0.._ENV_RADIUS


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

    pa, pb = _profile(a), _profile(b)
    label_bound = _label_multiset_bound(pa, pb)
    if label_bound == 0:
        return McesResult(0, 1.0, True)

    # Identical structures need no search; this also keeps the exact-match /
    # zero-dissimilarity correspondence immune to budget truncation.
    if n_ea == n_eb and canonical_smiles(a) == canonical_smiles(b):
        return McesResult(n_ea, 0.0, True)

    def result(common: int, optimal: bool) -> McesResult:
        return McesResult(common, _dissim(common, max_e), optimal)

    upper = min(label_bound, _degree_sequence_bound(pa, pb))
    deadline = time.monotonic() + budget
    best, expired = _seeded_lower_bound(pa, pb, upper, deadline)
    if best >= upper:
        return result(best, True)
    adj = None if expired else _product_adjacency(pa, pb, deadline)
    if adj is None:
        # A single compatible edge pair is always a common subgraph.
        return result(max(best, 1), False)
    # The greedy clique visits vertices in the relabeled order, so it is the
    # same before and after relabeling.
    best = max(best, _greedy_clique(adj))
    if best >= upper:
        return result(best, True)

    assignment = _assignment_bound(pa, pb, deadline)
    if assignment is None:
        return result(best, False)
    upper = min(upper, assignment)
    if best >= upper:
        return result(best, True)

    adj = _relabel_by_degree(adj, deadline)
    if adj is None:
        return result(best, False)
    try:
        return result(_max_clique(adj, best, upper, deadline), True)
    except _Deadline as exc:
        return result(exc.args[0], False)


def mces_floor(a: Molecule, b: Molecule) -> float:
    """A lower bound on ``mces(a, b).dissimilarity`` that runs no search.

    No common subgraph, optimal or truncated, has more edges than the
    label-multiset or the degree-sequence bound, which read the same edge
    labels as the search.  0.0 when either molecule has no bonds.
    """
    a.require_perceived("MCES")
    b.require_perceived("MCES")
    if min(a.n_bonds, b.n_bonds) == 0:
        return 0.0
    pa, pb = _profile(a), _profile(b)
    bound = min(_label_multiset_bound(pa, pb), _degree_sequence_bound(pa, pb))
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


def _profile(mol: Molecule) -> _Profile:
    """The molecule's MCES inputs, built on first use and cached on it."""
    if mol._mces is None:
        mol._mces = _build_profile(mol)
    return mol._mces


def _build_profile(mol: Molecule) -> _Profile:
    edges = _labeled_edges(mol)
    elements = [atom.element for atom in mol.atoms]
    by_element: dict[str, list[int]] = {}
    for i, element in enumerate(elements):
        by_element.setdefault(element, []).append(i)
    neighbors: list[list[tuple[int, int]]] = [[] for _ in elements]
    for u, v, (_, order) in edges:
        neighbors[u].append((v, order))
        neighbors[v].append((u, order))
    for row in neighbors:
        row.sort()

    incident = []
    signatures: dict[tuple, tuple] = {}  # one shared tuple per distinct signature
    degrees: dict[tuple, list[int]] = {}
    for i, row in enumerate(neighbors):
        counts = Counter((elements[j], order) for j, order in row)
        signature = tuple(sorted(counts.items()))
        incident.append(signatures.setdefault(signature, signature))
        for (element, order), count in counts.items():
            degrees.setdefault((elements[i], element, order), []).append(count)
    for counts in degrees.values():
        counts.sort(reverse=True)

    # Environment codes are compared only for equality.  Radius 0 hashes the
    # element with a process-independent digest; wider radii hash tuples of
    # ints, whose ``hash`` does not depend on PYTHONHASHSEED.
    element_code = {element: stable_hash("mces-env", element) for element in by_element}
    layers = [[element_code[element] for element in elements]]
    for _ in range(_ENV_RADIUS):
        codes = layers[-1]
        layers.append([
            hash((codes[i], tuple(sorted([(order, codes[j]) for j, order in row]))))
            for i, row in enumerate(neighbors)
        ])

    return _Profile(
        edges=edges,
        labels=Counter(map(_edge_label, edges)),
        elements=elements,
        by_element=by_element,
        neighbors=neighbors,
        incident=incident,
        degrees=degrees,
        env=list(zip(*layers)),
    )


_edge_label = itemgetter(2)


def _label_multiset_bound(pa: _Profile, pb: _Profile) -> int:
    return sum((pa.labels & pb.labels).values())


def _degree_sequence_bound(pa: _Profile, pb: _Profile) -> int:
    """Per bond class, pair off the descending per-atom counts; half the total."""
    total = 0
    for cls, counts in pa.degrees.items():
        other = pb.degrees.get(cls)
        if other:
            total += sum(map(min, counts, other))
    return total // 2


def _seeded_lower_bound(
    pa: _Profile, pb: _Profile, upper: int, deadline: float
) -> tuple[int, bool]:
    """Best common edge count over the seeded mappings, and whether time ran out."""
    env_a, env_b = pa.env, pb.env
    elem_a, elem_b = pa.elements, pb.elements
    nbrs_a, nbrs_b = pa.neighbors, pb.neighbors

    def depth(u: int, v: int) -> int:
        d = 0
        for x, y in zip(env_a[u], env_b[v]):
            if x != y:
                break
            d += 1
        return d

    ranked = sorted(
        [
            (-depth(u, v), u, v)
            for element, atoms in pa.by_element.items()
            for u in atoms
            for v in pb.by_element.get(element, ())
        ]
    )

    def grow(u0: int, v0: int) -> None:
        phi[u0] = v0
        used[v0] = True
        queue = [u0]
        for u in queue:
            row_b = nbrs_b[phi[u]]
            for u2, order in nbrs_a[u]:
                if phi[u2] >= 0:
                    continue
                # Neighbours are in index order, so a tie keeps the lower index.
                element = elem_a[u2]
                pick, pick_depth = -1, 0
                for v2, order2 in row_b:
                    if order2 == order and not used[v2] and elem_b[v2] == element:
                        d = depth(u2, v2)
                        if d > pick_depth:
                            pick, pick_depth = v2, d
                if pick >= 0:
                    phi[u2] = pick
                    used[pick] = True
                    queue.append(u2)

    best = 0
    for _, u0, v0 in ranked[:_SEEDS]:
        if time.monotonic() > deadline:
            return best, True
        phi = [-1] * len(elem_a)
        used = [False] * len(elem_b)
        grow(u0, v0)
        for _, u, v in ranked:
            if phi[u] < 0 and not used[v]:
                grow(u, v)
        common = 0
        for u, v, (_, order) in pa.edges:
            x, y = phi[u], phi[v]
            if x >= 0 and y >= 0 and (y, order) in nbrs_b[x]:
                common += 1
        best = max(best, common)
        if best >= upper:
            break
    return best, False


def _assignment_bound(pa: _Profile, pb: _Profile, deadline: float) -> int | None:
    """Half the maximum-weight element-preserving atom matching, or None on timeout.

    An atom pair weighs the size of the multiset intersection of its incident
    (neighbour element, order) labels, which bounds the common edges at that
    atom under any mapping that pairs the two.
    """
    overlap: dict[tuple, int] = {}
    total = 0
    for element, atoms_a in pa.by_element.items():
        atoms_b = pb.by_element.get(element)
        if not atoms_b:
            continue
        rows = [pa.incident[u] for u in atoms_a if pa.incident[u]]
        cols = [pb.incident[v] for v in atoms_b if pb.incident[v]]
        if len(rows) > len(cols):
            rows, cols = cols, rows
        weights = []
        for x in rows:
            row = []
            for y in cols:
                w = overlap.get((x, y))
                if w is None:
                    counts = dict(y)
                    w = overlap[(x, y)] = sum(min(n, counts.get(key, 0)) for key, n in x)
                row.append(w)
            weights.append(row)
        matched = _max_weight_matching(weights, deadline)
        if matched is None:
            return None
        total += matched
    return total // 2


def _max_weight_matching(weights: list[list[int]], deadline: float) -> int | None:
    """Hungarian method for a rectangular matrix with no more rows than columns.

    Every row is matched; returns the largest total weight, or None when the
    deadline passes (checked once per row).
    """
    n = len(weights)
    if n == 0:
        return 0
    m = len(weights[0])
    inf = float("inf")
    # Potentials for the cost -weight; p[j] is the row matched to column j
    # (1-based, 0 for none) and way[j] the previous column on its path.
    pot_row = [0] * (n + 1)
    pot_col = [0] * (m + 1)
    p = [0] * (m + 1)
    way = [0] * (m + 1)
    for i in range(1, n + 1):
        if time.monotonic() > deadline:
            return None
        p[0] = i
        j0 = 0
        minv = [inf] * (m + 1)
        used = [False] * (m + 1)
        while True:
            used[j0] = True
            i0 = p[j0]
            row = weights[i0 - 1]
            delta = inf
            j1 = 0
            for j in range(1, m + 1):
                if not used[j]:
                    cur = -row[j - 1] - pot_row[i0] - pot_col[j]
                    if cur < minv[j]:
                        minv[j] = cur
                        way[j] = j0
                    if minv[j] < delta:
                        delta = minv[j]
                        j1 = j
            for j in range(m + 1):
                if used[j]:
                    pot_row[p[j]] += delta
                    pot_col[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if p[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1
    return sum(weights[p[j] - 1][j - 1] for j in range(1, m + 1) if p[j])


def _product_adjacency(pa: _Profile, pb: _Profile, deadline: float) -> list[int] | None:
    """Adjacency bitsets of the oriented modular product, or None on timeout."""
    edges_a, edges_b = pa.edges, pb.edges
    elem_a, elem_b = pa.elements, pb.elements
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
