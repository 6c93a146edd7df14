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
2. Seeded lower bound.  Same-element atom pairs are ranked by the radius
   (0-4) to which their circular environments agree.  From each of the
   best ``_SEEDS`` pairs one element-preserving injective mapping is grown
   along same-order bonds, then restarted from the next unmapped ranked
   pair, and the A-bonds whose image is a same-order B-bond are counted.
   The first seed that reaches the upper bound ends the call.
3. Assignment upper bound, only for pairs still open.  A maximum-weight
   matching per element, where an atom pair weighs the size of the
   multiset intersection of its incident (neighbour element, order) labels,
   bounds twice the common edges of any single mapping.
4. Partition search, a McSplit branch and bound (McCreesh, Prosser &
   Trimble, IJCAI 2017) over the two bond line graphs.  Mapping a bond also
   maps its atoms, so every result is an injective, element-preserving atom
   map (which rules out the triangle/star line-graph ambiguity).  It runs
   from the lower bound and stops at the upper one.

``optimal=True`` means the lower bound met an upper bound, or the search
finished, so the count is the maximum.  A wall-clock budget bounds each
call: seeding checks the deadline once per seed, the matching once per row
and the search every 256 nodes.  On expiry the largest lower bound found so
far is returned with ``optimal=False``: a lower bound on the common edge
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
    bonds_at: list[list[int]]  # indices into ``edges`` per atom
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
    best = max(best, 1)  # a single compatible edge pair is a common subgraph
    if best >= upper:
        return result(best, True)
    if expired:
        return result(best, False)

    assignment = _assignment_bound(pa, pb, deadline)
    if assignment is None:
        return result(best, False)
    upper = min(upper, assignment)
    if best >= upper:
        return result(best, True)

    try:
        return result(_mcsplit(pa, pb, best, upper, deadline), True)
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
    """(atom, atom, label) per bond, the lower element first."""
    edges = []
    for bond in mol.bonds:
        (ea, u), (eb, v) = sorted((mol.atoms[i].element, i) for i in (bond.a, bond.b))
        edges.append((u, v, ((ea, eb), int(bond.order))))
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
    bonds_at: list[list[int]] = [[] for _ in elements]
    for i, (u, v, (_, order)) in enumerate(edges):
        neighbors[u].append((v, order))
        neighbors[v].append((u, order))
        bonds_at[u].append(i)
        bonds_at[v].append(i)
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
        bonds_at=bonds_at,
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


def _mcsplit(pa: _Profile, pb: _Profile, lower: int, upper: int, deadline: float) -> int:
    """McSplit branch and bound over the bond line graphs.

    A class pairs the A-bonds and B-bonds that may still map to each other:
    the same label, and ends that agree under the atom map so far.  An end's
    token is -1 when free and its B-atom when fixed.  A homonuclear bond
    mapped with both ends free gives its four atoms the token ``nb`` plus its
    index, which leaves the orientation open until a neighbouring bond fixes
    one end; the token then names the other pair.  Tokens only refine, so
    the mapped count plus the sum over classes of min(|L|, |R|) bounds every
    extension.  Returns the largest common edge count, at least ``lower``,
    and stops at ``upper``; raises ``_Deadline(best)`` when the deadline,
    read every 256 nodes, has passed.
    """
    edges_a, edges_b = pa.edges, pb.edges
    at_a, at_b = pa.bonds_at, pb.bonds_at
    nb = len(pb.elements)
    degree = [len(at_a[u]) + len(at_a[v]) - 2 for u, v, _ in edges_a]
    best = lower
    nodes = 0

    def key(edge: tuple, tok: list[int]) -> tuple[int, int]:
        s, t, ((e1, e2), _) = edge
        x, y = tok[s], tok[t]
        return (y, x) if e1 == e2 and x > y else (x, y)

    def split(classes, ci, v, w, tok_a, tok_b, hit_a, hit_b) -> tuple[list, int, int]:
        """The classes after mapping v to w, the bonds that map for free, and
        the sum of min(|L|, |R|).  ``hit_a`` and ``hit_b`` hold the bonds whose
        key changed; only their classes split."""
        out = []
        free = bound = 0
        for i, (left, right) in enumerate(classes):
            if i == ci:
                left = [x for x in left if x != v]
                right = [y for y in right if y != w]
            if hit_a.isdisjoint(left) and hit_b.isdisjoint(right):
                if left and right:
                    out.append((left, right))
                    bound += min(len(left), len(right))
                continue
            keep_left: list[int] = []
            keep_right: list[int] = []
            # Unchanged bonds keep their class; no changed key is (-1, -1).
            groups = {(-1, -1): (keep_left, keep_right)}
            for x in left:
                if x in hit_a:
                    groups.setdefault(key(edges_a[x], tok_a), ([], []))[0].append(x)
                else:
                    keep_left.append(x)
            for y in right:
                if y not in hit_b:
                    keep_right.append(y)
                elif (group := groups.get(key(edges_b[y], tok_b))) is not None:
                    group[1].append(y)
            for (x, y), (group_left, group_right) in groups.items():
                if not (group_left and group_right):
                    continue
                if 0 <= x < nb and 0 <= y < nb:
                    free += 1  # both ends fixed: the image bond is the only match
                else:
                    out.append((group_left, group_right))
                    bound += min(len(group_left), len(group_right))
        return out, free, bound

    def search(classes: list, tok_a: list[int], tok_b: list[int], count: int, bound: int):
        """One node, as a generator that yields each child worth a visit to the
        loop below, so depth (one level per A-bond) escapes the recursion limit."""
        nonlocal best, nodes
        if nodes & 255 == 0 and time.monotonic() > deadline:
            raise _Deadline(best)
        nodes += 1
        best = max(best, count)
        if best >= upper or not classes:
            return
        ci = min(range(len(classes)), key=lambda i: max(map(len, classes[i])))
        left, right = classes[ci]
        v = max(left, key=degree.__getitem__)
        s, t, ((e1, e2), _) = edges_a[v]
        for w in right:
            s2, t2, _ = edges_b[w]
            child_a, child_b = tok_a[:], tok_b[:]
            if e1 == e2 and tok_a[s] == tok_a[t] == -1:
                child_a[s] = child_a[t] = child_b[s2] = child_b[t2] = nb + v
                hit_a, hit_b = [s, t], [s2, t2]
            else:
                if e1 == e2 and tok_a[s] != tok_b[s2]:
                    s2, t2 = t2, s2
                hit_a, hit_b = [], []
                for x, y in ((s, s2), (t, t2)):
                    if not 0 <= tok_a[x] < nb:
                        child_a[x] = child_b[y] = y
                        hit_a.append(x)
                        hit_b.append(y)
            children, free, child_bound = split(
                classes, ci, v, w, child_a, child_b,
                {e for u in hit_a for e in at_a[u]}, {e for u in hit_b for e in at_b[u]},
            )
            if count + 1 + free + child_bound > best:
                yield children, child_a, child_b, count + 1 + free, child_bound
            if best >= upper:
                return
        # Leave v unmapped: its class loses one A-bond.
        rest = [x for x in left if x != v]
        bound -= len(left) <= len(right)
        if count + bound > best:
            children = classes[:ci] + ([(rest, right)] if rest else []) + classes[ci + 1:]
            yield children, tok_a, tok_b, count, bound

    by_label: dict[tuple, tuple[list, list]] = {}
    for i, (_, _, label) in enumerate(edges_a):
        by_label.setdefault(label, ([], []))[0].append(i)
    for j, (_, _, label) in enumerate(edges_b):
        if label in by_label:
            by_label[label][1].append(j)
    classes = [group for group in by_label.values() if group[1]]
    bound = sum(min(len(left), len(right)) for left, right in classes)
    stack = [search(classes, [-1] * len(pa.elements), [-1] * nb, 0, bound)]
    while stack:
        child = next(stack[-1], None)
        if child is None:
            stack.pop()
        else:
            stack.append(search(*child))
    return best
