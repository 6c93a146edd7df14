"""Maximum common edge subgraph and the normalized dissimilarity.

An edge of one molecule may map to an edge of the other when both carry the
same kekulized bond order and the same unordered endpoint-element pair, and
the per-edge correspondences must extend to one consistent partial injective
atom mapping.  The common subgraph may be disconnected.

After the edge-free check, ``mces`` brackets the optimum between a lower
bound (a common subgraph it has found) and an upper bound (a count no
common subgraph can exceed), and stops as soon as the two meet.  In order,
cheapest first:

1. Degree-sequence upper bound (RASCAL; Raymond, Gardiner & Willett,
   Comput. J. 2002).  Each atom's bonds are counted per class (element,
   neighbour element, bond order).  A common edge at atom u maps to a
   distinct edge of the same class at u's image, so per class the two
   molecules' descending count sequences, paired off, bound twice the
   common edges at those atoms.  Per edge label these counts add up to at
   most twice the shared count, so the bound never exceeds the shared
   label multiset and is 0 exactly when it is.  A 0 ends the call, and so
   do identical structures (``chem.canon.same_structure``).
2. Seeded lower bound.  Same-element atom pairs are ranked by the radius
   (0-4) to which their circular environments agree.  Only the pairs that
   agree at radius 1 are sorted; every other pair agrees at radius 0 alone
   and follows in index order.  From each of the best ``_SEEDS`` pairs one
   element-preserving injective mapping is grown along same-order bonds,
   then restarted from the next unmapped ranked pair, and the A-bonds whose
   image is a same-order B-bond are counted.  The first seed that reaches
   the upper bound ends the call.
3. Partition search, only for pairs still open: a McSplit branch and bound
   (McCreesh, Prosser & Trimble, IJCAI 2017) over the two bond line graphs.
   Mapping a bond also maps its atoms, so every result is an injective,
   element-preserving atom map (which rules out the triangle/star
   line-graph ambiguity).  It runs from the lower bound and stops at the
   upper one.

``optimal=True`` means the lower bound met the upper bound, or the search
finished, so the count is the maximum.  ``nodes`` counts the search nodes
expanded, 0 when no search ran.  The budget counts search nodes; seeding is
fixed work outside it.  A search that would expand a node past the budget
stops with ``optimal=False`` and its largest lower bound: a lower bound on
the common edge count, hence an upper bound on the dissimilarity.  No clock
is read, so every result is a function of the molecules and the budget.

Everything read from one molecule (labelled edges, per-atom bond masks and
counts, environment codes) is built once and cached on the ``Molecule``.
``mces_floor`` gives the dissimilarity that the degree-sequence bound
allows, a lower bound on any ``mces`` result, without any search.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass

from ..chem.canon import canonical_smiles, same_structure, stable_hash
from ..chem.mol import Molecule

_SEEDS = 10
_ENV_RADIUS = 4
DEFAULT_MCES_BUDGET = 16384  # search nodes; the benchmark's certified pairs need at most 10 002


@dataclass(frozen=True)
class McesResult:
    common_edges: int
    dissimilarity: float
    optimal: bool
    nodes: int = 0  # partition-search nodes expanded; 0 when no search ran


@dataclass(frozen=True, slots=True)
class _Profile:
    """The per-molecule inputs of every MCES step."""

    edges: list[tuple[int, int, tuple]]  # (atom, atom, label) per bond
    elements: list[str]
    by_element: dict[str, list[int]]  # atom indices, ascending
    by_env1: dict[tuple[str, int], list[int]]  # by (element, radius-1 code), ascending
    neighbors: list[list[tuple[int, int]]]  # (neighbour, order), by neighbour index
    bond_mask: list[int]  # per atom, bit i set for each bond ``edges[i]`` at it
    degrees: dict[tuple, list[int]]  # (element, neighbour element, order) -> counts, descending
    env: list[tuple[int, ...]]  # environment codes at radius 0.._ENV_RADIUS


def check_budget(budget: int) -> None:
    """Raises ``ValueError`` unless ``budget`` is an int of at least 1."""
    if type(budget) is not int or budget < 1:
        raise ValueError(f"the MCES budget is a count of search nodes, an int of at least 1, got {budget!r}")


def mces(a: Molecule, b: Molecule, budget: int = DEFAULT_MCES_BUDGET) -> McesResult:
    """Largest label-compatible common edge subgraph of two molecules,
    searched for at most ``budget`` nodes (see ``check_budget``)."""
    check_budget(budget)
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
    upper = _degree_sequence_bound(pa, pb)
    if upper == 0:
        return McesResult(0, 1.0, True)

    # Identical structures need no search; this also keeps the exact-match /
    # zero-dissimilarity correspondence immune to budget truncation.
    if same_structure(a, b, canonical_smiles):
        return McesResult(n_ea, 0.0, True)

    def result(common: int, optimal: bool, nodes: int = 0) -> McesResult:
        return McesResult(common, _dissim(common, max_e), optimal, nodes)

    best = max(_seeded_lower_bound(pa, pb, upper), 1)  # one compatible edge pair is common
    if best >= upper:
        return result(best, True)
    return result(*_mcsplit(pa, pb, best, upper, budget))


def mces_floor(a: Molecule, b: Molecule) -> float:
    """A lower bound on ``mces(a, b).dissimilarity`` that runs no search.

    No common subgraph, optimal or truncated, has more edges than the
    degree-sequence bound, which reads the same edge labels as the search.
    0.0 when either molecule has no bonds.
    """
    a.require_perceived("MCES")
    b.require_perceived("MCES")
    if min(a.n_bonds, b.n_bonds) == 0:
        return 0.0
    return _dissim(_degree_sequence_bound(_profile(a), _profile(b)), max(a.n_bonds, b.n_bonds))


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
    bond_mask = [0] * len(elements)
    for i, (u, v, (_, order)) in enumerate(edges):
        neighbors[u].append((v, order))
        neighbors[v].append((u, order))
        bond_mask[u] |= 1 << i
        bond_mask[v] |= 1 << i
    for row in neighbors:
        row.sort()

    degrees: dict[tuple, list[int]] = {}
    for i, row in enumerate(neighbors):
        counts = Counter((elements[j], order) for j, order in row)
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
    by_env1: dict[tuple[str, int], list[int]] = {}
    for i, element in enumerate(elements):
        by_env1.setdefault((element, layers[1][i]), []).append(i)

    return _Profile(
        edges=edges,
        elements=elements,
        by_element=by_element,
        by_env1=by_env1,
        neighbors=neighbors,
        bond_mask=bond_mask,
        degrees=degrees,
        env=list(zip(*layers)),
    )


def _degree_sequence_bound(pa: _Profile, pb: _Profile) -> int:
    """Per bond class, pair off the descending per-atom counts; half the total."""
    total = 0
    for cls, counts in pa.degrees.items():
        other = pb.degrees.get(cls)
        if other:
            total += sum(map(min, counts, other))
    return total // 2


def _seeded_lower_bound(pa: _Profile, pb: _Profile, upper: int) -> int:
    """Best common edge count over the seeded mappings."""
    env_a, env_b = pa.env, pb.env
    elem_a, elem_b = pa.elements, pb.elements
    nbrs_a, nbrs_b = pa.neighbors, pb.neighbors
    by_element_b = pb.by_element

    def depth(u: int, v: int) -> int:
        d = 0
        for x, y in zip(env_a[u], env_b[v]):
            if x != y:
                break
            d += 1
        return d

    # Pairs that agree at radius 1 are ranked by depth.  Every other
    # same-element pair has depth 1 and ranks after them in (u, v) order.
    deep = sorted(
        [
            (-depth(u, v), u, v)
            for key, atoms in pa.by_env1.items()
            for v in pb.by_env1.get(key, ())
            for u in atoms
        ]
    )
    seeds = [(u, v) for _, u, v in deep[:_SEEDS]]
    if len(seeds) < _SEEDS:
        shallow = (
            (u, v)
            for u, element in enumerate(elem_a)
            for v in by_element_b.get(element, ())
            if env_a[u][1] != env_b[v][1]
        )
        seeds += itertools.islice(shallow, _SEEDS - len(seeds))

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
    for u0, v0 in seeds:
        phi = [-1] * len(elem_a)
        used = [False] * len(elem_b)
        grow(u0, v0)
        for _, u, v in deep:
            if phi[u] < 0 and not used[v]:
                grow(u, v)
        # Every deep pair now has a mapped or used atom, so the next ranked
        # pair for an unmapped u is its first unused same-element partner.
        for u, element in enumerate(elem_a):
            if phi[u] < 0:
                for v in by_element_b.get(element, ()):
                    if not used[v]:
                        grow(u, v)
                        break
        common = 0
        for u, v, (_, order) in pa.edges:
            x, y = phi[u], phi[v]
            if x >= 0 and y >= 0 and (y, order) in nbrs_b[x]:
                common += 1
        best = max(best, common)
        if best >= upper:
            break
    return best


def _bits(mask: int):
    """The set bits of ``mask``, lowest first, each as a one-bit int."""
    while mask:
        bit = mask & -mask
        yield bit
        mask ^= bit


def _mcsplit(
    pa: _Profile, pb: _Profile, lower: int, upper: int, budget: int
) -> tuple[int, bool, int]:
    """McSplit branch and bound over the bond line graphs.

    A class pairs the A-bonds and B-bonds that may still map to each other:
    the same label, and ends that agree under the atom map so far.  A class
    is (A-mask, B-mask, |A|, |B|), each mask a set of bond indices.  An
    end's token is -1 when free and its B-atom when fixed.  A homonuclear
    bond mapped with both ends free gives its four atoms the token ``nb``
    plus its index, which leaves the orientation open until a neighbouring
    bond fixes one end; the token then names the other pair.  Tokens only
    refine, so the mapped count plus the sum over classes of min(|A|, |B|)
    bounds every extension.  Mapping a bond changes the tokens of at most
    four atoms, so only the classes holding a bond at one of them split.

    Branching takes the class with the smallest larger side, from it the
    lowest-indexed bond v of highest line-graph degree, maps v to each
    partner in ascending index, then leaves v unmapped.  Returns the
    largest common edge count, at least ``lower``, whether the search
    finished (or reached ``upper``), and the nodes expanded.  A node past
    the ``budget``-th is never expanded: the search stops unfinished.
    """
    edges_a, edges_b = pa.edges, pb.edges
    mask_a, mask_b = pa.bond_mask, pb.bond_mask
    nb = len(pb.elements)
    by_degree: dict[int, int] = {}
    for i, (u, v, _) in enumerate(edges_a):
        d = mask_a[u].bit_count() + mask_a[v].bit_count() - 2
        by_degree[d] = by_degree.get(d, 0) | 1 << i
    degree_masks = [by_degree[d] for d in sorted(by_degree, reverse=True)]
    ends_a = [(s, t, e1 == e2) for s, t, ((e1, e2), _) in edges_a]
    ends_b = [(s, t, e1 == e2) for s, t, ((e1, e2), _) in edges_b]
    best = lower
    nodes = 0

    def split(classes: list, tok_a: list[int], tok_b: list[int], hit_a: int, hit_b: int):
        """The classes after a mapping that re-tokened the atoms whose bonds
        are ``hit_a`` and ``hit_b``, the bonds that map for free, and the sum
        of min(|A|, |B|).  Every class passed in has both sides non-empty."""
        out = []
        free = bound = 0
        for cls in classes:
            left, right, n_left, n_right = cls
            moved_left, moved_right = left & hit_a, right & hit_b
            if not (moved_left or moved_right):
                out.append(cls)
                bound += n_left if n_left < n_right else n_right
                continue
            # Unchanged bonds keep their class, first; no changed key is (-1, -1).
            keep_left, keep_right = left ^ moved_left, right ^ moved_right
            if keep_left and keep_right:
                n_left -= moved_left.bit_count()
                n_right -= moved_right.bit_count()
                out.append((keep_left, keep_right, n_left, n_right))
                bound += n_left if n_left < n_right else n_right
            # The changed bonds group by the tokens at their ends, sorted for
            # a homonuclear bond, whose ends are interchangeable.
            groups: dict[tuple[int, int], int] = {}
            while moved_left:
                bit = moved_left & -moved_left
                moved_left ^= bit
                s, t, homo = ends_a[bit.bit_length() - 1]
                x, y = tok_a[s], tok_a[t]
                k = (y, x) if homo and x > y else (x, y)
                groups[k] = groups.get(k, 0) | bit
            partners: dict[tuple[int, int], int] = {}
            while moved_right:
                bit = moved_right & -moved_right
                moved_right ^= bit
                s, t, homo = ends_b[bit.bit_length() - 1]
                x, y = tok_b[s], tok_b[t]
                k = (y, x) if homo and x > y else (x, y)
                if k in groups:
                    partners[k] = partners.get(k, 0) | bit
            for k, group_left in groups.items():
                group_right = partners.get(k)
                if group_right is None:
                    continue
                x, y = k
                if 0 <= x < nb and 0 <= y < nb:
                    free += 1  # both ends fixed: the image bond is the only match
                else:
                    n_left, n_right = group_left.bit_count(), group_right.bit_count()
                    out.append((group_left, group_right, n_left, n_right))
                    bound += n_left if n_left < n_right else n_right
        return out, free, bound

    def search(classes: list, tok_a: list[int], tok_b: list[int], count: int, bound: int):
        """One node, as a generator that yields each child worth a visit to the
        loop below, so depth (one level per A-bond) escapes the recursion limit."""
        nonlocal best, nodes
        nodes += 1
        best = max(best, count)
        if best >= upper or not classes:
            return
        ci, size = 0, len(edges_a) + 1
        for i, (_, _, n_left, n_right) in enumerate(classes):
            larger = n_left if n_left > n_right else n_right
            if larger < size:
                ci, size = i, larger
        left, right, n_left, n_right = classes[ci]
        before, after = classes[:ci], classes[ci + 1:]
        for mask in degree_masks:
            top = left & mask
            if top:
                break
        bit_v = top & -top
        v = bit_v.bit_length() - 1
        s, t, ((e1, e2), _) = edges_a[v]
        rest = left ^ bit_v
        for bit_w in _bits(right):
            s2, t2, _ = edges_b[bit_w.bit_length() - 1]
            child_a, child_b = tok_a[:], tok_b[:]
            if e1 == e2 and tok_a[s] == tok_a[t] == -1:
                child_a[s] = child_a[t] = child_b[s2] = child_b[t2] = nb + v
                hit_a, hit_b = mask_a[s] | mask_a[t], mask_b[s2] | mask_b[t2]
            else:
                if e1 == e2 and tok_a[s] != tok_b[s2]:
                    s2, t2 = t2, s2
                hit_a = hit_b = 0
                for x, y in ((s, s2), (t, t2)):
                    if not 0 <= tok_a[x] < nb:
                        child_a[x] = child_b[y] = y
                        hit_a |= mask_a[x]
                        hit_b |= mask_b[y]
            kept = [(rest, right ^ bit_w, n_left - 1, n_right - 1)] if rest and right != bit_w else []
            children, free, child_bound = split(
                before + kept + after, child_a, child_b, hit_a, hit_b
            )
            if count + 1 + free + child_bound > best:
                yield children, child_a, child_b, count + 1 + free, child_bound
            if best >= upper:
                return
        # Leave v unmapped: its class loses one A-bond.
        bound -= n_left <= n_right
        if count + bound > best:
            kept = [(rest, right, n_left - 1, n_right)] if rest else []
            yield before + kept + after, tok_a, tok_b, count, bound

    by_label: dict[tuple, list[int]] = {}
    for i, (_, _, label) in enumerate(edges_a):
        by_label.setdefault(label, [0, 0])[0] |= 1 << i
    for j, (_, _, label) in enumerate(edges_b):
        if label in by_label:
            by_label[label][1] |= 1 << j
    classes = [
        (left, right, left.bit_count(), right.bit_count())
        for left, right in by_label.values()
        if right
    ]
    bound = sum(min(n_left, n_right) for _, _, n_left, n_right in classes)
    stack = [search(classes, [-1] * len(pa.elements), [-1] * nb, 0, bound)]
    while stack:
        child = next(stack[-1], None)
        if child is None:
            stack.pop()
        elif nodes == budget:
            return best, False, nodes
        else:
            stack.append(search(*child))
    return best, True, nodes
