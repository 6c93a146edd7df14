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
   do identical structures (``chem.canon.same_structure``).  A positive
   bound means some edge label is shared, so one edge is common: the lower
   bound starts at 1, and a bound of 1 ends the call too.
2. Partition search, only for pairs still open: a McSplit branch and bound
   (McCreesh, Prosser & Trimble, IJCAI 2017) over the two bond line graphs.
   Mapping a bond also maps its atoms, so every result is an injective,
   element-preserving atom map (which rules out the triangle/star
   line-graph ambiguity).  It runs from the lower bound of 1 and stops at
   the upper one.  Mapping a bond v to a partner w moves only the bonds at
   their atoms to new classes, so before building the child the search
   bounds it from bit counts: a class with nL and nR unmoved and mL and mR
   moved bonds keeps at most min(nL, nR) + min(mL, mR) pairs.  A partner
   whose bound cannot beat the best count is skipped unbuilt; the bound is
   never below the built child's, so the search tree is unchanged.  Per
   node the work is kept small without changing that tree: a partner's
   moved B-bonds are its precomputed closed line-graph neighbourhood, less
   the other bonds at the image of v's fixed end, if any; a node with one
   class bounds its partners without a per-class loop; and building a
   child regroups only the classes with moved bonds on both sides, and
   compares end tokens directly instead of building keys: where one side
   has a single moved bond, the other side's moved bonds are checked
   against its two tokens, and otherwise a short list holds the groups.

``optimal=True`` means the lower bound met the upper bound, or the search
finished, so the count is the maximum.  ``nodes`` counts the search nodes
expanded, 0 when no search ran.  The budget counts search nodes.  A search
that would expand a node past the budget stops with ``optimal=False`` and
its largest lower bound: a lower bound on the common edge count, hence an
upper bound on the dissimilarity.  No clock is read, so every result is a
function of the molecules and the budget.

Everything read from one molecule (labelled edges, per-atom bond masks and
counts, and the search's bond ends, closed neighbourhoods, bonds by
line-graph degree and bonds by edge label) is built once and cached on the
``Molecule``.
``mces_floor`` gives the dissimilarity that the degree-sequence bound
allows, a lower bound on any ``mces`` result, without any search.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from ..chem.canon import canonical_smiles, same_structure
from ..chem.mol import Molecule

DEFAULT_MCES_BUDGET = 16384  # search nodes; the benchmark's certified pairs need at most 10 011


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
    bond_mask: list[int]  # per atom, bit i set for each bond ``edges[i]`` at it
    degrees: dict[tuple, list[int]]  # (element, neighbour element, order) -> counts, descending
    ends: list[tuple[int, int, bool]]  # (atom, atom, homonuclear) per bond
    closed: list[int]  # per bond, the mask of the bonds sharing an atom with it, itself included
    degree_masks: list[int]  # bonds by line-graph degree, highest degree first
    by_label: dict[tuple, int]  # edge label -> mask of its bonds, in first-bond order


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

    # The bound is positive, so some edge label is shared: one edge is common.
    if upper == 1:
        return result(1, True)
    return result(*_mcsplit(pa, pb, 1, upper, budget))


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
    bond_mask = [0] * len(elements)
    tally: Counter[tuple] = Counter()  # (atom, neighbour element, order) -> bonds
    for i, (u, v, (_, order)) in enumerate(edges):
        bond_mask[u] |= 1 << i
        bond_mask[v] |= 1 << i
        tally[u, elements[v], order] += 1
        tally[v, elements[u], order] += 1

    degrees: dict[tuple, list[int]] = {}
    for (atom, element, order), count in tally.items():
        degrees.setdefault((elements[atom], element, order), []).append(count)
    for counts in degrees.values():
        counts.sort(reverse=True)

    closed = [bond_mask[u] | bond_mask[v] for u, v, _ in edges]
    by_degree: dict[int, int] = {}  # by line-graph degree plus one (the bond itself)
    for i, neighbourhood in enumerate(closed):
        d = neighbourhood.bit_count()
        by_degree[d] = by_degree.get(d, 0) | 1 << i
    by_label: dict[tuple, int] = {}
    for i, (_, _, label) in enumerate(edges):
        by_label[label] = by_label.get(label, 0) | 1 << i

    return _Profile(
        edges=edges,
        elements=elements,
        bond_mask=bond_mask,
        degrees=degrees,
        ends=[(u, v, e1 == e2) for u, v, ((e1, e2), _) in edges],
        closed=closed,
        degree_masks=[by_degree[d] for d in sorted(by_degree, reverse=True)],
        by_label=by_label,
    )


def _degree_sequence_bound(pa: _Profile, pb: _Profile) -> int:
    """Per bond class, pair off the descending per-atom counts; half the total."""
    total = 0
    for cls, counts in pa.degrees.items():
        other = pb.degrees.get(cls)
        if other:
            total += sum(map(min, counts, other))
    return total // 2


def _split(
    classes: list, tok_a: list[int], tok_b: list[int], hit_a: int, hit_b: int,
    ends_a: list[tuple[int, int, bool]], ends_b: list[tuple[int, int, bool]],
) -> tuple[list, int, int]:
    """The classes after a mapping that re-tokened the atoms whose bonds
    are ``hit_a`` and ``hit_b``, the bonds that map for free, and the sum
    of min(|A|, |B|).  Every class passed in has both sides non-empty.

    A class keeps its unmoved bonds, first.  Moved bonds pair only with
    moved bonds of the same end tokens, so those of a class moved on one
    side only leave it.  A side with a single moved bond gives the one
    possible group, and the other side's moved bonds are compared with its
    end tokens.  Otherwise the moved A-bonds form groups in A-bond order,
    each kept with its tokens in a short list, and each moved B-bond joins
    the group it matches.  No dict or key tuple is built.
    """
    out = []
    free = bound = 0
    for cls in classes:
        left, right, n_left, n_right = cls
        moved_left, moved_right = left & hit_a, right & hit_b
        if not (moved_left and moved_right):
            # Moved bonds of one side only have no partner and leave; the
            # rest keep their class.
            if moved_left:
                left ^= moved_left
                if not left:
                    continue
                n_left -= moved_left.bit_count()
                cls = left, right, n_left, n_right
            elif moved_right:
                right ^= moved_right
                if not right:
                    continue
                n_right -= moved_right.bit_count()
                cls = left, right, n_left, n_right
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
        # The changed bonds group by the tokens at their ends, in either
        # order for a homonuclear bond, whose ends are interchangeable.
        one_left = not moved_left & (moved_left - 1)
        if one_left or not moved_right & (moved_right - 1):
            # One changed bond on a side gives the only key; the other side's
            # bonds that share it form the one group, compared end by end.
            if one_left:
                s, t, homo = ends_a[moved_left.bit_length() - 1]
                x, y = tok_a[s], tok_a[t]
                todo, ends, tok = moved_right, ends_b, tok_b
            else:
                s, t, homo = ends_b[moved_right.bit_length() - 1]
                x, y = tok_b[s], tok_b[t]
                todo, ends, tok = moved_left, ends_a, tok_a
            group = 0
            while todo:
                bit = todo & -todo
                todo ^= bit
                s, t, _ = ends[bit.bit_length() - 1]
                x2, y2 = tok[s], tok[t]
                if x == x2 and y == y2 or homo and x == y2 and y == x2:
                    group |= bit
            if not group:
                continue
            if x >= 0 and y >= 0:
                free += 1  # both ends fixed: the image bond is the only match
            elif one_left:
                out.append((moved_left, group, 1, group.bit_count()))
                bound += 1
            else:
                out.append((group, moved_right, group.bit_count(), 1))
                bound += 1
            continue
        # A class's bonds share one label, so one homonuclear flag serves
        # both sides.
        homo = ends_a[moved_left.bit_length() - 1][2]
        groups = []  # [x, y, A-bonds, B-bonds] per end tokens, in A-bond order
        while moved_left:
            bit = moved_left & -moved_left
            moved_left ^= bit
            s, t, _ = ends_a[bit.bit_length() - 1]
            x, y = tok_a[s], tok_a[t]
            for group in groups:
                if group[0] == x and group[1] == y or homo and group[0] == y and group[1] == x:
                    group[2] |= bit
                    break
            else:
                groups.append([x, y, bit, 0])
        while moved_right:
            bit = moved_right & -moved_right
            moved_right ^= bit
            s, t, _ = ends_b[bit.bit_length() - 1]
            x, y = tok_b[s], tok_b[t]
            for group in groups:
                if group[0] == x and group[1] == y or homo and group[0] == y and group[1] == x:
                    group[3] |= bit
                    break
        for x, y, group_left, group_right in groups:
            if not group_right:
                continue
            if x >= 0 and y >= 0:
                free += 1  # both ends fixed: the image bond is the only match
            else:
                n_left, n_right = group_left.bit_count(), group_right.bit_count()
                out.append((group_left, group_right, n_left, n_right))
                bound += n_left if n_left < n_right else n_right
    return out, free, bound


def _mcsplit(
    pa: _Profile, pb: _Profile, lower: int, upper: int, budget: int
) -> tuple[int, bool, int]:
    """McSplit branch and bound over the bond line graphs.

    A class pairs the A-bonds and B-bonds that may still map to each other:
    the same label, and ends that agree under the atom map so far.  A class
    is (A-mask, B-mask, |A|, |B|), each mask a set of bond indices.  An
    end's token is -1 when free and its B-atom when fixed.  A homonuclear
    bond i mapped with both ends free gives its four atoms the token
    -2 - i, which leaves the orientation open until a neighbouring bond
    fixes one end; the token then names the other pair.  So an end is open
    exactly when its token is negative.  Tokens only refine, so the mapped
    count plus the sum over classes of min(|A|, |B|) bounds every
    extension.  Mapping a bond changes the tokens of at most four atoms, so
    only the classes holding a bond at one of them split.  One pair of
    token lists serves the whole search: a mapping writes its tokens before
    its subtree runs and restores them after, and since the bonds of a
    class carry the same end tokens, v's tokens are also its partner's.

    Mapping v to a partner w re-tokens v's open ends and their images, so
    the bonds at those atoms (``hit_a``, one mask per node, and ``hit_b``)
    move.  A child is built (``_split``) only if the bit-count bound,
    ``estimate``, leaves it room to beat the best count: the sum over the
    node's classes of min(nL, nR) + min(mL, mR), for nL and nR unmoved and
    mL and mR moved bonds.  A class splits into its unmoved bonds and groups
    of moved ones, which pair off at most min(mL, mR) bonds, free ones
    included, and v and w are moved bonds of one class, so the sum covers
    the mapped pair too.  It is never below the child's own bound, so the
    search yields the same children, in the same order, as one that splits
    every partner; it only skips building those that would be pruned.  With
    one class the A side is counted once per node, not per partner.

    Branching takes the class with the smallest larger side, from it the
    lowest-indexed bond v of highest line-graph degree, maps v to each
    partner in ascending index, then leaves v unmapped.  Returns the
    largest common edge count, at least ``lower``, whether the search
    finished (or reached ``upper``), and the nodes expanded.  A node past
    the ``budget``-th is never expanded: the search stops unfinished.
    """
    n_edges_a = len(pa.edges)
    mask_a, mask_b = pa.bond_mask, pb.bond_mask
    ends_a, ends_b = pa.ends, pb.ends
    closed_a, closed_b = pa.closed, pb.closed
    degree_masks = pa.degree_masks
    tok_a, tok_b = [-1] * len(pa.elements), [-1] * len(pb.elements)
    split = _split
    best = lower
    nodes = 0

    def search(classes: list, count: int, bound: int):
        """One node, as a generator that yields each child worth a visit to the
        loop below, so depth (one level per A-bond) escapes the recursion limit."""
        nonlocal best, nodes
        nodes += 1
        if count > best:
            best = count
        if best >= upper or not classes:
            return
        single = len(classes) == 1
        if single:
            ci = 0
            left, right, n_left, n_right = classes[0]
        else:
            ci, size = 0, n_edges_a + 1
            for i, (_, _, n_left, n_right) in enumerate(classes):
                larger = n_left if n_left > n_right else n_right
                if larger < size:
                    ci, size = i, larger
            left, right, n_left, n_right = classes[ci]
        for mask in degree_masks:
            top = left & mask
            if top:
                break
        bit_v = top & -top
        v = bit_v.bit_length() - 1
        s, t, homo = ends_a[v]
        rest = left ^ bit_v
        # Every partner re-tokens the same A-atoms: both ends of an unoriented
        # homonuclear v, else its ends that are not fixed.  So hit_a is one
        # mask per node, and v is in it (a bond with both ends fixed maps for
        # free and leaves the classes).
        x, y = tok_a[s], tok_a[t]
        fresh = homo and x == y == -1
        open_s, open_t = x < 0, y < 0
        both_open = open_s and open_t
        hit_a = closed_a[v] if both_open else mask_a[s] if open_s else mask_a[t]
        orient = homo and not fresh
        # A fixed end's token is its image, an end of every partner, so a
        # partner's hit_b is its closed neighbourhood less that atom's other
        # bonds.
        fixed_b = 0 if both_open else mask_b[y] if open_s else mask_b[x]
        # With one class, the A side of the bound is the same for every partner.
        if single:
            moved_left = (left & hit_a).bit_count()
            unmoved_left = n_left - moved_left
        todo = right
        while todo:
            bit_w = todo & -todo
            todo ^= bit_w
            w = bit_w.bit_length() - 1
            hit_b = closed_b[w] ^ fixed_b | bit_w
            # tests/test_mces.py reads the bound by the name ``estimate``.
            if single:
                moved_right = (right & hit_b).bit_count()
                unmoved_right = n_right - moved_right
                estimate = (unmoved_left if unmoved_left < unmoved_right else unmoved_right) + (
                    moved_left if moved_left < moved_right else moved_right
                )
            else:
                estimate = 0
                for class_left, class_right, n_class_left, n_class_right in classes:
                    moved_l = (class_left & hit_a).bit_count()
                    moved_r = (class_right & hit_b).bit_count()
                    n_class_left -= moved_l
                    n_class_right -= moved_r
                    estimate += (n_class_left if n_class_left < n_class_right else n_class_right) + (
                        moved_l if moved_l < moved_r else moved_r
                    )
            if count + estimate <= best:
                continue  # the split below could only prune this child too
            s2, t2, _ = ends_b[w]
            if orient and x != tok_b[s2]:
                s2, t2 = t2, s2
            if fresh:
                tok_a[s] = tok_a[t] = tok_b[s2] = tok_b[t2] = -2 - v
            else:
                if open_s:
                    tok_a[s] = tok_b[s2] = s2
                if open_t:
                    tok_a[t] = tok_b[t2] = t2
            if rest and right != bit_w:
                child = classes.copy()
                child[ci] = rest, right ^ bit_w, n_left - 1, n_right - 1
            else:
                child = classes[:ci] + classes[ci + 1:]
            children, free, child_bound = split(child, tok_a, tok_b, hit_a, hit_b, ends_a, ends_b)
            if count + 1 + free + child_bound > best:
                yield children, count + 1 + free, child_bound
            # The oriented partner's ends held v's tokens, x and y.
            tok_a[s] = tok_b[s2] = x
            tok_a[t] = tok_b[t2] = y
            if best >= upper:
                return
        # Leave v unmapped: its class loses one A-bond.
        bound -= n_left <= n_right
        if count + bound > best:
            if not rest:
                yield classes[:ci] + classes[ci + 1:], count, bound
            else:
                child = classes.copy()
                child[ci] = rest, right, n_left - 1, n_right
                yield child, count, bound

    # One class per shared label, in A's first-bond order, which breaks
    # branching ties.
    labels_b = pb.by_label
    classes = []
    for label, left in pa.by_label.items():
        right = labels_b.get(label)
        if right:
            classes.append((left, right, left.bit_count(), right.bit_count()))
    bound = sum(min(n_left, n_right) for _, _, n_left, n_right in classes)
    stack = []
    node = search(classes, 0, bound)
    while True:
        child = next(node, None)
        if child is None:
            if not stack:
                return best, True, nodes
            node = stack.pop()
        elif nodes == budget:
            return best, False, nodes
        else:
            stack.append(node)
            node = search(*child)
