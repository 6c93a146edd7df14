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


def split_by_grouping(
    classes: list, tok_a: list[int], tok_b: list[int], hit_a: int, hit_b: int,
    ends_a: list[tuple[int, int, bool]], ends_b: list[tuple[int, int, bool]], nb: int,
) -> tuple[list, int, int]:
    """The classes after a mapping that re-tokened the atoms whose bonds
    are ``hit_a`` and ``hit_b``, the bonds that map for free, and the sum
    of min(|A|, |B|).  Every class passed in has both sides non-empty.

    The reference for ``similarity.mces._split``: every class with moved
    bonds on both sides groups them through two dicts keyed by end tokens.
    A token in [0, nb) is a fixed end's B-atom; any other token is open.
    """
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


def partner_bound(classes: list, hit_a: int, hit_b: int) -> int:
    """The bit-count bound on what mapping a bond v to a partner w adds to
    the common edge count, from the classes ``split_by_grouping`` is given
    (the node's, with v's class less v and w) and the two hit masks.

    Per class with nL and nR unmoved and mL and mR moved bonds, at most
    min(nL, nR) + min(mL, mR) pairs survive; the mapped pair adds 1.
    """
    total = 1
    for left, right, n_left, n_right in classes:
        moved_left, moved_right = (left & hit_a).bit_count(), (right & hit_b).bit_count()
        total += min(n_left - moved_left, n_right - moved_right) + min(moved_left, moved_right)
    return total


def mcsplit_splitting_every_partner(pa, pb, lower: int, upper: int, budget: int) -> tuple[int, bool, int]:
    """The MCES partition search with no bound before a split.

    ``pa`` and ``pb`` are the two molecules' MCES profiles.  Branching as in
    ``similarity.mces._mcsplit``: the class with the smallest larger side,
    from it the lowest-indexed A-bond of highest line-graph degree, mapped
    to each partner in ascending index, then left unmapped.  Every partner
    is split with ``split_by_grouping``, and a child is visited when its
    count plus its sum of min(|A|, |B|) beats the best.  An unoriented
    homonuclear mapping tokens its atoms ``nb`` plus the A-bond's index.
    Returns (best count, finished, nodes expanded).
    """
    edges_a, edges_b = pa.edges, pb.edges
    mask_a, mask_b = pa.bond_mask, pb.bond_mask
    nb = len(pb.elements)
    degree = {
        i: mask_a[u].bit_count() + mask_a[v].bit_count() - 2 for i, (u, v, _) in enumerate(edges_a)
    }
    ends_a = [(s, t, e1 == e2) for s, t, ((e1, e2), _) in edges_a]
    ends_b = [(s, t, e1 == e2) for s, t, ((e1, e2), _) in edges_b]
    tok_a, tok_b = [-1] * len(pa.elements), [-1] * nb
    best, nodes = lower, 0

    def search(classes, count, bound):
        nonlocal best, nodes
        nodes += 1
        best = max(best, count)
        if best >= upper or not classes:
            return
        ci = min(range(len(classes)), key=lambda i: (max(classes[i][2], classes[i][3]), i))
        left, right, n_left, n_right = classes[ci]
        others = classes[:ci] + classes[ci + 1:]
        bits = [i for i in range(len(edges_a)) if left >> i & 1]
        v = min(bits, key=lambda i: (-degree[i], i))
        s, t, homo = ends_a[v]
        fresh = homo and tok_a[s] == tok_a[t] == -1
        open_s, open_t = not 0 <= tok_a[s] < nb, not 0 <= tok_a[t] < nb
        hit_a = (mask_a[s] if open_s else 0) | (mask_a[t] if open_t else 0)
        for w in (j for j in range(len(edges_b)) if right >> j & 1):
            s2, t2, _ = ends_b[w]
            if homo and not fresh and tok_a[s] != tok_b[s2]:
                s2, t2 = t2, s2
            hit_b = (mask_b[s2] if open_s else 0) | (mask_b[t2] if open_t else 0)
            undo = tok_a[s], tok_a[t], tok_b[s2], tok_b[t2]
            if fresh:
                tok_a[s] = tok_a[t] = tok_b[s2] = tok_b[t2] = nb + v
            else:
                if open_s:
                    tok_a[s] = tok_b[s2] = s2
                if open_t:
                    tok_a[t] = tok_b[t2] = t2
            rest, rest_right = left & ~(1 << v), right & ~(1 << w)
            kept = [(rest, rest_right, n_left - 1, n_right - 1)] if rest and rest_right else []
            children, free, child_bound = split_by_grouping(
                others[:ci] + kept + others[ci:], tok_a, tok_b, hit_a, hit_b, ends_a, ends_b, nb
            )
            if count + 1 + free + child_bound > best:
                yield children, count + 1 + free, child_bound
            tok_a[s], tok_a[t], tok_b[s2], tok_b[t2] = undo
            if best >= upper:
                return
        bound -= n_left <= n_right
        if count + bound > best:
            kept = [(left & ~(1 << v), right, n_left - 1, n_right)] if n_left > 1 else []
            yield others[:ci] + kept + others[ci:], count, bound

    by_label: dict = {}
    for i, (_, _, label) in enumerate(edges_a):
        by_label.setdefault(label, [0, 0])[0] |= 1 << i
    for j, (_, _, label) in enumerate(edges_b):
        if label in by_label:
            by_label[label][1] |= 1 << j
    classes = [(l, r, l.bit_count(), r.bit_count()) for l, r in by_label.values() if r]
    stack = [search(classes, 0, sum(min(c[2], c[3]) for c in classes))]
    while stack:
        child = next(stack[-1], None)
        if child is None:
            stack.pop()
        elif nodes == budget:
            return best, False, nodes
        else:
            stack.append(search(*child))
    return best, True, nodes


def rank_order_mces_screen(candidates: list, k: int, search, floor) -> tuple[float, float, bool]:
    """The top-k MCES scan in rank order, as ``evaluate.score_spectrum`` once ran it.

    ``candidates`` holds one item per candidate, None where it is invalid;
    ``search(item)`` returns its ``McesResult`` against the ground truth and
    ``floor(item)`` its ``mces_floor``.  Rank 0 is always searched; past it,
    a candidate is searched when its floor lies below the running minimum.
    Returns (top-1, top-k, whether a search that ran was truncated).
    """
    top1 = topk = 1.0
    truncated = False
    for rank, item in enumerate(candidates[:k]):
        if item is None:
            continue
        if rank == 0 or floor(item) < topk:
            result = search(item)
            truncated = truncated or not result.optimal
            topk = min(topk, result.dissimilarity)
            if rank == 0:
                top1 = result.dissimilarity
    return top1, topk, truncated
