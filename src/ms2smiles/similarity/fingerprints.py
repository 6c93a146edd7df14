"""Circular (Morgan) fingerprints and Tanimoto similarity.

Atom environments are grown shell by shell: the radius-0 invariant is
(element, charge, degree, total H, ring flag); each iteration hashes the
previous code together with the sorted (bond label, neighbor code) list.
Every code from radius 0 up to ``RADIUS`` is folded modulo ``NBITS`` into an
int bitset.  Hashes are stable across runs and platforms.

Most environments recur across molecules (the 1100 corpus molecules hash
30 648 environments, 3 507 of them distinct), so each distinct environment
is hashed once per process through ``_environment_hash``, an LRU memo of
``ENV_MEMO_SIZE`` (16384) entries, about 5.4 MB when full.
"""

from __future__ import annotations

from functools import lru_cache

from ..chem.canon import labeled_adjacency, stable_hash
from ..chem.mol import Molecule

RADIUS = 2
NBITS = 2048

# Environment hashes per process.  An entry holds its parts tuple and hash,
# about 330 B: tracemalloc's traced growth per distinct environment from
# fingerprinting the corpus into the cleared memo, after one such fill so
# that first-use allocations are not counted.  A full memo holds ~5.4 MB.
ENV_MEMO_SIZE = 16384


@lru_cache(maxsize=ENV_MEMO_SIZE)
def _environment_hash(parts: tuple) -> int:
    """``stable_hash(*parts)``, computed once per process and distinct parts.

    Equal parts share an entry, so they must have equal reprs: each position
    always holds one type (a ring flag is always a bool, never the int 1).
    """
    return stable_hash(*parts)


def morgan_fingerprint(mol: Molecule) -> int:
    """The molecule's fingerprint bitset, built on first use and cached on it."""
    if mol._fingerprint is None:
        mol._fingerprint = _build_fingerprint(mol)
    return mol._fingerprint


def _build_fingerprint(mol: Molecule) -> int:
    mol.require_perceived("fingerprinting")
    adjacency = labeled_adjacency(mol)
    codes = [
        _environment_hash(("fp0", atom.element, atom.charge, mol.degree(i), mol.hydrogens[i], i in mol.ring_atoms))
        for i, atom in enumerate(mol.atoms)
    ]
    bits = 0
    for code in codes:
        bits |= 1 << (code % NBITS)
    for _ in range(RADIUS):
        codes = [
            _environment_hash(("fp", codes[i], tuple(sorted((label, codes[j]) for label, j in adjacency[i]))))
            for i in range(mol.n_atoms)
        ]
        for code in codes:
            bits |= 1 << (code % NBITS)
    return bits


def tanimoto(a: int, b: int) -> float:
    """|a AND b| / |a OR b| of two fingerprints; 1.0 when both are empty."""
    union = (a | b).bit_count()
    if union == 0:
        return 1.0
    return (a & b).bit_count() / union
