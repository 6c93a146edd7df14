"""Circular (Morgan) fingerprints and Tanimoto similarity.

Atom environments are grown shell by shell: the radius-0 invariant is
(element, charge, degree, total H, ring flag); each iteration hashes the
previous code together with the sorted (bond label, neighbor code) list.
Every code from radius 0 up to ``RADIUS`` is folded modulo ``NBITS`` into an
int bitset.  Hashes are stable across runs and platforms.
"""

from __future__ import annotations

from ..chem.canon import labeled_adjacency, stable_hash
from ..chem.mol import Molecule

RADIUS = 2
NBITS = 2048


def morgan_fingerprint(mol: Molecule) -> int:
    """The molecule's fingerprint bitset, built on first use and cached on it."""
    if mol._fingerprint is None:
        mol._fingerprint = _build_fingerprint(mol)
    return mol._fingerprint


def _build_fingerprint(mol: Molecule) -> int:
    mol.require_perceived("fingerprinting")
    adjacency = labeled_adjacency(mol)
    codes = [
        stable_hash(
            "fp0",
            atom.element,
            atom.charge,
            mol.degree(i),
            mol.hydrogens[i],
            i in mol.ring_atoms,
        )
        for i, atom in enumerate(mol.atoms)
    ]
    bits = 0
    for code in codes:
        bits |= 1 << (code % NBITS)
    for _ in range(RADIUS):
        codes = [
            stable_hash("fp", codes[i], tuple(sorted((label, codes[j]) for label, j in adjacency[i])))
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
