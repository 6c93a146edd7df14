"""Circular (Morgan) fingerprints and Tanimoto similarity.

Atom environments are grown shell by shell: the radius-0 invariant is
(element, charge, degree, total H, ring flag); each iteration hashes the
previous code together with the sorted (bond label, neighbor code) list.
Every code from radius 0 up to ``radius`` is folded modulo ``nbits``.
Hashes are stable across runs and platforms.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..chem.canon import labeled_adjacency, stable_hash
from ..chem.mol import Molecule


class IncomparableFingerprints(ValueError):
    """Fingerprints with different length or radius cannot be compared."""


@dataclass(frozen=True)
class Fingerprint:
    """Fixed-length bit vector stored as an int bitset."""

    bits: int
    nbits: int
    radius: int

    def popcount(self) -> int:
        return self.bits.bit_count()


def morgan_fingerprint(mol: Molecule, radius: int = 2, nbits: int = 2048) -> Fingerprint:
    mol.require_perceived("fingerprinting")
    if radius < 0:
        raise ValueError("radius must be non-negative")
    if nbits < 64 or nbits & (nbits - 1):
        raise ValueError("nbits must be a power of two >= 64")

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
        bits |= 1 << (code % nbits)
    for _ in range(radius):
        codes = [
            stable_hash("fp", codes[i], tuple(sorted((label, codes[j]) for label, j in adjacency[i])))
            for i in range(mol.n_atoms)
        ]
        for code in codes:
            bits |= 1 << (code % nbits)
    return Fingerprint(bits=bits, nbits=nbits, radius=radius)


def tanimoto(a: Fingerprint, b: Fingerprint) -> float:
    """|a AND b| / |a OR b|; 1.0 when both are empty."""
    if a.nbits != b.nbits or a.radius != b.radius:
        raise IncomparableFingerprints(
            f"cannot compare {a.nbits}-bit r{a.radius} with {b.nbits}-bit r{b.radius}"
        )
    union = (a.bits | b.bits).bit_count()
    if union == 0:
        return 1.0
    return (a.bits & b.bits).bit_count() / union
