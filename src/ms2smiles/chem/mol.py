"""Molecular graph primitives.

A ``Molecule`` comes out of the SMILES reader in raw form (no hydrogen counts,
possibly aromatic bond orders).  ``perception.perceive`` never mutates it: it
builds one new molecule from it and finishes that one in place, after which
it is treated as immutable and safe to share across threads.
Derived values (adjacency lists, the canonical SMILES, the Morgan
fingerprint, the MCES inputs) are computed on first use and cached on the
instance; recomputing them gives the same value.  A molecule memoized by
``dataset.prepare`` therefore carries them for every consumer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum


class BondOrder(IntEnum):
    SINGLE = 1
    DOUBLE = 2
    TRIPLE = 3
    AROMATIC = 4


@dataclass(frozen=True, slots=True)
class Atom:
    """One atom label.

    ``explicit_h`` is ``None`` for organic-subset atoms (hydrogen count is
    perceived from the valence model) and an exact count for bracket atoms,
    which never receive implicit hydrogens.  ``aromatic`` records a lowercase
    symbol in the input; perceived aromaticity lives on the Molecule.
    """

    element: str
    isotope: int | None = None
    charge: int = 0
    explicit_h: int | None = None
    aromatic: bool = False


@dataclass(frozen=True, slots=True)
class Bond:
    """Undirected edge between two atom indices.

    ``order`` is ``None`` for an unmarked bond between two aromatic atoms,
    which perception resolves to aromatic (in a ring) or single.
    """

    a: int
    b: int
    order: BondOrder | None = None

    def key(self) -> tuple[int, int]:
        return (self.a, self.b) if self.a < self.b else (self.b, self.a)


@dataclass(eq=False)
class Molecule:
    """Labeled molecular graph; possibly multi-component.

    After perception: ``hydrogens[i]`` is the total hydrogen count of atom i,
    every bond order is single/double/triple, ``ring_bonds``/``ring_atoms``
    hold the cycle bonds and their atoms, and ``aromatic_atoms``/``aromatic_bonds``
    mark perceived aromatic rings (the kekulized orders underneath are canonical).
    """

    atoms: list[Atom]
    bonds: list[Bond]
    hydrogens: list[int] | None = None
    ring_bonds: frozenset[int] = frozenset()
    ring_atoms: frozenset[int] = frozenset()
    aromatic_atoms: frozenset[int] = frozenset()
    aromatic_bonds: frozenset[int] = frozenset()
    perceived: bool = False
    _adjacency: list[list[tuple[int, int]]] | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _canonical: str | None = field(default=None, init=False, repr=False, compare=False)
    _fingerprint: int | None = field(default=None, init=False, repr=False, compare=False)
    _mces: object | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def n_atoms(self) -> int:
        return len(self.atoms)

    @property
    def n_bonds(self) -> int:
        return len(self.bonds)

    def adjacency(self) -> list[list[tuple[int, int]]]:
        """Per-atom list of ``(neighbor_index, bond_index)`` pairs."""
        if self._adjacency is None:
            adj: list[list[tuple[int, int]]] = [[] for _ in self.atoms]
            for bi, bond in enumerate(self.bonds):
                adj[bond.a].append((bond.b, bi))
                adj[bond.b].append((bond.a, bi))
            self._adjacency = adj
        return self._adjacency

    def neighbors(self, i: int) -> list[tuple[int, int]]:
        return self.adjacency()[i]

    def degree(self, i: int) -> int:
        return len(self.adjacency()[i])

    def components(self) -> list[list[int]]:
        """Connected components as sorted atom-index lists, in index order."""
        seen = [False] * self.n_atoms
        comps: list[list[int]] = []
        adj = self.adjacency()
        for start in range(self.n_atoms):
            if seen[start]:
                continue
            stack = [start]
            seen[start] = True
            comp = []
            while stack:
                u = stack.pop()
                comp.append(u)
                for v, _ in adj[u]:
                    if not seen[v]:
                        seen[v] = True
                        stack.append(v)
            comps.append(sorted(comp))
        return comps

    def require_perceived(self, what: str) -> None:
        if not self.perceived:
            raise ValueError(f"{what} requires a perceived molecule")
