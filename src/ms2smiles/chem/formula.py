"""Elemental formulas: parsing, Hill-order writing, mass, and DBE."""

from __future__ import annotations

import re

from .elements import ELEMENT_SYMBOLS
from .errors import BadFormulaSyntax, UnknownElement
from .masses import default_mass_table
from .mol import Molecule

ElementCounts = dict[str, int]

_TOKEN_RE = re.compile(r"([A-Z][a-z]?)(\d*)")


def parse_formula(text: str) -> ElementCounts:
    """Parse ``C6H12O6``-style formulas; repeated symbols accumulate."""
    s = text.strip()
    if not s:
        raise BadFormulaSyntax("empty formula")
    counts: ElementCounts = {}
    pos = 0
    while pos < len(s):
        match = _TOKEN_RE.match(s, pos)
        if match is None or match.start() != pos or not match.group(1):
            raise BadFormulaSyntax(f"bad formula syntax at position {pos} in {text!r}")
        symbol, digits = match.groups()
        if symbol not in ELEMENT_SYMBOLS:
            raise UnknownElement(f"unknown element {symbol!r} in formula {text!r}")
        count = int(digits) if digits else 1
        if count == 0:
            raise BadFormulaSyntax(f"zero count for {symbol} in {text!r}")
        counts[symbol] = counts.get(symbol, 0) + count
        pos = match.end()
    return counts


def canonical_formula(counts: ElementCounts) -> str:
    """Hill order: C first, H second, the rest alphabetical.

    Without carbon all symbols sort alphabetically, hydrogen included.
    """
    if not counts:
        raise ValueError("empty element counts")

    def fmt(symbol: str) -> str:
        n = counts[symbol]
        return symbol if n == 1 else f"{symbol}{n}"

    symbols = sorted(counts)
    if "C" in counts:
        ordered = ["C"] + (["H"] if "H" in counts else []) + [s for s in symbols if s not in ("C", "H")]
    else:
        ordered = symbols
    return "".join(fmt(s) for s in ordered)


def molecular_formula(mol: Molecule) -> ElementCounts:
    """Element counts of a perceived molecule, hydrogens included."""
    mol.require_perceived("molecular formula")
    counts: ElementCounts = {}
    n_h = 0
    for i, atom in enumerate(mol.atoms):
        counts[atom.element] = counts.get(atom.element, 0) + 1
        n_h += mol.hydrogens[i]
    if n_h:
        counts["H"] = counts.get("H", 0) + n_h
    return counts


def monoisotopic_mass(counts: ElementCounts) -> float:
    """Sum of count times element monoisotopic mass, in Da."""
    table = default_mass_table()
    return sum(n * table.mass_of(element) for element, n in counts.items())


def dbe(counts: ElementCounts) -> float:
    """Double bond equivalents of a formula.

    Tetravalent silicon counts with carbon, halogens with hydrogen, and
    phosphorus with nitrogen; half-integral and negative values (ion
    formulas) are returned as-is.
    """
    c_like = counts.get("C", 0) + counts.get("Si", 0)
    h_like = counts.get("H", 0) + sum(counts.get(x, 0) for x in ("F", "Cl", "Br", "I"))
    n_like = counts.get("N", 0) + counts.get("P", 0)
    return c_like - h_like / 2 + n_like / 2 + 1
