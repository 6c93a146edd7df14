"""Monoisotopic mass table, loaded from the bundled data file."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from types import MappingProxyType
from typing import Mapping

from .errors import UnknownElement


@dataclass(frozen=True)
class MassTable:
    """Monoisotopic masses per element plus the proton mass, all in Da."""

    monoisotopic: Mapping[str, float]
    proton_mass: float

    def mass_of(self, element: str) -> float:
        try:
            return self.monoisotopic[element]
        except KeyError:
            raise UnknownElement(f"no monoisotopic mass for element {element!r}") from None


def parse_mass_table(text: str) -> MassTable:
    """Parse ``element<TAB>mass`` lines; '#' starts a comment."""
    masses: dict[str, float] = {}
    proton = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            symbol, value = line.split("\t")
            mass = float(value)
        except ValueError:
            raise ValueError(f"bad mass table line {lineno}: {raw!r}") from None
        if symbol == "proton":
            proton = mass
        else:
            masses[symbol] = mass
    if proton is None:
        raise ValueError("mass table is missing the 'proton' entry")
    return MassTable(monoisotopic=MappingProxyType(masses), proton_mass=proton)


@lru_cache(maxsize=1)
def default_mass_table() -> MassTable:
    text = resources.files("ms2smiles.chem").joinpath("data/masses.tsv").read_text("utf-8")
    return parse_mass_table(text)
