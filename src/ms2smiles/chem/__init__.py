"""Self-contained cheminformatics kernel: SMILES in, measurements out."""

from .canon import canonical_smiles, molecules_equal, normalized_bond_label, same_structure, write_smiles
from .errors import (
    BadBracketAtom,
    BadFormulaSyntax,
    ChemError,
    EmptyInput,
    KekulizationFailure,
    PerceptionError,
    SmilesParseError,
    UnbalancedParen,
    UnclosedRing,
    UnknownElement,
    ValenceViolation,
)
from .formula import ElementCounts, canonical_formula, dbe, molecular_formula, monoisotopic_mass, parse_formula
from .masses import MassTable, default_mass_table
from .mol import Atom, Bond, BondOrder, Molecule
from .perception import mol_from_smiles, perceive
from .smiles import parse_smiles

__all__ = [
    "Atom",
    "BadBracketAtom",
    "BadFormulaSyntax",
    "Bond",
    "BondOrder",
    "ChemError",
    "ElementCounts",
    "EmptyInput",
    "KekulizationFailure",
    "MassTable",
    "Molecule",
    "PerceptionError",
    "SmilesParseError",
    "UnbalancedParen",
    "UnclosedRing",
    "UnknownElement",
    "ValenceViolation",
    "canonical_formula",
    "canonical_smiles",
    "dbe",
    "default_mass_table",
    "mol_from_smiles",
    "molecular_formula",
    "molecules_equal",
    "monoisotopic_mass",
    "normalized_bond_label",
    "parse_formula",
    "parse_smiles",
    "perceive",
    "same_structure",
    "write_smiles",
]
