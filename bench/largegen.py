"""Seeded fragment-assembly generator for the large-molecule tier.

Five classes are assembled from fragments: linear peptides, glycosides,
acyl lipids (glycerol esters), steroids (free and glycosylated) and
macrocycles (cyclic peptides).  Each class has a size parameter that moves
its mass across the five weight bins, so the tier covers [0,200) to
[800,inf) Da.

A *family* is one base molecule plus analogs that each differ from it by
exactly one fragment (one residue, one sugar, one acyl chain, one
substituent).  Every emitted SMILES is validated by parse -> perceive ->
canonical SMILES -> reparse -> ``molecules_equal``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ms2smiles.chem import (
    ChemError,
    canonical_smiles,
    mol_from_smiles,
    molecular_formula,
    molecules_equal,
    monoisotopic_mass,
)
from ms2smiles.dataset import WEIGHT_BIN_LABELS, weight_bin_for_mass

# Amino-acid side chains (proline left out: it closes a ring onto the backbone).
SIDE_CHAINS = {
    "G": "",
    "A": "C",
    "V": "C(C)C",
    "L": "CC(C)C",
    "I": "C(C)CC",
    "S": "CO",
    "T": "C(C)O",
    "C": "CS",
    "M": "CCSC",
    "D": "CC(=O)O",
    "E": "CCC(=O)O",
    "N": "CC(N)=O",
    "Q": "CCC(N)=O",
    "K": "CCCCN",
    "R": "CCCNC(N)=N",
    "H": "Cc9c[nH]cn9",
    "F": "Cc9ccccc9",
    "Y": "Cc9ccc(O)cc9",
    "W": "Cc9c[nH]c8ccccc89",
}
RESIDUES = tuple(SIDE_CHAINS)

# Pyranose units; ``{r}`` is the ring-closure digit, ``{o4}`` the group on O4
# (the next unit of the chain, or a hydroxyl at the end).
SUGARS = {
    "glc": "C{r}OC(CO)C({o4})C(O)C{r}O",
    "rha": "C{r}OC(C)C({o4})C(O)C{r}O",
    "xyl": "C{r}OCC({o4})C(O)C{r}O",
    "glcA": "C{r}OC(C(=O)O)C({o4})C(O)C{r}O",
    "glcNAc": "C{r}OC(CO)C({o4})C(O)C{r}NC(C)=O",
}
SUGAR_NAMES = tuple(SUGARS)

AGLYCONES = {
    "methyl": "CO",
    "phenyl": "c1ccc(cc1)O",
    "cresyl": "Cc1ccc(cc1)O",
    "umbelliferyl": "O=c1ccc2ccc(cc2o1)O",
    "vanillyl": "COc1cc(C=O)ccc1O",
    "quercetyl": "Oc1ccc(cc1O)-c1oc2cc(O)cc(O)c2c(=O)c1O",
}
AGLYCONE_NAMES = tuple(AGLYCONES)

# Steroid skeletons; {c3} is the C3 group and {c17} the C17 group.
STEROID_CORES = {
    "androstane": "CC12CCC({c3})CC1CCC1C2CCC2(C)C({c17})CCC12",
    "androstene": "CC12CCC({c3})CC1=CCC1C2CCC2(C)C({c17})CCC12",
    "estrane": "CC12CCC3c4ccc({c3})cc4CCC3C1CCC2{c17}",
}
CORE_NAMES = tuple(STEROID_CORES)
STEROID_C3 = ("O", "OC", "OC(C)=O", "N", "F")
STEROID_C17 = ("O", "C(C)=O", "C(C)CCCC(C)C", "C(C)CCC(=O)O", "C#C")


def _peptide(seq: tuple[str, ...], cyclic: bool) -> str:
    parts = []
    for pos, aa in enumerate(seq):
        side = SIDE_CHAINS[aa]
        alpha = f"C({side})" if side else "C"
        if cyclic and pos == 0:
            parts.append(f"N1{alpha}C(=O)")
        elif cyclic and pos == len(seq) - 1:
            parts.append(f"N{alpha}C1=O")
        else:
            parts.append(f"N{alpha}C(=O)")
    return "".join(parts) + ("" if cyclic else "O")


def _sugar_chain(units: tuple[str, ...], label: int) -> str:
    o4 = "O" + _sugar_chain(units[1:], label + 1) if len(units) > 1 else "O"
    return SUGARS[units[0]].format(r=label, o4=o4)


def _acyl(length: int, unsat: int) -> str:
    """Fatty acyl group with ``length`` carbons and ``unsat`` C=C bonds."""
    chain = ["C"] * (length - 1)
    for k in range(unsat):
        chain[2 + 3 * k] = "C="
    return "C(=O)" + "".join(chain)


def build(cls: str, spec: tuple) -> str:
    """SMILES of the molecule of class ``cls`` described by ``spec``."""
    if cls == "peptide":
        return _peptide(spec, cyclic=False)
    if cls == "macrocycle":
        return _peptide(spec, cyclic=True)
    if cls == "glycoside":
        aglycone, units = spec
        return AGLYCONES[aglycone] + _sugar_chain(units, 2)
    if cls == "lipid":
        groups = ["O" + _acyl(*chain) if chain[0] else "O" for chain in spec]
        return f"C({groups[0]})C({groups[1]})C{groups[2]}"
    if cls == "steroid":
        core, c3, c17, units = spec
        if units:
            c3 = "O" + _sugar_chain(units, 5)
        c17 = f"({c17})" if core == "estrane" else c17
        return STEROID_CORES[core].format(c3=c3, c17=c17)
    raise ValueError(f"unknown class {cls!r}")


# Size ranges per class that can reach each weight bin; rejection sampling
# then keeps only specs whose mass falls in the target bin.
def random_spec(cls: str, bin_index: int, rng: random.Random) -> tuple:
    if cls in ("peptide", "macrocycle"):
        low, high = ((1, 2), (2, 3), (3, 5), (5, 7), (7, 8))[bin_index]
        if cls == "macrocycle":
            low = max(low, 2)
        return tuple(rng.choice(RESIDUES) for _ in range(rng.randint(low, high)))
    if cls == "glycoside":
        n_units = (1, 1, 2, 3, 4)[bin_index]
        aglycone = rng.choice(AGLYCONE_NAMES[:2] if bin_index == 0 else AGLYCONE_NAMES)
        return aglycone, tuple(rng.choice(SUGAR_NAMES[:3] if bin_index == 0 else SUGAR_NAMES) for _ in range(n_units))
    if cls == "lipid":
        n_chains = (1, 1, 2, 3, 3)[bin_index]
        low, high = ((2, 6), (8, 18), (10, 20), (10, 16), (14, 22))[bin_index]
        chains = [(rng.randint(low, high), 0) for _ in range(n_chains)]
        chains = [(n, rng.randint(0, min(3, (n - 4) // 3)) if n >= 8 else 0) for n, _ in chains]
        chains += [(0, 0)] * (3 - n_chains)
        rng.shuffle(chains)
        return tuple(chains)
    if cls == "steroid":
        n_units = (0, 0, 1, 2, 3)[bin_index]
        units = tuple(rng.choice(SUGAR_NAMES) for _ in range(n_units))
        return rng.choice(CORE_NAMES), rng.choice(STEROID_C3), rng.choice(STEROID_C17), units
    raise ValueError(f"unknown class {cls!r}")


def analog_spec(cls: str, spec: tuple, rng: random.Random) -> tuple:
    """``spec`` with exactly one fragment replaced."""
    if cls in ("peptide", "macrocycle"):
        pos = rng.randrange(len(spec))
        new = rng.choice([aa for aa in RESIDUES if aa != spec[pos]])
        return spec[:pos] + (new,) + spec[pos + 1 :]
    if cls == "glycoside":
        aglycone, units = spec
        pos = rng.randrange(len(units) + 1)
        if pos == len(units):
            return rng.choice([a for a in AGLYCONE_NAMES if a != aglycone]), units
        new = rng.choice([s for s in SUGAR_NAMES if s != units[pos]])
        return aglycone, units[:pos] + (new,) + units[pos + 1 :]
    if cls == "lipid":
        acylated = [i for i, chain in enumerate(spec) if chain[0]]
        pos = rng.choice(acylated)
        length, unsat = spec[pos]
        length = length + 2 if length <= 4 or rng.random() < 0.5 else length - 2
        chains = list(spec)
        chains[pos] = (length, min(unsat, (length - 4) // 3) if length >= 8 else 0)
        return tuple(chains)
    if cls == "steroid":
        core, c3, c17, units = spec
        if units and rng.random() < 0.5:
            pos = rng.randrange(len(units))
            new = rng.choice([s for s in SUGAR_NAMES if s != units[pos]])
            return core, c3, c17, units[:pos] + (new,) + units[pos + 1 :]
        if not units and rng.random() < 0.5:
            return core, rng.choice([g for g in STEROID_C3 if g != c3]), c17, units
        return core, c3, rng.choice([g for g in STEROID_C17 if g != c17]), units
    raise ValueError(f"unknown class {cls!r}")


@dataclass(frozen=True)
class LargeMol:
    smiles: str
    canonical: str
    bin: str


def validate(smiles: str) -> LargeMol:
    """Round-trip check; raises ``ChemError`` when the molecule is not stable."""
    mol = mol_from_smiles(smiles)
    canonical = canonical_smiles(mol)
    if not molecules_equal(mol, mol_from_smiles(canonical)):
        raise ChemError(f"round-trip mismatch for {smiles}")
    return LargeMol(smiles, canonical, weight_bin_for_mass(monoisotopic_mass(molecular_formula(mol))))


@dataclass(frozen=True)
class Family:
    """A ground truth and its one candidate: a one-fragment analog, or an
    unrelated decoy of another class from the same weight bin."""

    slot: int
    cls: str
    base: LargeMol
    partner: LargeMol
    relation: str  # "analog" or "decoy"


# (weight bin index, class, partner) per record slot, where the partner is
# "analog" or the class of the decoy.  Each bin holds an analog pair and an
# unrelated pair, and the tier holds every class.  An odd slot count puts
# the latency median on one record rather than between two.  The [600,800) lipid slot
# is a triacylglycerol against a steroid glycoside: the pair whose MCES
# overruns its budget in _relabel_by_degree.  No lipid sits in [800,inf): one
# such pair ran 17-26 s against a 1 s budget, longer than a whole run.
SLOTS = (
    (0, "peptide", "analog"),
    (0, "lipid", "macrocycle"),
    (1, "glycoside", "analog"),
    (1, "steroid", "peptide"),
    (2, "macrocycle", "analog"),
    (2, "lipid", "glycoside"),
    (3, "steroid", "analog"),
    (3, "lipid", "steroid"),
    (4, "peptide", "analog"),
    (4, "glycoside", "macrocycle"),
    (2, "glycoside", "steroid"),
)

MIN_PER_BIN = 2


def _fresh(
    cls: str, bin_index: int, rng: random.Random, seen: set[str]
) -> tuple[tuple, LargeMol]:
    target = WEIGHT_BIN_LABELS[bin_index]
    for _ in range(2000):
        spec = random_spec(cls, bin_index, rng)
        mol = validate(build(cls, spec))
        if mol.bin == target and mol.canonical not in seen:
            seen.add(mol.canonical)
            return spec, mol
    raise RuntimeError(f"cannot build a {cls} molecule in bin {target}")


def make_family(slot: int, rng: random.Random, seen: set[str]) -> Family:
    bin_index, cls, partner = SLOTS[slot]
    spec, base = _fresh(cls, bin_index, rng, seen)
    if partner != "analog":
        return Family(slot, cls, base, _fresh(partner, bin_index, rng, seen)[1], "decoy")
    for _ in range(200):
        analog = validate(build(cls, analog_spec(cls, spec, rng)))
        if analog.canonical not in seen:
            seen.add(analog.canonical)
            return Family(slot, cls, base, analog, "analog")
    raise RuntimeError(f"no analog for {base.smiles}")


def build_library(seed: int) -> list[Family]:
    """One family per slot; all molecules pairwise distinct."""
    rng = random.Random(seed)
    seen: set[str] = set()
    library = [make_family(slot, rng, seen) for slot in range(len(SLOTS))]
    for label in WEIGHT_BIN_LABELS:
        count = sum(1 for f in library if f.base.bin == label)
        if count < MIN_PER_BIN:
            raise RuntimeError(f"weight bin {label} holds {count} ground truths")
    return library
