"""Element symbols, the SMILES organic subset, and the valence model."""

from __future__ import annotations

ELEMENT_SYMBOLS: frozenset[str] = frozenset(
    """
    H He Li Be B C N O F Ne Na Mg Al Si P S Cl Ar K Ca Sc Ti V Cr Mn Fe Co Ni
    Cu Zn Ga Ge As Se Br Kr Rb Sr Y Zr Nb Mo Tc Ru Rh Pd Ag Cd In Sn Sb Te I
    Xe Cs Ba La Ce Pr Nd Pm Sm Eu Gd Tb Dy Ho Er Tm Yb Lu Hf Ta W Re Os Ir Pt
    Au Hg Tl Pb Bi Po At Rn Fr Ra Ac Th Pa U Np Pu Am Cm Bk Cf Es Fm Md No Lr
    Rf Db Sg Bh Hs Mt Ds Rg Cn Nh Fl Mc Lv Ts Og
    """.split()
)

# Atoms writable without brackets.
ORGANIC_SUBSET: frozenset[str] = frozenset({"B", "C", "N", "O", "P", "S", "F", "Cl", "Br", "I"})

# Lowercase forms accepted outside brackets.
AROMATIC_ORGANIC: frozenset[str] = frozenset({"b", "c", "n", "o", "p", "s"})

# Lowercase forms accepted inside brackets.
AROMATIC_BRACKET: frozenset[str] = frozenset({"b", "c", "n", "o", "p", "s", "se", "as", "te"})

# Allowed valences for neutral atoms.  Multi-valued entries pick the smallest
# valence that fits the bond-order sum (sulfur 2/4/6, phosphorus 3/5).
VALENCES: dict[str, tuple[int, ...]] = {
    "H": (1,),
    "B": (3,),
    "C": (4,),
    "N": (3,),
    "O": (2,),
    "F": (1,),
    "Si": (4,),
    "P": (3, 5),
    "S": (2, 4, 6),
    "Cl": (1,),
    "As": (3, 5),
    "Se": (2, 4, 6),
    "Br": (1,),
    "Te": (2, 4, 6),
    "I": (1,),
}

def implicit_hydrogens(element: str, order_sum: int) -> int:
    """Implicit H of an organic-subset atom: smallest fitting valence less ``order_sum``, else -1."""
    for valence in VALENCES[element]:
        if valence >= order_sum:
            return valence - order_sum
    return -1


# Elements whose target valence moves with the charge sign: cations gain a
# bonding slot (pyridinium N, pyrylium O), anions lose one (alkoxide O).
_SHIFT_WITH_CHARGE = frozenset({"N", "P", "As", "O", "S", "Se", "Te", "F", "Cl", "Br", "I"})


def allowed_valences(element: str, charge: int = 0) -> tuple[int, ...]:
    """Return the allowed valences for an element at a formal charge.

    Empty tuple means the element is outside the valence model and is not
    checked (bracket-only metals and the like).
    """
    base = VALENCES.get(element)
    if base is None:
        return ()
    if charge == 0:
        return base
    if element in _SHIFT_WITH_CHARGE:
        shifted = [v + charge for v in base]
    elif element == "B":
        # Borate anions gain a slot ([BH4-]); boron cations lose one.
        shifted = [v - charge for v in base]
    else:
        # Carbon family and hydrogen: both ion signs drop one slot.
        shifted = [v - abs(charge) for v in base]
    return tuple(sorted(v for v in shifted if v >= 0))
