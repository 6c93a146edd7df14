"""Structural similarity: circular fingerprints and edge-overlap distance."""

from .fingerprints import morgan_fingerprint, tanimoto
from .mces import DEFAULT_MCES_BUDGET, McesResult, check_budget, mces, mces_floor

__all__ = [
    "DEFAULT_MCES_BUDGET",
    "McesResult",
    "check_budget",
    "mces",
    "mces_floor",
    "morgan_fingerprint",
    "tanimoto",
]
