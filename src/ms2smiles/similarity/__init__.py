"""Structural similarity: circular fingerprints and edge-overlap distance."""

from .fingerprints import Fingerprint, IncomparableFingerprints, morgan_fingerprint, tanimoto
from .mces import McesResult, mces

__all__ = [
    "Fingerprint",
    "IncomparableFingerprints",
    "McesResult",
    "mces",
    "morgan_fingerprint",
    "tanimoto",
]
