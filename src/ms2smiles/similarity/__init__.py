"""Structural similarity: circular fingerprints and edge-overlap distance."""

from .fingerprints import Fingerprint, IncomparableFingerprints, morgan_fingerprint, tanimoto
from .mces import McesResult, mces, mces_floor

__all__ = [
    "Fingerprint",
    "IncomparableFingerprints",
    "McesResult",
    "mces",
    "mces_floor",
    "morgan_fingerprint",
    "tanimoto",
]
