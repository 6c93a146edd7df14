"""Benchmark dataset ingestion, the per-process molecule memo, and
molecular-weight binning.

Input is either a TSV with a header row or JSON-lines, auto-detected by
extension.  Rows that fail validation are skipped and tallied; the loader
never raises on a bad row, only on an unusable file.

Every SMILES the package scores goes through ``prepare``: a per-process LRU
memo of ``MEMO_SIZE`` entries that parses, perceives and measures a string
(an invalid one is memoized as None).  ``load_dataset`` validates the ground
truths through it, so ``evaluate`` scores them without parsing them again,
and pool workers forked after the load inherit them.  Past ``MEMO_SIZE``
unique SMILES the earliest are evicted and parsed again when scored.
"""

from __future__ import annotations

import csv
import json
import math
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path

from .chem import ChemError, dbe, mol_from_smiles, molecular_formula, monoisotopic_mass, parse_formula
from .chem.formula import ElementCounts
from .chem.mol import Molecule

SPLITS = ("train", "val", "test")

# Entries per memo and process.  A bench/data/large_library.tsv molecule holds
# ~11 KiB prepared and ~17 KiB once MCES has cached its profile on it (corpus
# molecules: 4 and 9 KiB).  Measured with tracemalloc as the traced growth per
# molecule from filling the cleared memo with the set, then profiling each
# molecule, after one such fill so that first-use allocations are not counted.
MEMO_SIZE = 2048

WEIGHT_BIN_EDGES = (200.0, 400.0, 600.0, 800.0)
WEIGHT_BIN_LABELS = ("[0,200)", "[200,400)", "[400,600)", "[600,800)", "[800,inf)")

# Accepted header spellings, first entry is the canonical name.
COLUMN_ALIASES: dict[str, tuple[str, ...]] = {
    "id": ("id", "identifier", "spectrum_id"),
    "mzs": ("mzs", "peaks_mz", "mz"),
    "intensities": ("intensities", "peaks_intensities", "intensity"),
    "smiles": ("smiles", "ground_truth", "ground_truth_smiles"),
    "precursor_formula": ("precursor_formula", "formula"),
    "adduct": ("adduct", "precursor_adduct"),
    "instrument_type": ("instrument_type", "instrument"),
    "collision_energy": ("collision_energy", "ce"),
    "fold": ("fold", "split"),
}


class DatasetError(Exception):
    pass


class FileUnreadable(DatasetError):
    pass


class HeaderMissing(DatasetError):
    pass


class NoValidRows(DatasetError):
    pass


class AllZeroIntensities(ValueError):
    pass


class NegativeIntensity(ValueError):
    pass


@dataclass(frozen=True)
class PreparedMol:
    """A perceived molecule and its formula and DBE, shared through ``prepare``: read-only."""

    mol: Molecule
    formula: ElementCounts
    dbe: float


@lru_cache(maxsize=MEMO_SIZE)
def prepare(smiles: str) -> PreparedMol | None:
    """Parse, perceive and measure ``smiles``, memoized per process; None if invalid."""
    try:
        mol = mol_from_smiles(smiles)
    except ChemError:
        return None
    formula = molecular_formula(mol)
    return PreparedMol(mol, formula, dbe(formula))


@dataclass(frozen=True)
class SpectrumRecord:
    """One benchmark instance: spectrum, precursor metadata, ground truth."""

    id: str
    mzs: tuple[float, ...]
    intensities: tuple[float, ...]
    formula: ElementCounts
    adduct: str
    instrument: str
    collision_energy: float | None
    ground_truth: str
    split: str


@dataclass
class LoadResult:
    path: str
    n_rows: int = 0
    records: list[SpectrumRecord] = field(default_factory=list)
    skipped: list[tuple[str, str]] = field(default_factory=list)  # (row label, reason)

    def report_text(self) -> str:
        per_split = {s: 0 for s in SPLITS}
        for record in self.records:
            per_split[record.split] += 1
        lines = [
            f"dataset: {self.path}",
            f"rows read: {self.n_rows}",
            f"valid records: {len(self.records)} "
            f"(train {per_split['train']} / val {per_split['val']} / test {per_split['test']})",
            f"skipped rows: {len(self.skipped)}",
        ]
        reasons = Counter(reason for _, reason in self.skipped)
        for reason in sorted(reasons):
            lines.append(f"  {reason}: {reasons[reason]}")
        if self.skipped:
            lines.append("first skips:")
            for label, reason in self.skipped[:10]:
                lines.append(f"  {label}: {reason}")
        return "\n".join(lines)


def normalize_intensities(raw: list[float]) -> list[float]:
    """Scale so the largest value is exactly 1.0."""
    if any(v < 0 for v in raw):
        raise NegativeIntensity("negative intensity")
    peak = max(raw, default=0.0)
    if peak <= 0:
        raise AllZeroIntensities("all intensities are zero")
    return [v / peak for v in raw]


def weight_bin_for_mass(mass: float) -> str:
    """Left-closed weight bin label for a monoisotopic mass in Da."""
    for edge, label in zip(WEIGHT_BIN_EDGES, WEIGHT_BIN_LABELS):
        if mass < edge:
            return label
    return WEIGHT_BIN_LABELS[-1]


def weight_bin(formula: ElementCounts) -> str:
    """Bin of the monoisotopic mass of a (ground-truth) molecule's formula."""
    return weight_bin_for_mass(monoisotopic_mass(formula))


def _parse_number_list(value) -> list[float]:
    """Numbers from a list or a space/comma-separated string; ValueError unless all are finite."""
    if isinstance(value, (list, tuple)):
        parts = value
    else:
        parts = str(value).strip().strip("[]").replace(",", " ").split()
    numbers = [float(p) for p in parts]
    if not all(map(math.isfinite, numbers)):
        raise ValueError("non-finite number")
    return numbers


def _build_record(label: str, fields: dict, skipped: list) -> SpectrumRecord | None:
    def skip(reason: str) -> None:
        skipped.append((label, reason))

    # The id names the record's transcript file, so it must be one plain name,
    # and it is a batch_log.tsv field, so it holds no control character.
    record_id = str(fields.get("id", label))
    if record_id in ("", ".", "..") or any(c in "/\\\x7f" or c < " " for c in record_id):
        skip("BadId")
        return None

    try:
        mzs = _parse_number_list(fields.get("mzs", ""))
        intensities = _parse_number_list(fields.get("intensities", ""))
    except (TypeError, ValueError):
        skip("BadNumber")
        return None
    if not mzs:
        skip("EmptyPeaks")
        return None
    if len(mzs) != len(intensities):
        skip("LengthMismatch")
        return None
    if any(m <= 0 for m in mzs):
        skip("NonPositiveMz")
        return None

    mzs, intensities = zip(*sorted(zip(mzs, intensities)))
    try:
        intensities = normalize_intensities(intensities)
    except (AllZeroIntensities, NegativeIntensity) as exc:
        skip(type(exc).__name__)
        return None

    smiles = str(fields.get("smiles", "")).strip()
    if prepare(smiles) is None:
        skip("BadGroundTruth")
        return None

    try:
        formula = parse_formula(str(fields.get("precursor_formula", "")))
    except ChemError:
        skip("BadFormula")
        return None

    split = str(fields.get("fold", "")).strip().lower()
    if split not in SPLITS:
        skip("BadSplit")
        return None

    ce_raw = fields.get("collision_energy")
    collision_energy = None
    if ce_raw is not None and str(ce_raw).strip():
        try:
            collision_energy = float(ce_raw)
        except (TypeError, ValueError):
            collision_energy = math.nan
        if not math.isfinite(collision_energy):
            skip("BadCollisionEnergy")
            return None

    return SpectrumRecord(
        id=record_id,
        mzs=tuple(mzs),
        intensities=tuple(intensities),
        formula=formula,
        adduct=str(fields.get("adduct", "")).strip(),
        instrument=str(fields.get("instrument_type", "")).strip(),
        collision_energy=collision_energy,
        ground_truth=smiles,
        split=split,
    )


def _canonical_fields(raw: dict) -> dict:
    lowered = {str(k).strip().lower(): v for k, v in raw.items()}
    fields = {}
    for canonical, aliases in COLUMN_ALIASES.items():
        for alias in aliases:
            if alias in lowered:
                fields[canonical] = lowered[alias]
                break
    return fields


def _iter_tsv(path: Path):
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh, delimiter="\t")
        try:
            header = next(reader)
        except StopIteration:
            raise HeaderMissing(f"{path}: empty file") from None
        names = [h.strip().lower() for h in header]
        known = {alias for aliases in COLUMN_ALIASES.values() for alias in aliases}
        if not any(name in known for name in names):
            raise HeaderMissing(f"{path}: no recognized columns in header {names}")
        for i, row in enumerate(reader, start=2):
            if not any(cell.strip() for cell in row):
                continue
            yield f"line {i}", dict(zip(names, row))


def _iter_jsonl(path: Path):
    """Each non-blank line decoded, or None where it is not a JSON object."""
    with open(path, encoding="utf-8") as fh:
        for i, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                raw = json.loads(line)
            except json.JSONDecodeError:
                raw = None
            yield f"line {i}", raw if isinstance(raw, dict) else None


def load_dataset(path: str, split: str | None = None) -> LoadResult:
    """Load and validate records; invalid rows are tallied, not fatal.

    A later repeat of a record's id (it names the transcript) is skipped as ``DuplicateId``.

    Each ground truth is validated through ``prepare``, so it is parsed once
    however many spectra share it, and scoring reuses the result while it
    stays in the memo.
    ``split`` filters the returned records after validation.
    """
    p = Path(path)
    result = LoadResult(path=str(path))
    jsonl = p.suffix.lower() in (".jsonl", ".ndjson", ".json")
    try:
        rows = list(_iter_jsonl(p) if jsonl else _iter_tsv(p))
    except OSError as exc:
        raise FileUnreadable(f"cannot read {path}: {exc}") from exc

    ids: set[str] = set()
    for label, raw in rows:
        result.n_rows += 1
        if raw is None:
            result.skipped.append((label, "BadJson"))
            continue
        record = _build_record(label, _canonical_fields(raw), result.skipped)
        if record is None:
            continue
        if record.id in ids:
            result.skipped.append((label, "DuplicateId"))
            continue
        ids.add(record.id)
        result.records.append(record)

    if not result.records:
        raise NoValidRows(f"{path}: no valid rows ({len(result.skipped)} skipped)")
    if split is not None:
        result.records = [r for r in result.records if r.split == split]
    return result
