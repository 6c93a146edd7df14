"""Per-spectrum metric computation, CoT auditing, and aggregation.

Scoring for one spectrum:

* validity: a candidate is valid iff it parses and perceives;
* formula consistency / DBE correctness: judged on the highest-ranked valid
  candidate, false when no candidate is valid;
* exact match: canonical-SMILES equality against any of the first k
  candidates (top-1 restricts to the first).  ``chem.canon.same_structure``
  decides it: a candidate spelled like the ground truth is the memoized
  ground-truth molecule and matches at once, and only a candidate with the
  ground truth's atom labels is canonicalized;
* Tanimoto: maximum over the valid candidates among the first k, 0.0 when
  none are valid;
* MCES: minimum dissimilarity over the same set, 1.0 when none are valid.

Invalid candidates are skipped inside the top-k scans, never zero-scored.

The rank-0 candidate is always searched, so MCES top-1 is its own value.
Past rank 0, a candidate is searched only when its ``mces_floor`` lies
below the running top-k minimum.  The floor is the dissimilarity that the
degree-sequence bound on the common edge count allows (per bond class, the
two molecules' per-atom counts of incident bonds, paired off).  Any result
of the candidate's search, truncated or not, is at least that floor and so
could not lower the minimum.  Top-1 and top-k values are therefore those of
searching every candidate, and ``mces_truncated`` flags a truncated search
among those that ran; a search stops after ``mces_budget`` nodes, never on
a clock, so it truncates alike on every machine.  ``k`` below 1 is rejected.

Ground truths and candidates repeat across records and runs, so every SMILES
goes through ``dataset.prepare``: a per-process LRU memo of ``MEMO_SIZE``
entries that parses, perceives and measures each string it holds once (an
invalid one is memoized as None).  ``load_dataset`` has already put the
ground truths in it, and the last ``MEMO_SIZE`` unique ones stay.  Scoring, the CoT audit and the weight bin all read the shared
``PreparedMol``; the top-k scan takes fingerprints from a second memo of the
same size.  A third memo of that size holds the MCES result per (ground
truth, candidate, budget) SMILES pair, so a candidate listed twice, or a
pair that recurs across records, is searched once.  Pool workers each keep
their own memos, which start as a copy of the parent's where workers fork.
"""

from __future__ import annotations

import csv
import json
import re
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields
from functools import lru_cache
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .chem import ChemError, canonical_smiles, mol_from_smiles, same_structure
from .chem.formula import ElementCounts, canonical_formula, parse_formula
from .dataset import MEMO_SIZE, WEIGHT_BIN_LABELS, PreparedMol, SpectrumRecord, prepare, weight_bin
from .protocol import ParsedResponse, parse_response
from .similarity import DEFAULT_MCES_BUDGET, Fingerprint, McesResult, mces, mces_floor, morgan_fingerprint, tanimoto


class EmptyInput(ValueError):
    """Aggregation over an empty metric list."""


@dataclass(frozen=True)
class PerSpectrumMetrics:
    record_id: str
    bin: str
    has_think: bool
    has_answer: bool
    n_candidates: int
    n_valid: int
    validity_top1: bool
    formula_consistent_any: bool
    dbe_correct_top1: bool
    exact_top1: bool
    exact_topk: bool
    mts_top1: float
    mts_topk: float
    mces_top1: float
    mces_topk: float
    mces_truncated: bool


@dataclass(frozen=True)
class CotAudit:
    """Fields in cot_audit.csv column order."""

    record_id: str
    word_count: int
    stated_dbe: float | None
    dbe_claim_correct: bool | None
    stated_formula: ElementCounts | None
    formula_claim_correct: bool | None
    contradiction: bool


@lru_cache(maxsize=MEMO_SIZE)
def fingerprint(smiles: str, fp_radius: int, fp_nbits: int) -> Fingerprint:
    """Morgan fingerprint of a valid ``smiles``, built once per process and shape."""
    return morgan_fingerprint(prepare(smiles).mol, radius=fp_radius, nbits=fp_nbits)


@lru_cache(maxsize=MEMO_SIZE)
def pair_mces(truth: str, candidate: str, budget: int) -> McesResult:
    """``mces`` of two valid SMILES, searched once per process, pair and budget."""
    return mces(prepare(truth).mol, prepare(candidate).mol, budget=budget)


def _prepare_truth(record: SpectrumRecord) -> PreparedMol:
    gt = prepare(record.ground_truth)
    if gt is None:  # a ground truth must be valid: parse again to raise its ChemError
        mol_from_smiles(record.ground_truth)
    return gt


def _check_k(k: int) -> None:
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")


def score_spectrum(
    record: SpectrumRecord,
    parsed: ParsedResponse,
    k: int = 10,
    *,
    mces_budget: int = DEFAULT_MCES_BUDGET,
    fp_radius: int = 2,
    fp_nbits: int = 2048,
) -> PerSpectrumMetrics:
    _check_k(k)
    gt = _prepare_truth(record)
    gt_fp = fingerprint(record.ground_truth, fp_radius, fp_nbits)

    candidates = parsed.candidates
    prepared = [prepare(smiles) for smiles in candidates]
    n_valid = sum(1 for p in prepared if p is not None)
    first_valid = next((p for p in prepared if p is not None), None)

    formula_ok = first_valid is not None and first_valid.formula == record.formula
    dbe_ok = first_valid is not None and first_valid.dbe == gt.dbe

    exact_top1 = False
    exact_topk = False
    mts_top1 = 0.0
    mts_topk = 0.0
    mces_top1 = 1.0
    mces_topk = 1.0
    truncated = False
    for rank, (smiles, cand) in enumerate(zip(candidates[:k], prepared[:k])):
        if cand is None:
            continue
        exact = same_structure(cand.mol, gt.mol, canonical_smiles)
        similarity = tanimoto(gt_fp, fingerprint(smiles, fp_radius, fp_nbits))
        if rank == 0:
            exact_top1 = exact
            mts_top1 = similarity
        exact_topk = exact_topk or exact
        mts_topk = max(mts_topk, similarity)
        # Past rank 0, a candidate whose floor cannot go below the current
        # minimum would not move it, whatever its search returned.
        if rank == 0 or mces_floor(gt.mol, cand.mol) < mces_topk:
            result = pair_mces(record.ground_truth, smiles, mces_budget)
            truncated = truncated or not result.optimal
            mces_topk = min(mces_topk, result.dissimilarity)
            if rank == 0:
                mces_top1 = result.dissimilarity

    return PerSpectrumMetrics(
        record_id=record.id,
        bin=weight_bin(gt.formula),
        has_think=parsed.has_think,
        has_answer=parsed.has_answer,
        n_candidates=len(candidates),
        n_valid=n_valid,
        validity_top1=bool(prepared) and prepared[0] is not None,
        formula_consistent_any=formula_ok,
        dbe_correct_top1=dbe_ok,
        exact_top1=exact_top1,
        exact_topk=exact_topk,
        mts_top1=mts_top1,
        mts_topk=mts_topk,
        mces_top1=mces_top1,
        mces_topk=mces_topk,
        mces_truncated=truncated,
    )


_DBE_PHRASE = re.compile(r"double\s+bond\s+equivalents\s*\(dbe\)", re.IGNORECASE)
_FORMULA_LINE = re.compile(r"formula\s*:\s*(.*)", re.IGNORECASE)
_NUMBER = re.compile(r"[-+]?\d+(?:\.\d+)?")
_FORMULA_TOKEN = re.compile(r"(?:[A-Z][a-z]?\d*)+")


def _extract_stated_dbe(think_text: str) -> float | None:
    for line in think_text.splitlines():
        if _DBE_PHRASE.search(line):
            tail = line.rsplit("=", 1)[-1] if "=" in line else line.split(":", 1)[-1]
            numbers = _NUMBER.findall(tail)
            if numbers:
                return float(numbers[-1])
            return None
    return None


def _extract_stated_formula(think_text: str) -> ElementCounts | None:
    for line in think_text.splitlines():
        match = _FORMULA_LINE.search(line)
        if match is None:
            continue
        token = _FORMULA_TOKEN.search(match.group(1))
        if token is None:
            return None
        try:
            return parse_formula(token.group(0))
        except ChemError:
            return None
    return None


def audit_cot(parsed: ParsedResponse, record: SpectrumRecord) -> CotAudit:
    """Check the DBE and formula claims made inside the think block.

    A contradiction is recorded when a machine-checkable claim disagrees
    with the model's own highest-ranked valid candidate.
    """
    think = parsed.think_text or ""
    stated_dbe = _extract_stated_dbe(think)
    stated_formula = _extract_stated_formula(think)

    gt = _prepare_truth(record)
    dbe_correct = None if stated_dbe is None else stated_dbe == gt.dbe
    formula_correct = None if stated_formula is None else stated_formula == record.formula

    prepared = (prepare(smiles) for smiles in parsed.candidates)
    first_valid = next((p for p in prepared if p is not None), None)
    contradiction = False
    if first_valid is not None:
        if stated_dbe is not None and stated_dbe != first_valid.dbe:
            contradiction = True
        if stated_formula is not None and stated_formula != first_valid.formula:
            contradiction = True

    return CotAudit(
        record_id=record.id,
        stated_dbe=stated_dbe,
        stated_formula=stated_formula,
        dbe_claim_correct=dbe_correct,
        formula_claim_correct=formula_correct,
        contradiction=contradiction,
        word_count=parsed.cot_word_count,
    )


@dataclass
class AggregateReport:
    k: int
    n_records: int
    n_answered: int
    think_rate_pct: float
    answer_rate_pct: float
    smiles_validity_pct: float
    dbe_accuracy_pct: float
    formula_consistency_pct: float
    exact_top1_pct: float
    exact_topk_pct: float
    mts_top1_mean: float
    mts_topk_mean: float
    mces_top1_mean: float
    mces_topk_mean: float
    mces_truncated_pct: float
    answered: dict = field(default_factory=dict)
    cot: dict = field(default_factory=dict)
    bins: list = field(default_factory=list)

    def table_rows(self) -> list[tuple[str, str]]:
        k = self.k
        return [
            ("Records", str(self.n_records)),
            ("Answered records", str(self.n_answered)),
            ("Think Rate (%)", f"{self.think_rate_pct:.2f}"),
            ("Answer Rate (%)", f"{self.answer_rate_pct:.2f}"),
            ("SMILES Validity (%)", f"{self.smiles_validity_pct:.2f}"),
            ("DBE Accuracy (%)", f"{self.dbe_accuracy_pct:.2f}"),
            ("Formula Consistency (%)", f"{self.formula_consistency_pct:.2f}"),
            ("Accuracy Top-1 (%)", f"{self.exact_top1_pct:.2f}"),
            (f"Accuracy Top-{k} (%)", f"{self.exact_topk_pct:.2f}"),
            ("Tanimoto Top-1", f"{self.mts_top1_mean:.4f}"),
            (f"Tanimoto Top-{k}", f"{self.mts_topk_mean:.4f}"),
            ("MCES Top-1", f"{self.mces_top1_mean:.4f}"),
            (f"MCES Top-{k}", f"{self.mces_topk_mean:.4f}"),
            ("MCES truncated (%)", f"{self.mces_truncated_pct:.2f}"),
        ]


def _pct(flags: Iterable[bool], n: int) -> float:
    """Percentage of true ``flags`` among ``n``; 0.0 when ``n`` is 0."""
    return 100.0 * sum(flags) / n if n else 0.0


def _mean(values: Iterable[float], n: int, empty: float = 0.0) -> float:
    """Mean of ``n`` values; ``empty`` when ``n`` is 0."""
    return sum(values) / n if n else empty


def _structural_rates(metrics: Sequence[PerSpectrumMetrics]) -> dict:
    """The rates reported per weight bin, in per_bin.csv column order."""
    n = len(metrics)
    return {
        "exact_top1_pct": _pct((m.exact_top1 for m in metrics), n),
        "exact_topk_pct": _pct((m.exact_topk for m in metrics), n),
        "mts_top1_mean": _mean((m.mts_top1 for m in metrics), n),
        "mts_topk_mean": _mean((m.mts_topk for m in metrics), n),
        "mces_top1_mean": _mean((m.mces_top1 for m in metrics), n, empty=1.0),
        "mces_topk_mean": _mean((m.mces_topk for m in metrics), n, empty=1.0),
    }


def _rates(metrics: Sequence[PerSpectrumMetrics]) -> dict:
    """The structural rates plus validity, DBE and formula, with the count ``n``."""
    n = len(metrics)
    return {
        "n": n,
        "smiles_validity_pct": _pct((m.validity_top1 for m in metrics), n),
        "dbe_accuracy_pct": _pct((m.dbe_correct_top1 for m in metrics), n),
        "formula_consistency_pct": _pct((m.formula_consistent_any for m in metrics), n),
        **_structural_rates(metrics),
    }


def aggregate(
    metrics: Sequence[PerSpectrumMetrics],
    audits: Sequence[CotAudit] = (),
    k: int = 10,
) -> AggregateReport:
    """Fold per-spectrum metrics into the benchmark report.

    Structural and chemical rates use the full record count as denominator;
    the ``answered`` section repeats them over answered records only, since
    either convention is defensible.
    """
    if not metrics:
        raise EmptyInput("no per-spectrum metrics to aggregate")
    overall = _rates(metrics)
    n = overall.pop("n")
    answered = _rates([m for m in metrics if m.has_answer])

    with_think = [a for a in audits if a.word_count > 0]
    n_audits = len(audits)
    cot = {
        "n_think": len(with_think),
        "mean_cot_words": _mean((a.word_count for a in with_think), len(with_think)),
        "n_dbe_claims": sum(a.dbe_claim_correct is not None for a in audits),
        "dbe_claim_correct_pct": _pct((bool(a.dbe_claim_correct) for a in audits), n_audits),
        "n_formula_claims": sum(a.formula_claim_correct is not None for a in audits),
        "formula_claim_correct_pct": _pct((bool(a.formula_claim_correct) for a in audits), n_audits),
        "contradiction_pct": _pct((a.contradiction for a in audits), n_audits),
    }

    bins = []
    for label in WEIGHT_BIN_LABELS:
        in_bin = [m for m in metrics if m.bin == label]
        bins.append({"bin": label, "count": len(in_bin), **_structural_rates(in_bin)})

    return AggregateReport(
        k=k,
        n_records=n,
        n_answered=answered["n"],
        think_rate_pct=_pct((m.has_think for m in metrics), n),
        answer_rate_pct=_pct((m.has_answer for m in metrics), n),
        mces_truncated_pct=_pct((m.mces_truncated for m in metrics), n),
        answered=answered,
        cot=cot,
        bins=bins,
        **overall,
    )


def evaluate_one(
    record: SpectrumRecord,
    transcript: str,
    k: int = 10,
    *,
    mces_budget: int = DEFAULT_MCES_BUDGET,
    fp_radius: int = 2,
    fp_nbits: int = 2048,
) -> tuple[PerSpectrumMetrics, CotAudit]:
    parsed = parse_response(transcript)
    metrics = score_spectrum(
        record, parsed, k, mces_budget=mces_budget, fp_radius=fp_radius, fp_nbits=fp_nbits
    )
    return metrics, audit_cot(parsed, record)


def _evaluate_task(args) -> tuple[PerSpectrumMetrics, CotAudit]:
    record, transcript, k, mces_budget, fp_radius, fp_nbits = args
    return evaluate_one(
        record, transcript, k, mces_budget=mces_budget, fp_radius=fp_radius, fp_nbits=fp_nbits
    )


def evaluate_records(
    records: Sequence[SpectrumRecord],
    transcripts: Mapping[str, str],
    k: int = 10,
    *,
    mces_budget: int = DEFAULT_MCES_BUDGET,
    fp_radius: int = 2,
    fp_nbits: int = 2048,
    workers: int = 1,
) -> tuple[list[PerSpectrumMetrics], list[CotAudit]]:
    """Score every record against its transcript (missing means empty)."""
    _check_k(k)
    tasks = [
        (record, transcripts.get(record.id, ""), k, mces_budget, fp_radius, fp_nbits)
        for record in records
    ]
    if workers <= 1:
        results = [_evaluate_task(t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_evaluate_task, tasks, chunksize=8))
    return [m for m, _ in results], [a for _, a in results]


def _cell(value) -> object:
    """A bool as 0/1 and a formula as its Hill string; csv writes None as an empty cell."""
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, dict):
        return canonical_formula(value)
    return value


def _write_rows(path: Path, row_type: type, rows: Sequence) -> None:
    """One CSV row per ``row_type`` instance, under its field names."""
    columns = [f.name for f in fields(row_type)]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_cell(getattr(row, name)) for name in columns])


def write_reports(
    out_dir: str | Path,
    metrics: Sequence[PerSpectrumMetrics],
    audits: Sequence[CotAudit],
    report: AggregateReport,
) -> dict[str, Path]:
    """Write the per-spectrum, aggregate, per-bin and audit files.

    Output is deterministic: same inputs, byte-identical files.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "per_spectrum": out / "per_spectrum.csv",
        "aggregate_csv": out / "aggregate.csv",
        "aggregate_json": out / "aggregate.json",
        "per_bin": out / "per_bin.csv",
        "cot_audit": out / "cot_audit.csv",
    }

    _write_rows(paths["per_spectrum"], PerSpectrumMetrics, metrics)

    with open(paths["aggregate_csv"], "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["metric", "value"])
        writer.writerows(report.table_rows())

    with open(paths["aggregate_json"], "w", encoding="utf-8") as fh:
        json.dump(asdict(report), fh, indent=2, sort_keys=True)
        fh.write("\n")

    with open(paths["per_bin"], "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(report.bins[0]))
        writer.writeheader()
        writer.writerows(report.bins)

    _write_rows(paths["cot_audit"], CotAudit, audits)
    return paths
