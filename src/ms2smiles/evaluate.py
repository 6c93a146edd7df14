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

A valid rank-0 candidate is searched first, so MCES top-1 is its own
value.  The other valid candidates in the top k are then scanned in order
of their ``mces_floor``, lowest first and ties by rank, and the scan stops
at the first whose floor is at or above the running top-k minimum (no floor
is computed when rank 0 already gives 0.0).  The floor is the dissimilarity
that the degree-sequence bound on the common edge count allows (per bond
class, the two molecules' per-atom counts of incident bonds, paired off).
Any result of a candidate's search, truncated or not, is at least that
floor, so no candidate the scan skips could lower the minimum.  Top-1 and
top-k values are therefore those of searching every candidate.  A candidate
is searched only when its floor lies below the minimum of rank 0 and every
lower-floor candidate, and ``mces_truncated`` flags a truncated search
among those that ran; a search stops after ``mces_budget`` nodes, never on
a clock, so it truncates alike on every machine.  A ``k`` below 1 or above
``MAX_CANDIDATES`` is rejected.

Ground truths and candidates repeat across records and runs, so every SMILES
goes through ``dataset.prepare``: a per-process LRU memo of ``MEMO_SIZE``
entries that parses, perceives and measures each string it holds once (an
invalid one is memoized as None).  ``load_dataset`` has already put the
ground truths in it, and the last ``MEMO_SIZE`` unique ones stay.  Scoring,
the CoT audit and the weight bin all read the shared ``PreparedMol``, and
the fingerprint is cached on its molecule, so each is built once while the
molecule stays in the memo.  A second memo of that size holds the MCES
result per (ground truth, candidate, budget) SMILES pair, so a candidate
listed twice, or a pair that recurs across records, is searched once.  Pool
workers each keep their own memos, which start as a copy of the parent's
where workers fork.
Each pool worker is pinned to its own CPU of the parent's affinity mask,
round-robin, because forked workers start on the parent's CPU and, where
the kernel does not balance load, would share it for the whole pool.

``RATES`` declares each reported rate once: its aggregate.json key, the
``PerSpectrumMetrics`` field it averages, its value over no records, its
aggregate.csv label, and whether it is repeated over answered records and
per weight bin.  ``aggregate`` builds the aggregate.json object from it, and
``table_rows`` the aggregate.csv rows and the ``report`` table, in its order.
"""

from __future__ import annotations

import csv
import json
import multiprocessing
import os
import re
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from functools import lru_cache
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .chem import ChemError, canonical_smiles, mol_from_smiles, same_structure
from .chem.formula import ElementCounts, canonical_formula, parse_formula
from .dataset import MEMO_SIZE, WEIGHT_BIN_LABELS, PreparedMol, SpectrumRecord, prepare, weight_bin
from .protocol import MAX_CANDIDATES, ParsedResponse, parse_response
from .similarity import DEFAULT_MCES_BUDGET, McesResult, check_budget, mces, mces_floor, morgan_fingerprint, tanimoto


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
def pair_mces(truth: str, candidate: str, budget: int) -> McesResult:
    """``mces`` of two valid SMILES, searched once per process, pair and budget."""
    return mces(prepare(truth).mol, prepare(candidate).mol, budget=budget)


def _prepare_truth(record: SpectrumRecord) -> PreparedMol:
    gt = prepare(record.ground_truth)
    if gt is None:  # a ground truth must be valid: parse again to raise its ChemError
        mol_from_smiles(record.ground_truth)
    return gt


def check_k(k: int) -> None:
    """Raises ``ValueError`` unless the top-k cutoff ``k`` is at least 1 and
    at most ``MAX_CANDIDATES``, the most candidates a parsed response keeps."""
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    if k > MAX_CANDIDATES:
        raise ValueError(f"k must be at most {MAX_CANDIDATES}, the most candidates a response keeps, got {k}")


def score_spectrum(
    record: SpectrumRecord,
    parsed: ParsedResponse,
    k: int = 10,
    *,
    mces_budget: int = DEFAULT_MCES_BUDGET,
) -> PerSpectrumMetrics:
    check_k(k)
    check_budget(mces_budget)
    gt = _prepare_truth(record)
    gt_fp = morgan_fingerprint(gt.mol)

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
    later = []  # (rank, smiles, molecule) of each valid candidate past rank 0
    for rank, (smiles, cand) in enumerate(zip(candidates[:k], prepared[:k])):
        if cand is None:
            continue
        exact = same_structure(cand.mol, gt.mol, canonical_smiles)
        similarity = tanimoto(gt_fp, morgan_fingerprint(cand.mol))
        if rank == 0:
            exact_top1 = exact
            mts_top1 = similarity
        else:
            later.append((rank, smiles, cand.mol))
        exact_topk = exact_topk or exact
        mts_topk = max(mts_topk, similarity)

    # Rank 0 is searched for its own top-1 value.  The rest go lowest floor
    # first, ties by rank, and the scan stops at the first floor at or above
    # the running minimum: every search result is at least its floor, so no
    # later candidate could lower it.
    mces_top1 = 1.0
    truncated = False
    if prepared and prepared[0] is not None:
        result = pair_mces(record.ground_truth, candidates[0], mces_budget)
        truncated = not result.optimal
        mces_top1 = result.dissimilarity
    mces_topk = mces_top1
    if mces_topk > 0.0:
        for floor, _, smiles in sorted((mces_floor(gt.mol, mol), rank, smiles) for rank, smiles, mol in later):
            if floor >= mces_topk:
                break
            result = pair_mces(record.ground_truth, smiles, mces_budget)
            truncated = truncated or not result.optimal
            mces_topk = min(mces_topk, result.dissimilarity)

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


@dataclass(frozen=True)
class Rate:
    """One reported rate: the mean of a ``PerSpectrumMetrics`` field over a
    set of records, as a percentage when its key ends in ``_pct``."""

    key: str  # aggregate.json key, and per_bin.csv column
    field: str  # the PerSpectrumMetrics field it averages
    label: str  # aggregate.csv label; {k} is the top-k cutoff
    empty: float = 0.0  # its value over no records
    answered: bool = True  # repeated over answered records only
    per_bin: bool = False  # reported per weight bin

    @property
    def percent(self) -> bool:
        return self.key.endswith("_pct")

    def over(self, metrics: Sequence[PerSpectrumMetrics]) -> float:
        n = len(metrics)
        if not n:
            return self.empty
        total = sum(map(attrgetter(self.field), metrics))
        return 100.0 * total / n if self.percent else total / n


# Every reported rate, in aggregate.csv row and per_bin.csv column order.
RATES = (
    Rate("think_rate_pct", "has_think", "Think Rate (%)", answered=False),
    Rate("answer_rate_pct", "has_answer", "Answer Rate (%)", answered=False),
    Rate("smiles_validity_pct", "validity_top1", "SMILES Validity (%)"),
    Rate("dbe_accuracy_pct", "dbe_correct_top1", "DBE Accuracy (%)"),
    Rate("formula_consistency_pct", "formula_consistent_any", "Formula Consistency (%)"),
    Rate("exact_top1_pct", "exact_top1", "Accuracy Top-1 (%)", per_bin=True),
    Rate("exact_topk_pct", "exact_topk", "Accuracy Top-{k} (%)", per_bin=True),
    Rate("mts_top1_mean", "mts_top1", "Tanimoto Top-1", per_bin=True),
    Rate("mts_topk_mean", "mts_topk", "Tanimoto Top-{k}", per_bin=True),
    Rate("mces_top1_mean", "mces_top1", "MCES Top-1", empty=1.0, per_bin=True),
    Rate("mces_topk_mean", "mces_topk", "MCES Top-{k}", empty=1.0, per_bin=True),
    Rate("mces_truncated_pct", "mces_truncated", "MCES truncated (%)", answered=False),
)


def _pct(flags: Iterable[bool], n: int) -> float:
    """Percentage of true ``flags`` among ``n``; 0.0 when ``n`` is 0."""
    return 100.0 * sum(flags) / n if n else 0.0


def aggregate(
    metrics: Sequence[PerSpectrumMetrics],
    audits: Sequence[CotAudit] = (),
    k: int = 10,
) -> dict:
    """Fold per-spectrum metrics into the benchmark report, the object
    written as aggregate.json.

    Every rate uses the full record count as denominator; the ``answered``
    section repeats those marked ``answered`` over answered records only,
    since either convention is defensible.
    """
    if not metrics:
        raise EmptyInput("no per-spectrum metrics to aggregate")
    answered = [m for m in metrics if m.has_answer]

    with_think = [a for a in audits if a.word_count > 0]
    n_audits = len(audits)
    cot = {
        "n_think": len(with_think),
        "mean_cot_words": sum(a.word_count for a in with_think) / len(with_think) if with_think else 0.0,
        "n_dbe_claims": sum(a.dbe_claim_correct is not None for a in audits),
        "dbe_claim_correct_pct": _pct((bool(a.dbe_claim_correct) for a in audits), n_audits),
        "n_formula_claims": sum(a.formula_claim_correct is not None for a in audits),
        "formula_claim_correct_pct": _pct((bool(a.formula_claim_correct) for a in audits), n_audits),
        "contradiction_pct": _pct((a.contradiction for a in audits), n_audits),
    }

    bins = []
    for label in WEIGHT_BIN_LABELS:
        in_bin = [m for m in metrics if m.bin == label]
        bins.append({"bin": label, "count": len(in_bin), **{r.key: r.over(in_bin) for r in RATES if r.per_bin}})

    return {
        "k": k,
        "n_records": len(metrics),
        "n_answered": len(answered),
        **{r.key: r.over(metrics) for r in RATES},
        "answered": {"n": len(answered), **{r.key: r.over(answered) for r in RATES if r.answered}},
        "cot": cot,
        "bins": bins,
    }


def table_rows(report: Mapping) -> list[tuple[str, str]]:
    """The aggregate.csv rows of ``aggregate``'s report, also the ``report``
    table: the record counts, then every rate, percentages to 2 decimals and
    means to 4."""
    rows = [("Records", str(report["n_records"])), ("Answered records", str(report["n_answered"]))]
    for r in RATES:
        rows.append((r.label.format(k=report["k"]), f"{report[r.key]:.{2 if r.percent else 4}f}"))
    return rows


def evaluate_one(
    record: SpectrumRecord,
    transcript: str,
    k: int = 10,
    *,
    mces_budget: int = DEFAULT_MCES_BUDGET,
) -> tuple[PerSpectrumMetrics, CotAudit]:
    parsed = parse_response(transcript)
    metrics = score_spectrum(record, parsed, k, mces_budget=mces_budget)
    return metrics, audit_cot(parsed, record)


def _evaluate_task(args) -> tuple[PerSpectrumMetrics, CotAudit]:
    record, transcript, k, mces_budget = args
    return evaluate_one(record, transcript, k, mces_budget=mces_budget)


def evaluate_records(
    records: Sequence[SpectrumRecord],
    transcripts: Mapping[str, str],
    k: int = 10,
    *,
    mces_budget: int = DEFAULT_MCES_BUDGET,
    workers: int = 1,
) -> tuple[list[PerSpectrumMetrics], list[CotAudit]]:
    """Score every record against its transcript (missing means empty)."""
    check_k(k)
    check_budget(mces_budget)
    tasks = [(record, transcripts.get(record.id, ""), k, mces_budget) for record in records]
    workers = min(workers, len(tasks))  # fork starts every worker up front
    if workers <= 1:
        results = [_evaluate_task(t) for t in tasks]
    else:
        context = multiprocessing.get_context()
        placement = {}
        if hasattr(os, "sched_setaffinity"):
            allowed = sorted(os.sched_getaffinity(0))
            cpus = context.SimpleQueue()
            for slot in range(workers):
                cpus.put(allowed[slot % len(allowed)])
            placement = {"initializer": _pin_to_cpu, "initargs": (cpus,)}
        with ProcessPoolExecutor(max_workers=workers, mp_context=context, **placement) as pool:
            results = list(pool.map(_evaluate_task, tasks, chunksize=8))
    return [m for m, _ in results], [a for _, a in results]


def usable_cpu_count() -> int:
    """The CPUs this process may run on: the default ``evaluate`` worker count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _pin_to_cpu(cpus) -> None:
    """Pool initializer: keep this worker on the next CPU from ``cpus``."""
    cpu = cpus.get()
    try:
        os.sched_setaffinity(0, {cpu})
    except OSError:
        pass  # placement only affects speed; the worker runs unpinned


def _cell(value) -> object:
    """A bool as 0/1 and a formula as its Hill string; csv writes None as an empty cell."""
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, dict):
        return canonical_formula(value)
    return value


def _write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _dataclass_table(row_type: type, rows: Sequence) -> tuple[list[str], Iterable[list]]:
    """``row_type``'s field names, and one row of cells per instance."""
    columns = [f.name for f in fields(row_type)]
    return columns, ([_cell(getattr(row, name)) for name in columns] for row in rows)


def write_reports(
    out_dir: str | Path,
    metrics: Sequence[PerSpectrumMetrics],
    audits: Sequence[CotAudit],
    report: Mapping,
) -> None:
    """Write the per-spectrum, aggregate, per-bin and audit files.

    Output is deterministic: same inputs, byte-identical files.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "per_spectrum.csv", *_dataclass_table(PerSpectrumMetrics, metrics))
    _write_csv(out / "aggregate.csv", ("metric", "value"), table_rows(report))
    with open(out / "aggregate.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    bins = report["bins"]
    _write_csv(out / "per_bin.csv", list(bins[0]), (row.values() for row in bins))
    _write_csv(out / "cot_audit.csv", *_dataclass_table(CotAudit, audits))
