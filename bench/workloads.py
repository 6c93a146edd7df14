"""Seeded inputs for the three workloads and the reference scorer that
predicts every ``per_spectrum.csv`` row from committed reference tables.

The molecules come from fixed universes (``data/small_universe.tsv``, a
selection from the bundled corpus, and ``data/large_library.tsv``, built by
``largegen``); the seed chooses the candidate lists, the think-block claims,
the peaks and the transport's failure plan.  ``data/pairs.tsv`` holds the Tanimoto and MCES values of every
(ground truth, candidate) pair a seed can produce, computed once at the
commit that added the benchmark by ``build_reference.py``.
"""

from __future__ import annotations

import csv
import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"

WORKLOADS = ("score_small", "score_large", "run_mixed")
K = 10
MCES_BUDGET = 1.0

# Strings the kernel must reject (unclosed ring, open branch, stray paren,
# 5-membered all-carbon aromatic ring, pentavalent carbon, unknown element).
INVALID_SMILES = ("C1CC", "CC(C", "CC)C", "c1cccc1", "CC(C)(C)(C)(C)C", "CQC")

SMALL_REPEATS = 4  # score_small spectra per ground truth (48 ground truths)
MIXED_REPEATS = 3  # run_mixed prompts per ground truth
MIN_REQUESTS = 100  # a pass repeats `run` until it has timed this many prompts
MIXED_PREWARM_SHARE = 0.4  # kept off 0.5 so the latency median sits in one mode
RUN_PARALLELISM = 2  # `ms2smiles run --parallelism` on every workload
TRANSPORT_LATENCY_S = 0.015
RETRY_BASE_DELAY_S = 0.01
MAX_RETRIES = 3

BIN_KEYS = {
    "[0,200)": "bin0_200",
    "[200,400)": "bin200_400",
    "[400,600)": "bin400_600",
    "[600,800)": "bin600_800",
    "[800,inf)": "bin800_inf",
}


@dataclass(frozen=True)
class MolInfo:
    formula: str
    dbe: str  # repr of the float, as the reports would print it
    bin: str


@dataclass(frozen=True)
class PairInfo:
    tanimoto: str
    mces: str
    optimal: bool


def _read_tsv(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh, delimiter="\t"))


def load_molecules() -> dict[str, MolInfo]:
    return {r["smiles"]: MolInfo(r["formula"], r["dbe"], r["bin"]) for r in _read_tsv(DATA / "molecules.tsv")}


def load_pairs() -> dict[tuple[str, str], PairInfo]:
    return {
        (r["ground_truth"], r["candidate"]): PairInfo(r["tanimoto"], r["mces"], r["optimal"] == "1")
        for r in _read_tsv(DATA / "pairs.tsv")
    }


def load_small_universe() -> tuple[list[str], list[str]]:
    rows = _read_tsv(DATA / "small_universe.tsv")
    return [r["smiles"] for r in rows if r["role"] == "ground_truth"], [r["smiles"] for r in rows if r["role"] == "pool"]


def load_large_library() -> list[dict[str, str]]:
    """One row per slot: ground truth, candidate and their relation."""
    return sorted(_read_tsv(DATA / "large_library.tsv"), key=lambda r: int(r["slot"]))


# ---------------------------------------------------------------- records


@dataclass
class Record:
    id: str
    ground_truth: str
    candidates: list[str]
    transcript: str
    answered: bool = True


def _peaks(rng: random.Random) -> tuple[str, str]:
    n = rng.randint(5, 30)
    mzs = sorted(round(rng.uniform(40.0, 900.0), 4) for _ in range(n))
    intensities = [round(rng.uniform(0.01, 1.0), 3) for _ in range(n)]
    intensities[rng.randrange(n)] = 1.0
    return " ".join(map(str, mzs)), " ".join(map(str, intensities))


def _transcript(rng: random.Random, info: MolInfo, candidates: list[str], answer: bool) -> str:
    """Think block with formula and DBE claims (right or wrong) plus an answer."""
    formula = info.formula if rng.random() < 0.7 else info.formula + "O"
    dbe = float(info.dbe) if rng.random() < 0.7 else float(info.dbe) + 1.0
    filler = " ".join(rng.choice(("peak", "loss", "fragment", "ring", "amide", "ester", "ion")) for _ in range(rng.randint(20, 120)))
    think = (
        "<think>\n1. Formula and DBE Analysis:\n"
        f"* Formula: {formula}\n"
        f"* Double Bond Equivalents (DBE) = {dbe:g}\n"
        f"2. Fragments: {filler}\n</think>\n"
    )
    if not answer:
        return think
    return think + "<answer>\nFinal 10 SMILES Proposals: " + ",".join(candidates) + "\n</answer>\n"


def _chosen(rng: random.Random, n: int, share: float) -> set[int]:
    """Exactly ``round(share * n)`` of ``range(n)``, seeded."""
    return set(rng.sample(range(n), round(share * n)))


def small_records(seed: int, repeats: int, prefix: str) -> list[Record]:
    """Every universe ground truth ``repeats`` times, 10 candidates each from
    the shared pool.  Exact shares (seeded positions) keep the work equal
    across seeds: 20% of lists hold a duplicate, every list one invalid
    SMILES, 30% a ground-truth hit, and 4% of transcripts have no answer."""
    ground_truths, pool = load_small_universe()
    molecules = load_molecules()
    rng = random.Random(f"{prefix}:{seed}")
    n = len(ground_truths) * repeats
    duplicate, hit, unanswered = (_chosen(rng, n, share) for share in (0.2, 0.3, 0.04))
    records = []
    for i in range(n):
        gt = ground_truths[i % len(ground_truths)]
        candidates = rng.sample(pool, K)
        if i in duplicate:
            candidates[rng.randrange(K)] = candidates[rng.randrange(K)]
        candidates[rng.randrange(K)] = rng.choice(INVALID_SMILES)
        if i in hit:
            candidates[rng.randrange(K)] = gt
        answer = i not in unanswered
        transcript = _transcript(rng, molecules[gt], candidates, answer)
        records.append(Record(f"{prefix}{seed}-{i:04d}", gt, candidates, transcript, answer))
    rng.shuffle(records)
    return records


def large_records(seed: int) -> list[Record]:
    """One record per library slot, in slot order; every molecule
    distinct.  The seed sets ids, claims and peaks, not the molecules: the
    MCES cost of same-bin molecules varies so much that drawing them per
    seed would swamp every bound."""
    molecules = load_molecules()
    rng = random.Random(f"large:{seed}")
    records = []
    for row in load_large_library():
        gt, candidates = row["ground_truth"], [row["candidate"]]
        transcript = _transcript(rng, molecules[gt], candidates, True)
        records.append(Record(f"large{seed}-{int(row['slot']):02d}", gt, candidates, transcript))
    return records


def records_for(workload: str, seed: int) -> list[Record]:
    if workload == "score_small":
        return small_records(seed, SMALL_REPEATS, "small")
    if workload == "score_large":
        return large_records(seed)
    if workload == "run_mixed":
        return small_records(seed, MIXED_REPEATS, "mixed")
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------- transport plan


def failure_plan(seed: int, record_ids: list[str]) -> dict[str, int]:
    """Planned failed attempts per prompt, before the first success.

    Exact shares (1 prompt exhausts its retries, 5% fail twice, 14% once)
    keep the retry load equal across seeds; which prompts get them follows
    a seeded hash of the record id, so it does not depend on thread timing.
    """
    ranked = sorted(record_ids, key=lambda rid: hashlib.blake2b(f"{seed}:{rid}".encode(), digest_size=8).digest())
    n_two, n_one = round(0.05 * len(ranked)), round(0.14 * len(ranked))
    plan = {rid: 0 for rid in ranked}
    plan[ranked[0]] = MAX_RETRIES + 1
    for rid in ranked[1 : 1 + n_two]:
        plan[rid] = 2
    for rid in ranked[1 + n_two : 1 + n_two + n_one]:
        plan[rid] = 1
    return plan


def planned_status(seed: int, record_id: str, attempt: int, failures: int) -> int:
    """HTTP status of attempt ``attempt`` (1-based) of a prompt planned to
    fail ``failures`` times: 429 or 503 by a hash of (seed, record_id,
    attempt), then 200."""
    if attempt > failures:
        return 200
    digest = hashlib.blake2b(f"{seed}:{record_id}:{attempt}".encode(), digest_size=1).digest()
    return 429 if digest[0] % 2 == 0 else 503


def prewarmed_ids(seed: int, records: list[Record], plan: dict[str, int]) -> set[str]:
    """``MIXED_PREWARM_SHARE`` of the prompts, in a seeded order, chosen
    among prompts whose fetch succeeds at the first attempt."""
    rng = random.Random(f"prewarm:{seed}")
    eligible = [r.id for r in records if plan[r.id] == 0]
    rng.shuffle(eligible)
    return set(eligible[: round(MIXED_PREWARM_SHARE * len(records))])


# ------------------------------------------------------- input files


def write_inputs(workload: str, seed: int, records: list[Record], out: Path) -> dict:
    """Write dataset, transcripts and the spec the iteration process reads."""
    molecules = load_molecules()
    rng = random.Random(f"peaks:{workload}:{seed}")
    (out / "transcripts").mkdir(parents=True, exist_ok=True)
    columns = ("id", "mzs", "intensities", "smiles", "precursor_formula", "adduct", "instrument_type", "collision_energy", "fold")
    plan = failure_plan(seed, [r.id for r in records]) if workload == "run_mixed" else {}
    prewarm = prewarmed_ids(seed, records, plan) if workload == "run_mixed" else set()
    with open(out / "dataset.tsv", "w", encoding="utf-8") as full, open(out / "prewarm.tsv", "w", encoding="utf-8") as warm:
        for fh in (full, warm):
            fh.write("\t".join(columns) + "\n")
        for record in records:
            mzs, intensities = _peaks(rng)
            ce = rng.choice(("20.0", "35.0", "", "50.0"))
            line = "\t".join((record.id, mzs, intensities, record.ground_truth, molecules[record.ground_truth].formula, "[M+H]+", "Orbitrap", ce, "test")) + "\n"
            full.write(line)
            if record.id in prewarm:
                warm.write(line)
            (out / "transcripts" / f"{record.id}.txt").write_text(record.transcript, encoding="utf-8")
    spec = {
        "workload": workload,
        "seed": seed,
        "n_records": len(records),
        "workers": 2 if workload == "score_large" else 1,
        "bins": {r.id: BIN_KEYS[molecules[r.ground_truth].bin] for r in records},
        "prewarm": sorted(prewarm),
        "plan": plan,
    }
    (out / "spec.json").write_text(json.dumps(spec, indent=1), encoding="utf-8")
    return spec


def repeated_share(records: list[Record]) -> float:
    """Share of SMILES occurrences (ground truths and candidates) that repeat
    one seen earlier in the same dataset."""
    seen: set[str] = set()
    total = repeats = 0
    for record in records:
        for smiles in [record.ground_truth, *record.candidates]:
            total += 1
            repeats += smiles in seen
            seen.add(smiles)
    return repeats / total


# ------------------------------------------------------ reference scorer


PER_SPECTRUM_FIELDS = (
    "record_id", "bin", "has_think", "has_answer", "n_candidates", "n_valid", "validity_top1",
    "formula_consistent_any", "dbe_correct_top1", "exact_top1", "exact_topk", "mts_top1",
    "mts_topk", "mces_top1", "mces_topk", "mces_truncated",
)


def expected_row(record: Record, delivered: bool, molecules, pairs) -> tuple[list[str], bool] | None:
    """The ``per_spectrum.csv`` row the scoring rules give for ``record``,
    and whether any MCES value in it was a truncated bound at reference time.
    ``delivered`` is false when the record's transcript never reached the
    run directory.  ``None`` when a needed pair is missing from the table."""
    gt = molecules[record.ground_truth]
    answered = delivered and record.answered
    candidates = record.candidates if answered else []
    valid = [c if c in molecules else None for c in candidates]
    first = next((c for c in valid if c is not None), None)
    formula_ok = first is not None and molecules[first].formula == gt.formula
    dbe_ok = first is not None and float(molecules[first].dbe) == float(gt.dbe)
    exact_top1 = exact_topk = False
    mts_top1, mts_topk, mces_top1, mces_topk = "0.0", "0.0", "1.0", "1.0"
    bound = False
    for rank, cand in enumerate(valid[:K]):
        if cand is None:
            continue
        pair = pairs.get((record.ground_truth, cand))
        if pair is None:
            return None
        exact = cand == record.ground_truth
        if float(mces_topk) > 0.0:
            distance = pair.mces
            bound = bound or not pair.optimal
        else:
            distance = "1.0"
        if rank == 0:
            exact_top1, mts_top1, mces_top1 = exact, pair.tanimoto, distance
        exact_topk = exact_topk or exact
        mts_topk = max(mts_topk, pair.tanimoto, key=float)
        mces_topk = min(mces_topk, distance, key=float)
    row = [
        record.id, gt.bin, str(int(delivered)), str(int(answered)), str(len(candidates)),
        str(sum(v is not None for v in valid)), str(int(bool(valid) and valid[0] is not None)),
        str(int(formula_ok)), str(int(dbe_ok)), str(int(exact_top1)), str(int(exact_topk)),
        mts_top1, mts_topk, mces_top1, mces_topk, str(int(bound)),
    ]
    return row, bound
