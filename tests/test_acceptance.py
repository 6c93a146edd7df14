"""Acceptance suite: every release criterion, one test each, one PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

from __future__ import annotations

import json
import random
import time
from pathlib import Path

from ms2smiles.chem import (
    canonical_smiles,
    default_mass_table,
    dbe,
    mol_from_smiles,
    molecular_formula,
    molecules_equal,
    parse_formula,
    monoisotopic_mass,
)
from ms2smiles.cli import main
from ms2smiles.dataset import SpectrumRecord
from ms2smiles.evaluate import aggregate, evaluate_records, score_spectrum
from ms2smiles.protocol import ParsedResponse, parse_response
from ms2smiles.similarity import DEFAULT_MCES_BUDGET, mces

from conftest import DATA_DIR, load_corpus
from oracles import brute_force_mces

FIXTURE = str(DATA_DIR / "fixture.tsv")
TRANSCRIPTS = str(DATA_DIR / "transcripts")

TABLE4_MEDIUM = [
    "NCC(C1=CC=C(O)C=C1)C(=O)O",
    "OC1=CC=CC(C(C(=O)O)N)=C1",
    "NCC(C2=CC=CC(O)=C2)C(=O)O",
    "CC1=CC=C(O)C=C1C(=O)N",
    "OC1=CC=CC=C1CC(N)C(=O)O",
    "NC(Cc1ccc(O)cc1)C(=O)O",
    "NCC(C3=CC(O)=CC=C3)C(=O)O",
    "NCC(C4=CC=CC=C4O)C(=O)O",
    "O=C(O)C(N)Cc1ccc(O)cc1",
    "O=C(O)C(N)Cc1ccccc1O",
]


def _passes(name: str) -> None:
    print(f"ACCEPTANCE {name}: PASS")


def test_criterion_01_dbe_worked_example():
    assert dbe(parse_formula("C4H11N")) == 0
    _passes("1 (DBE of C4H11N = 0)")


def test_criterion_02_mass_worked_example():
    mass = monoisotopic_mass(parse_formula("C4H11N"))
    assert abs(mass - 73.089) <= 0.001
    protonated = mass + default_mass_table().proton_mass
    assert abs(protonated - 74.0965) <= 0.001
    _passes("2 (monoisotopic mass 73.089 / [M+H]+ 74.0965)")


def test_criterion_03_canonical_equality_goldens():
    canon = [canonical_smiles(mol_from_smiles(s)) for s in TABLE4_MEDIUM]
    assert canon[5] == canon[8], "candidates 6 and 9 must canonicalize identically"
    assert canon[4] == canon[9], "candidates 5 and 10 must canonicalize identically"
    assert canon[5] != canon[4], "the two pairs are different structures"
    _passes("3 (canonical equality of the candidate pairs)")


def test_criterion_04_topk_semantics_golden():
    record = SpectrumRecord(
        id="medium",
        mzs=(182.0812,),
        intensities=(1.0,),
        formula=parse_formula("C9H11NO3"),
        adduct="[M+H]+",
        instrument="Orbitrap",
        collision_energy=35.0,
        ground_truth=TABLE4_MEDIUM[5],
        split="test",
    )
    parsed = ParsedResponse(raw="")
    parsed.candidates = list(TABLE4_MEDIUM)
    parsed.has_answer = True
    metrics = score_spectrum(record, parsed, k=10)
    assert metrics.exact_top1 is False
    assert metrics.exact_topk is True
    assert metrics.mts_topk == 1.0
    assert metrics.mces_topk == 0.0
    _passes("4 (top-1 miss / top-10 hit with Tanimoto 1.0 and MCES 0.0)")


def test_criterion_05_mces_oracle_equivalence():
    corpus = load_corpus()
    small = [s for s in corpus if mol_from_smiles(s).n_atoms <= 8]
    assert len(small) >= 30
    rng = random.Random(20250808)
    pairs = [(rng.choice(small), rng.choice(small)) for _ in range(200)]
    for left, right in pairs:
        a, b = mol_from_smiles(left), mol_from_smiles(right)
        result = mces(a, b, budget=10**6)
        assert result.optimal, (left, right)
        expected = brute_force_mces(a, b)
        assert result.common_edges == expected, (left, right, result.common_edges, expected)
    _passes("5 (MCES equals brute force on 200 small pairs)")


def test_criterion_06_round_trip_canonicalization():
    corpus = load_corpus()
    assert len(corpus) >= 1000
    for smiles in corpus:
        mol = mol_from_smiles(smiles)
        back = mol_from_smiles(canonical_smiles(mol))
        assert molecules_equal(mol, back), smiles
        assert molecular_formula(mol) == molecular_formula(back), smiles
    _passes(f"6 (round-trip + formula conservation on {len(corpus)} molecules)")


def test_criterion_07_protocol_golden():
    raw = (DATA_DIR / "transcripts" / "amine-001.txt").read_text(encoding="utf-8")
    parsed = parse_response(raw)
    assert len(parsed.candidates) == 10
    assert parsed.candidates[0] == "CC(C)(C)N"

    from ms2smiles.evaluate import audit_cot
    from ms2smiles.dataset import load_dataset

    record = load_dataset(FIXTURE).records[0]
    audit = audit_cot(parsed, record)
    assert audit.stated_dbe == 0.0
    assert audit.formula_claim_correct is True
    assert audit.contradiction is False
    _passes("7 (transcript parse + CoT audit of the worked example)")


def test_criterion_08_offline_end_to_end(tmp_path):
    golden = json.loads((DATA_DIR / "golden_aggregate.json").read_text(encoding="utf-8"))

    def run(run_dir: Path) -> dict[str, bytes]:
        args = ["--dataset", FIXTURE, "--run-dir", str(run_dir), "--split", "test"]
        assert main(["run", *args, "--provider", f"mock:{TRANSCRIPTS}"]) == 0
        assert main(["evaluate", *args, "--workers", "1"]) == 0
        reports = run_dir / "reports"
        return {p.name: p.read_bytes() for p in sorted(reports.iterdir())}

    first = run(tmp_path / "one")
    data = json.loads(first["aggregate.json"].decode("utf-8"))

    # Hand-computed expectations over the three fixture records:
    # amine-001: think+answer, cand 1 == ground truth  -> everything perfect
    # benzene-002: think only                          -> all defaults
    # ethanol-003: cand 1 invalid, cand 2 == truth     -> top-1 miss, top-10 hit
    assert data["n_records"] == 3
    assert data["think_rate_pct"] == 100.0
    assert data["answer_rate_pct"] == 100.0 * 2 / 3
    assert data["smiles_validity_pct"] == 100.0 * 1 / 3
    assert data["dbe_accuracy_pct"] == 100.0 * 2 / 3
    assert data["formula_consistency_pct"] == 100.0 * 2 / 3
    assert data["exact_top1_pct"] == 100.0 * 1 / 3
    assert data["exact_topk_pct"] == 100.0 * 2 / 3
    assert data["mts_top1_mean"] == (1.0 + 0.0 + 0.0) / 3
    assert data["mts_topk_mean"] == (1.0 + 0.0 + 1.0) / 3
    assert data["mces_top1_mean"] == (0.0 + 1.0 + 1.0) / 3
    assert data["mces_topk_mean"] == (0.0 + 1.0 + 0.0) / 3
    assert data["mces_truncated_pct"] == 0.0
    assert data["cot"]["contradiction_pct"] == 0.0
    assert data["cot"]["dbe_claim_correct_pct"] == 100.0 * 2 / 3
    assert data["cot"]["formula_claim_correct_pct"] == 100.0 * 2 / 3
    assert data["cot"]["mean_cot_words"] == (486 + 42 + 58) / 3
    assert data == golden

    second = run(tmp_path / "two")
    assert first == second, "rerunning the pipeline must be byte-identical"
    _passes("8 (offline end-to-end matches the golden aggregate, byte-stable)")


def test_criterion_09_metric_monotonicity_properties():
    corpus = load_corpus()
    pool = [s for s in corpus if mol_from_smiles(s).n_atoms <= 6]
    assert len(pool) >= 20
    rng = random.Random(99)
    records = {
        smiles: SpectrumRecord(
            id=f"gt-{i}",
            mzs=(100.0,),
            intensities=(1.0,),
            formula=molecular_formula(mol_from_smiles(smiles)),
            adduct="[M+H]+",
            instrument="sim",
            collision_energy=None,
            ground_truth=smiles,
            split="test",
        )
        for i, smiles in enumerate(pool)
    }
    cases = 0
    for _ in range(1000):
        gt = rng.choice(pool)
        n = rng.randint(0, 8)
        candidates = [rng.choice(pool + ["C1CC", "not_smiles"]) for _ in range(n)]
        parsed = ParsedResponse(raw="")
        parsed.candidates = candidates
        parsed.has_answer = bool(candidates)
        per_k = [score_spectrum(records[gt], parsed, k=k, mces_budget=32768) for k in (1, 2, 3, 5, 8, 10, 12, 16, 24, 32)]
        for earlier, later in zip(per_k, per_k[1:]):
            assert later.mts_topk >= earlier.mts_topk
            assert later.mces_topk <= earlier.mces_topk
            assert later.exact_topk >= earlier.exact_topk
        for m in per_k:
            if m.exact_topk:
                assert m.mts_topk == 1.0
                if not m.mces_truncated:
                    assert m.mces_topk == 0.0
            cases += 1
    assert cases >= 10_000
    _passes(f"9 (monotonicity and dominance over {cases} cases)")


def test_criterion_10_throughput():
    corpus = load_corpus()
    mols = {}
    usable = []
    for smiles in corpus:
        mol = mol_from_smiles(smiles)
        if mol.n_bonds >= 1:
            mols[smiles] = mol
            usable.append(smiles)
    rng = random.Random(1234)
    records = []
    transcripts = {}
    for i in range(1000):
        gt = usable[i % len(usable)]
        rid = f"tp-{i}"
        records.append(
            SpectrumRecord(
                id=rid,
                mzs=(100.0, 200.0),
                intensities=(0.5, 1.0),
                formula=molecular_formula(mols[gt]),
                adduct="[M+H]+",
                instrument="sim",
                collision_energy=20.0,
                ground_truth=gt,
                split="test",
            )
        )
        candidates = [rng.choice(usable) for _ in range(10)]
        transcripts[rid] = (
            "<think>synthetic throughput case</think>\n"
            "<answer>SMILES: " + ",".join(candidates) + "</answer>"
        )

    start = time.monotonic()
    metrics, audits = evaluate_records(records, transcripts, k=10, mces_budget=DEFAULT_MCES_BUDGET, workers=4)
    elapsed = time.monotonic() - start
    report = aggregate(metrics, audits, k=10)
    assert len(metrics) == 1000
    assert elapsed < 1800, f"evaluation took {elapsed:.0f}s"
    _passes(
        f"10 (1000 spectra x 10 candidates in {elapsed:.0f}s, "
        f"truncated MCES fraction {report['mces_truncated_pct']:.2f}%)"
    )
