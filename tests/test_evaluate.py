from __future__ import annotations

import csv
import random
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import ms2smiles.chem.canon as canon_module
import ms2smiles.dataset as dataset_module
from ms2smiles.chem import ChemError, canonical_formula, canonical_smiles, mol_from_smiles, molecular_formula, write_smiles
from ms2smiles.cli import main
from ms2smiles.dataset import SpectrumRecord
import ms2smiles.evaluate as evaluate_module
from ms2smiles.evaluate import (
    EmptyInput,
    aggregate,
    audit_cot,
    evaluate_one,
    evaluate_records,
    fingerprint,
    pair_mces,
    prepare,
    score_spectrum,
    write_reports,
)
from ms2smiles.protocol import ParsedResponse, parse_response
from ms2smiles.similarity import mces, mces_floor, morgan_fingerprint


BENCH_DATA = Path(__file__).resolve().parents[1] / "bench" / "data"


def make_record(smiles="CC(C)(C)N", formula=None, rid="r1"):
    from ms2smiles.chem import mol_from_smiles, molecular_formula

    counts = formula or molecular_formula(mol_from_smiles(smiles))
    return SpectrumRecord(
        id=rid,
        mzs=(50.0, 74.0),
        intensities=(0.5, 1.0),
        formula=counts,
        adduct="[M+H]+",
        instrument="Orbitrap",
        collision_energy=35.0,
        ground_truth=smiles,
        split="test",
    )


def response(candidates, think=None):
    parsed = ParsedResponse(raw="")
    parsed.candidates = list(candidates)
    parsed.has_answer = bool(candidates)
    if think is not None:
        parsed.think_text = think
        parsed.has_think = True
    return parsed


def test_identity_candidate_scores_perfectly():
    metrics = score_spectrum(make_record(), response(["CC(C)(C)N"]))
    assert metrics.exact_top1 and metrics.exact_topk
    assert metrics.mts_top1 == 1.0 and metrics.mts_topk == 1.0
    assert metrics.mces_top1 == 0.0 and metrics.mces_topk == 0.0
    assert metrics.validity_top1
    assert metrics.formula_consistent_any
    assert metrics.dbe_correct_top1
    assert metrics.bin == "[0,200)"


def test_zero_candidates_scores_defaults():
    metrics = score_spectrum(make_record(), response([]))
    assert not metrics.validity_top1
    assert not metrics.exact_topk
    assert not metrics.formula_consistent_any
    assert not metrics.dbe_correct_top1
    assert metrics.mts_topk == 0.0
    assert metrics.mces_topk == 1.0
    assert metrics.n_valid == 0


def test_invalid_top1_then_exact_match():
    metrics = score_spectrum(make_record("OCC"), response(["C1CC", "CCO"]))
    assert not metrics.validity_top1
    assert metrics.n_candidates == 2 and metrics.n_valid == 1
    assert not metrics.exact_top1
    assert metrics.exact_topk
    assert metrics.mts_top1 == 0.0 and metrics.mts_topk == 1.0
    assert metrics.mces_top1 == 1.0 and metrics.mces_topk == 0.0
    # chemistry checks use the first valid candidate
    assert metrics.formula_consistent_any
    assert metrics.dbe_correct_top1


def test_table4_medium_case():
    candidates = [
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
    record = make_record("NC(Cc1ccc(O)cc1)C(=O)O")
    metrics = score_spectrum(record, response(candidates), k=10)
    assert not metrics.exact_top1
    assert metrics.exact_topk
    assert metrics.mts_topk == 1.0
    assert metrics.mces_topk == 0.0
    assert metrics.n_valid == 10


def test_monotone_in_k():
    candidates = ["CCC", "CCO", "OCC", "CCN"]
    record = make_record("OCC")
    previous_mts, previous_mces, previous_exact = -1.0, 2.0, False
    for k in range(1, 6):
        m = score_spectrum(record, response(candidates), k=k)
        assert m.mts_topk >= previous_mts
        assert m.mces_topk <= previous_mces
        assert m.exact_topk >= previous_exact
        previous_mts, previous_mces, previous_exact = m.mts_topk, m.mces_topk, m.exact_topk


@pytest.mark.parametrize("k", [0, -1])
def test_k_below_one_is_rejected(k):
    record = make_record("CCO")
    with pytest.raises(ValueError, match="k must be at least 1"):
        score_spectrum(record, response(["CCO", "CCC"]), k=k)
    with pytest.raises(ValueError, match="k must be at least 1"):
        evaluate_records([record], {record.id: "<answer>CCO</answer>"}, k=k)


def _mces_searching_every_candidate(truth, candidates, k, budget):
    """(top-1, top-k, truncated, searches) with a search for every valid candidate in the top k."""
    gt = mol_from_smiles(truth)
    top1, topk, truncated, searches = 1.0, 1.0, False, 0
    for rank, smiles in enumerate(candidates[:k]):
        try:
            cand = mol_from_smiles(smiles)
        except ChemError:
            continue
        result = mces(gt, cand, budget=budget)
        searches += 1
        truncated = truncated or not result.optimal
        topk = min(topk, result.dissimilarity)
        if rank == 0:
            top1 = result.dissimilarity
    return top1, topk, truncated, searches


def test_screening_matches_searching_every_candidate(corpus, monkeypatch):
    # Searches are counted below the pair memo, so start from empty memos.
    pair_mces.cache_clear()
    prepare.cache_clear()
    searched = []
    search = evaluate_module.mces

    def counted(*args, **kwargs):
        searched.append(args)
        return search(*args, **kwargs)

    monkeypatch.setattr(evaluate_module, "mces", counted)
    rng = random.Random(23)
    pool = rng.sample(corpus, 30)
    invalid = ["C1CC", "C(C", "c1cc"]
    reference_searches = 0
    for i in range(60):
        truth = rng.choice(pool)
        candidates = [rng.choice(pool) for _ in range(rng.randint(0, 8))]
        candidates += [rng.choice(invalid) for _ in range(rng.randint(0, 2))]
        candidates += rng.sample(candidates, min(len(candidates), rng.randint(0, 3)))
        rng.shuffle(candidates)
        k = rng.choice((1, 3, 10))
        got = score_spectrum(make_record(truth, rid=f"s{i}"), response(candidates), k, mces_budget=10**6)
        top1, topk, truncated, searches = _mces_searching_every_candidate(truth, candidates, k, 10**6)
        reference_searches += searches
        assert (got.mces_top1, got.mces_topk) == (top1, topk)
        assert truncated or not got.mces_truncated
    assert 0 < len(searched) < reference_searches


def test_duplicates_do_not_distort():
    record = make_record("OCC")
    single = score_spectrum(record, response(["CCO"]))
    doubled = score_spectrum(record, response(["CCO", "CCO"]))
    assert single.exact_topk == doubled.exact_topk
    assert single.mts_topk == doubled.mts_topk
    assert doubled.n_valid == 2


def test_audit_appendix_example(data_dir):
    raw = (data_dir / "transcripts" / "amine-001.txt").read_text("utf-8")
    audit = audit_cot(parse_response(raw), make_record("CC(C)(C)N"))
    assert audit.stated_dbe == 0.0
    assert audit.stated_formula == {"C": 4, "H": 11, "N": 1}
    assert audit.dbe_claim_correct
    assert audit.formula_claim_correct
    assert not audit.contradiction
    assert audit.word_count == 486


def test_audit_without_claims():
    audit = audit_cot(response(["CCO"], think="just vibes, no numbers"), make_record("OCC"))
    assert audit.stated_dbe is None
    assert audit.stated_formula is None
    assert audit.dbe_claim_correct is None
    assert audit.formula_claim_correct is None
    assert not audit.contradiction


def test_audit_contradiction_with_own_candidate():
    think = "* Double Bond Equivalents (DBE): DBE = 3"
    audit = audit_cot(response(["CCCC"], think=think), make_record("CCCC"))
    assert audit.stated_dbe == 3.0
    assert audit.dbe_claim_correct is False
    assert audit.contradiction  # candidate CCCC has DBE 0


def test_audit_formula_contradiction():
    think = "* Formula: C6H12O6"
    audit = audit_cot(response(["CCO"], think=think), make_record("OCC", formula={"C": 6, "H": 12, "O": 6}))
    assert audit.formula_claim_correct  # matches the given precursor formula
    assert audit.contradiction  # but not the top-1 candidate


def test_audit_no_contradiction_without_valid_candidate():
    think = "* Double Bond Equivalents (DBE): DBE = 3"
    audit = audit_cot(response(["C1CC"], think=think), make_record("c1ccccc1"))
    assert audit.stated_dbe == 3.0
    assert not audit.contradiction


def test_cot_audit_csv_cells(tmp_path):
    think = "* Formula: C6H12O6\n* Double Bond Equivalents (DBE): DBE = 3"
    claimed, silent = response(["CCO"], think=think), response([])
    records = [make_record("OCC", formula={"C": 6, "H": 12, "O": 6}), make_record("CCC", rid="r2")]
    metrics = [score_spectrum(r, p) for r, p in zip(records, (claimed, silent))]
    audits = [audit_cot(p, r) for r, p in zip(records, (claimed, silent))]
    write_reports(tmp_path, metrics, audits, aggregate(metrics, audits))
    # A bool is 0/1, a formula its Hill string, and a missing claim an empty cell.
    assert (tmp_path / "cot_audit.csv").read_text(encoding="utf-8").splitlines() == [
        "record_id,word_count,stated_dbe,dbe_claim_correct,stated_formula,formula_claim_correct,contradiction",
        f"r1,{claimed.cot_word_count},3.0,0,C6H12O6,1,1",
        "r2,0,,,,,0",
    ]


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=300))
def test_audit_never_raises_on_garbage_think(text):
    parsed = ParsedResponse(raw="")
    parsed.think_text = text
    parsed.has_think = True
    audit_cot(parsed, make_record())


def test_aggregate_single_record():
    m = score_spectrum(make_record(), response(["CC(C)(C)N"]))
    report = aggregate([m], [], k=10)
    assert report.exact_topk_pct == 100.0
    assert report.n_records == 1


def test_aggregate_think_rate():
    a, _ = evaluate_one(make_record(rid="a"), "<think>x</think>")
    b, _ = evaluate_one(make_record(rid="b"), "no tags at all")
    report = aggregate([a, b], k=10)
    assert report.think_rate_pct == 50.0
    assert report.answer_rate_pct == 0.0


def test_aggregate_requires_input():
    with pytest.raises(EmptyInput):
        aggregate([], [], k=10)


def test_aggregate_table_rows_schema():
    m = score_spectrum(make_record(), response(["CC(C)(C)N"]))
    labels = [label for label, _ in aggregate([m], [], k=10).table_rows()]
    for expected in (
        "Think Rate (%)",
        "Answer Rate (%)",
        "SMILES Validity (%)",
        "DBE Accuracy (%)",
        "Formula Consistency (%)",
        "Accuracy Top-1 (%)",
        "Accuracy Top-10 (%)",
        "Tanimoto Top-1",
        "Tanimoto Top-10",
        "MCES Top-1",
        "MCES Top-10",
    ):
        assert expected in labels


def test_aggregation_linearity():
    rng = random.Random(2)
    pool = ["CC(C)(C)N", "CCO", "CCC", "c1ccccc1", "CCN", "CC(C)O"]
    metrics = []
    for i in range(12):
        gt = rng.choice(pool)
        cands = [rng.choice(pool) for _ in range(rng.randint(0, 4))]
        metrics.append(score_spectrum(make_record(gt, rid=f"r{i}"), response(cands), k=5))
    left, right = metrics[:5], metrics[5:]
    whole = aggregate(metrics, k=5)
    part_a = aggregate(left, k=5)
    part_b = aggregate(right, k=5)
    n_a, n_b = part_a.n_records, part_b.n_records
    for field in ("mts_topk_mean", "mces_topk_mean", "exact_topk_pct", "smiles_validity_pct"):
        merged = (getattr(part_a, field) * n_a + getattr(part_b, field) * n_b) / (n_a + n_b)
        assert getattr(whole, field) == pytest.approx(merged)


def test_bin_totals_sum_to_overall():
    metrics = [
        score_spectrum(make_record("CC(C)(C)N", rid="a"), response([])),
        score_spectrum(make_record("CCO", rid="b"), response([])),
    ]
    report = aggregate(metrics, k=10)
    assert sum(row["count"] for row in report.bins) == report.n_records


MEMO_TRANSCRIPT = (
    "<think>* Formula: C9H11NO3\n* Double Bond Equivalents (DBE) = 5</think>\n"
    "<answer>C1CC, NCC(C1=CC=C(O)C=C1)C(=O)O, O=C(O)C(N)Cc1ccc(O)cc1, CCO</answer>"
)


def test_cold_and_warm_memo_score_alike():
    record = make_record("NC(Cc1ccc(O)cc1)C(=O)O")
    prepare.cache_clear()
    fingerprint.cache_clear()
    cold = evaluate_one(record, MEMO_TRANSCRIPT)
    assert prepare.cache_info().misses > 0 and fingerprint.cache_info().misses > 0
    hits = prepare.cache_info().hits
    warm = evaluate_one(record, MEMO_TRANSCRIPT)
    assert prepare.cache_info().hits > hits
    assert warm == cold
    assert cold[0].exact_topk and cold[0].n_valid == 3
    assert cold[1].formula_claim_correct and cold[1].dbe_claim_correct


def test_pair_memo_searches_each_pair_once(monkeypatch):
    searched = []
    search = evaluate_module.mces

    def counted(a, b, budget):
        searched.append((canonical_smiles(a), canonical_smiles(b)))
        return search(a, b, budget=budget)

    truth, twice, other = "CCCCCCCCCc1ccc(O)cc1", "CC(C)(C)c1ccc(C(=O)c2ccc(C(C)(C)C)cc2)cc1", "CCCc1ccc(N)cc1"
    gt, dup = mol_from_smiles(truth), mol_from_smiles(twice)
    # The duplicate at rank 1 gets past the floor screen, so it reaches the memo.
    assert mces_floor(gt, dup) < mces(gt, dup).dissimilarity
    records = [make_record(truth, rid=rid) for rid in ("a", "b")]
    transcripts = {"a": f"<answer>{twice}, {twice}</answer>", "b": f"<answer>{twice}, {other}</answer>"}

    monkeypatch.setattr(evaluate_module, "mces", counted)
    pair_mces.cache_clear()
    memoized = evaluate_records(records, transcripts)
    # Without the memo (truth, twice) would be searched three times.
    assert searched.count((canonical_smiles(gt), canonical_smiles(dup))) == 1
    assert len(searched) == len(set(searched))

    fresh = []
    for record in records:
        pair_mces.cache_clear()
        fresh.append(evaluate_one(record, transcripts[record.id]))
    assert memoized == ([m for m, _ in fresh], [a for _, a in fresh])


def test_truncated_scores_do_not_depend_on_the_worker_count():
    # ``bench/data/large_library.tsv`` slots 7 and 9, the two decoys that
    # truncate at every budget tried; a small budget keeps this quick.
    with open(BENCH_DATA / "large_library.tsv", newline="", encoding="utf-8") as fh:
        rows = [row for row in csv.DictReader(fh, delimiter="\t") if row["slot"] in ("7", "9")]
    records = [make_record(row["ground_truth"], rid=f"slot{row['slot']}") for row in rows]
    transcripts = {r.id: f"<answer>{row['candidate']}</answer>" for r, row in zip(records, rows)}
    runs = []
    for workers in (1, 2, 1):
        pair_mces.cache_clear()  # forked workers would inherit the parent's results
        runs.append(evaluate_records(records, transcripts, mces_budget=512, workers=workers))
    assert runs[0] == runs[1] == runs[2]
    assert [m.mces_truncated for m in runs[0][0]] == [True, True]


def test_memoized_failures_stay_failures():
    prepare.cache_clear()
    for rid in ("a", "b"):
        metrics = score_spectrum(make_record("CCO", rid=rid), response(["C1CC", "C1CC"]))
        assert metrics.n_valid == 0 and not metrics.validity_top1
    assert prepare("C1CC") is None
    bad_truth = make_record("C1CC", formula={"C": 3, "H": 6}, rid="bad")
    for _ in range(2):
        with pytest.raises(ChemError):
            score_spectrum(bad_truth, response(["CCO"]))
        with pytest.raises(ChemError):
            audit_cot(response(["CCO"]), bad_truth)


def _fields(prepared):
    mol = prepared.mol
    return (
        list(mol.atoms), list(mol.bonds), list(mol.hydrogens), mol.ring_bonds,
        mol.aromatic_atoms, mol.aromatic_bonds, mol.perceived,
        dict(prepared.formula), prepared.dbe,
    )


@pytest.mark.parametrize("smiles", ["NC(Cc1ccc(O)cc1)C(=O)O", "OC1=CC=CC=C1CCN", "[Na+].[Cl-]"])
def test_memoized_molecule_matches_fresh_parse(smiles):
    prepare.cache_clear()
    fingerprint.cache_clear()
    shared = prepare(smiles)
    before = _fields(shared)
    other = prepare("c1ccccc1CCN").mol
    fresh = mol_from_smiles(smiles)
    for _ in range(2):  # the second round reads the cached canonical SMILES
        assert canonical_smiles(shared.mol) == canonical_smiles(mol_from_smiles(smiles))
        assert morgan_fingerprint(shared.mol) == morgan_fingerprint(fresh) == fingerprint(smiles, 2, 2048)
        assert mces(shared.mol, other) == mces(fresh, mol_from_smiles("c1ccccc1CCN"))
        assert mces(shared.mol, shared.mol) == mces(fresh, mol_from_smiles(smiles))
    assert prepare(smiles) is shared
    assert _fields(shared) == before


def test_identical_edge_free_inputs_keep_mces_one():
    prepare.cache_clear()
    metrics = score_spectrum(make_record("[Na+].[Cl-]"), response(["[Na+].[Cl-]"]))
    assert metrics.exact_top1
    assert metrics.mces_top1 == 1.0


@pytest.mark.parametrize("candidate", ["[Gd+3]", "[Tc]", "[U]"])
def test_candidate_without_tabulated_mass_still_scores(candidate):
    # Only the ground truth is weighed; a candidate element with no mass entry is still valid.
    metrics, audit = evaluate_one(make_record("CCO"), f"<answer>{candidate}, CCO</answer>")
    assert metrics.n_valid == 2 and metrics.validity_top1
    assert not metrics.exact_top1 and metrics.exact_topk
    assert metrics.bin == "[0,200)"
    assert not audit.contradiction


# Each ground truth with candidates that test the exact-match gate: other
# spellings (atom order, Kekule and aromatic input), same-formula isomers,
# and charge and isotope variants (same formula or not).
EXACT_FAMILIES = {
    "OCC": ["CCO", "C(O)C", "COC", "[13CH3]CO", "CC[O-]", "CC[OH2+]", "OC[13CH3]"],
    "Oc1ccccc1CCN": [
        "OC1=CC=CC=C1CCN", "NCCC1=CC=CC=C1O", "Oc1ccc(CCN)cc1", "Oc1cccc(CCN)c1",
        "[NH3+]CCc1ccccc1O", "Oc1ccccc1CC[15NH2]", "[O-]c1ccccc1CCN",
    ],
    "NC(Cc1ccc(O)cc1)C(=O)O": [
        "O=C(O)C(N)Cc1ccc(O)cc1", "NC(CC1=CC=C(O)C=C1)C(=O)O", "NCC(C1=CC=C(O)C=C1)C(=O)O",
        "OC1=CC=CC=C1CC(N)C(=O)O", "[NH3+]C(Cc1ccc(O)cc1)C(=O)[O-]", "NC(Cc1ccc(O)cc1)C(=O)[O-]",
    ],
    "c1ccccc1": ["C1=CC=CC=C1", "C=1C=CC=CC=1", "[13cH]1ccccc1", "C1=CCC=CC1", "C#CC#CCC"],
    "CC(C)(C)N": ["NC(C)(C)C", "CCCCN", "CC(C)CN", "CN(C)CC", "C[N+](C)(C)C", "[15NH2]C(C)(C)C"],
}


def _exact_by_canonical_strings(truth, candidates, k):
    """(top-1, top-k) exact match comparing canonical strings for every valid candidate."""
    gt = canonical_smiles(mol_from_smiles(truth))
    top1 = topk = False
    for rank, smiles in enumerate(candidates[:k]):
        try:
            exact = canonical_smiles(mol_from_smiles(smiles)) == gt
        except ChemError:
            continue
        if rank == 0:
            top1 = exact
        topk = topk or exact
    return top1, topk


def test_exact_match_equals_comparing_every_canonical_string(corpus):
    rng = random.Random(89)
    by_formula: dict[str, list[str]] = {}
    for smiles in rng.sample(corpus, 400):
        by_formula.setdefault(canonical_formula(molecular_formula(mol_from_smiles(smiles))), []).append(smiles)
    isomers = [group for group in by_formula.values() if len(group) > 1]
    families = dict(EXACT_FAMILIES)
    for group in isomers:
        families.setdefault(group[0], group[1:])
    assert len(families) > len(EXACT_FAMILIES)

    prepare.cache_clear()
    respelled_hits = same_formula_misses = 0
    for i in range(150):
        truth = rng.choice(sorted(families))
        mol = mol_from_smiles(truth)
        ranks = list(range(mol.n_atoms))
        rng.shuffle(ranks)
        pool = families[truth] + [truth, write_smiles(mol, ranks), rng.choice(corpus), "C1CC"]
        candidates = [rng.choice(pool) for _ in range(rng.randint(0, 6))]
        k = rng.choice((1, 3, 10))
        got = score_spectrum(make_record(truth, rid=f"x{i}"), response(candidates), k)
        expected = _exact_by_canonical_strings(truth, candidates, k)
        assert (got.exact_top1, got.exact_topk) == expected, (truth, candidates, k)
        respelled_hits += got.exact_topk and truth not in candidates[:k]
        same_formula_misses += not got.exact_topk and any(
            c != truth and c in families[truth] for c in candidates[:k]
        )
    assert respelled_hits > 0 and same_formula_misses > 0


def test_candidates_of_another_formula_are_never_canonicalized(monkeypatch):
    canonicalized = []
    original = canon_module._canonical_string

    def recorded(mol):
        canonicalized.append(mol)
        return original(mol)

    monkeypatch.setattr(canon_module, "_canonical_string", recorded)
    prepare.cache_clear()
    pair_mces.cache_clear()
    truth = "NC(Cc1ccc(O)cc1)C(=O)O"
    other_formulas = ["CCO", "c1ccccc1CCN", "NC(Cc1ccccc1)C(=O)O", "[NH3+]C(Cc1ccc(O)cc1)C(=O)O", "C1CC"]
    metrics = score_spectrum(make_record(truth), response(other_formulas), k=10)
    assert metrics.n_valid == 4 and not metrics.exact_topk
    assert canonicalized == []  # neither exact match nor MCES canonicalized anything

    isomer, respelled = "NCC(C1=CC=C(O)C=C1)C(=O)O", "O=C(O)C(N)Cc1ccc(O)cc1"
    metrics = score_spectrum(make_record(truth, rid="r2"), response([isomer, respelled]), k=10)
    assert not metrics.exact_top1 and metrics.exact_topk
    assert sorted(canonical_smiles(m) for m in canonicalized) == sorted(
        canonical_smiles(mol_from_smiles(s)) for s in (truth, isomer, respelled)
    )


def test_evaluating_the_fixture_parses_each_smiles_once(data_dir, tmp_path, monkeypatch):
    parsed = Counter()
    for module in (dataset_module, evaluate_module):

        def counted(smiles, _parse=module.mol_from_smiles):
            parsed[smiles] += 1
            return _parse(smiles)

        monkeypatch.setattr(module, "mol_from_smiles", counted)
    prepare.cache_clear()
    args = ["--dataset", str(data_dir / "fixture.tsv"), "--run-dir", str(tmp_path), "--split", "test"]
    assert main(["run", *args, "--provider", f"mock:{data_dir / 'transcripts'}"]) == 0
    assert main(["evaluate", *args, "--workers", "1"]) == 0
    # Three ground truths and 11 other candidate strings (one invalid), with
    # ``run`` and ``evaluate`` in one process: each string is parsed once.
    assert {"CC(C)(C)N", "c1ccccc1", "OCC", "CCO", "C1CC", "CCCN(C)C"} <= set(parsed)
    assert len(parsed) == 14 and set(parsed.values()) == {1}, parsed


def test_benchmark_hooks_patch_the_package(data_dir):
    """``bench/tracing.py`` replaces names inside the package (the parse,
    canonicalization, MCES and pool bindings of ``evaluate``, the
    ``canonical_smiles`` binding of the MCES module, and more); renaming one
    must fail here.  Its pool passes one argument per task, so
    ``evaluate_records`` maps over a single iterable."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    root = Path(__file__).resolve().parents[1]
    code = (
        "import sys, tracing\n"
        "import ms2smiles.evaluate as evaluate, ms2smiles.gateway as gateway\n"
        "from ms2smiles.dataset import load_dataset\n"
        "records = load_dataset(sys.argv[1]).records\n"
        "tracing.LayerProbe({r.id: 'bin0_200' for r in records}).install(1.0)\n"
        "tracing.install_latency_timers(evaluate, gateway, [], [])\n"
        "evaluate.evaluate_records(records, {}, workers=2)\n"
        "assert len(tracing.TimedPool.durations) == len(records)\n"
    )
    path = os.pathsep.join([str(root / "src"), str(root / "bench"), os.environ.get("PYTHONPATH", "")])
    subprocess.run(
        [sys.executable, "-c", code, str(data_dir / "fixture.tsv")],
        env={**os.environ, "PYTHONPATH": path},
        check=True,
        timeout=120,
    )
