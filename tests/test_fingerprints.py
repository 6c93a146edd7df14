from __future__ import annotations

import csv
import itertools
import random
from functools import lru_cache
from pathlib import Path

from ms2smiles.chem import ChemError, mol_from_smiles
from ms2smiles.similarity import fingerprints, morgan_fingerprint, tanimoto
from ms2smiles.similarity.fingerprints import _build_fingerprint

BENCH_DATA = Path(__file__).resolve().parents[1] / "bench" / "data"


def test_self_similarity_is_one():
    fp = morgan_fingerprint(mol_from_smiles("NC(Cc1ccc(O)cc1)C(=O)O"))
    assert tanimoto(fp, fp) == 1.0


def test_isomorphic_molecules_share_fingerprints():
    pairs = [
        ("CCO", "OCC"),
        ("NC(Cc1ccc(O)cc1)C(=O)O", "O=C(O)C(N)Cc1ccc(O)cc1"),
        ("OC1=CC=CC=C1CC(N)C(=O)O", "O=C(O)C(N)Cc1ccccc1O"),
        ("CC(=O)[O-].[Na+]", "[Na+].CC(=O)[O-]"),
    ]
    for left, right in pairs:
        assert morgan_fingerprint(mol_from_smiles(left)) == morgan_fingerprint(mol_from_smiles(right))


def test_different_molecules_differ():
    fa = morgan_fingerprint(mol_from_smiles("CCO"))
    fb = morgan_fingerprint(mol_from_smiles("CCC"))
    assert fa != fb
    assert tanimoto(fa, fb) < 1.0


def test_set_arithmetic_tanimoto():
    a = (1 << 1) | (1 << 2) | (1 << 3)
    b = (1 << 3) | (1 << 4)
    assert tanimoto(a, b) == 0.25
    assert tanimoto(a, 1 << 5) == 0.0
    assert tanimoto(0, 0) == 1.0


def test_every_molecule_sets_at_least_one_bit(corpus):
    for smiles in corpus[:100]:
        assert morgan_fingerprint(mol_from_smiles(smiles)).bit_count() >= 1


def test_determinism_across_recomputation(corpus):
    for smiles in corpus[:50]:
        mol = mol_from_smiles(smiles)
        cached = morgan_fingerprint(mol)
        assert morgan_fingerprint(mol) is cached
        assert _build_fingerprint(mol) == cached == morgan_fingerprint(mol_from_smiles(smiles))


def test_jaccard_distance_triangle_inequality(corpus):
    rng = random.Random(9)
    sample = [morgan_fingerprint(mol_from_smiles(s)) for s in rng.sample(corpus, 12)]
    for fa, fb, fc in itertools.permutations(sample, 3):
        dab = 1 - tanimoto(fa, fb)
        dbc = 1 - tanimoto(fb, fc)
        dac = 1 - tanimoto(fa, fc)
        assert dac <= dab + dbc + 1e-12


def test_reference_pairs_keep_their_tanimoto_values():
    # The radius-2, 2048-bit shape is fixed; these strings pin its bits.
    with open(BENCH_DATA / "pairs.tsv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh, delimiter="\t"))
    mols = {s: mol_from_smiles(s) for row in rows for s in (row["ground_truth"], row["candidate"])}
    assert (len(rows), len(mols)) == (2363, 118)
    for row in rows:
        fa, fb = morgan_fingerprint(mols[row["ground_truth"]]), morgan_fingerprint(mols[row["candidate"]])
        assert repr(tanimoto(fa, fb)) == row["tanimoto"], row


def test_environment_memo_changes_no_fingerprint(corpus, monkeypatch):
    mols = []
    for smiles in corpus:
        try:
            mols.append(mol_from_smiles(smiles))
        except ChemError:
            pass
    memo = fingerprints._environment_hash

    def built(order, memo):
        fps = {}
        for i in order:
            fps[i] = _build_fingerprint(mols[i])
            info = memo.cache_info()
            assert info.currsize <= info.maxsize
        return [fps[i] for i in range(len(mols))]

    forward, backward = range(len(mols)), range(len(mols) - 1, -1, -1)
    memo.cache_clear()
    cold = built(forward, memo)
    assert memo.cache_info().hits > memo.cache_info().misses  # environments recur
    assert built(forward, memo) == cold  # warm
    memo.cache_clear()
    assert built(backward, memo) == cold
    # Every entry evicted many times over, and no memo at all, agree too.
    for size in (64, 0):
        small = lru_cache(maxsize=size)(memo.__wrapped__)
        monkeypatch.setattr(fingerprints, "_environment_hash", small)
        assert built(forward, small) == cold
