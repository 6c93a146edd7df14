from __future__ import annotations

import json

import pytest
from hypothesis import given, strategies as st

from ms2smiles.dataset import (
    AllZeroIntensities,
    FileUnreadable,
    HeaderMissing,
    NegativeIntensity,
    NoValidRows,
    WEIGHT_BIN_LABELS,
    load_dataset,
    normalize_intensities,
    weight_bin,
    weight_bin_for_mass,
)
from ms2smiles.evaluate import prepare

HEADER = "id\tmzs\tintensities\tsmiles\tprecursor_formula\tadduct\tinstrument_type\tcollision_energy\tfold"


def _write_tsv(path, rows):
    path.write_text("\n".join([HEADER] + rows) + "\n", encoding="utf-8")
    return str(path)


def test_fixture_loads(data_dir):
    result = load_dataset(str(data_dir / "fixture.tsv"))
    assert len(result.records) == 3
    record = result.records[0]
    assert record.id == "amine-001"
    assert record.formula == {"C": 4, "H": 11, "N": 1}
    assert record.mzs[-1] == 74.0965
    assert max(record.intensities) == 1.0
    assert record.split == "test"
    assert result.records[2].collision_energy is None


def test_bad_rows_are_skipped_with_reasons(tmp_path):
    rows = [
        "ok-1\t10.0 20.0\t0.5 1.0\tCCO\tC2H6O\t[M+H]+\tQTOF\t20\ttest",
        "bad-len\t10.0 20.0\t1.0\tCCO\tC2H6O\t[M+H]+\tQTOF\t20\ttest",
        "bad-smiles\t10.0\t1.0\tC1CC\tC2H6O\t[M+H]+\tQTOF\t20\ttest",
        "bad-formula\t10.0\t1.0\tCCO\tnot_a_formula\t[M+H]+\tQTOF\t20\ttest",
        "bad-zero\t10.0 20.0\t0 0\tCCO\tC2H6O\t[M+H]+\tQTOF\t20\ttest",
        "bad-split\t10.0\t1.0\tCCO\tC2H6O\t[M+H]+\tQTOF\t20\tholdout",
        "bad-mz\t-5.0\t1.0\tCCO\tC2H6O\t[M+H]+\tQTOF\t20\ttest",
    ]
    result = load_dataset(_write_tsv(tmp_path / "mixed.tsv", rows))
    assert len(result.records) == 1
    reasons = {reason for _, reason in result.skipped}
    assert reasons == {
        "LengthMismatch",
        "BadGroundTruth",
        "BadFormula",
        "AllZeroIntensities",
        "BadSplit",
        "NonPositiveMz",
    }
    text = result.report_text()
    assert "skipped rows: 6" in text
    assert "LengthMismatch" in text


def test_negative_intensity_has_its_own_reason(tmp_path):
    rows = [
        "ok\t10.0 20.0\t0.5 1.0\tCCO\tC2H6O\t[M+H]+\tQTOF\t20\ttest",
        "neg\t10.0 20.0\t-1.0 1.0\tCCO\tC2H6O\t[M+H]+\tQTOF\t20\ttest",
    ]
    result = load_dataset(_write_tsv(tmp_path / "negative.tsv", rows))
    assert [r.id for r in result.records] == ["ok"]
    assert result.skipped == [("line 3", "NegativeIntensity")]
    assert "NegativeIntensity: 1" in result.report_text()


@pytest.mark.parametrize(
    "row, reason",
    [
        ("r1\t10.0 inf\t0.5 1.0\tCCO\tC2H6O\t[M+H]+\tQTOF\t20\ttest", "BadNumber"),
        ("r1\t10.0 20.0\t0.5 nan\tCCO\tC2H6O\t[M+H]+\tQTOF\t20\ttest", "BadNumber"),
        ("r1\t10.0 20.0\t0.5 1.0\tCCO\tC2H6O\t[M+H]+\tQTOF\tnan\ttest", "BadCollisionEnergy"),
    ],
    ids=["mz", "intensity", "collision_energy"],
)
def test_non_finite_numbers_are_skipped(tmp_path, row, reason):
    rows = ["ok\t10.0 20.0\t0.5 1.0\tCCO\tC2H6O\t[M+H]+\tQTOF\t20\ttest", row]
    result = load_dataset(_write_tsv(tmp_path / "nonfinite.tsv", rows))
    assert [r.id for r in result.records] == ["ok"]
    assert result.records[0].intensities == (0.5, 1.0)
    assert result.skipped == [("line 3", reason)]


def test_unsafe_and_repeated_ids_are_skipped(tmp_path):
    ids = ["ok", "../evil", "a/b", "a\\b", ".", "..", "", "ok", "ok2"]
    rows = [f"{i}\t10.0\t1.0\tCCO\tC2H6O\t[M+H]+\tQTOF\t20\ttest" for i in ids]
    result = load_dataset(_write_tsv(tmp_path / "ids.tsv", rows))
    assert [r.id for r in result.records] == ["ok", "ok2"]
    assert [reason for _, reason in result.skipped] == ["BadId"] * 6 + ["DuplicateId"]
    assert result.skipped[-1][0] == "line 9"
    text = result.report_text()
    assert "BadId: 6" in text and "DuplicateId: 1" in text


def test_header_aliases(tmp_path):
    path = tmp_path / "alias.tsv"
    path.write_text(
        "identifier\tpeaks_mz\tpeaks_intensities\tground_truth\tformula\tsplit\n"
        "r1\t10.0, 20.0\t0.2, 1.0\tCCO\tC2H6O\ttest\n",
        encoding="utf-8",
    )
    result = load_dataset(str(path))
    assert result.records[0].id == "r1"
    assert result.records[0].adduct == ""


def test_jsonl_loading(tmp_path):
    path = tmp_path / "data.jsonl"
    rows = [
        {"id": "j1", "mzs": [10.0, 20.0], "intensities": [0.5, 1.0], "smiles": "CCO",
         "precursor_formula": "C2H6O", "fold": "val"},
        {"id": "j2", "mzs": "10.0 20.0", "intensities": "2 4", "smiles": "CCC",
         "precursor_formula": "C3H8", "fold": "test", "collision_energy": 35.0},
        "not json at all{",
    ]
    path.write_text("\n".join(json.dumps(r) if isinstance(r, dict) else r for r in rows), encoding="utf-8")
    result = load_dataset(str(path))
    assert [r.id for r in result.records] == ["j1", "j2"]
    assert result.records[1].intensities == (0.5, 1.0)
    assert result.skipped == [("line 3", "BadJson")]


def test_jsonl_numbers_of_the_wrong_shape_are_skipped(tmp_path):
    base = {"mzs": [10.0], "intensities": [1.0], "smiles": "CCO", "precursor_formula": "C2H6O", "fold": "test"}
    rows = [
        {**base, "id": "ok"},
        {**base, "id": "nested", "mzs": [[10.0]]},
        {**base, "id": "listed-ce", "collision_energy": [20.0]},
        {**base, "id": "infinite", "intensities": [float("inf")]},
    ]
    path = tmp_path / "shapes.jsonl"
    path.write_text("\n".join(json.dumps(r) for r in rows), encoding="utf-8")
    result = load_dataset(str(path))
    assert [r.id for r in result.records] == ["ok"]
    assert [reason for _, reason in result.skipped] == ["BadNumber", "BadCollisionEnergy", "BadNumber"]


def test_split_filter(data_dir):
    result = load_dataset(str(data_dir / "fixture.tsv"), split="train")
    assert result.records == []


def test_unsorted_peaks_are_sorted(tmp_path):
    rows = ["r1\t30.0 10.0 20.0\t0.1 1.0 0.5\tCCO\tC2H6O\t[M+H]+\tQTOF\t\ttest"]
    record = load_dataset(_write_tsv(tmp_path / "u.tsv", rows)).records[0]
    assert record.mzs == (10.0, 20.0, 30.0)
    assert record.intensities == (1.0, 0.5, 0.1)


def test_file_errors(tmp_path):
    with pytest.raises(FileUnreadable):
        load_dataset(str(tmp_path / "missing.tsv"))
    empty = tmp_path / "empty.tsv"
    empty.write_text("", encoding="utf-8")
    with pytest.raises(HeaderMissing):
        load_dataset(str(empty))
    wrong = tmp_path / "wrong.tsv"
    wrong.write_text("a\tb\tc\n1\t2\t3\n", encoding="utf-8")
    with pytest.raises(HeaderMissing):
        load_dataset(str(wrong))
    only_bad = tmp_path / "bad.tsv"
    only_bad.write_text(HEADER + "\nx\t10.0\t1.0\tC1CC\tC2H6O\ta\tb\t\ttest\n", encoding="utf-8")
    with pytest.raises(NoValidRows):
        load_dataset(str(only_bad))


def test_load_determinism(data_dir):
    first = load_dataset(str(data_dir / "fixture.tsv"))
    second = load_dataset(str(data_dir / "fixture.tsv"))
    assert first.records == second.records


def test_normalize_intensities():
    assert normalize_intensities([2, 1, 4]) == [0.5, 0.25, 1.0]
    already = [0.014, 1.0, 0.434]
    assert normalize_intensities(already) == already
    with pytest.raises(AllZeroIntensities):
        normalize_intensities([0, 0])
    with pytest.raises(NegativeIntensity):
        normalize_intensities([-1.0, 2.0])


@given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1).filter(lambda xs: max(xs) > 0))
def test_normalize_idempotent(values):
    once = normalize_intensities(values)
    assert normalize_intensities(once) == once
    assert max(once) == 1.0


def test_weight_bins():
    assert weight_bin_for_mass(73.09) == "[0,200)"
    assert weight_bin_for_mass(200.0) == "[200,400)"
    assert weight_bin_for_mass(399.999) == "[200,400)"
    assert weight_bin_for_mass(800.0) == "[800,inf)"
    assert weight_bin_for_mass(5000.0) == "[800,inf)"


@given(st.floats(min_value=0, max_value=1e9, allow_nan=False))
def test_bins_partition_the_mass_axis(mass):
    assert sum(weight_bin_for_mass(mass) == label for label in WEIGHT_BIN_LABELS) == 1


def test_weight_bin_uses_ground_truth_molecule(data_dir):
    records = load_dataset(str(data_dir / "fixture.tsv")).records
    assert weight_bin(prepare(records[0].ground_truth).formula) == "[0,200)"  # C4H11N, 73.09 Da
