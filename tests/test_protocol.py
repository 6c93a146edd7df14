from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from ms2smiles.dataset import load_dataset
from ms2smiles.protocol import (
    MissingPlaceholder,
    UnknownPlaceholder,
    default_template,
    parse_response,
    render_prompt,
)

APPENDIX_CANDIDATES = [
    "CC(C)(C)N", "CC(C)CN", "C(C)CCN", "CCN(CC)C", "CN(C)CC",
    "CN(CC)C", "NCC(C)C", "CNC(C)C", "CCCCN", "CCCN(C)C",
]


@pytest.fixture(scope="module")
def records():
    from pathlib import Path

    return load_dataset(str(Path(__file__).parent / "data" / "fixture.tsv")).records


def test_render_worked_example(records):
    prompt = render_prompt(records[0], default_template())
    assert "MS m/z values: [53.0024, 53.9977, 55.0544, 56.0496, 57.07, 74.0965]" in prompt.text
    assert "intensities: [0.014, 0.003, 0.002, 0.002, 1.0, 0.434]" in prompt.text
    assert "molecular formula: C4H11N" in prompt.text
    assert "instrument: Orbitrap" in prompt.text
    assert "adduct (Ionization Method): [M+H]+" in prompt.text
    assert "collision energy: 35.0 eV" in prompt.text
    assert prompt.record_id == "amine-001"
    # the data placeholders are all gone; the worked-example tokens remain
    for name in ("<mzs>", "<intensities>", "<formula>", "<instrument>", "<adduct>", "<collision_energy>"):
        assert name not in prompt.text
    assert "<DBE>" in prompt.text


def test_missing_collision_energy_renders_unknown(records):
    prompt = render_prompt(records[2], default_template())
    assert "collision energy: unknown eV" in prompt.text


def test_missing_placeholder_rejected(records):
    with pytest.raises(MissingPlaceholder):
        render_prompt(records[0], "values <mzs> <intensities> <instrument> <adduct> <collision_energy>")


def test_unknown_placeholder_rejected(records):
    template = default_template() + " extra <formulla>"
    with pytest.raises(UnknownPlaceholder):
        render_prompt(records[0], template)


def test_unknown_placeholder_names_only_the_unknown_token(records):
    with pytest.raises(UnknownPlaceholder) as info:
        render_prompt(records[0], default_template() + " <foo>")
    assert str(info.value).endswith("['foo']")


def test_rendering_differs_when_fields_differ(records):
    template = default_template()
    texts = {render_prompt(r, template).text for r in records}
    assert len(texts) == len(records)


def test_template_version_is_stable(records):
    one = render_prompt(records[0], default_template())
    two = render_prompt(records[1], default_template())
    assert one.template_version == two.template_version


def test_parse_appendix_transcript(data_dir):
    raw = (data_dir / "transcripts" / "amine-001.txt").read_text(encoding="utf-8")
    parsed = parse_response(raw)
    assert parsed.has_think
    assert parsed.has_answer
    assert parsed.candidates == APPENDIX_CANDIDATES
    assert parsed.candidates[0] == "CC(C)(C)N"
    assert parsed.candidates[-1] == "CCCN(C)C"
    assert parsed.cot_word_count == len(parsed.think_text.split())


def test_unterminated_think_counts_as_absent():
    parsed = parse_response("<think>started reasoning but never closed")
    assert not parsed.has_think
    assert not parsed.has_answer
    assert parsed.candidates == []
    assert parsed.cot_word_count == 0


def test_empty_transcript():
    parsed = parse_response("")
    assert (parsed.has_think, parsed.has_answer, parsed.candidates, parsed.cot_word_count) == (
        False,
        False,
        [],
        0,
    )


def test_first_well_formed_pair_wins():
    raw = "<think>outer <think>inner</think> trailing</think><answer>SMILES: CC</answer>"
    parsed = parse_response(raw)
    assert parsed.think_text == "inner"
    two_answers = "<answer>SMILES: CC</answer><answer>SMILES: OO</answer>"
    assert parse_response(two_answers).candidates == ["CC"]


def test_case_insensitive_tags():
    parsed = parse_response("<THINK>text</THINK><Answer>SMILES: CCO</Answer>")
    assert parsed.has_think
    assert parsed.candidates == ["CCO"]


def test_unlabeled_answer_body_is_comma_split():
    parsed = parse_response("<answer>CCO, CCC, CCN</answer>")
    assert parsed.candidates == ["CCO", "CCC", "CCN"]


def test_numbered_list_prefixes_stripped():
    parsed = parse_response("<answer>SMILES: 1. CCO, 2) CCC, 3. CCN.</answer>")
    assert parsed.candidates == ["CCO", "CCC", "CCN"]


def test_last_smiles_line_wins():
    raw = "<answer>candidate SMILES: CCC\nFinal SMILES Proposals: CCO,CCN</answer>"
    assert parse_response(raw).candidates == ["CCO", "CCN"]


def test_candidate_cap():
    body = ",".join(f"C{'C' * (i % 5)}" for i in range(50))
    parsed = parse_response(f"<answer>SMILES: {body}</answer>")
    assert len(parsed.candidates) == 32


def test_empty_answer_block_has_no_answer():
    parsed = parse_response("<answer>   </answer>")
    assert not parsed.has_answer
    assert parsed.candidates == []


@settings(max_examples=300)
@given(st.text(max_size=400))
def test_parse_response_is_total(raw):
    parsed = parse_response(raw)
    assert parsed.cot_word_count >= 0
    assert (parsed.cot_word_count == 0) == (not parsed.has_think or not parsed.think_text.strip())
    assert len(parsed.candidates) <= 32

