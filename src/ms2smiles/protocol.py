"""Prompt rendering and model-transcript parsing.

``render_prompt`` fills the six data placeholders of the chain-of-thought
template; the template's own worked-example tokens (``<DBE>``,
``<base_peak_mz>``, ...) are left for the model to fill and pass through
untouched.  ``parse_response`` is total: any text, however mangled, comes
back as a ``ParsedResponse``.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field
from functools import cache
from importlib import resources

from .chem import canonical_formula
from .dataset import SpectrumRecord

PLACEHOLDERS = ("mzs", "intensities", "formula", "instrument", "adduct", "collision_energy")

_TOKEN_RE = re.compile(r"<([A-Za-z_][A-Za-z0-9_]*)>")
MAX_CANDIDATES = 32


class MissingPlaceholder(ValueError):
    pass


class UnknownPlaceholder(ValueError):
    pass


@dataclass(frozen=True)
class PromptInstance:
    record_id: str
    text: str
    template_version: str


@dataclass
class ParsedResponse:
    raw: str
    think_text: str | None = None
    candidates: list[str] = field(default_factory=list)
    has_think: bool = False
    has_answer: bool = False

    @property
    def cot_word_count(self) -> int:
        return len(self.think_text.split()) if self.think_text else 0


def default_template() -> str:
    return resources.files("ms2smiles").joinpath("templates/cot_prompt.txt").read_text("utf-8")


@cache
def _passthrough_tokens() -> frozenset[str]:
    """The shipped template's own tokens (its tags and worked-example fields),
    which pass through unsubstituted; read once per process."""
    return frozenset(_TOKEN_RE.findall(default_template())) - set(PLACEHOLDERS)


def _fmt_value(value: float, decimals: int) -> str:
    """Fixed decimals, trailing zeros trimmed but one decimal kept."""
    text = f"{value:.{decimals}f}".rstrip("0")
    return text + "0" if text.endswith(".") else text


def _fmt_list(values, decimals: int) -> str:
    return "[" + ", ".join(_fmt_value(v, decimals) for v in values) + "]"


@cache
def _template_version(template: str) -> str:
    """Check ``template``'s tokens and return its version digest; once per
    template text (a rejected template is checked again on each call)."""
    tokens = set(_TOKEN_RE.findall(template))
    missing = [p for p in PLACEHOLDERS if p not in tokens]
    if missing:
        raise MissingPlaceholder(f"template lacks placeholders: {missing}")
    unknown = tokens - set(PLACEHOLDERS) - _passthrough_tokens()
    if unknown:
        raise UnknownPlaceholder(f"template has unrecognized placeholders: {sorted(unknown)}")
    return hashlib.sha256(template.encode("utf-8")).hexdigest()[:12]


def render_prompt(record: SpectrumRecord, template: str) -> PromptInstance:
    version = _template_version(template)
    values = {
        "mzs": _fmt_list(record.mzs, 4),
        "intensities": _fmt_list(record.intensities, 3),
        "formula": canonical_formula(record.formula),
        "instrument": record.instrument or "unknown",
        "adduct": record.adduct or "unknown",
        "collision_energy": "unknown" if record.collision_energy is None else str(float(record.collision_energy)),
    }
    text = template
    for name, value in values.items():
        text = text.replace(f"<{name}>", value)
    return PromptInstance(record_id=record.id, text=text, template_version=version)


def _first_block(raw: str, tag: str) -> str | None:
    """Innermost content of the first well-formed <tag>...</tag> pair."""
    close = re.search(rf"</{tag}>", raw, re.IGNORECASE)
    if close is None:
        return None
    opens = [m.end() for m in re.finditer(rf"<{tag}>", raw[: close.start()], re.IGNORECASE)]
    if not opens:
        return None
    return raw[opens[-1] : close.start()]


_NUMBERED_RE = re.compile(r"^\s*\d+[.)]\s*")


def _clean_candidate(token: str) -> str:
    token = _NUMBERED_RE.sub("", token.strip())
    return token.strip().strip("`'\"*").rstrip(".,;:!?").strip()


def parse_response(raw: str) -> ParsedResponse:
    """Split a transcript into think text and ordered SMILES candidates.

    Never raises: malformed transcripts come back with ``has_think`` and
    ``has_answer`` false and an empty candidate list.
    """
    parsed = ParsedResponse(raw=raw)
    think = _first_block(raw, "think")
    if think is not None:
        parsed.think_text = think
        parsed.has_think = True

    answer = _first_block(raw, "answer")
    if answer is None:
        return parsed
    payload = answer
    labeled = None
    for line in answer.splitlines():
        upper = line.upper()
        if "SMILES" in upper and ":" in line[upper.index("SMILES") :]:
            labeled = line
    if labeled is not None:
        idx = labeled.upper().index("SMILES")
        payload = labeled[labeled.index(":", idx) + 1 :]
    candidates = [c for c in (_clean_candidate(t) for t in payload.split(",")) if c]
    parsed.candidates = candidates[:MAX_CANDIDATES]
    parsed.has_answer = bool(parsed.candidates)
    return parsed
