"""The normalized relation unit shared by encoding, decoding, and scoring."""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from .standoff import ENTITY_TYPES, PREDICATES


@dataclass(frozen=True)
class Triple:
    """(subject text, subject type, predicate, object text, object type).

    Gold triples always carry both entity types. Triples decoded from
    generated text may carry None for a type the output template does not
    encode; the scorer's type-agnostic mode exists for those. An entity text
    is never blank (empty or all whitespace): str.split gives it a token.
    """

    subject_text: str
    subject_type: str | None
    predicate: str
    object_text: str
    object_type: str | None

    def __post_init__(self):
        for text in (self.subject_text, self.object_text):
            if not text or text.isspace():  # is_blank, inlined: a Triple is built per unit read
                raise ValueError("triple entity texts may not be blank")
        if self.predicate not in PREDICATES:
            raise ValueError(f"unknown predicate {self.predicate!r}")
        for t in (self.subject_type, self.object_type):
            if t is not None and t not in ENTITY_TYPES:
                raise ValueError(f"unknown entity type {t!r}")


def is_blank(text: str) -> bool:
    """Empty or all whitespace: the entity text Triple refuses."""
    return not text or text.isspace()


def collapse_whitespace(text: str) -> str:
    """Every whitespace run as one space, the ends stripped."""
    return " ".join(text.split())


def normalize_text(text: str) -> str:
    """Scoring normalization: lowercase, collapse whitespace, strip ends."""
    return collapse_whitespace(text).lower()


def triple_key(triple: Triple, strict_case: bool = False, type_agnostic: bool = False) -> tuple:
    """Identity under which triples are collapsed and matched: (subject text,
    subject type, predicate, object text, object type), both types None under
    type_agnostic."""
    st = triple.subject_text if strict_case else normalize_text(triple.subject_text)
    ot = triple.object_text if strict_case else normalize_text(triple.object_text)
    if type_agnostic:
        return (st, None, triple.predicate, ot, None)
    return (st, triple.subject_type, triple.predicate, ot, triple.object_type)


def distinct_triples(
    triples: Iterable[Triple], strict_case: bool = False, type_agnostic: bool = False
) -> dict[tuple, Triple]:
    """Map each triple_key to the first triple that has it, in input order."""
    out: dict[tuple, Triple] = {}
    for t in triples:
        out.setdefault(triple_key(t, strict_case, type_agnostic), t)
    return out
