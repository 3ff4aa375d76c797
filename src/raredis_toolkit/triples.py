"""The normalized relation unit shared by encoding, decoding, and scoring."""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable

from .standoff import ENTITY_TYPES, PREDICATES

_TYPES = (*ENTITY_TYPES, None)


class Triple(namedtuple("Triple", "subject_text subject_type predicate object_text object_type")):
    """(subject text, subject type, predicate, object text, object type).

    Gold triples always carry both entity types. Triples decoded from
    generated text may carry None for a type the output template does not
    encode; the scorer's type-agnostic mode exists for those. An entity text
    is never blank (empty or all whitespace): str.split gives it a token.

    A named tuple, so a triple equals the plain tuple of its five fields.
    __new__ is its one constructor: _make, _replace, copy and pickle all
    go through it, so none of them can build a triple these checks refuse.
    """

    __slots__ = ()

    def __new__(
        cls, subject_text: str, subject_type: str | None, predicate: str, object_text: str, object_type: str | None
    ):
        # is_blank, inlined: a Triple is built per unit read
        if not subject_text or subject_text.isspace() or not object_text or object_text.isspace():
            raise ValueError("triple entity texts may not be blank")
        if predicate not in PREDICATES:
            raise ValueError(f"unknown predicate {predicate!r}")
        if subject_type not in _TYPES:
            raise ValueError(f"unknown entity type {subject_type!r}")
        if object_type not in _TYPES:
            raise ValueError(f"unknown entity type {object_type!r}")
        return tuple.__new__(cls, (subject_text, subject_type, predicate, object_text, object_type))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


def is_blank(text: str) -> bool:
    """Empty or all whitespace: the entity text Triple refuses."""
    return not text or text.isspace()


def collapse_whitespace(text: str) -> str:
    """Every whitespace run as one space, the ends stripped."""
    return " ".join(text.split())


def normalize_text(text: str) -> str:
    """Scoring normalization: collapse_whitespace, lowered. Written out, since
    triple_key calls it twice per distinct triple."""
    return " ".join(text.split()).lower()


def triple_key(triple: Triple, strict_case: bool = False, type_agnostic: bool = False) -> tuple:
    """Identity under which triples are collapsed and matched: (subject text,
    subject type, predicate, object text, object type), both types None under
    type_agnostic."""
    st, s_type, predicate, ot, o_type = triple
    if not strict_case:
        st, ot = normalize_text(st), normalize_text(ot)
    if type_agnostic:
        return (st, None, predicate, ot, None)
    return (st, s_type, predicate, ot, o_type)


def distinct_triples(
    triples: Iterable[Triple], strict_case: bool = False, type_agnostic: bool = False
) -> dict[tuple, Triple]:
    """Map each triple_key to the first triple that has it, in input order."""
    out: dict[tuple, Triple] = {}
    for t in dict.fromkeys(triples):  # equal triples have equal keys: key each distinct one once
        out.setdefault(triple_key(t, strict_case, type_agnostic), t)
    return out
