"""The normalized relation unit shared by encoding, decoding, and scoring."""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable

from .standoff import ENTITY_TYPES, PREDICATES

_PREDICATES = frozenset(PREDICATES)
_TYPES = frozenset((*ENTITY_TYPES, None))


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
        try:
            known = predicate in _PREDICATES and subject_type in _TYPES and object_type in _TYPES
        except TypeError:  # an unhashable value, which no label is
            known = False
        if not known:
            if _refused(predicate, _PREDICATES):
                raise ValueError(f"unknown predicate {predicate!r}")
            label = subject_type if _refused(subject_type, _TYPES) else object_type
            raise ValueError(f"unknown entity type {label!r}")
        return tuple.__new__(cls, (subject_text, subject_type, predicate, object_text, object_type))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


def _refused(value, labels: frozenset) -> bool:
    """Whether value is none of labels, an unhashable value included."""
    try:
        return value not in labels
    except TypeError:
        return True


def is_blank(text: str) -> bool:
    """Empty or all whitespace: the entity text Triple refuses."""
    return not text or text.isspace()


def collapse_whitespace(text: str) -> str:
    """Every whitespace run as one space, the ends stripped."""
    return " ".join(text.split())


def normalize_text(text: str) -> str:
    """Scoring normalization: collapse_whitespace, lowered. Written out, since
    _keyed calls it once per distinct text of a document."""
    return " ".join(text.split()).lower()


def triple_key(triple: Triple, strict_case: bool = False, type_agnostic: bool = False) -> tuple:
    """Identity under which triples are collapsed and matched: (subject text,
    subject type, predicate, object text, object type), both types None under
    type_agnostic. The one key _keyed gives the triple."""
    (key,) = _keyed((triple,), strict_case, type_agnostic, {})
    return key


def distinct_triples(
    triples: Iterable[Triple], strict_case: bool = False, type_agnostic: bool = False
) -> dict[tuple, Triple]:
    """Map each triple_key to the first triple that has it, in input order."""
    return _keyed(triples, strict_case, type_agnostic, {})


def _keyed(
    triples: Iterable[Triple], strict_case: bool, type_agnostic: bool, normalized: dict[str, str]
) -> dict[tuple, Triple]:
    """The one keying loop: distinct_triples, each text normalized through
    normalized, a table from text to normalize_text(text) that it fills. A
    caller passing one table to several calls normalizes each text once."""
    out: dict[tuple, Triple] = {}
    for t in dict.fromkeys(triples):  # equal triples have equal keys: key each distinct one once
        st, s_type, predicate, ot, o_type = t
        if not strict_case:
            s_norm = normalized.get(st)
            if s_norm is None:
                s_norm = normalized[st] = normalize_text(st)
            o_norm = normalized.get(ot)
            if o_norm is None:
                o_norm = normalized[ot] = normalize_text(ot)
            st, ot = s_norm, o_norm
        out.setdefault((st, None, predicate, ot, None) if type_agnostic else (st, s_type, predicate, ot, o_type), t)
    return out
