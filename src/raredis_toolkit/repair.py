"""Corrective procedures for known annotation defects.

Three rules, applied in a fixed order:

  fragment_order     — fragments of a discontinuous entity listed out of
                       left-to-right order are sorted.
  span_boundary      — a span end off by one character (a missing or extra
                       trailing character) is nudged to the word boundary;
                       anything larger falls back to rewriting the recorded
                       surface text from the document slice.
  relation_argument  — a dangling entity reference carrying a trailing
                       extra zero (T90 where only T9 exists) is stripped.

After repair_all every entity satisfies: fragments strictly increasing and
non-overlapping, and document slices joined by single spaces equal the
surface text.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from pathlib import Path

from .errors import RepairError
from .standoff import AnnotatedDocument, EntityMention, format_offsets, join_records

RULE_RELATION_ARGUMENT = "relation_argument"
RULE_SPAN_BOUNDARY = "span_boundary"
RULE_FRAGMENT_ORDER = "fragment_order"

_TRAILING_ZERO_RE = re.compile(r"^T\d+0$")


@dataclass(frozen=True)
class RepairEntry:
    rule: str
    target_id: str
    before: str
    after: str


@dataclass(frozen=True)
class RepairLog:
    doc_id: str
    entries: tuple[RepairEntry, ...] = ()

    def __len__(self) -> int:
        return len(self.entries)

    def lines(self) -> list[str]:
        return [
            f"{self.doc_id} {e.rule} {e.target_id} {e.before} -> {e.after}"
            for e in self.entries
        ]


def fix_fragment_order(doc: AnnotatedDocument) -> tuple[AnnotatedDocument, RepairLog]:
    """Sort each entity's fragments by (start, end); rebuild surface text.

    Raises RepairError if an entity's fragments overlap each other even
    after sorting; that defect is beyond the supported rules.
    """
    entries = []
    entities = []
    for ent in doc.entities:
        ordered = tuple(sorted(ent.fragments))
        for (_, prev_end), (next_start, _) in zip(ordered, ordered[1:]):
            if prev_end > next_start:
                raise RepairError(
                    f"{doc.doc_id}: entity {ent.id} has overlapping fragments {format_offsets(ordered)}"
                )
        if ordered != ent.fragments:
            fixed = replace(ent, fragments=ordered)
            fixed = replace(fixed, surface_text=fixed.slice_text(doc.text))
            entries.append(
                RepairEntry(
                    RULE_FRAGMENT_ORDER, ent.id, format_offsets(ent.fragments), format_offsets(ordered)
                )
            )
            entities.append(fixed)
        else:
            entities.append(ent)
    out = replace(doc, entities=tuple(entities))
    return out, RepairLog(doc.doc_id, tuple(entries))


def _is_word(ch: str) -> bool:
    return ch.isalnum()


def _ends_at_boundary(text: str, end: int) -> bool:
    # a span end splits a word when letters sit on both sides of it
    return end >= len(text) or not (_is_word(text[end - 1]) and _is_word(text[end]))


def _fix_entity_span(text: str, ent: EntityMention) -> tuple[EntityMention, RepairEntry | None]:
    slices = ent.slice_text(text)
    *head, (last_start, last_end) = ent.fragments

    def described(e: EntityMention) -> str:
        return f"{format_offsets(e.fragments)}|{e.surface_text}"

    if slices == ent.surface_text:
        # offsets and recorded surface agree but may both stop one character
        # short of the word they cover ("...diseas" for "...disease")
        if (
            last_end < len(text)
            and _is_word(text[last_end])
            and _is_word(text[last_end - 1])
            and _ends_at_boundary(text, last_end + 1)
        ):
            fixed = replace(ent, fragments=(*head, (last_start, last_end + 1)))
            fixed = replace(fixed, surface_text=fixed.slice_text(text))
            return fixed, RepairEntry(RULE_SPAN_BOUNDARY, ent.id, described(ent), described(fixed))
        return ent, None

    # surface and slice disagree: try a one-character end adjustment that
    # reconciles them at a word boundary, else trust the document text
    for new_end in (last_end + 1, last_end - 1):
        if new_end <= last_start or new_end > len(text):
            continue
        candidate = replace(ent, fragments=(*head, (last_start, new_end)))
        if candidate.slice_text(text) == ent.surface_text and _ends_at_boundary(text, new_end):
            return candidate, RepairEntry(RULE_SPAN_BOUNDARY, ent.id, described(ent), described(candidate))

    fixed = replace(ent, surface_text=slices)
    return fixed, RepairEntry(RULE_SPAN_BOUNDARY, ent.id, described(ent), described(fixed))


def fix_span_boundaries(doc: AnnotatedDocument) -> tuple[AnnotatedDocument, RepairLog]:
    """Reconcile every entity's document slice with its recorded surface text."""
    entries = []
    entities = []
    for ent in doc.entities:
        fixed, entry = _fix_entity_span(doc.text, ent)
        entities.append(fixed)
        if entry is not None:
            entries.append(entry)
    out = replace(doc, entities=tuple(entities))
    return out, RepairLog(doc.doc_id, tuple(entries))


def fix_relation_arguments(doc: AnnotatedDocument) -> tuple[AnnotatedDocument, RepairLog]:
    """Strip one trailing zero from dangling entity references.

    Applies only when the stripped id exists in the document. Anything else
    stays dangling and is logged with after = "UNRESOLVED"; such relations
    are excluded from downstream encoding and scoring.
    """
    entries = []
    relations = []
    for rel in doc.relations:
        new_refs = {}
        for slot, ref in (("Arg1", rel.subject_ref), ("Arg2", rel.object_ref)):
            if ref in doc.entity_map:
                continue
            stripped = ref[:-1]
            if _TRAILING_ZERO_RE.match(ref) and stripped in doc.entity_map:
                new_refs[slot] = stripped
                entries.append(RepairEntry(RULE_RELATION_ARGUMENT, rel.id, ref, stripped))
            else:
                entries.append(RepairEntry(RULE_RELATION_ARGUMENT, rel.id, ref, "UNRESOLVED"))
        if new_refs:
            relations.append(
                replace(
                    rel,
                    subject_ref=new_refs.get("Arg1", rel.subject_ref),
                    object_ref=new_refs.get("Arg2", rel.object_ref),
                )
            )
        else:
            relations.append(rel)
    out = replace(doc, relations=tuple(relations))
    return out, RepairLog(doc.doc_id, tuple(entries))


def repair_all(doc: AnnotatedDocument) -> tuple[AnnotatedDocument, RepairLog]:
    """fix_fragment_order, then fix_span_boundaries, then fix_relation_arguments."""
    doc, log1 = fix_fragment_order(doc)
    doc, log2 = fix_span_boundaries(doc)
    doc, log3 = fix_relation_arguments(doc)
    return doc, RepairLog(doc.doc_id, log1.entries + log2.entries + log3.entries)


@dataclass(frozen=True)
class RepairSummary:
    """Corpus-level repair rates, measured on pre-repair documents."""

    total_relations: int
    relations_argument_fixed: int
    relations_unresolvable: int
    total_entities: int
    entities_span_fixed: int
    entities_fragment_reordered: int

    @property
    def relation_argument_rate(self) -> float:
        return self.relations_argument_fixed / self.total_relations if self.total_relations else 0.0

    @property
    def span_boundary_rate(self) -> float:
        return self.entities_span_fixed / self.total_entities if self.total_entities else 0.0


def summarize_repairs(docs_with_logs: list[tuple[AnnotatedDocument, RepairLog]]) -> RepairSummary:
    """Aggregate repair rates. Documents must carry their pre-repair counts."""
    total_relations = 0
    total_entities = 0
    arg_fixed: set[tuple[str, str]] = set()
    unresolvable: set[tuple[str, str]] = set()
    span_fixed: set[tuple[str, str]] = set()
    reordered: set[tuple[str, str]] = set()
    for doc, log in docs_with_logs:
        total_relations += len(doc.relations)
        total_entities += len(doc.entities)
        for e in log.entries:
            key = (log.doc_id, e.target_id)
            if e.rule == RULE_RELATION_ARGUMENT:
                (unresolvable if e.after == "UNRESOLVED" else arg_fixed).add(key)
            elif e.rule == RULE_SPAN_BOUNDARY:
                span_fixed.add(key)
            elif e.rule == RULE_FRAGMENT_ORDER:
                reordered.add(key)
    return RepairSummary(
        total_relations=total_relations,
        relations_argument_fixed=len(arg_fixed),
        relations_unresolvable=len(unresolvable - arg_fixed),
        total_entities=total_entities,
        entities_span_fixed=len(span_fixed),
        entities_fragment_reordered=len(reordered),
    )


def repair_log_text(logs: list[RepairLog], where: str | Path) -> str:
    """Line-oriented audit file: `<doc_id> <rule> <target_id> <before> -> <after>`."""
    return join_records((line for log in logs for line in log.lines()), where)
