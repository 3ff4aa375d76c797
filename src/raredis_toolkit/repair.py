"""Corrective procedures for known annotation defects.

Three rules, which repair_all applies in one pass over a document:

  fragment_order     — fragments of a discontinuous entity listed out of
                       left-to-right order are sorted.
  span_boundary      — a span end off by one character (a missing or extra
                       trailing character) is nudged to the word boundary;
                       anything larger falls back to rewriting the recorded
                       surface text from the document slice.
  relation_argument  — a dangling entity reference carrying a trailing
                       extra zero (T90 where only T9 exists) is stripped.

After repair_all every entity satisfies: fragments strictly increasing and
non-overlapping, document slices joined by single spaces equal the surface
text, and that surface is not blank and fits on an .ann line. repair_all
raises RepairError for an entity it cannot bring there.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, replace
from pathlib import Path

from .errors import RepairError
from .standoff import UNWRITABLE_SURFACE, AnnotatedDocument, EntityMention, format_offsets, is_ann_id
from .standoff import is_ann_surface, join_records, slices_text
from .triples import is_blank

RULE_RELATION_ARGUMENT = "relation_argument"
RULE_SPAN_BOUNDARY = "span_boundary"
RULE_FRAGMENT_ORDER = "fragment_order"


RepairEntry = namedtuple("RepairEntry", "rule target_id before after")


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


def _sort_fragments(doc: AnnotatedDocument, ent: EntityMention) -> tuple[EntityMention, RepairEntry | None]:
    """Sort fragments by (start, end) and rebuild the surface; overlaps raise RepairError."""
    ordered = tuple(sorted(ent.fragments))
    for (_, prev_end), (next_start, _) in zip(ordered, ordered[1:]):
        if prev_end > next_start:
            raise RepairError(doc.doc_id, f"entity {ent.id} has overlapping fragments {format_offsets(ordered)}")
    if ordered == ent.fragments:
        return ent, None
    fixed = ent._replace(fragments=ordered, surface_text=slices_text(doc.text, ordered))
    return fixed, RepairEntry(
        RULE_FRAGMENT_ORDER, ent.id, format_offsets(ent.fragments), format_offsets(ordered)
    )


def _ends_at_boundary(text: str, end: int) -> bool:
    # a span end splits a word when letters sit on both sides of it
    return end >= len(text) or not (text[end - 1].isalnum() and text[end].isalnum())


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
            and text[last_end].isalnum()
            and text[last_end - 1].isalnum()
            and _ends_at_boundary(text, last_end + 1)
        ):
            fragments = (*head, (last_start, last_end + 1))
            fixed = ent._replace(fragments=fragments, surface_text=slices_text(text, fragments))
            return fixed, RepairEntry(RULE_SPAN_BOUNDARY, ent.id, described(ent), described(fixed))
        return ent, None

    # surface and slice disagree: try a one-character end adjustment that
    # reconciles them at a word boundary, else trust the document text
    for new_end in (last_end + 1, last_end - 1):
        if new_end <= last_start or new_end > len(text):
            continue
        candidate = ent._replace(fragments=(*head, (last_start, new_end)))
        if candidate.slice_text(text) == ent.surface_text and _ends_at_boundary(text, new_end):
            return candidate, RepairEntry(RULE_SPAN_BOUNDARY, ent.id, described(ent), described(candidate))

    fixed = ent._replace(surface_text=slices)
    return fixed, RepairEntry(RULE_SPAN_BOUNDARY, ent.id, described(ent), described(fixed))


def repair_all(doc: AnnotatedDocument) -> tuple[AnnotatedDocument, RepairLog]:
    """Fix each entity (fragment order, then span), then each relation's arguments.

    A reference left dangling is logged as "UNRESOLVED". The log lists all
    fragment_order, then span_boundary, then relation_argument entries.
    """
    reordered, respanned, rerouted = [], [], []
    entities = []
    for ent in doc.entities:
        ent, order_entry = _sort_fragments(doc, ent)
        ent, span_entry = _fix_entity_span(doc.text, ent)
        # what every entity's surface must be: one an .ann line and a triple can hold
        if not is_ann_surface(ent.surface_text):
            raise RepairError(doc.doc_id, f"entity {ent.id}: repaired {UNWRITABLE_SURFACE}")
        if is_blank(ent.surface_text):
            raise RepairError(doc.doc_id, f"entity {ent.id}: repaired surface is blank, which no triple can hold")
        entities.append(ent)
        reordered.append(order_entry)
        respanned.append(span_entry)
    known = {ent.id for ent in entities}  # ids never change; doc.entity_map would stay cached on the input
    relations = []
    for rel in doc.relations:
        fixed_refs = {}
        for slot, ref in (("subject_ref", rel.subject_ref), ("object_ref", rel.object_ref)):
            if ref not in known:
                stripped = ref[:-1]  # T90 -> T9
                fixable = ref.endswith("0") and is_ann_id(stripped, "T") and stripped in known
                after = stripped if fixable else "UNRESOLVED"
                rerouted.append(RepairEntry(RULE_RELATION_ARGUMENT, rel.id, ref, after))
                if after != "UNRESOLVED":
                    fixed_refs[slot] = after
        relations.append(rel._replace(**fixed_refs) if fixed_refs else rel)
    out = replace(doc, entities=tuple(entities), relations=tuple(relations))
    return out, RepairLog(doc.doc_id, tuple(e for e in reordered + respanned + rerouted if e))


@dataclass(frozen=True)
class RepairSummary:
    """Corpus-level repair counts and rates."""

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


def summarize_repairs(results: Iterable[tuple[AnnotatedDocument, RepairLog]]) -> RepairSummary:
    """Count the (repaired document, log) pairs repair_all returns.

    Repair keeps every entity and relation, so the totals are the repaired
    documents'. Each entity rule logs at most once per entity, so its count
    is its number of log entries. A relation is argument-fixed when one of
    its arguments was rerouted, and unresolvable when the repaired document
    still lists it in unresolved_refs: exactly the relations encoding skips.
    """
    total_relations = total_entities = unresolvable = 0
    rules: Counter[str] = Counter()
    arg_fixed: set[tuple[str, str]] = set()
    for doc, log in results:
        total_relations += len(doc.relations)
        total_entities += len(doc.entities)
        unresolvable += len({rel_id for rel_id, _, _ in doc.unresolved_refs})
        for e in log.entries:
            rules[e.rule] += 1
            if e.rule == RULE_RELATION_ARGUMENT and e.after != "UNRESOLVED":
                arg_fixed.add((log.doc_id, e.target_id))
    return RepairSummary(
        total_relations=total_relations,
        relations_argument_fixed=len(arg_fixed),
        relations_unresolvable=unresolvable,
        total_entities=total_entities,
        entities_span_fixed=rules[RULE_SPAN_BOUNDARY],
        entities_fragment_reordered=rules[RULE_FRAGMENT_ORDER],
    )


def repair_log_text(logs: list[RepairLog], where: str | Path) -> Iterator[str]:
    """Line-oriented audit file: `<doc_id> <rule> <target_id> <before> -> <after>`."""
    return join_records((line for log in logs for line in log.lines()), where)
