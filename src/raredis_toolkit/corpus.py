"""Entity shape classification, corpus statistics, and train/dev/test splits."""

from __future__ import annotations

import json
import random
from collections import Counter
from collections.abc import Collection, Iterable, Iterator
from dataclasses import dataclass
from pathlib import Path
from typing import TypeVar

from .errors import SplitError
from .standoff import ENTITY_TYPES, PREDICATES, AnnotatedDocument, DocumentFiles
from .standoff import iter_records, join_records

SHAPE_FLAT = "flat"
SHAPE_DISCONTINUOUS = "discontinuous"
SHAPE_OVERLAPPED = "overlapped"
SHAPE_NESTED = "nested"
SHAPE_CLASSES = (SHAPE_FLAT, SHAPE_DISCONTINUOUS, SHAPE_OVERLAPPED, SHAPE_NESTED)

# Splits read only doc ids, so a corpus may be parsed or already written out.
_Doc = TypeVar("_Doc", AnnotatedDocument, DocumentFiles)


def document_shapes(doc: AnnotatedDocument) -> dict[str, str]:
    """Assign exactly one shape class to every entity of a document, by id.

    Precedence: discontinuous (>= 2 fragments) beats nested (covering span
    strictly inside another entity's covering span) beats overlapped (shares
    any character with another covering span, identical spans included)
    beats flat. Comparisons use covering spans, so the result does not depend
    on the order of the entities.

    One sort and one sweep over the distinct covering spans, in (start
    ascending, end descending) order: every span that strictly contains the
    current one comes before it, so the running maximum of their ends says
    whether it is nested; a span before it overlaps it exactly when that
    maximum passes its start, and a span after it exactly when the next one
    begins before its end. Fragments are non-empty, as `parse_document`
    requires.
    """
    spans = [e.covering_span for e in doc.entities]
    counts = Counter(spans)
    ordered = sorted(counts, key=lambda span: (span[0], -span[1]))
    shape_of_span = {}
    reach = -1  # the largest end of the spans before the current one
    for i, (start, end) in enumerate(ordered):
        if reach >= end:
            shape = SHAPE_NESTED
        elif (
            counts[start, end] > 1
            or reach > start
            or (i + 1 < len(ordered) and ordered[i + 1][0] < end)
        ):
            shape = SHAPE_OVERLAPPED
        else:
            shape = SHAPE_FLAT
        shape_of_span[start, end] = shape
        reach = max(reach, end)
    return {
        e.id: SHAPE_DISCONTINUOUS if e.is_discontinuous else shape_of_span[span]
        for e, span in zip(doc.entities, spans)
    }


@dataclass(frozen=True)
class CorpusStats:
    documents: int
    entity_counts: dict[str, int]
    relation_counts: dict[str, int]
    shape_counts: dict[str, int]

    @property
    def total_entities(self) -> int:
        return sum(self.entity_counts.values())

    @property
    def total_relations(self) -> int:
        return sum(self.relation_counts.values())

    def to_dict(self) -> dict:
        return {
            "documents": self.documents,
            "entities": dict(self.entity_counts),
            "relations": dict(self.relation_counts),
            "shapes": dict(self.shape_counts),
            "total_entities": self.total_entities,
            "total_relations": self.total_relations,
        }


def corpus_statistics(split: Iterable[AnnotatedDocument]) -> CorpusStats:
    """Exact counts of documents, entities by type, relations by predicate,
    and shapes, taking each document once."""
    documents = 0
    entity_counts = {t: 0 for t in ENTITY_TYPES}
    relation_counts = {p: 0 for p in PREDICATES}
    shape_counts = {s: 0 for s in SHAPE_CLASSES}
    for doc in split:
        documents += 1
        shapes = document_shapes(doc)
        for ent in doc.entities:
            entity_counts[ent.entity_type] += 1
            shape_counts[shapes[ent.id]] += 1
        for rel in doc.relations:
            relation_counts[rel.predicate] += 1
    return CorpusStats(documents, entity_counts, relation_counts, shape_counts)


def format_stats(name: str, stats: CorpusStats) -> str:
    """Human-readable table: one column headed name, rows keyed like the counts."""
    rows: list[tuple[str, int]] = [("documents", stats.documents)]
    rows += [(t, stats.entity_counts[t]) for t in ENTITY_TYPES]
    rows += [(p, stats.relation_counts[p]) for p in PREDICATES]
    rows += [(c, stats.shape_counts[c]) for c in SHAPE_CLASSES]
    rows += [("total entities", stats.total_entities), ("total relations", stats.total_relations)]
    label_w = max(len(label) for label, _ in rows)
    col_w = max(8, len(name))
    lines = [" " * label_w + f"  {name:>{col_w}}"]
    lines += [f"{label:<{label_w}}  {value:>{col_w}}" for label, value in rows]
    return "\n".join(lines) + "\n"


def stats_json(name: str, stats: CorpusStats) -> str:
    return json.dumps({name: stats.to_dict()}, indent=2) + "\n"


def _check_listed(entries: Iterable[tuple[str, str]], known: Collection[str] | None = None) -> None:
    """Raise SplitError for the first (where, doc_id) entry whose doc_id an
    earlier entry lists or, if known is given, is not in it; where begins the message."""
    seen: set[str] = set()
    for where, doc_id in entries:
        if known is not None and doc_id not in known:
            raise SplitError(f"{where}split list references unknown doc_id {doc_id}")
        if doc_id in seen:
            raise SplitError(f"{where}doc_id {doc_id} appears in more than one list")
        seen.add(doc_id)


@dataclass(frozen=True)
class SplitSpec:
    """Either ratio mode (shuffle by seed, cut at boundaries) or explicit lists."""

    mode: str  # "ratio" | "file_list"
    ratios: tuple[float, float, float] | None = None
    lists: tuple[tuple[str, ...], tuple[str, ...], tuple[str, ...]] | None = None
    seed: int = 0

    def __post_init__(self):
        if self.mode == "ratio":
            if self.ratios is None:
                raise SplitError("ratio mode requires ratios")
            if not all(r >= 0 for r in self.ratios):  # also rejects NaN
                raise SplitError("ratios must be non-negative")
            if abs(sum(self.ratios) - 1.0) > 1e-9:
                raise SplitError(f"ratios must sum to 1, got {sum(self.ratios)}")
        elif self.mode == "file_list":
            if self.lists is None:
                raise SplitError("file_list mode requires three doc_id lists")
            _check_listed(("", doc_id) for part in self.lists for doc_id in part)
        else:
            raise SplitError(f"unknown split mode {self.mode!r}")


def split_corpus(corpus: list[_Doc], spec: SplitSpec) -> tuple[list[_Doc], list[_Doc], list[_Doc]]:
    """Partition a corpus into (train, dev, test); every document lands once."""
    if not corpus:
        raise SplitError("corpus is empty")
    by_id = {doc.doc_id: doc for doc in corpus}

    if spec.mode == "ratio":
        ids = sorted(by_id)
        random.Random(spec.seed).shuffle(ids)
        n = len(ids)
        r1, r2, _ = spec.ratios
        cut1 = int(n * r1 + 1e-9)
        cut2 = int(n * (r1 + r2) + 1e-9)
        parts = (ids[:cut1], ids[cut1:cut2], ids[cut2:])
    else:
        _check_listed((("", doc_id) for part in spec.lists for doc_id in part), by_id)
        covered = {doc_id for part in spec.lists for doc_id in part}
        missing = sorted(set(by_id) - covered)
        if missing:
            raise SplitError(f"documents not covered by any list: {', '.join(missing)}")
        parts = spec.lists

    return tuple([by_id[i] for i in part] for part in parts)


def read_manifests(paths: tuple[str | Path, ...], corpus: list[_Doc]) -> tuple[tuple[str, ...], ...]:
    """The doc_ids of newline-separated manifest files, blank lines ignored,
    checked as split_corpus checks them; an error names the manifest line."""
    entries = [
        [(f"{path}:{n}: ", line.strip()) for n, line in enumerate(iter_records(path), 1) if line.strip()]
        for path in paths
    ]
    _check_listed((entry for part in entries for entry in part), {doc.doc_id for doc in corpus})
    return tuple(tuple(doc_id for _, doc_id in part) for part in entries)


def manifest_text(docs: list[_Doc], where: str | Path) -> Iterator[str]:
    return join_records(sorted(doc.doc_id for doc in docs), where)
