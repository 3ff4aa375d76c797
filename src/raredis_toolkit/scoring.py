"""Strict exact-match scoring of predicted triples against gold.

A prediction counts only when subject text, subject type, predicate, object
text, and object type all match. Both sides are duplicate-collapsed per
document first. Entity text is compared after lowercasing and whitespace
collapsing unless strict_case is set; type_agnostic drops the two entity
types from the comparison (for schemas whose targets do not carry them).
"""

from __future__ import annotations

import json
from collections import namedtuple
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from pathlib import Path

from .errors import ToolkitError
from .standoff import PREDICATES, normalize_entity_type, normalize_predicate
from .standoff import iter_records, join_records, write_outputs
from .triples import Triple, collapse_whitespace, distinct_triples, triple_key

ERROR_PARTIAL_MATCH = "partial_match"
ERROR_TYPE_MISMATCH = "type_mismatch"
ERROR_DISCONTINUOUS_MERGE = "discontinuous_merge"
ERROR_HALLUCINATED_SPAN = "hallucinated_span"
ERROR_SPURIOUS = "spurious"
ERROR_MISSING = "missing"

PARTIAL_MATCH_JACCARD = 0.5


def _with_key_texts(t: Triple, key: tuple) -> Triple:
    """t with the entity texts of its triple_key (its types kept)."""
    return Triple(key[0], t.subject_type, t.predicate, key[3], t.object_type)


class PrfRow(namedtuple("PrfRow", "tp fp fn")):
    """True positives, false positives, false negatives; a named tuple, so a
    row equals the plain tuple of its three counts."""

    __slots__ = ()

    @property
    def precision(self) -> float:
        return self.tp / (self.tp + self.fp) if self.tp + self.fp else 0.0

    @property
    def recall(self) -> float:
        return self.tp / (self.tp + self.fn) if self.tp + self.fn else 0.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if p + r else 0.0


@dataclass(frozen=True)
class ScoreReport:
    per_predicate: dict[str, PrfRow]

    @property
    def micro(self) -> PrfRow:
        return PrfRow(
            sum(r.tp for r in self.per_predicate.values()),
            sum(r.fp for r in self.per_predicate.values()),
            sum(r.fn for r in self.per_predicate.values()),
        )

    def to_dict(self) -> dict:
        def row(r: PrfRow) -> dict:
            return {
                "tp": r.tp, "fp": r.fp, "fn": r.fn,
                "precision": r.precision, "recall": r.recall, "f1": r.f1,
            }

        return {
            "micro": row(self.micro),
            "per_predicate": {p: row(r) for p, r in self.per_predicate.items()},
        }


def score(
    gold: list[Triple],
    predicted: list[Triple],
    strict_case: bool = False,
    type_agnostic: bool = False,
) -> ScoreReport:
    """Score one document's predictions against its gold triples."""
    return score_corpus({"": gold}, {"": predicted}, strict_case, type_agnostic)


def score_corpus(
    gold_by_doc: dict[str, list[Triple]],
    pred_by_doc: dict[str, list[Triple]],
    strict_case: bool = False,
    type_agnostic: bool = False,
) -> ScoreReport:
    """Micro-pooled scoring across documents; duplicates collapse per document."""
    counts = {p: [0, 0, 0] for p in PREDICATES}  # tp, fp, fn
    for doc_id in gold_by_doc.keys() | pred_by_doc.keys():
        # equal triples have equal keys, so each distinct triple is keyed once
        gold_keys = {triple_key(t, strict_case, type_agnostic) for t in set(gold_by_doc.get(doc_id, ()))}
        pred_keys = {triple_key(t, strict_case, type_agnostic) for t in set(pred_by_doc.get(doc_id, ()))}
        for k in pred_keys:
            counts[k[2]][0 if k in gold_keys else 1] += 1
        for k in gold_keys - pred_keys:
            counts[k[2]][2] += 1
    return ScoreReport({p: PrfRow(*c) for p, c in counts.items()})


def format_report(report: ScoreReport) -> str:
    """Micro row plus one row per predicate."""
    header = f"{'relation':<20}{'P':>8}{'R':>8}{'F1':>8}{'TP':>6}{'FP':>6}{'FN':>6}"
    lines = [header]

    def fmt(name: str, row: PrfRow) -> str:
        return (
            f"{name:<20}{row.precision:>8.4f}{row.recall:>8.4f}{row.f1:>8.4f}"
            f"{row.tp:>6}{row.fp:>6}{row.fn:>6}"
        )

    lines.append(fmt("micro", report.micro))
    for predicate in PREDICATES:
        lines.append(fmt(predicate, report.per_predicate[predicate]))
    return "\n".join(lines) + "\n"


class ErrorRecord(namedtuple("ErrorRecord", "doc_id category predicted gold", defaults=(None, None))):
    """A false positive (predicted), a false negative (gold), or a pair of them."""

    __slots__ = ()

    def to_dict(self) -> dict:
        return {
            "doc_id": self.doc_id,
            "category": self.category,
            "predicted": None if self.predicted is None else list(self.predicted),
            "gold": None if self.gold is None else list(self.gold),
        }


def _sort_key(t: Triple) -> tuple:
    # None types sort as empty strings so mixed typed/untyped lists order fine
    return (t.subject_text, t.subject_type or "", t.predicate, t.object_text, t.object_type or "")


def _jaccard(a: frozenset[str], b: frozenset[str]) -> float:
    """Token Jaccard of two texts' token sets (never empty: see Triple)."""
    return len(a & b) / len(a | b)


def categorize_errors(
    gold: list[Triple],
    predicted: list[Triple],
    doc_text: str | None = None,
    doc_id: str = "",
    strict_case: bool = False,
    type_agnostic: bool = False,
) -> list[ErrorRecord]:
    """Assign every false positive and false negative to exactly one category.

    FP/FN pairs with equal texts are consumed first, then partial matches
    greedily by descending token Jaccard.
    Hallucination detection needs the source document text; without it the
    remaining false positives fall through to "spurious".
    """
    gold_c = distinct_triples(gold, strict_case, type_agnostic)
    pred_c = distinct_triples(predicted, strict_case, type_agnostic)
    # each unmatched key's first triple, holding the key's scoring texts
    fps, fns = (
        sorted((_with_key_texts(ours[k], k) for k in ours.keys() - theirs.keys()), key=_sort_key)
        for ours, theirs in ((pred_c, gold_c), (gold_c, pred_c))
    )
    records: list[ErrorRecord] = []
    paired: set[int] = set()  # ids of the FPs and FNs a record holds

    # 1-2. one greedy pass over candidate pairs: equal texts and predicate
    # first (FP and FN keys are disjoint, so the types differ), then same
    # predicate and types with both texts' token Jaccard >= the threshold, by
    # descending mean. Both kinds share a subject token, so candidates come
    # from a (predicate, subject token) index, built only when both sides have one.
    if fps and fns:
        tokens = {text: frozenset(text.split()) for t in fps + fns for text in (t.subject_text, t.object_text)}

        gold_texts: dict[str, set[str]] = {}  # each role's distinct FN texts, built on first use

        def spans_coordination(predicted_text: str, role: str) -> bool:
            """Predicted text looks like two gold entities merged across an 'and'."""
            pt = tokens[predicted_text]
            if "and" not in pt:
                return False
            if role not in gold_texts:
                gold_texts[role] = {getattr(t, role) for t in fns}
            return sum(_jaccard(tokens[g], pt) >= PARTIAL_MATCH_JACCARD for g in gold_texts[role]) >= 2

        by_token: dict[tuple[str, str], list[int]] = {}
        for i, fn in enumerate(fns):
            for token in tokens[fn.subject_text]:
                by_token.setdefault((fn.predicate, token), []).append(i)
        candidates = []  # (rank, -mean Jaccard, fp, fn); type mismatches rank first
        for fp in fps:
            near = {i for token in tokens[fp.subject_text] for i in by_token.get((fp.predicate, token), ())}
            for fn in map(fns.__getitem__, near):
                if fp.subject_text == fn.subject_text and fp.object_text == fn.object_text:
                    candidates.append((0, 0.0, fp, fn))
                elif type_agnostic or (fp.subject_type, fp.object_type) == (fn.subject_type, fn.object_type):
                    js = _jaccard(tokens[fp.subject_text], tokens[fn.subject_text])
                    jo = _jaccard(tokens[fp.object_text], tokens[fn.object_text])
                    if min(js, jo) >= PARTIAL_MATCH_JACCARD:
                        candidates.append((1, -(js + jo) / 2, fp, fn))
        candidates.sort(key=lambda c: (c[0], c[1], _sort_key(c[2]), _sort_key(c[3])))
        for rank, _, fp, fn in candidates:
            if id(fp) in paired or id(fn) in paired:
                continue
            paired.update((id(fp), id(fn)))
            category = ERROR_PARTIAL_MATCH if rank else ERROR_TYPE_MISMATCH  # equal texts never merge
            if (fp.subject_text != fn.subject_text and spans_coordination(fp.subject_text, "subject_text")) or (
                fp.object_text != fn.object_text and spans_coordination(fp.object_text, "object_text")
            ):
                category = ERROR_DISCONTINUOUS_MERGE
            records.append(ErrorRecord(doc_id, category, predicted=fp, gold=fn))
        fps = [fp for fp in fps if id(fp) not in paired]

    # 3. remaining false positives: hallucinated if a span is absent from the
    # text, whitespace runs collapsed on both sides (doc_text only if one remains)
    reference = None if doc_text is None or not fps else collapse_whitespace(doc_text)
    if reference is not None and not strict_case:
        reference = reference.lower()
    for fp in fps:
        absent = reference is not None and any(
            collapse_whitespace(text) not in reference for text in (fp.subject_text, fp.object_text)
        )
        records.append(ErrorRecord(doc_id, ERROR_HALLUCINATED_SPAN if absent else ERROR_SPURIOUS, predicted=fp))

    # 4. whatever gold remains was simply missed
    records.extend(ErrorRecord(doc_id, ERROR_MISSING, gold=fn) for fn in fns if id(fn) not in paired)
    return records


# what json.dumps(..., ensure_ascii=False) gives, without building an encoder per record
_to_json = json.JSONEncoder(ensure_ascii=False).encode


def error_records_text(records: Iterable[ErrorRecord], where: str | Path) -> Iterator[str]:
    """Line-oriented audit file, one JSON record per line, each made as its record is taken."""
    return join_records((_to_json(r.to_dict()) for r in records), where)


def read_triples_file(path: str | Path) -> dict[str, list[Triple]]:
    """Tab-separated triples: doc_id, subject text, subject type, predicate,
    object text, object type. Empty type fields mean the type is unknown.

    The file is read a block of lines at a time (standoff.iter_records) and
    each line dropped once parsed, so the triples are never held beside the
    file's text or its lines whole. An entity text repeated in the file is
    held once: each is the first str of its spelling."""
    out: dict[str, list[Triple]] = {}
    types: dict[str, str | None] = {"": None}  # each type spelling looked up once per file
    texts: dict[str, str] = {}
    for line_no, raw in enumerate(iter_records(path), start=1):
        if not raw.strip():
            continue
        fields = raw.split("\t")
        if len(fields) != 6:
            raise ToolkitError(f"{path}:{line_no}: expected 6 tab-separated fields, got {len(fields)}")
        doc_id, s_text, s_type, predicate, o_text, o_type = fields
        pred = normalize_predicate(predicate)
        if pred is None:
            raise ToolkitError(f"{path}:{line_no}: unknown predicate {predicate!r}")
        for label in (s_type, o_type):
            if label not in types:
                types[label] = normalize_entity_type(label)
                if types[label] is None:
                    raise ToolkitError(f"{path}:{line_no}: unknown entity type {label!r}")
        s_text, o_text = texts.setdefault(s_text, s_text), texts.setdefault(o_text, o_text)
        try:
            triple = Triple(s_text, types[s_type], pred, o_text, types[o_type])
        except ValueError as exc:
            raise ToolkitError(f"{path}:{line_no}: {exc}") from exc
        out.setdefault(doc_id, []).append(triple)
    return out


def tsv_field_ok(text: str) -> bool:
    """Whether read_triples_file gives text back as one field: it splits
    records on line feeds and fields on tabs."""
    return "\t" not in text and "\n" not in text


def triple_writable(t: Triple) -> bool:
    """Whether a triple can be written as a triples-TSV record. Its predicate
    and types are fixed labels, so only its texts can fail."""
    return tsv_field_ok(t.subject_text) and tsv_field_ok(t.object_text)


def triples_text(docs: Iterable[tuple[str, list[Triple]]], where: str | Path) -> Iterator[str]:
    """Triples-TSV chunks for write_outputs: each (doc_id, triples) item's
    records, in the order the items come, made and checked as each is taken."""
    return join_records(_triple_records(docs), where)


def _triple_records(docs: Iterable[tuple[str, list[Triple]]]) -> Iterator[str]:
    for doc_id, triples in docs:
        if not tsv_field_ok(doc_id):
            raise ToolkitError(f"doc id {doc_id!r} may not contain tabs or line feeds")
        for t in triples:
            if not triple_writable(t):
                raise ToolkitError(f"{doc_id}: triple texts may not contain tabs or line feeds")
            yield "\t".join(
                (doc_id, t.subject_text, t.subject_type or "", t.predicate, t.object_text, t.object_type or "")
            )


def write_triples_file(triples_by_doc: dict[str, list[Triple]], path: str | Path) -> None:
    """Write the triples of every document, in doc_id order, as a triples TSV file."""
    docs = ((doc_id, triples_by_doc[doc_id]) for doc_id in sorted(triples_by_doc))
    write_outputs([(path, triples_text(docs, path))])
