"""Strict exact-match scoring of predicted triples against gold.

A prediction counts only when subject text, subject type, predicate, object
text, and object type all match. Both sides are duplicate-collapsed per
document first. Entity text is compared after lowercasing and whitespace
collapsing unless strict_case is set; type_agnostic drops the two entity
types from the comparison (for schemas whose targets do not carry them).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

from .errors import ToolkitError
from .standoff import PREDICATES, normalize_entity_type, normalize_predicate
from .standoff import join_records, read_file, split_records, write_outputs
from .triples import Triple, distinct_triples, normalize_text, triple_key

ERROR_PARTIAL_MATCH = "partial_match"
ERROR_TYPE_MISMATCH = "type_mismatch"
ERROR_DISCONTINUOUS_MERGE = "discontinuous_merge"
ERROR_HALLUCINATED_SPAN = "hallucinated_span"
ERROR_SPURIOUS = "spurious"
ERROR_MISSING = "missing"

PARTIAL_MATCH_JACCARD = 0.5


def collapse_duplicates(
    triples: list[Triple], strict_case: bool = False, type_agnostic: bool = False
) -> set[Triple]:
    """Distinct triples under the scoring normalization.

    The first occurrence of each triple_key is kept, its entity texts
    normalized unless strict_case is set.
    """
    firsts = distinct_triples(triples, strict_case, type_agnostic).values()
    if strict_case:
        return set(firsts)
    return {
        replace(t, subject_text=normalize_text(t.subject_text), object_text=normalize_text(t.object_text))
        for t in firsts
    }


@dataclass(frozen=True)
class PrfRow:
    tp: int
    fp: int
    fn: int

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


def score_document(
    gold: list[Triple],
    predicted: list[Triple],
    strict_case: bool = False,
    type_agnostic: bool = False,
) -> dict[str, PrfRow]:
    gold_keys = {triple_key(t, strict_case, type_agnostic) for t in gold}
    pred_keys = {triple_key(t, strict_case, type_agnostic) for t in predicted}
    # the predicate sits after the subject text, and its types when kept
    at = 1 if type_agnostic else 2
    counts = {p: [0, 0, 0] for p in PREDICATES}  # tp, fp, fn
    for k in pred_keys:
        counts[k[at]][0 if k in gold_keys else 1] += 1
    for k in gold_keys - pred_keys:
        counts[k[at]][2] += 1
    return {p: PrfRow(*c) for p, c in counts.items()}


def merge_reports(per_document: list[dict[str, PrfRow]]) -> ScoreReport:
    """Pool per-document counts, then recompute the ratios."""
    totals = {p: [0, 0, 0] for p in PREDICATES}
    for rows in per_document:
        for predicate, row in rows.items():
            totals[predicate][0] += row.tp
            totals[predicate][1] += row.fp
            totals[predicate][2] += row.fn
    return ScoreReport({p: PrfRow(*counts) for p, counts in totals.items()})


def score_corpus(
    gold_by_doc: dict[str, list[Triple]],
    pred_by_doc: dict[str, list[Triple]],
    strict_case: bool = False,
    type_agnostic: bool = False,
) -> ScoreReport:
    """Micro-pooled scoring across documents; duplicates collapse per document."""
    reports = []
    for doc_id in sorted(set(gold_by_doc) | set(pred_by_doc)):
        reports.append(
            score_document(
                gold_by_doc.get(doc_id, []),
                pred_by_doc.get(doc_id, []),
                strict_case=strict_case,
                type_agnostic=type_agnostic,
            )
        )
    return merge_reports(reports)


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


@dataclass(frozen=True)
class ErrorRecord:
    doc_id: str
    category: str
    predicted: Triple | None = None
    gold: Triple | None = None

    def to_dict(self) -> dict:
        def side(t: Triple | None):
            if t is None:
                return None
            return [t.subject_text, t.subject_type, t.predicate, t.object_text, t.object_type]

        return {
            "doc_id": self.doc_id,
            "category": self.category,
            "predicted": side(self.predicted),
            "gold": side(self.gold),
        }


def _sort_key(t: Triple) -> tuple:
    # None types sort as empty strings so mixed typed/untyped lists order fine
    return (t.subject_text, t.subject_type or "", t.predicate, t.object_text, t.object_type or "")


def _jaccard(a: str, b: str) -> float:
    ta, tb = set(a.split()), set(b.split())
    if not ta and not tb:
        return 1.0
    return len(ta & tb) / len(ta | tb)


def _pair_jaccard(fp: Triple, fn: Triple) -> float:
    return (_jaccard(fp.subject_text, fn.subject_text) + _jaccard(fp.object_text, fn.object_text)) / 2


def _spans_coordination(predicted_text: str, fns: list[Triple], role: str) -> bool:
    """Predicted text looks like two gold entities merged across an 'and'."""
    if "and" not in predicted_text.split():
        return False
    gold_texts = {
        getattr(t, role) for t in fns if _jaccard(getattr(t, role), predicted_text) >= PARTIAL_MATCH_JACCARD
    }
    return len(gold_texts) >= 2


def categorize_errors(
    gold: list[Triple],
    predicted: list[Triple],
    doc_text: str | None = None,
    doc_id: str = "",
    strict_case: bool = False,
    type_agnostic: bool = False,
) -> list[ErrorRecord]:
    """Assign every false positive and false negative to exactly one category.

    Matched FP/FN pairs are consumed greedily by descending token Jaccard.
    Hallucination detection needs the source document text; without it the
    remaining false positives fall through to "spurious".
    """
    gold_c = distinct_triples(gold, strict_case, type_agnostic)
    pred_c = distinct_triples(predicted, strict_case, type_agnostic)

    def unmatched(keys, firsts: dict[tuple, Triple]) -> list[Triple]:
        # the keys are distinct, so collapse_duplicates only normalizes texts
        return sorted(collapse_duplicates([firsts[k] for k in keys], strict_case, type_agnostic), key=_sort_key)

    fps = unmatched(pred_c.keys() - gold_c.keys(), pred_c)
    fns = unmatched(gold_c.keys() - pred_c.keys(), gold_c)
    all_fns = list(fns)
    records: list[ErrorRecord] = []

    # 1. exact texts and predicate, wrong entity type(s)
    remaining_fns = list(fns)
    unpaired_fps = []
    for fp in fps:
        hit = next(
            (
                fn
                for fn in remaining_fns
                if fn.subject_text == fp.subject_text
                and fn.object_text == fp.object_text
                and fn.predicate == fp.predicate
                and (fn.subject_type != fp.subject_type or fn.object_type != fp.object_type)
            ),
            None,
        )
        if hit is not None:
            remaining_fns.remove(hit)
            records.append(ErrorRecord(doc_id, ERROR_TYPE_MISMATCH, predicted=fp, gold=hit))
        else:
            unpaired_fps.append(fp)
    fps, fns = unpaired_fps, remaining_fns

    # 2. same predicate and types, entity texts overlapping at >= the threshold
    candidates = []
    for fp in fps:
        for fn in fns:
            if fp.predicate != fn.predicate:
                continue
            if not type_agnostic and (
                fp.subject_type != fn.subject_type or fp.object_type != fn.object_type
            ):
                continue
            js = _jaccard(fp.subject_text, fn.subject_text)
            jo = _jaccard(fp.object_text, fn.object_text)
            if min(js, jo) >= PARTIAL_MATCH_JACCARD:
                candidates.append((_pair_jaccard(fp, fn), fp, fn))
    candidates.sort(key=lambda c: (-c[0], _sort_key(c[1]), _sort_key(c[2])))
    consumed_fp: set[int] = set()
    consumed_fn: set[int] = set()
    for _, fp, fn in candidates:
        if id(fp) in consumed_fp or id(fn) in consumed_fn:
            continue
        consumed_fp.add(id(fp))
        consumed_fn.add(id(fn))
        category = ERROR_PARTIAL_MATCH
        if fp.subject_text != fn.subject_text and _spans_coordination(
            fp.subject_text, all_fns, "subject_text"
        ):
            category = ERROR_DISCONTINUOUS_MERGE
        elif fp.object_text != fn.object_text and _spans_coordination(
            fp.object_text, all_fns, "object_text"
        ):
            category = ERROR_DISCONTINUOUS_MERGE
        records.append(ErrorRecord(doc_id, category, predicted=fp, gold=fn))
    fps = [fp for fp in fps if id(fp) not in consumed_fp]
    fns = [fn for fn in fns if id(fn) not in consumed_fn]

    # 3. remaining false positives: hallucinated if a span is absent from the text
    if doc_text is None:
        reference = None
    elif strict_case:
        reference = " ".join(doc_text.split())
    else:
        reference = normalize_text(doc_text)
    for fp in fps:
        if reference is not None and (
            " ".join(fp.subject_text.split()) not in reference
            or " ".join(fp.object_text.split()) not in reference
        ):
            records.append(ErrorRecord(doc_id, ERROR_HALLUCINATED_SPAN, predicted=fp))
        else:
            records.append(ErrorRecord(doc_id, ERROR_SPURIOUS, predicted=fp))

    # 4. whatever gold remains was simply missed
    for fn in fns:
        records.append(ErrorRecord(doc_id, ERROR_MISSING, gold=fn))
    return records


def error_records_text(records: list[ErrorRecord], where: str | Path) -> str:
    """Line-oriented audit file, one JSON record per line."""
    return join_records((json.dumps(r.to_dict(), ensure_ascii=False) for r in records), where)


def _type_field(label: str, path: str | Path, line_no: int) -> str | None:
    """A triples-TSV type field: empty is unknown (None), else a known label."""
    if not label:
        return None
    entity_type = normalize_entity_type(label)
    if entity_type is None:
        raise ToolkitError(f"{path}:{line_no}: unknown entity type {label!r}")
    return entity_type


def read_triples_file(path: str | Path) -> dict[str, list[Triple]]:
    """Tab-separated triples: doc_id, subject text, subject type, predicate,
    object text, object type. Empty type fields mean the type is unknown."""
    out: dict[str, list[Triple]] = {}
    for line_no, raw in enumerate(split_records(read_file(path)), start=1):
        if not raw.strip():
            continue
        fields = raw.split("\t")
        if len(fields) != 6:
            raise ToolkitError(f"{path}:{line_no}: expected 6 tab-separated fields, got {len(fields)}")
        doc_id, s_text, s_type, predicate, o_text, o_type = fields
        pred = normalize_predicate(predicate)
        if pred is None:
            raise ToolkitError(f"{path}:{line_no}: unknown predicate {predicate!r}")
        s_typ = _type_field(s_type, path, line_no)
        o_typ = _type_field(o_type, path, line_no)
        try:
            triple = Triple(s_text, s_typ, pred, o_text, o_typ)
        except ValueError as exc:
            raise ToolkitError(f"{path}:{line_no}: {exc}") from exc
        out.setdefault(doc_id, []).append(triple)
    return out


def tsv_field_ok(text: str) -> bool:
    """Whether read_triples_file gives text back as one field: it splits
    records on line feeds and fields on tabs."""
    return "\t" not in text and "\n" not in text


def triple_writable(t: Triple) -> bool:
    """Whether a triple can be written as a triples-TSV record. Its
    predicate and types are fixed labels, so only its texts can fail."""
    return tsv_field_ok(t.subject_text) and tsv_field_ok(t.object_text)


def triples_text(triples_by_doc: dict[str, list[Triple]], where: str | Path) -> str:
    lines = []
    for doc_id in sorted(triples_by_doc):
        if not tsv_field_ok(doc_id):
            raise ToolkitError(f"doc id {doc_id!r} may not contain tabs or line feeds")
        for t in triples_by_doc[doc_id]:
            if not triple_writable(t):
                raise ToolkitError(f"{doc_id}: triple texts may not contain tabs or line feeds")
            fields = (
                doc_id,
                t.subject_text,
                t.subject_type or "",
                t.predicate,
                t.object_text,
                t.object_type or "",
            )
            lines.append("\t".join(fields))
    return join_records(lines, where)


def write_triples_file(triples_by_doc: dict[str, list[Triple]], path: str | Path) -> None:
    write_outputs([(path, triples_text(triples_by_doc, path))])
