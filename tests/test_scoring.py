"""Scoring and error categories.

The oracle below is the categorize_errors that keyed its exact-text pairing
and tokenized texts once per call: a linear scan of the remaining false
negatives for each false positive, with every Jaccard computed from the raw
texts. The rewrite must give the same records in the same order.
"""

import copy
import pickle
import random
import re
import tempfile
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import raredis_toolkit
from raredis_toolkit.errors import ToolkitError
from raredis_toolkit.scoring import (
    ERROR_DISCONTINUOUS_MERGE,
    ERROR_HALLUCINATED_SPAN,
    ERROR_MISSING,
    ERROR_PARTIAL_MATCH,
    ERROR_SPURIOUS,
    ERROR_TYPE_MISMATCH,
    categorize_errors,
    document_diff,
    PARTIAL_MATCH_JACCARD,
    ErrorRecord,
    PrfRow,
    ScoreReport,
    format_report,
    read_triples_file,
    score,
    score_corpus,
    write_triples_file,
)
from raredis_toolkit import standoff
from raredis_toolkit.standoff import ENTITY_TYPES, PREDICATES, normalize_entity_type, normalize_predicate
from raredis_toolkit.triples import Triple, distinct_triples, normalize_text, triple_key
from conftest import LINE_BREAK_ALPHABET

A = Triple("alpha syndrome", "rare_disease", "produces", "tremor", "sign")
B = Triple("alpha syndrome", "rare_disease", "is_a", "metabolic disorder", "disease")
C = Triple("beta disease", "disease", "produces", "fever", "sign")


def brute_force_counts(gold: list[Triple], predicted: list[Triple]) -> tuple[int, int, int]:
    """Independent oracle: dedupe by scanning, count exact five-field matches."""

    def norm(t: Triple) -> tuple:
        clean = lambda s: " ".join(s.split()).lower()
        return (clean(t.subject_text), t.subject_type, t.predicate, clean(t.object_text), t.object_type)

    def dedupe(items: list[Triple]) -> list[tuple]:
        seen: list[tuple] = []
        for item in items:
            key = norm(item)
            if not any(key == other for other in seen):
                seen.append(key)
        return seen

    gold_d, pred_d = dedupe(gold), dedupe(predicted)
    tp = 0
    for g in gold_d:
        for p in pred_d:
            if g == p:
                tp += 1
                break
    return tp, len(pred_d) - tp, len(gold_d) - tp


def random_triples(rng: random.Random, n: int) -> list[Triple]:
    words = ["tremor", "fever", "rash", "pain", "Weakness", "ataxia", "nodules"]
    out = []
    for _ in range(n):
        out.append(
            Triple(
                " ".join(rng.sample(words, rng.randint(1, 2))),
                rng.choice(ENTITY_TYPES),
                rng.choice(PREDICATES),
                " ".join(rng.sample(words, rng.randint(1, 2))),
                rng.choice(ENTITY_TYPES),
            )
        )
    return out


class TestCollapse:
    def test_duplicates_removed(self):
        assert distinct_triples([A, A, B]) == distinct_triples([A, B])
        assert len(distinct_triples([A, A, B])) == 2

    def test_same_relation_at_two_spans_is_one_triple(self):
        # two annotations over different offsets carry the same five fields
        assert len(distinct_triples([A, Triple("alpha syndrome", "rare_disease", "produces", "tremor", "sign")])) == 1

    def test_case_difference_collapses_by_default(self):
        shouty = Triple("ALPHA  syndrome", "rare_disease", "produces", "Tremor", "sign")
        assert len(distinct_triples([A, shouty])) == 1
        assert len(distinct_triples([A, shouty], strict_case=True)) == 2

    def test_order_independent(self):
        assert distinct_triples([A, B, C]) == distinct_triples([C, B, A])


class TestScore:
    def test_hand_counted_fixture(self):
        report = score([A, B], [A, C])
        assert (report.micro.tp, report.micro.fp, report.micro.fn) == (1, 1, 1)
        assert report.micro.precision == 0.5
        assert report.micro.recall == 0.5
        assert report.micro.f1 == 0.5

    def test_perfect_prediction(self):
        report = score([A, B], [B, A])
        assert report.micro.precision == report.micro.recall == report.micro.f1 == 1.0

    def test_empty_prediction(self):
        report = score([A, B], [])
        assert report.micro.precision == 0.0
        assert report.micro.recall == 0.0
        assert report.micro.f1 == 0.0

    def test_empty_gold_and_prediction(self):
        report = score([], [])
        assert (report.micro.precision, report.micro.recall, report.micro.f1) == (0.0, 0.0, 0.0)

    def test_type_agnostic_mode(self):
        wrong_type = Triple("alpha syndrome", "disease", "produces", "tremor", "sign")
        assert score([A], [wrong_type]).micro.tp == 0
        assert score([A], [wrong_type], type_agnostic=True).micro.tp == 1

    def test_strict_case_mode(self):
        cased = Triple("Alpha Syndrome", "rare_disease", "produces", "tremor", "sign")
        assert score([A], [cased]).micro.tp == 1
        assert score([A], [cased], strict_case=True).micro.tp == 0

    def test_matches_brute_force_oracle_randomized(self):
        rng = random.Random(13)
        for _ in range(1000):
            gold = random_triples(rng, rng.randint(0, 10))
            pred = random_triples(rng, rng.randint(0, 10))
            report = score(gold, pred)
            assert (report.micro.tp, report.micro.fp, report.micro.fn) == brute_force_counts(gold, pred)

    def test_symmetry_swaps_precision_and_recall(self):
        rng = random.Random(17)
        for _ in range(200):
            gold = random_triples(rng, rng.randint(0, 8))
            pred = random_triples(rng, rng.randint(0, 8))
            fwd = score(gold, pred).micro
            rev = score(pred, gold).micro
            assert fwd.precision == rev.recall and fwd.recall == rev.precision

    def test_counts_tie_out_with_collapsed_sizes(self):
        rng = random.Random(19)
        for _ in range(200):
            gold = random_triples(rng, rng.randint(0, 8))
            pred = random_triples(rng, rng.randint(0, 8))
            m = score(gold, pred).micro
            assert m.tp + m.fn == len(distinct_triples(gold))
            assert m.tp + m.fp == len(distinct_triples(pred))

    def test_micro_equals_sum_of_predicate_rows(self):
        rng = random.Random(23)
        gold = random_triples(rng, 10)
        pred = random_triples(rng, 10)
        report = score(gold, pred)
        assert report.micro.tp == sum(r.tp for r in report.per_predicate.values())
        assert report.micro.fp == sum(r.fp for r in report.per_predicate.values())
        assert report.micro.fn == sum(r.fn for r in report.per_predicate.values())

    def test_corpus_scoring_does_not_collapse_across_documents(self):
        # the same triple in two documents counts twice
        report = score_corpus({"d1": [A], "d2": [A]}, {"d1": [A], "d2": []})
        assert (report.micro.tp, report.micro.fn) == (1, 1)
        assert report.micro.recall == 0.5

    def test_score_corpus_pools_counts_across_documents(self):
        pooled = score_corpus({"d1": [A], "d2": [B]}, {"d1": [A], "d2": [C]}).micro
        assert (pooled.tp, pooled.fp, pooled.fn) == (1, 1, 1)

    def test_a_row_is_the_tuple_of_its_counts(self):
        row = PrfRow(1, 1, 2)
        assert row == (1, 1, 2) and hash(row) == hash((1, 1, 2))
        assert (row.tp, row.fp, row.fn, row.precision, row.recall) == (1, 1, 2, 0.5, 1 / 3)
        with pytest.raises(AttributeError):
            row.tp = 2

    def test_report_table_has_micro_and_six_predicate_rows(self):
        table = format_report(score([A, B], [A, C]))
        lines = table.strip().splitlines()
        assert len(lines) == 8  # header + micro + six predicates
        assert lines[1].startswith("micro")


class TestErrorCategories:
    def test_identical_sets_give_no_records(self):
        assert categorize_errors([A, B], [B, A]) == []

    def test_superstring_object_is_partial_match(self):
        gold = Triple("SSPE", "rare_disease", "is_a", "neurological disorder", "disease")
        pred = Triple("SSPE", "rare_disease", "is_a", "progressive neurological disorder", "disease")
        records = categorize_errors([gold], [pred])
        assert [r.category for r in records] == [ERROR_PARTIAL_MATCH]
        assert records[0].predicted is not None and records[0].gold is not None

    def test_type_mismatch_pairs_fp_with_fn(self):
        pred = Triple("alpha syndrome", "disease", "produces", "tremor", "sign")
        records = categorize_errors([A], [pred])
        assert [r.category for r in records] == [ERROR_TYPE_MISMATCH]

    def test_hallucinated_span_needs_document_text(self):
        doc_text = "Gorlin disease often causes muscle twitching."
        gold = Triple("Gorlin disease", "disease", "produces", "muscle twitching", "sign")
        pred = Triple("Gorlin disease", "disease", "produces", "muscle weakness", "sign")
        with_text = categorize_errors([gold], [pred], doc_text=doc_text)
        # jaccard("muscle twitching", "muscle weakness") = 1/3 < 0.5: no pairing
        assert sorted(r.category for r in with_text) == [ERROR_HALLUCINATED_SPAN, ERROR_MISSING]
        without_text = categorize_errors([gold], [pred])
        assert sorted(r.category for r in without_text) == [ERROR_MISSING, ERROR_SPURIOUS]

    def test_coordination_merge_flagged(self):
        g1 = Triple("Norrie disease", "disease", "produces", "abnormally long, thin fingers", "sign")
        g2 = Triple("Norrie disease", "disease", "produces", "abnormally long, thin toes", "sign")
        pred = Triple("Norrie disease", "disease", "produces", "abnormally long, thin fingers and toes", "sign")
        records = categorize_errors([g1, g2], [pred])
        cats = sorted(r.category for r in records)
        assert ERROR_DISCONTINUOUS_MERGE in cats
        assert ERROR_MISSING in cats

    def test_type_agnostic_duplicates_keep_the_first_occurrence(self):
        first = Triple("x", "disease", "produces", "y", "sign")
        second = Triple("x", "symptom", "produces", "y", "sign")
        records = categorize_errors([first, second], [], type_agnostic=True)
        assert [r.gold for r in records] == [first]
        assert list(distinct_triples([first, second], type_agnostic=True).values()) == [first]

    def test_spurious_and_missing_fallbacks(self):
        records = categorize_errors([A], [C], doc_text="beta disease causes fever and more")
        assert sorted(r.category for r in records) == [ERROR_MISSING, ERROR_SPURIOUS]

    def test_hallucination_check_respects_case_modes(self):
        doc_text = "Gorlin Disease causes tremor."
        gold = Triple("Gorlin Disease", "disease", "produces", "tremor", "sign")
        pred = Triple("gorlin disease", "disease", "is_a", "tremor", "sign")
        # default mode: lowercased prediction still counts as present in the text
        default = categorize_errors([gold], [pred], doc_text=doc_text)
        assert sorted(r.category for r in default) == [ERROR_MISSING, ERROR_SPURIOUS]
        # strict mode: the lowercased span no longer occurs verbatim
        strict = categorize_errors([gold], [pred], doc_text=doc_text, strict_case=True)
        assert sorted(r.category for r in strict) == [ERROR_HALLUCINATED_SPAN, ERROR_MISSING]

    def test_every_fp_and_fn_lands_in_exactly_one_record(self):
        rng = random.Random(29)
        for _ in range(300):
            gold = random_triples(rng, rng.randint(0, 8))
            pred = random_triples(rng, rng.randint(0, 8))
            m = score(gold, pred).micro
            records = categorize_errors(gold, pred)
            n_fp = sum(1 for r in records if r.predicted is not None)
            n_fn = sum(1 for r in records if r.gold is not None)
            assert n_fp == m.fp
            assert n_fn == m.fn

    @given(st.text(alphabet="ab ", max_size=30), st.text(alphabet="ab ", max_size=30))
    @settings(max_examples=200, deadline=None)
    def test_pairing_handles_arbitrary_entity_texts(self, s1, s2):
        if not s1.strip() or not s2.strip():
            return
        gold = [Triple(s1, "sign", "produces", s2, "sign")]
        pred = [Triple(s2, "sign", "produces", s1, "sign")]
        records = categorize_errors(gold, pred)
        m = score(gold, pred).micro
        assert sum(1 for r in records if r.predicted is not None) == m.fp
        assert sum(1 for r in records if r.gold is not None) == m.fn


def _oracle_sort_key(t: Triple) -> tuple:
    return (t.subject_text, t.subject_type or "", t.predicate, t.object_text, t.object_type or "")


def _oracle_jaccard(a: str, b: str) -> float:
    ta, tb = set(a.split()), set(b.split())
    if not ta and not tb:
        return 1.0
    return len(ta & tb) / len(ta | tb)


def _oracle_pair_jaccard(fp: Triple, fn: Triple) -> float:
    return (_oracle_jaccard(fp.subject_text, fn.subject_text) + _oracle_jaccard(fp.object_text, fn.object_text)) / 2


def _oracle_spans_coordination(predicted_text: str, fns: list[Triple], role: str) -> bool:
    if "and" not in predicted_text.split():
        return False
    gold_texts = {
        getattr(t, role) for t in fns if _oracle_jaccard(getattr(t, role), predicted_text) >= PARTIAL_MATCH_JACCARD
    }
    return len(gold_texts) >= 2


def oracle_categorize_errors(
    gold: list[Triple],
    predicted: list[Triple],
    doc_text: str | None = None,
    doc_id: str = "",
    strict_case: bool = False,
    type_agnostic: bool = False,
) -> list[ErrorRecord]:
    gold_c = distinct_triples(gold, strict_case, type_agnostic)
    pred_c = distinct_triples(predicted, strict_case, type_agnostic)

    def unmatched(keys, firsts: dict[tuple, Triple]) -> list[Triple]:
        # each key's first triple, with the key's entity texts
        return sorted((firsts[k]._replace(subject_text=k[0], object_text=k[3]) for k in keys), key=_oracle_sort_key)

    fps = unmatched(pred_c.keys() - gold_c.keys(), pred_c)
    fns = unmatched(gold_c.keys() - pred_c.keys(), gold_c)
    all_fns = list(fns)
    records: list[ErrorRecord] = []

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

    candidates = []
    for fp in fps:
        for fn in fns:
            if fp.predicate != fn.predicate:
                continue
            if not type_agnostic and (
                fp.subject_type != fn.subject_type or fp.object_type != fn.object_type
            ):
                continue
            js = _oracle_jaccard(fp.subject_text, fn.subject_text)
            jo = _oracle_jaccard(fp.object_text, fn.object_text)
            if min(js, jo) >= PARTIAL_MATCH_JACCARD:
                candidates.append((_oracle_pair_jaccard(fp, fn), fp, fn))
    candidates.sort(key=lambda c: (-c[0], _oracle_sort_key(c[1]), _oracle_sort_key(c[2])))
    consumed_fp: set[int] = set()
    consumed_fn: set[int] = set()
    for _, fp, fn in candidates:
        if id(fp) in consumed_fp or id(fn) in consumed_fn:
            continue
        consumed_fp.add(id(fp))
        consumed_fn.add(id(fn))
        category = ERROR_PARTIAL_MATCH
        if fp.subject_text != fn.subject_text and _oracle_spans_coordination(
            fp.subject_text, all_fns, "subject_text"
        ):
            category = ERROR_DISCONTINUOUS_MERGE
        elif fp.object_text != fn.object_text and _oracle_spans_coordination(
            fp.object_text, all_fns, "object_text"
        ):
            category = ERROR_DISCONTINUOUS_MERGE
        records.append(ErrorRecord(doc_id, category, predicted=fp, gold=fn))
    fps = [fp for fp in fps if id(fp) not in consumed_fp]
    fns = [fn for fn in fns if id(fn) not in consumed_fn]

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

    for fn in fns:
        records.append(ErrorRecord(doc_id, ERROR_MISSING, gold=fn))
    return records


# shared tokens so that texts overlap, coordinate with "and" and differ in case
ENTITY_TEXTS = st.lists(st.sampled_from(["a", "A", "b", "and", "a b"]), min_size=1, max_size=3).flatmap(
    lambda words: st.sampled_from([" ", "  "]).map(lambda sep: sep.join(words))
)
TYPES = st.sampled_from([None, "sign", "disease"])


@st.composite
def error_cases(draw, texts=ENTITY_TEXTS):
    """Gold and predicted triples over shared tokens. Some on each side copy
    one of a few common triples: as is, with their texts' case changed or
    with new types, so duplicates and near misses occur within and across
    the two sides."""
    triples = st.builds(Triple, texts, TYPES, st.sampled_from(["produces", "is_a"]), texts, TYPES)
    common = draw(st.lists(triples, min_size=1, max_size=3))

    def copy(t: Triple, case, retype: bool, subject_type, object_type) -> Triple:
        t = t._replace(subject_text=case(t.subject_text), object_text=case(t.object_text))
        return t._replace(subject_type=subject_type, object_type=object_type) if retype else t

    copies = st.builds(
        copy, st.sampled_from(common), st.sampled_from([str, str.upper, str.swapcase]), st.booleans(), TYPES, TYPES
    )
    gold = draw(st.lists(triples | copies, max_size=8))
    predicted = draw(st.lists(triples | copies, max_size=8))
    doc_text = draw(st.none() | st.sampled_from(["a b and A", "A  b", "b and  a b", ""]))
    return gold, predicted, doc_text, draw(st.booleans()), draw(st.booleans())


def _outcome(categorize, gold, predicted, doc_text, strict_case, type_agnostic):
    try:
        records = categorize(gold, predicted, doc_text, "d", strict_case, type_agnostic)
    except ValueError as exc:
        return "raised", str(exc)
    return "records", [r.to_dict() for r in records]


class TestErrorsMatchOracle:
    @settings(max_examples=400, deadline=None)
    @given(error_cases())
    def test_same_records_in_the_same_order(self, case):
        assert _outcome(categorize_errors, *case) == _outcome(oracle_categorize_errors, *case)

    @settings(max_examples=150, deadline=None)
    @given(error_cases(texts=ENTITY_TEXTS | st.sampled_from([" a", "b\u2028", "\x1ca \x0bb"])))
    def test_padded_texts_match_the_oracle(self, case):
        # whitespace at a text's ends, or of another kind inside it, goes under normalization only
        assert _outcome(categorize_errors, *case) == _outcome(oracle_categorize_errors, *case)

    @pytest.mark.parametrize("categorize", [categorize_errors, oracle_categorize_errors])
    def test_padded_unmatched_text_is_spurious_in_both_modes(self, categorize):
        padded = Triple(" a\u2028", "sign", "produces", "b", "sign")
        for strict_case in (False, True):
            assert [r.category for r in categorize([], [padded], strict_case=strict_case)] == [ERROR_SPURIOUS]

    def test_doc_text_is_normalized_only_for_an_unpaired_false_positive(self, monkeypatch):
        read = []
        monkeypatch.setattr(
            "raredis_toolkit.scoring.collapse_whitespace", lambda text: read.append(text) or " ".join(text.split())
        )
        text = "alpha beta  gamma"
        gold = Triple("alpha", "sign", "produces", "beta", "sign")
        near = gold._replace(object_text="beta gamma")  # a partial match of gold
        far = gold._replace(subject_text="delta")
        categories = [
            [r.category for r in categorize_errors(g, p, doc_text=text)]
            for g, p in (([gold], []), ([gold], [near]), ([gold], [near, far]))
        ]
        assert categories == [[ERROR_MISSING], [ERROR_PARTIAL_MATCH], [ERROR_PARTIAL_MATCH, ERROR_HALLUCINATED_SPAN]]
        assert read.count(text) == 1

    def test_a_doc_text_callable_is_called_only_for_an_unpaired_false_positive(self):
        calls = []

        def doc_text():
            calls.append(1)
            return "alpha beta"

        gold = Triple("alpha", "sign", "produces", "beta", "sign")
        near = gold._replace(object_text="beta gamma")
        far = gold._replace(subject_text="delta")
        spurious = gold._replace(object_text="alpha")
        for g, p, categories, called in (
            ([gold], [], [ERROR_MISSING], 0),
            ([gold], [gold], [], 0),
            ([gold], [near], [ERROR_PARTIAL_MATCH], 0),
            ([gold], [near, far, spurious], [ERROR_PARTIAL_MATCH, ERROR_SPURIOUS, ERROR_HALLUCINATED_SPAN], 1),
        ):
            calls.clear()
            assert [r.category for r in categorize_errors(g, p, doc_text=doc_text)] == categories
            assert len(calls) == called
            assert categorize_errors(g, p, doc_text=doc_text) == categorize_errors(g, p, doc_text=doc_text())


def per_triple_distinct(triples, strict_case, type_agnostic) -> dict[tuple, Triple]:
    """distinct_triples keying every triple, repeats included."""
    out: dict[tuple, Triple] = {}
    for t in triples:
        out.setdefault(triple_key(t, strict_case, type_agnostic), t)
    return out


def per_triple_diff(gold, predicted, strict_case, type_agnostic) -> tuple[dict, dict, set]:
    """document_diff's gold, predicted and tp_keys, keying every triple of
    each side on its own, repeats included."""
    gold_c = per_triple_distinct(gold, strict_case, type_agnostic)
    pred_c = per_triple_distinct(predicted, strict_case, type_agnostic)
    return gold_c, pred_c, gold_c.keys() & pred_c.keys()


def per_triple_score_corpus(gold_by_doc, pred_by_doc, strict_case, type_agnostic) -> ScoreReport:
    """score_corpus keying every triple, repeats included."""
    counts = {p: [0, 0, 0] for p in PREDICATES}
    for doc_id in gold_by_doc.keys() | pred_by_doc.keys():
        gold_keys = {triple_key(t, strict_case, type_agnostic) for t in gold_by_doc.get(doc_id, [])}
        pred_keys = {triple_key(t, strict_case, type_agnostic) for t in pred_by_doc.get(doc_id, [])}
        for k in pred_keys:
            counts[k[2]][0 if k in gold_keys else 1] += 1
        for k in gold_keys - pred_keys:
            counts[k[2]][2] += 1
    return ScoreReport({p: PrfRow(*c) for p, c in counts.items()})


class TestKeyedOncePerDistinctTriple:
    """Equal triples have equal keys, so keying each distinct triple once
    gives what keying every triple gives. error_cases repeats triples as
    equal copies (other objects) and as case variants; the lists below
    repeat the same objects too."""

    @settings(max_examples=300, deadline=None)
    @given(error_cases())
    def test_distinct_triples_keeps_the_keys_order_and_first_objects(self, case):
        gold, predicted, _, strict_case, type_agnostic = case
        for triples in (gold, predicted, predicted + gold + predicted):
            got = distinct_triples(triples, strict_case, type_agnostic)
            want = per_triple_distinct(triples, strict_case, type_agnostic)
            assert list(got) == list(want)
            assert all(got[k] is want[k] for k in want)

    @settings(max_examples=300, deadline=None)
    @given(error_cases())
    def test_score_corpus_equals_the_per_triple_reference(self, case):
        gold, predicted, _, strict_case, type_agnostic = case
        gold_by_doc = {"d1": gold, "d2": gold + predicted + gold}
        pred_by_doc = {"d1": predicted + predicted, "d3": gold}
        assert score_corpus(gold_by_doc, pred_by_doc, strict_case, type_agnostic) == per_triple_score_corpus(
            gold_by_doc, pred_by_doc, strict_case, type_agnostic
        )


@st.composite
def corpora(draw):
    """Several documents of error_cases triples, each held by gold, by pred
    or by both, with one doc text and one pair of flags for the corpus."""
    cases = draw(st.lists(error_cases(), min_size=1, max_size=4))
    gold_by_doc, pred_by_doc = {}, {}
    for i, (gold, predicted, *_) in enumerate(cases):
        sides = draw(st.sampled_from(["both", "gold", "pred"]))
        if sides != "pred":
            gold_by_doc[f"d{i}"] = gold
        if sides != "gold":
            pred_by_doc[f"d{i}"] = predicted
    _, _, doc_text, strict_case, type_agnostic = cases[0]
    return gold_by_doc, pred_by_doc, doc_text, strict_case, type_agnostic


def documents(gold_by_doc, pred_by_doc):
    for doc_id in sorted(gold_by_doc.keys() | pred_by_doc.keys()):
        yield doc_id, gold_by_doc.get(doc_id, []), pred_by_doc.get(doc_id, [])


RESPELLINGS = st.sampled_from([str, str.upper, str.swapcase, lambda text: "  ".join(["", *text.split(), ""])])


@st.composite
def shared_texts(draw):
    """Gold and predicted triples where prediction respells gold's texts in
    another case or spacing, and adds triples of its own."""
    gold, predicted, *_ = draw(error_cases())
    respelled = [
        t._replace(subject_text=draw(RESPELLINGS)(t.subject_text), object_text=draw(RESPELLINGS)(t.object_text))
        for t in gold
        if draw(st.booleans())
    ]
    return gold, draw(st.permutations(respelled + predicted))


class TestOneDocumentDiff:
    """score_corpus and categorize_errors both read a document's TP, FP and
    FN from its document_diff, so they agree on every document: texts that
    differ only in case or whitespace, and both flags, included."""

    @settings(max_examples=300, deadline=None)
    @given(corpora())
    def test_summed_diffs_are_the_corpus_score(self, corpus):
        gold_by_doc, pred_by_doc, _, strict_case, type_agnostic = corpus
        summed = {p: (0, 0, 0) for p in PREDICATES}
        for _, gold, predicted in documents(gold_by_doc, pred_by_doc):
            diff = document_diff(gold, predicted, strict_case, type_agnostic)
            counts = {p: [0, 0, 0] for p in PREDICATES}
            diff.add_counts(counts)
            for p, row in counts.items():
                summed[p] = tuple(a + b for a, b in zip(summed[p], row))
            tp, fp, fn = (sum(row[i] for row in counts.values()) for i in range(3))
            assert (tp + fp, fp, tp + fn) == (len(diff.predicted), len(diff.false_positives), len(diff.gold))
            assert fn == len(diff.false_negatives)
        report = score_corpus(gold_by_doc, pred_by_doc, strict_case, type_agnostic)
        assert report.per_predicate == summed
        assert report == per_triple_score_corpus(gold_by_doc, pred_by_doc, strict_case, type_agnostic)

    @pytest.mark.parametrize("type_agnostic", [False, True])
    @pytest.mark.parametrize("strict_case", [False, True])
    @settings(max_examples=150, deadline=None)
    @given(shared_texts())
    def test_texts_shared_up_to_case_and_whitespace_key_as_each_triple_alone(self, strict_case, type_agnostic, sides):
        gold, predicted = sides
        diff = document_diff(gold, predicted, strict_case, type_agnostic)
        want_gold, want_pred, want_tp = per_triple_diff(gold, predicted, strict_case, type_agnostic)
        assert (list(diff.gold), list(diff.predicted), diff.tp_keys) == (list(want_gold), list(want_pred), want_tp)
        assert all(diff.gold[k] is t for k, t in want_gold.items())
        assert all(diff.predicted[k] is t for k, t in want_pred.items())

    @pytest.mark.parametrize("strict_case", [False, True])
    def test_a_text_both_sides_hold_is_normalized_once(self, monkeypatch, strict_case):
        calls = Counter()
        monkeypatch.setattr(
            "raredis_toolkit.triples.normalize_text", lambda text: calls.update([text]) or " ".join(text.split()).lower()
        )
        gold = [A, A._replace(predicate="is_a", object_text="Tremor"), C]
        predicted = [A._replace(object_type="symptom"), A._replace(subject_text="alpha  syndrome"), C, C]
        diff = document_diff(gold, predicted, strict_case)
        texts = {text for t in gold + predicted for text in (t.subject_text, t.object_text)}
        assert calls == Counter() if strict_case else calls == Counter(texts)
        assert len(diff.tp_keys) == (1 if strict_case else 2)

    @settings(max_examples=300, deadline=None)
    @given(corpora())
    def test_the_records_hold_exactly_the_diffs_fps_and_fns(self, corpus):
        gold_by_doc, pred_by_doc, doc_text, strict_case, type_agnostic = corpus
        for doc_id, gold, predicted in documents(gold_by_doc, pred_by_doc):
            diff = document_diff(gold, predicted, strict_case, type_agnostic)
            records = categorize_errors(gold, predicted, doc_text, doc_id, strict_case, type_agnostic)
            fps = [r.predicted for r in records if r.predicted is not None]
            fns = [r.gold for r in records if r.gold is not None]
            assert sorted(fps, key=_oracle_sort_key) == diff.false_positives
            assert sorted(fns, key=_oracle_sort_key) == diff.false_negatives
            gold_keys, pred_keys = ({triple_key(t, strict_case, type_agnostic) for t in s} for s in (gold, predicted))
            assert diff.tp_keys == gold_keys & pred_keys
            # one triple per unmatched key, holding that key's texts
            fp_keys, fn_keys = pred_keys - gold_keys, gold_keys - pred_keys
            for triples, keys in ((diff.false_positives, fp_keys), (diff.false_negatives, fn_keys)):
                got = [triple_key(t, strict_case, type_agnostic) for t in triples]
                assert Counter(got) == Counter(keys)
                assert [(t.subject_text, t.object_text) for t in triples] == [(k[0], k[3]) for k in got]


class TestBlankTexts:
    @given(st.text(alphabet=LINE_BREAK_ALPHABET, max_size=6), st.booleans())
    def test_triple_refuses_exactly_the_texts_without_tokens(self, text, as_subject):
        """Triple refuses a text exactly when str.split finds no token in it,
        so every text that scoring tokenizes has a token."""
        subject, obj = (text, "a") if as_subject else ("a", text)
        if text.split():
            Triple(subject, "sign", "produces", obj, "sign")
        else:
            with pytest.raises(ValueError, match="triple entity texts may not be blank"):
                Triple(subject, "sign", "produces", obj, "sign")

    def test_only_triple_decides_blankness(self):
        sources = Path(raredis_toolkit.__file__).parent.glob("*.py")
        assert [p.name for p in sources if "isspace(" in p.read_text(encoding="utf-8")] == ["triples.py"]


# one invalid field each, with the message every constructor gives for it
INVALID_FIELDS = {
    "blank text": ({"object_text": " \u2028"}, "triple entity texts may not be blank"),
    "unknown predicate": ({"predicate": "treats"}, "unknown predicate 'treats'"),
    "unknown type": ({"subject_type": "gene"}, "unknown entity type 'gene'"),
    "unknown object type": ({"object_type": "gene"}, "unknown entity type 'gene'"),
    "unhashable predicate": ({"predicate": ["produces"]}, "unknown predicate ['produces']"),
    "unhashable object type": ({"object_type": {"sign": 1}}, "unknown entity type {'sign': 1}"),
}


def unchecked(fields: dict) -> Triple:
    """A Triple object holding fields no constructor accepts."""
    return tuple.__new__(Triple, fields.values())


CONSTRUCTORS = {
    "call": lambda fields: Triple(*fields.values()),
    "keywords": lambda fields: Triple(**fields),
    "_make": lambda fields: Triple._make(fields.values()),
    "_replace": lambda fields: A._replace(**fields),
    "copy": lambda fields: copy.copy(unchecked(fields)),
    "deepcopy": lambda fields: copy.deepcopy(unchecked(fields)),
    "pickle": lambda fields: pickle.loads(pickle.dumps(unchecked(fields))),
}


class TestTripleRecord:
    @pytest.mark.parametrize("invalid", INVALID_FIELDS)
    @pytest.mark.parametrize("build", CONSTRUCTORS)
    def test_every_constructor_refuses_an_invalid_field(self, build, invalid):
        change, message = INVALID_FIELDS[invalid]
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            CONSTRUCTORS[build]({**A._asdict(), **change})

    @pytest.mark.parametrize("build", CONSTRUCTORS)
    def test_every_constructor_gives_the_triple_of_valid_fields(self, build):
        fields = {**A._asdict(), "object_text": "fever", "object_type": None}
        built = CONSTRUCTORS[build](fields)
        assert type(built) is Triple
        assert built == Triple("alpha syndrome", "rare_disease", "produces", "fever", None)

    def test_replace_of_a_valid_triple_equals_direct_construction(self):
        assert A._replace(subject_type="disease", predicate="is_a") == Triple(
            "alpha syndrome", "disease", "is_a", "tremor", "sign"
        )
        with pytest.raises(ValueError, match="unexpected field names"):
            A._replace(subject="beta")

    def test_a_triple_is_the_tuple_of_its_fields(self):
        assert A == ("alpha syndrome", "rare_disease", "produces", "tremor", "sign")
        assert hash(A) == hash(tuple(A))
        assert (A[0], A.subject_text) == ("alpha syndrome", "alpha syndrome")
        assert repr(A) == (
            "Triple(subject_text='alpha syndrome', subject_type='rare_disease', predicate='produces', "
            "object_text='tremor', object_type='sign')"
        )
        with pytest.raises(AttributeError):
            A.subject_text = "beta"


def line_by_line(path: Path) -> dict[str, list[Triple]]:
    """read_triples_file as one Triple per line: split_records, then every
    line that is not blank split and built, repeats included."""
    out: dict[str, list[Triple]] = {}
    for raw in standoff.split_records(standoff.read_file(path)):
        if raw.strip():
            doc_id, s_text, s_type, predicate, o_text, o_type = raw.split("\t")
            out.setdefault(doc_id, []).append(Triple(
                s_text, normalize_entity_type(s_type) if s_type else None, normalize_predicate(predicate),
                o_text, normalize_entity_type(o_type) if o_type else None,
            ))
    return out


# lines of two doc ids, spelled several ways, and blank lines, one of them six all-blank fields
TSV_LINES = st.sampled_from([
    "a\tx\tsign\tproduces\ty\tsign",
    "a\tx\tSIGN\tProduces\ty\t",
    "a\tX  y\tRare Disease\tis_a\tz\tdisease",
    "b\tx\tsign\tproduces\ty\tsign",
    "b\tz\t\tIS_A\tx\tsymptom",
    "",
    " ",
    "\t \t\t\t\t ",
])


class TestTriplesFileIO:
    def test_round_trip(self, tmp_path):
        data = {"doc_a": [A, B], "doc_b": [C]}
        write_triples_file(data, tmp_path / "t.tsv")
        assert read_triples_file(tmp_path / "t.tsv") == data

    def test_untyped_triples_round_trip(self, tmp_path):
        untyped = Triple("a", None, "is_a", "b", None)
        write_triples_file({"d": [untyped]}, tmp_path / "t.tsv")
        assert read_triples_file(tmp_path / "t.tsv") == {"d": [untyped]}

    def test_unknown_predicate_rejected_on_read(self, tmp_path):
        (tmp_path / "bad.tsv").write_text("d\ta\tsign\ttreats\tb\tsign\n", encoding="utf-8")
        with pytest.raises(Exception, match="treats"):
            read_triples_file(tmp_path / "bad.tsv")

    def test_invalid_triple_names_file_and_line(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("d\ta\tsign\tproduces\tb\tsign\nd\t\tsign\tproduces\tb\tsign\n", encoding="utf-8")
        with pytest.raises(ToolkitError, match=re.escape(f"{path}:2: triple entity texts may not be blank")):
            read_triples_file(path)

    def test_blank_text_names_file_and_line(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("d\ta\tsign\tproduces\tb\tsign\nd\ta\tsign\tproduces\t \u2028\tsign\n", encoding="utf-8")
        with pytest.raises(ToolkitError, match=re.escape(f"{path}:2: triple entity texts may not be blank")):
            read_triples_file(path)

    @pytest.mark.parametrize(
        "line, message",
        [
            ("d\ta\tgene\tproduces\tb\tsign", "unknown entity type 'gene'"),
            ("d\ta\tSIGN\tproduces\tb\tGene", "unknown entity type 'Gene'"),
            ("d\ta\tsign\ttreats\tb\tsign", "unknown predicate 'treats'"),
            ("d\ta\tsign\tproduces\tb", "expected 6 tab-separated fields, got 5"),
        ],
    )
    def test_unknown_label_after_other_spellings_names_its_line(self, tmp_path, line, message):
        path = tmp_path / "bad.tsv"
        valid = "d\ta\tSIGN\tProduces\tb\t\nd\ta\tRare Disease\tIS_A\tb\tsign\n"
        path.write_text(valid, encoding="utf-8")
        assert read_triples_file(path) == {
            "d": [Triple("a", "sign", "produces", "b", None), Triple("a", "rare_disease", "is_a", "b", "sign")]
        }
        path.write_text(valid + line + "\n", encoding="utf-8")
        with pytest.raises(ToolkitError, match=f"^{re.escape(f'{path}:3: {message}')}$"):
            read_triples_file(path)

    def test_blank_lines_are_skipped_and_keep_their_line_numbers(self, tmp_path):
        path = tmp_path / "t.tsv"
        valid = "\nd\ta\tsign\tproduces\tb\tsign\n \t \n"
        path.write_text(valid, encoding="utf-8")
        assert read_triples_file(path) == {"d": [Triple("a", "sign", "produces", "b", "sign")]}
        path.write_text(valid + "d\ta\tsign\tproduces\tb\tsign\textra\n", encoding="utf-8")
        with pytest.raises(ToolkitError, match=f"^{re.escape(f'{path}:4: expected 6 tab-separated fields, got 7')}$"):
            read_triples_file(path)

    @pytest.mark.parametrize("block", [3, standoff._BLOCK_BYTES])
    @pytest.mark.parametrize(
        "content",
        [
            b"d\ta\tsign\tproduces\tb\tsign\r\nd\tc\tsign\tis_a\tb\t\r\n",
            b"d\ta\tsign\tproduces\tb\tsign\nd\tc\tsign\tis_a\tb\t",
        ],
        ids=["crlf", "no final newline"],
    )
    def test_crlf_and_a_missing_final_newline_read_as_lines(self, tmp_path, monkeypatch, content, block):
        monkeypatch.setattr(standoff, "_BLOCK_BYTES", block)
        (tmp_path / "t.tsv").write_bytes(content)
        assert read_triples_file(tmp_path / "t.tsv") == {
            "d": [Triple("a", "sign", "produces", "b", "sign"), Triple("c", "sign", "is_a", "b", None)]
        }

    def test_a_malformed_line_before_a_later_non_utf8_byte_is_reported_first(self, tmp_path):
        """The file is decoded a block at a time as it is parsed, so a fault on
        line 2 is met before a byte that is not UTF-8 blocks later."""
        path = tmp_path / "t.tsv"
        padding = b"\n" * (2 * standoff._BLOCK_BYTES)  # blank lines, skipped
        path.write_bytes(b"d\ta\tsign\tproduces\tb\tsign\nd\ta\n" + padding + b"d\t\xff\n")
        with pytest.raises(ToolkitError, match=f"^{re.escape(f'{path}:2: expected 6 tab-separated fields, got 2')}$"):
            read_triples_file(path)
        path.write_bytes(b"d\ta\tsign\tproduces\tb\tsign\n" + padding + b"d\t\xff\n")
        offset = path.stat().st_size - 2
        with pytest.raises(ToolkitError, match=f"^{re.escape(f'{path}: not UTF-8 at byte offset {offset} ')}"):
            read_triples_file(path)

    def test_a_repeated_text_is_held_once(self, tmp_path):
        path = tmp_path / "t.tsv"
        write_triples_file({"d": [A, A._replace(subject_type="disease"), C], "e": [B, A]}, path)
        triples = read_triples_file(path)
        texts = {}
        for t in [*triples["d"], *triples["e"]]:
            for text in (t.subject_text, t.object_text):
                assert texts.setdefault(text, text) is text  # one str per spelling in the file

    @settings(max_examples=200, deadline=None)
    @given(st.lists(TSV_LINES, max_size=12), st.sampled_from(["\n", "\r\n"]), st.booleans())
    def test_reads_what_parsing_every_line_reads(self, lines, newline, final_newline):
        """Repeats, doc ids that come back, blank lines and CRLF endings give
        what one Triple per line gives; within a run of one doc id a repeated
        line gives the very object its first occurrence gave."""
        content = newline.join(lines) + (newline if final_newline else "")
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.tsv"
            path.write_bytes(content.encode("utf-8"))
            got = read_triples_file(path)
            assert got == line_by_line(path)
        taken, run_doc, run = Counter(), None, {}
        for raw in filter(str.strip, standoff.split_records(content)):
            doc_id = raw.split("\t")[0]
            if doc_id != run_doc:
                run_doc, run = doc_id, {}
            triple = got[doc_id][taken[doc_id]]
            taken[doc_id] += 1
            assert run.setdefault(raw, triple) is triple

    def test_a_repeated_line_gives_the_same_triple(self, tmp_path):
        path = tmp_path / "t.tsv"
        line = "a\tx\tsign\tproduces\ty\tsign\n"
        path.write_text(line + "\n" + line + "b\tx\tsign\tis_a\ty\tsign\n" + line, encoding="utf-8")
        triples = read_triples_file(path)
        assert triples == line_by_line(path)
        assert triples["a"][1] is triples["a"][0]
        assert triples["a"][2] == triples["a"][0]  # a's second run, after b's line

    @pytest.mark.parametrize(
        "line, message",
        [
            ("a\tx\tsign\tproduces\t \tsign", "triple entity texts may not be blank"),
            ("a\tx\tsign\ttreats\ty\tsign", "unknown predicate 'treats'"),
            ("a\tx\tsign\tproduces\ty", "expected 6 tab-separated fields, got 5"),
        ],
    )
    def test_a_bad_line_after_repeats_names_its_line(self, tmp_path, line, message):
        path = tmp_path / "t.tsv"
        path.write_text("a\tx\tsign\tproduces\ty\tsign\r\n" * 3 + line + "\r\n", encoding="utf-8")
        with pytest.raises(ToolkitError, match=f"^{re.escape(f'{path}:4: {message}')}$"):
            read_triples_file(path)

    def test_unwritable_text_names_the_doc(self, tmp_path):
        with pytest.raises(ToolkitError, match="doc_b: triple texts may not contain tabs or line feeds"):
            write_triples_file({"doc_a": [A], "doc_b": [C._replace(subject_text="a\tb")]}, tmp_path / "t.tsv")
        assert not (tmp_path / "t.tsv").exists()

    @given(
        st.dictionaries(
            st.text(alphabet=LINE_BREAK_ALPHABET, max_size=4),
            st.lists(
                st.builds(
                    Triple,
                    st.text(alphabet=LINE_BREAK_ALPHABET, min_size=1, max_size=8).filter(lambda text: text.split()),
                    st.sampled_from((None, *ENTITY_TYPES)),
                    st.sampled_from(PREDICATES),
                    st.text(alphabet=LINE_BREAK_ALPHABET, min_size=1, max_size=8).filter(lambda text: text.split()),
                    st.sampled_from((None, *ENTITY_TYPES)),
                ),
                min_size=1,
                max_size=3,
            ),
            max_size=3,
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_round_trips_exactly_or_is_rejected(self, data):
        fields = [
            text
            for doc_id, triples in data.items()
            for t in triples
            for text in (doc_id, t.subject_text, t.object_text)
        ]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.tsv"
            if any("\t" in f or "\n" in f for f in fields):
                with pytest.raises(ToolkitError):
                    write_triples_file(data, path)
                return
            write_triples_file(data, path)
            assert read_triples_file(path) == data
