"""Shapes, statistics and splits.

The oracle below is the all-pairs shape classification that
corpus.document_shapes replaced: each entity compared with every other one.
"""

import random
import re
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from raredis_toolkit.corpus import (
    SHAPE_CLASSES,
    SplitSpec,
    corpus_statistics,
    document_shapes,
    format_stats,
    manifest_text,
    read_manifests,
    split_corpus,
)
from raredis_toolkit.errors import SplitError
from raredis_toolkit.standoff import AnnotatedDocument, EntityMention, parse_document, write_outputs
from synth import synthetic_corpus


def _strictly_contains(outer: tuple[int, int], inner: tuple[int, int]) -> bool:
    return outer[0] <= inner[0] and inner[1] <= outer[1] and outer != inner


def _overlaps(a: tuple[int, int], b: tuple[int, int]) -> bool:
    return max(a[0], b[0]) < min(a[1], b[1])


def oracle_shape(entity: EntityMention, doc: AnnotatedDocument) -> str:
    if entity.is_discontinuous:
        return "discontinuous"
    span = entity.covering_span
    others = [e.covering_span for e in doc.entities if e.id != entity.id]
    if any(_strictly_contains(other, span) for other in others):
        return "nested"
    if any(_overlaps(other, span) for other in others):
        return "overlapped"
    return "flat"


def oracle_shape_counts(docs: list[AnnotatedDocument]) -> dict[str, int]:
    counts = Counter(oracle_shape(e, doc) for doc in docs for e in doc.entities)
    return {shape: counts[shape] for shape in SHAPE_CLASSES}


# fragments of 1-4 characters starting in 0..12: identical, touching and
# nested spans are all common
_fragment = st.tuples(st.integers(0, 12), st.integers(1, 4)).map(lambda p: (p[0], p[0] + p[1]))
_documents = st.lists(st.lists(_fragment, min_size=1, max_size=3), min_size=1, max_size=9).map(
    lambda entities: AnnotatedDocument(
        "d",
        "x" * 16,
        tuple(EntityMention(f"T{i}", "sign", tuple(f), "x") for i, f in enumerate(entities, start=1)),
        (),
    )
)


def doc_of(ann: str, text: str = "x" * 100) -> AnnotatedDocument:
    return parse_document(text, ann, "d")


class TestClassifyShape:
    def test_gap_makes_discontinuous(self):
        doc = doc_of("T1\tSIGN 10 20;30 40\t" + "x" * 10 + " " + "x" * 10 + "\n")
        assert document_shapes(doc)["T1"] == "discontinuous"

    def test_inner_span_is_nested(self):
        text = "central pain syndrome"
        ann = (
            "T1\tSIGN 0 21\tcentral pain syndrome\n"
            "T2\tSYMPTOM 8 12\tpain\n"
        )
        doc = doc_of(ann, text)
        assert document_shapes(doc)["T2"] == "nested"
        # the outer entity overlaps the inner one without being contained
        assert document_shapes(doc)["T1"] == "overlapped"

    def test_only_entity_in_document_is_flat(self):
        doc = doc_of("T1\tSIGN 0 5\txxxxx\n")
        assert document_shapes(doc)["T1"] == "flat"

    def test_partial_overlap(self):
        ann = "T1\tSIGN 0 10\t" + "x" * 10 + "\nT2\tDISEASE 5 15\t" + "x" * 10 + "\n"
        doc = doc_of(ann)
        assert document_shapes(doc)["T1"] == "overlapped"
        assert document_shapes(doc)["T2"] == "overlapped"

    def test_identical_spans_with_different_types_are_overlapped(self):
        ann = "T1\tSIGN 0 10\t" + "x" * 10 + "\nT2\tDISEASE 0 10\t" + "x" * 10 + "\n"
        doc = doc_of(ann)
        assert document_shapes(doc)["T1"] == "overlapped"
        assert document_shapes(doc)["T2"] == "overlapped"

    def test_discontinuity_beats_nesting(self):
        ann = (
            "T1\tSIGN 0 50\t" + "x" * 50 + "\n"
            "T2\tSIGN 5 10;15 20\t" + "xxxxx xxxxx" + "\n"
        )
        doc = doc_of(ann)
        assert document_shapes(doc)["T2"] == "discontinuous"

    def test_touching_spans_do_not_overlap(self):
        ann = "T1\tSIGN 0 10\t" + "x" * 10 + "\nT2\tDISEASE 10 20\t" + "x" * 10 + "\n"
        doc = doc_of(ann)
        assert document_shapes(doc)["T1"] == "flat"
        assert document_shapes(doc)["T2"] == "flat"

    def test_stable_under_reordering_of_other_entities(self):
        rng = random.Random(3)
        for doc in synthetic_corpus(seed=31, size=50):
            shuffled_entities = list(doc.entities)
            rng.shuffle(shuffled_entities)
            shuffled = AnnotatedDocument(doc.doc_id, doc.text, tuple(shuffled_entities), doc.relations)
            assert document_shapes(shuffled) == document_shapes(doc)


class TestDocumentShapesMatchAllPairs:
    @settings(max_examples=500, deadline=None)
    @given(_documents)
    def test_same_shape_for_every_entity(self, doc):
        assert document_shapes(doc) == {e.id: oracle_shape(e, doc) for e in doc.entities}

    @pytest.mark.parametrize(
        "docs",
        [
            synthetic_corpus(seed=79, size=200),
            synthetic_corpus(seed=83, size=20, min_entities=100, max_entities=120),
        ],
        ids=["synthetic", "dense"],
    )
    def test_corpus_statistics_counts_the_oracle_shapes(self, docs):
        assert corpus_statistics(docs).shape_counts == oracle_shape_counts(docs)


class TestStatistics:
    def test_counts_on_fixture_corpus(self, rickets_doc, weakness_doc):
        stats = corpus_statistics([rickets_doc, weakness_doc])
        assert stats.documents == 2
        assert stats.entity_counts["rare_disease"] == 2
        assert stats.entity_counts["sign"] == 3
        assert stats.entity_counts["anaphor"] == 1
        assert stats.relation_counts["produces"] == 3
        assert stats.relation_counts["anaphora"] == 1
        assert stats.shape_counts["discontinuous"] == 1
        # the flat arm span sits strictly inside the discontinuous covering span
        assert stats.shape_counts["nested"] == 1
        assert stats.shape_counts["flat"] == 4
        assert stats.total_entities == 6

    def test_empty_split_all_zero(self):
        stats = corpus_statistics([])
        assert stats.documents == 0
        assert stats.total_entities == 0
        assert stats.total_relations == 0
        assert sum(stats.shape_counts.values()) == 0

    def test_shape_counts_sum_to_entity_total(self):
        docs = synthetic_corpus(seed=37, size=100)
        stats = corpus_statistics(docs)
        assert sum(stats.shape_counts.values()) == stats.total_entities

    def test_invariant_under_document_reordering(self):
        docs = synthetic_corpus(seed=41, size=30)
        assert corpus_statistics(docs) == corpus_statistics(list(reversed(docs)))

    def test_table_formatting_includes_all_keys(self):
        docs = synthetic_corpus(seed=43, size=5)
        table = format_stats("train", corpus_statistics(docs))
        for key in ("sign", "rare_disease", "produces", "is_acron", "nested", "total entities"):
            assert key in table


class TestSplit:
    def test_same_seed_same_split(self):
        docs = synthetic_corpus(seed=47, size=40)
        spec = SplitSpec(mode="ratio", ratios=(0.8, 0.1, 0.1), seed=9)
        first = split_corpus(docs, spec)
        second = split_corpus(docs, spec)
        assert [[d.doc_id for d in part] for part in first] == [
            [d.doc_id for d in part] for part in second
        ]

    def test_partition_property_across_seeds_and_ratios(self):
        docs = synthetic_corpus(seed=53, size=25)
        all_ids = {d.doc_id for d in docs}
        for seed in range(5):
            for ratios in ((0.8, 0.1, 0.1), (0.5, 0.25, 0.25), (0.34, 0.33, 0.33)):
                parts = split_corpus(docs, SplitSpec(mode="ratio", ratios=ratios, seed=seed))
                ids = [frozenset(d.doc_id for d in p) for p in parts]
                assert ids[0] | ids[1] | ids[2] == all_ids
                assert len(ids[0]) + len(ids[1]) + len(ids[2]) == len(all_ids)

    def test_degenerate_ratio_everything_in_train(self):
        docs = synthetic_corpus(seed=59, size=10)
        train, dev, test = split_corpus(docs, SplitSpec(mode="ratio", ratios=(1.0, 0.0, 0.0)))
        assert len(train) == 10 and not dev and not test

    def test_ratios_must_sum_to_one(self):
        with pytest.raises(SplitError, match="sum to 1"):
            SplitSpec(mode="ratio", ratios=(0.5, 0.2, 0.2))

    def test_nan_ratio_is_rejected(self):
        # NaN compares false both ways, so neither "< 0" nor the sum check catches it
        with pytest.raises(SplitError, match="non-negative"):
            SplitSpec(mode="ratio", ratios=(float("nan"), 0.5, 0.5))

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"mode": "ratio"}, "ratio mode requires ratios"),
            ({"mode": "file_list"}, "file_list mode requires three doc_id lists"),
            ({"mode": "kfold"}, "unknown split mode 'kfold'"),
        ],
    )
    def test_mode_without_its_field_is_rejected(self, fields, message):
        with pytest.raises(SplitError, match=f"^{re.escape(message)}$"):
            SplitSpec(**fields)

    def test_empty_corpus_is_rejected(self):
        with pytest.raises(SplitError, match="^corpus is empty$"):
            split_corpus([], SplitSpec(mode="ratio", ratios=(0.8, 0.1, 0.1)))

    def test_file_list_mode_assigns_exactly(self):
        docs = synthetic_corpus(seed=61, size=6)
        ids = [d.doc_id for d in docs]
        spec = SplitSpec(mode="file_list", lists=(tuple(ids[:3]), tuple(ids[3:5]), tuple(ids[5:])))
        train, dev, test = split_corpus(docs, spec)
        assert [d.doc_id for d in train] == ids[:3]
        assert [d.doc_id for d in dev] == ids[3:5]
        assert [d.doc_id for d in test] == ids[5:]

    def test_file_list_unknown_doc_id_named_in_error(self):
        docs = synthetic_corpus(seed=67, size=3)
        ids = [d.doc_id for d in docs]
        spec = SplitSpec(mode="file_list", lists=(tuple(ids[:2]), (ids[2],), ("ghost",)))
        with pytest.raises(SplitError, match="ghost"):
            split_corpus(docs, spec)

    def test_file_list_must_cover_corpus(self):
        docs = synthetic_corpus(seed=71, size=3)
        ids = [d.doc_id for d in docs]
        spec = SplitSpec(mode="file_list", lists=((ids[0],), (ids[1],), ()))
        with pytest.raises(SplitError, match=ids[2]):
            split_corpus(docs, spec)

    def test_overlapping_lists_rejected(self):
        with pytest.raises(SplitError, match="more than one"):
            SplitSpec(mode="file_list", lists=(("a", "b"), ("b",), ("c",)))

    def test_manifest_round_trip(self, tmp_path):
        docs = synthetic_corpus(seed=73, size=5)
        write_outputs([(tmp_path / "m.txt", manifest_text(docs, tmp_path / "m.txt"))])
        assert read_manifests([tmp_path / "m.txt"], docs) == (tuple(sorted(d.doc_id for d in docs)),)
