"""Repair rules.

The oracle below is the three-pass repair that repair_all replaced: one
whole-document pass per rule, each with its own log, the logs joined in
rule order. The span rule itself (_fix_entity_span) did not change, so the
oracle shares it.
"""

import random
import re
from dataclasses import replace

import pytest

from raredis_toolkit.errors import RepairError
from raredis_toolkit.repair import (
    RULE_FRAGMENT_ORDER,
    RULE_RELATION_ARGUMENT,
    RULE_SPAN_BOUNDARY,
    RepairEntry,
    RepairLog,
    _fix_entity_span,
    repair_all,
    summarize_repairs,
)
from raredis_toolkit.standoff import (
    AnnotatedDocument,
    EntityMention,
    RelationInstance,
    format_offsets,
    parse_document,
    read_document_pair,
    write_corpus_dir,
)
from conftest import balanti_doc_pair, storage_doc_pair
from synth import (
    corrupt_fragment_order,
    corrupt_relation_argument,
    corrupt_trailing_char,
    synthetic_corpus,
)


_ORACLE_TRAILING_ZERO_RE = re.compile(r"^T\d+0$")


def oracle_fix_fragment_order(doc):
    entries = []
    entities = []
    for ent in doc.entities:
        ordered = tuple(sorted(ent.fragments))
        for (_, prev_end), (next_start, _) in zip(ordered, ordered[1:]):
            if prev_end > next_start:
                raise RepairError(
                    doc.doc_id, f"entity {ent.id} has overlapping fragments {format_offsets(ordered)}"
                )
        if ordered != ent.fragments:
            fixed = ent._replace(fragments=ordered)
            fixed = fixed._replace(surface_text=fixed.slice_text(doc.text))
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


def oracle_fix_span_boundaries(doc):
    entries = []
    entities = []
    for ent in doc.entities:
        fixed, entry = _fix_entity_span(doc.text, ent)
        entities.append(fixed)
        if entry is not None:
            entries.append(entry)
    out = replace(doc, entities=tuple(entities))
    return out, RepairLog(doc.doc_id, tuple(entries))


def oracle_fix_relation_arguments(doc):
    entries = []
    relations = []
    for rel in doc.relations:
        new_refs = {}
        for slot, ref in (("Arg1", rel.subject_ref), ("Arg2", rel.object_ref)):
            if ref in doc.entity_map:
                continue
            stripped = ref[:-1]
            if _ORACLE_TRAILING_ZERO_RE.match(ref) and stripped in doc.entity_map:
                new_refs[slot] = stripped
                entries.append(RepairEntry(RULE_RELATION_ARGUMENT, rel.id, ref, stripped))
            else:
                entries.append(RepairEntry(RULE_RELATION_ARGUMENT, rel.id, ref, "UNRESOLVED"))
        if new_refs:
            relations.append(
                rel._replace(
                    subject_ref=new_refs.get("Arg1", rel.subject_ref),
                    object_ref=new_refs.get("Arg2", rel.object_ref),
                )
            )
        else:
            relations.append(rel)
    out = replace(doc, relations=tuple(relations))
    return out, RepairLog(doc.doc_id, tuple(entries))


def oracle_repair_all(doc):
    doc, log1 = oracle_fix_fragment_order(doc)
    doc, log2 = oracle_fix_span_boundaries(doc)
    doc, log3 = oracle_fix_relation_arguments(doc)
    return doc, RepairLog(doc.doc_id, log1.entries + log2.entries + log3.entries)


def assert_repaired_invariants(doc):
    for ent in doc.entities:
        for (s1, e1), (s2, e2) in zip(ent.fragments, ent.fragments[1:]):
            assert (s1, e1) <= (s2, e2) and e1 <= s2
        assert ent.slice_text(doc.text) == ent.surface_text


class TestRelationArguments:
    def test_trailing_zero_stripped(self, rickets_doc):
        fixed, log = repair_all(rickets_doc)
        assert fixed.relations[1].object_ref == "T9"
        assert fixed.unresolved_refs == ()
        assert log.entries[0].rule == RULE_RELATION_ARGUMENT
        assert (log.entries[0].before, log.entries[0].after) == ("T90", "T9")

    def test_no_dangling_references_is_a_no_op(self, weakness_doc):
        fixed, log = repair_all(weakness_doc)
        assert fixed == weakness_doc
        assert len(log) == 0

    def test_multi_digit_strip_hand_built(self):
        # hand-built: T100 dangles, stripping one zero reaches existing T10
        text = "alpha beta gamma delta"
        ann = (
            "T1\tSIGN 0 5\talpha\n"
            "T10\tDISEASE 6 10\tbeta\n"
            "R1\tproduces Arg1:T100 Arg2:T1\n"
        )
        doc = parse_document(text, ann, "d")
        fixed, log = repair_all(doc)
        assert fixed.relations[0].subject_ref == "T10"
        assert fixed.unresolved_refs == ()
        assert [(e.before, e.after) for e in log.entries] == [("T100", "T10")]

    def test_unfixable_reference_logged_unresolved(self):
        text = "alpha beta"
        ann = "T1\tSIGN 0 5\talpha\nR1\tproduces Arg1:T1 Arg2:T7\n"
        doc = parse_document(text, ann, "d")
        fixed, log = repair_all(doc)
        assert fixed.unresolved_refs == (("R1", "Arg2", "T7"),)
        assert [(e.before, e.after) for e in log.entries] == [("T7", "UNRESOLVED")]

    def test_zero_strip_requires_target_to_exist(self):
        # T20 dangles but T2 does not exist either: leave dangling
        text = "alpha beta"
        ann = "T1\tSIGN 0 5\talpha\nR1\tproduces Arg1:T1 Arg2:T20\n"
        doc = parse_document(text, ann, "d")
        fixed, log = repair_all(doc)
        assert fixed.relations[0].object_ref == "T20"
        assert log.entries[0].after == "UNRESOLVED"

    def test_trailing_zero_rule_reads_t_ids_only(self):
        # X10 -> X1 is never tried; T١0 -> T١ is, as for any decimal digit
        entities = (
            EntityMention("X1", "sign", ((0, 3),), "abc"),
            EntityMention("T١", "sign", ((4, 7),), "efg"),
        )
        relations = (
            RelationInstance("R1", "produces", "X1", "X10"),
            RelationInstance("R2", "produces", "X1", "T١0"),
        )
        fixed, log = repair_all(AnnotatedDocument("d", "abc efg", entities, relations))
        assert log.lines() == ["d relation_argument R1 X10 -> UNRESOLVED", "d relation_argument R2 T١0 -> T١"]
        assert fixed.unresolved_refs == (("R1", "Arg2", "X10"),)


class TestSpanBoundaries:
    def test_missing_trailing_character_extends_to_word_boundary(self):
        text, ann = balanti_doc_pair()
        doc = parse_document(text, ann, "balanti")
        start = text.index("infectious disease")
        assert doc.entities[1].fragments == ((start, start + 17),)  # one short
        fixed, log = repair_all(doc)
        ent = fixed.entities[1]
        assert ent.fragments == ((start, start + 18),)
        assert ent.surface_text == "infectious disease"
        assert log.entries[0].rule == RULE_SPAN_BOUNDARY

    def test_consistent_span_unchanged(self, weakness_doc):
        fixed, log = repair_all(weakness_doc)
        assert fixed == weakness_doc
        assert len(log) == 0

    def test_extra_trailing_character_shrinks_by_one(self):
        # constructed off-by-one: offsets capture the space after the word
        text = "the rash spreads fast"
        doc = parse_document(text, "T1\tSIGN 4 9\trash\n", "d")
        fixed, log = repair_all(doc)
        assert fixed.entities[0].fragments == ((4, 8),)
        assert fixed.entities[0].surface_text == "rash"
        assert len(log) == 1

    def test_larger_mismatch_falls_back_to_surface_rewrite(self):
        text = "the rash spreads fast"
        doc = parse_document(text, "T1\tSIGN 4 8\tcompletely different\n", "d")
        fixed, log = repair_all(doc)
        assert fixed.entities[0].surface_text == "rash"
        assert fixed.entities[0].fragments == ((4, 8),)
        assert len(log) == 1

    def test_mid_word_end_without_one_char_fix_left_alone(self):
        # two characters missing: not fixable by a one-char nudge, and slice
        # equals surface, so nothing to rewrite
        text = "severe paralysis occurs"
        doc = parse_document(text, "T1\tSIGN 7 14\tparalys\n", "d")
        fixed, log = repair_all(doc)
        assert fixed == doc
        assert len(log) == 0


class TestFragmentOrder:
    def test_reversed_fragments_sorted(self):
        text, ann = storage_doc_pair()
        doc = parse_document(text, ann, "storage")
        fixed, log = repair_all(doc)
        ent = fixed.entities[0]
        assert ent.fragments == tuple(sorted(doc.entities[0].fragments))
        assert ent.surface_text == "accumulation of gangliosides"
        assert log.entries[0].rule == RULE_FRAGMENT_ORDER

    def test_sorted_input_unchanged(self, weakness_doc):
        fixed, log = repair_all(weakness_doc)
        assert fixed == weakness_doc
        assert len(log) == 0

    def test_three_shuffled_fragments_match_standalone_sort(self):
        text = "a" * 100
        shuffled = [(40, 45), (10, 15), (60, 70)]
        offsets = ";".join(f"{s} {e}" for s, e in shuffled)
        surface = " ".join(text[s:e] for s, e in shuffled)
        doc = parse_document(text, f"T1\tSIGN {offsets}\t{surface}\n", "d")
        fixed, _ = repair_all(doc)
        assert list(fixed.entities[0].fragments) == sorted(shuffled)

    def test_overlapping_fragments_raise(self):
        doc = parse_document("a" * 50, "T1\tSIGN 10 20;15 25\taaa\n", "d")
        with pytest.raises(RepairError, match="T1"):
            repair_all(doc)


class TestRepairAll:
    def test_fixture_with_dangling_argument_fully_resolves(self, rickets_doc):
        fixed, _ = repair_all(rickets_doc)
        assert fixed.unresolved_refs == ()
        assert_repaired_invariants(fixed)

    def test_clean_document_is_identity_with_empty_log(self, weakness_doc):
        fixed, log = repair_all(weakness_doc)
        assert fixed == weakness_doc
        assert len(log) == 0

    def test_three_defect_kinds_give_one_log_entry_per_rule(self):
        # composite fixture: reversed fragments + short span + dangling arg
        text = "Tremors and accumulation of fats called gangliosides occur in Saxotide disease."
        acc = text.index("accumulation of"), text.index("accumulation of") + 15
        gang = text.index("gangliosides"), text.index("gangliosides") + 12
        sax = text.index("Saxotide disease"), text.index("Saxotide disease") + 16
        trem = (0, 6)  # "Tremor" missing its final "s"
        ann = (
            f"T1\tSIGN {gang[0]} {gang[1]};{acc[0]} {acc[1]}\tgangliosides accumulation of\n"
            f"T2\tRAREDISEASE {sax[0]} {sax[1]}\tSaxotide disease\n"
            f"T3\tSIGN {trem[0]} {trem[1]}\tTremor\n"
            "R1\tproduces Arg1:T2 Arg2:T10\n"
        )
        doc = parse_document(text, ann, "d")
        fixed, log = repair_all(doc)
        rules = [e.rule for e in log.entries]
        assert rules == [RULE_FRAGMENT_ORDER, RULE_SPAN_BOUNDARY, RULE_RELATION_ARGUMENT]
        assert fixed.entities[2].surface_text == "Tremors"
        assert fixed.relations[0].object_ref == "T1"
        assert_repaired_invariants(fixed)

    def test_idempotent_on_randomly_corrupted_corpus(self):
        rng = random.Random(11)
        for doc in synthetic_corpus(seed=23, size=200):
            doc = corrupt_relation_argument(doc, rng)
            doc = corrupt_trailing_char(doc, rng)
            doc = corrupt_fragment_order(doc, rng)
            once, _ = repair_all(doc)
            twice, log2 = repair_all(once)
            assert twice == once
            assert_repaired_invariants(once)
            # a second pass may only re-report permanently unresolvable refs
            assert all(e.after == "UNRESOLVED" for e in log2.entries)

    def test_never_deletes_entities_or_changes_types(self):
        rng = random.Random(5)
        for doc in synthetic_corpus(seed=29, size=100):
            corrupted = corrupt_fragment_order(corrupt_trailing_char(doc, rng), rng)
            fixed, _ = repair_all(corrupted)
            assert len(fixed.entities) == len(doc.entities)
            assert len(fixed.relations) == len(doc.relations)
            assert [e.entity_type for e in fixed.entities] == [e.entity_type for e in doc.entities]
            assert [r.predicate for r in fixed.relations] == [r.predicate for r in doc.relations]


class TestOnePassEqualsThreePasses:
    def test_documents_and_log_entries_equal_the_oracle(self):
        # each corruptor applied zero to two times, so one document can carry
        # several defects of each rule, on entities in any order
        rng = random.Random(17)
        corruptors = (corrupt_fragment_order, corrupt_trailing_char, corrupt_relation_argument)
        docs = synthetic_corpus(seed=19, size=300) + synthetic_corpus(
            seed=31, size=30, min_entities=20, max_entities=40
        )
        interleaved = 0
        for doc in docs:
            for corrupt in corruptors:
                for _ in range(rng.randrange(3)):
                    doc = corrupt(doc, rng)
            fixed, log = repair_all(doc)
            expected, expected_log = oracle_repair_all(doc)
            assert fixed == expected
            assert log.doc_id == expected_log.doc_id
            entries = [(e.rule, e.target_id, e.before, e.after) for e in log.entries]
            assert entries == [(e.rule, e.target_id, e.before, e.after) for e in expected_log.entries]
            rules = [e.rule for e in log.entries]
            interleaved += RULE_FRAGMENT_ORDER in rules and RULE_SPAN_BOUNDARY in rules
        # the log order is only tested where one document has entries of both entity rules
        assert interleaved >= 20

    def test_both_raise_on_overlapping_fragments(self):
        doc = parse_document("a" * 50, "T1\tSIGN 10 20;15 25\taaa\n", "d")
        messages = []
        for repair in (repair_all, oracle_repair_all):
            with pytest.raises(RepairError) as caught:
                repair(doc)
            messages.append(str(caught.value))
        assert messages[0] == messages[1]


class TestSummary:
    def test_rates_on_known_corpus(self, rickets_doc, weakness_doc):
        summary = summarize_repairs([repair_all(doc) for doc in (rickets_doc, weakness_doc)])
        assert summary.total_relations == 4
        assert summary.relations_argument_fixed == 1
        assert summary.relation_argument_rate == 0.25
        assert summary.entities_span_fixed == 0
        assert summary.span_boundary_rate == 0.0

    def test_a_relation_fixed_on_one_argument_and_dangling_on_the_other_is_unresolvable(self):
        ann = (
            "T1\tDISEASE 0 5\tAlpha\nT2\tSIGN 13 18\tfever\n"
            "R1\tproduces Arg1:T10 Arg2:T77\nR2\tproduces Arg1:T1 Arg2:T2\n"
        )
        fixed, log = repair_all(parse_document("Alpha causes fever.", ann, "d"))
        summary = summarize_repairs([(fixed, log)])
        assert fixed.unresolved_refs == (("R1", "Arg2", "T77"),)
        assert (summary.relations_argument_fixed, summary.relations_unresolvable) == (1, 1)


class TestCrlfCorpus:
    def test_clean_crlf_pair_is_a_no_op_and_keeps_txt_bytes(self, tmp_path):
        text = "Overview.\r\nBeta syndrome is rare.\r\nIt causes fever.\r\n"
        start = text.index("Beta syndrome")
        fever = text.index("fever")
        (tmp_path / "d.txt").write_bytes(text.encode("utf-8"))
        (tmp_path / "d.ann").write_bytes(
            (
                f"T1\tDISEASE {start} {start + 13}\tBeta syndrome\r\n"
                f"T2\tSIGN {fever} {fever + 5}\tfever\r\n"
                "R1\tproduces Arg1:T1 Arg2:T2\r\n"
            ).encode("utf-8")
        )
        fixed, log = repair_all(read_document_pair(tmp_path / "d.txt"))
        assert log.lines() == []
        write_corpus_dir([fixed], tmp_path / "out")
        assert (tmp_path / "out" / "d.txt").read_bytes() == text.encode("utf-8")
