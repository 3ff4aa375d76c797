import logging
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from raredis_toolkit import schema as schema_mod
from raredis_toolkit.schema import (
    DEFAULT_NOUN_MAP,
    SCHEMA_KINDS,
    build_prompt,
    codec,
    decode_target_report,
    encode_target,
    normalize_generation,
    occurrence_ordered_triples,
    special_tokens,
    validate_noun_map,
)
from raredis_toolkit.standoff import parse_document
from raredis_toolkit.triples import Triple, collapse_whitespace, normalize_text, triple_key
from conftest import MINI_CORPUS
from synth import synthetic_corpus

RICKETS_LINEARIZED = (
    "Vitamin D Deficiency Rickets @RareDisease@ bone disease @Sign@ @PRODUCES@ @END@"
)


def fidelity_key(triple: Triple, kind: str) -> tuple:
    """The fields a schema's target string actually carries.

    seq2rel keeps all five fields; rel_is drops both entity types; the
    natural_lang acronym sentence names no type for its subject.
    """
    if kind == "rel_is":
        return triple_key(triple, type_agnostic=True)
    if kind == "natural_lang" and triple.predicate == "is_acron":
        return (
            normalize_text(triple.subject_text),
            None,
            triple.predicate,
            normalize_text(triple.object_text),
            triple.object_type,
        )
    return triple_key(triple)


class TestEncodeSeq2rel:
    def test_single_relation_linearization(self):
        text = "Vitamin D Deficiency Rickets may produce bone disease."
        ann = (
            "T1\tRAREDISEASE 0 28\tVitamin D Deficiency Rickets\n"
            "T2\tSIGN 41 53\tbone disease\n"
            "R1\tproduces Arg1:T1 Arg2:T2\n"
        )
        doc = parse_document(text, ann, "d")
        assert encode_target(doc, "seq2rel") == RICKETS_LINEARIZED

    def test_relation_free_document_encodes_norel(self):
        doc = parse_document("nothing here", "", "d")
        assert encode_target(doc, "seq2rel") == "@NOREL@"

    def test_relations_ordered_by_entity_occurrence(self):
        text = "aaa bbb ccc ddd"
        ann = (
            "T1\tSIGN 0 3\taaa\n"
            "T2\tDISEASE 4 7\tbbb\n"
            "T3\tSYMPTOM 8 11\tccc\n"
            "R1\tproduces Arg1:T3 Arg2:T1\n"
            "R2\tproduces Arg1:T2 Arg2:T3\n"
        )
        doc = parse_document(text, ann, "d")
        encoded = encode_target(doc, "seq2rel")
        assert encoded.index("bbb @Disease@") < encoded.index("ccc @Symptom@ aaa")

    def test_duplicate_relations_collapse_to_one_unit(self):
        text = "aaa bbb"
        ann = (
            "T1\tSIGN 0 3\taaa\n"
            "T2\tDISEASE 4 7\tbbb\n"
            "R1\tproduces Arg1:T1 Arg2:T2\n"
            "R2\tproduces Arg1:T1 Arg2:T2\n"
        )
        doc = parse_document(text, ann, "d")
        encoded = encode_target(doc, "seq2rel")
        assert encoded.count("@PRODUCES@") == 1

    def test_unit_count_equals_collapsed_relation_count(self):
        from raredis_toolkit.schema import PREDICATE_TOKENS

        for doc in synthetic_corpus(seed=89, size=200):
            encoded = encode_target(doc, "seq2rel")
            n_units = sum(encoded.count(tok) for tok in PREDICATE_TOKENS.values())
            assert n_units == len(occurrence_ordered_triples(doc))

    def test_tie_break_on_shared_subject_offset(self):
        # same subject mention: objects order by their occurrence; same
        # object too: predicate tokens order alphabetically
        text = "aaa bbb ccc"
        ann = (
            "T1\tSIGN 0 3\taaa\n"
            "T2\tDISEASE 4 7\tbbb\n"
            "T3\tSYMPTOM 8 11\tccc\n"
            "R1\tproduces Arg1:T1 Arg2:T3\n"
            "R2\tproduces Arg1:T1 Arg2:T2\n"
            "R3\tis_a Arg1:T1 Arg2:T2\n"
        )
        doc = parse_document(text, ann, "d")
        preds = [t.predicate for t in occurrence_ordered_triples(doc)]
        objects = [t.object_text for t in occurrence_ordered_triples(doc)]
        assert objects == ["bbb", "bbb", "ccc"]
        assert preds == ["is_a", "produces", "produces"]  # @IS_A@ < @PRODUCES@

    def test_unresolved_relation_skipped_not_encoded(self, rickets_doc, caplog):
        # the library skips silently; unresolved_refs names what it skipped
        with caplog.at_level(logging.WARNING):
            encoded = encode_target(rickets_doc, "seq2rel")
        assert caplog.records == []
        assert "@ANAPHORA@" not in encoded
        assert rickets_doc.unresolved_refs == (("R5", "Arg2", "T90"),)

    def test_unknown_schema_kind_rejected(self, rickets_doc):
        with pytest.raises(ValueError, match="schema"):
            encode_target(rickets_doc, "markdown")


class TestEncodeTemplates:
    def test_rel_is_sentence(self):
        text = "Wilm's tumor is one kidney cancer."
        ann = (
            "T1\tRAREDISEASE 0 12\tWilm's tumor\n"
            "T2\tDISEASE 20 33\tkidney cancer\n"
            "R1\tis_a Arg1:T1 Arg2:T2\n"
        )
        doc = parse_document(text, ann, "d")
        assert (
            encode_target(doc, "rel_is")
            == "The relation between Wilm's tumor and kidney cancer is hyponym."
        )

    def test_natural_lang_produces_sentence(self):
        text = "Asherman's syndrome often produces abdominal pain."
        ann = (
            "T1\tRAREDISEASE 0 19\tAsherman's syndrome\n"
            "T2\tSYMPTOM 35 49\tabdominal pain\n"
            "R1\tproduces Arg1:T1 Arg2:T2\n"
        )
        doc = parse_document(text, ann, "d")
        assert (
            encode_target(doc, "natural_lang")
            == "Asherman's syndrome is a rare disease that produces abdominal pain, as a symptom"
        )

    def test_relation_free_document_encodes_empty_for_templates(self):
        doc = parse_document("nothing here", "", "d")
        assert encode_target(doc, "rel_is") == ""
        assert encode_target(doc, "natural_lang") == ""

    def test_noun_map_must_keep_fixed_nouns(self):
        bad = dict(DEFAULT_NOUN_MAP, is_a="parent")
        with pytest.raises(ValueError, match="hyponym"):
            validate_noun_map(bad)

    def test_noun_map_names_an_unknown_predicate(self):
        with pytest.raises(ValueError, match="^noun map has unknown predicates: treats$"):
            validate_noun_map(dict(DEFAULT_NOUN_MAP, treats="cure"))

    def test_noun_map_must_be_total(self):
        partial = {k: v for k, v in DEFAULT_NOUN_MAP.items() if k != "produces"}
        with pytest.raises(ValueError, match="produces"):
            validate_noun_map(partial)

    def test_empty_noun_map_is_refused_not_the_default(self, rickets_doc):
        with pytest.raises(ValueError, match="noun map missing predicates"):
            encode_target(rickets_doc, "rel_is", {})
        with pytest.raises(ValueError, match="noun map missing predicates"):
            decode_target_report("The relation between a and b is producer.", "rel_is", {})


class TestDecode:
    def test_seq2rel_worked_example(self):
        assert decode_target_report(RICKETS_LINEARIZED, "seq2rel")[0] == [
            Triple("Vitamin D Deficiency Rickets", "rare_disease", "produces", "bone disease", "sign")
        ]

    def test_norel_decodes_to_empty(self):
        assert decode_target_report("@NOREL@", "seq2rel")[0] == []

    def test_rel_is_synonyms_normalized_then_decoded(self):
        # hand-decoded: normalization leaves "synonyms" as it is, and the
        # rel_is decoder reads that noun as is_synon
        raw = "The relation between A and B is synonyms."
        normalized = normalize_generation(raw)
        assert normalized == raw
        assert decode_target_report(normalized, "rel_is")[0] == [Triple("A", None, "is_synon", "B", None)]

    @pytest.mark.parametrize(
        "schema, generation",
        [
            ("seq2rel", "Ataxia is synonyms @Sign@ fever @Sign@ @PRODUCES@ @END@"),
            ("natural_lang", "The sign Ataxia is synonyms is a type of fever, a sign."),
        ],
    )
    def test_entity_text_holding_is_synonyms_kept(self, schema, generation):
        triples = decode_target_report(normalize_generation(generation), schema)[0]
        assert [(t.subject_text, t.object_text) for t in triples] == [("Ataxia is synonyms", "fever")]

    def test_rel_is_accepts_relationship_variant(self):
        out = decode_target_report("The relationship between A and B is hyponym.", "rel_is")[0]
        assert out == [Triple("A", None, "is_a", "B", None)]

    def test_malformed_segments_skipped_and_reported(self):
        generation = "garbage @Sign@ more @PRODUCES@ a @Sign@ b @Disease@ @IS_A@ @END@"
        triples, report = decode_target_report(generation, "seq2rel")
        assert triples == [Triple("a", "sign", "is_a", "b", "disease")]
        assert report  # the incomplete first unit is reported

    def test_unknown_rel_is_noun_reported(self):
        triples, report = decode_target_report(
            "The relation between A and B is nonsense.", "rel_is"
        )
        assert triples == []
        assert any("nonsense" in reason for _, reason in report)

    def test_decode_order_follows_appearance(self):
        generation = (
            "The relation between A and B is hyponym. "
            "The relation between C and D is producer."
        )
        preds = [t.predicate for t in decode_target_report(generation, "rel_is")[0]]
        assert preds == ["is_a", "produces"]

    @given(st.text(max_size=200))
    @settings(max_examples=300, deadline=None)
    def test_decode_is_total_on_arbitrary_strings(self, generation):
        for kind in SCHEMA_KINDS:
            decode_target_report(generation, kind)[0]  # must never raise

    def test_decode_is_total_on_adversarial_token_soup(self):
        for generation in (
            "@END@", "@PRODUCES@", "x @Sign@", "@Sign@ y", "a @Sign@ b @Sign@ c @Sign@ @IS_A@",
            "@BOGUS@ a @Sign@ b @Disease@ @PRODUCES@ @END@ trailing", "@NOREL@ extra",
        ):
            decode_target_report(generation, "seq2rel")[0]

    def test_adjacent_template_sentences_do_not_bleed_into_each_other(self):
        generation = (
            "The term it is an anaphor that refers back to the entity of the "
            "disease encephalitis. Pexidorm is a sign that produces cytofane, as a symptom"
        )
        decoded = decode_target_report(generation, "natural_lang")[0]
        assert [(t.predicate, t.subject_text, t.object_text) for t in decoded] == [
            ("anaphora", "encephalitis", "it"),
            ("produces", "Pexidorm", "cytofane"),
        ]

    def test_garbage_between_sentences_reported_without_losing_neighbors(self):
        generation = (
            "The relation between A and B is hyponym. utter garbage here. "
            "The relation between C and D is producer."
        )
        triples, report = decode_target_report(generation, "rel_is")
        assert [t.predicate for t in triples] == ["is_a", "produces"]
        assert any("utter garbage here" in segment for segment, _ in report)

    def test_coordinated_object_splits_at_first_and(self):
        # genuinely ambiguous sentence: deterministic first-split behavior
        [t] = decode_target_report("The relation between fingers and toes and tremors is producer.", "rel_is")[0]
        assert (t.subject_text, t.object_text) == ("fingers", "toes and tremors")

    def test_case_mangled_special_tokens_still_decode(self):
        [t] = decode_target_report("alpha @raredisease@ beta @SIGN@ @produces@ @end@", "seq2rel")[0]
        assert (t.subject_type, t.object_type, t.predicate) == ("rare_disease", "sign", "produces")

    @pytest.mark.parametrize(
        "generation, reason",
        [
            ("a @Sign@ b @Sign@ @IS_A@ stray @END@", "text before the end token"),
            ("stray @NOREL@", "text before the no-relation token"),
        ],
    )
    def test_text_before_a_closing_token_is_reported(self, generation, reason):
        assert decode_target_report(generation, "seq2rel")[1] == [("stray", reason)]

    def test_unknown_schema_kind_rejected(self):
        with pytest.raises(ValueError, match="^unknown schema kind 'markdown'$"):
            decode_target_report("a @Sign@ b @Sign@ @IS_A@ @END@", "markdown")

    def test_case_mangled_closing_tokens_still_close(self):
        triples, report = decode_target_report("@norel@ x @Sign@ y @Sign@ @is_a@ @End@ z", "seq2rel")
        assert [(t.subject_text, t.object_text) for t in triples] == [("x", "y")]
        assert report == []

    def test_an_unmatched_opening_quote_is_kept(self):
        triples, report = decode_target_report('The acronym X stands for "Bolem syndrome, a sign.', "natural_lang")
        assert (triples, report) == ([Triple("X", None, "is_acron", '"Bolem syndrome', "sign")], [])

    def test_quotes_around_only_whitespace_are_an_empty_span(self):
        # Triple refuses a blank text
        triples, report = decode_target_report('The acronym X stands for " ", a sign.', "natural_lang")
        assert (triples, [reason for _, reason in report]) == ([], ["empty entity span"])


class TestRoundTrip:
    @pytest.mark.parametrize("kind", SCHEMA_KINDS)
    def test_decode_inverts_encode_at_schema_fidelity(self, kind):
        docs = synthetic_corpus(seed=97, size=300)
        for doc in docs:
            gold = {fidelity_key(t, kind) for t in occurrence_ordered_triples(doc)}
            decoded = decode_target_report(encode_target(doc, kind), kind)[0]
            assert {fidelity_key(t, kind) for t in decoded} == gold


CUSTOM_NOUN_MAP = dict(DEFAULT_NOUN_MAP, produces="cause", anaphora="back reference")


class TestCodec:
    def test_an_unknown_kind_is_refused(self):
        with pytest.raises(ValueError, match="^unknown schema kind 'bogus'$"):
            codec("bogus")
        with pytest.raises(ValueError, match="^unknown schema kind 'bogus'$"):
            codec("bogus", CUSTOM_NOUN_MAP)

    @pytest.mark.parametrize("kind", SCHEMA_KINDS)
    def test_a_bad_noun_map_is_refused_when_the_codec_is_built(self, kind):
        with pytest.raises(ValueError, match="^noun map missing predicates"):
            codec(kind, {"produces": "cause"})
        with pytest.raises(ValueError, match="hyponym"):
            codec(kind, dict(DEFAULT_NOUN_MAP, is_a="parent"))

    def test_only_seq2rel_adds_tokens(self):
        assert codec("seq2rel").special_tokens == tuple(special_tokens())
        assert codec("rel_is").special_tokens == codec("natural_lang", CUSTOM_NOUN_MAP).special_tokens == ()

    @pytest.mark.parametrize("kind", SCHEMA_KINDS)
    def test_the_default_codec_is_built_once(self, kind, monkeypatch):
        calls = []
        monkeypatch.setattr(schema_mod, "validate_noun_map", calls.append)
        assert codec(kind) is codec(kind)
        assert calls == []

    @pytest.mark.parametrize("kind", SCHEMA_KINDS)
    def test_a_noun_map_is_checked_once_per_codec(self, kind, monkeypatch):
        calls = []
        validate = schema_mod.validate_noun_map
        monkeypatch.setattr(schema_mod, "validate_noun_map", lambda m: calls.append(m) or validate(m))
        built = codec(kind, CUSTOM_NOUN_MAP)
        for doc_id, pair in MINI_CORPUS.items():
            built.decode(built.encode(parse_document(*pair(), doc_id)))
        assert calls == [CUSTOM_NOUN_MAP]

    @pytest.mark.parametrize("noun_map", [None, CUSTOM_NOUN_MAP], ids=["default", "custom"])
    @pytest.mark.parametrize("kind", SCHEMA_KINDS)
    def test_a_codec_does_what_the_public_functions_do(self, kind, noun_map):
        built = codec(kind, noun_map)
        generations = [
            RICKETS_LINEARIZED,
            "The relation between A and B is cause. The relation between C and D is producer.",
            "The term it is an anaphor that refers back to the entity of the disease Beta. stray text",
            "The relation between E and F is back reference.",
        ]
        for doc_id, pair in MINI_CORPUS.items():
            doc = parse_document(*pair(), doc_id)
            target = built.encode(doc)
            assert target == encode_target(doc, kind, noun_map)
            generations.append(target)
        for generation in generations:
            assert built.decode(generation) == decode_target_report(generation, kind, noun_map)

    def test_a_custom_noun_is_written_and_read(self, rickets_doc):
        rel_is = codec("rel_is", CUSTOM_NOUN_MAP)
        target = rel_is.encode(rickets_doc)
        assert " is cause." in target and "producer" not in target
        assert {t.predicate for t in rel_is.decode(target)[0]} == {"produces"}


class TestPrompt:
    def test_copy_instruction_prefixed_with_blank_line(self):
        out = build_prompt("some abstract", True)
        assert out.startswith("From the given abstract")
        assert out.endswith("\n\nsome abstract")

    def test_no_instruction_returns_text_unchanged(self):
        assert build_prompt("some abstract", False) == "some abstract"

    def test_prefix_assertion_on_composition(self):
        assert build_prompt(build_prompt("txt", False), True).startswith("From the given abstract")

    def test_empty_text_rejected(self):
        with pytest.raises(ValueError):
            build_prompt("", True)


class TestNormalizeGeneration:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("long - term", "long-term"),
            ("long -term", "long-term"),
            ("( protozoan )", "(protozoan)"),
            ("and / or", "and/or"),
            ("a  lot   of\tspace", "a lot of space"),
            ("  padded  ", "padded"),
            ("word (protozoan) kept", "word (protozoan) kept"),
        ],
    )
    def test_spacing_rules(self, raw, expected):
        assert normalize_generation(raw) == expected

    # tabs, line feeds and NBSP must be collapsed before the space-only rules run
    @given(st.text(alphabet=" \t\n\xa0-/()aB", max_size=60))
    @settings(max_examples=1000, deadline=None)
    def test_same_as_the_regex_rules(self, s):
        expected = collapse_whitespace(s)
        expected = re.sub(r" ?- ?", "-", expected)
        expected = re.sub(r" ?/ ?", "/", expected)
        expected = expected.replace("( ", "(").replace(" )", ")")
        assert normalize_generation(s) == expected

    @given(st.text(max_size=120))
    @settings(max_examples=500, deadline=None)
    def test_idempotent(self, s):
        once = normalize_generation(s)
        assert normalize_generation(once) == once


# every character `\s` matches in a str pattern, which str.split() splits on
REGEX_WHITESPACE = (
    "\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f \x85\xa0\u1680"
    + "".join(map(chr, range(0x2000, 0x200B)))
    + "\u2028\u2029\u202f\u205f\u3000"
)


class TestWhitespaceCollapse:
    r"""normalize_text and normalize_generation collapse whitespace exactly as
    `re.sub(r"\s+", " ", text).strip()` did."""

    def test_alphabet_holds_every_regex_whitespace_character(self):
        every_code_point = "".join(map(chr, range(0x110000)))
        assert "".join(re.findall(r"\s", every_code_point)) == REGEX_WHITESPACE

    # İ, ß and É change under lower(), İ into two code points
    @given(st.text(alphabet=REGEX_WHITESPACE + "aZİßÉ-/()", max_size=40))
    @settings(max_examples=500, deadline=None)
    def test_same_as_the_regex_spelling(self, text):
        collapsed = re.sub(r"\s+", " ", text).strip()
        assert normalize_text(text) == collapsed.lower()
        # the later steps see the same string only if the first step gave it
        assert normalize_generation(text) == normalize_generation(collapsed)


class TestEncodedCorpus:
    def test_examples_carry_prompt_and_target(self, rickets_doc):
        assert rickets_doc.doc_id == "rickets"
        assert build_prompt(rickets_doc.text, copy_instruct=True).startswith("From the given abstract")
        assert encode_target(rickets_doc, "seq2rel").endswith("@END@")

    def test_special_token_list(self):
        assert special_tokens() == [
            "@Disease@", "@RareDisease@", "@Symptom@", "@Sign@", "@Anaphor@", "@RareSkinDisease@",
            "@PRODUCES@", "@INCREASES_RISK_OF@", "@IS_A@", "@IS_ACRON@", "@IS_SYNON@", "@ANAPHORA@",
            "@NOREL@", "@END@",
        ]
