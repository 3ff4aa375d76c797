import copy
import itertools
import os
import pickle
import random
import re
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from raredis_toolkit import standoff
from raredis_toolkit.cli import run_cli
from raredis_toolkit.errors import StandoffParseError, ToolkitError
from raredis_toolkit.repair import RepairEntry
from raredis_toolkit.schema import ENTITY_TOKENS, PREDICATE_TOKENS, decode_target_report
from raredis_toolkit.scoring import ErrorRecord
from raredis_toolkit.standoff import (
    ENTITY_TYPE_LABELS,
    ENTITY_TYPES,
    PREDICATES,
    AnnotatedDocument,
    EntityMention,
    RelationInstance,
    load_corpus_dir,
    normalize_entity_type,
    normalize_predicate,
    parse_document,
    serialize_document,
    write_corpus_dir,
    write_outputs,
)
from raredis_toolkit.triples import Triple
from conftest import LINE_BREAK_ALPHABET, tree_snapshot
from synth import synthetic_corpus


class TestParse:
    def test_dangling_relation_argument_is_recorded_not_dropped(self, rickets_doc):
        assert len(rickets_doc.relations) == 2
        r5 = rickets_doc.entity_map  # noqa: F841 - exercise the map build
        rel = rickets_doc.relations[1]
        assert (rel.id, rel.predicate, rel.subject_ref, rel.object_ref) == (
            "R5", "anaphora", "T1", "T90",
        )
        assert rickets_doc.unresolved_refs == (("R5", "Arg2", "T90"),)

    def test_empty_annotation_content(self):
        doc = parse_document("some text", "", "d")
        assert doc.entities == ()
        assert doc.relations == ()
        assert doc.unresolved_refs == ()

    def test_multi_fragment_entity_hand_parsed(self):
        # hand-read: fragments (10,20) and (25,30), surface "foo bar"
        text = "x" * 40
        doc = parse_document(text, "T1\tSIGN 10 20;25 30\tfoo bar\n", "d")
        ent = doc.entities[0]
        assert ent.fragments == ((10, 20), (25, 30))
        assert ent.surface_text == "foo bar"
        assert ent.entity_type == "sign"

    def test_every_accepted_line_contributes_one_annotation(self, rickets_doc):
        text, ann = serialize_document(rickets_doc)
        n_lines = len([l for l in ann.splitlines() if l.strip()])
        assert n_lines == len(rickets_doc.entities) + len(rickets_doc.relations)

    def test_blank_lines_are_skipped(self):
        doc = parse_document("x" * 10, "\nT1\tSIGN 0 5\txxxxx\n\n", "d")
        assert len(doc.entities) == 1

    @pytest.mark.parametrize(
        "line,reason_part",
        [
            ("T1\tSIGN 0 5", "fields"),  # missing surface field
            ("T1\tSIGN 0 5\tfoo\textra", "fields"),
            ("T1\tSIGN zero 5\tfoo", "type/offsets"),
            ("T1\tMYSTERY 0 5\tfoo", "unknown entity type"),
            ("T1\tSIGN 0 99\tfoo", "invalid offsets"),
            ("T1\tSIGN 5 5\tfoo", "invalid offsets"),  # empty interval
            ("T1\tSIGN 5 2\tfoo", "invalid offsets"),
            ("R1\tproduces Arg1:T1", "relation"),
            ("R1\tmystery Arg1:T1 Arg2:T2", "unknown relation type"),
            ("R1\tproduces Arg1:X1 Arg2:T2", "T<digits>"),
            ("E1\tevent stuff", "unsupported line type"),
            ("#1\tnote text", "unsupported line type"),
            ("Tx\tSIGN 0 5\tfoo", "bad entity id 'Tx'"),
            ("R1x\tproduces Arg1:T5 Arg2:T5", "bad relation id 'R1x'"),
            ("R1\tproduces Arg1:T5 Arg2:T5\textra", "relation line has 3 tab-separated fields, expected 2"),
            ("T\tSIGN 0 5\tfoo", "bad entity id 'T'"),
            ("TT1\tSIGN 0 5\tfoo", "bad entity id 'TT1'"),
            ("T1 \tSIGN 0 5\tfoo", "bad entity id 'T1 '"),
            ("T²\tSIGN 0 5\tfoo", "bad entity id 'T²'"),  # a digit, but not a decimal digit
            ("t1\tSIGN 0 5\tfoo", "unsupported line type 't'"),
            ("R1\tproduces Arg1:T5 Arg2:T5x", "relation arguments must be T<digits> ids"),
            ("R1\tproduces Arg1:R1 Arg2:T5", "relation arguments must be T<digits> ids"),
            ("T1\tSIGN ٠ ٣\tabc", "cannot parse type/offsets field 'SIGN ٠ ٣'"),  # offsets are ASCII digits
        ],
    )
    def test_malformed_lines_raise_with_line_number(self, line, reason_part):
        with pytest.raises(StandoffParseError) as excinfo:
            parse_document("x" * 10, f"T5\tSIGN 0 3\txxx\n{line}\n", "d")
        assert excinfo.value.line_no == 2
        assert reason_part in str(excinfo.value)

    LINE_FEED_HINT = "(entity T1 before it spans a line feed in the text; its surface cannot fit on one .ann line)"

    @pytest.mark.parametrize(
        "ann",
        [
            "T1\tSIGN 0 3\ta\nb",  # the surface written out whole
            "T1\tSIGN 0 3\ta\n\nb\n",  # a blank line between
            "T1\tSIGN 2 3;0 3\tb a\nb",  # the line feed in another fragment
        ],
    )
    def test_a_surface_run_onto_the_next_line_names_its_entity(self, ann):
        with pytest.raises(StandoffParseError) as excinfo:
            parse_document("a\nb", ann, "d")
        line_no = ann.count("\n") + (0 if ann.endswith("\n") else 1)
        assert str(excinfo.value) == f"d:{line_no}: unsupported line type 'b' {self.LINE_FEED_HINT}"

    @pytest.mark.parametrize(
        "ann",
        [
            "T1\tSIGN 0 1\ta\nb",  # T1 covers no line feed
            "T1\tSIGN 0 3\ta b\nR1\tproduces Arg1:T1 Arg2:T1\nb",  # a relation line before
            "b\nT1\tSIGN 0 3\ta b",  # nothing before
        ],
    )
    def test_no_hint_without_an_entity_spanning_a_line_feed_before(self, ann):
        with pytest.raises(StandoffParseError, match=r"^d:\d: unsupported line type 'b'$"):
            parse_document("a\nb", ann, "d")

    @pytest.mark.parametrize("offsets", ["0 1 ; 2 3", "0 1; 2 3", "0 1 ;2 3", "0 1;2 3"])
    def test_any_spaces_may_surround_a_semicolon(self, offsets):
        doc = parse_document("abcd", f"T1\tSIGN {offsets}\ta c\n", "d")
        assert doc.entities == (EntityMention("T1", "sign", ((0, 1), (2, 3)), "a c"),)

    def test_ids_and_arguments_may_use_any_decimal_digits(self):
        doc = parse_document("x" * 10, "T١\tSIGN 0 3\txxx\nR1\tproduces Arg1:T١ Arg2:T١\n", "d")
        assert [e.id for e in doc.entities] == ["T١"]
        assert (doc.relations[0].subject_ref, doc.relations[0].object_ref) == ("T١", "T١")
        assert doc.unresolved_refs == ()

    def test_duplicate_id_rejected(self):
        ann = "T1\tSIGN 0 3\txxx\nT1\tSIGN 4 7\txxx\n"
        with pytest.raises(StandoffParseError) as excinfo:
            parse_document("x" * 10, ann, "d")
        assert excinfo.value.line_no == 2
        assert "duplicate" in str(excinfo.value)

    def test_duplicate_relation_id_rejected(self):
        ann = "T1\tSIGN 0 3\txxx\nR1\tis_a Arg1:T1 Arg2:T1\nR1\tproduces Arg1:T1 Arg2:T1\n"
        with pytest.raises(StandoffParseError, match="^d:3: duplicate id R1$"):
            parse_document("x" * 10, ann, "d")

    def test_empty_doc_id_rejected(self):
        with pytest.raises(ValueError, match="^doc_id must be non-empty$"):
            AnnotatedDocument("", "text", (), ())
        with pytest.raises(ValueError, match="^doc_id must be non-empty$"):  # before any line is read
            parse_document("text", "X1\tnot a line\n", "")

    def test_span_text_mismatch_preserved_verbatim(self):
        doc = parse_document("abcdefghij", "T1\tSIGN 0 3\tWRONG\n", "d")
        assert doc.entities[0].surface_text == "WRONG"
        assert doc.entities[0].fragments == ((0, 3),)

    def test_fragment_order_preserved_verbatim(self):
        doc = parse_document("x" * 50, "T1\tSIGN 30 35;10 15\tba dc\n", "d")
        assert doc.entities[0].fragments == ((30, 35), (10, 15))


class TestAnnotationIds:
    def test_agrees_with_the_regex_at_every_code_point(self):
        names = itertools.chain(
            (f"T{chr(c)}" for c in range(0x110000)), ["", "T", "t1", "TT1", "T1 ", "T1x", "R1"]
        )
        digits = re.compile(r"T\d+")
        assert [n for n in names if standoff.is_ann_id(n, "T") != bool(digits.fullmatch(n))] == []


_TRIPLE = Triple("fever", "sign", "is_a", "symptom", "symptom")


class TestRecords:
    """Entities, relations, repair entries and error records are named tuples."""

    @pytest.mark.parametrize(
        "record,changes,derived,before,after",
        [
            (
                EntityMention("T1", "sign", ((4, 6), (0, 2)), "ef ab"),
                {"fragments": ((1, 3),)},
                lambda e: (e.is_discontinuous, e.first_start, e.covering_span, e.slice_text("abcdef")),
                (True, 4, (0, 6), "ef ab"),
                (False, 1, (1, 3), "bc"),
            ),
            (RelationInstance("R1", "produces", "T1", "T2"), {"object_ref": "T3"}, lambda r: (), (), ()),
            (RepairEntry("relation_argument", "R1", "T90", "T9"), {"after": "UNRESOLVED"}, lambda r: (), (), ()),
            (
                ErrorRecord("d", "spurious"),
                {"predicted": _TRIPLE},
                lambda r: (r.predicted, r.gold, r.to_dict()["predicted"]),
                (None, None, None),
                (_TRIPLE, None, list(_TRIPLE)),
            ),
        ],
        ids=["EntityMention", "RelationInstance", "RepairEntry", "ErrorRecord"],
    )
    def test_replace_equality_copy_and_pickle(self, record, changes, derived, before, after):
        changed = record._replace(**changes)
        assert derived(record) == before and derived(changed) == after
        assert changed == tuple({**record._asdict(), **changes}.values()) != record
        assert record == tuple(getattr(record, name) for name in record._fields)
        assert copy.copy(record) == record == pickle.loads(pickle.dumps(record))
        assert type(pickle.loads(pickle.dumps(changed))) is type(record)


class TestDerivedReferences:
    def test_replaced_relations_give_their_own_unresolved_refs(self, rickets_doc):
        assert rickets_doc.unresolved_refs == (("R5", "Arg2", "T90"),)
        r2 = rickets_doc.relations[0]
        doc = replace(rickets_doc, relations=(r2, RelationInstance("R7", "produces", "T3", "T2")))
        assert doc.unresolved_refs == (("R7", "Arg1", "T3"),)

    def test_dropping_an_argument_entity_leaves_its_relation_unresolved(self, rickets_doc):
        assert rickets_doc.unresolved_refs == (("R5", "Arg2", "T90"),)
        kept = tuple(e for e in rickets_doc.entities if e.id != "T2")
        doc = replace(rickets_doc, entities=kept)
        assert doc.unresolved_refs == (("R2", "Arg2", "T2"), ("R5", "Arg2", "T90"))

    def test_derived_refs_do_not_enter_equality(self, rickets_doc):
        text, ann = serialize_document(rickets_doc)
        fresh = parse_document(text, ann, "rickets")
        assert rickets_doc.unresolved_refs  # cached on one side only
        assert fresh == rickets_doc and hash(fresh) == hash(rickets_doc)


class TestTypeNormalization:
    @pytest.mark.parametrize(
        "label,expected",
        [
            ("SKINRAREDISEASE", "rare_skin_disease"),
            ("skin rare disease", "rare_skin_disease"),
            ("rare skin disease", "rare_skin_disease"),
            ("Rare-Disease", "rare_disease"),
            ("RAREDISEASE", "rare_disease"),
            ("Sign", "sign"),
            ("ANAPHOR", "anaphor"),
            ("bogus", None),
        ],
    )
    def test_entity_labels(self, label, expected):
        assert normalize_entity_type(label) == expected

    @pytest.mark.parametrize(
        "label,expected",
        [
            ("increase_risk_of", "increases_risk_of"),
            ("increases_risk_of", "increases_risk_of"),
            ("IS_A", "is_a"),
            ("anaphora", "anaphora"),
            ("treats", None),
        ],
    )
    def test_predicate_labels(self, label, expected):
        assert normalize_predicate(label) == expected


# The hand-written alias tables from before the label tables were derived,
# pinned here so the oracles do not follow changes to the module's tables.
ORACLE_ENTITY_TYPE_ALIASES = {
    "disease": "disease",
    "rare_disease": "rare_disease",
    "raredisease": "rare_disease",
    "symptom": "symptom",
    "sign": "sign",
    "anaphor": "anaphor",
    "rare_skin_disease": "rare_skin_disease",
    "rareskindisease": "rare_skin_disease",
    "skin_rare_disease": "rare_skin_disease",
    "skinraredisease": "rare_skin_disease",
}
ORACLE_PREDICATE_ALIASES = {
    "produces": "produces",
    "increases_risk_of": "increases_risk_of",
    "increase_risk_of": "increases_risk_of",
    "is_a": "is_a",
    "is_acron": "is_acron",
    "is_synon": "is_synon",
    "anaphora": "anaphora",
}


def oracle_entity_type(label: str) -> str | None:
    """The uncached lookup, spelled with the regex as before memoization."""
    key = re.sub(r"[\s\-]+", "_", label.strip().lower())
    hit = ORACLE_ENTITY_TYPE_ALIASES.get(key)
    if hit is None:
        hit = ORACLE_ENTITY_TYPE_ALIASES.get(key.replace("_", ""))
    return hit


def oracle_predicate(label: str) -> str | None:
    return ORACLE_PREDICATE_ALIASES.get(re.sub(r"[\s\-]+", "_", label.strip().lower()))


_SPELLINGS = sorted(
    {*ENTITY_TYPES, *ENTITY_TYPE_LABELS.values(), *PREDICATES}
    | {token.strip("@") for token in (*ENTITY_TOKENS.values(), *PREDICATE_TOKENS.values())}
)
_SEPARATORS = [" ", "\t", "-", "_", "", "  ", " - ", "\u2028", "\x85", "\u3000"]
_CASINGS = (str.lower, str.upper, str.title, str.swapcase, str)


@st.composite
def spelled_labels(draw) -> str:
    """A known spelling's words rejoined by arbitrary separators, padded, recased."""
    first, *rest = draw(st.sampled_from(_SPELLINGS)).split("_")
    label = first + "".join(draw(st.sampled_from(_SEPARATORS)) + word for word in rest)
    pad = st.sampled_from(["", " ", "\t", "\u3000", "-", "_"])
    return draw(st.sampled_from(_CASINGS))(draw(pad) + label + draw(pad))


# whole spellings, their words, separators, and characters whose lower()
# changes length (İ) or whose case changes do (ß)
_LABEL_PIECES = (
    _SPELLINGS
    + sorted({word for spelling in _SPELLINGS for word in spelling.split("_")})
    + _SEPARATORS
    + ["İ", "ß", "x"]
)
labels = spelled_labels() | st.lists(
    st.tuples(st.sampled_from(_LABEL_PIECES), st.sampled_from(_CASINGS)), max_size=6
).map(lambda parts: "".join(case(piece) for piece, case in parts))


class TestLabelMemo:
    @settings(max_examples=500, deadline=None)
    @given(labels)
    def test_both_lookups_equal_the_uncached_spelling(self, label):
        for _ in range(2):  # a miss, then a hit
            assert normalize_entity_type(label) == oracle_entity_type(label)
            assert normalize_predicate(label) == oracle_predicate(label)

    def test_alphabet_reaches_every_canonical_name(self):
        assert {oracle_entity_type(s) for s in _SPELLINGS} >= set(ENTITY_TYPES)
        assert {oracle_predicate(s) for s in _SPELLINGS} >= set(PREDICATES)

    @pytest.mark.parametrize("lookup", [normalize_entity_type, normalize_predicate])
    def test_cache_stays_within_its_bound(self, lookup):
        maxsize = lookup.cache_info().maxsize
        assert maxsize is not None
        for i in range(5000):
            assert lookup(f"unknown label {i}") is None
        assert lookup.cache_info().currsize <= maxsize

    def test_unknown_seq2rel_token_still_reported_when_warm(self):
        generation = "aplasia @Bogus@ fever @Sign@ @PRODUCES@"
        for _ in range(2):
            _, report = decode_target_report(generation, "seq2rel")
            assert ("@Bogus@", "unknown special token") in report
        assert normalize_entity_type.cache_info().hits > 0


class TestSerialize:
    def test_round_trip_of_defect_fixture(self, rickets_doc):
        text, ann = serialize_document(rickets_doc)
        assert parse_document(text, ann, rickets_doc.doc_id) == rickets_doc

    def test_two_fragment_entity_writes_one_separator(self):
        doc = parse_document("x" * 40, "T1\tSIGN 10 20;25 30\tfoo bar\n", "d")
        _, ann = serialize_document(doc)
        assert ann.count(";") == 1

    def test_zero_annotation_document_writes_empty_ann(self):
        doc = parse_document("plain text", "", "d")
        assert serialize_document(doc) == ("plain text", "")

    def test_surface_with_tab_or_newline_is_unserializable(self):
        import dataclasses

        doc = parse_document("ab\tcd", "T1\tSIGN 0 5\tplace\n", "d")
        broken = dataclasses.replace(
            doc, entities=(doc.entities[0]._replace(surface_text="ab\tcd"),)
        )
        with pytest.raises(Exception, match="tab or newline"):
            serialize_document(broken)

    def test_round_trip_randomized(self):
        # parse(serialize(d)) == d on 1000 synthetic documents
        for doc in synthetic_corpus(seed=7, size=1000):
            text, ann = serialize_document(doc)
            assert parse_document(text, ann, doc.doc_id) == doc


class TestDirectoryIO:
    def test_write_then_load_round_trips(self, tmp_path, rickets_doc, weakness_doc):
        write_corpus_dir([rickets_doc, weakness_doc], tmp_path / "out")
        loaded = load_corpus_dir(tmp_path / "out")
        assert loaded == [rickets_doc, weakness_doc]

    def test_the_reader_reads_every_file_first_and_parses_as_taken(self, tmp_path, rickets_doc, weakness_doc):
        out = tmp_path / "out"
        write_corpus_dir([rickets_doc, weakness_doc], out)
        (out / "z.txt").write_text("abc", encoding="utf-8")
        (out / "z.ann").write_text("T1\tSIGN 0 9\tabc\n", encoding="utf-8")
        docs = standoff.iter_corpus_dir(out)
        for path in out.iterdir():
            path.unlink()  # every byte is held already
        assert [next(docs), next(docs)] == [rickets_doc, weakness_doc]
        with pytest.raises(StandoffParseError, match="^z:1: invalid offsets 0 9"):
            next(docs)

    def test_bad_utf8_fails_when_its_document_is_taken(self, tmp_path, rickets_doc):
        out = tmp_path / "out"
        write_corpus_dir([rickets_doc], out)
        (out / "z.txt").write_bytes(b"\xff")
        (out / "z.ann").write_bytes(b"")
        docs = standoff.iter_corpus_dir(out)
        assert next(docs) == rickets_doc
        with pytest.raises(ToolkitError, match="z.txt: not UTF-8 at byte offset 0"):
            next(docs)

    def test_orphan_txt_fails_in_strict_mode(self, tmp_path):
        d = tmp_path / "c"
        d.mkdir()
        (d / "a.txt").write_text("text", encoding="utf-8")
        with pytest.raises(Exception, match="unpaired"):
            load_corpus_dir(d)
        assert load_corpus_dir(d, strict_pairs=False) == []


def oracle_input_files(path) -> list[Path]:
    """input_files as a sorted list of one pathlib.Path per file."""
    with os.scandir(path) as entries:
        return sorted(Path(e.path) for e in entries if e.is_file() and not e.name.startswith("."))


def oracle_paired_texts(path, strict_pairs: bool = True) -> dict[str, Path]:
    """paired_texts by Path.stem and Path.suffix."""
    files = oracle_input_files(path)
    txts = {p.stem: p for p in files if p.suffix == ".txt"}
    anns = {p.stem for p in files if p.suffix == ".ann"}
    orphans = sorted(set(txts) ^ anns)
    if orphans and strict_pairs:
        raise ToolkitError(f"unpaired .txt/.ann files: {', '.join(orphans)}")
    return {doc_id: txts[doc_id] for doc_id in sorted(set(txts) & anns)}


class TestStringListing:
    """The str listing gives the order, doc ids, paths and messages that one
    pathlib.Path per file gave."""

    NAMES = [
        "doc.", "doc.ann", "a..txt", "a..ann", "x.y.txt", "x.y.ann", "UPPER.TXT", "UPPER.ann",
        "\u00e9.txt", "\u00e9.ann", "e\u0301.txt", "a b.txt", "a b.ann", "B.txt", "B.ann", "b.txt",
        "noext", "z.", "tail..", ".hidden.txt", "._x.ann", "10.txt", "9.txt", "9.ann", "~.ann",
    ]
    SPELLINGS = ["c", "./c", "./c/", "c//", "c/./", ".//c//", "."]

    @pytest.fixture
    def corpus(self, tmp_path, monkeypatch):
        d = tmp_path / "c"
        d.mkdir()
        (d / "sub.txt").mkdir()  # a directory is never an input
        for name in self.NAMES:
            (d / name).write_text("" if name.endswith(".ann") else "text", encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        return d

    @pytest.mark.parametrize("spelling", SPELLINGS + ["absolute"])
    def test_listing_equals_the_pathlib_listing(self, corpus, spelling, monkeypatch):
        if spelling == "absolute":
            spelling = str(corpus)
        elif spelling == ".":
            monkeypatch.chdir(corpus)
        expected = oracle_input_files(spelling)
        assert standoff.input_files(spelling) == [str(p) for p in expected]
        assert [standoff.path_stem(p) for p in standoff.input_files(spelling)] == [p.stem for p in expected]

    @pytest.mark.parametrize("spelling", SPELLINGS)
    def test_pairing_equals_the_pathlib_pairing(self, corpus, spelling, monkeypatch, caplog):
        if spelling == ".":
            monkeypatch.chdir(corpus)
        with pytest.raises(ToolkitError) as expected:
            oracle_paired_texts(spelling)
        with pytest.raises(ToolkitError) as got:
            standoff.paired_texts(spelling)
        assert str(got.value) == str(expected.value) == (
            "unpaired .txt/.ann files: 10, UPPER, b, doc, e\u0301, ~"
        )
        pairs = standoff.paired_texts(spelling, strict_pairs=False)
        assert pairs == {k: str(v) for k, v in oracle_paired_texts(spelling, strict_pairs=False).items()}
        assert list(pairs) == ["9", "B", "a b", "a.", "x.y", "\u00e9"]
        assert caplog.messages == [f"skipping unpaired .txt/.ann files: {str(got.value).split(': ', 1)[1]}"]
        docs = load_corpus_dir(spelling, strict_pairs=False)
        assert [doc.doc_id for doc in docs] == list(pairs)
        assert docs == [standoff.read_document_pair(Path(txt)) for txt in pairs.values()]

    def test_parse_errors_name_the_ann_as_pathlib_spells_it(self, corpus, capsys):
        (corpus / "x.y.ann").write_text("T1\tSIGN 9 9\tx\n", encoding="utf-8")
        for spelling in ("./c/", "c//"):
            assert run_cli(["stats", "--in", spelling, "--lenient-pairs"]) == 1
            assert capsys.readouterr().err == (
                "error: c/x.y.ann:1: invalid offsets 9 9 (need 0 <= start < end <= document length 4)\n"
            )

    def test_missing_files_are_named_as_pathlib_spells_them(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        for spelling in ("./nowhere.tsv", "a//nowhere", str(tmp_path) + "/"):
            with pytest.raises(OSError) as expected:
                Path(spelling).read_bytes()
            with pytest.raises(OSError) as got:
                standoff.read_file(spelling)
            assert (type(got.value), got.value.filename) == (type(expected.value), expected.value.filename)

    @given(st.text(alphabet=".ab\u00e9 ~", min_size=1).filter(lambda name: name != "."))
    def test_path_stem_is_pathlib_stem(self, name):
        assert standoff.path_stem(name) == Path(name).stem
        assert standoff.path_stem(f"dir/{name}") == Path("dir", name).stem



class TestWriteOutputs:
    @pytest.fixture
    def existing(self, tmp_path) -> Path:
        (tmp_path / "d").mkdir()
        (tmp_path / "d" / "old.txt").write_text("old", encoding="utf-8")
        return tmp_path / "d"

    def test_writes_new_and_replaced_files_and_directories(self, existing):
        write_outputs([
            (existing / "old.txt", "replaced"),
            (existing / "new.txt", "new"),
            (existing / "a" / "b", None),
            (existing / "c" / "e.txt", "deep"),
        ])
        assert tree_snapshot(existing) == {
            "a": None, "a/b": None, "c": None, "c/e.txt": b"deep", "new.txt": b"new", "old.txt": b"replaced",
        }

    @pytest.mark.parametrize("fault", [ToolkitError, KeyboardInterrupt])
    def test_a_fault_while_generating_undoes_everything(self, existing, fault):
        before = tree_snapshot(existing)

        def items():
            yield existing / "old.txt", "replaced"
            # a replacement waits for the last item; a new file is made at once
            assert (existing / "old.txt").read_text(encoding="utf-8") == "old"
            yield existing / "new.txt", "new"
            assert (existing / "new.txt").exists()
            yield existing / "x" / "y" / "z.txt", "deep"
            yield existing / "e", None
            raise fault("stop")

        with pytest.raises(fault):
            write_outputs(items())
        assert tree_snapshot(existing) == before

    def test_one_file_named_twice_is_an_error(self, existing, monkeypatch):
        monkeypatch.chdir(existing.parent)
        before = tree_snapshot(existing)
        for first, second in (("d/new.txt", "d/../d/new.txt"), ("d/old.txt", existing / "old.txt")):
            with pytest.raises(ToolkitError, match="named by two outputs of one run"):
                write_outputs([(first, "1"), (second, "2")])
            assert tree_snapshot(existing) == before

    def test_a_directory_target_is_an_error(self, existing):
        (existing / "sub").mkdir()
        before = tree_snapshot(existing)
        with pytest.raises(ToolkitError, match="is a directory, not a file"):
            write_outputs([(existing / "old.txt", "replaced"), (existing / "sub", "text")])
        assert tree_snapshot(existing) == before

    def test_only_standoff_writes_to_disk(self):
        """Every command's files go through write_outputs: no other module
        opens, makes, replaces or writes a file."""
        package = Path(standoff.__file__).parent
        calls = ("write_file(", "open(", ".mkdir(", "os.mkdir(", "os.makedirs(", "os.replace(")
        offenders = [
            f"{path.name}: {call}"
            for path in sorted(package.glob("*.py"))
            if path.name != "standoff.py"
            for call in calls
            if call in path.read_text(encoding="utf-8")
        ]
        assert offenders == []


@st.composite
def annotated_documents(draw):
    text = draw(st.text(alphabet=LINE_BREAK_ALPHABET, min_size=1, max_size=20))
    entities = []
    for i in range(draw(st.integers(0, 3))):
        bounds = sorted(draw(st.sets(st.integers(0, len(text)), min_size=2, max_size=4)))
        fragments = tuple(zip(bounds[::2], bounds[1::2]))
        surface = draw(st.text(alphabet=LINE_BREAK_ALPHABET, max_size=10))
        entities.append(EntityMention(f"T{i + 1}", draw(st.sampled_from(ENTITY_TYPES)), fragments, surface))
    relations = tuple(
        RelationInstance(f"R{i + 1}", draw(st.sampled_from(PREDICATES)), "T1", "T2")
        for i in range(draw(st.integers(0, 1)))
    )
    return AnnotatedDocument("d", text, tuple(entities), relations)


class TestLineBreakRoundTrip:
    @given(annotated_documents())
    @settings(max_examples=300, deadline=None)
    def test_round_trips_exactly_or_is_rejected(self, doc):
        unwritable = any(
            "\t" in e.surface_text or "\n" in e.surface_text or e.surface_text.endswith("\r")
            for e in doc.entities
        )
        if unwritable:
            with pytest.raises(ToolkitError):
                serialize_document(doc)
            return
        text, ann = serialize_document(doc)
        assert parse_document(text, ann, doc.doc_id) == doc
        with tempfile.TemporaryDirectory() as tmp:
            write_corpus_dir([doc], tmp)
            assert load_corpus_dir(tmp) == [doc]


# pieces of a record file: every kind of line break (only "\n" splits), a
# form feed, characters of two to four UTF-8 bytes, and bytes no UTF-8 holds
# (a stray continuation, a lead byte cut short, a byte never in UTF-8)
RECORD_FILE_PIECES = [
    b"\n", b"\r\n", b"\r", "\u2028".encode(), "\x85".encode(), b"\x0c", b"a", b"\t",
    "é".encode(), "€".encode(), "\U0001F9EC".encode(), b"\x80", b"\xe2\x82", b"\xff",
]


def read_outcome(read, path):
    """What read(path) gives, or the message of the ToolkitError it raises."""
    try:
        return read(path)
    except ToolkitError as exc:
        return f"raised {exc}"


def records_both_ways(data: bytes, block: int) -> tuple:
    """(iter_records, split_records of read_file) on a file of data, with
    iter_records reading block bytes at a time."""
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        patch.setattr(standoff, "_BLOCK_BYTES", block)
        path = Path(tmp) / "records.tsv"
        path.write_bytes(data)
        return (
            read_outcome(lambda p: list(standoff.iter_records(p)), path),
            read_outcome(lambda p: standoff.split_records(standoff.read_file(p)), path),
        )


class TestRecordReader:
    """iter_records reads a file in blocks of whole lines, and gives what
    split_records(read_file(path)) gives, errors included."""

    @given(
        st.one_of(st.binary(max_size=64), st.lists(st.sampled_from(RECORD_FILE_PIECES), max_size=40).map(b"".join)),
        st.sampled_from([1, 2, 3, 4, 5, 7, standoff._BLOCK_BYTES]),
    )
    @settings(max_examples=500, deadline=None)
    def test_is_split_records_of_read_file(self, data, block):
        streamed, whole = records_both_ways(data, block)
        assert streamed == whole

    @pytest.mark.parametrize("block", [1, 2, 3, standoff._BLOCK_BYTES])
    @pytest.mark.parametrize(
        "data, records",
        [
            (b"", []),
            (b"a\r\nb\r\n", ["a", "b"]),
            (b"a\rb\n\r", ["a\rb", ""]),
            ("a\u2028b\x85c\x0cd\n".encode(), ["a\u2028b\x85c\x0cd"]),
            (b"a\nb", ["a", "b"]),
            ("é\n\U0001F9EC€\n\U0001F9EC".encode(), ["é", "\U0001F9EC€", "\U0001F9EC"]),
        ],
        ids=["empty", "crlf", "lone cr", "unicode breaks", "no final newline", "multibyte across blocks"],
    )
    def test_line_breaks_and_block_edges(self, data, records, block):
        assert records_both_ways(data, block) == (records, records)

    @pytest.mark.parametrize("block", [1, 2, 5, standoff._BLOCK_BYTES])
    @pytest.mark.parametrize(
        "data, offset, reason",
        [
            (b"ok\nfine\n\xff", 8, "invalid start byte"),
            (b"ok\nab\xc3\ncd\n", 5, "invalid continuation byte"),
            (b"ok\nab\xe2\x82", 5, "unexpected end of data"),
        ],
        ids=["bad byte", "cut before a line feed", "cut at the end"],
    )
    def test_a_non_utf8_byte_raises_what_read_file_raises(self, data, offset, reason, block):
        streamed, whole = records_both_ways(data, block)
        assert streamed == whole
        assert whole.endswith(f": not UTF-8 at byte offset {offset} ({reason})")

    def test_missing_files_are_named_as_read_file_names_them(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        for spelling in ("./nowhere.tsv", "a//nowhere", str(tmp_path) + "/"):
            with pytest.raises(OSError) as expected:
                standoff.read_file(spelling)
            with pytest.raises(OSError) as got:
                next(standoff.iter_records(spelling))
            assert (type(got.value), got.value.filename) == (type(expected.value), expected.value.filename)

    def test_records_before_a_bad_block_come_first(self, monkeypatch, tmp_path):
        monkeypatch.setattr(standoff, "_BLOCK_BYTES", 3)  # a block per line
        path = tmp_path / "r.tsv"
        path.write_bytes(b"ab\ncd\n\xff\n")
        records = standoff.iter_records(path)
        assert [next(records), next(records)] == ["ab", "cd"]
        with pytest.raises(ToolkitError, match=re.escape(f"{path}: not UTF-8 at byte offset 6 (invalid start byte)")):
            next(records)
