"""The decoders: same output as their oracles, linear time.

The sentence-template oracle below is the finditer decoding that
schema._scan replaced: the same regular expressions, written by hand and
matched with re.IGNORECASE on the generation as written, tried at every start
position by finditer, every template on every generation. The decoders match
their lowered patterns exactly on schema._fold of the generation instead. The
seq2rel oracle is the finditer loop that the one-split decoder replaced.
"""

import io
import re
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from raredis_toolkit import schema
from raredis_toolkit.cli import run_cli
from raredis_toolkit.schema import (
    SCHEMA_KINDS,
    TYPE_WORDS,
    _fold,
    decode_target_report,
    normalize_generation,
)
from raredis_toolkit.standoff import normalize_entity_type, normalize_predicate
from raredis_toolkit.scoring import read_triples_file, triple_writable
from raredis_toolkit.triples import Triple
from conftest import HOSTILE_CHARACTERS
from floor_smoke import fold_mismatches

_SPAN = r"[^.]+?"
_TYPES = "|".join(sorted(TYPE_WORDS.values(), key=len, reverse=True))

ORACLE_REL_IS = re.compile(
    rf"the relation(?:ship)? between (?P<s1>{_SPAN}) and (?P<s2>{_SPAN}) "
    rf"is (?P<noun>[A-Za-z][A-Za-z ]*?)\s*(?:\.|$)",
    re.IGNORECASE,
)
ORACLE_NL = {
    "produces": re.compile(
        rf"(?P<s1>{_SPAN}) is an? (?P<t1>{_TYPES}) that produces "
        rf"(?P<s2>{_SPAN}), as an? (?P<t2>{_TYPES})\.?",
        re.IGNORECASE,
    ),
    "anaphora": re.compile(
        rf"The term (?P<s2>{_SPAN}) is an anaphor that refers back to the entity "
        rf"of the (?P<t1>{_TYPES}) (?P<s1>{_SPAN})(?:\.|$)",
        re.IGNORECASE,
    ),
    "is_synon": re.compile(
        rf"The (?P<t1>{_TYPES}) (?P<s1>{_SPAN}) and the "
        rf"(?P<t2>{_TYPES}) (?P<s2>{_SPAN}) are synonyms?\.?",
        re.IGNORECASE,
    ),
    "is_acron": re.compile(
        rf"The acronym (?P<s1>{_SPAN}) stands for (?P<s2>{_SPAN}), an? (?P<t2>{_TYPES})\.?",
        re.IGNORECASE,
    ),
    "increases_risk_of": re.compile(
        rf"The presence of the (?P<t1>{_TYPES}) (?P<s1>{_SPAN}) increases the risk "
        rf"of developing the (?P<t2>{_TYPES}) (?:of )?(?P<s2>{_SPAN})(?:\.|$)",
        re.IGNORECASE,
    ),
    "is_a": re.compile(
        rf"The (?P<t1>{_TYPES}) (?P<s1>{_SPAN}) is a type of "
        rf"(?P<s2>{_SPAN}), an? (?P<t2>{_TYPES})\.?",
        re.IGNORECASE,
    ),
}
ORACLE_BY_TEMPLATE = {
    schema._REL_IS_PATTERN: ORACLE_REL_IS,
    **{schema._NL_PATTERNS[p]: ORACLE_NL[p] for p in ORACLE_NL},
}


def oracle_decode_report(generation: str, kind: str):
    """decode_target_report with every template tried by finditer, none
    skipped: the empty phrase occurs in every text."""

    def finditer(template, text):
        return ORACLE_BY_TEMPLATE[template].finditer(text)

    no_phrases = dict.fromkeys(schema._NL_PHRASES, "")
    with mock.patch.object(schema, "_scan", finditer), mock.patch.object(schema, "_NL_PHRASES", no_phrases):
        return decode_target_report(generation, kind)


def oracle_seq2rel(generation: str):
    """(triples, report) of seq2rel decoding, one @token@ match at a time."""
    report = []
    triples = []
    pending = []
    pos = 0
    for match in re.finditer(r"@([A-Za-z_]+)@", generation):
        before = generation[pos : match.start()].strip()
        pos = match.end()
        raw = match.group(0)
        name = match.group(1)

        if raw.upper() == schema.END_TOKEN:
            if before:
                report.append((before, "text before the end token"))
            break
        if raw.upper() == schema.NOREL_TOKEN:
            if before:
                report.append((before, "text before the no-relation token"))
            continue

        entity_type = normalize_entity_type(name)
        predicate = normalize_predicate(name)
        if entity_type is not None:
            if not before:
                report.append((raw, "entity-type token without preceding entity text"))
                continue
            pending.append((before, entity_type))
            if len(pending) > 2:
                dropped = pending.pop(0)
                report.append((dropped[0], "more than two entities before a relation token"))
        elif predicate is not None:
            if before:
                report.append((before, "stray text before a relation token"))
            if len(pending) == 2:
                (s_text, s_type), (o_text, o_type) = pending
                triples.append(Triple(s_text, s_type, predicate, o_text, o_type))
            else:
                report.append((raw, "relation token without a subject and object"))
            pending = []
        else:
            report.append((raw, "unknown special token"))
    else:
        tail = generation[pos:].strip()
        if tail:
            report.append((tail, "trailing text without a closing token"))
    for text, _ in pending:
        report.append((text, "entity never attached to a relation"))
    return triples, report


def _matches(found) -> list:
    """Each match's span and its groups, folded."""
    return [(m.span(), {name: _fold(group) for name, group in m.groupdict().items()}) for m in found]


# --- one definition per sentence ---------------------------------------------


class TestTemplatesAreDerived:
    def test_each_template_is_the_oracle_pattern(self):
        """The head and pattern compiled from each sentence encode writes are
        the hand-written oracle above and its part before the first span, up
        to letter case, and match case-sensitively."""
        for template, oracle in ORACLE_BY_TEMPLATE.items():
            head, pattern = (compiled.pattern.lower() for compiled in template)
            expected = oracle.pattern.lower()
            assert (head, pattern) == (expected[: expected.index("(?p<s")], expected)
            assert not (template[0].flags | template[1].flags) & re.IGNORECASE

    def test_each_fixed_phrase_is_written_once(self):
        """A sentence's words live in its template only; no regex respells them."""
        source = Path(schema.__file__).read_text(encoding="utf-8")
        phrases = (
            "The relation between", "that produces", ", as a", "is an anaphor that refers back to the entity of",
            "The term", "are synonyms", "The acronym", "stands for", "The presence of the",
            "increases the risk of", "is a type of",
        )
        assert {p: source.count(p) for p in phrases} == {p: 1 for p in phrases}


# --- equivalence ------------------------------------------------------------

_FRAGMENTS = [
    "The term ", "The acronym ", "The presence of the ", "The relation between ",
    "the relationship between ", "The ", "the ", "term ", "acronym ",
    " is a ", " is an ", " that produces ", ", as a ", ", as an ", ", a ", ", an ",
    " and the ", " and ", " are synonyms", " are synonym", " is a type of ", " stands for ",
    " increases the risk of developing the ", " of ", " is ", " is an anaphor that refers back "
    "to the entity of the ", "producer", "synonyms", "synonym", "hyponym", "risk factor",
    "acronym", "anaphor", "bogus", *TYPE_WORDS.values(), "rare", "skin",
    ".", ". ", ",", " ", "  ", "\n", "-", " - ", "/", "( ", " )", '"', "'", "“", "”", "``", "''",
    "Beta syndrome", "x", "bone disease", "7",
    # letters re.IGNORECASE folds onto ASCII ones and str.lower does not:
    # "ſ" onto "s", Kelvin "K" onto "k", "İ" and "ı" onto "i"
    " that produceſ ", " ſtands for ", "ſign", " increases the risK of developing the ", " İs a type of ",
    " is an anaphor that refers back to the entıty of the ",
    # whole sentences, so that every template matches often
    *(sentence.format(s1="Beta syndrome", t1="rare disease", s2="x", t2="sign", noun="producer")
      for sentence in (schema._REL_IS_SENTENCE, *schema._NL_TEMPLATES.values())),
    "The disease x and the sign 7 are synonym", "x is an sign that produces 7, as an disease",
    "The acronym x stands for 7, an sign", "The sign x is a type of 7, an disease",
    "The presence of the sign x increases the risk of developing the disease of 7",
]
_CASES = [str, str.upper, str.lower, str.title, str.swapcase]


def _generations(fragments):
    return st.lists(st.tuples(fragments, st.sampled_from(_CASES)), max_size=40).map(
        lambda parts: "".join(case(fragment) for fragment, case in parts)
    )


generations = _generations(st.sampled_from(_FRAGMENTS))


class TestScanMatchesFinditer:
    @pytest.mark.parametrize("kind", ["rel_is", "natural_lang"])
    @settings(max_examples=400, deadline=None)
    @given(generation=generations)
    def test_same_matches_and_decoding(self, kind, generation):
        """Scanning the folded text finds the spans the oracle finds in the
        text, and the same groups up to folding."""
        for text in (generation, normalize_generation(generation)):
            for template, oracle in ORACLE_BY_TEMPLATE.items():
                assert _matches(schema._scan(template, _fold(text))) == _matches(oracle.finditer(text))
            assert decode_target_report(text, kind) == oracle_decode_report(text, kind)

    @settings(max_examples=400, deadline=None)
    @given(generation=generations)
    def test_every_match_holds_its_fixed_phrase(self, generation):
        """So a generation whose folded text lacks a template's phrase has no match of it."""
        for text in (generation, normalize_generation(generation)):
            for predicate, oracle in ORACLE_NL.items():
                for match in oracle.finditer(text):
                    assert schema._NL_PHRASES[predicate] in _fold(match.group(0))

    @pytest.mark.parametrize(
        "generation, templates",
        [
            ("The acronym BS stands for Bolem syndrome, a rare disease. The acronym T stands for tinea, a disease",
             ["is_acron"]),
            ("The acronym BS ſtands for Bolem syndrome, a rare disease", ["is_acron"]),
        ],
        ids=["ascii", "non_ascii"],
    )
    def test_scans_the_templates_whose_phrase_it_holds(self, generation, templates):
        scanned = []
        real_scan = schema._scan

        def scan(template, text):
            scanned.append(template)
            return real_scan(template, text)

        with mock.patch.object(schema, "_scan", scan):
            triples, report = decode_target_report(generation, "natural_lang")
        assert scanned == [schema._NL_PATTERNS[p] for p in templates]
        assert {t.predicate for t in triples} == {"is_acron"} and report == []
        assert (triples, report) == oracle_decode_report(generation, "natural_lang")

    def test_a_type_word_in_a_folded_spelling_decodes(self):
        """re.IGNORECASE reads "ſign" as "sign", and so does _fold."""
        triples, report = decode_target_report("The ſign x is a type of 7, a rare sKin dİsease", "natural_lang")
        assert triples == [Triple("x", "sign", "is_a", "7", "rare_skin_disease")] and report == []

    def test_a_rel_is_noun_in_a_folded_spelling_decodes(self):
        triples, report = decode_target_report("The relation between a and b is ſynonym.", "rel_is")
        assert triples == [Triple("a", None, "is_synon", "b", None)] and report == []

    def test_an_unknown_noun_is_named_folded_and_its_sentence_as_written(self):
        generation = "The relation between İa and b is İdiot."
        assert decode_target_report(generation, "rel_is") == ([], [(generation, "unknown relation noun 'idiot'")])

    @pytest.mark.parametrize(
        "generation, kind, triple",
        [
            ("The relation between ſİ and \u212a is hyponym.", "rel_is", Triple("ſİ", None, "is_a", "\u212a", None)),
            ("The Sign ſİ Is A Type Of \u212a, A Sign", "natural_lang", Triple("ſİ", "sign", "is_a", "\u212a", "sign")),
        ],
    )
    def test_entity_texts_keep_the_generation_spelling(self, generation, kind, triple):
        assert decode_target_report(generation, kind) == ([triple], [])

    def test_fold_reads_every_code_point_as_re_does(self):
        """_fold keeps every length, and each character of the sentence
        patterns sits where an ignore-case regex finds it (see floor_smoke)."""
        assert fold_mismatches() == []

    def test_span_before_a_head_still_decodes(self):
        generation = "Garbage The disease X and the sign Y are synonyms."
        expected = oracle_decode_report(generation, "natural_lang")
        assert decode_target_report(generation, "natural_lang") == expected
        assert len(expected[0]) == 1


_TOKENS = [
    "@Sign@", "@sign@", "@END@", "@End@", "@NOREL@", "@PRODUCES@", "@increase_risk_of@", "@Bogus@",
    "@@", "@ @", "@Sign", "a@b", "@1@", "fever", "Beta syndrome", "x", " ", "  ", "\n", ".",
]


class TestSeq2relMatchesItsOracle:
    @settings(max_examples=400, deadline=None)
    @given(generation=st.lists(st.sampled_from(_TOKENS), max_size=40).map("".join))
    def test_same_triples_and_report(self, generation):
        for text in (generation, normalize_generation(generation)):
            assert decode_target_report(text, "seq2rel") == oracle_seq2rel(text)


# --- the CLI over hostile text -----------------------------------------------

# whole rel_is and seq2rel units, which the fragments above rarely assemble
_UNITS = ["The relation between Beta syndrome and x is hyponym. ", "Beta syndrome @RareDisease@ x @Sign@ @IS_A@ "]
# parts drawn about equally from fragments and tokens, hostile characters and whole units
_HOSTILE_PARTS = st.sampled_from(_FRAGMENTS + _TOKENS) | st.sampled_from(HOSTILE_CHARACTERS) | st.sampled_from(_UNITS)


class TestCliDecodesHostileText:
    """decode (normalized and --raw), then score and errors on the two
    triples files, for each schema: every command exits 0 and prints no
    error, and the triples file holds what decoding each text gives, less the
    triples a TSV record cannot hold."""

    @staticmethod
    def decoded(texts: list[str], kind: str) -> dict[str, list[Triple]]:
        decoded = {}
        for i, text in enumerate(texts):
            triples = [t for t in decode_target_report(text, kind)[0] if triple_writable(t)]
            if triples:
                decoded[f"d{i}"] = triples
        return decoded

    @settings(max_examples=150, deadline=None)
    @given(texts=st.lists(_generations(_HOSTILE_PARTS), min_size=1, max_size=3))
    def test_round_trip(self, texts):
        with tempfile.TemporaryDirectory() as tmp, redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
            root = Path(tmp)
            (root / "gen").mkdir()
            for i, text in enumerate(texts):
                (root / "gen" / f"d{i}.txt").write_bytes(text.encode("utf-8"))
            for kind in SCHEMA_KINDS:
                normalized, raw = root / f"{kind}.tsv", root / f"{kind}-raw.tsv"
                runs = ((normalized, [], [normalize_generation(t) for t in texts]), (raw, ["--raw"], texts))
                for out, flags, read in runs:
                    argv = ["decode", "--in", root / "gen", "--out", out, "--schema", kind.replace("_", "-"), *flags]
                    assert run_cli([str(a) for a in argv]) == 0
                    assert read_triples_file(out) == self.decoded(read, kind)
                for argv in (["score", "--out", root / "score.json"], ["errors", "--audit", root / "audit.jsonl"]):
                    assert run_cli([str(a) for a in [*argv, "--gold", normalized, "--pred", raw]]) == 0
            assert err.getvalue() == ""
