"""The sentence-template decoders: same output as finditer, linear time.

The oracle below is the finditer decoding that schema._scan replaced: the
same regular expressions, tried at every start position by finditer.
"""

import random
import re
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from raredis_toolkit import schema
from raredis_toolkit.schema import (
    SCHEMA_KINDS,
    TYPE_WORDS,
    decode_target_report,
    encode_target,
    normalize_generation,
)
from raredis_toolkit.standoff import ENTITY_TYPES, PREDICATES, parse_document
from conftest import MAX_SCALE_RATIO, time_ratio

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
    """decode_target_report with every template tried by finditer."""

    def finditer(template, text):
        return ORACLE_BY_TEMPLATE[template].finditer(text)

    with mock.patch.object(schema, "_scan", finditer):
        return decode_target_report(generation, kind)


def _matches(found) -> list:
    return [(m.span(), m.groupdict()) for m in found]


# --- one definition per sentence ---------------------------------------------


class TestTemplatesAreDerived:
    def test_each_template_is_the_oracle_pattern(self):
        """The head and pattern compiled from each sentence encode writes are
        the hand-written oracle above and its part before the first span."""
        for template, oracle in ORACLE_BY_TEMPLATE.items():
            head, pattern = (compiled.pattern for compiled in template)
            if template is schema._REL_IS_PATTERN:  # encode writes "The", the oracle reads "the"
                head, pattern = head[0].lower() + head[1:], pattern[0].lower() + pattern[1:]
            assert (head, pattern) == (oracle.pattern[: oracle.pattern.index("(?P<s")], oracle.pattern)
            assert template[0].flags == template[1].flags == oracle.flags

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
]
_CASES = [str, str.upper, str.lower, str.title, str.swapcase]

generations = st.lists(
    st.tuples(st.sampled_from(_FRAGMENTS), st.sampled_from(_CASES)), max_size=40
).map(lambda parts: "".join(case(fragment) for fragment, case in parts))


class TestScanMatchesFinditer:
    @pytest.mark.parametrize("kind", ["rel_is", "natural_lang"])
    @settings(max_examples=400, deadline=None)
    @given(generation=generations)
    def test_same_matches_and_decoding(self, kind, generation):
        for text in (generation, normalize_generation(generation)):
            for template, oracle in ORACLE_BY_TEMPLATE.items():
                assert _matches(schema._scan(template, text)) == _matches(oracle.finditer(text))
            assert decode_target_report(text, kind) == oracle_decode_report(text, kind)

    def test_span_before_a_head_still_decodes(self):
        generation = "Garbage The disease X and the sign Y are synonyms."
        expected = oracle_decode_report(generation, "natural_lang")
        assert decode_target_report(generation, "natural_lang") == expected
        assert len(expected[0]) == 1


# --- scaling ----------------------------------------------------------------

SCALE_WORDS = 2000

_rng = random.Random(20231123)
_VOCAB = [
    "".join(_rng.choice("bcdfgklmnprstv") + _rng.choice("aeiou") for _ in range(_rng.randint(2, 4)))
    for _ in range(800)
]


def _random_words(kind: str, words: int) -> str:
    rng = random.Random(words)
    return " ".join(
        w.capitalize() if rng.random() < 0.15 else w for w in rng.choices(_VOCAB, k=words)
    )


def _looping(kind: str, words: int) -> str:
    """One document's encoding repeated to about `words` words, periods removed:
    a model looping until its length limit without ever ending a sentence."""
    words_by_type = ["aplasia", "Bolem syndrome", "fever", "rash", "this disorder", "tinea"]
    text = " ".join(words_by_type)
    ann = []
    pos = 0
    for i, (entity_type, surface) in enumerate(zip(ENTITY_TYPES, words_by_type), start=1):
        ann.append(f"T{i}\t{entity_type.upper().replace('_', '')} {pos} {pos + len(surface)}\t{surface}")
        pos += len(surface) + 1
    for i, predicate in enumerate(PREDICATES, start=1):
        ann.append(f"R{i}\t{predicate} Arg1:T{i} Arg2:T{i % len(PREDICATES) + 1}")
    doc = parse_document(text, "\n".join(ann) + "\n", "loop")
    unit = encode_target(doc, kind).replace(".", "").replace(schema.END_TOKEN, "")
    return " ".join([unit] * max(1, words // len(unit.split())))


class TestDecodeScalesLinearly:
    @pytest.mark.parametrize("build", [_random_words, _looping], ids=["period_free", "looping"])
    @pytest.mark.parametrize("kind", SCHEMA_KINDS)
    def test_doubling_the_generation_at_most_triples_the_time(self, kind, build):
        small, large = build(kind, SCALE_WORDS), build(kind, 2 * SCALE_WORDS)
        assert "." not in small + large
        ratio = time_ratio(lambda generation: decode_target_report(generation, kind), small, large)
        assert ratio < MAX_SCALE_RATIO, f"{kind}: time x{ratio:.2f} when the generation doubles"
