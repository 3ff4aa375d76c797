"""Encode gold relations into model-target strings and decode generations back.

Three target schemas:

  seq2rel       — relation units with @EntityType@ / @PREDICATE@ special
                  tokens, ordered by entity occurrence, closed by @END@;
                  relation-free documents encode as @NOREL@.
  rel_is        — one _REL_IS_SENTENCE per relation, closed by a period,
                  naming the noun form of the predicate.
  natural_lang  — one tailored sentence pattern per relation type.

Decoding compiles the lowered sentences encoding writes into regexes and is
total: malformed stretches of a generation are skipped and reported, never
fatal. It has one case rule, _fold: each generation is folded once and
matched exactly, and entity texts are sliced from the generation as written.
natural_lang tries only the templates whose fixed phrase the folded text holds.

codec(kind, noun_map) is the one dispatch on the kind, with the noun map
checked once; encode_target, decode_target_report and the CLI all use it.
"""

from __future__ import annotations

import re
from collections import namedtuple
from collections.abc import Iterator
from functools import lru_cache, partial

from .errors import DocumentError
from .standoff import (
    ENTITY_TYPES,
    PREDICATES,
    AnnotatedDocument,
    normalize_entity_type,
    normalize_predicate,
)
from .triples import Triple, collapse_whitespace, distinct_triples, is_blank

SCHEMA_SEQ2REL = "seq2rel"
SCHEMA_REL_IS = "rel_is"
SCHEMA_NATURAL_LANG = "natural_lang"
SCHEMA_KINDS = (SCHEMA_SEQ2REL, SCHEMA_REL_IS, SCHEMA_NATURAL_LANG)

ENTITY_TOKENS = {t: "@" + t.title().replace("_", "") + "@" for t in ENTITY_TYPES}
PREDICATE_TOKENS = {p: "@" + p.upper() + "@" for p in PREDICATES}
NOREL_TOKEN = "@NOREL@"
END_TOKEN = "@END@"

# only the is_a and is_synon nouns are fixed; the rest may be overridden
DEFAULT_NOUN_MAP = {
    "produces": "producer",
    "increases_risk_of": "risk factor",
    "is_a": "hyponym",
    "is_acron": "acronym",
    "is_synon": "synonym",
    "anaphora": "anaphor",
}

# entity-type names as lowercase words, for the natural_lang templates
TYPE_WORDS = {t: t.replace("_", " ") for t in ENTITY_TYPES}

COPY_INSTRUCTION = (
    "From the given abstract, find all the entities and relations among them. "
    "Do not generate any token outside the abstract."
)

_NL_TEMPLATES = {
    "produces": "{s1} is a {t1} that produces {s2}, as a {t2}",
    "anaphora": "The term {s2} is an anaphor that refers back to the entity of the {t1} {s1}",
    "is_synon": "The {t1} {s1} and the {t2} {s2} are synonyms",
    "is_acron": "The acronym {s1} stands for {s2}, a {t2}",
    "increases_risk_of": (
        "The presence of the {t1} {s1} increases the risk of developing the {t2} {s2}"
    ),
    "is_a": "The {t1} {s1} is a type of {s2}, a {t2}",
}
_REL_IS_SENTENCE = "The relation between {s1} and {s2} is {noun}"


def special_tokens() -> list[str]:
    """All @...@ tokens, for tokenizer setup."""
    return [*ENTITY_TOKENS.values(), *PREDICATE_TOKENS.values(), NOREL_TOKEN, END_TOKEN]


# a noun as the rel_is pattern reads it back once normalize_generation collapses spaces
_NOUN_RE = re.compile(r"[A-Za-z]+(?: [A-Za-z]+)*")


def validate_noun_map(noun_map: dict[str, str]) -> dict[str, str]:
    """Check a predicate -> noun map is total, keeps the fixed nouns, and decodes back: every noun is
    letters in words split by single spaces, and no two predicates share a noun in any case."""
    if not isinstance(noun_map, dict):
        raise ValueError("noun map must be an object mapping predicates to nouns")
    missing = [p for p in PREDICATES if not noun_map.get(p)]
    if missing:
        raise ValueError(f"noun map missing predicates: {', '.join(missing)}")
    extra = [p for p in noun_map if p not in PREDICATES]
    if extra:
        raise ValueError(f"noun map has unknown predicates: {', '.join(extra)}")
    malformed = [p for p, n in noun_map.items() if not (isinstance(n, str) and _NOUN_RE.fullmatch(n))]
    if malformed:
        raise ValueError(f"noun map nouns must be letters in words split by single spaces: {', '.join(malformed)}")
    if noun_map["is_a"] != "hyponym" or noun_map["is_synon"] != "synonym":
        raise ValueError('noun map must keep is_a="hyponym" and is_synon="synonym"')
    # decoding reads "synonyms" as is_synon's noun too (see codec)
    if len({noun.lower() for noun in noun_map.values()} | {"synonyms"}) <= len(noun_map):
        raise ValueError('noun map gives two predicates the same noun (case-insensitive; "synonyms" is "synonym")')
    return noun_map


def occurrence_ordered_triples(doc: AnnotatedDocument) -> list[Triple]:
    """Document triples in entity-occurrence order, duplicates collapsed.

    Order: subject first-fragment start, then object first-fragment start,
    then predicate token. Relations with unresolved arguments are skipped;
    doc.unresolved_refs names them. Multi-fragment entity text is the
    recorded surface text (fragments joined by single spaces). A blank one
    raises DocumentError naming its entity.
    """
    keyed = []
    for rel, subj, obj in doc.resolved_relations():
        try:
            triple = Triple(
                subj.surface_text, subj.entity_type, rel.predicate, obj.surface_text, obj.entity_type
            )
        except ValueError as exc:  # a blank surface text: name its entity
            blank = subj if is_blank(subj.surface_text) else obj
            raise DocumentError(doc.doc_id, f"entity {blank.id}: {exc}") from None
        keyed.append(((subj.first_start, obj.first_start, PREDICATE_TOKENS[rel.predicate]), triple))
    keyed.sort(key=lambda item: item[0])
    return list(distinct_triples(triple for _, triple in keyed).values())


def encode_target(doc: AnnotatedDocument, kind: str, noun_map: dict[str, str] | None = None) -> str:
    """Render a repaired document's relation set in the given schema."""
    return codec(kind, noun_map).encode(doc)


def _encode_seq2rel(doc: AnnotatedDocument) -> str:
    triples = occurrence_ordered_triples(doc)
    if not triples:
        return NOREL_TOKEN
    units = [
        f"{t.subject_text} {ENTITY_TOKENS[t.subject_type]} "
        f"{t.object_text} {ENTITY_TOKENS[t.object_type]} {PREDICATE_TOKENS[t.predicate]}"
        for t in triples
    ]
    return " ".join(units) + f" {END_TOKEN}"


def _encode_sentences(templates: dict[str, str], close: str, doc: AnnotatedDocument) -> str:
    """One sentence per relation from its predicate's template, joined by ". ", then close."""
    sentences = [
        templates[t.predicate].format(
            s1=t.subject_text,
            t1=TYPE_WORDS[t.subject_type],
            s2=t.object_text,
            t2=TYPE_WORDS[t.object_type],
        )
        for t in occurrence_ordered_triples(doc)
    ]
    return ". ".join(sentences) + close if sentences else ""


def build_prompt(doc_text: str, copy_instruct: bool) -> str:
    """Optionally prefix the copy instruction, a blank line, then the text."""
    if not doc_text:
        raise ValueError("doc_text must be non-empty")
    if copy_instruct:
        return f"{COPY_INSTRUCTION}\n\n{doc_text}"
    return doc_text


def normalize_generation(generation: str) -> str:
    """Undo tokenizer spacing artifacts in a generated string. Idempotent.

    Collapses whitespace runs, trims the ends, and deletes single spaces next
    to hyphens and forward slashes and inside round brackets.
    """
    s = collapse_whitespace(generation)
    # only single spaces are left, so each is the one space a mark may have on a side
    for mark in "-/":
        if mark in s:
            s = mark.join(part.strip(" ") for part in s.split(mark))
    return s.replace("( ", "(").replace(" )", ")")


# --- decoding ---------------------------------------------------------------

_AT_TOKEN_RE = re.compile(r"@([A-Za-z_]+)@")
_QUOTE_PAIRS = (('"', '"'), ("'", "'"), ("“", "”"), ("‘", "’"), ("``", "''"))
_QUOTE_OPENERS = tuple(open_q for open_q, _ in _QUOTE_PAIRS)

# longest first so "rare skin disease" is not read as "rare disease"
_TYPE_WORD_ALT = "|".join(sorted(TYPE_WORDS.values(), key=len, reverse=True))
_WORD_TO_TYPE = {TYPE_WORDS[t]: t for t in ENTITY_TYPES}


def _fold(text: str) -> str:
    """text in decoding's one letter case: str.lower, after "İ", "ı" and "ſ", which
    an ignore-case regex reads as ASCII letters, are made ASCII. One character
    becomes one, so an offset into the folded text is an offset into text."""
    return text.replace("İ", "i").replace("ı", "i").replace("ſ", "s").lower()

# Entity spans may not cross sentence boundaries, so a mangled sentence
# cannot swallow its well-formed neighbors. _scan relies on this too: every
# head and every span is period-free, so a template that fails at its first
# head in a sentence fails at every later start in that sentence.
_SPAN = r"[^.]+?"
# what decoding reads each placeholder of a sentence as
_GROUPS = {"s1": _SPAN, "s2": _SPAN, "t1": _TYPE_WORD_ALT, "t2": _TYPE_WORD_ALT, "noun": r"[A-Za-z][A-Za-z ]*?"}

# what decoding reads beyond the words encode writes, besides "an" for "a"
# before a type word: each phrase of a sentence and the regex it becomes
_ALSO_READ = {
    "relation": "relation(?:ship)?",
    "{noun}": r"{noun}\s*",
    "synonyms": "synonyms?",
    "developing the {t2} ": "developing the {t2} (?:of )?",
}


def _as_read(sentence: str) -> str:
    """The sentence with each phrase decoding reads more loosely rewritten as
    its regex; the placeholders stay, in order."""
    for phrase, read in _ALSO_READ.items():
        sentence = sentence.replace(phrase, read)
    return re.sub(r"\ba (?=\{t)", "an? ", sentence)


def _template(sentence: str) -> tuple[re.Pattern, re.Pattern]:
    """(the head every match starts with, the whole pattern) in folded text,
    compiled from a sentence encode_target writes, whose words are regex-safe.
    The head ends before the first span, so the rest begins with a span.
    """
    # a closing span or noun ends at a period or the text's end; other endings may omit the period
    closing = r"(?:\.|$)" if sentence.endswith(("{s1}", "{s2}", "{noun}")) else r"\.?"
    pattern = _as_read(sentence.lower()).format(**{name: f"(?P<{name}>{body})" for name, body in _GROUPS.items()})
    head = pattern[: pattern.index("(?P<s")]
    return re.compile(head), re.compile(pattern + closing)


_REL_IS_PATTERN = _template(_REL_IS_SENTENCE)
_NL_PATTERNS = {predicate: _template(sentence) for predicate, sentence in _NL_TEMPLATES.items()}


_PLACEHOLDER_RE = re.compile(r"\{\w+\}")


def _fixed_phrase(sentence: str) -> str:
    """The longest stretch between placeholders that _template copies into the
    pattern unchanged, lowered. Every match in folded text holds it."""
    stretches = zip(_PLACEHOLDER_RE.split(sentence), _PLACEHOLDER_RE.split(_as_read(sentence)))
    return max((written for written, read in stretches if written == read), key=len).lower()


_NL_PHRASES = {predicate: _fixed_phrase(sentence) for predicate, sentence in _NL_TEMPLATES.items()}


def _scan(template: tuple[re.Pattern, re.Pattern], text: str) -> Iterator[re.Match]:
    """The matches pattern.finditer(text) gives, for template = (head, pattern).

    finditer retries at every start, and each failed attempt rescans to the
    next period: quadratic in sentence length. A match at a later start
    before that period would extend back to a match at this head (see
    _SPAN), so after a failed attempt the scan resumes past the period.
    """
    head_re, pattern = template
    pos = 0
    while True:
        head = head_re.search(text, pos)
        if head is None:
            return
        match = pattern.match(text, head.start())
        if match is not None:
            yield match
            pos = match.end()
        else:
            pos = text.find(".", head.start()) + 1
            if pos == 0:
                return


def _strip_quotes(text: str) -> str:
    if not text.startswith(_QUOTE_OPENERS):
        return text
    for open_q, close_q in _QUOTE_PAIRS:
        if text.startswith(open_q) and text.endswith(close_q) and len(text) > len(open_q) + len(close_q):
            return text[len(open_q) : -len(close_q)]
    return text


# what a seq2rel token is, in the order decoding tests its name
_END, _NOREL, _ENTITY, _RELATION, _UNKNOWN = range(5)


@lru_cache(maxsize=1024)  # bounded: model output may spell any number of names
def _seq2rel_token(name: str) -> tuple[int, str | None]:
    """(what @name@ is, its entity type or predicate): the end token, the
    no-relation token, an entity type, a predicate, or an unknown token."""
    token = f"@{name.upper()}@"
    if token == END_TOKEN:
        return _END, None
    if token == NOREL_TOKEN:
        return _NOREL, None
    entity_type = normalize_entity_type(name)
    if entity_type is not None:
        return _ENTITY, entity_type
    predicate = normalize_predicate(name)
    if predicate is not None:
        return _RELATION, predicate
    return _UNKNOWN, None


def _decode_seq2rel(generation: str) -> tuple[list[Triple], list[tuple[str, str]]]:
    triples: list[Triple] = []
    report: list[tuple[str, str]] = []
    pending: list[tuple[str, str]] = []
    pieces = _AT_TOKEN_RE.split(generation)  # text, name, text, ..., name, text
    for before, name in zip(pieces[::2], pieces[1::2]):
        before = before.strip()
        token_kind, label = _seq2rel_token(name)

        if token_kind == _END:
            if before:
                report.append((before, "text before the end token"))
            break
        if token_kind == _NOREL:
            if before:
                report.append((before, "text before the no-relation token"))
            continue

        if token_kind == _ENTITY:
            if not before:
                report.append((f"@{name}@", "entity-type token without preceding entity text"))
                continue
            pending.append((before, label))
            if len(pending) > 2:
                dropped = pending.pop(0)
                report.append((dropped[0], "more than two entities before a relation token"))
        elif token_kind == _RELATION:
            if before:
                report.append((before, "stray text before a relation token"))
            if len(pending) == 2:
                (s_text, s_type), (o_text, o_type) = pending
                triples.append(Triple(s_text, s_type, label, o_text, o_type))
            else:
                report.append((f"@{name}@", "relation token without a subject and object"))
            pending = []
        else:
            report.append((f"@{name}@", "unknown special token"))
    else:
        tail = pieces[-1].strip()
        if tail:
            report.append((tail, "trailing text without a closing token"))
    for text, _ in pending:
        report.append((text, "entity never attached to a relation"))
    return triples, report


def _decode_by_patterns(generation, candidates, build) -> tuple[list[Triple], list[tuple[str, str]]]:
    """Accept non-overlapping matches left to right, from (predicate, match)
    candidates in the folded generation ordered by start, longer first; report
    uncovered text, and each match for which build returns a skip reason."""
    triples, report = [], []
    cursor = 0
    for predicate, match in candidates:
        start, end = match.span()
        if start < cursor:
            continue
        gap = generation[cursor:start].strip(" .")
        if gap:
            report.append((gap, "unrecognized text between relation sentences"))
        try:
            built = build(predicate, match)
        except ValueError:  # Triple refuses a blank entity text
            built = "empty entity span"
        if isinstance(built, str):
            report.append((generation[start:end].strip(), built))
        else:
            triples.append(built)
        cursor = end
    tail = generation[cursor:].strip(" .")
    if tail:
        report.append((tail, "unrecognized trailing text"))
    return triples, report


def _decode_rel_is(noun_to_pred: dict[str, str], generation: str) -> tuple[list[Triple], list[tuple[str, str]]]:
    def build(_: str, match: re.Match) -> Triple | str:
        noun = match.group("noun")  # folded; the \s* after it takes any trailing space
        predicate = noun_to_pred.get(noun)
        if predicate is None:
            return f"unknown relation noun {noun!r}"
        (a, b), (c, d) = match.span("s1"), match.span("s2")
        return Triple(generation[a:b].strip(), None, predicate, generation[c:d].strip(), None)

    # one template's scan yields its matches in order
    candidates = (("", m) for m in _scan(_REL_IS_PATTERN, _fold(generation)))
    return _decode_by_patterns(generation, candidates, build)


def _decode_natural_lang(generation: str) -> tuple[list[Triple], list[tuple[str, str]]]:
    def build(predicate: str, match: re.Match) -> Triple:
        groups = match.groupdict()  # type words read folded
        t1 = _WORD_TO_TYPE[groups["t1"]] if "t1" in groups else None
        t2 = _WORD_TO_TYPE[groups["t2"]] if "t2" in groups else None
        if predicate == "anaphora":
            t2 = "anaphor"  # the template itself asserts the term is an anaphor
        (a, b), (c, d) = match.span("s1"), match.span("s2")
        return Triple(generation[a:b].strip(), t1, predicate, _strip_quotes(generation[c:d].strip()), t2)

    folded = _fold(generation)
    candidates = [
        (predicate, match)
        for predicate, template in _NL_PATTERNS.items()
        if _NL_PHRASES[predicate] in folded
        for match in _scan(template, folded)
    ]
    candidates.sort(key=lambda item: (item[1].start(), -item[1].end()))
    return _decode_by_patterns(generation, candidates, build)


def decode_target_report(
    generation: str, kind: str, noun_map: dict[str, str] | None = None
) -> tuple[list[Triple], list[tuple[str, str]]]:
    """Decode a generation; also return (segment, reason) for skipped parts."""
    return codec(kind, noun_map).decode(generation)


# what codec gives for a schema kind
Codec = namedtuple("Codec", "encode decode special_tokens")


def codec(kind: str, noun_map: dict[str, str] | None = None) -> Codec:
    """A schema kind's encode(doc) -> target, its total decode(generation) ->
    (triples, [(segment, reason) skipped]), and the special tokens a tokenizer
    must add (none but seq2rel's). rel_is names noun_map's nouns, the default
    if None; the default codecs are built at import. An unknown kind or a noun
    map validate_noun_map refuses raises ValueError here, not at a document."""
    if noun_map is None and (default := _DEFAULT_CODECS.get(kind)):
        return default
    nouns = validate_noun_map(DEFAULT_NOUN_MAP if noun_map is None else noun_map)
    if kind == SCHEMA_SEQ2REL:
        return Codec(_encode_seq2rel, _decode_seq2rel, tuple(special_tokens()))
    if kind == SCHEMA_REL_IS:
        # decoding also reads "synonyms" as is_synon's noun, which validate_noun_map keeps free
        noun_to_pred = {noun.lower(): pred for pred, noun in nouns.items()} | {"synonyms": "is_synon"}
        templates = {pred: _REL_IS_SENTENCE.replace("{noun}", noun) for pred, noun in nouns.items()}
        return Codec(partial(_encode_sentences, templates, "."), partial(_decode_rel_is, noun_to_pred), ())
    if kind == SCHEMA_NATURAL_LANG:
        return Codec(partial(_encode_sentences, _NL_TEMPLATES, ""), _decode_natural_lang, ())
    raise ValueError(f"unknown schema kind {kind!r}")


_DEFAULT_CODECS: dict[str, Codec] = {}
_DEFAULT_CODECS.update((kind, codec(kind)) for kind in SCHEMA_KINDS)
