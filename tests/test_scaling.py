"""One table of linear-scaling bounds. A layer that grows faster than linearly
in document length, entities per document or generation length is a defect.
Each row builds its layer's input at two sizes, the second double the first,
and bounds the ratio of the call's times. A row's id is the layer as perfbench
names it: `pytest tests/test_scaling.py -k scoring.errors` runs one row."""

import gc
import itertools
import random
import statistics
import time
from dataclasses import replace
from functools import partial
from typing import Callable, NamedTuple

import pytest

from raredis_toolkit import schema
from raredis_toolkit.corpus import corpus_statistics
from raredis_toolkit.flatten import flatten_document
from raredis_toolkit.repair import repair_all
from raredis_toolkit.schema import SCHEMA_KINDS, decode_target_report, encode_target, normalize_generation
from raredis_toolkit.scoring import categorize_errors, read_triples_file, score_corpus, write_triples_file
from raredis_toolkit.standoff import ENTITY_TYPES, PREDICATES, AnnotatedDocument, EntityMention, RelationInstance
from raredis_toolkit.standoff import parse_document, serialize_document
from raredis_toolkit.triples import Triple
from synth import corrupt_fragment_order, corrupt_relation_argument, corrupt_trailing_char, synthetic_corpus

# doubling a layer's input may at most triple its time
MAX_SCALE_RATIO = 3.0


def time_ratio(run, small, large) -> float:
    """Median over 7 rounds of min-of-2 time of run(large) / min-of-2 time of
    run(small), the two timed alternately within a round.

    Alternating puts a short slow spell of the host on both sides of a round.
    A longer spell that slows only one side of some rounds skews only those
    rounds, and the median passes them over. Each round starts from a full
    collection and runs with the cyclic collector paused, so a ratio measures
    the calls and not where the collector's full collections happen to fall.
    """
    ratios = []
    for _ in range(7):
        best = [float("inf"), float("inf")]
        gc.collect()
        gc.disable()
        try:
            for _ in range(2):
                for i, arg in enumerate((small, large)):
                    start = time.perf_counter()
                    run(arg)
                    best[i] = min(best[i], time.perf_counter() - start)
        finally:
            gc.enable()
        ratios.append(best[1] / best[0])
    return statistics.median(ratios)


def _each(run: Callable) -> Callable:
    def run_all(items):
        for item in items:
            run(item)

    return run_all


def _documents(seed: int, n: int) -> list[AnnotatedDocument]:
    """20 synthetic documents of n entities each."""
    return synthetic_corpus(seed=seed, size=20, min_entities=n, max_entities=n)


def _corrupted(n: int) -> list[AnnotatedDocument]:
    """Each document with one defect for every repair rule."""
    rng = random.Random(97)
    return [
        corrupt_relation_argument(corrupt_trailing_char(corrupt_fragment_order(doc, rng), rng), rng)
        for doc in _documents(89, n)
    ]


def _many_regions(n: int) -> list[AnnotatedDocument]:
    """n disjoint two-fragment entities, each its own rewritten region with a
    copied stretch after it, then n flat entities after all of them: flatten
    emits a region and a stretch per entity before it shifts the flat ones."""
    words = [f"w{i}" for i in range(5 * n)]
    starts = list(itertools.accumulate((len(word) + 1 for word in words[:-1]), initial=0))

    def span(i: int) -> tuple[int, int]:
        return (starts[i], starts[i] + len(words[i]))

    text = " ".join(words)
    entities = []
    for k in range(n):
        fragments = (span(4 * k), span(4 * k + 2))
        surface = " ".join(text[s:e] for s, e in fragments)
        entities.append(EntityMention(f"T{k + 1}", "sign", fragments, surface))
    for k in range(n):
        s, e = span(4 * n + k)
        entities.append(EntityMention(f"T{n + k + 1}", "disease", ((s, e),), text[s:e]))
    return [AnnotatedDocument("regions", text, tuple(entities), ())]


def _densely_related(n: int) -> list[AnnotatedDocument]:
    """20 documents of n entities and n relations between random pairs of them."""
    rng = random.Random(101)
    return [
        replace(doc, relations=tuple(
            RelationInstance(f"R{i + 1}", rng.choice(PREDICATES), *(e.id for e in rng.sample(doc.entities, 2)))
            for i in range(n)
        ))
        for doc in _documents(103, n)
    ]


_rng = random.Random(20231123)
_NONCE = [
    "".join(_rng.choice("bcdfgklmnprstv") + _rng.choice("aeiou") for _ in range(_rng.randint(2, 4)))
    for _ in range(800)
]


def _period_free(words: int) -> str:
    rng = random.Random(words)
    return " ".join(w.capitalize() if rng.random() < 0.15 else w for w in rng.choices(_NONCE, k=words))


def _looping(kind: str, words: int) -> str:
    """One document's encoding repeated to about `words` words, periods removed:
    a model looping until its length limit without ever ending a sentence."""
    words_by_type = ["aplasia", "Bolem syndrome", "fever", "rash", "this disorder", "tinea"]
    ann, pos = [], 0
    for i, (entity_type, surface) in enumerate(zip(ENTITY_TYPES, words_by_type), start=1):
        ann.append(f"T{i}\t{entity_type.upper().replace('_', '')} {pos} {pos + len(surface)}\t{surface}")
        pos += len(surface) + 1
    for i, predicate in enumerate(PREDICATES, start=1):
        ann.append(f"R{i}\t{predicate} Arg1:T{i} Arg2:T{i % len(PREDICATES) + 1}")
    doc = parse_document(" ".join(words_by_type), "\n".join(ann) + "\n", "loop")
    unit = encode_target(doc, kind).replace(".", "").replace(schema.END_TOKEN, "")
    return " ".join([unit] * max(1, words // len(unit.split())))


def _spaced(words: int) -> str:
    """Tokenizer spacing for normalize_generation to undo: runs of spaces, line
    feeds, and spaces around '-', '/' and brackets."""
    rng = random.Random(words)
    marks = [" ", "  ", "\n", " - ", " / ", " ( ", " ) "]
    return "".join(w + rng.choice(marks) for w in rng.choices(_NONCE, k=words))


def _distinct_triples(seed: int, docs: int, per_doc: int) -> dict[str, list[Triple]]:
    """Gold-like triples: every one distinct, in documents of per_doc each."""
    rng = random.Random(seed)
    words = ["tremor", "fever", "rash", "pain", "Weakness", "ataxia", "nodules"]
    return {
        f"doc{d:03d}": [
            Triple(f"{rng.choice(words)} {i}", rng.choice(ENTITY_TYPES), rng.choice(PREDICATES),
                   f"{rng.choice(words)} {rng.randrange(10**6)}", rng.choice(ENTITY_TYPES))
            for i in range(per_doc)
        ]
        for d in range(docs)
    }


def _triples_file(docs: int) -> str:
    path = f"triples{docs}.tsv"  # in the test's working directory, a fresh tmp_path
    write_triples_file(_distinct_triples(7, docs, 20), path)
    return path


def _gold_and_predicted(n: int) -> tuple[dict, dict]:
    """n gold triples per document; half kept as predictions, the rest with a new object."""
    gold, rng = _distinct_triples(13, 20, n), random.Random(11)
    return gold, {
        doc_id: [t if rng.random() < 0.5 else t._replace(object_text=f"spurious {i}") for i, t in enumerate(triples)]
        for doc_id, triples in gold.items()
    }


def _fp_fn(n: int) -> tuple[list[Triple], list[Triple]]:
    """n FPs and n FNs of one predicate, each FP a partial match of one FN,
    with no token shared across pairs. The bound is output-sensitive: the
    candidate pairs are those sharing a subject token, so when every FP shares
    one with every FN the candidates are FP x FN and no linear bound can hold."""
    gold = [Triple(f"s{i}", "disease", "produces", f"o{i}", "sign") for i in range(n)]
    return gold, [Triple(f"s{i}", "disease", "produces", f"o{i} x{i}", "sign") for i in range(n)]


class Row(NamedTuple):
    layer: str  # as perfbench names it
    build: Callable  # size -> input
    sizes: tuple[int, int]
    run: Callable  # input -> anything
    doubling: str  # what doubles, for the failure message


ENTITIES = "the entities per document double"
ROWS = [
    Row("standoff.parse", lambda n: [(*serialize_document(d), d.doc_id) for d in _documents(97, n)], (60, 120),
        _each(lambda pair: parse_document(*pair)), ENTITIES),
    Row("standoff.serialize", partial(_documents, 97), (60, 120), _each(serialize_document), ENTITIES),
    Row("repair", _corrupted, (60, 120), _each(repair_all), ENTITIES),
    Row("corpus.stats", partial(_documents, 89), (60, 120), corpus_statistics, ENTITIES),
    Row("flatten", partial(_documents, 89), (60, 120), _each(flatten_document), ENTITIES),
    Row("flatten.regions", _many_regions, (1000, 2000), _each(flatten_document), "the regions double"),
    *(Row(f"schema.encode.{kind}", _densely_related, (60, 120), _each(partial(encode_target, kind=kind)),
          "the relations double") for kind in SCHEMA_KINDS),
    Row("schema.normalize", _spaced, (5000, 10000), normalize_generation, "the generation doubles"),
    *(Row(f"schema.decode.{kind}{suffix}", build, (2000, 4000), partial(decode_target_report, kind=kind),
          "the generation doubles")
      for kind in SCHEMA_KINDS
      for suffix, build in (("", _period_free), (".loop", partial(_looping, kind)))),
    Row("scoring.read_tsv", _triples_file, (100, 200), read_triples_file, "the records double"),
    Row("scoring.score", _gold_and_predicted, (60, 120), lambda pair: score_corpus(*pair),
        "the triples per document double"),
    Row("scoring.errors", _fp_fn, (200, 400), lambda pair: categorize_errors(*pair), "the FP/FN pairs double"),
]

# every layer of the chain that ROADMAP's north star bounds
REQUIRED_LAYERS = ("standoff.parse", "repair", "corpus.stats", "flatten",
                   *(f"schema.{step}.{kind}" for step in ("encode", "decode") for kind in SCHEMA_KINDS),
                   "scoring.score", "scoring.errors")


@pytest.mark.parametrize("row", ROWS, ids=lambda row: row.layer)
def test_doubling_the_input_at_most_triples_the_time(row, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    small, large = map(row.build, row.sizes)
    assert row.sizes[1] == 2 * row.sizes[0]
    if row.layer.startswith("schema.decode."):
        assert "." not in small + large
    ratio = time_ratio(row.run, small, large)
    assert ratio < MAX_SCALE_RATIO, f"{row.layer}: time x{ratio:.2f} when {row.doubling}"


def test_every_required_layer_has_a_row():
    missing = set(REQUIRED_LAYERS) - {row.layer for row in ROWS}
    assert not missing, f"no scaling bound for {sorted(missing)}"
