"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criteria 1-2 (and the corpus-wide half of criterion 3) compare against the
released corpus, which is not bundled here. Point RAREDIS_CORPUS_DIR at the
repaired corpus (train/ dev/ test/ subdirectories of .txt/.ann pairs) and
RAREDIS_ORIGINAL_DIR at the unrepaired release to run them; otherwise they
skip with that reason. Everything else runs self-contained.

Run with: pytest tests/test_acceptance.py -v -s
"""

import os
import random
import time
from pathlib import Path

import pytest

from raredis_toolkit.corpus import corpus_statistics
from raredis_toolkit.flatten import flatten_document
from raredis_toolkit.repair import repair_all, summarize_repairs
from raredis_toolkit.schema import (
    SCHEMA_KINDS,
    decode_target_report,
    encode_target,
    occurrence_ordered_triples,
)
from raredis_toolkit.scoring import read_triples_file, score, score_corpus
from raredis_toolkit.standoff import load_corpus_dir, parse_document
from raredis_toolkit.triples import Triple, distinct_triples
from synth import synthetic_corpus
from test_schema import fidelity_key
from test_scoring import brute_force_counts, random_triples

DATA = Path(__file__).parent / "data"

TABLE_1_ENTITIES = {
    "train": {"sign": 2945, "rare_disease": 2533, "disease": 1369, "anaphor": 913,
              "rare_skin_disease": 393, "symptom": 275},
    "dev": {"sign": 798, "rare_disease": 624, "disease": 278, "anaphor": 195,
            "rare_skin_disease": 58, "symptom": 44},
    "test": {"sign": 528, "rare_disease": 480, "disease": 230, "anaphor": 151,
             "rare_skin_disease": 45, "symptom": 24},
}
TABLE_1_RELATIONS = {
    "train": {"produces": 3256, "anaphora": 918, "is_a": 544, "increases_risk_of": 161,
              "is_acron": 142, "is_synon": 66},
    "dev": {"produces": 850, "anaphora": 195, "is_a": 149, "increases_risk_of": 8,
            "is_acron": 44, "is_synon": 14},
    "test": {"produces": 556, "anaphora": 151, "is_a": 88, "increases_risk_of": 22,
             "is_acron": 34, "is_synon": 16},
}
TABLE_2_SHAPES = {
    "train": {"flat": 7103, "discontinuous": 528, "overlapped": 720, "nested": 77},
    "dev": {"flat": 1666, "discontinuous": 136, "overlapped": 166, "nested": 29},
    "test": {"flat": 1212, "discontinuous": 103, "overlapped": 112, "nested": 31},
}
TABLE_2_TOTALS = {"train": 8428, "dev": 1997, "test": 1458}

COORDINATED_REWRITE = (
    "weakness in the muscles of the arms and weakness in the muscles of the legs"
)


def _corpus_dir(env_var: str) -> Path:
    path = os.environ.get(env_var)
    if not path:
        pytest.skip(f"released corpus not available in this environment; set {env_var} to run")
    return Path(path)


def _load_tree(root: Path) -> list:
    """All .txt/.ann pairs under root, recursively."""
    docs = []
    seen = set()
    for txt in sorted(root.rglob("*.txt")):
        ann = txt.with_suffix(".ann")
        if ann.exists() and txt.stem not in seen:
            seen.add(txt.stem)
            docs.append(
                parse_document(
                    txt.read_text(encoding="utf-8"), ann.read_text(encoding="utf-8"), txt.stem
                )
            )
    if not docs:
        pytest.skip(f"no .txt/.ann pairs found under {root}")
    return docs


def test_criterion_1_corpus_statistics_reproduction():
    root = _corpus_dir("RAREDIS_CORPUS_DIR")
    started = time.monotonic()
    for split in ("train", "dev", "test"):
        stats = corpus_statistics(load_corpus_dir(root / split))
        for etype, expected in TABLE_1_ENTITIES[split].items():
            assert stats.entity_counts[etype] == expected, (split, etype)
        for pred, expected in TABLE_1_RELATIONS[split].items():
            assert stats.relation_counts[pred] == expected, (split, pred)
        for shape, expected in TABLE_2_SHAPES[split].items():
            assert stats.shape_counts[shape] == expected, (split, shape)
        assert stats.total_entities == TABLE_2_TOTALS[split]
    elapsed = time.monotonic() - started
    assert elapsed < 60
    print(f"PASS criterion 1: published statistics reproduced exactly in {elapsed:.1f}s")


def test_criterion_2_repair_rate_reproduction():
    root = _corpus_dir("RAREDIS_ORIGINAL_DIR")
    started = time.monotonic()
    docs = _load_tree(root)
    summary = summarize_repairs([repair_all(doc) for doc in docs])
    assert 0.08 <= summary.relation_argument_rate <= 0.10, summary
    assert summary.span_boundary_rate < 0.01, summary
    elapsed = time.monotonic() - started
    assert elapsed < 60
    print(
        f"PASS criterion 2: relation-argument repairs {summary.relation_argument_rate:.4f} "
        f"in [0.08, 0.10], span repairs {summary.span_boundary_rate:.4f} < 0.01 ({elapsed:.1f}s)"
    )


def test_criterion_3_flattening_worked_example(weakness_doc):
    flat, _ = flatten_document(weakness_doc)
    assert COORDINATED_REWRITE in flat.text
    t1, t2 = flat.entity_map["T1"], flat.entity_map["T2"]
    assert len(t1.fragments) == 1 and len(t2.fragments) == 1
    s, e = t2.fragments[0]
    assert flat.text[s:e] == "weakness in the muscles of the legs"
    print("PASS criterion 3 (worked example): coordination rewritten verbatim")


def test_criterion_3_flattening_full_corpus():
    root = _corpus_dir("RAREDIS_CORPUS_DIR")
    for doc in _load_tree(root):
        repaired, _ = repair_all(doc)
        flat, _ = flatten_document(repaired)
        assert all(len(e.fragments) == 1 for e in flat.entities), doc.doc_id
        assert len(flat.entities) == len(doc.entities), doc.doc_id
        assert len(flat.relations) == len(doc.relations), doc.doc_id
        assert [e.entity_type for e in flat.entities] == [e.entity_type for e in doc.entities]
        assert [r.predicate for r in flat.relations] == [r.predicate for r in doc.relations]
    print("PASS criterion 3 (full corpus): zero multi-fragment entities, counts preserved")


@pytest.mark.parametrize("kind", SCHEMA_KINDS)
def test_criterion_4_schema_round_trip(kind):
    failures = 0
    docs = synthetic_corpus(seed=101, size=1000)
    for doc in docs:
        gold = {fidelity_key(t, kind) for t in occurrence_ordered_triples(doc)}
        decoded = {fidelity_key(t, kind) for t in decode_target_report(encode_target(doc, kind), kind)[0]}
        if decoded != gold:
            failures += 1
    assert failures == 0
    print(f"PASS criterion 4 ({kind}): decode inverted encode on {len(docs)} documents, 0 failures")


def test_criterion_5_scorer_oracle_equivalence():
    rng = random.Random(103)
    mismatches = 0
    for _ in range(1000):
        gold = random_triples(rng, rng.randint(0, 10))
        pred = random_triples(rng, rng.randint(0, 10))
        micro = score(gold, pred).micro
        if (micro.tp, micro.fp, micro.fn) != brute_force_counts(gold, pred):
            mismatches += 1
    assert mismatches == 0

    a = Triple("alpha syndrome", "rare_disease", "produces", "tremor", "sign")
    b = Triple("alpha syndrome", "rare_disease", "is_a", "metabolic disorder", "disease")
    c = Triple("beta disease", "disease", "produces", "fever", "sign")
    micro = score([a, b], [a, c]).micro
    assert (micro.precision, micro.recall, micro.f1) == (0.5, 0.5, 0.5)
    print("PASS criterion 5: scorer matched the brute-force oracle on 1000 instances; fixture P=R=F=0.5")


def test_criterion_6_worked_example_encodings():
    # seq2rel linearization of the produces relation
    text = "Vitamin D Deficiency Rickets may produce bone disease."
    ann = (
        "T1\tRAREDISEASE 0 28\tVitamin D Deficiency Rickets\n"
        "T2\tSIGN 41 53\tbone disease\n"
        "R1\tproduces Arg1:T1 Arg2:T2\n"
    )
    doc = parse_document(text, ann, "d")
    linearized = encode_target(doc, "seq2rel")
    assert linearized == (
        "Vitamin D Deficiency Rickets @RareDisease@ bone disease @Sign@ @PRODUCES@ @END@"
    )
    [back] = decode_target_report(linearized, "seq2rel")[0]
    assert back == Triple(
        "Vitamin D Deficiency Rickets", "rare_disease", "produces", "bone disease", "sign"
    )

    # rel_is sentence; decoding also accepts the "relationship" variant
    text2 = "Wilm's tumor is one kidney cancer."
    ann2 = (
        "T1\tRAREDISEASE 0 12\tWilm's tumor\n"
        "T2\tDISEASE 20 33\tkidney cancer\n"
        "R1\tis_a Arg1:T1 Arg2:T2\n"
    )
    doc2 = parse_document(text2, ann2, "d2")
    sentence = encode_target(doc2, "rel_is")
    assert sentence == "The relation between Wilm's tumor and kidney cancer is hyponym."
    for variant in (sentence, sentence.replace("relation ", "relationship ")):
        [back2] = decode_target_report(variant, "rel_is")[0]
        assert (back2.subject_text, back2.predicate, back2.object_text) == (
            "Wilm's tumor", "is_a", "kidney cancer",
        )

    # the six natural_lang template sentences, character for character
    expected_sentences = {
        ("Asherman's syndrome", "rare_disease", "produces", "abdominal pain", "symptom"):
            "Asherman's syndrome is a rare disease that produces abdominal pain, as a symptom",
        ("encephalitis", "disease", "anaphora", "it", "anaphor"):
            "The term it is an anaphor that refers back to the entity of the disease encephalitis",
        ("diastrophic dysplasia", "disease", "is_synon", "disastrophic dwarfism", "rare_disease"):
            "The disease diastrophic dysplasia and the rare disease disastrophic dwarfism are synonyms",
        ("LQTS", "rare_disease", "is_acron", "long QT syndrome", "rare_disease"):
            "The acronym LQTS stands for long QT syndrome, a rare disease",
        ("neutropenia", "disease", "increases_risk_of", "infections", "disease"):
            "The presence of the disease neutropenia increases the risk of developing the disease infections",
        ("Bowen disease", "rare_skin_disease", "is_a", "skin disorder", "disease"):
            "The rare skin disease Bowen disease is a type of skin disorder, a disease",
    }
    for (s1, t1, pred, s2, t2), expected in expected_sentences.items():
        triple = Triple(s1, t1, pred, s2, t2)
        body = f"{s1} x {s2}"
        ann3 = (
            f"T1\t{t1.replace('_', ' ')} 0 {len(s1)}\t{s1}\n"
            f"T2\t{t2.replace('_', ' ')} {len(s1) + 3} {len(body)}\t{s2}\n"
            f"R1\t{pred} Arg1:T1 Arg2:T2\n"
        )
        doc3 = parse_document(body, ann3, "d3")
        encoded = encode_target(doc3, "natural_lang")
        assert encoded == expected, pred
        [back3] = decode_target_report(encoded, "natural_lang")[0]
        assert fidelity_key(back3, "natural_lang") == fidelity_key(triple, "natural_lang"), pred
    print("PASS criterion 6: worked-example encodings match character for character and invert")


def test_criterion_7_bundled_fixture_scoring_in_lieu_of_model_results():
    # model F1 scores require GPU fine-tuning and stay out of scope; the
    # scorer is instead pinned by criteria 4-6 plus this hand-computed report
    gold = read_triples_file(DATA / "fixture_gold.tsv")
    pred = read_triples_file(DATA / "fixture_pred.tsv")
    report = score_corpus(gold, pred)
    micro = report.micro
    assert (micro.tp, micro.fp, micro.fn) == (3, 2, 3)
    assert micro.precision == 0.6
    assert micro.recall == 0.5
    assert abs(micro.f1 - 6 / 11) < 1e-12

    rows = report.per_predicate
    assert (rows["produces"].tp, rows["produces"].fp, rows["produces"].fn) == (2, 0, 0)
    assert rows["produces"].f1 == 1.0
    assert (rows["anaphora"].tp, rows["anaphora"].fp, rows["anaphora"].fn) == (1, 0, 0)
    assert (rows["is_a"].tp, rows["is_a"].fp, rows["is_a"].fn) == (0, 1, 1)
    assert (rows["is_acron"].tp, rows["is_acron"].fp, rows["is_acron"].fn) == (0, 0, 1)
    assert (rows["is_synon"].tp, rows["is_synon"].fp, rows["is_synon"].fn) == (0, 1, 0)
    assert (rows["increases_risk_of"].tp, rows["increases_risk_of"].fp,
            rows["increases_risk_of"].fn) == (0, 0, 1)
    # collapsing sanity on the fixture: six gold, five predictions
    assert sum(len(distinct_triples(v)) for v in gold.values()) == 6
    assert sum(len(distinct_triples(v)) for v in pred.values()) == 5
    print("PASS criterion 7: bundled fixture report matches the hand-computed expectation")
