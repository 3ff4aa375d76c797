"""Stdlib-only smoke of repair -> flatten -> encode -> decode -> score.

For interpreters that have no pytest or hypothesis, such as the oldest
Python that pyproject.toml declares. It writes a defective synthetic corpus
into an empty work directory, runs the CLI steps on it for all three
schemas, and checks that decoding the gold encodings scores F1 1.0. It also
checks decoding's case rule, schema._fold, against this interpreter's re.

    PYTHONPATH=src python tests/floor_smoke.py <empty work directory>

Prints "ok" and exits 0, or exits non-zero naming the step that failed.
"""

import json
import random
import re
import string
import sys
from pathlib import Path

from raredis_toolkit.cli import run_cli
from raredis_toolkit.schema import _fold, occurrence_ordered_triples
from raredis_toolkit.scoring import write_triples_file
from raredis_toolkit.standoff import load_corpus_dir, write_corpus_dir
from synth import (
    corrupt_fragment_order,
    corrupt_relation_argument,
    corrupt_trailing_char,
    synthetic_corpus,
)

# schema flag -> score flags (rel-is and natural-lang do not carry every type)
SCHEMAS = {"seq2rel": [], "rel-is": ["--type-agnostic"], "natural-lang": ["--type-agnostic"]}


def cli(*argv) -> None:
    argv = [str(a) for a in argv]
    if run_cli(argv) != 0:
        sys.exit(f"failed: raredis {' '.join(argv)}")


def fold_mismatches() -> list[str]:
    """What _fold reads otherwise than re does, over a string of every code
    point: a changed length, or a character of the sentence patterns (each
    lowercase ASCII letter, space, comma and period, matched ignoring case,
    and \\s) found at other positions in the folded string."""
    every = "".join(map(chr, range(0x110000)))
    folded = _fold(every)
    if len(folded) != len(every):
        return [f"length {len(every)} -> {len(folded)}"]

    def starts(pattern: str, text: str, flags: int = 0) -> list[int]:
        return [m.start() for m in re.finditer(pattern, text, flags)]

    found = [(re.escape(c), re.IGNORECASE) for c in string.ascii_lowercase + " ,."] + [(r"\s", 0)]
    return [pattern for pattern, flags in found if starts(pattern, every, flags) != starts(pattern, folded)]


def main(work: Path) -> None:
    mismatches = fold_mismatches()
    if mismatches:
        sys.exit(f"failed: _fold and re disagree on {mismatches}")
    rng = random.Random(7)
    docs = [
        corrupt_fragment_order(corrupt_trailing_char(corrupt_relation_argument(d, rng), rng), rng)
        for d in synthetic_corpus(seed=7, size=40)
    ]
    write_corpus_dir(docs, work / "corpus")
    cli("repair", "--in", work / "corpus", "--out", work / "fixed", "--log", work / "repair.log")
    cli("flatten", "--in", work / "fixed", "--out", work / "flat")
    if not (work / "repair.log").read_text(encoding="utf-8"):
        sys.exit("failed: repair logged no fix on a corpus with injected defects")
    flat = load_corpus_dir(work / "flat")
    if any(e.is_discontinuous for d in flat for e in d.entities):
        sys.exit("failed: flatten left a discontinuous entity")
    gold = {d.doc_id: occurrence_ordered_triples(d) for d in flat}
    write_triples_file(gold, work / "gold.tsv")
    for schema, score_flags in SCHEMAS.items():
        records = work / f"{schema}.jsonl"
        cli("encode", "--in", work / "flat", "--out", records, "--schema", schema)
        generations = work / f"gen-{schema}"
        generations.mkdir()
        for line in records.read_text(encoding="utf-8").splitlines():
            row = json.loads(line)
            (generations / f"{row['doc_id']}.txt").write_text(row["target"], encoding="utf-8")
        pred, report = work / f"pred-{schema}.tsv", work / f"score-{schema}.json"
        cli("decode", "--in", generations, "--out", pred, "--schema", schema)
        cli("score", "--gold", work / "gold.tsv", "--pred", pred, "--out", report, *score_flags)
        micro = json.loads(report.read_text(encoding="utf-8"))["micro"]
        if micro["tp"] == 0 or micro["f1"] != 1.0:
            sys.exit(f"failed: {schema} decoded gold scores {micro}")
    print("ok")


if __name__ == "__main__":
    main(Path(sys.argv[1]))
