"""The scoring-side commands stream: decode holds one generation's triples
at a time, errors one document's records and --docs text, and neither builds
a whole output file. A fault late in the stream still writes nothing."""

import contextlib
import gc
import io
import random
import tracemalloc
from pathlib import Path

import pytest

from raredis_toolkit import schema
from raredis_toolkit.cli import run_cli
from raredis_toolkit.scoring import write_triples_file
from raredis_toolkit.standoff import write_corpus_dir
from raredis_toolkit.triples import Triple
from synth import WORDS, synthetic_corpus
from test_cli import fails_leaving_tree_unchanged

# triples a generation holds, each distinct, as a model's output for a dense document does
TRIPLES_PER_GENERATION = 40


def traced_peak(argv: list) -> int:
    """Bytes the run allocates at its peak above what was live when it started.
    A first, untraced run fills the caches (regexes, the parser, label memos)."""
    argv = [str(a) for a in argv]
    with contextlib.redirect_stdout(io.StringIO()):
        assert run_cli(argv) == 0
        gc.collect()
        tracemalloc.start()
        try:
            live = tracemalloc.get_traced_memory()[0]
            assert run_cli(argv) == 0
            return tracemalloc.get_traced_memory()[1] - live
        finally:
            tracemalloc.stop()


def write_generations(path: Path, n: int) -> Path:
    """n seq2rel generations of distinct random triples, by doc ids g0000, g0001, ..."""
    rng = random.Random(29)
    path.mkdir()
    for i in range(n):
        relations = (
            f"{rng.choice(WORDS)} {rng.choice(WORDS)} @Sign@ {rng.choice(WORDS)} {rng.choice(WORDS)} @Disease@ @IS_A@"
            for _ in range(TRIPLES_PER_GENERATION)
        )
        (path / f"g{i:04d}.txt").write_text(" ".join(relations) + " @END@", encoding="utf-8")
    return path


def scored_files(root: Path, n_docs: int) -> list:
    """Gold triples of a synthetic corpus and a prediction file holding, per
    document, each gold triple, a partial match, a type mismatch and a
    hallucination; returns the score flags without --audit or --docs."""
    rng = random.Random(11)
    docs = synthetic_corpus(seed=11, size=n_docs, min_entities=4)
    write_corpus_dir(docs, root / "docs")
    gold, pred = {}, {}
    for doc in docs:
        gold[doc.doc_id] = schema.occurrence_ordered_triples(doc)
        pred[doc.doc_id] = [p for t in gold[doc.doc_id] for p in (
            t,
            t._replace(subject_text=f"{t.subject_text} {rng.choice(WORDS)}"),
            t._replace(subject_type="disease" if t.subject_type != "disease" else "sign"),
            Triple(rng.choice(WORDS) + "x", "sign", t.predicate, rng.choice(WORDS) + "y", "sign"),
        )]
    write_triples_file(gold, root / "gold.tsv")
    write_triples_file(pred, root / "pred.tsv")
    return ["--gold", root / "gold.tsv", "--pred", root / "pred.tsv"]


class TestWhatTheyHold:
    def test_decode_holds_one_generation_at_a_time(self, tmp_path):
        """Twice the generations: only the file listing grows. A decode that held
        every generation's triples and built the whole TSV doubled its peak."""
        peaks = {}
        for n in (25, 50):
            generations = write_generations(tmp_path / f"gen{n}", n)
            out = tmp_path / f"out{n}"
            argv = ["decode", "--in", generations, "--out", out / "p.tsv", "--schema", "seq2rel",
                    "--report", out / "skipped.tsv"]
            peaks[n] = traced_peak(argv)
            assert (out / "p.tsv").stat().st_size > 0
        assert peaks[50] < 1.3 * peaks[25], peaks

    def test_errors_holds_what_score_holds(self, tmp_path):
        """Both hold the two parsed files; errors adds the --docs paths of the
        named documents and one document's records and text. Holding every
        record, every text and the audit text more than doubled the peak."""
        flags = scored_files(tmp_path, 200)
        score = traced_peak(["score", *flags])
        errors = traced_peak(["errors", *flags, "--audit", tmp_path / "audit.jsonl", "--docs", tmp_path / "docs"])
        assert errors <= 1.15 * score, (errors, score)


def with_swapped_types(triples: list) -> list:
    """Each triple, then a copy of it with another subject type: pred lines that spell gold's texts."""
    swap = {"disease": "sign"}
    return [p for t in triples for p in (t, t._replace(subject_type=swap.get(t.subject_type, "disease")))]


class TestEachTextHeldOnce:
    """read_triples_file holds each distinct text of a file once, so a pred
    line that repeats texts of its file adds a triple, not two more strings.
    Bounds calibrated on 200 synthetic documents (397 gold lines), CPython 3.11."""

    @staticmethod
    def peaks(root: Path, preds: dict) -> dict:
        """score's traced peak against the gold of 200 documents, per named pred file."""
        docs = synthetic_corpus(seed=11, size=200, min_entities=4)
        gold = {doc.doc_id: schema.occurrence_ordered_triples(doc) for doc in docs}
        write_triples_file(gold, root / "gold.tsv")
        peaks = {}
        for name, pred in preds.items():
            write_triples_file({doc_id: pred(triples) for doc_id, triples in gold.items()}, root / f"{name}.tsv")
            peaks[name] = traced_peak(["score", "--gold", root / "gold.tsv", "--pred", root / f"{name}.tsv"])
        return peaks

    def test_a_pred_that_reuses_gold_texts_adds_little(self, tmp_path):
        """Each gold line and a type-swapped copy: 1.70x the peak of an empty
        pred file; 2.60x when each line held its own strings."""
        peaks = self.peaks(tmp_path, {
            "empty": lambda triples: [],
            "reused": with_swapped_types,
        })
        assert peaks["reused"] < 2.0 * peaks["empty"], peaks

    def test_doubling_lines_with_the_same_texts_adds_only_triples(self, tmp_path):
        """Doubling the pred lines grows the peak by 0.58x of what doubling
        them with new texts does; by 0.93x when every line held its own strings."""
        peaks = self.peaks(tmp_path, {
            "once": with_swapped_types,
            "twice": lambda triples: with_swapped_types(triples) * 2,
            "new texts": lambda triples: with_swapped_types(triples) + [
                t._replace(subject_text=f"{t.subject_text} again", object_text=f"{t.object_text} again")
                for t in with_swapped_types(triples)
            ],
        })
        same, new = peaks["twice"] - peaks["once"], peaks["new texts"] - peaks["once"]
        assert same < 0.8 * new, peaks


class TestALateFaultWritesNothing:
    def test_decode_with_a_bad_last_generation(self, tmp_path, capsys):
        generations = write_generations(tmp_path / "gen", 5)
        last = sorted(generations.iterdir())[-1]
        last.write_bytes(last.read_bytes() + b"\xff")
        argv = ["decode", "--in", generations, "--out", tmp_path / "p.tsv", "--schema", "seq2rel",
                "--report", tmp_path / "skipped.tsv"]
        err = fails_leaving_tree_unchanged(tmp_path, argv, capsys)
        assert err.startswith(f"error: {last}: not UTF-8 at byte offset ")

    @pytest.mark.parametrize("existing", [False, True])
    def test_errors_with_a_bad_last_docs_text(self, tmp_path, capsys, existing):
        flags = scored_files(tmp_path, 5)
        # the last text errors reads: that of the last doc id gold.tsv (written in doc id order) names
        doc_id = (tmp_path / "gold.tsv").read_text(encoding="utf-8").splitlines()[-1].split("\t")[0]
        last = tmp_path / "docs" / f"{doc_id}.txt"
        last.write_bytes(b"\xff" + last.read_bytes())
        audit = tmp_path / "audit.jsonl"
        if existing:  # an earlier run's audit is left as it was
            audit.write_text("earlier\n", encoding="utf-8")
        argv = ["errors", *flags, "--audit", audit, "--docs", tmp_path / "docs"]
        err = fails_leaving_tree_unchanged(tmp_path, argv, capsys)
        assert err.startswith(f"error: {last}: not UTF-8 at byte offset 0 ")


class TestDecodeOrder:
    """Generations are decoded in doc id (stem) order, after every name is checked."""

    @staticmethod
    def generations(root: Path) -> Path:
        # by name "a-b.txt" sorts first ("-" before "."); by doc id "a" does
        path = root / "gen"
        path.mkdir()
        (path / "a-b.txt").write_text("p @Sign@ q @Disease@ @IS_A@ junk", encoding="utf-8")
        (path / "a.txt").write_text("r @Sign@ s @Disease@ @IS_A@ more", encoding="utf-8")
        return path

    def test_triples_and_report_come_in_doc_id_order(self, tmp_path, capsys):
        generations = self.generations(tmp_path)
        out, report = tmp_path / "p.tsv", tmp_path / "skipped.tsv"
        argv = ["decode", "--in", generations, "--out", out, "--schema", "seq2rel", "--report", report]
        assert run_cli([str(a) for a in argv]) == 0
        assert capsys.readouterr().out == "decoded 2 triples from 2 generations (2 segments skipped)\n"
        assert [line.split("\t")[0] for line in out.read_text(encoding="utf-8").splitlines()] == ["a", "a-b"]
        assert [line.split("\t")[0] for line in report.read_text(encoding="utf-8").splitlines()] == ["a", "a-b"]

    @pytest.mark.parametrize("fault", ["tab", "shared doc id"])
    def test_a_name_fault_beats_an_earlier_files_utf8_fault(self, tmp_path, capsys, fault):
        generations = self.generations(tmp_path)
        (generations / "a.txt").write_bytes(b"\xff")
        # both names sort after "a.txt", so reading in name order would meet its fault first
        late = generations / ("z\tz.txt" if fault == "tab" else "a.txt~")
        late.write_text("t @Sign@ u @Disease@ @IS_A@", encoding="utf-8")
        argv = ["decode", "--in", generations, "--out", tmp_path / "p.tsv", "--schema", "seq2rel"]
        err = fails_leaving_tree_unchanged(tmp_path, argv, capsys)
        if fault == "tab":
            assert err == "error: generation file name 'z\\tz.txt' holds a tab or line feed\n"
        else:
            assert err == f"error: generation files {generations / 'a.txt'} and {late} share the doc id 'a'\n"
