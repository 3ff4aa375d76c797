"""Corpus commands stream their input: each holds the input files' bytes and
one parsed document at a time, and a corpus with several faults fails on the
first document, in doc_id order, that fails at any stage. A flag error comes
before any input file or document error."""

import weakref
from pathlib import Path

import pytest

from raredis_toolkit import standoff
from raredis_toolkit.cli import run_cli
from raredis_toolkit.schema import SCHEMA_KINDS
from raredis_toolkit.standoff import write_corpus_dir
from synth import synthetic_corpus
from test_cli import fails_leaving_tree_unchanged

N_DOCS = 50


@pytest.fixture
def corpus(tmp_path) -> Path:
    path = tmp_path / "corpus"
    write_corpus_dir(synthetic_corpus(seed=27, size=N_DOCS), path)
    return path


@pytest.fixture
def most_alive(monkeypatch):
    """The most documents parse_document has returned that were alive at
    once, read as each new one is returned."""
    alive = weakref.WeakSet()
    most = [0]
    parse = standoff.parse_document

    def tracked(*args, **kwargs):
        doc = parse(*args, **kwargs)
        alive.add(doc)
        most[0] = max(most[0], len(alive))
        return doc

    monkeypatch.setattr(standoff, "parse_document", tracked)
    return most


def commands(corpus: Path, out: Path) -> dict[str, list]:
    ids = sorted(p.stem for p in corpus.glob("*.ann"))
    lists = []
    for name, part in (("train", ids[:30]), ("dev", ids[30:40]), ("test", ids[40:])):
        (out / f"{name}.list").write_text("".join(f"{i}\n" for i in part), encoding="utf-8")
        lists += [f"--{name}-list", out / f"{name}.list"]
    argvs = {
        "repair": ["repair", "--in", corpus, "--out", out / "fixed", "--log", out / "repair.log"],
        "split-ratio": ["split", "--in", corpus, "--out", out / "ratio", "--ratios", "0.8,0.1,0.1"],
        "split-list": ["split", "--in", corpus, "--out", out / "lists", *lists],
        "stats": ["stats", "--in", corpus, "--out", out / "stats.json"],
        "flatten": ["flatten", "--in", corpus, "--out", out / "flat"],
    }
    for kind in SCHEMA_KINDS:
        argvs[f"encode-{kind}"] = ["encode", "--in", corpus, "--out", out / kind / "records.jsonl", "--schema", kind]
    return argvs


@pytest.mark.parametrize(
    "command", ["repair", "split-ratio", "split-list", "stats", "flatten", *(f"encode-{k}" for k in SCHEMA_KINDS)]
)
def test_at_most_two_parsed_documents_are_alive(corpus, tmp_path, most_alive, capsys, command):
    """The one being taken and the one before it, which a loop variable may still hold."""
    out = tmp_path / "out"
    out.mkdir()
    argv = commands(corpus, out)[command]
    assert run_cli([str(a) for a in argv]) == 0, capsys.readouterr().err
    assert 1 <= most_alive[0] <= 2


def failing_corpus(root: Path) -> Path:
    """a fails repair (overlapping fragments) and z fails to parse (duplicate id)."""
    corpus = root / "c"
    corpus.mkdir()
    for doc_id, text, ann in [
        ("a", "abcdefghij", "T1\tSIGN 0 5;3 8\tabcde defgh\n"),
        ("m", "Beta syndrome", "T1\tDISEASE 0 13\tBeta syndrome\n"),
        ("z", "x" * 10, "T1\tSIGN 0 3\txxx\nT1\tSIGN 4 7\txxx\n"),
    ]:
        (corpus / f"{doc_id}.txt").write_text(text, encoding="utf-8")
        (corpus / f"{doc_id}.ann").write_text(ann, encoding="utf-8")
    return corpus


class TestFirstFailingDocument:
    def test_an_early_repair_failure_beats_a_later_parse_error(self, tmp_path, capsys):
        corpus = failing_corpus(tmp_path)
        err = fails_leaving_tree_unchanged(tmp_path, ["repair", "--in", corpus, "--out", tmp_path / "o"], capsys)
        assert err == f"error: {corpus / 'a.ann'}: entity T1 has overlapping fragments 0 5;3 8\n"

    def test_an_early_empty_text_beats_a_later_parse_error_in_encode(self, tmp_path, capsys):
        corpus = failing_corpus(tmp_path)
        (corpus / "a.txt").write_text("", encoding="utf-8")
        (corpus / "a.ann").write_text("", encoding="utf-8")
        argv = ["encode", "--in", corpus, "--out", tmp_path / "o.jsonl", "--schema", "seq2rel"]
        err = fails_leaving_tree_unchanged(tmp_path, argv, capsys)
        assert err == f"error: {corpus / 'a.txt'}: doc_text must be non-empty\n"

    def test_a_parse_error_beats_a_later_document_repair_would_fail(self, tmp_path, capsys):
        corpus = failing_corpus(tmp_path)
        for name in ("a.txt", "a.ann"):
            (corpus / name).rename(corpus / f"zz{name[1:]}")
        err = fails_leaving_tree_unchanged(tmp_path, ["repair", "--in", corpus, "--out", tmp_path / "o"], capsys)
        assert err == f"error: {corpus / 'z.ann'}:2: duplicate id T1\n"

    def test_split_copies_a_surface_it_could_not_write_back(self, tmp_path, capsys):
        """An .ann line ending in \\r\\r\\n reads as a surface ending in \\r: it
        parses, and split writes the pair as read rather than serializing it."""
        corpus = failing_corpus(tmp_path)
        unwritable = b"T1\tSIGN 0 3\txxx\r\r\n"
        (corpus / "z.ann").write_bytes(unwritable)
        lists = []
        for name, ids in (("train", "a\n"), ("dev", "m\n"), ("test", "z\n")):
            (tmp_path / f"{name}.list").write_text(ids, encoding="utf-8")
            lists += [f"--{name}-list", tmp_path / f"{name}.list"]
        argv = ["split", "--in", corpus, "--out", tmp_path / "s", *lists]
        assert run_cli([str(a) for a in argv]) == 0, capsys.readouterr().err
        assert (tmp_path / "s" / "test" / "z.ann").read_bytes() == unwritable
        assert (tmp_path / "s" / "test" / "z.txt").read_bytes() == (corpus / "z.txt").read_bytes()


class TestFlagsBeforeInputs:
    """Flags, --noun-map included, are checked before any input file is listed."""

    def test_split_reports_its_ratios_before_a_bad_ann(self, tmp_path, capsys):
        corpus = failing_corpus(tmp_path)  # z.ann does not parse
        argv = ["split", "--in", corpus, "--out", tmp_path / "s", "--ratios", "0.5,x,1"]
        err = fails_leaving_tree_unchanged(tmp_path, argv, capsys)
        assert err == "error: --ratios: could not convert string to float: 'x'\n"

    def test_encode_reports_its_noun_map_before_an_unpaired_file(self, tmp_path, capsys):
        corpus = failing_corpus(tmp_path)
        (corpus / "b.txt").write_text("an orphan", encoding="utf-8")
        nouns = tmp_path / "nouns.json"
        nouns.write_text('{"is_a": "parent"}', encoding="utf-8")
        argv = ["encode", "--in", corpus, "--out", tmp_path / "o.jsonl", "--schema", "rel-is", "--noun-map", nouns]
        err = fails_leaving_tree_unchanged(tmp_path, argv, capsys)
        assert err == (
            f"error: {nouns}: noun map missing predicates: produces, increases_risk_of, is_acron, is_synon, anaphora\n"
        )
