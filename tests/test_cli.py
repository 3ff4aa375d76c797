import contextlib
import errno
import io
import json
import logging
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from raredis_toolkit import cli, standoff
from raredis_toolkit import schema as schema_mod
from raredis_toolkit.cli import run_cli
from raredis_toolkit.corpus import SplitSpec, split_corpus
from raredis_toolkit.errors import ToolkitError
from raredis_toolkit.schema import occurrence_ordered_triples
from raredis_toolkit.scoring import write_triples_file
from raredis_toolkit.standoff import load_corpus_dir
from raredis_toolkit.triples import Triple
from conftest import tree_snapshot


def dir_snapshot(path: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(path.rglob("*")) if p.is_file()}


class TestRepairCommand:
    def test_repairs_and_logs(self, mini_corpus_dir, tmp_path, capsys):
        out = tmp_path / "fixed"
        log = tmp_path / "repairs.txt"
        code = run_cli(["repair", "--in", str(mini_corpus_dir), "--out", str(out), "--log", str(log)])
        assert code == 0
        fixed = load_corpus_dir(out)
        assert all(not d.unresolved_refs for d in fixed)
        log_text = log.read_text(encoding="utf-8")
        assert "rickets relation_argument R5 T90 -> T9" in log_text
        assert "balanti span_boundary T24" in log_text
        assert "storage fragment_order T1" in log_text
        assert capsys.readouterr().out == (
            "repaired 5 documents: 1/6 relation arguments fixed (0.1667), 1/10 entity spans adjusted "
            "(0.1000), 1 fragment lists reordered, 0 relations left unresolvable\n"
        )

    def test_input_directory_unmodified(self, mini_corpus_dir, tmp_path):
        before = dir_snapshot(mini_corpus_dir)
        run_cli(["repair", "--in", str(mini_corpus_dir), "--out", str(tmp_path / "o")])
        assert dir_snapshot(mini_corpus_dir) == before

    def test_byte_identical_reruns(self, mini_corpus_dir, tmp_path):
        outs = []
        for name in ("o1", "o2"):
            out = tmp_path / name
            run_cli(["repair", "--in", str(mini_corpus_dir), "--out", str(out)])
            outs.append(dir_snapshot(out))
        assert outs[0] == outs[1]

    @staticmethod
    def write_pairs(corpus: Path, texts: dict[str, str]) -> None:
        corpus.mkdir(exist_ok=True)
        for doc_id, text in texts.items():
            (corpus / f"{doc_id}.txt").write_bytes(text.encode("utf-8"))
            (corpus / f"{doc_id}.ann").write_bytes(b"T1\tDISEASE 0 13\tBeta syndrome\n")

    # repair rewrites b's surface from the text, which puts a line feed in its .ann record
    FAILING = {"a": "Beta syndrome is rare.", "b": "Beta\nsyndrome is rare."}

    def test_failed_write_leaves_no_documents_behind(self, tmp_path):
        corpus = tmp_path / "in"
        self.write_pairs(corpus, self.FAILING)
        out = tmp_path / "fixed"
        assert run_cli(["repair", "--in", str(corpus), "--out", str(out)]) == 1
        assert not out.exists()

    def test_failed_write_keeps_same_named_files(self, tmp_path):
        corpus = tmp_path / "in"
        self.write_pairs(corpus, self.FAILING)
        out = tmp_path / "fixed"
        # a is new in out, so it is written and removed again; b's earlier pair stays
        self.write_pairs(out, {"b": "Beta syndrome, an earlier run."})
        for target in (out, corpus):
            before = dir_snapshot(target)
            assert run_cli(["repair", "--in", str(corpus), "--out", str(target)]) == 1
            assert dir_snapshot(target) == before
            assert len(list(target.iterdir())) == len(before)

    def test_repair_over_an_earlier_run_leaves_only_the_pairs(self, tmp_path):
        """Replacing files goes through a staging directory, which is removed."""
        corpus, out = tmp_path / "in", tmp_path / "fixed"
        self.write_pairs(corpus, {"a": "Beta syndrome is rare."})
        self.write_pairs(out, {"a": "Beta syndrome, an earlier run."})
        assert run_cli(["repair", "--in", str(corpus), "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["a.ann", "a.txt"]
        assert (out / "a.txt").read_text(encoding="utf-8") == "Beta syndrome is rare."


class TestUnresolvedRelations:
    """repair's "left unresolvable" count names exactly the relations encode skips."""

    @staticmethod
    def write_corpus(corpus: Path) -> None:
        corpus.mkdir()
        (corpus / "d.txt").write_text("Alpha causes fever.\n", encoding="utf-8")
        # R1's T10 is repaired to T1, but its T77 stays dangling
        (corpus / "d.ann").write_text(
            "T1\tDISEASE 0 5\tAlpha\nT2\tSIGN 13 18\tfever\n"
            "R1\tproduces Arg1:T10 Arg2:T77\nR2\tproduces Arg1:T1 Arg2:T2\n",
            encoding="utf-8",
        )

    def test_a_half_repaired_relation_is_counted_and_reported_once(self, tmp_path, capsys, caplog):
        corpus, fixed = tmp_path / "in", tmp_path / "fixed"
        self.write_corpus(corpus)
        assert run_cli(["repair", "--in", str(corpus), "--out", str(fixed)]) == 0
        assert capsys.readouterr().out == (
            "repaired 1 documents: 1/2 relation arguments fixed (0.5000), 0/2 entity spans adjusted "
            "(0.0000), 0 fragment lists reordered, 1 relations left unresolvable\n"
        )
        out = tmp_path / "e.jsonl"
        with caplog.at_level(logging.WARNING):
            assert run_cli(["encode", "--in", str(fixed), "--out", str(out), "--schema", "rel-is"]) == 0
        assert caplog.messages == ["skipping relations with unresolved arguments: d:R1"]
        assert json.loads(out.read_text(encoding="utf-8"))["target"] == "The relation between Alpha and fever is producer."

    def test_one_warning_per_run_in_doc_id_order(self, mini_corpus_dir, tmp_path, caplog):
        (mini_corpus_dir / "weakness.ann").write_text(
            (mini_corpus_dir / "weakness.ann").read_text(encoding="utf-8") + "R9\tis_a Arg1:T1 Arg2:T55\n",
            encoding="utf-8",
        )
        with caplog.at_level(logging.WARNING):
            code = run_cli(["encode", "--in", str(mini_corpus_dir), "--out", str(tmp_path / "e.jsonl"),
                            "--schema", "seq2rel"])
        assert code == 0
        assert caplog.messages == ["skipping relations with unresolved arguments: rickets:R5, weakness:R9"]

    def test_a_resolved_corpus_gives_no_warning(self, mini_corpus_dir, tmp_path, caplog):
        fixed = tmp_path / "fixed"
        assert run_cli(["repair", "--in", str(mini_corpus_dir), "--out", str(fixed)]) == 0
        with caplog.at_level(logging.WARNING):
            code = run_cli(["encode", "--in", str(fixed), "--out", str(tmp_path / "e.jsonl"), "--schema", "seq2rel"])
        assert code == 0
        assert caplog.records == []


class TestStatsCommand:
    def test_table_and_json(self, mini_corpus_dir, tmp_path, capsys):
        json_path = tmp_path / "stats.json"
        code = run_cli(["stats", "--in", str(mini_corpus_dir), "--out", str(json_path)])
        assert code == 0
        table = capsys.readouterr().out
        assert "rare_disease" in table and "produces" in table
        payload = json.loads(json_path.read_text(encoding="utf-8"))
        stats = payload[mini_corpus_dir.name]
        assert stats["documents"] == 5
        assert stats["entities"]["sign"] == 4
        assert stats["relations"]["produces"] == 4


# the start of a macOS AppleDouble "._<name>" file, which is not UTF-8
APPLEDOUBLE = b"\x00\x05\x16\x07\x00\x02\x00\x00Mac OS X        \xff\xfe"


class TestCorpusInputs:
    """Only regular files whose names do not start with "." are inputs."""

    @staticmethod
    def documents_counted(mini_corpus_dir, capsys) -> int:
        assert run_cli(["stats", "--in", str(mini_corpus_dir)]) == 0
        row = next(line for line in capsys.readouterr().out.splitlines() if line.startswith("documents"))
        return int(row.split()[1])

    def test_appledouble_companion_is_not_an_orphan(self, mini_corpus_dir, capsys):
        (mini_corpus_dir / "._rickets.txt").write_bytes(APPLEDOUBLE)
        assert self.documents_counted(mini_corpus_dir, capsys) == 5

    def test_directories_named_like_a_pair_are_not_read(self, mini_corpus_dir, capsys):
        (mini_corpus_dir / "dir.txt").mkdir()
        (mini_corpus_dir / "dir.ann").mkdir()
        assert self.documents_counted(mini_corpus_dir, capsys) == 5

    def test_decode_uses_the_same_rule(self, tmp_path, capsys):
        generations = tmp_path / "gen"
        generations.mkdir()
        (generations / "d.txt").write_text("d @Sign@ e @Disease@ @IS_A@ @END@", encoding="utf-8")
        (generations / "._d.txt").write_bytes(APPLEDOUBLE)
        (generations / "sub.txt").mkdir()
        pred = tmp_path / "p.tsv"
        assert run_cli(["decode", "--in", str(generations), "--out", str(pred), "--schema", "seq2rel"]) == 0
        assert pred.read_text(encoding="utf-8") == "d\td\tsign\tis_a\te\tdisease\n"
        assert "from 1 generations" in capsys.readouterr().out


class TestLenientPairs:
    @staticmethod
    def add_orphans(corpus: Path) -> None:
        (corpus / "rickets.ann").unlink()
        (corpus / "extra.ann").write_text("", encoding="utf-8")

    def test_warns_with_the_names_the_strict_error_gives(self, mini_corpus_dir, caplog, capsys):
        self.add_orphans(mini_corpus_dir)
        assert run_cli(["stats", "--in", str(mini_corpus_dir)]) == 1
        assert "unpaired .txt/.ann files: extra, rickets" in capsys.readouterr().err
        with caplog.at_level(logging.WARNING):
            assert run_cli(["stats", "--in", str(mini_corpus_dir), "--lenient-pairs"]) == 0
        lenient_out = capsys.readouterr().out
        assert [r.getMessage() for r in caplog.records] == [
            "skipping unpaired .txt/.ann files: extra, rickets"
        ]
        # stdout is what a corpus without the orphans gives
        (mini_corpus_dir / "rickets.txt").unlink()
        (mini_corpus_dir / "extra.ann").unlink()
        caplog.clear()
        assert run_cli(["stats", "--in", str(mini_corpus_dir)]) == 0
        assert capsys.readouterr().out == lenient_out
        assert caplog.records == []

    def test_errors_docs_warns_too(self, mini_corpus_dir, tmp_path, caplog):
        self.add_orphans(mini_corpus_dir)
        write_triples_file({}, tmp_path / "gold.tsv")
        with caplog.at_level(logging.WARNING):
            code = run_cli([
                "errors", "--gold", str(tmp_path / "gold.tsv"), "--pred", str(tmp_path / "gold.tsv"),
                "--audit", str(tmp_path / "audit.jsonl"), "--docs", str(mini_corpus_dir),
            ])
        assert code == 0
        assert [r.getMessage() for r in caplog.records] == [
            "skipping unpaired .txt/.ann files: extra, rickets"
        ]


class TestSplitCommand:
    def test_ratio_mode_writes_manifests_and_dirs(self, mini_corpus_dir, tmp_path):
        out = tmp_path / "splits"
        code = run_cli([
            "split", "--in", str(mini_corpus_dir), "--out", str(out),
            "--ratios", "0.6,0.2,0.2", "--seed", "7",
        ])
        assert code == 0
        ids = []
        for name, expected in (("train", 3), ("dev", 1), ("test", 1)):
            manifest = (out / f"{name}.txt").read_text(encoding="utf-8").split()
            assert len(manifest) == expected
            assert len(load_corpus_dir(out / name)) == expected
            ids.extend(manifest)
        assert sorted(ids) == ["balanti", "empty", "rickets", "storage", "weakness"]

    def test_nan_ratio_is_an_error_naming_the_ratios(self, mini_corpus_dir, tmp_path, capsys):
        out = tmp_path / "splits"
        code = run_cli([
            "split", "--in", str(mini_corpus_dir), "--out", str(out), "--ratios", "nan,0.5,0.5",
        ])
        assert code == 1
        assert capsys.readouterr().err == "error: ratios must be non-negative\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--train-list", "t.txt", "--dev-list", "d.txt"], "file_list mode needs --train-list, --dev-list, and --test-list"),
            (["--ratios", "0.5,0.5"], "--ratios needs three comma-separated fractions"),
            ([], "split needs either --ratios or the three --*-list flags"),
            (
                ["--ratios", "0.5,0.5,0", "--train-list", "t.txt", "--dev-list", "d.txt", "--test-list", "e.txt"],
                "split takes either --ratios or the three --*-list flags, not both",
            ),
        ],
    )
    def test_flag_errors(self, mini_corpus_dir, tmp_path, capsys, flags, message):
        argv = ["split", "--in", mini_corpus_dir, "--out", tmp_path / "splits", *flags]
        assert fails_leaving_tree_unchanged(tmp_path, argv, capsys) == f"error: {message}\n"

    def test_file_list_mode(self, mini_corpus_dir, tmp_path):
        lists = tmp_path / "lists"
        lists.mkdir()
        (lists / "train.txt").write_text("rickets\nweakness\nstorage\n", encoding="utf-8")
        (lists / "dev.txt").write_text("balanti\n", encoding="utf-8")
        (lists / "test.txt").write_text("empty\n", encoding="utf-8")
        out = tmp_path / "splits"
        code = run_cli([
            "split", "--in", str(mini_corpus_dir), "--out", str(out),
            "--train-list", str(lists / "train.txt"),
            "--dev-list", str(lists / "dev.txt"),
            "--test-list", str(lists / "test.txt"),
        ])
        assert code == 0
        assert (out / "dev.txt").read_text(encoding="utf-8") == "balanti\n"

    def test_pairs_are_copied_as_read(self, tmp_path):
        """split is a partition: a pair that parses is written byte for byte,
        whatever spelling, spacing, blank lines or line order its .ann has."""
        corpus = tmp_path / "c"
        corpus.mkdir()
        text = b"Rare disease,\r\nthen a sign.\r\n"
        ann = (
            b"R1\tincreases_risk_of Arg1:T2 Arg2:T1\n"
            b"\n"
            b"T1\tsign 00 3\tRar\r\n"
            b"T2\tRare  disease 0 4 ; 5 12\tRare disease\n"
        )
        (corpus / "d.txt").write_bytes(text)
        (corpus / "d.ann").write_bytes(ann)
        out = tmp_path / "s"
        assert run_cli(["split", "--in", str(corpus), "--out", str(out), "--ratios", "1,0,0"]) == 0
        assert dir_snapshot(out / "train") == {"d.ann": ann, "d.txt": text}


class TestFlattenCommand:
    def test_writes_pairs_and_sidecars(self, mini_corpus_dir, tmp_path):
        fixed = tmp_path / "fixed"
        run_cli(["repair", "--in", str(mini_corpus_dir), "--out", str(fixed)])
        flat = tmp_path / "flat"
        code = run_cli(["flatten", "--in", str(fixed), "--out", str(flat)])
        assert code == 0
        docs = load_corpus_dir(flat)
        assert all(len(e.fragments) == 1 for d in docs for e in d.entities)
        assert (flat / "weakness.offsets.json").exists()
        weakness = next(d for d in docs if d.doc_id == "weakness")
        assert "arms and weakness in the muscles of the legs" in weakness.text


class TestEncodeDecodeScore:
    @pytest.mark.parametrize(
        "schema_flag,kind,score_flags",
        [
            ("seq2rel", "seq2rel", []),
            ("rel-is", "rel_is", ["--type-agnostic"]),
            ("natural-lang", "natural_lang", ["--type-agnostic"]),
        ],
    )
    def test_decode_of_gold_encodings_scores_perfectly(
        self, mini_corpus_dir, tmp_path, capsys, schema_flag, kind, score_flags
    ):
        fixed = tmp_path / "fixed"
        run_cli(["repair", "--in", str(mini_corpus_dir), "--out", str(fixed)])

        records = tmp_path / f"{kind}.jsonl"
        code = run_cli([
            "encode", "--in", str(fixed), "--out", str(records), "--schema", schema_flag,
        ])
        assert code == 0

        # feed the gold targets back through decode as if they were generations
        generations = tmp_path / f"gen_{kind}"
        generations.mkdir()
        n_rel_docs = 0
        for line in records.read_text(encoding="utf-8").splitlines():
            row = json.loads(line)
            (generations / f"{row['doc_id']}.txt").write_text(row["target"], encoding="utf-8")
            n_rel_docs += 1
        assert n_rel_docs == 5

        decoded = tmp_path / f"pred_{kind}.tsv"
        code = run_cli([
            "decode", "--in", str(generations), "--out", str(decoded), "--schema", schema_flag,
        ])
        assert code == 0

        gold = {
            doc.doc_id: occurrence_ordered_triples(doc) for doc in load_corpus_dir(fixed)
        }
        gold_path = tmp_path / f"gold_{kind}.tsv"
        write_triples_file(gold, gold_path)

        capsys.readouterr()  # drain output from the earlier subcommands
        code = run_cli(
            ["score", "--gold", str(gold_path), "--pred", str(decoded), *score_flags]
        )
        assert code == 0
        out = capsys.readouterr().out
        micro = out.strip().splitlines()[1].split()
        assert micro[0] == "micro"
        assert micro[1:4] == ["1.0000", "1.0000", "1.0000"]

    def test_seq2rel_encode_emits_token_vocabulary(self, mini_corpus_dir, tmp_path):
        fixed = tmp_path / "fixed"
        run_cli(["repair", "--in", str(mini_corpus_dir), "--out", str(fixed)])
        records = tmp_path / "enc" / "train.jsonl"
        run_cli(["encode", "--in", str(fixed), "--out", str(records), "--schema", "seq2rel"])
        vocab = (records.parent / "special_tokens.txt").read_text(encoding="utf-8").split()
        assert len(vocab) == 14
        assert "@NOREL@" in vocab

    def test_copy_instruct_flag_prefixes_sources(self, mini_corpus_dir, tmp_path):
        fixed = tmp_path / "fixed"
        run_cli(["repair", "--in", str(mini_corpus_dir), "--out", str(fixed)])
        records = tmp_path / "train.jsonl"
        run_cli([
            "encode", "--in", str(fixed), "--out", str(records),
            "--schema", "rel-is", "--copy-instruct",
        ])
        for line in records.read_text(encoding="utf-8").splitlines():
            assert json.loads(line)["source"].startswith("From the given abstract")

    def test_decode_report_lists_skipped_segments(self, tmp_path):
        generations = tmp_path / "gen"
        generations.mkdir()
        (generations / "doc1.txt").write_text(
            "junk @PRODUCES@ a @Sign@ b @Disease@ @IS_A@ @END@", encoding="utf-8"
        )
        report = tmp_path / "skips.txt"
        code = run_cli([
            "decode", "--in", str(generations), "--out", str(tmp_path / "p.tsv"),
            "--schema", "seq2rel", "--report", str(report),
        ])
        assert code == 0
        assert "junk" in report.read_text(encoding="utf-8")

    def test_raw_decode_report_keeps_one_segment_per_line(self, tmp_path):
        generations = tmp_path / "gen"
        generations.mkdir()
        (generations / "doc1.txt").write_text(
            "junk\nover\u2028lines @PRODUCES@ a @Sign@ b @Disease@ @IS_A@ @END@", encoding="utf-8"
        )
        report = tmp_path / "skips.txt"
        code = run_cli([
            "decode", "--in", str(generations), "--out", str(tmp_path / "p.tsv"),
            "--schema", "seq2rel", "--raw", "--report", str(report),
        ])
        assert code == 0
        lines = report.read_bytes().decode("utf-8").split("\n")
        assert lines[-1] == ""
        assert "doc1\tstray text before a relation token\tjunk over lines" in lines[:-1]
        assert all(line.count("\t") == 2 for line in lines[:-1])

    def test_raw_decode_skips_an_unwritable_triple_and_keeps_the_rest(self, tmp_path):
        generations = tmp_path / "gen"
        generations.mkdir()
        (generations / "bad.txt").write_text("a\nb @Sign@ c @Disease@ @PRODUCES@", encoding="utf-8")
        (generations / "good.txt").write_text("d @Sign@ e @Disease@ @IS_A@ @END@", encoding="utf-8")
        (generations / ".notes.txt").write_text("f @Sign@ g @Disease@ @IS_A@ @END@", encoding="utf-8")
        pred, report = tmp_path / "p.tsv", tmp_path / "skips.txt"
        code = run_cli([
            "decode", "--in", str(generations), "--out", str(pred),
            "--schema", "seq2rel", "--raw", "--report", str(report),
        ])
        assert code == 0
        assert pred.read_text(encoding="utf-8") == "good\td\tsign\tis_a\te\tdisease\n"
        assert report.read_text(encoding="utf-8") == (
            "bad\ttriple text holds a tab or line feed\ta b produces c\n"
        )

    @pytest.mark.parametrize("name", ["x\ty.txt", "x\ny.txt"])
    def test_file_name_unfit_for_a_doc_id_is_an_error(self, tmp_path, capsys, name):
        generations = tmp_path / "gen"
        generations.mkdir()
        for file_name in (name, "good.txt"):
            (generations / file_name).write_text("d @Sign@ e @Disease@ @IS_A@ @END@", encoding="utf-8")
        pred, report = tmp_path / "p.tsv", tmp_path / "skips.txt"
        code = run_cli([
            "decode", "--in", str(generations), "--out", str(pred),
            "--schema", "seq2rel", "--raw", "--report", str(report),
        ])
        assert code == 1
        assert "holds a tab or line feed" in capsys.readouterr().err
        assert not pred.exists() and not report.exists()

    def test_custom_noun_map(self, mini_corpus_dir, tmp_path):
        fixed = tmp_path / "fixed"
        run_cli(["repair", "--in", str(mini_corpus_dir), "--out", str(fixed)])
        noun_map = dict(
            produces="cause", increases_risk_of="risk factor", is_a="hyponym",
            is_acron="acronym", is_synon="synonym", anaphora="anaphor",
        )
        noun_path = tmp_path / "nouns.json"
        noun_path.write_text(json.dumps(noun_map), encoding="utf-8")
        records = tmp_path / "train.jsonl"
        run_cli([
            "encode", "--in", str(fixed), "--out", str(records),
            "--schema", "rel-is", "--noun-map", str(noun_path),
        ])
        text = records.read_text(encoding="utf-8")
        assert "is cause." in text

    def test_noun_map_is_validated_once_per_run(self, mini_corpus_dir, tmp_path, monkeypatch):
        """encode and decode check --noun-map on loading, not per document."""
        fixed = tmp_path / "fixed"
        assert run_cli(["repair", "--in", str(mini_corpus_dir), "--out", str(fixed)]) == 0
        noun_path = tmp_path / "nouns.json"
        noun_path.write_text(json.dumps(dict(
            produces="cause", increases_risk_of="risk factor", is_a="hyponym",
            is_acron="acronym", is_synon="synonym", anaphora="anaphor",
        )), encoding="utf-8")
        calls = []
        validate = schema_mod.validate_noun_map
        monkeypatch.setattr(schema_mod, "validate_noun_map", lambda m: calls.append(m) or validate(m))
        records = tmp_path / "train.jsonl"
        argv = ["--schema", "rel-is", "--noun-map", str(noun_path)]
        assert run_cli(["encode", "--in", str(fixed), "--out", str(records), *argv]) == 0
        assert len(calls) == 1
        generations = tmp_path / "gen"
        generations.mkdir()
        lines = records.read_text(encoding="utf-8").splitlines()
        assert len(lines) == len(load_corpus_dir(fixed)) > 1
        for line in lines:
            record = json.loads(line)
            (generations / f"{record['doc_id']}.txt").write_text(record["target"], encoding="utf-8")
        assert run_cli(["decode", "--in", str(generations), "--out", str(tmp_path / "p.tsv"), *argv]) == 0
        assert len(calls) == 2
        assert "\tproduces\t" in (tmp_path / "p.tsv").read_text(encoding="utf-8")


class TestScoreAndErrorsCommands:
    def test_hand_counted_score_fixture(self, tmp_path, capsys):
        a = Triple("alpha syndrome", "rare_disease", "produces", "tremor", "sign")
        b = Triple("alpha syndrome", "rare_disease", "is_a", "metabolic disorder", "disease")
        c = Triple("beta disease", "disease", "produces", "fever", "sign")
        write_triples_file({"d": [a, b]}, tmp_path / "gold.tsv")
        write_triples_file({"d": [a, c]}, tmp_path / "pred.tsv")
        code = run_cli(["score", "--gold", str(tmp_path / "gold.tsv"), "--pred", str(tmp_path / "pred.tsv")])
        assert code == 0
        micro = capsys.readouterr().out.strip().splitlines()[1].split()
        assert micro[1:4] == ["0.5000", "0.5000", "0.5000"]

    def test_errors_command_writes_audit(self, tmp_path, mini_corpus_dir, capsys):
        audit = self.run_errors(tmp_path, mini_corpus_dir)
        rows = [json.loads(line) for line in audit.decode("utf-8").splitlines()]
        assert sorted(r["category"] for r in rows) == ["hallucinated_span", "missing"]
        out = capsys.readouterr().out
        assert "hallucinated_span: 1" in out

    def run_errors(self, tmp_path, docs, audit_name="audit.jsonl") -> bytes:
        """The audit errors writes for one hallucinated and one missing triple."""
        gold = Triple("Murovan disease", "rare_disease", "produces", "weakness in the muscles of the arms", "sign")
        pred = Triple("Murovan disease", "rare_disease", "produces", "muscle glowing", "sign")
        write_triples_file({"weakness": [gold]}, tmp_path / "gold.tsv")
        write_triples_file({"weakness": [pred]}, tmp_path / "pred.tsv")
        audit = tmp_path / audit_name
        code = run_cli([
            "errors", "--gold", str(tmp_path / "gold.tsv"), "--pred", str(tmp_path / "pred.tsv"),
            "--audit", str(audit), "--docs", str(docs),
        ])
        assert code == 0
        return audit.read_bytes()

    def test_errors_docs_ignores_an_unparseable_ann(self, tmp_path, mini_corpus_dir):
        """errors reads only the texts under --docs, so a broken .ann changes nothing."""
        valid = self.run_errors(tmp_path, mini_corpus_dir, "valid.jsonl")
        (mini_corpus_dir / "weakness.ann").write_text("T1\tno_such_label 0 4\tMuro\n", encoding="utf-8")
        with pytest.raises(ToolkitError):
            load_corpus_dir(mini_corpus_dir)
        assert self.run_errors(tmp_path, mini_corpus_dir, "broken.jsonl") == valid
        assert b"hallucinated_span" in valid

    def test_errors_docs_reads_only_the_texts_a_triples_file_names(self, tmp_path, mini_corpus_dir, monkeypatch):
        """Only "weakness" is named, so the other texts are never read, and one
        that is not UTF-8 no longer fails the run."""
        valid = self.run_errors(tmp_path, mini_corpus_dir, "valid.jsonl")
        (mini_corpus_dir / "rickets.txt").write_bytes(b"\xff")
        read = []
        monkeypatch.setattr(standoff, "read_file", lambda path: read.append(path) or Path(path).read_bytes().decode())
        assert self.run_errors(tmp_path, mini_corpus_dir, "unnamed.jsonl") == valid
        assert read == [str(mini_corpus_dir / "weakness.txt")]

    def test_errors_never_parses_annotations(self, tmp_path, mini_corpus_dir, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("errors parsed an .ann file")

        monkeypatch.setattr(standoff, "parse_document", refuse)
        assert b"hallucinated_span" in self.run_errors(tmp_path, mini_corpus_dir)

    @pytest.mark.parametrize("command", ["score", "errors"])
    def test_blank_entity_text_names_the_line(self, tmp_path, capsys, command):
        """score and errors refuse the same file, naming the line."""
        write_triples_file({"d": [Triple("fever", "sign", "produces", "rash", "sign")]}, tmp_path / "gold.tsv")
        pred = tmp_path / "pred.tsv"
        pred.write_text("d\t \tsign\tproduces\tfever\tsign\n", encoding="utf-8")
        audit = ["--audit", str(tmp_path / "audit.jsonl")] if command == "errors" else []
        assert run_cli([command, "--gold", str(tmp_path / "gold.tsv"), "--pred", str(pred), *audit]) == 1
        assert f"{pred}:1: triple entity texts may not be blank" in capsys.readouterr().err
        assert not (tmp_path / "audit.jsonl").exists()


class TestExitCodes:
    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert run_cli(["frobnicate"]) == 2
        capsys.readouterr()

    def test_missing_flag_is_usage_error(self, capsys):
        assert run_cli(["repair", "--in", "somewhere"]) == 2
        capsys.readouterr()

    def test_missing_input_is_fatal_error(self, tmp_path, capsys):
        code = run_cli(["repair", "--in", str(tmp_path / "nowhere"), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "nowhere" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        assert run_cli(["--help"]) == 0
        capsys.readouterr()

    def test_one_parser_serves_every_call_as_a_fresh_one_would(self, mini_corpus_dir, capsys, monkeypatch):
        """build_parser runs once per process; reusing its parser after a
        usage error and --help changes no later exit code or output."""
        data = Path(__file__).parent / "data"
        runs = [
            ["stats", "--lenient-pairs"],
            ["--help"],
            ["stats", "--in", str(mini_corpus_dir)],
            ["score", "--gold", str(data / "fixture_gold.tsv"), "--pred", str(data / "fixture_pred.tsv")],
        ]

        def outcomes():
            out = []
            for argv in runs:
                code = run_cli(argv)
                captured = capsys.readouterr()
                out.append((code, captured.out, captured.err))
            return out

        assert cli.build_parser() is cli.build_parser()
        reused = outcomes()
        assert [code for code, _, _ in reused] == [2, 0, 0, 0]
        assert "required: --in" in reused[0][2] and "usage: raredis" in reused[1][1]
        monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
        assert cli.build_parser() is not cli.build_parser()
        assert outcomes() == reused

    def test_invalid_noun_map_is_fatal_not_a_traceback(self, mini_corpus_dir, tmp_path, capsys):
        bad = tmp_path / "nouns.json"
        bad.write_text('{"is_a": "parent"}', encoding="utf-8")
        code = run_cli([
            "encode", "--in", str(mini_corpus_dir), "--out", str(tmp_path / "o.jsonl"),
            "--schema", "rel-is", "--noun-map", str(bad),
        ])
        assert code == 1
        assert "noun map" in capsys.readouterr().err
        # every rejection names the file, in encode and in decode alike
        full = dict(
            produces="producer", increases_risk_of="risk factor", is_a="hyponym",
            is_acron="acronym", is_synon="synonym", anaphora="anaphor",
        )
        cases = {
            "not an object": json.dumps(list(full)),
            "not text": json.dumps({**full, "anaphora": 5}),
            "not letters": json.dumps({**full, "produces": "co-factor"}),
            "double space": json.dumps({**full, "increases_risk_of": "risk  factor"}),
            "shared noun": json.dumps({**full, "produces": "Anaphor"}),
            "plural of synonym": json.dumps({**full, "produces": "synonyms"}),
            "malformed": '{produces: "producer"}',
        }
        for name, content in cases.items():
            bad.write_text(content, encoding="utf-8")
            for command, out in (("encode", "o.jsonl"), ("decode", "o.tsv")):
                code = run_cli([
                    command, "--in", str(mini_corpus_dir), "--out", str(tmp_path / out),
                    "--schema", "rel-is", "--noun-map", str(bad),
                ])
                err = capsys.readouterr().err
                assert code == 1, (name, command)
                assert err.startswith(f"error: {bad}: "), (name, command, err)
                assert not (tmp_path / out).exists()

    def test_directory_as_input_file_is_fatal_not_a_traceback(self, tmp_path, capsys):
        code = run_cli(["score", "--gold", str(tmp_path), "--pred", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {tmp_path}: ")

    def test_directory_as_output_file_is_fatal_not_a_traceback(self, mini_corpus_dir, tmp_path, capsys):
        out_dir = tmp_path / "stats"
        out_dir.mkdir()
        code = run_cli(["stats", "--in", str(mini_corpus_dir), "--out", str(out_dir)])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {out_dir}: ")
        assert not any(out_dir.iterdir())



class TestErrorsNameTheirInput:
    @pytest.mark.parametrize("command", ["decode", "stats", "score"])
    def test_non_utf8_input_names_the_file_and_byte(self, tmp_path, mini_corpus_dir, capsys, command):
        bad = b"fever \xe9 rash"
        if command == "decode":
            path = generations_dir(tmp_path) / "e.txt"
            argv = ["decode", "--in", path.parent, "--out", tmp_path / "p.tsv", "--schema", "seq2rel"]
        elif command == "stats":
            path = mini_corpus_dir / "rickets.txt"
            argv = ["stats", "--in", mini_corpus_dir]
        else:
            path = tmp_path / "gold.tsv"
            argv = ["score", "--gold", path, "--pred", path]
        path.write_bytes(bad)
        err = fails_leaving_tree_unchanged(tmp_path, argv, capsys)
        assert err.startswith(f"error: {path}: not UTF-8 at byte offset 6 ")

    def test_both_read_errors_spell_the_path_as_pathlib_does(self, tmp_path, monkeypatch, capsys):
        """--gold ./g.tsv is named g.tsv whether it is missing or not UTF-8."""
        monkeypatch.chdir(tmp_path)
        argv = ["score", "--gold", "./g.tsv", "--pred", "./g.tsv"]
        assert run_cli(argv) == 1
        assert capsys.readouterr().err == "error: missing input file: g.tsv\n"
        (tmp_path / "g.tsv").write_bytes(b"fever \xe9 rash")
        assert run_cli(argv) == 1
        assert capsys.readouterr().err.startswith("error: g.tsv: not UTF-8 at byte offset 6 ")

    def test_errors_spells_the_path_as_score_does(self, tmp_path, monkeypatch, capsys):
        """errors reads --gold through the same record reader as score."""
        monkeypatch.chdir(tmp_path)
        argv = ["errors", "--gold", "./g.tsv", "--pred", "./g.tsv", "--audit", "a.jsonl"]
        assert run_cli(argv) == 1
        assert capsys.readouterr().err == "error: missing input file: g.tsv\n"
        (tmp_path / "g.tsv").write_bytes(b"fever \xe9 rash")
        assert run_cli(argv) == 1
        assert capsys.readouterr().err.startswith("error: g.tsv: not UTF-8 at byte offset 6 ")

    def test_decode_refuses_two_files_with_one_doc_id(self, tmp_path, capsys):
        generations = generations_dir(tmp_path)
        (generations / "d.txt~").write_text("f @Sign@ g @Disease@ @IS_A@ @END@", encoding="utf-8")
        err = fails_leaving_tree_unchanged(
            tmp_path, ["decode", "--in", generations, "--out", tmp_path / "p.tsv", "--schema", "seq2rel"], capsys
        )
        first, second = generations / "d.txt", generations / "d.txt~"
        assert err == f"error: generation files {first} and {second} share the doc id 'd'\n"

    def test_encode_names_a_document_with_empty_text(self, mini_corpus_dir, tmp_path, capsys):
        (mini_corpus_dir / "blank.txt").write_text("", encoding="utf-8")
        (mini_corpus_dir / "blank.ann").write_text("", encoding="utf-8")
        argv = ["encode", "--in", mini_corpus_dir, "--out", tmp_path / "o.jsonl", "--schema", "seq2rel"]
        err = fails_leaving_tree_unchanged(tmp_path, argv, capsys)
        assert err == f"error: {mini_corpus_dir / 'blank.txt'}: doc_text must be non-empty\n"

    def test_split_names_a_ratio_that_is_not_a_number(self, mini_corpus_dir, tmp_path, capsys):
        argv = ["split", "--in", mini_corpus_dir, "--out", tmp_path / "splits", "--ratios", "0.5,0.5,x"]
        err = fails_leaving_tree_unchanged(tmp_path, argv, capsys)
        assert err == "error: --ratios: could not convert string to float: 'x'\n"

    @pytest.mark.parametrize("schema", ["seq2rel", "rel-is", "natural-lang"])
    def test_encode_names_a_document_with_a_blank_entity_text(self, tmp_path, capsys, schema):
        """Its target would decode to no triple, so none is written."""
        corpus = tmp_path / "in"
        corpus.mkdir()
        (corpus / "d.txt").write_text(" x tremor", encoding="utf-8")
        (corpus / "d.ann").write_text(
            "T1\tSIGN 0 1\t \nT2\tSIGN 3 9\ttremor\nR1\tproduces Arg1:T1 Arg2:T2\n", encoding="utf-8"
        )
        argv = ["encode", "--in", corpus, "--out", tmp_path / "o.jsonl", "--schema", schema]
        err = fails_leaving_tree_unchanged(tmp_path, argv, capsys)
        assert err == f"error: {corpus / 'd.ann'}: entity T1: triple entity texts may not be blank\n"

    def test_repair_names_the_ann_of_a_document_it_cannot_repair(self, tmp_path, capsys):
        corpus = tmp_path / "c"
        corpus.mkdir()
        (corpus / "d.txt").write_text("abcdefghij", encoding="utf-8")
        (corpus / "d.ann").write_text("T1\tSIGN 0 5;3 8\tabcde defgh", encoding="utf-8")
        err = fails_leaving_tree_unchanged(tmp_path, ["repair", "--in", corpus, "--out", tmp_path / "o"], capsys)
        assert err == f"error: {corpus / 'd.ann'}: entity T1 has overlapping fragments 0 5;3 8\n"

    def test_repair_refuses_a_surface_no_ann_line_can_hold(self, tmp_path, capsys):
        """The span fallback would write the document slice under the span as the surface."""
        corpus = tmp_path / "c"
        corpus.mkdir()
        for text, ann in [("a\nb c", "T1\tSIGN 0 3\ta b"), ("a\rb", "T1\tSIGN 0 2\tx"), ("ab\tc", "T1\tSIGN 0 4\tabc")]:
            (corpus / "d.txt").write_bytes(text.encode())
            (corpus / "d.ann").write_bytes(ann.encode())
            err = fails_leaving_tree_unchanged(tmp_path, ["repair", "--in", corpus, "--out", tmp_path / "o"], capsys)
            assert err == (
                f"error: {corpus / 'd.ann'}: entity T1: repaired surface holds a tab or newline "
                "or ends in a carriage return, which no .ann line can hold\n"
            )

    def test_repair_refuses_a_blank_entity(self, tmp_path, capsys):
        """No triple can hold it, so encode would refuse it at the end of the pipeline."""
        corpus = tmp_path / "c"
        corpus.mkdir()
        (corpus / "d.txt").write_text("a b", encoding="utf-8")
        ann = "T1\tSIGN 1 2\t \nT2\tSIGN 2 3\tb\nR1\tproduces Arg1:T1 Arg2:T2\n"
        (corpus / "d.ann").write_text(ann, encoding="utf-8")
        err = fails_leaving_tree_unchanged(tmp_path, ["repair", "--in", corpus, "--out", tmp_path / "r"], capsys)
        assert err == f"error: {corpus / 'd.ann'}: entity T1: repaired surface is blank, which no triple can hold\n"

    def test_ann_parse_error_names_the_file(self, mini_corpus_dir, tmp_path, capsys):
        (mini_corpus_dir / "e.txt").write_text("x" * 10, encoding="utf-8")
        (mini_corpus_dir / "e.ann").write_text("T1\tSIGN 0 3\txxx\nT1\tSIGN 4 7\txxx\n", encoding="utf-8")
        err = fails_leaving_tree_unchanged(tmp_path, ["stats", "--in", mini_corpus_dir], capsys)
        assert err == f"error: {mini_corpus_dir / 'e.ann'}:2: duplicate id T1\n"

    def test_a_surface_run_onto_the_next_line_names_its_entity(self, tmp_path, capsys):
        corpus = tmp_path / "c"
        corpus.mkdir()
        (corpus / "d.txt").write_bytes(b"a\nb")
        (corpus / "d.ann").write_bytes(b"T1\tSIGN 0 3\ta\nb")
        err = fails_leaving_tree_unchanged(tmp_path, ["repair", "--in", corpus, "--out", tmp_path / "o"], capsys)
        assert err == (
            f"error: {corpus / 'd.ann'}:2: unsupported line type 'b' "
            "(entity T1 before it spans a line feed in the text; its surface cannot fit on one .ann line)\n"
        )

    @staticmethod
    def split_lists(root: Path, train: str, dev: str) -> list:
        """split flags for manifests train, dev and test ("empty") of mini_corpus_dir."""
        lists = root / "lists"
        lists.mkdir()
        for name, ids in (("train", train), ("dev", dev), ("test", "empty\n")):
            (lists / f"{name}.txt").write_text(ids, encoding="utf-8")
        return [arg for name in ("train", "dev", "test") for arg in (f"--{name}-list", lists / f"{name}.txt")]

    def test_split_names_the_manifest_line_of_an_unknown_doc_id(self, mini_corpus_dir, tmp_path, capsys):
        flags = self.split_lists(tmp_path, "rickets\n\nzzz\n", "balanti\nweakness\nstorage\n")
        argv = ["split", "--in", mini_corpus_dir, "--out", tmp_path / "splits", *flags]
        err = fails_leaving_tree_unchanged(tmp_path, argv, capsys)
        assert err == f"error: {tmp_path / 'lists' / 'train.txt'}:3: split list references unknown doc_id zzz\n"

    def test_split_names_the_manifest_line_of_a_doc_id_listed_twice(self, mini_corpus_dir, tmp_path, capsys):
        flags = self.split_lists(tmp_path, "rickets\nweakness\n", "storage\nbalanti\nrickets\n")
        argv = ["split", "--in", mini_corpus_dir, "--out", tmp_path / "splits", *flags]
        err = fails_leaving_tree_unchanged(tmp_path, argv, capsys)
        assert err == f"error: {tmp_path / 'lists' / 'dev.txt'}:3: doc_id rickets appears in more than one list\n"


def fails_leaving_tree_unchanged(root: Path, argv: list, capsys) -> str:
    """Run argv, which must exit 1 and leave root as it was; return stderr."""
    before = tree_snapshot(root)
    assert run_cli([str(a) for a in argv]) == 1
    err = capsys.readouterr().err
    after = tree_snapshot(root)
    assert not [p for p in after if ".staging-" in p]
    assert after == before
    return err


def generations_dir(root: Path) -> Path:
    generations = root / "gen"
    generations.mkdir()
    (generations / "d.txt").write_text("junk @PRODUCES@ d @Sign@ e @Disease@ @IS_A@ @END@", encoding="utf-8")
    return generations


class TestFailedRunsWriteNothing:
    """Every command writes all of its outputs or none: a run that exits 1
    leaves the whole tree as it was, directories included."""

    @staticmethod
    def corpus(root: Path) -> Path:
        corpus = root / "in"
        corpus.mkdir()
        for i in range(8):
            (corpus / f"d{i}.txt").write_text("Beta syndrome is rare.", encoding="utf-8")
            (corpus / f"d{i}.ann").write_text("T1\tDISEASE 0 4\tBeta\n", encoding="utf-8")
        return corpus

    @staticmethod
    def make_unwritable(corpus: Path, doc_id: str) -> None:
        """Its .ann surface then ends in a carriage return: it parses, and
        cannot be written back."""
        (corpus / f"{doc_id}.ann").write_bytes(b"T1\tDISEASE 0 4\tBeta\r\r\n")

    def test_split_writes_no_split(self, tmp_path, capsys):
        corpus = self.corpus(tmp_path)
        spec = SplitSpec(mode="ratio", ratios=(0.5, 0.25, 0.25), seed=1)
        last = split_corpus(load_corpus_dir(corpus), spec)[2][-1].doc_id
        out = tmp_path / "new" / "splits"
        blocked = out / "test" / f"{last}.ann"  # so train and dev are written first
        blocked.mkdir(parents=True)
        err = fails_leaving_tree_unchanged(tmp_path, [
            "split", "--in", corpus, "--out", out, "--ratios", "0.5,0.25,0.25", "--seed", "1",
        ], capsys)
        assert err == f"error: {blocked}: is a directory, not a file\n"

    def test_flatten_writes_no_sidecar(self, tmp_path, capsys):
        corpus = self.corpus(tmp_path)
        self.make_unwritable(corpus, "d7")
        err = fails_leaving_tree_unchanged(tmp_path, ["flatten", "--in", corpus, "--out", tmp_path / "flat"], capsys)
        assert err == (
            f"error: {corpus / 'd7'}.ann: entity T1: surface holds a tab or newline "
            "or ends in a carriage return, which no .ann line can hold\n"
        )

    def test_split_refuses_a_doc_id_its_manifest_cannot_hold(self, tmp_path, monkeypatch, capsys):
        """A file name may hold a line feed; a manifest record may not."""
        (tmp_path / "c").mkdir()
        (tmp_path / "c" / "a\nb.txt").write_text("Alpha", encoding="utf-8")
        (tmp_path / "c" / "a\nb.ann").write_text("T1\tSIGN 0 5\tAlpha", encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        err = fails_leaving_tree_unchanged(tmp_path, ["split", "--in", "c", "--out", "s", "--ratios", "1,0,0"], capsys)
        assert err == "error: s/train.txt:1: a record may not contain a line feed or end in a carriage return\n"
        assert not (tmp_path / "s").exists()

    def test_repair_log_on_a_directory(self, mini_corpus_dir, tmp_path, capsys):
        (tmp_path / "log").mkdir()
        argv = ["repair", "--in", mini_corpus_dir, "--out", tmp_path / "fixed", "--log", tmp_path / "log"]
        err = fails_leaving_tree_unchanged(tmp_path, argv, capsys)
        assert err == f"error: {tmp_path / 'log'}: is a directory, not a file\n"

    def test_repair_over_unrepaired_files_with_a_bad_log_replaces_nothing(self, mini_corpus_dir, tmp_path, capsys):
        (tmp_path / "log").mkdir()
        out = tmp_path / "fixed"
        shutil.copytree(mini_corpus_dir, out)
        argv = ["repair", "--in", mini_corpus_dir, "--out", out, "--log", tmp_path / "log"]
        fails_leaving_tree_unchanged(tmp_path, argv, capsys)
        # the same run with a good log does change the files
        assert run_cli([str(a) for a in argv[:-1]] + [str(tmp_path / "repairs.txt")]) == 0
        assert "rickets relation_argument" in (tmp_path / "repairs.txt").read_text(encoding="utf-8")
        assert dir_snapshot(out) != dir_snapshot(mini_corpus_dir)

    def test_a_failed_write_names_its_output(self, mini_corpus_dir, tmp_path, monkeypatch, capsys):
        """An OSError from a file's write (a full disk, say) carries no file name."""
        real_open = open

        class FullDisk:
            def __init__(self, handle):
                self.handle = handle

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                self.handle.close()

            def write(self, content):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        def open_on_a_full_disk(path, mode="r", **kwargs):
            handle = real_open(path, mode, **kwargs)
            return handle if "r" in mode else FullDisk(handle)

        monkeypatch.setattr(standoff, "open", open_on_a_full_disk, raising=False)
        out = tmp_path / "s.json"
        err = fails_leaving_tree_unchanged(tmp_path, ["stats", "--in", mini_corpus_dir, "--out", out], capsys)
        assert err == f"error: {out}: No space left on device\n"

    def test_a_failed_rename_prints_no_summary(self, mini_corpus_dir, tmp_path, monkeypatch, capsys):
        """The summary is printed only once every output is in place."""
        argv = [str(a) for a in ["repair", "--in", mini_corpus_dir, "--out", tmp_path / "o"]]
        assert run_cli(argv) == 0
        capsys.readouterr()

        refused = []

        def refuse(src, dst):
            refused.append(dst)
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), dst)

        monkeypatch.setattr(standoff.os, "replace", refuse)
        before = tree_snapshot(tmp_path)
        assert run_cli(argv) == 1
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"error: {refused[0]}: {os.strerror(errno.EACCES)}\n")
        assert tree_snapshot(tmp_path) == before

    def test_encode_special_tokens_on_a_directory(self, mini_corpus_dir, tmp_path, capsys):
        (tmp_path / "enc" / "special_tokens.txt").mkdir(parents=True)
        argv = ["encode", "--in", mini_corpus_dir, "--out", tmp_path / "enc" / "train.jsonl", "--schema", "seq2rel"]
        fails_leaving_tree_unchanged(tmp_path, argv, capsys)

    def test_decode_report_on_a_directory(self, tmp_path, capsys):
        generations = generations_dir(tmp_path)
        (tmp_path / "skips").mkdir()
        argv = ["decode", "--in", generations, "--out", tmp_path / "p.tsv", "--schema", "seq2rel",
                "--report", tmp_path / "skips"]
        fails_leaving_tree_unchanged(tmp_path, argv, capsys)


class TestOutputsOutsideInputs:
    """No command modifies its input. No output path may be an input file or
    directory (--in, or errors' --docs) or lie inside an input directory, and
    no input file may lie inside an output; the run is refused before any file
    is read, naming both."""

    @pytest.fixture
    def root(self, tmp_path, monkeypatch):
        """tmp_path as the working directory, holding a one-document corpus c and a link to it."""
        corpus = tmp_path / "c"
        corpus.mkdir()
        (corpus / "a.txt").write_text("Beta syndrome", encoding="utf-8")
        (corpus / "a.ann").write_text("T1\tDISEASE 0 4\tBeta\n", encoding="utf-8")
        (tmp_path / "link").symlink_to(corpus)
        monkeypatch.chdir(tmp_path)
        return tmp_path

    CASES = {
        "repair --out": ["repair", "--in", "c", "--out", "c/fixed"],
        "repair --log": ["repair", "--in", "c", "--out", "fixed", "--log", "c/log.txt"],
        "stats --out": ["stats", "--in", "c", "--out", "c/stats.json"],
        "split --out": ["split", "--in", "c", "--out", "c/s", "--ratios", "1,0,0"],
        "flatten --out": ["flatten", "--in", "c", "--out", "c/sub/flat"],
        "encode --out": ["encode", "--in", "c", "--out", "c/a.txt", "--schema", "seq2rel"],
        "decode --out": ["decode", "--in", "c", "--out", "c/p.tsv", "--schema", "seq2rel"],
        "decode --report": ["decode", "--in", "c", "--out", "p.tsv", "--schema", "seq2rel", "--report", "link/r.tsv"],
        # the triples files are missing too, and are never read
        "errors --audit": ["errors", "--gold", "g.tsv", "--pred", "g.tsv", "--audit", "c/a.jsonl", "--docs", "c"],
    }

    @pytest.mark.parametrize("case", CASES)
    def test_an_output_inside_an_input_directory_is_refused(self, root, capsys, case):
        argv = self.CASES[case]
        out = argv[argv.index(case.split()[1]) + 1]
        in_flag = "--docs" if "--docs" in argv else "--in"
        err = fails_leaving_tree_unchanged(root, argv, capsys)
        assert err == f"error: {case.split()[1]} {out} is inside the {in_flag} directory c\n"
        assert run_cli(["stats", "--in", "c"]) == 0

    @pytest.mark.parametrize("command", ["repair", "split", "flatten"])
    def test_out_resolving_to_in_is_refused(self, root, capsys, command):
        # a document named like split's train manifest, which it would replace
        (root / "c" / "train.txt").write_text("Beta syndrome", encoding="utf-8")
        (root / "c" / "train.ann").write_text("T1\tDISEASE 0 4\tbeta\n", encoding="utf-8")
        flags = ["--ratios", "1,0,0"] if command == "split" else []
        for out in ("./c/", "link"):
            err = fails_leaving_tree_unchanged(root, [command, "--in", "c", "--out", out, *flags], capsys)
            assert err == f"error: --out {out} is the --in directory c\n"
        assert run_cli(["stats", "--in", "c"]) == 0

    @pytest.mark.parametrize("argv", [
        ["encode", "--in", "c", "--out", "./c/", "--schema", "seq2rel"],
        ["errors", "--gold", "g.tsv", "--pred", "g.tsv", "--audit", "link", "--docs", "c"],
    ])
    def test_an_output_that_is_an_input_directory_is_refused(self, tmp_path, monkeypatch, capsys, argv):
        (tmp_path / "c").mkdir()
        (tmp_path / "link").symlink_to(tmp_path / "c")
        monkeypatch.chdir(tmp_path)
        out_flag = "--out" if "--out" in argv else "--audit"
        in_flag = "--docs" if "--docs" in argv else "--in"
        err = fails_leaving_tree_unchanged(tmp_path, argv, capsys)
        assert err == f"error: {out_flag} {argv[argv.index(out_flag) + 1]} is the {in_flag} directory c\n"

    # each run would replace the input file it names
    INPUT_FILE_CASES = {
        "--out g.tsv is the --gold file g.tsv": ["score", "--gold", "g.tsv", "--pred", "p.tsv", "--out", "g.tsv"],
        "--audit p.tsv is the --pred file p.tsv": ["errors", "--gold", "g.tsv", "--pred", "p.tsv", "--audit", "p.tsv"],
        "--out nm.json is the --noun-map file nm.json":
            ["encode", "--in", "c", "--out", "nm.json", "--schema", "rel-is", "--noun-map", "nm.json"],
        "--train-list s/train.txt is inside the --out directory s":
            ["split", "--in", "c", "--out", "s", "--train-list", "s/train.txt", "--dev-list", "d.txt",
             "--test-list", "t.txt"],
        "the token list o/special_tokens.txt is the --noun-map file o/special_tokens.txt":
            ["encode", "--in", "c", "--out", "o/x.jsonl", "--schema", "seq2rel", "--noun-map", "o/special_tokens.txt"],
    }

    @pytest.mark.parametrize("message", INPUT_FILE_CASES)
    def test_an_output_that_is_an_input_file_is_refused(self, root, capsys, message):
        write_triples_file({"a": [Triple("Beta", "disease", "produces", "fever", "sign")]}, root / "g.tsv")
        shutil.copy(root / "g.tsv", root / "p.tsv")
        (root / "o").mkdir()
        for noun_map in ("nm.json", "o/special_tokens.txt"):
            (root / noun_map).write_text(json.dumps(schema_mod.DEFAULT_NOUN_MAP), encoding="utf-8")
        (root / "s").mkdir()
        (root / "s" / "train.txt").write_text("a\n\n", encoding="utf-8")
        for manifest in ("d.txt", "t.txt"):
            (root / manifest).write_text("", encoding="utf-8")
        err = fails_leaving_tree_unchanged(root, self.INPUT_FILE_CASES[message], capsys)
        assert err == f"error: {message}\n"

    def test_an_output_beside_an_input_directory_is_written(self, tmp_path, monkeypatch):
        """c2 starts with c, but it is not inside it."""
        (tmp_path / "c").mkdir()
        (tmp_path / "c" / "a.txt").write_text("Beta syndrome", encoding="utf-8")
        (tmp_path / "c" / "a.ann").write_text("", encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        assert run_cli(["stats", "--in", "c", "--out", "c2/stats.json"]) == 0
        assert (tmp_path / "c2" / "stats.json").is_file()


class TestModuleEntryPoint:
    """python -m raredis_toolkit and python -m raredis_toolkit.cli run the command line."""

    @pytest.mark.parametrize("module", ["raredis_toolkit", "raredis_toolkit.cli"])
    def test_runs_a_subcommand_and_exits_2_on_a_usage_error(self, mini_corpus_dir, module):
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(Path(cli.__file__).parents[1]),
                                                             os.environ.get("PYTHONPATH", "")])}
        stats = subprocess.run([sys.executable, "-m", module, "stats", "--in", str(mini_corpus_dir)],
                               capture_output=True, text=True, env=env, timeout=60)
        assert (stats.returncode, stats.stderr) == (0, "")
        assert stats.stdout == self.stats_table(mini_corpus_dir)
        usage = subprocess.run([sys.executable, "-m", module, "stats"], capture_output=True, text=True, env=env,
                               timeout=60)
        assert usage.returncode == 2
        assert "the following arguments are required: --in" in usage.stderr

    @staticmethod
    def stats_table(corpus: Path) -> str:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert run_cli(["stats", "--in", str(corpus)]) == 0
        return out.getvalue()


class TestOutputsNameDistinctFiles:
    """Two outputs of one run may not name one file: the run exits 1 and
    writes nothing, where the second output used to overwrite the first."""

    def test_encode_out_named_like_the_token_vocabulary(self, mini_corpus_dir, tmp_path, capsys):
        out = tmp_path / "d" / "special_tokens.txt"
        argv = ["encode", "--in", mini_corpus_dir, "--out", out, "--schema", "seq2rel"]
        err = fails_leaving_tree_unchanged(tmp_path, argv, capsys)
        assert err == f"error: {out}: named by two outputs of one run\n"

    def test_decode_report_named_like_the_triples(self, tmp_path, capsys):
        generations = generations_dir(tmp_path)
        out = tmp_path / "p.tsv"
        argv = ["decode", "--in", generations, "--out", out, "--schema", "seq2rel", "--report", out]
        err = fails_leaving_tree_unchanged(tmp_path, argv, capsys)
        assert err == f"error: {out}: named by two outputs of one run\n"

    @pytest.mark.parametrize("fresh", [True, False])
    def test_repair_log_named_like_a_repaired_document(self, mini_corpus_dir, tmp_path, capsys, fresh):
        out = tmp_path / "fixed"
        if not fresh:  # the clash is then between two replacements
            assert run_cli(["repair", "--in", str(mini_corpus_dir), "--out", str(out)]) == 0
        log = out / "rickets.txt"
        argv = ["repair", "--in", mini_corpus_dir, "--out", out, "--log", log]
        err = fails_leaving_tree_unchanged(tmp_path, argv, capsys)
        assert err == f"error: {log}: named by two outputs of one run\n"


class TestMissingParentsAreMade:
    @pytest.mark.parametrize("command", ["stats", "score", "errors", "decode", "repair"])
    def test_output_under_missing_directories(self, mini_corpus_dir, tmp_path, capsys, command):
        gold = tmp_path / "gold.tsv"
        gold.write_text("d\td\tsign\tis_a\te\tdisease\n", encoding="utf-8")
        new = tmp_path / "a" / "b"
        argv = {
            "stats": ["stats", "--in", mini_corpus_dir, "--out", new / "stats.json"],
            "score": ["score", "--gold", gold, "--pred", gold, "--out", new / "score.json"],
            "errors": ["errors", "--gold", gold, "--pred", gold, "--audit", new / "audit.jsonl"],
            "decode": ["decode", "--in", generations_dir(tmp_path), "--out", new / "p.tsv",
                       "--schema", "seq2rel", "--report", new / "c" / "skips.tsv"],
            "repair": ["repair", "--in", mini_corpus_dir, "--out", tmp_path / "fixed", "--log", new / "log.txt"],
        }[command]
        assert run_cli([str(a) for a in argv]) == 0
        assert capsys.readouterr().err == ""
        written = sorted(str(p.relative_to(new)) for p in new.rglob("*") if p.is_file())
        assert written == {
            "stats": ["stats.json"],
            "score": ["score.json"],
            "errors": ["audit.jsonl"],
            "decode": ["c/skips.tsv", "p.tsv"],
            "repair": ["log.txt"],
        }[command]
