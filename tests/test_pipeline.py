"""The whole pipeline over hostile text: repair, split, flatten, encode and
decode for each schema, score and errors, all through run_cli, on small
corpora whose texts and .ann lines hold line breaks, tabs, NUL, astral and
case-folding characters, and sometimes a line that does not parse.

Each command exits 0, or exits 1 with one `error:` line that names a path
it was given (or one under it) and leaves the tree as it was. Anything else,
a traceback above all, fails the test.
"""

import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from raredis_toolkit.cli import run_cli
from raredis_toolkit.flatten import read_offset_map
from raredis_toolkit.schema import SCHEMA_KINDS
from raredis_toolkit.standoff import (
    format_offsets,
    load_corpus_dir,
    read_file,
    serialize_document,
    slices_text,
    split_records,
)
from conftest import HOSTILE_CHARACTERS, tree_snapshot

# text pieces: words, sentence ends, a seq2rel token, Unicode line breaks,
# an Arabic-Indic digit and a combining accent, besides the hostile characters
_WORDS = ["Beta syndrome", "fever", "x", " is a ", "St. ", " - ", ". ", " ", "@Sign@", "\u2028", "\x0c", "\u0663", "e\u0301"]
_TEXTS = st.lists(st.sampled_from(_WORDS) | st.sampled_from(HOSTILE_CHARACTERS), min_size=1, max_size=12).map("".join)
_ENTITY_LABELS = ["SIGN", "RAREDISEASE", "Rare disease", "skin-rare-disease", "ANAPHOR"]
_PREDICATE_LABELS = ["produces", "is_a", "increase_risk_of", "anaphora"]
# lines that do not parse: unknown letter, missing argument, offsets past any
# text drawn here, an unknown label; and T1, a duplicate when an entity holds it
_MALFORMED = ["X1\tbogus", "R7\tproduces Arg1:T1", "T8\tSIGN 900 999\tx", "T9\tNOSUCH 0 1\tx", "T1\tSIGN 0 1\tx"]


@st.composite
def documents(draw) -> tuple[str, str]:
    """(text, ann): up to three entities of one or two fragments, in order
    or reversed, whose surfaces are their slices, "x", blank or holding a line
    feed (which runs onto the next .ann line); up to two relations,
    some dangling; for one document in eight, a malformed line; and "\\n"
    or "\\r\\n" line endings."""
    text = draw(_TEXTS)
    lines = []
    for n in range(1, draw(st.integers(0, 3)) + 1):
        ends = sorted(draw(st.lists(st.integers(0, len(text)), min_size=2, max_size=4, unique=True)))
        fragments = list(zip(ends[::2], ends[1::2]))
        if draw(st.booleans()):  # for repair to sort
            fragments.reverse()
        surface = draw(st.sampled_from([slices_text(text, fragments), "x", " ", "x\nx"]))
        lines.append(f"T{n}\t{draw(st.sampled_from(_ENTITY_LABELS))} {format_offsets(fragments)}\t{surface}")
    arguments = st.sampled_from(["T1", "T2", "T3"])
    for n in range(1, draw(st.integers(0, 2)) + 1):
        predicate = draw(st.sampled_from(_PREDICATE_LABELS))
        lines.append(f"R{n}\t{predicate} Arg1:{draw(arguments)} Arg2:{draw(arguments)}")
    if draw(st.integers(0, 7)) == 0:
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(_MALFORMED)))
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    return text, "".join(line + ending for line in lines)


def runs(root: Path, *argv) -> bool:
    """Run argv: True if it exits 0; False if it exits 1 naming one of its
    paths and leaving root as it was; any other outcome fails."""
    before = tree_snapshot(root)
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
        code = run_cli([str(a) for a in argv])
    if code == 0:
        return True
    message = err.getvalue()
    assert code == 1, (argv, code, message)
    assert message.startswith("error: ") and message.index("\n") == len(message) - 1, (argv, message)
    assert any(str(a) in message for a in argv if isinstance(a, Path)), (argv, message)
    assert tree_snapshot(root) == before, (argv, message)
    return False


class TestPipelineOverHostileText:
    @settings(max_examples=100, deadline=None)
    @given(docs=st.lists(documents(), min_size=1, max_size=4))
    def test_every_command_succeeds_or_names_its_input(self, docs):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            corpus = current = root / "c"
            corpus.mkdir()
            for i, (text, ann) in enumerate(docs):
                (corpus / f"d{i}.txt").write_bytes(text.encode("utf-8"))
                (corpus / f"d{i}.ann").write_bytes(ann.encode("utf-8"))

            # each stage reads the last corpus a stage wrote, the input at first
            if runs(root, "repair", "--in", current, "--out", root / "r", "--log", root / "repair.log"):
                current = root / "r"
                for doc in load_corpus_dir(current):  # what repair writes reads back as written
                    text, ann = serialize_document(doc)
                    assert (current / f"{doc.doc_id}.txt").read_bytes() == text.encode("utf-8")
                    assert (current / f"{doc.doc_id}.ann").read_bytes() == ann.encode("utf-8")
            if runs(root, "split", "--in", current, "--out", root / "s", "--ratios", "1,0,0"):
                # the manifests partition the input doc ids, and each split holds its pairs as read
                parts = {n: split_records(read_file(root / "s" / f"{n}.txt")) for n in ("train", "dev", "test")}
                assert sorted(sum(parts.values(), [])) == sorted(p.stem for p in current.glob("*.ann"))
                for name, ids in parts.items():
                    copied = {p.name: p.read_bytes() for p in (root / "s" / name).iterdir()}
                    names = [f"{doc_id}{ext}" for doc_id in ids for ext in (".txt", ".ann")]
                    assert copied == {n: (current / n).read_bytes() for n in names}
                current = root / "s" / "train"
            if runs(root, "flatten", "--in", current, "--out", root / "f"):
                # every contiguous entity maps back to where it stood
                for before, after in zip(load_corpus_dir(current), load_corpus_dir(root / "f")):
                    offset_map = read_offset_map(root / "f" / f"{after.doc_id}.offsets.json")
                    for was, ent in zip(before.entities, after.entities):
                        if not was.is_discontinuous:
                            assert offset_map.to_original(*ent.fragments[0]) == was.fragments[0]
                current = root / "f"

            decoded = []
            for kind in SCHEMA_KINDS:
                schema = kind.replace("_", "-")
                records = root / f"{kind}.jsonl"
                if not runs(root, "encode", "--in", current, "--out", records, "--schema", schema):
                    continue
                generations = root / f"gen-{kind}"
                generations.mkdir()
                for line in split_records(read_file(records)):
                    record = json.loads(line)
                    (generations / f"{record['doc_id']}.txt").write_bytes(record["target"].encode("utf-8"))
                triples = root / f"{kind}.tsv"
                report = root / f"{kind}-skips.tsv"
                if runs(root, "decode", "--in", generations, "--out", triples, "--schema", schema, "--report", report):
                    decoded.append(triples)

            if decoded:
                gold, pred = decoded[0], decoded[-1]
                runs(root, "score", "--gold", gold, "--pred", pred, "--out", root / "score.json")
                runs(root, "errors", "--gold", gold, "--pred", pred, "--audit", root / "audit.jsonl", "--docs", corpus)
