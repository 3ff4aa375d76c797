"""A document the library cannot take raises DocumentError, which carries the
doc id, the reason, for an .ann line that does not parse the line number, and
which file of the pair it is about as data; the CLI names that file from them."""

import pickle
import tempfile
from pathlib import Path

import pytest

from raredis_toolkit.errors import DocumentError, ToolkitError
from raredis_toolkit.flatten import flatten_document
from raredis_toolkit.repair import repair_all
from raredis_toolkit.schema import encode_target
from raredis_toolkit.standoff import (
    UNWRITABLE_SURFACE,
    AnnotatedDocument,
    EntityMention,
    load_corpus_dir,
    parse_document,
    serialize_document,
)

RAISERS = {
    "repair_overlapping_fragments": (
        lambda: repair_all(parse_document("a" * 50, "T1\tSIGN 10 20;15 25\taaa\n", "d1")),
        "d1",
        "entity T1 has overlapping fragments 10 20;15 25",
        None,
    ),
    "repair_unwritable_surface": (
        lambda: repair_all(parse_document("a\nb c", "T1\tSIGN 0 3\ta b", "d2")),
        "d2",
        f"entity T1: repaired {UNWRITABLE_SURFACE}",
        None,
    ),
    "repair_blank_surface": (
        lambda: repair_all(parse_document("a b", "T1\tSIGN 1 2\t \n", "d8")),
        "d8",
        "entity T1: repaired surface is blank, which no triple can hold",
        None,
    ),
    "serialize_surface_ending_in_cr": (
        lambda: serialize_document(parse_document("Beta syndrome", "T1\tDISEASE 0 4\tBeta\r\r\n", "d3")),
        "d3",
        f"entity T1: {UNWRITABLE_SURFACE}",
        None,
    ),
    "encode_blank_entity_text": (
        lambda: encode_target(
            parse_document(" x tremor", "T1\tSIGN 0 1\t \nT2\tSIGN 3 9\ttremor\nR1\tproduces Arg1:T1 Arg2:T2\n", "d4"),
            "rel_is",
        ),
        "d4",
        "entity T1: triple entity texts may not be blank",
        None,
    ),
    "flatten_fragment_out_of_range": (
        lambda: flatten_document(
            AnnotatedDocument("d5", "aaaa bbbb cccc", (EntityMention("T1", "sign", ((0, 4), (10, 20)), ""),), ())
        ),
        "d5",
        "fragment (10, 20) outside any copied stretch",
        None,
    ),
    "parse_duplicate_id": (
        lambda: parse_document("x" * 10, "T1\tSIGN 0 3\txxx\nT1\tSIGN 4 7\txxx\n", "d6"),
        "d6",
        "duplicate id T1",
        2,
    ),
    "load_invalid_offsets": (
        lambda: load_pair("d7", "abcd", "T1\tSIGN 9 9\tx\n"),
        "d7",
        "invalid offsets 9 9 (need 0 <= start < end <= document length 4)",
        1,
    ),
}


def load_pair(doc_id: str, text: str, ann: str):
    """load_corpus_dir over a directory holding just <doc_id>.txt and <doc_id>.ann."""
    with tempfile.TemporaryDirectory() as folder:
        Path(folder, f"{doc_id}.txt").write_text(text, encoding="utf-8")
        Path(folder, f"{doc_id}.ann").write_text(ann, encoding="utf-8")
        return load_corpus_dir(folder)


@pytest.mark.parametrize("raise_it, doc_id, reason, line_no", RAISERS.values(), ids=RAISERS.keys())
def test_a_document_error_carries_its_doc_id_and_reason(raise_it, doc_id, reason, line_no):
    with pytest.raises(DocumentError) as caught:
        raise_it()
    exc = caught.value
    assert isinstance(exc, ToolkitError)
    assert (exc.doc_id, exc.reason, exc.line_no, exc.suffix) == (doc_id, reason, line_no, ".ann")
    assert str(exc) == (f"{doc_id}: {reason}" if line_no is None else f"{doc_id}:{line_no}: {reason}")
    copy = pickle.loads(pickle.dumps(exc))
    assert (type(copy), copy.doc_id, copy.reason, copy.line_no, copy.suffix) == (
        type(exc), doc_id, reason, line_no, ".ann"
    )


def test_a_document_error_says_which_file_of_the_pair_it_is_about():
    exc = DocumentError("d", "doc_text must be non-empty", suffix=".txt")
    assert str(exc) == "d: doc_text must be non-empty"
    assert exc.located("c/d.txt") == "c/d.txt: doc_text must be non-empty"
    copy = pickle.loads(pickle.dumps(exc))
    assert (type(copy), copy.doc_id, copy.reason, copy.line_no, copy.suffix) == (
        DocumentError, "d", "doc_text must be non-empty", None, ".txt"
    )
