import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from raredis_toolkit.standoff import parse_document

# characters str.splitlines() breaks on, plus tab and the record separator
LINE_BREAK_ALPHABET = "ab \t\n\r\x85\u2028\x0b\x0c\x1c\x1d\x1e"

# characters a model or a file may put anywhere: line and record breaks, NUL,
# an astral character, and the letters re.IGNORECASE folds onto ASCII ones
HOSTILE_CHARACTERS = ["\r", "\t", "\n", "\x85", "\x00", "\U0001F9EC", "ſ", "İ", "ı", "\u212a"]


def tree_snapshot(root: Path) -> dict[str, bytes | None]:
    """Every file's bytes and every directory (None) under root, hidden ones
    too, by path relative to root."""
    return {
        str(p.relative_to(root)): None if p.is_dir() else p.read_bytes() for p in sorted(root.rglob("*"))
    }


def _offsets(text: str, phrase: str, occurrence: int = 0) -> tuple[int, int]:
    pos = -1
    for _ in range(occurrence + 1):
        pos = text.index(phrase, pos + 1)
    return pos, pos + len(phrase)


def rickets_doc_pair() -> tuple[str, str]:
    """Clean two-relation document plus one dangling-argument defect (T90)."""
    text = (
        "Vitamin D Deficiency Rickets is a rare disorder caused by lack of vitamin D. "
        "The disorder may produce bone disease. This disorder can be severe."
    )
    t1 = _offsets(text, "Vitamin D Deficiency Rickets")
    t2 = _offsets(text, "bone disease")
    t9 = _offsets(text, "This disorder")
    ann = (
        f"T1\tRAREDISEASE {t1[0]} {t1[1]}\tVitamin D Deficiency Rickets\n"
        f"T2\tSIGN {t2[0]} {t2[1]}\tbone disease\n"
        f"T9\tANAPHOR {t9[0]} {t9[1]}\tThis disorder\n"
        "R2\tproduces Arg1:T1 Arg2:T2\n"
        "R5\tanaphora Arg1:T1 Arg2:T90\n"
    )
    return text, ann


def weakness_doc_pair() -> tuple[str, str]:
    """Flat entity overlapping a discontinuous one inside a coordination."""
    text = "Murovan disease patients show weakness in the muscles of the arms and legs."
    t3 = _offsets(text, "Murovan disease")
    flat = _offsets(text, "weakness in the muscles of the arms")
    d1 = _offsets(text, "weakness in the muscles of the")
    d2 = _offsets(text, "legs")
    ann = (
        f"T1\tSIGN {flat[0]} {flat[1]}\tweakness in the muscles of the arms\n"
        f"T2\tSIGN {d1[0]} {d1[1]};{d2[0]} {d2[1]}\tweakness in the muscles of the legs\n"
        f"T3\tRAREDISEASE {t3[0]} {t3[1]}\tMurovan disease\n"
        "R1\tproduces Arg1:T3 Arg2:T1\n"
        "R2\tproduces Arg1:T3 Arg2:T2\n"
    )
    return text, ann


def balanti_doc_pair() -> tuple[str, str]:
    """Span boundary defect: offsets and surface both miss a trailing letter."""
    text = "Balantidiasis is a rare infectious disease caused by the protozoan parasite."
    t1 = _offsets(text, "Balantidiasis")
    full = _offsets(text, "infectious disease")
    ann = (
        f"T1\tRAREDISEASE {t1[0]} {t1[1]}\tBalantidiasis\n"
        f"T24\tDISEASE {full[0]} {full[1] - 1}\tinfectious diseas\n"
        "R1\tis_a Arg1:T1 Arg2:T24\n"
    )
    return text, ann


def storage_doc_pair() -> tuple[str, str]:
    """Fragment order defect: discontinuous spans listed right-to-left."""
    text = "Tremors and accumulation of fats called gangliosides happen in Saxotide disease."
    f1 = _offsets(text, "accumulation of")
    f2 = _offsets(text, "gangliosides")
    t2 = _offsets(text, "Saxotide disease")
    ann = (
        f"T1\tSIGN {f2[0]} {f2[1]};{f1[0]} {f1[1]}\tgangliosides accumulation of\n"
        f"T2\tRAREDISEASE {t2[0]} {t2[1]}\tSaxotide disease\n"
        "R1\tproduces Arg1:T2 Arg2:T1\n"
    )
    return text, ann


def empty_doc_pair() -> tuple[str, str]:
    return "No annotations appear in this text.", ""


MINI_CORPUS = {
    "balanti": balanti_doc_pair,
    "empty": empty_doc_pair,
    "rickets": rickets_doc_pair,
    "storage": storage_doc_pair,
    "weakness": weakness_doc_pair,
}


@pytest.fixture
def rickets_doc():
    text, ann = rickets_doc_pair()
    return parse_document(text, ann, "rickets")


@pytest.fixture
def weakness_doc():
    text, ann = weakness_doc_pair()
    return parse_document(text, ann, "weakness")


@pytest.fixture
def mini_corpus_dir(tmp_path):
    """Write the five fixture documents as .txt/.ann pairs."""
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for doc_id, build in MINI_CORPUS.items():
        text, ann = build()
        (corpus / f"{doc_id}.txt").write_text(text, encoding="utf-8")
        (corpus / f"{doc_id}.ann").write_text(ann, encoding="utf-8")
    return corpus
