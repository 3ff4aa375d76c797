"""scoring.document_diff is the one place scoring keys triples: inside
scoring.py, triples.distinct_triples and triples.triple_key are used only
within document_diff, so score, score_corpus and categorize_errors cannot
grow a second definition of a document's TP, FP and FN."""

import ast
from pathlib import Path

import raredis_toolkit.scoring

KEYING = {"distinct_triples", "triple_key", "_keyed"}


def keying_outside_diff(source: str) -> list[tuple[int, str]]:
    """(line, use) for each use of a keying function, by name
    (`triple_key`) or as an attribute (`triples.triple_key`), that does not
    lie within the body of a function named document_diff."""
    found = []

    def visit(node: ast.AST, in_diff: bool) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == "document_diff":
            in_diff = True
        if not in_diff:
            if isinstance(node, ast.Name) and node.id in KEYING:
                found.append((node.lineno, node.id))
            elif isinstance(node, ast.Attribute) and node.attr in KEYING:
                found.append((node.lineno, f"{ast.unparse(node.value)}.{node.attr}"))
        for child in ast.iter_child_nodes(node):
            visit(child, in_diff)

    visit(ast.parse(source), False)
    return sorted(found)


def test_only_document_diff_keys_triples_in_scoring():
    assert keying_outside_diff(Path(raredis_toolkit.scoring.__file__).read_text(encoding="utf-8")) == []


def test_the_check_finds_a_second_keying_site():
    source = (
        "from . import triples\n"
        "from .triples import _keyed, distinct_triples, triple_key\n"
        "def document_diff(gold, predicted):\n"
        "    def key(t):\n"
        "        return triple_key(t)\n"
        "    return _keyed(gold, False, False, {}), {key(t) for t in predicted}\n"
        "def score_corpus(gold):\n"
        "    return distinct_triples(gold)\n"
        "def categorize_errors(gold, predicted):\n"
        "    fps = sorted(predicted, key=triple_key)\n"
        "    return fps, {triples.triple_key(t) for t in gold}, triples._keyed(gold, False, False, {})\n"
    )
    assert keying_outside_diff(source) == [
        (8, "distinct_triples"),
        (10, "triple_key"),
        (11, "triples._keyed"),
        (11, "triples.triple_key"),
    ]
