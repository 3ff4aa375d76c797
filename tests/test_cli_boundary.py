"""The CLI reaches the toolkit's modules through their public names only: it
reads no `_`-prefixed attribute of a toolkit module it imports, and imports
no `_`-prefixed name from one. It never loads a whole parsed corpus either:
its corpus commands take documents from standoff.iter_corpus_dir (split
takes each pair's files from standoff.iter_document_files)."""

import ast
from pathlib import Path

import raredis_toolkit.cli


def private_uses(source: str) -> list[tuple[int, str]]:
    """(line, use) for each `<module>._<name>` where the source imports the
    module relatively (`from . import schema as schema_mod`), and for each
    `_`-prefixed name it imports from one (`from .schema import _x`)."""
    tree = ast.parse(source)
    modules, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            for alias in node.names:
                if node.module is None:
                    modules.add(alias.asname or alias.name)
                elif alias.name.startswith("_"):
                    found.append((node.lineno, f"from .{node.module} import {alias.name}"))
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
            and node.attr.startswith("_")
        ):
            found.append((node.lineno, f"{node.value.id}.{node.attr}"))
    return sorted(found)


def test_the_cli_uses_no_private_name_of_a_toolkit_module():
    assert private_uses(Path(raredis_toolkit.cli.__file__).read_text(encoding="utf-8")) == []


def test_the_check_finds_each_kind_of_private_use():
    source = (
        "from . import schema as schema_mod\n"
        "from . import standoff\n"
        "from .errors import DocumentError, _private\n"
        "import json\n"
        "def run(doc, path):\n"
        "    json._default_decoder\n"
        "    schema_mod.codec(doc)\n"
        "    standoff._read_pair(path)\n"
        "    return schema_mod._encode(doc, 'seq2rel', {})\n"
    )
    assert private_uses(source) == [
        (3, "from .errors import _private"),
        (8, "standoff._read_pair"),
        (9, "schema_mod._encode"),
    ]


def corpus_loads(source: str) -> list[tuple[int, str]]:
    """(line, use) for each mention of load_corpus_dir: a name, an attribute
    (`standoff.load_corpus_dir`, called or not) or an imported name."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and node.id == "load_corpus_dir":
            found.append((node.lineno, node.id))
        elif isinstance(node, ast.Attribute) and node.attr == "load_corpus_dir":
            found.append((node.lineno, f"{ast.unparse(node.value)}.{node.attr}"))
        elif isinstance(node, ast.ImportFrom):
            found += [(node.lineno, f"import {a.name}") for a in node.names if a.name == "load_corpus_dir"]
    return sorted(found)


def test_the_cli_never_loads_a_whole_corpus():
    assert corpus_loads(Path(raredis_toolkit.cli.__file__).read_text(encoding="utf-8")) == []


def test_the_load_check_finds_each_kind_of_use():
    source = (
        "from . import standoff\n"
        "from .standoff import load_corpus_dir as load\n"
        "def run(args):\n"
        "    docs = standoff.load_corpus_dir(args.input_dir)\n"
        "    reader = standoff.load_corpus_dir\n"
        "    return standoff.iter_corpus_dir(args.input_dir), load_corpus_dir\n"
    )
    assert corpus_loads(source) == [
        (2, "import load_corpus_dir"),
        (4, "standoff.load_corpus_dir"),
        (5, "standoff.load_corpus_dir"),
        (6, "load_corpus_dir"),
    ]
