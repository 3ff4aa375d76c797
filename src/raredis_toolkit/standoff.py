"""Parse and serialize RareDis-style standoff annotation (.txt/.ann pairs).

Entity lines:   T<digits> TAB <TYPE> <start> <end>[;<start> <end>]* TAB <surface text>
Relation lines: R<digits> TAB <TYPE> Arg1:T<digits> Arg2:T<digits>

Both are read through one table, _LINE_KINDS, keyed by the id letter: what the
line holds, its tab-separated field count, and its middle field's regex, name
and label lookup. Ids follow one rule, is_ann_id: the letter, then decimal digits.

Offsets are character (code point) based, half-open, into the files exactly
as written (read_file never translates line endings). Parsing preserves
whatever the annotation file says; defect correction lives in `repair`.
"""

from __future__ import annotations

import logging
import os
import re
import shutil
import tempfile
from collections import namedtuple
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from functools import cached_property, lru_cache
from pathlib import Path

from .errors import DocumentError, StandoffParseError, ToolkitError

logger = logging.getLogger(__name__)

# Canonical names and the spellings written back out; the corpus files use
# these. Every other label table derives from these two.
ENTITY_TYPE_LABELS = {
    "disease": "DISEASE",
    "rare_disease": "RAREDISEASE",
    "symptom": "SYMPTOM",
    "sign": "SIGN",
    "anaphor": "ANAPHOR",
    "rare_skin_disease": "SKINRAREDISEASE",
}
PREDICATE_LABELS = {
    "produces": "produces",
    "increases_risk_of": "increase_risk_of",
    "is_a": "is_a",
    "is_acron": "is_acron",
    "is_synon": "is_synon",
    "anaphora": "anaphora",
}
ENTITY_TYPES = tuple(ENTITY_TYPE_LABELS)
PREDICATES = tuple(PREDICATE_LABELS)

# Entity types are looked up by their underscore-free spelling, so SKINRAREDISEASE
# and "skin rare disease" both name rare_skin_disease.
_ENTITY_TYPE_ALIASES = {
    spelling.lower().replace("_", ""): name
    for name, label in ENTITY_TYPE_LABELS.items()
    for spelling in (name, label)
}
_PREDICATE_ALIASES = {
    spelling: name for name, label in PREDICATE_LABELS.items() for spelling in (name, label.lower())
}


_LABEL_SEPARATORS = re.compile(r"[\s\-]+")


def _label_key(label: str) -> str:
    """Lower-cased label with each run of spaces and hyphens as one underscore."""
    return _LABEL_SEPARATORS.sub("_", label.strip().lower())


# Both lookups are memoized per spelling. The bound matters: every .ann and TSV label passes
# through them, as does each seq2rel @Name@ token of model output that schema._seq2rel_token's cache misses.
@lru_cache(maxsize=1024)
def normalize_entity_type(label: str) -> str | None:
    """Map a type label spelling to its canonical name, or None if unknown.

    Case-insensitive; spaces and hyphens count as underscores, and the
    underscore-free spelling is accepted too (e.g. SKINRAREDISEASE).
    """
    return _ENTITY_TYPE_ALIASES.get(_label_key(label).replace("_", ""))


@lru_cache(maxsize=1024)
def normalize_predicate(label: str) -> str | None:
    """Map a relation label spelling to its canonical name, or None."""
    return _PREDICATE_ALIASES.get(_label_key(label))


class EntityMention(namedtuple("EntityMention", "id entity_type fragments surface_text")):
    """A typed entity given by one or more character-offset fragments; a named tuple."""

    __slots__ = ()

    @property
    def is_discontinuous(self) -> bool:
        return len(self.fragments) > 1

    @property
    def first_start(self) -> int:
        return self.fragments[0][0]

    @property
    def covering_span(self) -> tuple[int, int]:
        """(min fragment start, max fragment end)."""
        return (min(s for s, _ in self.fragments), max(e for _, e in self.fragments))

    def slice_text(self, text: str) -> str:
        return slices_text(text, self.fragments)


def slices_text(text: str, fragments: tuple[tuple[int, int], ...]) -> str:
    """Document slices of the fragments joined by single spaces."""
    return " ".join(text[s:e] for s, e in fragments)


RelationInstance = namedtuple("RelationInstance", "id predicate subject_ref object_ref")


@dataclass(frozen=True)
class AnnotatedDocument:
    """A text plus its entity mentions and relation instances."""

    doc_id: str
    text: str
    entities: tuple[EntityMention, ...]
    relations: tuple[RelationInstance, ...]

    def __post_init__(self):
        if not self.doc_id:
            raise ValueError("doc_id must be non-empty")

    @cached_property
    def entity_map(self) -> dict[str, EntityMention]:
        return {e.id: e for e in self.entities}

    @cached_property
    def unresolved_refs(self) -> tuple[tuple[str, str, str], ...]:
        """(relation id, argument slot, entity id) for every relation
        argument that does not name an entity of this document."""
        return tuple(
            (rel.id, slot, ref)
            for rel in self.relations
            for slot, ref in (("Arg1", rel.subject_ref), ("Arg2", rel.object_ref))
            if ref not in self.entity_map
        )

    def resolved_relations(self) -> list[tuple[RelationInstance, EntityMention, EntityMention]]:
        """Relations whose two arguments both resolve, with their entities."""
        out = []
        for rel in self.relations:
            subj = self.entity_map.get(rel.subject_ref)
            obj = self.entity_map.get(rel.object_ref)
            if subj is not None and obj is not None:
                out.append((rel, subj, obj))
        return out


def read_file(path: str | Path) -> str:
    """A whole UTF-8 file, line endings exactly as written. A file that is
    not UTF-8 raises ToolkitError naming it and the offending byte offset.
    Both errors name the file as pathlib spells it (no "./" or doubled slashes)."""
    return _decode(_read_bytes(path), path)


def _read_bytes(path: str | Path) -> bytes:
    try:
        with open(path, "rb") as handle:
            return handle.read()
    except OSError as exc:
        raise _named(exc, path)


def _named(exc: OSError, path: str | Path) -> OSError:
    """exc, from opening or reading path, naming the file as pathlib spells it,
    as every read error does."""
    exc.filename = str(Path(path))
    return exc


def _decode(data: bytes, path: str | Path, offset: int = 0) -> str:
    """data decoded; offset is where data starts in the file, for the error."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ToolkitError(f"{Path(path)}: not UTF-8 at byte offset {offset + exc.start} ({exc.reason})") from None


def split_records(content: str) -> list[str]:
    r"""Records separated by "\n" only (U+2028, form feed, ... are content),
    each stripped of one trailing "\r". Inverts join_records."""
    records = content.split("\n")
    if records[-1] == "":
        records.pop()
    return [r[:-1] if r.endswith("\r") else r for r in records]


def join_records(records: Iterable[str], where: str | Path) -> Iterator[str]:
    r"""Each record followed by "\n", yielded as taken: write_outputs content.
    Raises ToolkitError, naming `where` and the record number, for a record
    split_records could not give back, when that record is taken."""
    for line_no, record in enumerate(records, start=1):
        if "\n" in record or record.endswith("\r"):
            raise ToolkitError(
                f"{where}:{line_no}: a record may not contain a line feed or end in a carriage return"
            )
        yield record + "\n"


_BLOCK_BYTES = 1 << 14  # what iter_records reads at a time


def iter_records(path: str | Path) -> Iterator[str]:
    r"""split_records(read_file(path)), one record at a time: the file is read
    in blocks cut after their last "\n" (a byte no UTF-8 sequence holds), and
    each run of whole lines is decoded and split when reached, so neither the
    file's text nor its record list is ever held whole. The errors are
    read_file's, a byte that is not UTF-8 named by its offset in the file,
    raised when the reader reaches it."""
    try:
        with open(path, "rb") as handle:
            offset = 0  # of the first byte in tail
            tail: list[bytes] = []  # the bytes read since the last "\n"
            while block := handle.read(_BLOCK_BYTES):
                cut = block.rfind(b"\n") + 1
                if not cut:
                    tail.append(block)
                    continue
                lines = b"".join((*tail, block[:cut]))
                tail = [block[cut:]]
                yield from split_records(_decode(lines, path, offset))
                offset += len(lines)
            if last := b"".join(tail):
                yield from split_records(_decode(last, path, offset))
    except OSError as exc:
        raise _named(exc, path)


# The label is the shortest prefix that leaves an offsets list; offsets are ASCII digits.
_ENTITY_MID_RE = re.compile(r"^(?P<label>.*?\S)\s+(?P<offsets>[0-9]+\s+[0-9]+(?:\s*;\s*[0-9]+\s+[0-9]+)*)$")
_RELATION_MID_RE = re.compile(r"^(?P<label>\S+)\s+Arg1:(?P<arg1>\S+)\s+Arg2:(?P<arg2>\S+)$")

_LINE_KINDS = {
    "T": ("entity", 3, _ENTITY_MID_RE, "type/offsets field", normalize_entity_type),
    "R": ("relation", 2, _RELATION_MID_RE, "relation field", normalize_predicate),
}


def is_ann_id(name: str, letter: str) -> bool:
    """Whether name is an annotation id: the letter, then one or more
    decimal digits (any Unicode decimal digit counts)."""
    return name[:1] == letter and name[1:].isdecimal()


def parse_document(text_content: str, ann_content: str, doc_id: str) -> AnnotatedDocument:
    """Parse a .txt/.ann pair into an AnnotatedDocument.

    Every well-formed line contributes exactly one entity or relation.
    Relation arguments that do not resolve are recorded in unresolved_refs,
    not dropped. Fragment order and span/surface mismatches are preserved
    verbatim; repair is a separate stage.

    Raises StandoffParseError, a DocumentError carrying doc_id, the reason
    and the 1-based line_no, on malformed lines, unknown type labels, offsets
    outside the text, and duplicate ids; ValueError on an empty doc_id. An
    unsupported line after an entity whose text spans a line feed names that
    entity, whose surface most likely ran onto it.
    """
    if not doc_id:
        raise ValueError("doc_id must be non-empty")
    found: dict[str, list] = {letter: [] for letter in _LINE_KINDS}
    seen_ids: set[str] = set()
    annotation = None  # the last non-blank line's

    for line_no, line in enumerate(split_records(ann_content), start=1):
        if not line.strip():
            continue
        fields = line.split("\t")
        ann_id = fields[0]
        letter = ann_id[:1]
        if letter not in _LINE_KINDS:
            reason = f"unsupported line type {letter!r}"
            if isinstance(annotation, EntityMention) and "\n" in annotation.slice_text(text_content):
                # a surface written out whole runs onto the lines after its entity's
                reason += f" (entity {annotation.id} before it spans a line feed in the text;"
                reason += " its surface cannot fit on one .ann line)"
            raise StandoffParseError(doc_id, reason, line_no)
        holds, n_fields, mid_re, mid_name, lookup = _LINE_KINDS[letter]
        if not is_ann_id(ann_id, letter):
            raise StandoffParseError(doc_id, f"bad {holds} id {ann_id!r}", line_no)
        if len(fields) != n_fields:
            raise StandoffParseError(
                doc_id, f"{holds} line has {len(fields)} tab-separated fields, expected {n_fields}", line_no
            )
        mid = mid_re.match(fields[1])
        if mid is None:
            raise StandoffParseError(doc_id, f"cannot parse {mid_name} {fields[1]!r}", line_no)
        label = lookup(mid["label"])
        if label is None:
            raise StandoffParseError(doc_id, f"unknown {holds} type {mid['label']!r}", line_no)

        if letter == "T":
            fragments = []
            for pair in mid["offsets"].split(";"):
                start_s, end_s = pair.split()
                start, end = int(start_s), int(end_s)
                if not 0 <= start < end <= len(text_content):
                    need = f"need 0 <= start < end <= document length {len(text_content)}"
                    raise StandoffParseError(doc_id, f"invalid offsets {start} {end} ({need})", line_no)
                fragments.append((start, end))
            annotation = EntityMention(ann_id, label, tuple(fragments), fields[2])
        else:
            if not (is_ann_id(mid["arg1"], "T") and is_ann_id(mid["arg2"], "T")):
                raise StandoffParseError(doc_id, "relation arguments must be T<digits> ids", line_no)
            annotation = RelationInstance(ann_id, label, mid["arg1"], mid["arg2"])

        if ann_id in seen_ids:
            raise StandoffParseError(doc_id, f"duplicate id {ann_id}", line_no)
        seen_ids.add(ann_id)
        found[letter].append(annotation)

    return AnnotatedDocument(doc_id, text_content, tuple(found["T"]), tuple(found["R"]))


def format_offsets(fragments: tuple[tuple[int, int], ...]) -> str:
    """The .ann offsets field: `<start> <end>` per fragment, joined by ";"."""
    return ";".join(f"{s} {e}" for s, e in fragments)


def is_ann_surface(text: str) -> bool:
    """Whether an .ann line can hold text as a surface: no tab, no line feed, no final carriage return."""
    return "\t" not in text and "\n" not in text and not text.endswith("\r")


UNWRITABLE_SURFACE = "surface holds a tab or newline or ends in a carriage return, which no .ann line can hold"


def serialize_document(doc: AnnotatedDocument) -> tuple[str, str]:
    """Emit (text_content, ann_content) that parse_document inverts exactly."""
    lines = []
    for ent in doc.entities:
        if not is_ann_surface(ent.surface_text):
            raise DocumentError(doc.doc_id, f"entity {ent.id}: {UNWRITABLE_SURFACE}")
        lines.append(
            f"{ent.id}\t{ENTITY_TYPE_LABELS[ent.entity_type]} {format_offsets(ent.fragments)}"
            f"\t{ent.surface_text}"
        )
    for rel in doc.relations:
        lines.append(
            f"{rel.id}\t{PREDICATE_LABELS[rel.predicate]} Arg1:{rel.subject_ref} Arg2:{rel.object_ref}"
        )
    return doc.text, "".join(join_records(lines, doc.doc_id))


def path_stem(path: str) -> str:
    """Path(path).stem without building a Path: the file name less its last
    ".<suffix>", where a name's leading or trailing "." starts no suffix."""
    name = os.path.basename(path)
    i = name.rfind(".")
    return name[:i] if 0 < i < len(name) - 1 else name


def read_document_pair(txt_path: str | Path) -> AnnotatedDocument:
    """Load one <doc_id>.txt / <doc_id>.ann pair (UTF-8) as the document <doc_id>;
    a parse error is a StandoffParseError carrying that doc_id and the line."""
    txt_path = Path(txt_path)
    return parse_document(read_file(txt_path), read_file(txt_path.with_suffix(".ann")), txt_path.stem)


def _listing(path: str | Path) -> tuple[str, list[str]]:
    """(prefix, sorted input names) of a directory; prefix + name spells each
    input as str(Path(path) / name) does, with no "./" or doubled slashes."""
    folder = Path(path)
    if not folder.is_dir():
        raise ToolkitError(f"not a directory: {path}")
    with os.scandir(folder) as entries:
        names = sorted(e.name for e in entries if e.is_file() and not e.name.startswith("."))
    return ("" if str(folder) == "." else os.path.join(folder, "")), names


def input_files(path: str | Path) -> list[str]:
    """The inputs in a directory, as path strings sorted by name: regular
    files whose names do not start with "." (hidden files such as macOS
    "._<name>" companions, staging directories and subdirectories are never
    inputs). Only the directory becomes a Path; the names stay strings."""
    prefix, names = _listing(path)
    return [prefix + name for name in names]


def paired_texts(path: str | Path, strict_pairs: bool = True) -> dict[str, str]:
    """Every doc_id with a .txt/.ann pair in a directory, sorted, mapped to
    the path string of its .txt. Names pair by os.path.splitext, so
    "a..txt" pairs with "a..ann" under the doc_id "a.".

    An orphan .txt or .ann raises ToolkitError when strict_pairs is set;
    otherwise the orphans are skipped with one logged warning.
    """
    prefix, names = _listing(path)
    found: dict[str, set[str]] = {".txt": set(), ".ann": set()}  # the doc ids of each extension
    for name in names:
        doc_id, ext = os.path.splitext(name)
        if ext in found:
            found[ext].add(doc_id)
    del names  # not held beside the paths built below
    txts, anns = found.values()
    orphans = sorted(txts ^ anns)
    if orphans:
        if strict_pairs:
            raise ToolkitError(f"unpaired .txt/.ann files: {', '.join(orphans)}")
        logger.warning("skipping unpaired .txt/.ann files: %s", ", ".join(orphans))
    return {doc_id: f"{prefix}{doc_id}.txt" for doc_id in sorted(txts & anns)}


# A document as read or written: its doc_id and the contents of its .txt and .ann.
DocumentFiles = namedtuple("DocumentFiles", "doc_id text ann")


def iter_document_files(path: str | Path, strict_pairs: bool = True) -> Iterator[DocumentFiles]:
    """Every .txt/.ann pair in a directory (see paired_texts) as its files
    read, in doc_id order, each pair decoded only when taken.

    The bytes of every pair are read before this returns, so a missing or
    unreadable file fails the call; a caller that keeps no pair it has taken
    holds the files' bytes and one decoded pair at a time.
    """
    pairs = [
        (doc_id, txt, _read_bytes(txt), _read_bytes(txt[:-4] + ".ann"))
        for doc_id, txt in paired_texts(path, strict_pairs).items()
    ]
    return (
        DocumentFiles(doc_id, _decode(text, txt), _decode(ann, txt[:-4] + ".ann"))
        for doc_id, txt, text, ann in pairs
    )


def iter_corpus_dir(path: str | Path, strict_pairs: bool = True) -> Iterator[AnnotatedDocument]:
    """Each pair of iter_document_files parsed when taken: a caller that keeps no
    document it has taken holds the files' bytes and one parsed document at a time."""
    return (parse_document(text, ann, doc_id) for doc_id, text, ann in iter_document_files(path, strict_pairs))


def load_corpus_dir(path: str | Path, strict_pairs: bool = True) -> list[AnnotatedDocument]:
    """Every document of iter_corpus_dir, all parsed at once."""
    return list(iter_corpus_dir(path, strict_pairs))


def document_files(doc: AnnotatedDocument) -> DocumentFiles:
    """The files serialize_document gives for doc."""
    return DocumentFiles(doc.doc_id, *serialize_document(doc))


def corpus_files(files: Iterable[DocumentFiles], path: str | Path):
    """write_outputs items for a corpus directory: the directory, then each
    document's <doc_id>.txt and <doc_id>.ann, taken one document at a time."""
    yield path, None
    for doc_id, text, ann in files:
        yield os.path.join(path, f"{doc_id}.txt"), text
        yield os.path.join(path, f"{doc_id}.ann"), ann


def write_corpus_dir(docs: Iterable[AnnotatedDocument], path: str | Path) -> None:
    """Write documents as <doc_id>.txt / <doc_id>.ann pairs, all or none,
    serializing each as it is taken."""
    write_outputs(corpus_files(map(document_files, docs), path))


def write_outputs(items: Iterable[tuple[str | Path, str | Iterable[str] | None]]) -> None:
    """Write every (path, content) item, all or none; content None names a directory.

    A file's content is a str or an iterable of str chunks, each written as
    it is taken, so a file need never be held whole. Items, and the chunks
    of each, are taken one at a time. A new file or directory, missing
    parents included, is made in place; a file that replaces an existing one
    is written into a hidden ".staging-*" directory beside it and renamed
    over it after the last item. So a failure, even while the items or their
    chunks are generated, removes what was made and changes no existing
    file. A target that is an existing directory, or a file two items name,
    is an error.
    """
    written: dict[str, dict[str, bool]] = {}  # directory -> {file name: made in place}
    staging: dict[str, str] = {}  # directory -> its staging directory
    made: list[str] = []  # the topmost directory of each chain of new ones
    try:
        for path, content in items:
            target = os.path.abspath(path)
            full, name = (target, "") if content is None else os.path.split(target)
            names = written.get(full)
            if names is None:
                names = written[full] = {}
                if not os.path.isdir(full):
                    top = full
                    while not os.path.exists(os.path.dirname(top)):
                        top = os.path.dirname(top)
                    os.makedirs(full)
                    made.append(top)
            if content is None:
                continue
            if name in names:
                raise ToolkitError(f"{path}: named by two outputs of one run")
            try:  # creating the file is its one existence check
                handle = open(target, "x", encoding="utf-8", newline="")
                names[name] = True
            except FileExistsError:
                if os.path.isdir(target):
                    raise ToolkitError(f"{path}: is a directory, not a file") from None
                names[name] = False
                if full not in staging:
                    staging[full] = tempfile.mkdtemp(prefix=".staging-", dir=full)
                handle = open(os.path.join(staging[full], name), "w", encoding="utf-8", newline="")
            try:
                with handle:
                    if isinstance(content, str):
                        handle.write(content)
                    else:
                        handle.writelines(content)
            except OSError as exc:
                # a failed write or close (a full disk, say) names no file; a chunk's own read names its input
                if exc.filename is None:
                    exc.filename = path
                raise
        for full, staged in staging.items():
            for name in os.listdir(staged):
                os.replace(os.path.join(staged, name), os.path.join(full, name))
    except BaseException:
        for full, names in written.items():
            for name in [n for n, new in names.items() if new]:
                Path(full, name).unlink(missing_ok=True)
        for top in made:
            shutil.rmtree(top, ignore_errors=True)
        raise
    finally:
        for staged in staging.values():
            shutil.rmtree(staged, ignore_errors=True)
