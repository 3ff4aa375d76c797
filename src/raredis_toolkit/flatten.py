"""Rewrite documents so every discontinuous entity becomes a contiguous span.

Overlapping entities are rewritten as a group: the covered region is replaced
by each member's fragments joined by single spaces, members joined by " and ",
ordered by first-fragment start. Text outside rewritten regions is preserved
byte-for-byte, and an OffsetMap records how rewritten character ranges
correspond to the original text (inserted glue is marked synthetic).
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass, replace
from operator import itemgetter
from pathlib import Path

from .errors import FlattenError, ToolkitError
from .standoff import AnnotatedDocument, EntityMention, read_file


@dataclass(frozen=True)
class OffsetMap:
    """Ordered, non-overlapping map of rewritten intervals to original ones.

    An entry's original interval is None for synthetic glue text that has no
    source in the original document. Every rewritten code point is covered
    by exactly one entry.
    """

    pairs: tuple[tuple[tuple[int, int], tuple[int, int] | None], ...]

    def to_original(self, start: int, end: int) -> tuple[int, int] | None:
        """Translate a rewritten span back, or None if it crosses synthetic text.

        The first pair holding the span answers, so an empty span on a boundary
        between two pairs resolves through the earlier one. Pair starts and ends
        both ascend: the first pair ending at or after `end` is the only candidate."""
        i = bisect_left(self.pairs, end, key=lambda pair: pair[0][1])
        if i == len(self.pairs):
            return None
        (ns, _), original = self.pairs[i]
        if ns > start or original is None:
            return None
        return (original[0] + (start - ns), original[0] + (end - ns))


def _overlap_clusters(entities: tuple[EntityMention, ...]):
    """Maximal groups of entities whose covering spans share characters, by
    start: yields each group's hull and its (covering span, entity) pairs as
    (start, end, members). Each entity's covering span is computed once."""
    members: list[tuple[tuple[int, int], EntityMention]] = []
    for span, ent in sorted(((e.covering_span, e) for e in entities), key=itemgetter(0)):
        if members and span[0] < end:
            end = max(end, span[1])
        else:
            if members:
                yield start, end, members
            (start, end), members = span, []
        members.append((span, ent))
    if members:
        yield start, end, members


def flatten_document(doc: AnnotatedDocument) -> tuple[AnnotatedDocument, OffsetMap]:
    """Rewrite so every output entity has exactly one fragment.

    Expects a repaired document. Entity ids, types, relation ids, and
    predicates are preserved exactly; only text and offsets change.
    """
    text = doc.text
    pieces: list[str] = []
    pairs: list[tuple[tuple[int, int], tuple[int, int] | None]] = []
    new_fragments: dict[str, tuple[int, int]] = {}
    orig_pos = new_pos = 0  # the original text before orig_pos is already in pieces

    def emit(piece: str, original: tuple[int, int] | None):
        nonlocal new_pos
        if piece:
            pieces.append(piece)
            pairs.append(((new_pos, new_pos + len(piece)), original))
            new_pos += len(piece)

    # clusters arrive by start with disjoint hulls: an untouched one lies in the
    # stretch copied next from orig_pos, so it moves by that stretch's delta
    for start, end, members in _overlap_clusters(doc.entities):
        if start < 0 or end > len(text):
            fragment = next(f for _, e in members for f in e.fragments if f[0] < 0 or f[1] > len(text))
            raise FlattenError(doc.doc_id, f"fragment {fragment} outside any copied stretch")
        if not any(e.is_discontinuous for _, e in members):
            delta = new_pos - orig_pos
            for _, ent in members:
                ((fs, fe),) = ent.fragments
                new_fragments[ent.id] = (fs + delta, fe + delta)
            continue
        if orig_pos < start:
            emit(text[orig_pos:start], (orig_pos, start))
        members.sort(key=lambda m: (m[1].first_start, m[0][1], m[1].id))
        for i, (_, ent) in enumerate(members):
            if i:
                emit(" and ", None)
            render_start = new_pos
            for j, (fs, fe) in enumerate(ent.fragments):
                if j:
                    emit(" ", None)
                emit(text[fs:fe], (fs, fe))
            new_fragments[ent.id] = (render_start, new_pos)
        orig_pos = end
    emit(text[orig_pos:], (orig_pos, len(text)))

    entities = tuple(ent._replace(fragments=(new_fragments[ent.id],)) for ent in doc.entities)
    return replace(doc, text="".join(pieces), entities=entities), OffsetMap(tuple(pairs))


def offset_map_json(offset_map: OffsetMap) -> str:
    """The bytes of json.dumps({"pairs": [{"rewritten": [s, e], "original": [s, e] or null}, ...]},
    indent=2) + "\n", formatted by hand: json's indenting encoder is pure Python."""
    def interval(iv):
        return "null" if iv is None else f"[\n        {iv[0]},\n        {iv[1]}\n      ]"

    entries = ",\n".join(
        f'    {{\n      "rewritten": {interval(rw)},\n      "original": {interval(orig)}\n    }}'
        for rw, orig in offset_map.pairs
    )
    return f'{{\n  "pairs": [\n{entries}\n  ]\n}}\n' if entries else '{\n  "pairs": []\n}\n'


def _interval(value) -> tuple[int, int] | None:
    if value is not None:
        start, end = value
        if type(start) is not int or type(end) is not int:
            raise TypeError("an interval is two integers")
        return start, end


def read_offset_map(path: str | Path) -> OffsetMap:
    """The map in a `.offsets.json` sidecar, the only reader of what `flatten` writes. Every error names
    `path`; the pairs must be in order, as `to_original` bisects them, with each original interval
    as long as its rewritten one, as `flatten` copies text."""
    content = read_file(path)
    try:
        pairs = tuple((_interval(e["rewritten"]), _interval(e["original"])) for e in json.loads(content)["pairs"])
        previous_end = 0
        for (ns, ne), original in pairs:
            if not previous_end <= ns <= ne:
                raise ToolkitError(f"{path}: offset map pairs must be ordered and non-overlapping, at {[ns, ne]}")
            if original is not None and original[1] - original[0] != ne - ns:
                raise ToolkitError(f"{path}: offset map pair {[ns, ne]} -> {list(original)}: lengths differ")
            previous_end = ne
    except json.JSONDecodeError as exc:
        raise ToolkitError(f"{path}:{exc.lineno}: {exc.msg}") from None
    except (KeyError, TypeError, ValueError):
        raise ToolkitError(f'{path}: expected "pairs" of "rewritten" [s, e] and "original" [s, e] or null') from None
    return OffsetMap(pairs)
