"""Rewrite documents so every discontinuous entity becomes a contiguous span.

Overlapping entities are rewritten as a group: the covered region is
replaced by each member's fragments joined by single spaces, members joined
by " and ", ordered by first-fragment start. Text outside rewritten regions
is preserved byte-for-byte, and an OffsetMap records how rewritten
character ranges correspond to the original text (inserted glue is marked
synthetic).
"""

from __future__ import annotations

import json
from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import dataclass, replace
from pathlib import Path

from .errors import FlattenError, ToolkitError
from .standoff import AnnotatedDocument, EntityMention, read_file


def _first_holding(entries: Sequence[tuple[tuple[int, int], object]], start: int, end: int) -> int | None:
    """Index of the first `((s, e), _)` entry with s <= start and end <= e.

    The intervals are ordered and do not overlap, so their starts and ends
    both ascend: the first interval ending at or after `end` is the only
    candidate, because every later one starts no earlier than it does.
    """
    i = bisect_left(entries, end, key=lambda entry: entry[0][1])
    if i < len(entries) and entries[i][0][0] <= start:
        return i
    return None


@dataclass(frozen=True)
class OffsetMap:
    """Ordered, non-overlapping map of rewritten intervals to original ones.

    An entry's original interval is None for synthetic glue text that has no
    source in the original document. Every rewritten code point is covered
    by exactly one entry.
    """

    pairs: tuple[tuple[tuple[int, int], tuple[int, int] | None], ...]

    @classmethod
    def identity(cls, length: int) -> "OffsetMap":
        if length == 0:
            return cls(())
        return cls((((0, length), (0, length)),))

    @property
    def is_identity(self) -> bool:
        if not self.pairs:
            return True
        return len(self.pairs) == 1 and self.pairs[0][0] == self.pairs[0][1]

    def to_original(self, start: int, end: int) -> tuple[int, int] | None:
        """Translate a rewritten span back, or None if it crosses synthetic text.

        The first pair holding the span answers, so an empty span on a
        boundary between two pairs resolves through the earlier one.
        """
        i = _first_holding(self.pairs, start, end)
        if i is None or self.pairs[i][1] is None:
            return None
        (ns, _), (os_, _) = self.pairs[i]
        return (os_ + (start - ns), os_ + (end - ns))

    def to_dict(self) -> dict:
        return {
            "pairs": [
                {"rewritten": list(rw), "original": list(orig) if orig else None}
                for rw, orig in self.pairs
            ]
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "OffsetMap":
        pairs = tuple(
            (tuple(entry["rewritten"]), tuple(entry["original"]) if entry["original"] else None)
            for entry in payload["pairs"]
        )
        # to_original bisects, so a map read from outside must keep the order
        previous_end = 0
        for (ns, ne), _ in pairs:
            if not previous_end <= ns <= ne:
                raise ToolkitError(f"offset map pairs must be ordered and non-overlapping, at {[ns, ne]}")
            previous_end = ne
        return cls(pairs)


def _overlap_clusters(entities: tuple[EntityMention, ...]) -> list[list[EntityMention]]:
    """Maximal groups of entities whose covering spans share characters."""
    ordered = sorted(entities, key=lambda e: e.covering_span)
    clusters: list[list[EntityMention]] = []
    cluster_end = -1
    for ent in ordered:
        start, end = ent.covering_span
        if clusters and start < cluster_end:
            clusters[-1].append(ent)
            cluster_end = max(cluster_end, end)
        else:
            clusters.append([ent])
            cluster_end = end
    return clusters


def flatten_document(doc: AnnotatedDocument) -> tuple[AnnotatedDocument, OffsetMap]:
    """Rewrite so every output entity has exactly one fragment.

    Expects a repaired document. Entity ids, types, relation ids, and
    predicates are preserved exactly; only text and offsets change.
    """
    text = doc.text
    regions = []  # (region_start, region_end, members ordered for rendering), by start
    for cluster in _overlap_clusters(doc.entities):
        if not any(e.is_discontinuous for e in cluster):
            continue
        end = max(e.covering_span[1] for e in cluster)
        members = sorted(cluster, key=lambda e: (e.first_start, e.covering_span[1], e.id))
        regions.append((cluster[0].covering_span[0], end, members))

    pieces: list[str] = []
    pairs: list[tuple[tuple[int, int], tuple[int, int] | None]] = []
    new_fragments: dict[str, tuple[int, int]] = {}
    copied_stretches: list[tuple[tuple[int, int], int]] = []  # ((orig_start, orig_end), delta)
    orig_pos = 0
    new_pos = 0

    def emit(piece: str, original: tuple[int, int] | None):
        nonlocal new_pos
        if not piece:
            return
        pieces.append(piece)
        pairs.append(((new_pos, new_pos + len(piece)), original))
        new_pos += len(piece)

    for start, end, members in regions:
        if orig_pos < start:
            copied_stretches.append(((orig_pos, start), new_pos - orig_pos))
            emit(text[orig_pos:start], (orig_pos, start))
        for i, ent in enumerate(members):
            if i:
                emit(" and ", None)
            render_start = new_pos
            for j, (fs, fe) in enumerate(ent.fragments):
                if j:
                    emit(" ", None)
                emit(text[fs:fe], (fs, fe))
            new_fragments[ent.id] = (render_start, new_pos)
        orig_pos = end
    if orig_pos < len(text):
        copied_stretches.append(((orig_pos, len(text)), new_pos - orig_pos))
        emit(text[orig_pos:], (orig_pos, len(text)))

    def shift(fragment: tuple[int, int]) -> tuple[int, int]:
        fs, fe = fragment
        i = _first_holding(copied_stretches, fs, fe)
        if i is not None:
            delta = copied_stretches[i][1]
            return (fs + delta, fe + delta)
        # covering-span clusters have gap-free hulls, so no outside entity can
        # reach into a rewritten group; fail rather than corrupt spans if one does
        raise FlattenError(f"{doc.doc_id}: fragment {fragment} outside any copied stretch")

    entities = []
    for ent in doc.entities:
        if ent.id in new_fragments:
            entities.append(replace(ent, fragments=(new_fragments[ent.id],)))
        else:
            entities.append(replace(ent, fragments=tuple(shift(f) for f in ent.fragments)))

    return replace(doc, text="".join(pieces), entities=tuple(entities)), OffsetMap(tuple(pairs))


def offset_map_json(offset_map: OffsetMap) -> str:
    return json.dumps(offset_map.to_dict(), indent=2) + "\n"


def read_offset_map(path: str | Path) -> OffsetMap:
    return OffsetMap.from_dict(json.loads(read_file(path)))
