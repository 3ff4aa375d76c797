"""Flattening discontinuous entities, and the offset map it returns.

The oracles below are OffsetMap.to_original's linear scan (the first interval
holding the span answers) and the two-pass flatten_document that looked each
untouched fragment up again among the copied stretches by that same scan,
over regions grouped by comparing every pair of entities.
"""

import json
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from raredis_toolkit.errors import FlattenError, ToolkitError
from raredis_toolkit.flatten import (
    OffsetMap,
    flatten_document,
    offset_map_json,
    read_offset_map,
)
from raredis_toolkit.standoff import AnnotatedDocument, EntityMention, parse_document, write_outputs
from synth import random_document, synthetic_corpus

COORDINATED = "weakness in the muscles of the arms and weakness in the muscles of the legs"


def identity_pairs(length: int) -> tuple:
    """The pairs of a map that rewrites nothing: one pair, none for empty text."""
    return (((0, length), (0, length)),) if length else ()


class TestWorkedExamples:
    def test_coordinated_entities_rewritten_verbatim(self, weakness_doc):
        flat, offset_map = flatten_document(weakness_doc)
        prefix = "Murovan disease patients show "
        assert flat.text == prefix + COORDINATED + "."
        t1, t2 = flat.entity_map["T1"], flat.entity_map["T2"]
        assert len(t1.fragments) == 1 and len(t2.fragments) == 1
        assert t1.entity_type == "sign" and t2.entity_type == "sign"
        s1, e1 = t1.fragments[0]
        s2, e2 = t2.fragments[0]
        assert flat.text[s1:e1] == "weakness in the muscles of the arms"
        assert flat.text[s2:e2] == "weakness in the muscles of the legs"

    def test_document_without_discontinuity_is_untouched(self, rickets_doc):
        flat, offset_map = flatten_document(rickets_doc)
        assert flat == rickets_doc
        assert offset_map.pairs == identity_pairs(len(rickets_doc.text))

    def test_single_discontinuous_entity_hand_computed(self):
        # hand-computed rewrite: the covered region collapses to the two
        # fragments joined by one space; everything after shifts left by 22
        text = "accumulation of fats (lipids) called GM 2 gangliosides occurs."
        f1 = (0, 15)
        f2 = (37, 54)
        ann = f"T1\tSIGN {f1[0]} {f1[1]};{f2[0]} {f2[1]}\taccumulation of GM 2 gangliosides\n"
        doc = parse_document(text, ann, "d")
        flat, offset_map = flatten_document(doc)
        assert flat.text == "accumulation of GM 2 gangliosides occurs."
        assert flat.entities[0].fragments == ((0, 33),)
        assert offset_map.to_original(0, 15) == (0, 15)
        assert offset_map.to_original(16, 33) == (37, 54)
        assert offset_map.to_original(34, 41) == (55, 62)
        # the joiner space is synthetic
        assert offset_map.to_original(15, 16) is None


@pytest.fixture(scope="module")
def flattened_corpus():
    docs = synthetic_corpus(seed=83, size=300)
    return [(doc, *flatten_document(doc)) for doc in docs]


class TestInvariants:
    def test_no_multi_fragment_entities_remain(self, flattened_corpus):
        for _, flat, _ in flattened_corpus:
            assert all(len(e.fragments) == 1 for e in flat.entities)

    def test_counts_types_and_predicates_preserved(self, flattened_corpus):
        for doc, flat, _ in flattened_corpus:
            assert [e.id for e in flat.entities] == [e.id for e in doc.entities]
            assert [e.entity_type for e in flat.entities] == [e.entity_type for e in doc.entities]
            assert flat.relations == doc.relations

    def test_surfaces_still_match_slices(self, flattened_corpus):
        for _, flat, _ in flattened_corpus:
            for ent in flat.entities:
                assert ent.slice_text(flat.text) == ent.surface_text

    def test_non_synthetic_intervals_preserve_text(self, flattened_corpus):
        for doc, flat, offset_map in flattened_corpus:
            for (ns, ne), original in offset_map.pairs:
                if original is not None:
                    os_, oe = original
                    assert flat.text[ns:ne] == doc.text[os_:oe]

    def test_map_covers_every_rewritten_code_point_once(self, flattened_corpus):
        for _, flat, offset_map in flattened_corpus:
            cursor = 0
            for (ns, ne), _ in offset_map.pairs:
                assert ns == cursor and ne > ns
                cursor = ne
            assert cursor == len(flat.text)

    def test_flattening_is_idempotent(self, flattened_corpus):
        for _, flat, _ in flattened_corpus:
            again, offset_map = flatten_document(flat)
            assert again == flat
            assert offset_map.pairs == identity_pairs(len(flat.text))


def oracle_to_original(offset_map: OffsetMap, start: int, end: int) -> tuple[int, int] | None:
    for (ns, ne), original in offset_map.pairs:
        if ns <= start and end <= ne:
            if original is None:
                return None
            os_, _ = original
            return (os_ + (start - ns), os_ + (end - ns))
    return None


def oracle_first_holding(entries, start: int, end: int) -> int | None:
    """shift's scan over the copied stretches, returning the stretch's index."""
    for i, ((os_, oe), _) in enumerate(entries):
        if os_ <= start and end <= oe:
            return i
    return None


def oracle_overlap_groups(entities) -> list[list[EntityMention]]:
    """Entities whose covering spans share a character, grouped transitively
    by comparing every pair of entities."""
    group_of = list(range(len(entities)))
    spans = [e.covering_span for e in entities]
    for i, (si, ei) in enumerate(spans):
        for j, (sj, ej) in enumerate(spans[:i]):
            if si < ej and sj < ei and group_of[i] != group_of[j]:
                old = group_of[i]
                group_of = [group_of[j] if g == old else g for g in group_of]
    return [[e for e, g in zip(entities, group_of) if g == group] for group in sorted(set(group_of))]


def oracle_flatten_document(doc: AnnotatedDocument) -> tuple[AnnotatedDocument, OffsetMap]:
    """flatten_document in two passes: rewrite the regions while recording
    every copied stretch, then shift each untouched fragment by the delta of
    the stretch that holds it."""
    text = doc.text
    regions = []  # (region_start, region_end, members ordered for rendering), by start
    for cluster in oracle_overlap_groups(doc.entities):
        if not any(e.is_discontinuous for e in cluster):
            continue
        start = min(e.covering_span[0] for e in cluster)
        end = max(e.covering_span[1] for e in cluster)
        members = sorted(cluster, key=lambda e: (e.first_start, e.covering_span[1], e.id))
        regions.append((start, end, members))
    regions.sort(key=lambda region: region[0])

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
        i = oracle_first_holding(copied_stretches, fs, fe)
        if i is not None:
            delta = copied_stretches[i][1]
            return (fs + delta, fe + delta)
        raise FlattenError(doc.doc_id, f"fragment {fragment} outside any copied stretch")

    entities = []
    for ent in doc.entities:
        if ent.id in new_fragments:
            entities.append(ent._replace(fragments=(new_fragments[ent.id],)))
        else:
            entities.append(ent._replace(fragments=tuple(shift(f) for f in ent.fragments)))

    return replace(doc, text="".join(pieces), entities=tuple(entities)), OffsetMap(tuple(pairs))


@st.composite
def offset_maps(draw, gaps: bool = False):
    """Ordered intervals of length 0-3, touching or (with gaps) spaced apart;
    each maps to an original interval or is synthetic."""
    pairs = []
    pos = 0
    for length in draw(st.lists(st.integers(0, 3), max_size=8)):
        pos += draw(st.integers(0, 2)) if gaps else 0
        original = draw(st.none() | st.integers(0, 50).map(lambda o, n=length: (o, o + n)))
        pairs.append(((pos, pos + length), original))
        pos += length
    return OffsetMap(tuple(pairs))


def spans_near(offset_map: OffsetMap) -> list[tuple[int, int]]:
    """Every span whose ends sit on, beside or between interval bounds,
    empty and inverted spans included."""
    bounds = {b for (ns, ne), _ in offset_map.pairs for b in (ns, ne)} | {0}
    points = sorted({p + d for p in bounds for d in (-1, 0, 1)})
    return [(start, end) for start in points for end in points]


class TestLookupMatchesLinearScan:
    @settings(max_examples=300, deadline=None)
    @given(offset_maps())
    def test_to_original(self, offset_map):
        for start, end in spans_near(offset_map):
            assert offset_map.to_original(start, end) == oracle_to_original(offset_map, start, end)

    @settings(max_examples=300, deadline=None)
    @given(offset_maps(gaps=True))
    def test_to_original_over_maps_with_gaps(self, offset_map):
        """read_offset_map accepts gaps between the rewritten intervals."""
        for start, end in spans_near(offset_map):
            assert offset_map.to_original(start, end) == oracle_to_original(offset_map, start, end)

    @settings(max_examples=300, deadline=None)
    @given(st.randoms(use_true_random=False), st.integers(0, 40))
    def test_flatten_document(self, rng, max_entities):
        doc = random_document(rng, "d", max_entities=max_entities)
        assert flatten_document(doc) == oracle_flatten_document(doc)

    def test_empty_span_on_a_boundary_resolves_through_the_earlier_pair(self):
        offset_map = OffsetMap((((0, 5), (10, 15)), ((5, 10), (30, 35))))
        assert offset_map.to_original(5, 5) == (15, 15)
        assert offset_map.to_original(5, 6) == (30, 31)
        synthetic_first = OffsetMap((((0, 5), None), ((5, 10), (30, 35))))
        assert synthetic_first.to_original(5, 5) is None

    def test_fragment_outside_every_stretch_raises(self):
        # T2 starts in the stretch copied after T1's region and runs past the
        # end of the text, so no stretch holds it
        text = "aaaa bbbb cccc dd"
        entities = (
            EntityMention("T1", "sign", ((0, 4), (10, 14)), "aaaa cccc"),
            EntityMention("T2", "sign", ((15, 20),), "dd"),
        )
        with pytest.raises(FlattenError, match="outside any copied stretch"):
            flatten_document(AnnotatedDocument("d", text, entities, ()))
        # a fragment starting before the text, clear of T1's region
        before = (entities[0], EntityMention("T2", "sign", ((-2, 0),), ""))
        with pytest.raises(FlattenError, match=r"fragment \(-2, 0\) outside any copied stretch"):
            flatten_document(AnnotatedDocument("d", text, before, ()))

    @pytest.mark.parametrize(
        "fragments",
        [((0, 4), (10, 20)), ((-3, -1), (5, 9)), ((-3, -1),)],
        ids=["discontinuous_past_the_end", "discontinuous_before_the_start", "before_the_start"],
    )
    def test_every_cluster_is_bounds_checked(self, fragments):
        # no fragment is clamped to the text or read from its end
        entities = (EntityMention("T1", "sign", fragments, ""),)
        with pytest.raises(FlattenError, match="outside any copied stretch"):
            flatten_document(AnnotatedDocument("d", "aaaa bbbb cccc", entities, ()))


intervals = st.tuples(st.integers(-10, 10**6), st.integers(-10, 10**6))


class TestOffsetMapIO:
    def test_json_round_trip(self, weakness_doc, tmp_path):
        _, offset_map = flatten_document(weakness_doc)
        write_outputs([(tmp_path / "m.json", offset_map_json(offset_map))])
        assert read_offset_map(tmp_path / "m.json") == offset_map

    @pytest.mark.parametrize(
        "pairs", [[[5, 10], [0, 5]], [[0, 6], [5, 10]], [[4, 2]]], ids=["unordered", "overlapping", "inverted"]
    )
    def test_unordered_map_rejected(self, pairs, tmp_path):
        payload = {"pairs": [{"rewritten": rw, "original": None} for rw in pairs]}
        (tmp_path / "m.json").write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ToolkitError, match="ordered and non-overlapping") as caught:
            read_offset_map(tmp_path / "m.json")
        assert str(caught.value).startswith(f"{tmp_path / 'm.json'}: ")

    @pytest.mark.parametrize(
        "content, where",
        [
            ('{\n  "pairs": [\n    {"rewritten": [0, 5],}\n  ]\n}\n', ":3: "),
            ('{"pair": []}', ": "),
            ('[]', ": "),
            ('{"pairs": [{"rewritten": [0, 5, 9], "original": null}]}', ": "),
            ('{"pairs": [{"rewritten": [0], "original": null}]}', ": "),
            ('{"pairs": [{"rewritten": [0, 5]}]}', ": "),
            ('{"pairs": [{"rewritten": [0, 5], "original": [1, "6"]}]}', ": "),
            ('{"pairs": [{"rewritten": null, "original": null}]}', ": "),
            ('{"pairs": [[0, 5]]}', ": "),
            ('{"pairs": [{"rewritten": [0, 3], "original": [10, 2]}]}', ": offset map pair [0, 3] -> [10, 2]: "),
        ],
        ids=["bad-json", "no-pairs", "not-an-object", "long-rewritten", "short-rewritten", "no-original",
             "text-offset", "null-rewritten", "pair-not-an-object", "unequal-lengths"],
    )
    def test_malformed_map_names_its_file(self, content, where, tmp_path):
        path = tmp_path / "m.offsets.json"
        path.write_text(content, encoding="utf-8")
        with pytest.raises(ToolkitError) as caught:
            read_offset_map(path)
        assert str(caught.value).startswith(f"{path}{where}")

    @settings(max_examples=200, deadline=None)
    @given(offset_maps(gaps=True))
    def test_every_written_map_reads_back(self, tmp_path_factory, offset_map):
        path = tmp_path_factory.getbasetemp() / "round-trip.offsets.json"
        path.write_text(offset_map_json(offset_map), encoding="utf-8")
        assert read_offset_map(path) == offset_map

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(intervals, st.none() | intervals), max_size=6))
    def test_json_is_the_indented_dump(self, pairs):
        """offset_map_json writes the bytes of json's indenting encoder, the empty map included."""
        offset_map = OffsetMap(tuple(pairs))
        entries = [{"rewritten": list(rw), "original": list(orig) if orig else None} for rw, orig in pairs]
        assert offset_map_json(offset_map) == json.dumps({"pairs": entries}, indent=2) + "\n"

    def test_identity_map(self):
        for text in ("x" * 10, ""):
            _, m = flatten_document(AnnotatedDocument("d", text, (), ()))
            assert m.pairs == identity_pairs(len(text))
            assert m.to_original(3, 7) == ((3, 7) if text else None)
