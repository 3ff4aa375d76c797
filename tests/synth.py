"""Randomized synthetic documents for round-trip and invariant tests.

The vocabulary is nonce words chosen so entity spans never collide with the
fixed scaffolding of the target schemas (no "and", "is", articles, template
verbs, periods, or @ characters). Generated documents are internally
consistent: fragments are ordered and disjoint, and every surface text
equals its document slices joined by single spaces.
"""

import random

from raredis_toolkit.standoff import (
    ENTITY_TYPES,
    PREDICATES,
    AnnotatedDocument,
    EntityMention,
    RelationInstance,
)

WORDS = [
    "ferrodynia", "kranoline", "blepharosis", "myotaxin", "cordylexia",
    "Pallinor", "quenofane", "sarcovin", "Tremaxol", "ulnaphilia",
    "vastigrel", "oxyphene", "neurovax", "dermolith", "cytofane",
    "Hepaton", "lysomere", "glionex", "Fibrozam", "arthroxin",
    "pleuroma", "renostat", "Velcorin", "midralex", "synaptol",
    "osteogren", "Carpolith", "embrynox", "thalamure", "pexidorm",
]


def random_document(
    rng: random.Random,
    doc_id: str,
    max_entities: int = 6,
    min_entities: int = 0,
    allow_discontinuous: bool = True,
) -> AnnotatedDocument:
    n_words = rng.randint(8, 40)
    words = [rng.choice(WORDS) for _ in range(n_words)]
    text = " ".join(words)
    starts = []
    pos = 0
    for w in words:
        starts.append(pos)
        pos += len(w) + 1

    def word_span(i, j):
        return (starts[i], starts[j - 1] + len(words[j - 1]))

    entities = []
    for k in range(rng.randint(min_entities, max_entities)):
        etype = rng.choice(ENTITY_TYPES)
        if allow_discontinuous and rng.random() < 0.2:
            i = rng.randint(0, n_words - 5)
            j = i + rng.randint(1, 2)
            g = j + rng.randint(1, 2)
            m = min(g + rng.randint(1, 2), n_words)
            fragments = (word_span(i, j), word_span(g, m))
        else:
            i = rng.randint(0, n_words - 1)
            j = min(i + rng.randint(1, 3), n_words)
            fragments = (word_span(i, j),)
        surface = " ".join(text[s:e] for s, e in fragments)
        entities.append(EntityMention(f"T{k + 1}", etype, fragments, surface))

    relations = []
    if len(entities) >= 2:
        for r in range(rng.randint(0, min(4, len(entities)))):
            si, oi = rng.sample(range(len(entities)), 2)
            predicate = rng.choice(PREDICATES)
            if predicate == "anaphora" and entities[oi].entity_type != "anaphor":
                # anaphora points at an anaphor-typed mention in this scheme
                predicate = rng.choice([p for p in PREDICATES if p != "anaphora"])
            relations.append(RelationInstance(f"R{r + 1}", predicate, entities[si].id, entities[oi].id))

    return AnnotatedDocument(doc_id, text, tuple(entities), tuple(relations))


def synthetic_corpus(seed: int, size: int, **kwargs) -> list[AnnotatedDocument]:
    rng = random.Random(seed)
    return [random_document(rng, f"synth{i:04d}", **kwargs) for i in range(size)]


def corrupt_relation_argument(doc: AnnotatedDocument, rng: random.Random) -> AnnotatedDocument:
    """Append a trailing zero to one relation argument, making it dangle."""
    if not doc.relations:
        return doc
    idx = rng.randrange(len(doc.relations))
    rel = doc.relations[idx]
    bad = rel.object_ref + "0"
    if bad in doc.entity_map:
        return doc
    relations = list(doc.relations)
    relations[idx] = RelationInstance(rel.id, rel.predicate, rel.subject_ref, bad)
    return AnnotatedDocument(doc.doc_id, doc.text, doc.entities, tuple(relations))


def corrupt_trailing_char(doc: AnnotatedDocument, rng: random.Random) -> AnnotatedDocument:
    """Drop the final character from one entity's last fragment and surface."""
    candidates = [
        i
        for i, e in enumerate(doc.entities)
        if e.fragments[-1][1] - e.fragments[-1][0] >= 3
        and doc.text[e.fragments[-1][1] - 1].isalnum()
        and doc.text[e.fragments[-1][1] - 2].isalnum()
    ]
    if not candidates:
        return doc
    i = rng.choice(candidates)
    ent = doc.entities[i]
    *head, (ls, le) = ent.fragments
    fragments = (*head, (ls, le - 1))
    surface = " ".join(doc.text[s:e] for s, e in fragments)
    entities = list(doc.entities)
    entities[i] = EntityMention(ent.id, ent.entity_type, fragments, surface)
    return AnnotatedDocument(doc.doc_id, doc.text, tuple(entities), doc.relations)


def corrupt_fragment_order(doc: AnnotatedDocument, rng: random.Random) -> AnnotatedDocument:
    """List one discontinuous entity's fragments right-to-left."""
    candidates = [i for i, e in enumerate(doc.entities) if e.is_discontinuous]
    if not candidates:
        return doc
    i = rng.choice(candidates)
    ent = doc.entities[i]
    fragments = tuple(reversed(ent.fragments))
    surface = " ".join(doc.text[s:e] for s, e in fragments)
    entities = list(doc.entities)
    entities[i] = EntityMention(ent.id, ent.entity_type, fragments, surface)
    return AnnotatedDocument(doc.doc_id, doc.text, tuple(entities), doc.relations)
