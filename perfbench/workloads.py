"""Seeded workload generator with references built from its own knowledge.

Every document is laid out from "regions" whose entity shapes are known by
construction (flat, nested, crossing, coordination, discontinuous), so shape
counts, clean annotations, gold triples, target encodings, decoded triples,
TP/FP/FN counts and error categories are all derived here from the generator's
plan and the file-format spec, never by calling the toolkit under test.
"""

from __future__ import annotations

import functools
import hashlib
import json
import random
import re
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

ENTITY_TYPES = ("disease", "rare_disease", "symptom", "sign", "anaphor", "rare_skin_disease")
PREDICATES = ("produces", "increases_risk_of", "is_a", "is_acron", "is_synon", "anaphora")
KINDS = ("seq2rel", "rel_is", "natural_lang")
# scored with --type-agnostic: these targets do not carry both entity types
AGNOSTIC = {"seq2rel": False, "rel_is": True, "natural_lang": True}

# standoff labels as the corpus files spell them
TYPE_LABEL = {
    "disease": "DISEASE", "rare_disease": "RAREDISEASE", "symptom": "SYMPTOM",
    "sign": "SIGN", "anaphor": "ANAPHOR", "rare_skin_disease": "SKINRAREDISEASE",
}
PRED_LABEL = {p: p for p in PREDICATES} | {"increases_risk_of": "increase_risk_of"}

# target-schema vocabulary, as the schema spec gives it
TYPE_TOKEN = {
    "disease": "@Disease@", "rare_disease": "@RareDisease@", "symptom": "@Symptom@",
    "sign": "@Sign@", "anaphor": "@Anaphor@", "rare_skin_disease": "@RareSkinDisease@",
}
PRED_TOKEN = {p: "@" + p.upper() + "@" for p in PREDICATES}
NOUN = {
    "produces": "producer", "increases_risk_of": "risk factor", "is_a": "hyponym",
    "is_acron": "acronym", "is_synon": "synonym", "anaphora": "anaphor",
}
NL_TEMPLATE = {
    "produces": "{s1} is a {t1} that produces {s2}, as a {t2}",
    "anaphora": "The term {s2} is an anaphor that refers back to the entity of the {t1} {s1}",
    "is_synon": "The {t1} {s1} and the {t2} {s2} are synonyms",
    "is_acron": "The acronym {s1} stands for {s2}, a {t2}",
    "increases_risk_of": "The presence of the {t1} {s1} increases the risk of developing the {t2} {s2}",
    "is_a": "The {t1} {s1} is a type of {s2}, a {t2}",
}

_TEMPLATE_WORDS = set(
    " ".join(NL_TEMPLATE.values()).lower().replace("{", " ").replace("}", " ").replace(",", " ").split()
) | set(" ".join(ENTITY_TYPES).replace("_", " ").split()) | set(" ".join(NOUN.values()).split()) | {
    "and", "is", "a", "an", "the", "of", "relation", "relationship", "between", "synonym",
}


def _nonce_vocabulary() -> list[str]:
    """Fixed nonce words: no template words, no 'z' (reserved for
    hallucinated spans), no punctuation that any decoder or normalizer acts on."""
    rng = random.Random(20231123)
    onsets, vowels, codas = "bcdfgklmnprstv", "aeiou", ["", "", "n", "l", "r", "s", "x"]
    words: list[str] = []
    seen: set[str] = set()
    while len(words) < 800:
        syllables = rng.randint(2, 4)
        w = "".join(rng.choice(onsets) + rng.choice(vowels) for _ in range(syllables))
        w += rng.choice(codas)
        if w in seen or w in _TEMPLATE_WORDS:
            continue
        seen.add(w)
        words.append(w.capitalize() if rng.random() < 0.15 else w)
    return words


VOCAB = _nonce_vocabulary()


def norm(text: str) -> str:
    """Scoring text normalization per the scorer's spec."""
    return re.sub(r"\s+", " ", text).strip().lower()


@functools.lru_cache(maxsize=1 << 17)
def key(t: tuple, agnostic: bool) -> tuple:
    """Scoring identity of a (s, s_type, p, o, o_type) triple."""
    s, st, p, o, ot = t
    return (norm(s), p, norm(o)) if agnostic else (norm(s), st, p, norm(o), ot)


def jaccard(a: str, b: str) -> float:
    ta, tb = set(a.split()), set(b.split())
    return len(ta & tb) / len(ta | tb) if ta | tb else 1.0


# --- documents ---------------------------------------------------------------


@dataclass
class Entity:
    id: str
    etype: str
    frags: tuple  # clean fragments, ordered
    surface: str
    shape: str


@dataclass
class Doc:
    doc_id: str
    text: str
    entities: list
    relations: list  # (rid, predicate, subject id, object id)
    ann_written: str = ""
    ann_clean: str = ""
    defects: list = field(default_factory=list)  # (rule, target id)
    coord_pairs: list = field(default_factory=list)  # (E1 id, E2 id, merged text)
    gold: list = field(default_factory=list)  # encode-ordered distinct triples

    def entity(self, eid: str) -> Entity:
        return next(e for e in self.entities if e.id == eid)


REGION_ENTITIES = {"flat": 1, "nested": 2, "crossing": 2, "coord": 2, "disc": 1}


def _build_doc(rng, doc_id, n_target, weights, min_words, max_words, line_sep, break_rate):
    words: list[str] = []
    specs: list[tuple] = []  # (shape, [(wi, wj), ...], type)
    coord = []  # (index of E1 spec, index of E2 spec)
    breaks: set[int] = set()  # word indices followed by a line break
    kinds, probs = zip(*weights.items())

    def filler(k):
        words.extend(rng.choice(VOCAB) for _ in range(k))

    n_entities = 0
    filler(rng.randint(0, 2))
    while n_entities < n_target:
        kind = rng.choices(kinds, probs)[0]
        r = len(words)
        t = rng.choice(ENTITY_TYPES)
        if kind == "flat":
            k = rng.randint(1, 3)
            filler(k)
            specs.append(("flat", [(r, r + k)], t))
        elif kind == "nested":
            filler(3)
            inner = rng.choice([(r, r + 1), (r + 1, r + 2), (r + 2, r + 3), (r, r + 2)])
            specs.append(("overlapped", [(r, r + 3)], t))
            specs.append(("nested", [inner], rng.choice(ENTITY_TYPES)))
        elif kind == "crossing":
            filler(3)
            specs.append(("overlapped", [(r, r + 2)], t))
            specs.append(("overlapped", [(r + 1, r + 3)], rng.choice(ENTITY_TYPES)))
        elif kind == "coord":
            # "H A and B": E1 = "H A" (inside E2's covering span), E2 = "H" + "B"
            h, a, b = rng.sample(VOCAB, 3)
            words.extend((h, a, "and", b))
            coord.append((len(specs), len(specs) + 1))
            specs.append(("nested", [(r, r + 2)], t))
            specs.append(("discontinuous", [(r, r + 1), (r + 3, r + 4)], t))
        else:
            filler(3)
            specs.append(("discontinuous", [(r, r + 1), (r + 2, r + 3)], t))
        n_entities += REGION_ENTITIES[kind]
        if rng.random() < break_rate:
            breaks.add(len(words) - 1)
        filler(rng.randint(0, 2))
    if len(words) < min_words:
        filler(rng.randint(min_words, max_words) - len(words))

    starts, pieces, pos = [], [], 0
    for i, w in enumerate(words):
        starts.append(pos)
        sep = line_sep if i in breaks else " "
        pieces.append(w if i == len(words) - 1 else w + sep)
        pos += len(pieces[-1])
    text = "".join(pieces)

    def char_span(wi, wj):
        return (starts[wi], starts[wj - 1] + len(words[wj - 1]))

    entities = []
    for n, (shape, ranges, t) in enumerate(specs):
        frags = tuple(char_span(i, j) for i, j in ranges)
        surface = " ".join(text[s:e] for s, e in frags)
        entities.append(Entity(f"T{n + 1}", t, frags, surface, shape))
    doc = Doc(doc_id, text, entities, [])
    for a, b in coord:
        h, tail = entities[b].surface.split(" ", 1)
        doc.coord_pairs.append((entities[a].id, entities[b].id, f"{entities[a].surface} and {tail}"))
    return doc


def _add_relations(rng, doc: Doc, n_random: int, coord_rate: float):
    ents = doc.entities
    seen = set()
    rels = []

    def add(pred, s, o):
        if (s, pred, o) not in seen and s != o:
            seen.add((s, pred, o))
            rels.append((f"R{len(rels) + 1}", pred, s, o))

    for e1, e2, _ in doc.coord_pairs:
        others = [e.id for e in ents if e.id not in (e1, e2)]
        if others and rng.random() < coord_rate:
            s = rng.choice(others)
            p = rng.choice(PREDICATES[:5])
            add(p, s, e1)
            add(p, s, e2)
    if len(ents) >= 2:
        for _ in range(n_random):
            si, oi = rng.sample(range(len(ents)), 2)
            p = rng.choice(PREDICATES)
            if p == "anaphora" and ents[oi].etype != "anaphor":
                p = rng.choice(PREDICATES[:5])
            add(p, ents[si].id, ents[oi].id)
    doc.relations = rels


def _ann(entities, relations) -> str:
    lines = [
        f"{e.id}\t{TYPE_LABEL[e.etype]} {';'.join(f'{s} {t}' for s, t in e.frags)}\t{e.surface}"
        for e in entities
    ] + [f"{rid}\t{PRED_LABEL[p]} Arg1:{s} Arg2:{o}" for rid, p, s, o in relations]
    return "".join(line + "\n" for line in lines)


def _inject_defects(rng, doc: Doc, rates: dict):
    """Write the .ann with defects at fixed rates; remember each one."""
    text = doc.text
    written = []
    for e in doc.entities:
        frags = e.frags
        ls, le = frags[-1]
        if len(frags) > 1 and rng.random() < rates["fragment_order"]:
            frags = tuple(reversed(frags))
            doc.defects.append(("fragment_order", e.id))
        elif le - ls >= 3 and text[le - 2].isalnum() and rng.random() < rates["span"]:
            frags = (*frags[:-1], (ls, le - 1))
            doc.defects.append(("span_boundary", e.id))
        surface = " ".join(text[s:t] for s, t in frags)
        written.append(Entity(e.id, e.etype, frags, surface, e.shape))
    ids = {e.id for e in doc.entities}
    rels = []
    for rid, p, s, o in doc.relations:
        if o + "0" not in ids and rng.random() < rates["relation_argument"]:
            rels.append((rid, p, s, o + "0"))
            doc.defects.append(("relation_argument", rid))
        else:
            rels.append((rid, p, s, o))
    doc.ann_written = _ann(written, rels)
    doc.ann_clean = _ann(doc.entities, doc.relations)


def _gold(doc: Doc) -> list:
    """Triples in entity-occurrence order, duplicates collapsed (encode spec)."""
    keyed = []
    for _, p, s, o in doc.relations:
        se, oe = doc.entity(s), doc.entity(o)
        t = (se.surface, se.etype, p, oe.surface, oe.etype)
        keyed.append(((se.frags[0][0], oe.frags[0][0], PRED_TOKEN[p]), t))
    keyed.sort(key=lambda kt: kt[0])
    out, seen = [], set()
    for _, t in keyed:
        if key(t, False) not in seen:
            seen.add(key(t, False))
            out.append(t)
    return out


# --- target rendering --------------------------------------------------------


def render(units: list, kind: str, close: bool = True) -> str:
    """Render triples in a target schema; close=False leaves seq2rel unterminated."""
    if kind == "seq2rel":
        if not units:
            return "@NOREL@" if close else ""
        body = " ".join(
            f"{s} {TYPE_TOKEN[st]} {o} {TYPE_TOKEN[ot]} {PRED_TOKEN[p]}" for s, st, p, o, ot in units
        )
        return body + (" @END@" if close else "")
    if kind == "rel_is":
        return " ".join(f"The relation between {s} and {o} is {NOUN[p]}." for s, _, p, o, _ in units)
    return ". ".join(
        NL_TEMPLATE[p].format(s1=s, t1=st.replace("_", " "), s2=o, t2=ot.replace("_", " "))
        for s, st, p, o, ot in units
    )


def loop_units(units: list, kind: str, words: int) -> str:
    """Units rendered over and over, unterminated, to about `words` words:
    what a model that loops until its maximum generation length emits."""
    piece = render(units, kind, close=False)
    reps = max(1, words // len(piece.split()))
    return (". " if kind == "natural_lang" else " ").join([piece] * reps)


# --- model outputs -----------------------------------------------------------


@dataclass
class Expected:
    """What decode/score/errors must produce for one document and schema."""

    decoded: frozenset  # scoring keys of the decoded triples
    tp: Counter  # per predicate
    fp: Counter
    fn: Counter
    categories: Counter


def _pair_kind(f: tuple, n: tuple, agnostic: bool) -> str | None:
    """How the error categorizer could pair a false positive with a false negative."""
    if f[2] != n[2]:
        return None
    if norm(f[0]) == norm(n[0]) and norm(f[3]) == norm(n[3]):
        return "same_text"
    if (agnostic or (f[1], f[4]) == (n[1], n[4])) and min(
        jaccard(norm(f[0]), norm(n[0])), jaccard(norm(f[3]), norm(n[3]))
    ) >= 0.5:
        return "overlap"
    return None


_PAIRING = {"swap": "same_text", "partial": "overlap", "merge": "overlap"}


def _targets(intent: tuple, agnostic: bool) -> set:
    kind, target = intent
    if kind == "merge":
        return {key(t, agnostic) for t in target}
    return {key(target, agnostic)} if target else set()


def _trial_ok(gold: list, units: list, intents: dict, changed: set, agnostic: bool) -> bool:
    """True when every FP/FN pair involving a changed key pairs only as planned.

    A perturbation is kept only if the error-pairing rules can pair it with
    its own gold triple(s) and nothing else, so its category follows from
    the plan rather than from re-running the categorizer.
    """
    g = {key(t, agnostic): t for t in gold}
    p = {key(t, agnostic): t for t in units}
    fps, fns = p.keys() - g.keys(), g.keys() - p.keys()
    for fk in fps:
        intent = intents[fk]
        targets = _targets(intent, agnostic)
        if not targets <= fns:
            return False
        for nk in fns:
            if fk not in changed and nk not in changed:
                continue
            kind = _pair_kind(p[fk], g[nk], agnostic)
            if (kind is not None) != (nk in targets) or (kind and kind != _PAIRING[intent[0]]):
                return False
    return True


def _outcome(gold: list, units: list, intents: dict, agnostic: bool) -> "Expected":
    """Expected decode keys, TP/FP/FN per predicate and error categories."""
    g = {key(t, agnostic): t for t in gold}
    p = {key(t, agnostic): t for t in units}
    fps, fns = p.keys() - g.keys(), g.keys() - p.keys()
    cats: Counter = Counter()
    paired = 0
    for fk in fps:
        kind = intents[fk][0]
        cats[{"swap": "type_mismatch", "partial": "partial_match",
              "merge": "discontinuous_merge", "halluc": "hallucinated_span"}[kind]] += 1
        paired += kind != "halluc"
    if len(fns) > paired:
        cats["missing"] = len(fns) - paired
    per = lambda keys, src: Counter(src[k][2] for k in keys)
    return Expected(frozenset(p), per(g.keys() & p.keys(), g), per(fps, p), per(fns, g), cats)


def _plan_outputs(rng, doc: Doc, rates: dict) -> tuple[list, dict]:
    """Predicted units for this document with seeded perturbations."""
    gold = doc.gold
    merges = {}
    for e1, e2, merged in doc.coord_pairs:
        a, b = doc.entity(e1), doc.entity(e2)
        for t in gold:
            if t[3] != a.surface or t[4] != a.etype:
                continue
            partner = next((u for u in gold if u[:3] == t[:3] and u[3] == b.surface and u[4] == b.etype), None)
            if partner is not None:
                merges[t] = (partner, merged)
    units = list(gold)
    intents: dict = {}
    for t in gold:
        if t not in units or rng.random() >= rates["perturb"]:
            continue
        action = rng.choice(("drop", "swap", "partial", "halluc", "merge"))
        trial = list(units)
        i = trial.index(t)
        s, st, p, o, ot = t
        removed = [t]
        if action == "drop":
            new = None
            del trial[i]
        elif action == "swap":
            new = (s, rng.choice([x for x in ENTITY_TYPES if x != st]), p, o, ot)
            trial[i] = new
        elif action == "partial":
            words = o.split()
            new = (s, st, p, " ".join(words[:-1]) if len(words) > 1 else f"{o} {rng.choice(VOCAB)}", ot)
            trial[i] = new
        elif action == "halluc":
            new = (s, st, p, "zq" + rng.choice(VOCAB).lower(), ot)
            trial.insert(i + 1, new)
            removed = []
        else:
            if t not in merges or merges[t][0] not in trial:
                continue
            partner, merged = merges[t]
            new = (s, st, p, merged, ot)
            trial[i] = new
            trial.remove(partner)
            removed = [t, partner]
        if len({key(u, False) for u in trial}) != len(trial):
            continue
        trial_intents = dict(intents)
        if new is not None:
            target = tuple(removed) if action == "merge" else (t if action in ("swap", "partial") else None)
            for ag in (False, True):
                trial_intents[key(new, ag)] = (action, target)
        if all(
            _trial_ok(gold, trial, trial_intents,
                      {key(u, ag) for u in removed + ([new] if new else [])}, ag)
            for ag in (False, True)
        ):
            units, intents = trial, trial_intents
    return units, intents


# --- workloads ---------------------------------------------------------------

# Defect rates. span (per entity whose last fragment can lose a character) and
# relation_argument (per relation) follow the repair rates the README gives for
# the released corpus: span fixes under 1% of entities, relation-argument fixes
# 0.08-0.10 of relations. fragment_order (per discontinuous entity) has no
# published figure and is an assumption. sizes() reports the realised rates.
DEFECTS = {"span": 0.008, "fragment_order": 0.3, "relation_argument": 0.09}

# Model-output shares (perturbed units, looping and degenerate documents) and
# generation lengths are assumptions too: no published figure exists for them.
WORKLOADS = {
    "raredis-like": dict(
        docs=250, entities=(0, 6), words=(8, 40), relations=(0, 4), multiline=0.1, probe_crlf=40,
        regions={"flat": 0.62, "nested": 0.06, "crossing": 0.06, "disc": 0.13, "coord": 0.13},
        defects=DEFECTS,
        outputs={"perturb": 0.05, "loop": 0.0, "degenerate": 0.0},
        corpus_side=True,
    ),
    "dense": dict(
        docs=25, entities=(100, 120), words=(8, 40), relations=(50, 60), multiline=0.0, probe_crlf=0,
        regions={"flat": 0.3, "nested": 0.2, "crossing": 0.2, "disc": 0.15, "coord": 0.15},
        defects=DEFECTS,
        outputs={"perturb": 0.3, "loop": 0.0, "degenerate": 0.0},
        corpus_side=True,
    ),
    "model-output": dict(
        docs=240, entities=(2, 6), words=(8, 40), relations=(2, 4), multiline=0.0, probe_crlf=0,
        regions={"flat": 0.62, "nested": 0.06, "crossing": 0.06, "disc": 0.13, "coord": 0.13},
        defects={k: 0.0 for k in DEFECTS},
        outputs={"perturb": 0.5, "loop": 0.1, "degenerate": 0.05, "loop_words": 400,
                 "degenerate_words": 250},
        corpus_side=False,
    ),
}


@dataclass
class Workload:
    name: str
    seed: int
    spec: dict
    docs: list  # Doc, in doc_id order
    probe: list  # CRLF documents kept out of the corpus directory
    generations: dict  # kind -> doc_id -> generation text
    expected: dict  # kind -> doc_id -> Expected
    shapes: Counter

    @property
    def gold_by_doc(self) -> dict:
        return {d.doc_id: d.gold for d in self.docs}

    def sizes(self) -> dict:
        entities = [e for d in self.docs for e in d.entities]
        relations = sum(len(d.relations) for d in self.docs)
        defects = Counter(rule for d in self.docs for rule, _ in d.defects)
        return {
            "docs": len(self.docs),
            "entities": len(entities),
            "relations": relations,
            "defect_rates": {
                "span_boundary_per_entity": defects["span_boundary"] / max(1, len(entities)),
                "relation_argument_per_relation": defects["relation_argument"] / max(1, relations),
                "fragment_order_per_discontinuous": defects["fragment_order"]
                / max(1, sum(len(e.frags) > 1 for e in entities)),
            },
            "gold_triples": sum(len(d.gold) for d in self.docs),
            "generation_chars": sum(len(g) for gens in self.generations.values() for g in gens.values()),
            "crlf_probe_docs": len(self.probe),
        }


def make_doc(rng, doc_id, spec, n_entities=None, line_sep="\n", break_rate=0.0) -> Doc:
    lo, hi = spec["entities"]
    n = rng.randint(lo, hi) if n_entities is None else n_entities
    doc = _build_doc(rng, doc_id, n, spec["regions"], *spec["words"], line_sep, break_rate)
    _add_relations(rng, doc, rng.randint(*spec["relations"]), coord_rate=0.6)
    _inject_defects(rng, doc, spec["defects"])
    doc.gold = _gold(doc)
    return doc


def generate(name: str, seed: int, scale: float = 1.0) -> Workload:
    """Build a workload from its seed. scale shrinks document counts (for tests)."""
    spec = WORKLOADS[name]
    rng = random.Random(f"{name}:{seed}")
    n_docs = max(3, int(spec["docs"] * scale))
    docs = [
        make_doc(rng, f"doc{i:05d}", spec, break_rate=0.5 if rng.random() < spec["multiline"] else 0.0)
        for i in range(n_docs)
    ]
    probe = []
    for i in range(max(1, int(spec["probe_crlf"] * scale)) if spec["probe_crlf"] else 0):
        probe_spec = dict(spec, defects={k: 0.0 for k in spec["defects"]}, words=(30, 40))
        probe.append(make_doc(rng, f"crlf{i:04d}", probe_spec, n_entities=4, line_sep="\r\n", break_rate=1.0))
    out = spec["outputs"]
    # exact shares, so the slow degenerate documents always fill the tail
    order = rng.sample(range(n_docs), n_docs)
    n_degenerate = round(out["degenerate"] * n_docs)
    degenerate = {docs[i].doc_id for i in order[:n_degenerate]}
    looping = [docs[i].doc_id for i in order[n_degenerate:] if docs[i].gold]
    looping = set(looping[:round(out["loop"] * n_docs)])
    generations = {k: {} for k in KINDS}
    expected = {k: {} for k in KINDS}
    for doc in docs:
        if doc.doc_id in degenerate:
            text = " ".join(rng.choice(VOCAB) for _ in range(out["degenerate_words"]))
            for k in KINDS:
                generations[k][doc.doc_id] = text
                expected[k][doc.doc_id] = _outcome(doc.gold, [], {}, AGNOSTIC[k])
            continue
        if doc.doc_id in looping:
            for k in KINDS:
                generations[k][doc.doc_id] = loop_units(doc.gold, k, out["loop_words"])
                expected[k][doc.doc_id] = _outcome(doc.gold, doc.gold, {}, AGNOSTIC[k])
            continue
        units, intents = _plan_outputs(rng, doc, out)
        for k in KINDS:
            generations[k][doc.doc_id] = render(units, k)
            expected[k][doc.doc_id] = _outcome(doc.gold, units, intents, AGNOSTIC[k])
    shapes = Counter(e.shape for d in docs for e in d.entities)
    return Workload(name, seed, spec, docs, probe, generations, expected, shapes)


# --- files -------------------------------------------------------------------


def _write(path: Path, content: str) -> None:
    # newline="" keeps CRLF documents byte-exact
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(content)


def write_gold_tsv(gold_by_doc: dict, path: Path) -> None:
    lines = [
        "\t".join((doc_id, s, st, p, o, ot))
        for doc_id in sorted(gold_by_doc)
        for s, st, p, o, ot in gold_by_doc[doc_id]
    ]
    _write(path, "".join(line + "\n" for line in lines))


def write_workload(w: Workload, root: Path) -> dict:
    """Write every input file under root; return the paths the run uses."""
    paths = {"corpus": root / "corpus", "probe": root / "probe", "gold": root / "gold.tsv", "gens": root / "gens"}
    for sub in ("corpus", "probe"):
        paths[sub].mkdir(parents=True)
    for doc in w.docs:
        # model-output needs only clean texts (for hallucination checks)
        ann = doc.ann_written if w.spec["corpus_side"] else doc.ann_clean
        _write(paths["corpus"] / f"{doc.doc_id}.txt", doc.text)
        _write(paths["corpus"] / f"{doc.doc_id}.ann", ann)
    for doc in w.probe:
        _write(paths["probe"] / f"{doc.doc_id}.txt", doc.text)
        _write(paths["probe"] / f"{doc.doc_id}.ann", doc.ann_clean)
    write_gold_tsv(w.gold_by_doc, paths["gold"])
    for kind, gens in w.generations.items():
        d = paths["gens"] / kind
        d.mkdir(parents=True)
        for doc_id, text in gens.items():
            _write(d / f"{doc_id}.txt", text)
    return paths


def digest_tree(root: Path) -> dict:
    """sha256 of every file under root, keyed by relative path."""
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def fingerprint(w: Workload) -> str:
    """One digest over everything the generator produced (for determinism tests)."""
    h = hashlib.sha256()
    for doc in w.docs + w.probe:
        h.update(json.dumps([doc.doc_id, doc.text, doc.ann_written, doc.ann_clean, doc.gold]).encode())
    for kind in KINDS:
        for doc_id in sorted(w.generations[kind]):
            e = w.expected[kind][doc_id]
            h.update(json.dumps([kind, doc_id, w.generations[kind][doc_id], sorted(e.categories.items())]).encode())
    return h.hexdigest()
