"""Compare what the toolkit produced with what the generator says it must.

Every check returns a list of mismatch descriptions; an empty list is a pass.
File outputs are read back with small parsers of the documented formats, so
the checks do not depend on the toolkit's own readers.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path

import workloads as W


def _entity_rows(doc) -> list:
    return [(e.id, e.entity_type, tuple(e.fragments), e.surface_text) for e in doc.entities]


def _clean_rows(d: W.Doc) -> tuple[list, list]:
    return (
        [(e.id, e.etype, e.frags, e.surface) for e in d.entities],
        [(rid, p, s, o) for rid, p, s, o in d.relations],
    )


def check_repair(d: W.Doc, fixed, log) -> list[str]:
    bad = []
    ents, rels = _clean_rows(d)
    if fixed.text != d.text:
        bad.append(f"{d.doc_id}: repair changed the document text")
    if _entity_rows(fixed) != ents:
        bad.append(f"{d.doc_id}: repaired entities differ from the clean annotation")
    if [(r.id, r.predicate, r.subject_ref, r.object_ref) for r in fixed.relations] != rels:
        bad.append(f"{d.doc_id}: repaired relations differ from the clean annotation")
    if Counter((e.rule, e.target_id) for e in log.entries) != Counter(d.defects):
        bad.append(f"{d.doc_id}: repair log does not list exactly the injected defects")
    return bad


def check_flatten(d: W.Doc, flat_text: str, flat_entities: list, pairs: list) -> list[str]:
    """flat_entities: (id, fragments); pairs: ((rw_start, rw_end), original or None)."""
    surfaces = {e.id: e.surface for e in d.entities}
    bad = []
    for eid, frags in flat_entities:
        if len(frags) != 1 or flat_text[frags[0][0]:frags[0][1]] != surfaces.get(eid):
            bad.append(f"{d.doc_id}: flattened {eid} does not render its surface text")
            break
    pos = 0
    for (rs, re_), orig in pairs:
        if rs != pos or (orig is not None and flat_text[rs:re_] != d.text[orig[0]:orig[1]]):
            bad.append(f"{d.doc_id}: offset map entry {rs}-{re_} does not map back")
            break
        pos = re_
    if pos != len(flat_text):
        bad.append(f"{d.doc_id}: offset map does not cover the flattened text")
    return bad


def check_decode(doc_id: str, kind: str, triples: list, exp: W.Expected) -> list[str]:
    got = {
        W.key((t.subject_text, t.subject_type, t.predicate, t.object_text, t.object_type), W.AGNOSTIC[kind])
        for t in triples
    }
    return [] if got == exp.decoded else [f"{doc_id}: {kind} decode gave {len(got)} triples, expected {len(exp.decoded)}"]


def check_counts(doc_id: str, kind: str, per_predicate: dict, exp: W.Expected) -> list[str]:
    for p in W.PREDICATES:
        row = per_predicate[p]
        if (row["tp"], row["fp"], row["fn"]) != (exp.tp[p], exp.fp[p], exp.fn[p]):
            return [f"{doc_id}: {kind} score for {p} is {row}, expected "
                    f"tp={exp.tp[p]} fp={exp.fp[p]} fn={exp.fn[p]}"]
    return []


def check_categories(doc_id: str, kind: str, categories: Counter, exp: W.Expected) -> list[str]:
    if categories == exp.categories:
        return []
    return [f"{doc_id}: {kind} error categories {dict(categories)}, expected {dict(exp.categories)}"]


def check_chain(w: W.Workload, d: W.Doc, out: dict) -> list[str]:
    """Check one document's library-chain outputs."""
    bad = []
    if "fixed" in out:
        bad += check_repair(d, out["fixed"], out["log"])
        flat = out["flat"]
        bad += check_flatten(
            d, flat.text, [(e.id, e.fragments) for e in flat.entities], list(out["omap"].pairs)
        )
    for kind in W.KINDS:
        exp = w.expected[kind][d.doc_id]
        if "encoded" in out and out["encoded"][kind] != W.render(d.gold, kind):
            bad.append(f"{d.doc_id}: {kind} encoding differs from the reference")
        bad += check_decode(d.doc_id, kind, out["decoded"][kind], exp)
        rows = {
            p: {"tp": r.tp, "fp": r.fp, "fn": r.fn}
            for p, r in out["scored"][kind].per_predicate.items()
        }
        bad += check_counts(d.doc_id, kind, rows, exp)
        bad += check_categories(d.doc_id, kind, Counter(r.category for r in out["errors"][kind]), exp)
    return bad


# --- CLI output files --------------------------------------------------------


def _read(path: Path) -> str:
    with open(path, encoding="utf-8", newline="") as handle:
        return handle.read()


def _lines(path: Path) -> list[str]:
    return [line for line in _read(path).split("\n") if line]


def _parse_ann_entities(ann: str) -> list:
    out = []
    for line in ann.split("\n"):
        if line.startswith("T"):
            eid, mid, _ = line.split("\t")
            offsets = mid.split(" ", 1)[1]
            frags = [tuple(int(x) for x in pair.split()) for pair in offsets.split(";")]
            out.append((eid, frags))
    return out


def _tsv_keys(path: Path, agnostic: bool) -> dict:
    by_doc: dict = {}
    for line in _lines(path):
        doc_id, s, st, p, o, ot = line.split("\t")
        by_doc.setdefault(doc_id, set()).add(W.key((s, st or None, p, o, ot or None), agnostic))
    return by_doc


def check_cli(w: W.Workload, command: str, out: Path) -> list[str]:
    """Check one CLI command's output directory against the references."""
    docs = w.docs
    if command == "repair":
        bad = []
        for d in docs:
            if _read(out / "fixed" / f"{d.doc_id}.txt") != d.text or _read(out / "fixed" / f"{d.doc_id}.ann") != d.ann_clean:
                bad.append(f"repair: {d.doc_id} differs from the clean document")
        logged = Counter(tuple(line.split(" ")[:3]) for line in _lines(out / "repair.log"))
        injected = Counter((d.doc_id, rule, target) for d in docs for rule, target in d.defects)
        if logged != injected:
            bad.append(f"repair: log has {sum(logged.values())} entries, {sum(injected.values())} defects injected")
        return bad
    if command == "split":
        ids = sorted(d.doc_id for d in docs)
        n = len(ids)
        sizes = (int(n * 0.8 + 1e-9), int(n * 0.9 + 1e-9) - int(n * 0.8 + 1e-9))
        parts = [_lines(out / f"{name}.txt") for name in ("train", "dev", "test")]
        bad = []
        if sorted(sum(parts, [])) != ids or (len(parts[0]), len(parts[1])) != sizes:
            bad.append("split: manifests do not partition the corpus at 0.8/0.1/0.1")
        for name, part in zip(("train", "dev", "test"), parts):
            if sorted(p.stem for p in (out / name).glob("*.ann")) != sorted(part):
                bad.append(f"split: {name}/ does not hold exactly its manifest")
        return bad
    if command == "stats":
        got = json.loads(_read(out / "stats.json"))["fixed"]
        want = {
            "documents": len(docs),
            "entities": {t: sum(e.etype == t for d in docs for e in d.entities) for t in W.ENTITY_TYPES},
            "relations": {p: sum(r[1] == p for d in docs for r in d.relations) for p in W.PREDICATES},
            "shapes": {s: w.shapes[s] for s in ("flat", "discontinuous", "overlapped", "nested")},
        }
        return [] if all(got[k] == v for k, v in want.items()) else ["stats: counts differ from the generator's"]
    if command == "flatten":
        bad = []
        for d in docs:
            text = _read(out / f"{d.doc_id}.txt")
            pairs = [
                (tuple(p["rewritten"]), tuple(p["original"]) if p["original"] else None)
                for p in json.loads(_read(out / f"{d.doc_id}.offsets.json"))["pairs"]
            ]
            bad += check_flatten(d, text, _parse_ann_entities(_read(out / f"{d.doc_id}.ann")), pairs)
        return bad
    command, kind = command.split("-", 1)
    agnostic = W.AGNOSTIC[kind]
    if command == "encode":
        rows = [json.loads(line) for line in _lines(out / f"{kind}.jsonl")]
        want = [{"doc_id": d.doc_id, "source": d.text, "target": W.render(d.gold, kind)} for d in docs]
        return [] if rows == want else [f"encode-{kind}: records differ from the reference encodings"]
    if command == "decode":
        got = _tsv_keys(out / f"{kind}.tsv", agnostic)
        return [
            f"decode-{kind}: {d.doc_id} decoded triples differ from the reference" for d in docs
            if got.get(d.doc_id, set()) != w.expected[kind][d.doc_id].decoded
        ]
    if command == "score":
        got = json.loads(_read(out / f"{kind}.json"))["per_predicate"]
        total = W.Expected(frozenset(), Counter(), Counter(), Counter(), Counter())
        for exp in w.expected[kind].values():
            total.tp.update(exp.tp), total.fp.update(exp.fp), total.fn.update(exp.fn)
        return check_counts("corpus", f"score-{kind}", got, total)
    if command == "errors":
        got: dict = {}
        for line in _lines(out / f"{kind}.jsonl"):
            record = json.loads(line)
            got.setdefault(record["doc_id"], Counter())[record["category"]] += 1
        bad = []
        for d in docs:
            bad += check_categories(d.doc_id, f"errors-{kind}", got.get(d.doc_id, Counter()), w.expected[kind][d.doc_id])
        return bad
    raise ValueError(f"unknown command {command}")
