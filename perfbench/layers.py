"""The traced run: spans around every call into the toolkit, per-layer metrics
and scaling ladders.

Spans are recorded from the benchmark's own code around calls into each
module's public functions (name, start, end, parent, request id; the request
id of a chain span is its document id). They are kept in memory and written
to .perfbench_out/ when the run ends. Nothing in this batch tool waits on
anything else, so every layer reports busy time and counts, never wait time.
The triples module gets no span: it runs only inside schema and scoring calls.

Every layer is measured on every workload: where a workload's timed sequence
lacks the corpus-side steps (model-output), the traced run adds repair,
split, stats, flatten and encode over its corpus, so no per-layer metric
reads 0. Repair's fix counts are behaviour, not cost, and are 0 wherever a
defect kind is not injected; they go to the report line, not the metrics.
The metric names and units are those BENCHMARK.json declares.

A *.scale_2x metric is time(2N)/time(N) on a doubling ladder: entities per
document for corpus.stats and flatten, generation length for decode
(period-free text, and gold units looping up to the length), and false
positives and negatives per document for scoring.errors.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import random
import shutil
import statistics
import time
from collections import Counter
from pathlib import Path

import harness as R
import workloads as W

US = 1e-3  # microseconds per nanosecond
KINDS = W.KINDS

DECODE_RUNGS = (400, 800)  # words; period-free natural_lang takes ~0.5 s a call at the top rung
ERRORS_RUNGS = (100, 200)  # false positives (and as many false negatives) per document
LADDER_PAIRS = 5
BATCH_S = 0.02


class Tracer:
    """In-memory spans: (id, name, start_ns, end_ns, parent id, request id)."""

    def __init__(self):
        self.spans: list = []
        self._parent = None
        self._request = None

    def call(self, name, fn, *args):
        t0 = time.perf_counter_ns()
        out = fn(*args)
        self.spans.append((len(self.spans), name, t0, time.perf_counter_ns(), self._parent, self._request))
        return out

    def record(self, name, start_s: float, end_s: float):
        """A span timed by the caller with time.perf_counter()."""
        self.spans.append((len(self.spans), name, int(start_s * 1e9), int(end_s * 1e9), self._parent, self._request))

    @contextlib.contextmanager
    def request(self, request_id: str, name: str = "doc"):
        """A root span; spans recorded inside it name it as parent."""
        idx = len(self.spans)
        self.spans.append(None)
        outer = (self._parent, self._request)
        self._parent, self._request = idx, request_id
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            self.spans[idx] = (idx, name, t0, time.perf_counter_ns(), outer[0], request_id)
            self._parent, self._request = outer

    def busy(self, name: str) -> tuple[float, int]:
        """Total nanoseconds and count of spans with this name."""
        total = count = 0
        for span in self.spans:
            if span[1] == name:
                total += span[3] - span[2]
                count += 1
        return total, count

    def us_per_call(self, name: str) -> float:
        total, count = self.busy(name)
        return total * US / count

    def write(self, path: Path) -> None:
        keys = ("id", "name", "start_ns", "end_ns", "parent", "request")
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")


def _ladder(tr: Tracer, name: str, rungs, build, run) -> float:
    """time(top rung) / time(the rung below), as the median over LADDER_PAIRS.

    The two rungs are timed back to back in each pair, so a slow spell of the
    machine lands on both; fast calls are repeated for at least BATCH_S.
    """
    low, high = (build(rung) for rung in rungs)
    ratios = []
    with tr.request(f"{name}@{rungs[0]}-{rungs[1]}", "ladder"):
        for _ in range(LADDER_PAIRS):
            per_call = []
            for arg in (low, high):
                calls, t0 = 0, time.perf_counter()
                while not calls or time.perf_counter() - t0 < BATCH_S:
                    run(arg)
                    calls += 1
                t1 = time.perf_counter()
                tr.record(name, t0, t1)  # one span per batch
                per_call.append((t1 - t0) / calls)
            ratios.append(per_call[1] / per_call[0])
    return statistics.median(ratios)


def _ladders(tr: Tracer, tk, inp: R.Inputs, seed: int) -> dict:
    rng = random.Random(f"ladder:{inp.w.name}:{seed}")
    out = {}
    spec = inp.w.spec
    top = spec["entities"][1]
    n_docs = max(20, 4000 // top)

    def corpus(n_entities):
        docs = [W.make_doc(rng, f"ladder{i}", spec, n_entities=n_entities) for i in range(n_docs)]
        return [tk.parse_document(d.text, d.ann_clean, d.doc_id) for d in docs]

    rungs = (top // 2, top)
    out["corpus.stats.scale_2x"] = _ladder(tr, "ladder.corpus.stats", rungs, corpus, tk.corpus_statistics)
    out["flatten.scale_2x"] = _ladder(
        tr, "ladder.flatten", rungs, corpus, lambda docs: [tk.flatten_document(d) for d in docs]
    )

    def period_free(words):
        return " ".join(rng.choice(W.VOCAB) for _ in range(words))

    units = [t for d in inp.w.docs for t in d.gold][:12]
    for kind in KINDS:
        def looping(words, kind=kind):
            return W.loop_units(units, kind, words)

        decode = lambda text, kind=kind: tk.decode_target_report(text, kind)
        out[f"schema.decode.{kind}.scale_2x"] = _ladder(tr, f"ladder.decode.{kind}", DECODE_RUNGS, period_free, decode)
        out[f"schema.decode.{kind}.loop_scale_2x"] = _ladder(
            tr, f"ladder.decode_loop.{kind}", DECODE_RUNGS, looping, decode
        )

    def fp_fn(n):
        words = rng.sample(W.VOCAB, 2 * n + 1)
        gold = [tk.Triple(words[i], "disease", "produces", words[n + i], "sign") for i in range(n)]
        pred = [tk.Triple(g.subject_text, "disease", "produces", f"{g.object_text} {words[-1]}", "sign") for g in gold]
        return gold, pred

    out["scoring.errors.scale_2x"] = _ladder(
        tr, "ladder.scoring.errors", ERRORS_RUNGS, fp_fn, lambda gp: tk.categorize_errors(gp[0], gp[1])
    )
    return out


def _repair_counts(w: W.Workload, logs: list, probe_logs: list) -> dict:
    counts = Counter()
    matched = 0
    injected = {(d.doc_id, rule, target) for d in w.docs for rule, target in d.defects}
    for log in logs + probe_logs:
        for e in log.entries:
            name = e.rule
            if e.rule == "span_boundary":
                moved = e.before.split("|")[0] != e.after.split("|")[0]
                name = "span_nudge" if moved else "span_fallback"
            counts[name] += 1
            matched += (log.doc_id, e.rule, e.target_id) in injected
    out = {k: counts[k] for k in ("relation_argument", "span_nudge", "span_fallback", "fragment_order")}
    out["injected"] = len(injected)
    out["matched_injected"] = matched
    return out


def declared() -> dict:
    """name -> unit of every per-layer metric, as BENCHMARK.json declares them."""
    spec = json.loads((R.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def traced_run(args, cli, tk, inp: R.Inputs, work: Path, report: dict, probe: dict | None):
    """One traced pass over the CLI pipeline, chain passes, layer probes and ladders."""
    scoring = importlib.import_module("raredis_toolkit.scoring")
    tr = Tracer()
    w = inp.w
    units = declared()
    metrics = {}
    chain_deadline = time.perf_counter() + args.seconds / 2

    rep = work / "rep0"
    with tr.request("pipeline", "pipeline"):
        _, per_command, errors = R.run_pipeline(cli, inp, rep, args.seed, True, span=tr.record)
    _, bad_commands, messages = R.check_pipeline(w, rep, None)
    shutil.rmtree(rep)
    attempted = len(per_command)
    failed = len(bad_commands | {e.split(":")[0] for e in errors})
    messages = errors + messages
    for name in units:
        if name.startswith("cli."):
            metrics[name] = tr.busy(name[:-2])[0] * 1e-9

    untraced, traced, first = [], [], None
    while len(traced) < 2 or time.perf_counter() < chain_deadline:
        for call, around, totals in ((R.direct, None, untraced), (tr.call, tr.request, traced)):
            times, n_failed, bad, outputs = R.chain_pass(call, tk, inp, around, corpus_side=True)
            totals.append(sum(t for _, t in times))
            attempted += len(w.docs)
            failed += n_failed
            messages += bad
            if around and first is None:
                first = outputs
    passes = len(traced)
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(untraced)

    n_docs = max(1, len(first))
    gen_chars = {k: sum(len(w.generations[k][d.doc_id]) for d in w.docs) for k in KINDS}
    for k in KINDS:
        total, _ = tr.busy(f"schema.decode.{k}")
        metrics[f"schema.decode.{k}.us_per_kchar"] = total * US / (passes * gen_chars[k] / 1000)
        triples = sum(len(o["decoded"][k]) for o in first)
        skipped = sum(o["skipped"][k] for o in first)
        metrics[f"schema.decode.{k}.yield"] = triples / (skipped + triples)
        metrics[f"schema.encode.{k}.us_per_doc"] = tr.us_per_call(f"schema.encode.{k}")
    metrics["schema.normalize.us_per_kchar"] = tr.busy("schema.normalize")[0] * US / (passes * sum(gen_chars.values()) / 1000)
    scored_triples = sum(
        len(inp.gold[o["doc_id"]]) + len(o["decoded"][k]) for o in first for k in KINDS
    )
    metrics["scoring.score.us_per_triple"] = tr.busy("scoring.score")[0] * US / max(1, passes * scored_triples)
    metrics["scoring.errors.us_per_doc"] = tr.us_per_call("scoring.errors")
    metrics["scoring.errors.records_per_doc"] = sum(len(o["errors"][k]) for o in first for k in KINDS) / (3 * n_docs)

    # layer probes: each public function once more, on this workload's data
    tsv = work / "probe-tsv"
    tsv.mkdir()
    gold_lines = tr.call("scoring.read_tsv", scoring.read_triples_file, inp.paths["gold"])
    metrics["scoring.read_tsv.us_per_line"] = tr.us_per_call("scoring.read_tsv") / max(1, sum(map(len, gold_lines.values())))
    written = 0
    for k in KINDS:
        pred = {o["doc_id"]: o["decoded"][k] for o in first}
        tr.call("scoring.write_tsv", scoring.write_triples_file, pred, tsv / f"{k}.tsv")
        written += sum(map(len, pred.values()))
    metrics["scoring.write_tsv.us_per_line"] = tr.busy("scoring.write_tsv")[0] * US / max(1, written)

    fixed = [o["fixed"] for o in first]
    for d in w.docs:
        tr.call("standoff.parse", tk.parse_document, d.text, d.ann_written, d.doc_id)
    for doc in fixed:
        tr.call("standoff.serialize", tk.serialize_document, doc)
    tr.call("standoff.load_dir", tk.load_corpus_dir, inp.paths["corpus"])
    tr.call("standoff.write_dir", tk.write_corpus_dir, fixed, work / "probe-write")
    tr.call("corpus.stats", tk.corpus_statistics, fixed)
    spec = tk.SplitSpec(mode="ratio", ratios=(0.8, 0.1, 0.1), seed=args.seed)
    tr.call("corpus.split", tk.split_corpus, fixed, spec)
    for o in first:
        for (start, end), _ in o["omap"].pairs:
            tr.call("flatten.to_original", o["omap"].to_original, start, end)
    n_entities = sum(len(d.entities) for d in fixed)
    metrics.update({
        "standoff.parse.us_per_doc": tr.us_per_call("standoff.parse"),
        "standoff.serialize.us_per_doc": tr.us_per_call("standoff.serialize"),
        "standoff.read_pair.us_per_doc": tr.us_per_call("standoff.read_pair"),
        "standoff.load_dir.s": tr.busy("standoff.load_dir")[0] * 1e-9,
        "standoff.write_dir.s": tr.busy("standoff.write_dir")[0] * 1e-9,
        "repair.us_per_doc": tr.us_per_call("repair"),
        "corpus.stats.us_per_entity": tr.busy("corpus.stats")[0] * US / max(1, n_entities),
        "corpus.split.ms": tr.busy("corpus.split")[0] * 1e-6,
        "flatten.us_per_doc": tr.us_per_call("flatten"),
        "flatten.offset_pairs_per_doc": sum(len(o["omap"].pairs) for o in first) / n_docs,
        "flatten.to_original.us_per_call": tr.us_per_call("flatten.to_original"),
    })
    report["repair"] = _repair_counts(w, [o["log"] for o in first], probe["logs"] if probe else [])
    if probe:
        report["repair"]["crlf_defect_ratio"] = probe["defects"] / probe["docs"]

    metrics.update(_ladders(tr, tk, inp, args.seed))

    spans_path = R.out_path(f"spans-{w.name}-seed{args.seed}.jsonl")
    tr.write(spans_path)
    report.update(
        spans_file=str(spans_path.relative_to(R.ROOT)),
        spans=len(tr.spans),
        chain_passes=passes,
        failures=messages[:10],
    )
    return {name: (metrics[name], unit) for name, unit in units.items()}, attempted, failed
