"""raredis-toolkit benchmark: setup, the measured closed loop and the result.

Set-up generates the workload from the seed, writes it under .perfbench_work/
and imports the toolkit from src/; it runs seven times, once before the
measurement and six times between its repetitions, spread evenly over the
run, and setup_s is the median. One client then runs a closed loop in this
single process, each operation starting after the previous one ends: a
repetition of the CLI subcommand sequence (run in-process through run_cli),
then passes of the per-document library chain for as long, until --seconds
have passed.
Two more, untimed repetitions of the CLI sequence run under tracemalloc for
peak_heap_mb: the largest Python heap any one command allocates, so it
counts the toolkit's working set and none of the benchmark's own data.

Times are reported in reference-speed seconds. The shared host runs the same
code up to 1.8 times more slowly for spells of seconds to minutes, some
longer than a run, so no statistic over one run's raw times removes them. A
fixed calibration unit that calls nothing in the toolkit is therefore timed
right before every CLI command, chain pass and set-up, and each of those
times is multiplied by CAL_REF_S / (the median of the unit times taken with
it). A
change to the toolkit moves a reported time by as much as it moves the wall
time; a slow spell of the host moves it far less. The wall-clock figures
are in the report line beside them.

Every output is checked against the generator's reference; a mismatch or an
exception is a failed operation.

--trace 0 prints the end-to-end metrics, measured with tracing off. --trace 1
prints the per-layer metrics of layers.py. The last stdout line is the result
object; the line before it is a report with the environment, sizes, failure
details and the digest of every CLI output file. Both are also written to
.perfbench_out/.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

import checks as C
import workloads as W

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPS = 7
MIN_REPS = 3  # fewest CLI repetitions and chain passes per measured run
HEAP_REPS = 2  # CLI repetitions under tracemalloc, after the measured ones
# Median seconds of one calibration unit on the reference host, 2 vCPUs of a
# shared x86-64 host under CPython 3.11, in a fast spell. It only sets the
# scale of the reported times and stays fixed, so runs on any code compare.
CAL_REF_S = 0.0013
_CAL_WORDS = [f"w{i}" for i in range(300)]
_CAL_TEXT = " ".join(_CAL_WORDS[(i * 7919) % 300] for i in range(400))
_CAL_TABLE = [str(i) * 3 for i in range(200_000)]  # larger than the caches


class _Token:
    __slots__ = ("kind", "start", "end", "text")

    def __init__(self, kind, start, end, text):
        self.kind, self.start, self.end, self.text = kind, start, end, text


def _cal_unit() -> int:
    """Fixed work in three parts of about equal time: arithmetic bytecode,
    small objects, dicts and strings, and scattered reads of a large table.

    A slow spell of the host slows these parts by different amounts, and the
    toolkit's code falls between them, so their sum tracks it better than
    any one part does.
    """
    total = 0
    for i in range(8000):
        total += i * i % 7
    tokens, pos = [], 0
    for word in _CAL_TEXT.split(" "):
        tokens.append(_Token("W" if len(word) > 2 else "S", pos, pos + len(word), word))
        pos += len(word) + 1
    index: dict = {}
    for token in tokens:
        index.setdefault(token.text, []).append(token)
    out = "\n".join(f"{k}\t{len(v)}\t{v[0].start}-{v[-1].end}" for k, v in sorted(index.items()))
    total += len(out.lower().replace("w", "v"))
    n = len(_CAL_TABLE)
    for j in range(5000):
        total += len(_CAL_TABLE[(j * 7919) % n])
    return total


class HostSpeed:
    """Calibration unit times, taken between pieces of measured work."""

    def __init__(self):
        self.samples: list[float] = []

    def sample(self, n: int = 2) -> int:
        """Time n units; returns the index of the first, for factor()."""
        first = len(self.samples)
        gc.disable()  # a collection would scan the toolkit's heap, not measure the host
        try:
            _cal_unit()  # untimed: refills the caches the measured work used
            for _ in range(n):
                t0 = time.perf_counter()
                _cal_unit()
                self.samples.append(time.perf_counter() - t0)
        finally:
            gc.enable()
        return first

    def factor(self, first: int) -> float:
        """Multiplier from seconds to reference-speed seconds, by the units timed since first."""
        return CAL_REF_S / statistics.median(self.samples[first:])


def import_toolkit():
    """Import the package under test afresh; returns its cli module and facade."""
    for name in [m for m in sys.modules if m.split(".")[0] == "raredis_toolkit"]:
        del sys.modules[name]
    return importlib.import_module("raredis_toolkit.cli"), importlib.import_module("raredis_toolkit")


@dataclass
class Inputs:
    w: W.Workload
    paths: dict
    gold: dict  # doc_id -> [Triple]


def setup(name: str, seed: int, root: Path, scale: float):
    """Generate the workload, write it under root, import the package."""
    t0 = time.perf_counter()
    cli, tk = import_toolkit()
    w = W.generate(name, seed, scale)
    paths = W.write_workload(w, root)
    gold = {d.doc_id: [tk.Triple(*t) for t in d.gold] for d in w.docs}
    return time.perf_counter() - t0, cli, tk, Inputs(w, paths, gold)


# --- the CLI pipeline --------------------------------------------------------


def pipeline_commands(inp: Inputs, rep: Path, seed: int, corpus_side: bool) -> list[tuple[str, list[str]]]:
    """The subcommand sequence; each command writes under rep/<command>/.

    corpus_side adds repair, split, stats, flatten and encode to the
    decode/score/errors commands every workload runs.
    """
    p = {k: str(v) for k, v in inp.paths.items()}
    fixed = str(rep / "repair" / "fixed")
    cmds = []
    if corpus_side:
        cmds += [
            ("repair", ["repair", "--in", p["corpus"], "--out", fixed, "--log", str(rep / "repair" / "repair.log")]),
            ("split", ["split", "--in", fixed, "--out", str(rep / "split"), "--ratios", "0.8,0.1,0.1",
                       "--seed", str(seed)]),
            ("stats", ["stats", "--in", fixed, "--out", str(rep / "stats" / "stats.json")]),
            ("flatten", ["flatten", "--in", fixed, "--out", str(rep / "flatten")]),
        ]
    docs_dir = fixed if corpus_side else p["corpus"]
    for k in W.KINDS:
        agnostic = ["--type-agnostic"] if W.AGNOSTIC[k] else []
        pred = str(rep / f"decode-{k}" / f"{k}.tsv")
        if corpus_side:
            cmds.append((f"encode-{k}", ["encode", "--in", fixed, "--out", str(rep / f"encode-{k}" / f"{k}.jsonl"),
                                         "--schema", k]))
        cmds += [
            (f"decode-{k}", ["decode", "--in", f"{p['gens']}/{k}", "--out", pred, "--schema", k,
                             "--report", str(rep / f"decode-{k}" / "skipped.tsv")]),
            (f"score-{k}", ["score", "--gold", p["gold"], "--pred", pred, "--out",
                            str(rep / f"score-{k}" / f"{k}.json"), *agnostic]),
            (f"errors-{k}", ["errors", "--gold", p["gold"], "--pred", pred, "--audit",
                             str(rep / f"errors-{k}" / f"{k}.jsonl"), "--docs", docs_dir, *agnostic]),
        ]
    return cmds


def run_pipeline(cli, inp: Inputs, rep: Path, seed: int, corpus_side: bool, span=None, heap=None,
                 host: HostSpeed | None = None) -> tuple[float, dict, list]:
    """Run every subcommand in-process; returns (summed seconds, per-command seconds, failures).

    host, if given, times calibration units before each command, outside
    its timing. span, if given, records each
    command's span. heap, if given, receives each command's peak of traced
    memory above what was live when it started, with tracemalloc on; every
    command starts from a collected heap, so neither garbage nor anything an
    earlier command left alive counts against it.
    """
    cmds = pipeline_commands(inp, rep, seed, corpus_side)
    for command, _ in cmds:
        (rep / command).mkdir(parents=True, exist_ok=True)
    seconds, failures = {}, []
    sink = io.StringIO()
    for command, argv in cmds:
        if host is not None:
            host.sample()
        if heap is not None:
            gc.collect()
            tracemalloc.reset_peak()
            live = tracemalloc.get_traced_memory()[0]
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            t0 = time.perf_counter()
            code = cli.run_cli(argv)
            seconds[command] = time.perf_counter() - t0
        if heap is not None:
            heap[command] = tracemalloc.get_traced_memory()[1] - live
        if span is not None:
            span(f"cli.{command.split('-')[0]}", t0, t0 + seconds[command])
        if code != 0:
            failures.append(f"{command}: exit code {code}")
        sink.seek(0)
        sink.truncate()
    return sum(seconds.values()), seconds, failures


def check_pipeline(w: W.Workload, rep: Path, reference_digests: dict | None):
    """Check rep's outputs; returns (digests, failed commands, messages).

    The first repetition is checked against the generator's references; later
    ones must be byte-identical to it.
    """
    digests = W.digest_tree(rep)
    commands = sorted({path.split("/")[0] for path in digests})
    failed, messages = set(), []
    for command in commands:
        if reference_digests is None:
            try:
                bad = C.check_cli(w, command, rep / command)
            except (OSError, ValueError, KeyError) as exc:  # missing or malformed output
                bad = [f"{command}: unreadable output: {type(exc).__name__}: {exc}"]
        else:
            mine = {k: v for k, v in digests.items() if k.split("/")[0] == command}
            theirs = {k: v for k, v in reference_digests.items() if k.split("/")[0] == command}
            bad = [] if mine == theirs else [f"{command}: outputs differ from the first repetition"]
        if bad:
            failed.add(command)
            messages += bad
    return digests, failed, messages


# --- the per-document library chain ------------------------------------------


def direct(_name, fn, *args):
    return fn(*args)


def doc_chain(call, tk, inp: Inputs, d: W.Doc, corpus_side: bool) -> dict:
    """One operation: the library calls a document goes through, in order."""
    out = {"doc_id": d.doc_id, "decoded": {}, "skipped": {}, "scored": {}, "errors": {}}
    text = d.text
    if corpus_side:
        doc = call("standoff.read_pair", tk.read_document_pair, inp.paths["corpus"] / f"{d.doc_id}.txt")
        fixed, log = call("repair", tk.repair_all, doc)
        flat, omap = call("flatten", tk.flatten_document, fixed)
        out.update(fixed=fixed, log=log, flat=flat, omap=omap, encoded={})
        for k in W.KINDS:
            out["encoded"][k] = call(f"schema.encode.{k}", tk.encode_target, fixed, k)
        text = fixed.text
    gold = inp.gold[d.doc_id]
    for k in W.KINDS:
        generation = call("schema.normalize", tk.normalize_generation, inp.w.generations[k][d.doc_id])
        triples, skipped = call(f"schema.decode.{k}", tk.decode_target_report, generation, k)
        out["decoded"][k], out["skipped"][k] = triples, len(skipped)
        out["scored"][k] = call("scoring.score", tk.score, gold, triples, False, W.AGNOSTIC[k])
        out["errors"][k] = call(
            "scoring.errors", tk.categorize_errors, gold, triples, text, d.doc_id, False, W.AGNOSTIC[k]
        )
    return out


def chain_pass(call, tk, inp: Inputs, around=None, corpus_side=None) -> tuple[list, int, list, list]:
    """Run the chain over every document; returns ([(doc_id, seconds)], failed, messages, outputs).

    around, if given, wraps each operation (the traced run opens a root span
    there). corpus_side defaults to the workload's own setting.
    """
    if corpus_side is None:
        corpus_side = inp.w.spec["corpus_side"]
    times, failed, messages, outputs = [], 0, [], []
    for d in inp.w.docs:
        scope = around(d.doc_id) if around else contextlib.nullcontext()
        try:
            with scope:
                t0 = time.perf_counter()
                out = doc_chain(call, tk, inp, d, corpus_side)
                times.append((d.doc_id, time.perf_counter() - t0))
        except Exception as exc:  # a raising operation is a failed operation, not a crash
            failed += 1
            messages.append(f"{d.doc_id}: {type(exc).__name__}: {exc}")
            continue
        bad = C.check_chain(inp.w, d, out)
        if bad:
            failed += 1
            messages += bad
        outputs.append(out)
    return times, failed, messages, outputs


def crlf_probe(tk, inp: Inputs) -> dict:
    """Run the CRLF documents through read_document_pair -> repair_all.

    Their reference is "repair is a no-op and the text is unchanged". They are
    kept out of the corpus directory, because one of them can abort a whole
    CLI run, and out of the attempted count: they measure a known defect.
    """
    defects, causes, logs = 0, [], []
    for d in inp.w.probe:
        try:
            fixed, log = tk.repair_all(tk.read_document_pair(inp.paths["probe"] / f"{d.doc_id}.txt"))
            logs.append(log)
            bad = C.check_repair(d, fixed, log)
        except tk.ToolkitError as exc:
            bad = [f"{d.doc_id}: {type(exc).__name__}: {exc}"]
        if bad:
            defects += 1
            causes += bad
    return {"docs": len(inp.w.probe), "defects": defects, "causes": causes[:3], "logs": logs}


# --- environment and results ---------------------------------------------------


def environment(workdir: Path) -> dict:
    head = ROOT / ".git" / "HEAD"
    commit = "unknown"
    if head.is_file():
        ref = head.read_text().strip()
        ref_path = ROOT / ".git" / ref[5:] if ref.startswith("ref: ") else None
        commit = ref_path.read_text().strip() if ref_path and ref_path.is_file() else ref
    source = hashlib.sha256()
    for path in sorted((SRC / "raredis_toolkit").glob("*.py")):
        source.update(path.name.encode() + path.read_bytes())
    try:
        fs = subprocess.run(["stat", "-f", "-c", "%T", str(workdir)], capture_output=True, text=True,
                            timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        fs = "unknown"
    return {
        "commit": commit,
        "source_sha256": source.hexdigest(),
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "filesystem": fs,
    }


def tail(samples: list[float]) -> tuple[float, float]:
    """Value and percentile of the highest percentile with ten samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def timed_setup(host: HostSpeed, args, root: Path):
    """setup() between calibration units; returns ((seconds, factor), cli, facade, inputs)."""
    first = host.sample(10)
    seconds, *rest = setup(args.workload, args.seed, root, args.scale)
    host.sample(10)
    return ((seconds, host.factor(first)), *rest)


def measure(args, cli, tk, inp: Inputs, work: Path, report: dict, setups: list, host: HostSpeed) -> tuple[dict, int, int]:
    """Closed-loop end-to-end measurement, tracing off.

    The remaining set-ups (into fresh directories, then discarded) are spread
    evenly over the run, between repetitions, so one slow spell of the host
    does not set setup_s. The command times of one repetition of the CLI
    sequence are scaled by one factor, from every calibration unit timed
    during it, and the chain passes that follow by another, from theirs.
    Every statistic is a median of reference-speed seconds; the same
    statistics of the wall-clock seconds go to the report.
    """
    deadline = time.perf_counter() + args.seconds
    started = time.perf_counter()
    pipeline, commands, per_doc = [], {}, {d.doc_id: [] for d in inp.w.docs}
    attempted = failed = passes = 0
    corpus_side = inp.w.spec["corpus_side"]
    reference = None
    messages: list[str] = []
    while len(pipeline) < MIN_REPS or len(setups) < SETUP_REPS or time.perf_counter() < deadline:
        rep = work / f"rep{len(pipeline)}"
        os.sync()  # start from clean page cache, not throttled by earlier writes
        first = len(host.samples)
        total, per_command, errors = run_pipeline(cli, inp, rep, args.seed, corpus_side, host=host)
        digests, bad_commands, bad = check_pipeline(inp.w, rep, reference)
        attempted += len(per_command)
        failed += len(bad_commands | {e.split(":")[0] for e in errors})
        messages += errors + bad
        if reference is None:
            reference = digests
            report["cli_digest"] = hashlib.sha256(json.dumps(digests, sort_keys=True).encode()).hexdigest()
            report["cli_digests_file"] = write_out(f"digests-{args.workload}-seed{args.seed}.json", digests)
        shutil.rmtree(rep)
        pipeline.append(total)
        factor = host.factor(first)
        for command, seconds in per_command.items():
            commands.setdefault(command, []).append((seconds, factor))

        # give the chain as much time as the pipeline took, in whole passes
        first = len(host.samples)
        chain_started, doc_times = time.perf_counter(), []
        while time.perf_counter() - chain_started < total:
            host.sample(6)
            times, chain_failed, chain_bad, _ = chain_pass(direct, tk, inp)
            doc_times += times
            passes += 1
            attempted += len(inp.w.docs)
            failed += chain_failed
            messages += chain_bad
        factor = host.factor(first)
        for doc_id, t in doc_times:
            per_doc[doc_id].append((t, factor))

        # the next set-up is due once its share of the run has passed
        if len(setups) < SETUP_REPS and time.perf_counter() - started >= args.seconds * len(setups) / SETUP_REPS:
            target = work / f"setup{len(setups)}"
            measured = {k: v for k, v in sys.modules.items() if k.split(".")[0] == "raredis_toolkit"}
            os.sync()
            setups.append(timed_setup(host, args, target)[0])
            sys.modules.update(measured)  # keep one instance of the package in play
            shutil.rmtree(target)

    def statistics_of(scaled: bool) -> tuple[dict, float]:
        def median(timings):  # of (wall seconds, factor) pairs
            return statistics.median(t * f if scaled else t for t, f in timings)

        doc_ms = [1000 * median(per_doc[d.doc_id]) for d in inp.w.docs if per_doc[d.doc_id]]
        tail_ms, tail_pct = tail(doc_ms)
        return {
            "setup_s": median(setups),
            "pipeline_s": sum(median(v) for v in commands.values()),
            "doc_ms.p50": statistics.median(doc_ms),
            "doc_ms.tail": tail_ms,
        }, tail_pct

    reported, tail_pct = statistics_of(scaled=True)
    wall, _ = statistics_of(scaled=False)

    # two more repetitions, untimed: each command's heap peak under tracemalloc,
    # the smaller of the two, because a table of the interpreter's own that
    # happens to grow during one command (by about 1 MB) is not the command's
    heap: dict = {}
    heap_started = time.perf_counter()
    for i in range(HEAP_REPS):
        rep = work / f"rep-heap{i}"
        peaks: dict = {}
        tracemalloc.start()
        _, per_command, errors = run_pipeline(cli, inp, rep, args.seed, corpus_side, heap=peaks)
        tracemalloc.stop()
        _, bad_commands, bad = check_pipeline(inp.w, rep, reference)
        shutil.rmtree(rep)
        attempted += len(per_command)
        failed += len(bad_commands | {e.split(":")[0] for e in errors})
        messages += errors + bad
        for command, peak in peaks.items():
            heap[command] = min(peak, heap.get(command, peak))

    report.update(
        cli_reps=len(pipeline),
        measure_s=round(heap_started - started, 3),
        heap_s=round(time.perf_counter() - heap_started, 3),
        pipeline_s_reps=[round(x, 4) for x in pipeline],
        cli_s={c: round(statistics.median(t for t, _ in v), 4) for c, v in commands.items()},
        heap_mb={c: round(v / 2**20, 3) for c, v in heap.items()},
        setup_s_reps=[round(t, 4) for t, _ in setups],
        chain_passes=passes,
        doc_ms_samples=sum(1 for v in per_doc.values() if v),
        doc_ms_tail_percentile=round(tail_pct, 3),
        calibration={"units": len(host.samples), "median_s": statistics.median(host.samples), "ref_s": CAL_REF_S},
        wall=wall,
        failures=messages[:10],
    )
    metrics = {k: (v, "ms" if k.startswith("doc_ms") else "s") for k, v in reported.items()}
    metrics["peak_heap_mb"] = (max(heap.values()) / 2**20, "MB")
    return metrics, attempted, failed


def out_path(name: str) -> Path:
    """A file under .perfbench_out/, where results, digests and spans go."""
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    return out / name


def write_out(name: str, payload) -> str:
    out_path(name).write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return str(Path(".perfbench_out") / name)


def run(args) -> dict:
    if not (SRC / "raredis_toolkit" / "__init__.py").is_file():
        raise SystemExit(f"error: the package under test is missing: {SRC / 'raredis_toolkit'}")
    sys.path.insert(0, str(SRC))
    work = ROOT / ".perfbench_work" / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        return _run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()


def _run(args, work: Path) -> dict:
    os.sync()
    host = HostSpeed()
    timing, cli, tk, inp = timed_setup(host, args, work / "inputs")
    setups = [timing]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "env": environment(work),
        "sizes": inp.w.sizes(),
    }
    probe = crlf_probe(tk, inp) if inp.w.probe else None
    # keep the benchmark's own long-lived objects out of the collector's scans
    # of the measured code, so the workload's size does not leak into timings
    gc.collect()
    gc.freeze()
    if args.trace:
        import layers

        metrics, attempted, failed = layers.traced_run(args, cli, tk, inp, work, report, probe)
    else:
        metrics, attempted, failed = measure(args, cli, tk, inp, work, report, setups, host)
    if probe is not None:
        report["crlf_probe"] = {k: v for k, v in probe.items() if k != "logs"}
    report["failed_ratio"] = failed / attempted
    report["results_file"] = f".perfbench_out/result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    write_out(Path(report["results_file"]).name, {"report": report, "result": result})
    print(json.dumps(report, sort_keys=True))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    args.scale = 1.0
    result = run(args)
    print(json.dumps(result))
    return 0

