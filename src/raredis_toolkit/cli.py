"""Command-line entry point: repair, stats, split, flatten, encode, decode,
score, and errors over directories of .txt/.ann pairs.

Each cmd_* yields its outputs for standoff.write_outputs, which writes all or
none. Exit codes: 0 success, 1 fatal error, 2 usage error. Runs are
deterministic given the same flags and seed; input directories are never
modified.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import logging
import os
import sys
from collections import Counter
from pathlib import Path

from . import corpus as corpus_mod
from . import flatten as flatten_mod
from . import repair as repair_mod
from . import schema as schema_mod
from . import scoring as scoring_mod
from . import standoff
from .errors import DocumentError, ToolkitError
from .triples import collapse_whitespace

logger = logging.getLogger(__name__)


# (flag, attribute) of every output path, input directory and input file a command takes
_OUTPUTS = (("--out", "output_dir"), ("--out", "out_file"), ("--out", "out_json"), ("--log", "log"),
            ("--report", "report"), ("--audit", "audit"))
_INPUT_DIRS = (("--in", "input_dir"), ("--docs", "docs"))
_INPUT_FILES = (("--gold", "gold"), ("--pred", "pred"), ("--noun-map", "noun_map"), ("--train-list", "train_list"),
                ("--dev-list", "dev_list"), ("--test-list", "test_list"))


def _token_list(args) -> Path | None:
    """Where encode writes the special tokens of a schema that has them: beside --out."""
    tokens = args.func is cmd_encode and schema_mod.codec(args.schema).special_tokens
    return Path(args.out_file).parent / "special_tokens.txt" if tokens else None


def _refuse_outputs_in_inputs(args) -> None:
    """No output may be an input file or directory or lie inside an input
    directory, and no input file may lie inside an output (symbolic links
    followed), so no command modifies its input; checked before any file is read."""
    dirs, files, outputs = ([(flag, p, os.path.realpath(p)) for flag, attr in flags if (p := getattr(args, attr, None))]
                            for flags in (_INPUT_DIRS, _INPUT_FILES, _OUTPUTS))
    if tokens := _token_list(args):
        outputs.append(("the token list", str(tokens), os.path.realpath(tokens)))
    for out_flag, out, real in outputs:
        for in_flag, in_dir, root in dirs:
            if real == root:
                raise ToolkitError(f"{out_flag} {out} is the {in_flag} directory {in_dir}")
            if os.path.commonpath((real, root)) == root:
                raise ToolkitError(f"{out_flag} {out} is inside the {in_flag} directory {in_dir}")
        for in_flag, in_file, path in files:
            if real == path:
                raise ToolkitError(f"{out_flag} {out} is the {in_flag} file {in_file}")
            if os.path.commonpath((real, path)) == real:
                raise ToolkitError(f"{in_flag} {in_file} is inside the {out_flag} directory {out}")


def _corpus(args, read=standoff.iter_corpus_dir):
    """The --in documents (or, with read=standoff.iter_document_files, their files as read),
    one at a time as they are taken."""
    return read(args.input_dir, strict_pairs=not args.lenient_pairs)


def _add_io_args(parser, out_required=True):
    parser.add_argument("--in", dest="input_dir", required=True, help="input corpus directory")
    if out_required:
        parser.add_argument("--out", dest="output_dir", required=True, help="output directory")
    parser.add_argument(
        "--lenient-pairs",
        action="store_true",
        help="warn on unpaired .txt/.ann files instead of failing",
    )


def _add_schema_args(parser):
    parser.add_argument(
        "--schema",
        required=True,
        type=lambda s: s.replace("-", "_"),
        choices=schema_mod.SCHEMA_KINDS,
        metavar="{seq2rel|rel-is|natural-lang}",
        help="target schema",
    )
    parser.add_argument("--noun-map", help="JSON file mapping predicates to nouns (rel-is)")


def _load_codec(args) -> schema_mod.Codec:
    """The --schema codec, with the --noun-map file's map checked here once per run."""
    try:
        noun_map = None if args.noun_map is None else json.loads(standoff.read_file(args.noun_map))
        return schema_mod.codec(args.schema, noun_map)
    except ValueError as exc:  # malformed JSON too
        raise ToolkitError(f"{args.noun_map}: {exc}") from None


def cmd_repair(args):
    docs = _corpus(args)
    files, logs = [], []

    def repaired():  # keeps what is written, not the documents
        for doc in docs:
            fixed, log = repair_mod.repair_all(doc)
            files.append(standoff.document_files(fixed))
            logs.append(log)
            yield fixed, log

    summary = repair_mod.summarize_repairs(repaired())
    yield from standoff.corpus_files(files, args.output_dir)
    if args.log:
        yield args.log, repair_mod.repair_log_text(logs, args.log)
    print(
        f"repaired {len(files)} documents: "
        f"{summary.relations_argument_fixed}/{summary.total_relations} relation arguments fixed "
        f"({summary.relation_argument_rate:.4f}), "
        f"{summary.entities_span_fixed}/{summary.total_entities} entity spans adjusted "
        f"({summary.span_boundary_rate:.4f}), "
        f"{summary.entities_fragment_reordered} fragment lists reordered, "
        f"{summary.relations_unresolvable} relations left unresolvable"
    )


def cmd_stats(args):
    name, stats = Path(args.input_dir).name or "corpus", corpus_mod.corpus_statistics(_corpus(args))
    if args.out_json:
        yield args.out_json, corpus_mod.stats_json(name, stats)
    print(corpus_mod.format_stats(name, stats), end="")


def cmd_split(args):
    manifests = (args.train_list, args.dev_list, args.test_list)
    if any(manifests) and args.ratios:
        raise ToolkitError("split takes either --ratios or the three --*-list flags, not both")
    if args.ratios:
        try:
            parts = [float(x) for x in args.ratios.split(",")]
        except ValueError as exc:
            raise ToolkitError(f"--ratios: {exc}") from None
        if len(parts) != 3:
            raise ToolkitError("--ratios needs three comma-separated fractions")
        spec = corpus_mod.SplitSpec(mode="ratio", ratios=tuple(parts), seed=args.seed)
    elif any(manifests) and not all(manifests):
        raise ToolkitError("file_list mode needs --train-list, --dev-list, and --test-list")
    elif not any(manifests):
        raise ToolkitError("split needs either --ratios or the three --*-list flags")
    docs = []  # each pair as read: parsing only validates it
    for files in _corpus(args, standoff.iter_document_files):
        standoff.parse_document(files.text, files.ann, files.doc_id)
        docs.append(files)
    if not args.ratios:  # the manifests name documents, so they are read after them
        spec = corpus_mod.SplitSpec(mode="file_list", lists=corpus_mod.read_manifests(manifests, docs))

    splits = list(zip(("train", "dev", "test"), corpus_mod.split_corpus(docs, spec)))
    for name, split in splits:
        yield from standoff.corpus_files(split, os.path.join(args.output_dir, name))
        manifest = os.path.join(args.output_dir, f"{name}.txt")
        yield manifest, corpus_mod.manifest_text(split, manifest)
    for name, split in splits:
        print(f"{name}: {len(split)} documents")


def cmd_flatten(args):
    docs = _corpus(args)
    yield args.output_dir, None  # made even for a corpus of no documents
    count = 0
    for doc in docs:
        flat, offset_map = flatten_mod.flatten_document(doc)
        yield from standoff.corpus_files([standoff.document_files(flat)], args.output_dir)
        sidecar = os.path.join(args.output_dir, f"{doc.doc_id}.offsets.json")
        yield sidecar, flatten_mod.offset_map_json(offset_map)
        count += 1
    print(f"flattened {count} documents")


def cmd_encode(args):
    codec = _load_codec(args)
    docs = _corpus(args)
    out = Path(args.out_file)
    records, skipped = [], []
    for doc in docs:
        try:
            source = schema_mod.build_prompt(doc.text, args.copy_instruct)
        except ValueError as exc:  # an empty document text
            raise DocumentError(doc.doc_id, str(exc), suffix=".txt") from None
        record = {"doc_id": doc.doc_id, "source": source, "target": codec.encode(doc)}
        records.append(json.dumps(record, ensure_ascii=False))
        skipped += [f"{doc.doc_id}:{rel_id}" for rel_id in sorted({r for r, _, _ in doc.unresolved_refs})]
    yield out, standoff.join_records(records, out)
    if skipped:
        logger.warning("skipping relations with unresolved arguments: %s", ", ".join(skipped))
    vocab_path = _token_list(args)
    if vocab_path:
        yield vocab_path, standoff.join_records(codec.special_tokens, vocab_path)
        print(f"wrote {len(records)} examples to {out} and tokens to {vocab_path}")
    else:
        print(f"wrote {len(records)} examples to {out}")


def cmd_decode(args):
    decode = _load_codec(args).decode
    sources: dict[str, str] = {}  # the generation file of each doc id; every name is checked before any is read
    for path in standoff.input_files(args.input_dir):
        doc_id = standoff.path_stem(path)
        if not scoring_mod.tsv_field_ok(doc_id):
            # the file name is the doc id of every record decode writes
            raise ToolkitError(f"generation file name {os.path.basename(path)!r} holds a tab or line feed")
        if doc_id in sources:
            raise ToolkitError(f"generation files {sources[doc_id]} and {path} share the doc id {doc_id!r}")
        sources[doc_id] = path
    report_lines = []
    total = 0

    def decoded():  # one generation at a time, in doc id order, each written before the next is read
        nonlocal total
        for doc_id in sorted(sources):
            generation = standoff.read_file(sources[doc_id])
            if not args.raw:
                generation = schema_mod.normalize_generation(generation)
            triples, skipped = decode(generation)
            kept = []
            for t in triples:
                if scoring_mod.triple_writable(t):
                    kept.append(t)
                else:
                    segment = f"{t.subject_text} {t.predicate} {t.object_text}"
                    skipped.append((segment, "triple text holds a tab or line feed"))
            total += len(kept)
            # a raw generation's segments may hold line breaks; the report keeps one per line
            report_lines.extend(
                f"{doc_id}\t{reason}\t{collapse_whitespace(segment)}" for segment, reason in skipped
            )
            yield doc_id, kept

    yield args.out_file, scoring_mod.triples_text(decoded(), args.out_file)
    if args.report:
        yield args.report, standoff.join_records(report_lines, args.report)
    print(f"decoded {total} triples from {len(sources)} generations ({len(report_lines)} segments skipped)")


def _read_scored_files(args):
    gold = scoring_mod.read_triples_file(args.gold)
    pred = scoring_mod.read_triples_file(args.pred)
    return gold, pred


def cmd_score(args):
    gold, pred = _read_scored_files(args)
    report = scoring_mod.score_corpus(
        gold, pred, strict_case=args.strict_case, type_agnostic=args.type_agnostic
    )
    if args.out_json:
        yield args.out_json, json.dumps(report.to_dict(), indent=2) + "\n"
    print(scoring_mod.format_report(report), end="")


def cmd_errors(args):
    gold, pred = _read_scored_files(args)
    doc_ids = sorted(gold.keys() | pred.keys())
    # hallucination checks need only the texts, so no .ann is parsed; a text is read only
    # when its document has an unpaired false positive to check
    texts = standoff.paired_texts(args.docs, strict_pairs=False) if args.docs else {}
    texts = {doc_id: texts[doc_id] for doc_id in doc_ids if doc_id in texts}
    counts = Counter()

    def records():  # one document at a time, in doc id order; its triples are dropped once categorized
        for doc_id in doc_ids:
            txt = texts.pop(doc_id, None)
            doc_records = scoring_mod.categorize_errors(
                gold.pop(doc_id, []),
                pred.pop(doc_id, []),
                doc_text=None if txt is None else functools.partial(standoff.read_file, txt),
                doc_id=doc_id,
                strict_case=args.strict_case,
                type_agnostic=args.type_agnostic,
            )
            counts.update(record.category for record in doc_records)
            yield from doc_records

    yield args.audit, scoring_mod.error_records_text(records(), args.audit)
    for category in sorted(counts):
        print(f"{category}: {counts[category]}")
    print(f"wrote {counts.total()} error records to {args.audit}")


@functools.cache  # parse_args never changes the parser, so one serves every run_cli call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="raredis",
        description="Corpus toolkit for end-to-end relation extraction "
        "on RareDis-style standoff annotations.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("repair", help="apply the annotation defect fixes")
    _add_io_args(p)
    p.add_argument("--log", help="write the repair audit log to this file")
    p.set_defaults(func=cmd_repair)

    p = sub.add_parser("stats", help="entity/relation/shape statistics")
    _add_io_args(p, out_required=False)
    p.add_argument("--out", dest="out_json", help="also write machine-readable stats (JSON)")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("split", help="train/dev/test splitting")
    _add_io_args(p)
    p.add_argument("--ratios", help="three comma-separated fractions summing to 1")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--train-list", help="manifest of doc_ids for the train split")
    p.add_argument("--dev-list", help="manifest of doc_ids for the dev split")
    p.add_argument("--test-list", help="manifest of doc_ids for the test split")
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("flatten", help="render discontinuous entities contiguous")
    _add_io_args(p)
    p.set_defaults(func=cmd_flatten)

    p = sub.add_parser("encode", help="write model-target records for a schema")
    _add_io_args(p, out_required=False)
    p.add_argument("--out", dest="out_file", required=True, help="output records file (JSONL)")
    _add_schema_args(p)
    p.add_argument("--copy-instruct", action="store_true", help="prefix the copy instruction")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("decode", help="decode generation files back into triples")
    p.add_argument("--in", dest="input_dir", required=True, help="directory of generation files")
    p.add_argument("--out", dest="out_file", required=True, help="output triples file (TSV)")
    _add_schema_args(p)
    p.add_argument("--raw", action="store_true", help="skip generation normalization")
    p.add_argument("--report", help="write skipped-segment diagnostics to this file")
    p.set_defaults(func=cmd_decode)

    for name in ("score", "errors"):
        p = sub.add_parser(
            name,
            help="strict exact-match scoring" if name == "score" else "categorize FP/FN errors",
        )
        p.add_argument("--gold", required=True, help="gold triples file (TSV)")
        p.add_argument("--pred", required=True, help="predicted triples file (TSV)")
        p.add_argument("--strict-case", action="store_true", help="disable text normalization")
        p.add_argument("--type-agnostic", action="store_true", help="ignore entity types")
        if name == "score":
            p.add_argument("--out", dest="out_json", help="also write the report as JSON")
            p.set_defaults(func=cmd_score)
        else:
            p.add_argument("--audit", required=True, help="error-record audit file (JSONL)")
            p.add_argument("--docs", help="corpus directory for hallucination detection")
            p.set_defaults(func=cmd_errors)

    return parser


def run_cli(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles usage errors and --help
        return int(exc.code or 0)
    summary = io.StringIO()  # printed once the outputs are in place
    try:
        _refuse_outputs_in_inputs(args)
        with contextlib.redirect_stdout(summary):
            standoff.write_outputs(args.func(args))
        sys.stdout.write(summary.getvalue())
        return 0
    except FileNotFoundError as exc:
        print(f"error: missing input file: {exc.filename}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 1
    except DocumentError as exc:  # every command that can raise one reads --in
        print(f"error: {exc.located(f'{Path(args.input_dir) / exc.doc_id}{exc.suffix}')}", file=sys.stderr)
        return 1
    except (ToolkitError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
