"""Self-tests of the benchmark: determinism, the checker catching planted
faults, and smoke-size runs of every workload.

Run from the repository root: python3 -m pytest -q perfbench/tests
"""

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks as C  # noqa: E402
import harness as H  # noqa: E402
import workloads as W  # noqa: E402

SMOKE = 0.05


def _setup(name, tmp_path, seed=5):
    _, cli, tk, inp = H.setup(name, seed, tmp_path / "in", SMOKE)
    return cli, tk, inp


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_generator_is_deterministic_for_a_seed(name):
    first = W.fingerprint(W.generate(name, 7, SMOKE))
    assert W.fingerprint(W.generate(name, 7, SMOKE)) == first
    assert W.fingerprint(W.generate(name, 8, SMOKE)) != first


def test_written_inputs_are_byte_identical_for_a_seed(tmp_path):
    for sub in ("a", "b"):
        W.write_workload(W.generate("raredis-like", 3, SMOKE), tmp_path / sub)
    assert W.digest_tree(tmp_path / "a") == W.digest_tree(tmp_path / "b")


def test_planted_wrong_prediction_fails_its_operation(tmp_path):
    _, tk, inp = _setup("model-output", tmp_path)
    _, failed, _, _ = H.chain_pass(H.direct, tk, inp)
    assert failed == 0
    doc = next(d for d in inp.w.docs if d.gold)
    inp.w.generations["seq2rel"][doc.doc_id] = "@NOREL@"
    _, failed, messages, _ = H.chain_pass(H.direct, tk, inp)
    assert failed == 1 and all(m.startswith(doc.doc_id) for m in messages)


def test_corrupted_output_file_fails_its_command(tmp_path):
    cli, _, inp = _setup("raredis-like", tmp_path)
    rep = tmp_path / "rep"
    _, _, errors = H.run_pipeline(cli, inp, rep, 5, corpus_side=True)
    digests, failed, _ = H.check_pipeline(inp.w, rep, None)
    assert not errors and not failed

    records = rep / "encode-rel_is" / "rel_is.jsonl"
    records.write_text(records.read_text(encoding="utf-8").replace("relation", "relatoin", 1), encoding="utf-8")
    _, failed, _ = H.check_pipeline(inp.w, rep, None)
    assert failed == {"encode-rel_is"}
    _, failed, _ = H.check_pipeline(inp.w, rep, digests)
    assert failed == {"encode-rel_is"}


def test_checker_rejects_a_wrong_repair(tmp_path):
    _, tk, inp = _setup("dense", tmp_path)
    doc = next(d for d in inp.w.docs if d.defects)
    parsed = tk.parse_document(doc.text, doc.ann_written, doc.doc_id)
    assert C.check_repair(doc, *tk.repair_all(parsed)) == []
    assert C.check_repair(doc, parsed, tk.repair_all(parsed)[1])  # unrepaired document


def test_times_are_scaled_by_the_calibration_units_timed_with_them():
    host = H.HostSpeed()
    host.samples += [H.CAL_REF_S, 3 * H.CAL_REF_S]
    first = len(host.samples)
    host.samples += [2 * H.CAL_REF_S] * 3  # a spell at half the reference speed
    assert host.factor(first) == pytest.approx(0.5)
    assert host.sample(2) == first + 3 and len(host.samples) == first + 5


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_prints_every_declared_metric(name, trace, capsys):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    args = argparse.Namespace(workload=name, seed=11, seconds=0.1, trace=trace, scale=SMOKE)
    result = H.run(args)
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    # every layer is measured; a smoke-size workload may have no error records to count
    assert [k for k, v in result["metrics"].items() if v["value"] <= 0 and v["unit"] != "count"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    report = json.loads(capsys.readouterr().out.strip().split("\n")[-1])
    assert report["workload"] == name and report["env"]["python"]


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "dense", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
