"""Self-test: every workload at its tiniest size, with every output check.

Runs the benchmark through its command line, as a user would, so that
a change to handover_ie that breaks a workload, an output check or a
traced wrapper fails here. No timing is asserted.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# per-layer counts that must be non-zero (busy) or zero (idle) on each workload
BUSY = {
    "grid-tiny": ("tensor.backward_calls", "pipeline.adam_steps", "pipeline.epochs_run",
                  "tokenizer.segment_word_calls", "pipeline.validation_s"),
    "crf-fit": ("crf.objective_calls", "crf.lbfgs_iters", "crf.viterbi_s",
                "pipeline.checkpoint_save_s", "pipeline.checkpoint_load_s"),
    "label-base": ("pipeline.checkpoint_load_s", "tensor.load_archive_s",
                   "encoder.model_init_s", "encoder.forward_windows", "tokenizer.encode_calls"),
}
IDLE = {
    "grid-tiny": ("crf.objective_calls",),
    "crf-fit": ("encoder.forward_windows", "tensor.primitive_calls"),
    "label-base": ("tensor.backward_calls", "crf.objective_calls", "pipeline.adam_steps",
                   "tokenizer.train_bpe_s"),
}


def run_bench(workload: str, trace: int, cwd: Path = ROOT, seed: int = 3):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def parse(proc) -> tuple[dict, dict]:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["meta"], json.loads(lines[-1])


def check_result(result: dict, metrics: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in metrics}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_is_correct_repeatable_and_traced(workload):
    meta, result = parse(run_bench(workload, trace=0))
    check_result(result, SPEC["end_to_end"])
    assert all(v["value"] > 0 for v in result["metrics"].values())

    again, _ = parse(run_bench(workload, trace=0))
    assert again["predictions_sha256"] == meta["predictions_sha256"]
    assert again["macro_f1"] == meta["macro_f1"]

    traced_meta, traced = parse(run_bench(workload, trace=1))
    check_result(traced, SPEC["per_layer"])
    assert traced_meta["predictions_sha256"] == meta["predictions_sha256"]
    values = {k: v["value"] for k, v in traced["metrics"].items()}
    assert all(values[name] > 0 for name in BUSY[workload])
    assert all(values[name] == 0 for name in IDLE[workload])
    assert (ROOT / traced_meta["trace_file"]).is_file()


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("grid-tiny", trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
