"""Smoke test of the benchmark at a tiny corpus: 1 epoch, 2 episodes per call.

Each workload runs once untraced and once traced; the last stdout line must
carry every metric BENCHMARK.json declares, with its unit, and the traced
runs must show the bypass predictions the workloads were chosen for.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).with_name("run.py")
SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "1", "--seconds", "0",
         "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    return result["metrics"]


def assert_declared(metrics: dict, declared: list):
    assert set(metrics) == {m["name"] for m in declared}
    for m in declared:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert math.isfinite(metrics[m["name"]]["value"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_emitted(workload):
    metrics = run_bench(workload, trace=0)
    assert_declared(metrics, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in metrics.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_layer_metrics(workload):
    metrics = run_bench(workload, trace=1)
    assert_declared(metrics, SPEC["per_layer"])
    value = {name: m["value"] for name, m in metrics.items()}
    trains, detects = workload == "train-full", workload == "eval-det"
    assert (value["autodiff.backward.calls"] > 0) == trains
    assert (value["evaluate.average_precision.calls"] > 0) == detects
    assert (value["evaluate.classify_query.calls"] > 0) == (not trains)
    assert value["model.embed_segments.calls"] > 0
    if trains:
        assert value["autodiff.graph_nodes_per_step"] > 0
