"""BENCHMARK.json names exactly the workloads and metrics the runner reports."""

import json
from pathlib import Path

import run


def test_benchmark_json_matches_runner():
    doc = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    assert {w["name"] for w in doc["workloads"]} <= set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER
    assert doc["command"] == ["python3", "bench/run.py"]
