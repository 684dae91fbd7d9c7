"""Tests of the benchmark itself (not part of the library's test suite).

    python3 -m pytest bench/test_bench.py

They start real benchmark runs, so they take a few minutes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import compare  # noqa: E402
import run  # noqa: E402


def _bench(tmp_path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *args, "--out", str(tmp_path)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )


def _records(folder) -> list[dict]:
    return compare.load(str(folder))


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_exact_counters_and_digest_repeat(tmp_path, workload):
    for seed in (3, 3, 4):
        proc = _bench(tmp_path / str(seed), "--workload", workload, "--seed", str(seed),
                      "--seconds", "1", "--trace", "1")
        assert proc.returncode == 0, proc.stderr
    first, second = _records(tmp_path / "3")
    other = _records(tmp_path / "4")[0]
    for key in compare.EXACT:
        assert first["per_layer"][key] == second["per_layer"][key], key
    assert first["digest"] == second["digest"]
    # Another seed gives other inputs, hence other results.
    assert other["digest"] != first["digest"]


def test_result_line_has_the_contract_keys(tmp_path):
    proc = _bench(tmp_path, "--workload", "conic", "--seed", "2", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert list(result["metrics"]) == [m["name"] for m in spec["end_to_end"]]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_keeps_layers_apart(tmp_path):
    proc = _bench(tmp_path, "--workload", "conic", "--seed", "2", "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    assert metrics["behavioral.quotient_ms"]["value"] > 0
    for layer in ("lang", "receptive", "contracts", "automata"):
        assert all(v["value"] == 0 for k, v in metrics.items() if k.startswith(layer + ".")), layer


def test_wrong_answer_fails_the_gate(tmp_path, monkeypatch):
    """A recorded digest that differs from the run's makes the run incorrect."""
    monkeypatch.setattr(run, "_recorded_digest", lambda workload, seed: "0" * 64)
    os.makedirs(tmp_path, exist_ok=True)
    record = run.run_workload("conic", 2, 0.5, False, str(tmp_path))
    assert not record["correct"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "conic", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_compare_prints_a_row_per_metric(tmp_path, capsys):
    for side in ("a", "b"):
        proc = _bench(tmp_path / side, "--workload", "conic", "--seed", "2", "--seconds", "1", "--trace", "0")
        assert proc.returncode == 0, proc.stderr
    assert compare.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 0
    out = capsys.readouterr().out
    for name in ("setup_s", "ops_per_s", "latency_p50_ms", "latency_p90_ms", "peak_rss_mb"):
        assert f"conic         {name}" in out
    assert "exact counters and digests" in out and "  none" in out
