"""Smoke test of the benchmark runner on a tiny load (one cycle).

    python3 -m pytest -q bench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_untraced_run_reports_every_end_to_end_metric():
    result = result_of(bench("--workload", "lattice", "--seed", "0", "--seconds", "0", "--trace", "0"))
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 43
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_every_layer_metric():
    result = result_of(bench("--workload", "lattice", "--seed", "0", "--seconds", "0", "--trace", "1"))
    assert result["correct"]
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert metrics["lp.solve.calls"] == 0
    assert metrics["lp.corpus.mismatches"] == 0
    assert metrics["iteration.pairs_checked"] > 0


def test_metric_notes_cover_the_declared_metrics():
    notes = json.loads((BENCH / "metrics.json").read_text())
    assert set(notes["end_to_end"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert set(notes["per_layer"]) == {m["name"] for m in SPEC["per_layer"]}
    assert set(notes["workloads"]) == {w["name"] for w in SPEC["workloads"]}


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "lattice", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
