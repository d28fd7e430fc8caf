"""Smoke test of the benchmark itself, at a tiny size (one-second runs).

    python3 -m pytest benchmarks/test_smoke.py

Runs every workload untraced and traced through the benchmark command and
checks that every metric ``BENCHMARK.json`` names is reported with its unit.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import metrics  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(cwd, *args):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "benchmarks" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_every_metric_reported_with_its_unit(workload, trace):
    proc = bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stderr
    listed = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == listed
    printed = {line.split()[0]: line.split()[-1] for line in lines[1:-1] if len(line.split()) == 3}
    for name, unit in dict(listed, failed_frac="ratio").items():
        assert printed.get(name) == unit, name
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    context = json.loads(lines[0])["context"]
    for key in ("revision", "cores", "python", "numpy", "seed", "ops", "calls"):
        assert key in context


def test_benchmark_json_matches_metric_tables():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["end_to_end"]} == {
        k: v[:2] for k, v in metrics.END_TO_END.items()}
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} == {
        k: v[:2] for k, v in metrics.PER_LAYER.items()}


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(tmp_path, "--workload", "exact-queries", "--seed", "1", "--seconds", "1",
                 "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
