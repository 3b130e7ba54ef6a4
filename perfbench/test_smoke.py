"""Smoke tests of the benchmark harness: every workload at tiny size, same oracles.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("zw-geometry", "fallback-adversarial", "shifted-walk", "coded-elastic")


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=120)


def declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", ("0", "1"))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_is_correct_and_reports_declared_metrics(workload, trace):
    done = bench("--workload", workload, "--seed", "3", "--seconds", "0",
                 "--trace", trace, "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, done.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = declared()["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    assert "determinism" in done.stdout and "NONDETERMINISTIC" not in done.stdout


def test_same_seed_gives_same_counts():
    lines = []
    for _ in range(2):
        done = bench("--workload", "fallback-adversarial", "--seed", "5", "--seconds", "0",
                     "--smoke")
        lines.append(next(line for line in done.stdout.splitlines()
                          if "determinism" in line))
    assert lines[0] == lines[1]


def test_declared_workloads_and_layer_table_agree():
    table = json.loads((HERE / "layers.json").read_text())
    assert set(table["workloads"]) == set(WORKLOADS)
    names = [w["name"] for w in declared()["workloads"]]
    assert set(names) <= set(WORKLOADS)
    for name, entry in table["workloads"].items():
        assert entry["in_benchmark_json"] == (name in names)


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", "zw-geometry", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
