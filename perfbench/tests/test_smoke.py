"""Smoke tests for the benchmark: tiny sizes, a few seconds in all.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
COUNT_SUFFIXES = ("_calls", "_bytes", "_builds", "_lookups", "_steps", "generations", "_cubes")


def bench(workload, trace, cwd=ROOT, seed=0):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def result(proc):
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(res) == ["attempted", "correct", "failed", "metrics"]
    return res


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_and_nothing_fails(workload, trace):
    res = result(bench(workload, trace))
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert sorted(res["metrics"]) == sorted(m["name"] for m in wanted)
    for m in wanted:
        got = res["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    assert res["attempted"] >= 1
    assert res["failed"] == 0  # fail_ratio = failed / attempted = 0
    assert res["correct"] is True


def test_traced_counts_repeat_exactly():
    counts = []
    for _ in range(2):
        metrics = result(bench("window", 1))["metrics"]
        counts.append({
            k: v["value"] for k, v in metrics.items() if k.endswith(COUNT_SUFFIXES)
        })
    assert counts[0] == counts[1]
    assert counts[0]["stopping.search_calls"] > 0


def test_refuses_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("ensemble", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
