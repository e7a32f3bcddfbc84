"""tools/bench_pairs.py on synthetic perfbench result files."""

import importlib.util
import json
import os
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


PARENT_OPS = [1.0, 2.0, 3.0, 4.0, 5.0]
CHANGE_OPS = [2.0, 2.0, 4.0, 5.0, 6.0]  # pair 2 is a tie
CHANGE_P50 = [9.0, 11.0, 10.0, 8.0, 12.0]  # against a flat parent 10.0


def _result(ops_per_s, op_p50_ms, fail_ratio=0.0, **others):
    metrics = {"ops_per_s": ops_per_s, "op_p50_ms": op_p50_ms, "op_tail_ms": 20.0,
               "peak_rss_mb": 100.0, "setup_s": 0.5, **others}
    return {
        "env": {"seconds": 30.0, "ops": {"gen": 3, "bmo": 2}},
        "fail_ratio": fail_ratio,
        "metrics": {name: {"value": value} for name, value in metrics.items()},
    }


def _write(folder, name, doc, mtime):
    folder.mkdir(parents=True, exist_ok=True)
    path = folder / name
    path.write_text(json.dumps(doc))
    os.utime(path, (mtime, mtime))


@pytest.fixture
def runs(tmp_path):
    runs = tmp_path / "runs"
    for k in range(5):
        parent_first = k % 2 == 0
        t = 1000.0 * (k + 1)
        fail = 0.2 if k == 3 else 0.0  # one failed op of five
        _write(runs / "window_seed0", f"{k + 1:02d}-parent.json",
               _result(PARENT_OPS[k], 10.0), t if parent_first else t + 1)
        _write(runs / "window_seed0", f"{k + 1:02d}-change.json",
               _result(CHANGE_OPS[k], CHANGE_P50[k], fail), t + 1 if parent_first else t)
    _write(runs / "window_seed0", "06-parent.json", _result(99.0, 1.0), 9000.0)  # no partner
    for k in range(2):
        _write(runs / "traced_window_seed0", f"{k + 1:02d}-parent.json",
               _result(1.0 + k, 10.0), 100.0 * k)
        _write(runs / "traced_window_seed0", f"{k + 1:02d}-change.json",
               _result(2.0 + k, 9.0), 100.0 * k + 1)
    return runs


def test_bench_pairs_layout_and_statistics(bench_pairs, runs, tmp_path):
    out = tmp_path / "BENCH_test.json"
    rc = bench_pairs.main([str(runs), "--label", "test", "--parent-commit", "abc1234",
                           "--change", "a synthetic change", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert set(doc) == {"label", "change", "parent_commit", "command", "method", "env",
                        "workloads", "traced_window_seed0"}
    assert (doc["label"], doc["parent_commit"]) == ("test", "abc1234")
    assert "--seconds 30 " in doc["command"]
    assert list(doc["workloads"]) == ["window_seed0"]

    pairs = doc["workloads"]["window_seed0"]["pairs"]
    assert [p["pair"] for p in pairs] == [1, 2, 3, 4, 5]  # the lone 06-parent is left out
    assert [p["first"] for p in pairs] == ["parent", "change", "parent", "change", "parent"]
    assert [p["parent"]["ops_per_s"] for p in pairs] == PARENT_OPS
    assert [p["change"]["ops_per_s"] for p in pairs] == CHANGE_OPS
    assert pairs[3]["change"]["attempted"] == 5
    assert pairs[3]["change"]["failed"] == 1 and pairs[3]["change"]["correct"] is False
    assert all(p["parent"]["correct"] and p["parent"]["failed"] == 0 for p in pairs)

    summary = doc["workloads"]["window_seed0"]["summary"]
    assert set(summary) == {"ops_per_s", "op_p50_ms", "op_tail_ms", "peak_rss_mb", "setup_s"}
    ops = summary["ops_per_s"]
    assert ops["parent"] == {"median": 3.0, "q1": 2.0, "q3": 4.0}
    assert ops["change"] == {"median": 4.0, "q1": 2.0, "q3": 5.0}
    assert ops["change_wins"] == "4/5"  # higher is better; the tie counts for neither side
    assert ops["median_diff"] == 1.0
    assert ops["parent_iqr"] == 2.0
    assert ops["change_vs_parent"] == pytest.approx(4.0 / 3.0)
    p50 = summary["op_p50_ms"]
    assert p50["change_wins"] == "2/5"  # lower is better; 10.0 against 10.0 is a tie
    assert p50["parent"] == {"median": 10.0, "q1": 10.0, "q3": 10.0}
    assert p50["change"]["median"] == 10.0 and p50["median_diff"] == 0.0
    assert p50["parent_iqr"] == 0.0
    assert summary["setup_s"]["change_wins"] == "0/5"

    traced = doc["traced_window_seed0"]
    assert len(traced) == 2 and all(set(t) == {"parent", "change"} for t in traced)
    assert [t["change"]["ops_per_s"] for t in traced] == [2.0, 3.0]


def test_bench_pairs_flags_the_benchmark_bound(bench_pairs, tmp_path):
    # Each metric carries its bound from BENCHMARK.json, and within_bound is
    # false once the change's median is worse than the parent's by more than
    # bound x the parent's median, in the metric's own direction.
    folder = tmp_path / "runs" / "window_seed0"
    worse = {"op_tail_ms": 25.2, "peak_rss_mb": 114.0, "setup_s": 0.4}
    for k in range(2):
        _write(folder, f"{k + 1:02d}-parent.json", _result(1.0, 10.0), 1000.0 * k)
        _write(folder, f"{k + 1:02d}-change.json", _result(0.74, 12.4, **worse), 1000.0 * k + 1)
    out = tmp_path / "out.json"
    bench_pairs.main([str(tmp_path / "runs"), "--label", "x", "--parent-commit", "c",
                      "--change", "c", "--out", str(out)])
    summary = json.loads(out.read_text())["workloads"]["window_seed0"]["summary"]
    bounds = {m["name"]: m["bound"]
              for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    assert {name: s["bound"] for name, s in summary.items()} == bounds
    assert {name: s["within_bound"] for name, s in summary.items()} == {
        "ops_per_s": False,  # 26 % fewer ops against a 25 % bound
        "op_p50_ms": True,  # 24 % slower
        "op_tail_ms": False,  # 26 % slower
        "peak_rss_mb": True,  # 14 % more against a 15 % bound
        "setup_s": True,  # faster
    }


def test_bench_pairs_flags_unresolved_spread(bench_pairs, tmp_path):
    # resolved is false once the parent's IQR exceeds bound x its median,
    # unless every change run beats every parent run.
    folder = tmp_path / "runs" / "window_seed0"
    parent_setup = [0.24, 0.39, 0.25, 0.38, 0.33]  # IQR 0.14 > 0.25 x 0.33
    change_setup = [0.20, 0.21, 0.22, 0.23, 0.20]  # all faster: resolved anyway
    parent_tail = [19.0, 20.0, 21.0, 20.5, 19.5]  # IQR 1.0 < 0.25 x 20.0
    parent_ops = [6.0, 10.0, 7.0, 11.0, 8.0]  # IQR 3.0 > 0.25 x 8.0
    change_ops = [9.0, 8.0, 10.0, 7.0, 12.0]  # one change run loses to a parent run
    for k in range(5):
        _write(folder, f"{k + 1:02d}-parent.json",
               _result(parent_ops[k], 10.0, setup_s=parent_setup[k], op_tail_ms=parent_tail[k]),
               1000.0 * k)
        _write(folder, f"{k + 1:02d}-change.json",
               _result(change_ops[k], 10.0, setup_s=change_setup[k]), 1000.0 * k + 1)
    out = tmp_path / "out.json"
    bench_pairs.main([str(tmp_path / "runs"), "--label", "x", "--parent-commit", "c",
                      "--change", "c", "--out", str(out)])
    summary = json.loads(out.read_text())["workloads"]["window_seed0"]["summary"]
    assert {name: s["resolved"] for name, s in summary.items()} == {
        "ops_per_s": False,  # wide parent spread and overlapping runs
        "op_p50_ms": True,  # a flat parent
        "op_tail_ms": True,  # a narrow parent
        "peak_rss_mb": True,
        "setup_s": True,  # wide parent spread, but every change run is faster
    }
    assert summary["setup_s"]["parent_iqr"] > 0.25 * summary["setup_s"]["parent"]["median"]


def test_bench_pairs_refuses_empty_runs(bench_pairs, tmp_path):
    (tmp_path / "runs" / "window_seed0").mkdir(parents=True)
    with pytest.raises(SystemExit, match="no complete parent/change pairs"):
        bench_pairs.main([str(tmp_path / "runs"), "--label", "x", "--parent-commit", "c",
                          "--change", "c", "--out", str(tmp_path / "out.json")])


def test_bench_pairs_refuses_a_set_with_one_pair(bench_pairs, tmp_path):
    folder = tmp_path / "runs" / "ensemble_seed0"
    _write(folder, "01-parent.json", _result(1.0, 10.0), 1000.0)
    _write(folder, "01-change.json", _result(2.0, 9.0), 1001.0)
    _write(folder, "02-parent.json", _result(1.0, 10.0), 2000.0)  # no partner
    with pytest.raises(SystemExit, match="ensemble_seed0 has 1 complete parent/change pair"):
        bench_pairs.main([str(tmp_path / "runs"), "--label", "x", "--parent-commit", "c",
                          "--change", "c", "--out", str(tmp_path / "out.json")])
