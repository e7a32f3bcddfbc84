"""tools/scaling.py at tiny sizes."""

import importlib.util
import json
import math
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.fixture
def scaling(monkeypatch):
    for var in THREADS:  # the tool sets them on import; restored afterwards
        monkeypatch.delenv(var, raising=False)
    spec = importlib.util.spec_from_file_location("scaling", ROOT / "tools" / "scaling.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "SIZES", {1: range(3, 5), 2: range(2, 3)})
    monkeypatch.setattr(module, "AP_DEPTH", {1: 3, 2: 2})
    monkeypatch.setattr(module, "REPEATS", 1)
    yield module
    sys.modules.pop("matweight_against", None)
    for name in [m for m in sys.modules if m.startswith("matweight_against.")]:
        sys.modules.pop(name)


def test_scaling_records_every_layer_and_compares_runs(scaling, tmp_path):
    # the second run loads this checkout a second time as the other side
    out = tmp_path / "BENCH_scaling.json"
    assert scaling.main(["--out", str(out)]) == 0
    assert scaling.main(["--out", str(out), "--against", str(ROOT)]) == 0
    doc = json.loads(out.read_text())
    assert (doc["runs"]["parent"]["runs"], doc["runs"]["change"]["runs"]) == (1, 2)
    assert doc["runs"]["parent"]["env"]["interleaved"]
    assert set(doc["layers"]) == set(scaling.LAYERS)
    records = doc["runs"]["change"]["records"]
    assert doc["runs"]["change"]["env"]["threads"] == dict.fromkeys(THREADS, "1")
    windows = {(1, 3, 8), (1, 4, 16), (2, 2, 16)}
    for layer in scaling.LAYERS:
        want = {(1, 3, 8), (2, 2, 16)} if layer.startswith("ap_p3") else windows
        assert {(r["d"], r["depth"], r["N"]) for r in records if r["layer"] == layer} == want
    for r in records:
        assert r["seconds"] > 0 and r["peak_mb"] > 0 and math.isfinite(r["leaf_mb"])
    assert len(doc["compare"]) == len(records)
    assert all(c["speedup"] > 0 for c in doc["compare"])



def test_scaling_table_layers_go_deeper(scaling, tmp_path, monkeypatch):
    # the layers that build p != 2 tables run past the others' deepest window
    monkeypatch.setattr(scaling, "DEEPEST", {1: 3, 2: 2})
    out = tmp_path / "BENCH_scaling.json"
    assert scaling.main(["--out", str(out)]) == 0
    records = json.loads(out.read_text())["runs"]["change"]["records"]
    for layer in scaling.LAYERS:
        depths = {r["depth"] for r in records if r["layer"] == layer and r["d"] == 1}
        assert depths == ({3, 4} if layer in scaling.TABLE_LAYERS else {3})
