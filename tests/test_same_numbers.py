"""tools/same_numbers.py on a tiny configuration."""

import importlib.util
import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

SPEC = {"kind": "log_spd", "n": 2, "d": 1, "depth": 3, "amplitude": 0.5}
TINY = {
    "manifests": {
        "tiny": {"n": 2, "d": 1, "depth": 3, "seeds": [0], "p_values": [2.0, 3.0],
                 "eps": 1.0, "amplitude": 0.5, "char_cap": 10.0},
    },
    "specs": {
        "W": {**SPEC, "seed": 1},
        "U": {**SPEC, "seed": 2},
        "B": {**SPEC, "seed": 3},
        "W2": {**SPEC, "d": 2, "depth": 2, "seed": 4},
    },
}


@pytest.fixture(scope="module")
def same_numbers():
    spec = importlib.util.spec_from_file_location("same_numbers", ROOT / "tools" / "same_numbers.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_two_captures_agree_and_one_byte_is_caught(tmp_path, same_numbers, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    for folder in (a, b):
        codes = same_numbers.capture(folder, TINY)
        assert codes and not any(codes.values()), codes
    names = {p.name for p in a.iterdir()}
    assert {"verify_tiny.csv", "duality_tiny.json", "jn_tiny.csv", "W.mwf",
            "stopping_p3.json", "stopping_lam8_p2.json", "stopping_lam8_p3.stdout",
            "bmo_grids.json", "ap_p2.stdout",
            "thm12_p2.json", "thm12_p2.stdout", "thm12_p3.json", "thm12_p3.stdout"} <= names
    assert not (a / "verify_tiny.csv").read_text().startswith("# generated:")
    assert json.loads((a / "stopping_lam8_p2.json").read_text())["lambda"] == 8
    assert same_numbers.compare(a, b) == []
    assert same_numbers.main(["compare", str(a), str(b)]) == 0

    target = b / "verify_tiny.csv"
    data = bytearray(target.read_bytes())
    data[len(data) // 2] ^= 1
    target.write_bytes(bytes(data))
    (a / "only_here.json").write_text("{}")
    assert same_numbers.compare(a, b) == ["only_here.json", "verify_tiny.csv"]
    capsys.readouterr()
    assert same_numbers.main(["compare", str(a), str(b)]) == 1
    assert "differs: verify_tiny.csv" in capsys.readouterr().out


def test_compare_says_how_far_json_numbers_moved(tmp_path, same_numbers, capsys):
    doc = {"rows": [{"carleson_norm": 2.5, "seed": 0, "witness": "2/0/0"}],
           "bands": {"x": [1.0, 0.0]}, "ok": True}
    a, b = tmp_path / "a", tmp_path / "b"
    for folder in (a, b):
        folder.mkdir()
        (folder / "same.json").write_text(json.dumps(doc))
    nudged = json.loads(json.dumps(doc))
    nudged["rows"][0]["carleson_norm"] = math.nextafter(2.5, 3.0)
    (b / "nudged.json").write_text(json.dumps(nudged))
    (a / "nudged.json").write_text(json.dumps(doc))
    renamed = json.loads(json.dumps(doc))
    renamed["rows"][0]["carleson"] = renamed["rows"][0].pop("carleson_norm")
    (b / "renamed.json").write_text(json.dumps(renamed))
    (a / "renamed.json").write_text(json.dumps(doc))
    (a / "body.csv").write_text("1,2\n")
    (b / "body.csv").write_text("1,3\n")

    count, total, worst, path = same_numbers.json_drift(a / "nudged.json", b / "nudged.json")
    assert (count, total, path) == (1, 4, "$.rows[0].carleson_norm")
    assert worst == pytest.approx(2.0**-52 * 2 / 2.5, rel=1e-12)  # one ulp of 2.5
    assert same_numbers.json_drift(a / "renamed.json", b / "renamed.json") is None
    assert same_numbers.json_drift(a / "same.json", b / "same.json") == (0, 4, 0.0, None)

    capsys.readouterr()
    assert same_numbers.main(["compare", str(a), str(b)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out == [
        "differs: body.csv",
        "differs: nudged.json (1 of 4 numbers differ, largest relative difference "
        f"{worst:.3g} at $.rows[0].carleson_norm)",
        "differs: renamed.json (structure differs)",
        "3 of the files differ",
    ]
