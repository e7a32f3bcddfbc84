import json

import numpy as np
import pytest

from matweight.cli import main, default_manifest_path
from matweight import bmo, fields
from matweight import stopping as stop_mod


@pytest.fixture
def weight_file(tmp_path):
    spec = {"kind": "log_spd", "n": 2, "d": 1, "depth": 5, "seed": 3,
            "amplitude": 0.4}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    out = tmp_path / "w.mwf"
    assert main(["gen", "--spec", str(path), "--out", str(out)]) == 0
    return out


def test_gen_roundtrip_and_ap(tmp_path, capsys, weight_file):
    W = fields.load_field(weight_file)
    assert W.is_weight
    capsys.readouterr()  # drop the gen fixture's output
    rc = main(["ap", "--weight", str(weight_file), "--p", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "characteristic" in out and "witness" in out
    line = next(ln for ln in out.splitlines() if "characteristic" in ln)
    val = float(line.split("=")[1].strip())
    assert np.isclose(val, fields.ap_characteristic(W, 2), rtol=1e-9)


def test_gen_identity_spec(tmp_path, capsys):
    spec = tmp_path / "id.json"
    spec.write_text(json.dumps({"kind": "identity", "n": 2, "d": 1, "depth": 4}))
    out = tmp_path / "id.mwf"
    assert main(["gen", "--spec", str(spec), "--out", str(out)]) == 0
    assert "A_2 = 1" in capsys.readouterr().out
    # dump round-trips bit-exactly
    W = fields.load_field(out)
    again = tmp_path / "id2.mwf"
    fields.dump_field(W, again)
    assert out.read_bytes() == again.read_bytes()


def test_gen_bad_json(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc = main(["gen", "--spec", str(bad), "--out", str(tmp_path / "x.mwf")])
    assert rc == 2


def test_ap_cross_grids(weight_file, capsys):
    rc = main(["ap", "--weight", str(weight_file), "--p", "2", "--grids", "all"])
    assert rc == 0


@pytest.mark.parametrize("p", ["1", "0.5"])
def test_ap_rejects_p_at_most_one(weight_file, capsys, p):
    capsys.readouterr()
    rc = main(["ap", "--weight", str(weight_file), "--p", p])
    assert rc == 2
    assert "error: p must exceed 1" in capsys.readouterr().err


def test_ap_rejects_max_level_above_root(weight_file, capsys):
    capsys.readouterr()
    rc = main(["ap", "--weight", str(weight_file), "--p", "3", "--grids", "all",
               "--max-level", "-1"])
    assert rc == 2
    assert "error: max_level above the window root" in capsys.readouterr().err


@pytest.mark.parametrize("cut", [5, 16 * 3])
def test_truncated_dump_rejected(tmp_path, weight_file, capsys, cut):
    # a cut inside one complex entry and a cut on an entry boundary
    raw = weight_file.read_bytes()
    short = tmp_path / "short.mwf"
    short.write_bytes(raw[:-cut])
    payload = len(raw) - len(raw.split(b"\n", 1)[0]) - 1
    with pytest.raises(fields.FieldError) as info:
        fields.load_field(short)
    msg = str(info.value)
    assert str(short) in msg
    assert f"{payload - cut} bytes" in msg and f"needs {payload}" in msg
    capsys.readouterr()
    assert main(["ap", "--weight", str(short), "--p", "2"]) == 2
    assert "payload has" in capsys.readouterr().err


def test_bmo_command(tmp_path, weight_file, capsys):
    # symbol: reuse the weight as a Hermitian symbol
    out = tmp_path / "r.csv"
    rc = main([
        "bmo", "--which", "condition_b", "--b", str(weight_file),
        "--w", str(weight_file), "--p", "2", "--out", str(out),
    ])
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    assert lines[1].startswith("quantity,p,epsilon,grid,supremum,witness_cube")
    assert lines[2].split(",")[0] == "condition_b"


def test_bmo_buckley_exit_contract(tmp_path, weight_file):
    rc = main([
        "bmo", "--which", "buckley_fkp", "--b", str(weight_file),
        "--w", str(weight_file), "--out", str(tmp_path / "b.csv"),
    ])
    assert rc == 0


def test_verify_default_manifest_exists():
    path = default_manifest_path()
    doc = json.loads(open(path).read())
    assert doc["seeds"]


def test_verify_small_manifest(tmp_path, capsys):
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({
        "n": 2, "d": 1, "depth": 4, "seeds": [0, 1],
        "p_values": [2.0, 3.0], "eps": 1.0, "amplitude": 0.4,
    }))
    out = tmp_path / "verify.csv"
    rc = main(["verify", "--manifest", str(manifest), "--out", str(out)])
    assert rc == 0
    text = out.read_text()
    lines = text.strip().split("\n")
    assert lines[0].startswith("# generated:")
    header = lines[1].split(",")
    assert header == ["quantity", "p", "epsilon", "grid", "supremum",
                      "witness_cube", "a2W", "a2U", "seed"]
    quantities = {ln.split(",")[0] for ln in lines[2:]}
    assert len(quantities) >= 7
    console = capsys.readouterr().out
    assert "audit commutator_decomposition: pass" in console


def test_verify_deterministic_body(tmp_path):
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({
        "n": 1, "d": 1, "depth": 4, "seeds": [0],
        "p_values": [2.0], "eps": 1.0, "amplitude": 0.4,
    }))
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["verify", "--manifest", str(manifest), "--out", str(out1)]) == 0
    assert main(["verify", "--manifest", str(manifest), "--out", str(out2)]) == 0
    body1 = out1.read_text().split("\n", 1)[1]
    body2 = out2.read_text().split("\n", 1)[1]
    assert body1 == body2


def test_duality_command(tmp_path):
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({
        "n": 2, "d": 1, "depth": 4, "seeds": [0, 1], "amplitude": 0.4,
    }))
    out = tmp_path / "dual.csv"
    rc = main(["duality", "--manifest", str(manifest), "--out", str(out)])
    assert rc == 0
    assert "duality_upper_ratio" in out.read_text()


def test_stopping_command(tmp_path, weight_file, capsys):
    rc = main([
        "stopping", "--w", str(weight_file), "--p", "2",
        "--out", str(tmp_path / "forest.json"),
    ])
    assert rc == 0
    assert "lambda" in capsys.readouterr().out
    doc = json.loads((tmp_path / "forest.json").read_text())
    assert "generations" in doc


@pytest.fixture
def stopping_pair(tmp_path):
    """A real W and a complex Hermitian U = Q W' Q^H, dumped."""
    spec = {"kind": "log_spd", "n": 2, "d": 1, "depth": 7, "amplitude": 1.0}
    W = fields.generate_weight(dict(spec, seed=2))
    Wp = fields.generate_weight(dict(spec, seed=12))
    c, s, phase = np.cos(0.6), np.sin(0.6), np.exp(0.9j)
    Q = np.array([[c, -s * np.conj(phase)], [s * phase, c]])
    U = fields.MatrixField(W.window, Q @ Wp.leaves @ Q.conj().T, weight=True)
    paths = tmp_path / "w.mwf", tmp_path / "u.mwf"
    for field, path in zip((W, U), paths):
        fields.dump_field(field, path)
    return paths


@pytest.mark.parametrize("p", ["2", "3"])
def test_stopping_auto_dump_matches_library_forest(tmp_path, stopping_pair, p):
    # the command's dump is byte for byte the dump of the library forest
    # built at the lambda that default_lambda returns
    w, u = stopping_pair
    out = tmp_path / "forest.json"
    rc = main(["stopping", "--w", str(w), "--u", str(u), "--p", p, "--lam", "auto",
               "--out", str(out)])
    assert rc == 0
    W = fields.load_field(w)
    U = fields.load_field(u, window=W.window)
    assert W.leaves.dtype == np.float64 and U.leaves.dtype == np.complex128
    lam = stop_mod.default_lambda(W, U, float(p))
    stop_mod.dump_forest(stop_mod.build(W, U, float(p), lam=lam), tmp_path / "built.json")
    assert out.read_bytes() == (tmp_path / "built.json").read_bytes()


@pytest.mark.parametrize("lam, code", [("nan", 2), ("inf", 2), ("1.5", 0)])
def test_stopping_lambda_must_be_finite(tmp_path, capsys, lam, code):
    # the identity pair never stops, so every finite lambda > 1 passes
    spec = tmp_path / "id.json"
    spec.write_text(json.dumps({"kind": "identity", "n": 2, "d": 1, "depth": 4}))
    w = tmp_path / "id.mwf"
    assert main(["gen", "--spec", str(spec), "--out", str(w)]) == 0
    rc = main(["stopping", "--w", str(w), "--p", "2", "--lam", lam])
    assert rc == code
    if code == 2:
        assert "lambda" in capsys.readouterr().err


def test_jn_command(tmp_path):
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({
        "n": 2, "d": 1, "depth": 4, "seeds": [0, 1],
    }))
    out = tmp_path / "jn.csv"
    rc = main(["jn", "--manifest", str(manifest), "--out", str(out)])
    assert rc == 0
    text = out.read_text()
    assert "jn_left" in text and "vector_jn" in text


def test_thm12_command(tmp_path, weight_file, capsys):
    # Lam = identity, U = the weight (Hermitian): W = U Lam U
    spec = tmp_path / "id.json"
    spec.write_text(json.dumps({"kind": "identity", "n": 2, "d": 1, "depth": 5}))
    lam = tmp_path / "lam.mwf"
    assert main(["gen", "--spec", str(spec), "--out", str(lam)]) == 0
    rc = main([
        "thm12", "--lam-field", str(lam), "--u", str(weight_file), "--p", "2",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "identity error" in out and "pass" in out


def test_missing_file_exit_code(tmp_path):
    rc = main(["ap", "--weight", str(tmp_path / "nope.mwf"), "--p", "2"])
    assert rc == 2


def test_stopping_identity_pair_zero_mass(tmp_path, capsys):
    spec = tmp_path / "id.json"
    spec.write_text(json.dumps({"kind": "identity", "n": 2, "d": 1, "depth": 4}))
    w = tmp_path / "id.mwf"
    assert main(["gen", "--spec", str(spec), "--out", str(w)]) == 0
    rc = main(["stopping", "--w", str(w), "--p", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "generations = 0" in out


def test_verify_gnuplot_script(tmp_path):
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({
        "n": 1, "d": 1, "depth": 4, "seeds": [0], "p_values": [2.0],
    }))
    out = tmp_path / "v.csv"
    gp = tmp_path / "v.gp"
    rc = main([
        "verify", "--manifest", str(manifest), "--out", str(out),
        "--gnuplot", str(gp),
    ])
    assert rc == 0
    assert "plot" in gp.read_text()


def test_bmo_h1_and_eps_sweep(tmp_path, weight_file):
    out = tmp_path / "h1.csv"
    rc = main([
        "bmo", "--which", "h1", "--b", str(weight_file),
        "--w", str(weight_file), "--out", str(out),
    ])
    assert rc == 0
    assert "h1_norm" in out.read_text()
    out2 = tmp_path / "orig.csv"
    rc = main([
        "bmo", "--which", "bmo_original", "--b", str(weight_file),
        "--w", str(weight_file), "--p", "2", "--out", str(out2),
    ])
    assert rc == 0
    body = out2.read_text().strip().split("\n")[2:]
    eps_seen = {ln.split(",")[2] for ln in body}
    assert len(eps_seen) >= 3  # built-in exponent sweep


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_bmo_original_sweep_matches_per_eps_calls(tmp_path, weight_file, monkeypatch, fmt):
    W = fields.load_field(weight_file)
    Q = np.linalg.qr(np.array([[1.0, 2.0 + 1j], [0.5j, -1.0]]))[0]
    u_file = tmp_path / "u.mwf"
    fields.dump_field(
        fields.MatrixField(W.window, Q @ W.leaves[::-1] @ Q.conj().T, weight=True), u_file
    )
    argv = ["bmo", "--which", "bmo_original", "--b", str(weight_file), "--w", str(weight_file),
            "--u", str(u_file), "--p", "3", "--epsilon", "0.3", "--format", fmt, "--out"]
    assert main([*argv, str(tmp_path / "sweep")]) == 0
    sweep = bmo.bmo_original_sweep

    def per_eps(B, W, U, p, epsilons):  # one bmo_original call per eps
        return [sweep(B, W, U, p, [e])[0] for e in epsilons]

    monkeypatch.setattr(bmo, "bmo_original_sweep", per_eps)
    assert main([*argv, str(tmp_path / "per_eps")]) == 0
    got, want = ((tmp_path / name).read_text() for name in ("sweep", "per_eps"))
    if fmt == "csv":  # the first line is the generation time
        got, want = got.split("\n", 1)[1], want.split("\n", 1)[1]
        assert len(got.splitlines()) == 5  # header and eps = 0.1, 0.3, 0.5, 1
    assert got == want


def test_bmo_grids_json(tmp_path, weight_file):
    out = tmp_path / "grids.json"
    rc = main([
        "bmo", "--which", "grids", "--b", str(weight_file),
        "--w", str(weight_file), "--p", "2", "--out", str(out),
    ])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert set(doc["per_grid"]) == {"1", "2"}


def test_dump_from_another_window_rejected(tmp_path, capsys):
    # both fields have 1024 leaves, so only the header tells them apart
    paths = {}
    for name, d, depth in (("W", 1, 10), ("B", 2, 5)):
        spec = tmp_path / f"{name}.json"
        spec.write_text(json.dumps(
            {"kind": "log_spd", "n": 2, "d": d, "depth": depth, "seed": 1}))
        paths[name] = tmp_path / f"{name}.mwf"
        assert main(["gen", "--spec", str(spec), "--out", str(paths[name])]) == 0
    capsys.readouterr()
    rc = main(["bmo", "--which", "condition_b", "--b", str(paths["B"]),
               "--w", str(paths["W"]), "--p", "2"])
    assert rc == 2
    err = capsys.readouterr().err
    assert str(paths["B"]) in err
    assert "d=2, depth=5, root 4/0/0,0" in err
    assert "d=1, depth=10, root 2/0/0" in err


@pytest.mark.parametrize("flag, value", [
    ("--p", "0.5"), ("--p", "1"), ("--p", "nan"), ("--p", "inf"),
    ("--epsilon", "nan"), ("--epsilon", "inf"), ("--epsilon", "0"),
])
def test_bmo_original_rejects_bad_exponents(weight_file, capsys, flag, value):
    # p must lie in (1, inf) and eps be finite and positive, or the
    # oscillation powers are meaningless (nan used to report 0 at the root)
    capsys.readouterr()
    rc = main(["bmo", "--which", "bmo_original", "--b", str(weight_file),
               "--w", str(weight_file), flag, value])
    assert rc == 2
    assert "must" in capsys.readouterr().err


@pytest.mark.parametrize("eps", ["nan", "inf", "0", "-1"])
def test_thm12_rejects_bad_epsilon(tmp_path, weight_file, capsys, eps):
    spec = tmp_path / "id.json"
    spec.write_text(json.dumps({"kind": "identity", "n": 2, "d": 1, "depth": 5}))
    lam = tmp_path / "lam.mwf"
    assert main(["gen", "--spec", str(spec), "--out", str(lam)]) == 0
    capsys.readouterr()
    rc = main(["thm12", "--lam-field", str(lam), "--u", str(weight_file),
               "--p", "2", "--epsilon", eps])
    assert rc == 2
    assert "eps must" in capsys.readouterr().err


@pytest.mark.parametrize("eps", ["nan", "inf", 0.0, -1.0])
def test_jn_rejects_bad_epsilon(tmp_path, capsys, eps):
    # with eps = nan the degenerate-zero hard check used to pass vacuously
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({"n": 2, "d": 1, "depth": 4, "seeds": [0], "eps": eps}))
    rc = main(["jn", "--manifest", str(manifest), "--out", str(tmp_path / "jn.csv")])
    assert rc == 2
    assert "eps must" in capsys.readouterr().err
