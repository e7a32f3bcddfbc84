import csv
import json
import os
import re
import tracemalloc

import numpy as np
import pytest

from matweight.cli import CSV_COLUMNS, _fmt, main, default_manifest_path
from matweight import bmo, fields
from matweight import opnorm as onorm
from matweight.dyadic import Window
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


def test_sparse_overlong_dump_refused_unread(weight_file):
    # a valid header before 1 GiB of holes: the size is compared before any
    # of the payload is read, so the refusal allocates next to nothing
    head = weight_file.read_bytes().split(b"\n", 1)[0]
    os.truncate(weight_file, 2**30)
    tracemalloc.start()
    try:
        with pytest.raises(fields.FieldError) as info:
            fields.load_field(weight_file)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert f"payload has {2**30 - len(head) - 1} bytes" in str(info.value)
    assert peak < 2**20


@pytest.mark.parametrize("edit, key", [
    (lambda h: {"magic": h["magic"]}, "'n' is missing"),
    (lambda h: [1, 2], "not a matweight field dump"),
    (lambda h: {**h, "kind": "tensor"}, "'kind' is missing or bad: 'tensor'"),
    (lambda h: {**h, "d": "1"}, "'d' is missing or bad: '1'"),
    (lambda h: {**h, "depth": 5.0}, "'depth' is missing or bad: 5.0"),
    (lambda h: {**h, "depth": 10**9}, "'depth' is missing or bad: 1000000000"),
    (lambda h: {**h, "root_position": ["a"]}, "'root_position' is missing or bad"),
    (lambda h: {**h, "weight": "yes"}, "'weight' is missing or bad: 'yes'"),
], ids=["missing_key", "not_an_object", "unknown_kind", "text_count", "float_count",
        "huge_depth", "text_position", "text_flag"])
def test_malformed_dump_header_rejected(tmp_path, weight_file, capsys, edit, key):
    head, payload = weight_file.read_bytes().split(b"\n", 1)
    bad = tmp_path / "bad.mwf"
    bad.write_bytes(json.dumps(edit(json.loads(head))).encode() + b"\n" + payload)
    with pytest.raises(fields.FieldError, match=re.escape(key)) as info:
        fields.load_field(bad)
    assert str(bad) in str(info.value)
    capsys.readouterr()
    assert main(["ap", "--weight", str(bad), "--p", "2"]) == 2
    assert f"error: {bad}: " in capsys.readouterr().err


# each matrix role of a command, given the vector dump V, the weight dump W elsewhere
_MATRIX_ROLES = {
    "ap --weight": "ap --weight V --p 2",
    "bmo --w": "bmo --which condition_b --b W --w V",
    "bmo --u": "bmo --which condition_b --b W --w W --u V",
    "bmo --b": "bmo --which condition_b --b V --w W",
    "stopping --w": "stopping --w V",
    "stopping --u": "stopping --w W --u V",
    "thm12 --lam-field": "thm12 --lam-field V --u W",
    "thm12 --u": "thm12 --lam-field W --u V",
}


@pytest.mark.parametrize("role", sorted(_MATRIX_ROLES))
def test_vector_dump_in_a_matrix_role_rejected(tmp_path, weight_file, capsys, role):
    vec = tmp_path / "f.mwf"
    win = fields.load_field(weight_file).window
    fields.dump_field(bmo.random_vector_field(win, 2, np.random.default_rng(4)), vec)
    paths = {"V": str(vec), "W": str(weight_file)}
    capsys.readouterr()
    assert main([paths.get(a, a) for a in _MATRIX_ROLES[role].split()]) == 2
    assert f"error: {vec}: holds a vector field, expected kind 'matrix'" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [
    ("seeds", "abc"), ("seeds", 3), ("seeds", [0, True]), ("seeds", [0, 1.5]), ("seeds", [-1]),
    ("n", 2.5), ("n", 0), ("n", True), ("d", "1"), ("d", -1), ("depth", 4.0),
    ("amplitude", "0.5"), ("amplitude", float("nan")), ("amplitude", False),
    ("char_cap", float("inf")), ("char_cap", None),
    ("p_values", 3), ("p_values", ["x"]), ("p_values", "23"), ("p_values", [2.0, None]),
    ("p", "x"), ("p", [3.0]), ("eps", "x"), ("eps", True),
    ("weight_kind", 3), ("weight_kind", "leaves"),
], ids=lambda v: repr(v))
@pytest.mark.parametrize("command", ["verify", "duality", "jn"])
def test_manifest_value_types_checked(tmp_path, capsys, command, key, value):
    manifest = tmp_path / "m.json"
    good = {"n": 2, "d": 1, "depth": 3, "seeds": [0], "p_values": [2.0]}
    manifest.write_text(json.dumps({**good, key: value}))
    capsys.readouterr()
    assert main([command, "--manifest", str(manifest), "--out", str(tmp_path / "o.csv")]) == 2
    err = capsys.readouterr().err
    assert f"error: manifest key {key!r} must be" in err and "Traceback" not in err


def test_verify_refuses_an_lp_sweep_over_budget(tmp_path, capsys, monkeypatch):
    # the p != 2 lower-bound sweep's size guard is bad input: exit 2
    monkeypatch.setattr(onorm, "_SWEEP_BUDGET", 1)
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({"n": 2, "d": 1, "depth": 3, "seeds": [0], "p_values": [3.0]}))
    capsys.readouterr()
    assert main(["verify", "--manifest", str(manifest), "--out", str(tmp_path / "o.csv")]) == 2
    err = capsys.readouterr().err
    assert "error: the p != 2 lower-bound sweep needs" in err and "Traceback" not in err


def test_verify_refuses_a_lanczos_basis_over_budget(tmp_path, capsys, monkeypatch):
    # the p = 2 norm's Lanczos basis guard is bad input too: exit 2
    monkeypatch.setattr(onorm, "_SWEEP_BUDGET", 1)
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({"n": 2, "d": 1, "depth": 3, "seeds": [0], "p_values": [2.0]}))
    capsys.readouterr()
    assert main(["verify", "--manifest", str(manifest), "--out", str(tmp_path / "o.csv")]) == 2
    err = capsys.readouterr().err
    assert "error: the Lanczos basis needs" in err and "Traceback" not in err


@pytest.mark.parametrize("seeds", [(0, 1), np.array([0, 1]), range(2)], ids=repr)
def test_library_seeds_take_any_integer_sequence(seeds):
    # the type check refuses bad JSON, not the sequences a Python caller passes
    spec = {"n": 2, "d": 1, "depth": 3, "p": 3.0}
    want = bmo.jn_experiment({**spec, "seeds": [0, 1]})
    got = bmo.jn_experiment({**spec, "seeds": seeds})
    assert [r["seed"] for r in got["rows"]] == [0, 1]
    assert [r["a2W"] for r in got["rows"]] == [r["a2W"] for r in want["rows"]]


@pytest.mark.parametrize("extra, key", [
    ({"kind": "log_spd", "levels": "x"}, "levels"),
    ({"kind": "rotation", "theta": 5}, "theta"),
    ({"kind": "rotation", "lambda": [1, 2]}, "lambda"),
    ({"kind": "scalar_power", "alphas": 3}, "alphas"),
    ({"kind": "log_spd", "seed": "a"}, "seed"),
    ({"kind": "log_spd", "n": 0}, "n"),
    ({"kind": "log_spd", "depth": 2.5}, "depth"),
    ({"kind": "rotation", "theta": {"kind": "linear", "a": "x"}}, "a"),
    ({"kind": "rotation", "lambda": [{"kind": "lognormal", "sigma": None}, {}]}, "sigma"),
], ids=lambda v: repr(v))
def test_gen_refuses_malformed_weight_specs(tmp_path, capsys, extra, key):
    # a bad spec value is bad input: exit 2 with the key named, nothing written
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"n": 2, "d": 1, "depth": 3, **extra}))
    out = tmp_path / "w.mwf"
    capsys.readouterr()
    assert main(["gen", "--spec", str(spec), "--out", str(out)]) == 2
    assert f"error: weight spec key {key!r} must be" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("values, message", [
    (None, "weight spec of kind 'leaves' needs the key 'values'"),
    ("x", "weight spec key 'values' must be"),
    ([[1.0, 2.0]], "weight spec key 'values' must be"),
    ([[[1.0]], [[1.0, 2.0]]], "weight spec key 'values' must be"),
], ids=["missing", "string", "two-axes", "ragged"])
def test_gen_refuses_bad_leaves_values(tmp_path, capsys, values, message):
    # a leaves spec without values, or with values that are no stack of
    # square matrices, is bad input: one error line, exit 2, nothing written
    spec = {"kind": "leaves", "d": 1, "depth": 1}
    if values is not None:
        spec["values"] = values
    path, out = tmp_path / "spec.json", tmp_path / "w.mwf"
    path.write_text(json.dumps(spec))
    capsys.readouterr()
    assert main(["gen", "--spec", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1
    assert "Traceback" not in err and not out.exists()


@pytest.mark.parametrize("command", ["gen", "verify", "duality", "jn"])
def test_spec_and_manifest_must_be_json_objects(tmp_path, capsys, command):
    doc = tmp_path / "doc.json"
    doc.write_text("[1]")
    if command == "gen":
        argv = ["--spec", str(doc), "--out", str(tmp_path / "x.mwf")]
    else:
        argv = ["--manifest", str(doc)]
    capsys.readouterr()
    assert main([command, *argv]) == 2
    assert f"error: {doc}: holds a JSON list, not an object" in capsys.readouterr().err


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


def _bmo_json(tmp_path, weight_file, which):
    """(exit code, JSON document) of ``bmo --which which`` on the weight file."""
    out = tmp_path / f"{which}.json"
    rc = main(["bmo", "--which", which, "--b", str(weight_file), "--w", str(weight_file),
               "--format", "json", "--out", str(out)])
    return rc, json.loads(out.read_text())


def test_bmo_fails_on_a_carleson_psd_band_miss(tmp_path, weight_file, monkeypatch):
    carleson = bmo.carleson_norm

    def missed(*args):
        rep = carleson(*args)
        rep.extras["psd_band_ok"] = False
        return rep

    monkeypatch.setattr(bmo, "carleson_norm", missed)
    rc, doc = _bmo_json(tmp_path, weight_file, "carleson")
    assert rc == 1 and doc["hard_ok"] is False


def test_bmo_fails_on_a_negative_buckley_slack(tmp_path, weight_file, monkeypatch):
    summation = bmo.buckley_fkp_summation

    def negative(W):
        fkp, buck, isr = summation(W)
        buck.extras["min_eig_slack"] = -1e-9
        return fkp, buck, isr

    monkeypatch.setattr(bmo, "buckley_fkp_summation", negative)
    rc, doc = _bmo_json(tmp_path, weight_file, "buckley_fkp")
    assert rc == 1 and doc["hard_ok"] is False
    assert doc["reports"][1]["extras"]["min_eig_slack"] == -1e-9


def test_bmo_looks_its_function_up_when_called(tmp_path, weight_file, monkeypatch):
    # a wrapper installed on the module (as a tracer does) must see the call
    calls = []
    carleson = bmo.carleson_norm

    def spy(*args):
        calls.append(args)
        return carleson(*args)

    monkeypatch.setattr(bmo, "carleson_norm", spy)
    rc, doc = _bmo_json(tmp_path, weight_file, "carleson")
    assert rc == 0 and doc["hard_ok"] is True
    assert len(calls) == 1


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


@pytest.mark.parametrize("eps, message", [
    ("nan", "manifest key 'eps' must be a finite number"),
    ("inf", "manifest key 'eps' must be a finite number"),
    (0.0, "eps must be finite and positive"),
    (-1.0, "eps must be finite and positive"),
], ids=["nan", "inf", "0.0", "-1.0"])
def test_jn_rejects_bad_epsilon(tmp_path, capsys, eps, message):
    # with eps = nan the degenerate-zero hard check used to pass vacuously;
    # a JSON string is refused by the manifest's type check, a number out of
    # range by the condition family
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({"n": 2, "d": 1, "depth": 4, "seeds": [0], "eps": eps}))
    rc = main(["jn", "--manifest", str(manifest), "--out", str(tmp_path / "jn.csv")])
    assert rc == 2
    assert message in capsys.readouterr().err


_OPTIONS = {
    "gen": {"--spec", "--out", "--p"},
    "ap": {"--weight", "--p", "--grids", "--max-level"},
    "bmo": {"--which", "--b", "--w", "--u", "--p", "--epsilon", "--out", "--format"},
    "verify": {"--manifest", "--depth", "--seeds", "--out", "--format", "--gnuplot"},
    "duality": {"--manifest", "--depth", "--seeds", "--out", "--format", "--gnuplot"},
    "stopping": {"--w", "--u", "--p", "--lam", "--out"},
    "jn": {"--manifest", "--depth", "--seeds", "--out"},
    "thm12": {"--lam-field", "--u", "--p", "--epsilon", "--out"},
}


def _help(capsys, argv):
    capsys.readouterr()
    with pytest.raises(SystemExit) as info:
        main([*argv, "--help"])
    assert info.value.code == 0
    return capsys.readouterr().out


def test_help_pins_the_command_set(capsys):
    usage = _help(capsys, []).split("\n\n")[0]
    assert set(re.search(r"\{([a-z0-9,]+)\}", usage).group(1).split(",")) == set(_OPTIONS)


@pytest.mark.parametrize("command", sorted(_OPTIONS))
def test_help_pins_each_command_options(capsys, command):
    # a shared-argument refactor must neither add nor drop an option
    found = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", _help(capsys, [command])))
    assert found == _OPTIONS[command] | {"--help"}


@pytest.mark.parametrize("p", ["1", "0.5"])
def test_gen_rejects_bad_p_before_writing(tmp_path, capsys, p):
    spec = tmp_path / "id.json"
    spec.write_text(json.dumps({"kind": "identity", "n": 2, "d": 1, "depth": 4}))
    out = tmp_path / "id.mwf"
    assert main(["gen", "--spec", str(spec), "--out", str(out), "--p", p]) == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def _csv_rows(path):
    """The body of a CSV output as dicts keyed by CSV_COLUMNS."""
    lines = path.read_text().splitlines()
    assert lines[1] == ",".join(CSV_COLUMNS)
    return [dict(zip(CSV_COLUMNS, ln.split(","))) for ln in lines[2:]]


@pytest.mark.parametrize("command", ["verify", "jn", "bmo"])
def test_grid_column_is_the_witness_grid(tmp_path, weight_file, command):
    # a manifest "shift" key used to land in verify's grid column while
    # every witness cube lay on the window's own grid 2^d
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({
        "n": 1, "d": 1, "depth": 3, "seeds": [0], "p_values": [2.0], "shift": 1,
    }))
    out = tmp_path / "out.csv"
    if command == "bmo":
        argv = ["bmo", "--which", "bmo_original", "--b", str(weight_file),
                "--w", str(weight_file)]
    else:
        argv = [command, "--manifest", str(manifest)]
    assert main([*argv, "--out", str(out)]) == 0
    rows = [r for r in _csv_rows(out) if r["witness_cube"]]
    assert len(rows) >= 3
    for row in rows:
        assert row["grid"] == row["witness_cube"].split("/")[0]


def _parent_jn(manifest):
    """The ``jn`` ensemble loop as the command ran it before it moved into
    ``bmo.jn_experiment``: CSV rows as dicts, the reports, the zero check."""
    n = int(manifest.get("n", 2))
    d = int(manifest.get("d", 1))
    depth = int(manifest.get("depth", 6))
    seeds = manifest.get("seeds", list(range(10)))
    p = float(manifest.get("p", 2.0))
    eps = float(manifest.get("eps", 1.0))
    rows, reports = [], []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        win = Window.unit(d, depth)
        W = bmo.bounded_weight(win, n, rng)
        B = bmo.random_matrix_field(win, n, rng)
        f = bmo.random_vector_field(win, n, rng)
        left, right = bmo.jn_p2_pair(B, W, eps)
        wjn, plain = bmo.vector_jn(f, W, p)
        a2W = fields.ap_characteristic(W, 2)
        for rep in (left, right, wjn, plain):
            reports.append(rep)
            rows.append({
                "quantity": rep.quantity, "p": rep.params.get("p", p),
                "epsilon": rep.params.get("eps", ""), "grid": 2**d,
                "supremum": rep.supremum, "witness_cube": rep.witness,
                "a2W": a2W, "a2U": "", "seed": seed,
            })
    win = Window.unit(d, depth)
    rng = np.random.default_rng(0)
    W = bmo.bounded_weight(win, n, rng)
    Bc = fields.MatrixField.constant(win, np.eye(n))
    lz, rz = bmo.jn_p2_pair(Bc, W, eps)
    return rows, reports, lz.supremum == 0.0 and rz.supremum == 0.0


@pytest.mark.parametrize("manifest", [
    {"n": 2, "d": 1, "depth": 4, "seeds": [0, 1]},
    {"n": 1, "d": 2, "depth": 3, "seeds": [3, 4], "p": 3.0, "eps": 0.5},
])
def test_jn_matches_the_parent_loop(tmp_path, manifest):
    rows, reports, zero_ok = _parent_jn(manifest)
    result = bmo.jn_experiment(manifest)
    assert [rep for r in result["rows"] for rep in r["reports"]] == reports
    assert result["zero_ok"] == zero_ok
    path = tmp_path / "m.json"
    path.write_text(json.dumps(manifest))
    out = tmp_path / "jn.csv"
    assert main(["jn", "--manifest", str(path), "--out", str(out)]) == 0
    # compared as CSV rows: d = 2 witness addresses hold commas, so they are quoted
    want = [[_fmt(row[c]) for c in CSV_COLUMNS] for row in rows]
    assert list(csv.reader(out.read_text().splitlines()[2:])) == want


def test_jn_reads_the_manifest_weight_parameters():
    # jn used to draw its weights at the default amplitude and cap whatever
    # the manifest said
    spec = {"n": 2, "d": 1, "depth": 4, "seeds": [3], "amplitude": 1.5, "char_cap": 60.0}
    (row,) = bmo.jn_experiment(spec)["rows"]
    rng = np.random.default_rng(3)
    W = bmo.bounded_weight(Window.unit(1, 4), 2, rng, amplitude=1.5, char_cap=60.0)
    assert row["a2W"] == fields.ap_characteristic(W, 2)
    (default,) = bmo.jn_experiment(dict(spec, amplitude=0.5, char_cap=10.0))["rows"]
    assert default["a2W"] != row["a2W"]


def test_verify_d3_manifest(tmp_path, capsys):
    # a d = 3 window end to end: every identity audit, the commutator
    # decomposition among them, passes and the CSV parses row by row
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({"n": 2, "d": 3, "depth": 2, "seeds": [0, 1]}))
    out = tmp_path / "verify.csv"
    assert main(["verify", "--manifest", str(manifest), "--out", str(out)]) == 0
    audits = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("audit ")]
    assert "audit commutator_decomposition: pass" in audits
    assert all(ln.endswith(": pass") for ln in audits), audits
    header, *rows = csv.reader(out.read_text().splitlines()[1:])
    assert header == CSV_COLUMNS
    assert rows and all(len(row) == len(CSV_COLUMNS) == 9 for row in rows)


@pytest.mark.parametrize("command", ["jn", "verify"])
def test_d2_csv_rows_have_one_field_per_column(tmp_path, command):
    # a d = 2 witness address such as 4/2/3,1 used to be written unquoted,
    # which gave its row one field too many
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({"n": 1, "d": 2, "depth": 3, "seeds": [0], "p_values": [2.0]}))
    out = tmp_path / "out.csv"
    assert main([command, "--manifest", str(manifest), "--out", str(out)]) == 0
    header, *rows = csv.reader(out.read_text().splitlines()[1:])
    assert header == CSV_COLUMNS
    assert rows and all(len(row) == len(CSV_COLUMNS) for row in rows)
    assert any("," in row[CSV_COLUMNS.index("witness_cube")] for row in rows)
