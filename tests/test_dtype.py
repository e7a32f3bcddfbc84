"""Dtypes follow the data: real inputs stay float64 from generation to the
dense operator norm, complex ones stay complex128, and the float64 path
agrees with the complex128 path of the same data to rounding."""

import functools
import json

import numpy as np
import pytest

from matweight.dyadic import Window
from matweight.fields import MatrixField, VectorField, dump_field, generate_weight, load_field
from matweight import bmo
from matweight import fields
from matweight import opnorm as onorm
from matweight import transforms as tf

RTOL = 1e-13


def _close(got, want, what):
    got, want = np.asarray(got), np.asarray(want)
    scale = float(np.max(np.abs(want))) if want.size else 0.0
    err = float(np.max(np.abs(got - want))) if want.size else 0.0
    assert err <= RTOL * max(scale, 1e-300), (what, err, scale)


# -- generation and I/O ---------------------------------------------------------


_REAL_SPECS = [
    {"kind": "identity", "n": 2},
    {"kind": "scalar_power", "n": 2, "alphas": [0.5, -0.3]},
    {"kind": "rotation", "n": 2, "theta": {"kind": "linear", "a": 2.0},
     "lambda": [{"kind": "constant", "value": 2.0}, {"kind": "lognormal"}]},
    {"kind": "log_spd", "n": 3, "amplitude": 0.6},
    {"kind": "log_spd", "n": 2, "amplitude": 0.6, "levels": 2},
    {"kind": "leaves", "values": [[[2, 1], [1, 2]]] * 8},
]


@pytest.mark.parametrize("spec", _REAL_SPECS, ids=lambda s: s["kind"])
def test_generate_weight_real_kinds_are_float64(spec):
    W = generate_weight(dict(spec, d=1, depth=3, seed=4))
    assert W.leaves.dtype == np.float64
    for derived in (W.power(0.5), W.inverse(), W.conj_transpose()):
        assert derived.leaves.dtype == np.float64
    assert W.reducing_table(3.0).mats[0].dtype == np.float64


def test_generate_weight_complex_leaves_are_complex128():
    values = [[[2, 1j], [-1j, 2]]] * 8
    W = generate_weight({"kind": "leaves", "values": values, "d": 1, "depth": 3})
    assert W.leaves.dtype == np.complex128
    assert W.power(0.5).leaves.dtype == np.complex128


def test_dump_keeps_complex128_layout_and_loads_real_as_float64(tmp_path):
    W = generate_weight({"kind": "log_spd", "n": 2, "d": 1, "depth": 4, "seed": 1})
    Q = np.array([[1.0, 1.0j], [1.0j, 1.0]]) / np.sqrt(2.0)
    U = MatrixField(W.window, Q @ W.leaves @ Q.conj().T, weight=True)
    f = bmo.random_vector_field(W.window, 2, np.random.default_rng(1))
    for field, dtype in ((W, np.float64), (U, np.complex128), (f, np.float64)):
        path = tmp_path / "field.mwf"
        dump_field(field, path)
        with open(path, "rb") as fh:
            header = json.loads(fh.readline().decode())
            payload = fh.read()
        assert header["magic"] == "matweight-field"
        assert payload == np.asarray(field.leaves, dtype="<c16").tobytes()
        back = load_field(path)
        assert back.leaves.dtype == dtype
        assert np.array_equal(back.leaves, field.leaves)


# -- float64 against complex128 of the same data --------------------------------


@functools.lru_cache(maxsize=None)
def _pair(d, n):
    """Real operands and their complex128 twins (the same values)."""
    rng = np.random.default_rng([d, n, 77])
    win = Window.unit(d, 5 if d == 1 else 3)
    real = {
        "W": bmo.bounded_weight(win, n, rng),
        "U": bmo.bounded_weight(win, n, rng),
        "B": bmo.random_matrix_field(win, n, rng, headroom=1),
        "f": bmo.random_vector_field(win, n, rng, headroom=1),
    }
    twin = {
        "W": MatrixField(win, real["W"].leaves.astype(complex), weight=True),
        "U": MatrixField(win, real["U"].leaves.astype(complex), weight=True),
        "B": MatrixField(win, real["B"].leaves.astype(complex)),
        "f": VectorField(win, real["f"].leaves.astype(complex)),
    }
    return win, real, twin, tf.ShiftMap.random(win, rng)


def _descriptors(ops, smap):
    A = tf.analyze(ops["B"])
    return [
        {"kind": "paraproduct", "B": ops["B"]},
        {"kind": "dual_paraproduct", "B": ops["B"]},
        {"kind": "haar_multiplier", "A": A},
        *({"kind": "conjugated_paraproduct", "A": A, "W": ops["W"], "U": ops["U"], "p": p}
          for p in (2.0, 3.0)),
        {"kind": "haar_shift", "sigma": smap},
        {"kind": "commutator", "B": ops["B"], "sigma": smap},
    ]


_SHAPES = [(1, 1), (1, 2), (1, 3), (2, 2)]


@pytest.mark.parametrize("d, n", _SHAPES)
def test_materialize_real_operands_float64_matches_complex128(d, n):
    win, real, twin, smap = _pair(d, n)
    pairs = list(zip(_descriptors(real, smap), _descriptors(twin, smap)))
    assert {desc["kind"] for desc, _ in pairs} == set(onorm._KERNELS)
    for desc, desc_c in pairs:
        T, Tc = onorm.materialize(desc, win, n), onorm.materialize(desc_c, win, n)
        assert T.matrix.dtype == np.float64
        # the shift has no operand, so its matrix is real either way
        twin_dtype = np.float64 if desc["kind"] == "haar_shift" else np.complex128
        assert Tc.matrix.dtype == twin_dtype
        _close(T.matrix, Tc.matrix, desc["kind"])
    # a complex argument makes the shift's output complex
    assert tf.haar_shift(smap, twin["f"]).leaves.dtype == np.complex128
    assert tf.haar_shift(smap, real["f"]).leaves.dtype == np.float64


@pytest.mark.parametrize("d, n", _SHAPES)
def test_opnorms_float64_match_complex128(d, n):
    win, real, twin, smap = _pair(d, n)
    for desc, desc_c in zip(_descriptors(real, smap), _descriptors(twin, smap)):
        T, Tc = onorm.materialize(desc, win, n), onorm.materialize(desc_c, win, n)
        what = desc["kind"]
        _close(onorm.weighted_opnorm_p2(T, real["W"], real["U"]),
               onorm.weighted_opnorm_p2(Tc, twin["W"], twin["U"]), what)
        if what not in ("paraproduct", "conjugated_paraproduct", "haar_multiplier"):
            continue
        for p in (1.5, 3.0):
            got = onorm.lp_opnorm_estimate(T, real["W"], real["U"], p, budget=25)[0]
            want = onorm.lp_opnorm_estimate(Tc, twin["W"], twin["U"], p, budget=25)[0]
            _close(got, want, (what, p))


@pytest.mark.parametrize("d, n", _SHAPES)
def test_reducing_tables_float64_match_complex128(d, n):
    _, real, twin, _ = _pair(d, n)
    for p in (1.5, 2.0, 3.0):
        for dual in (False, True):
            t = real["W"].reducing_table(p, dual=dual)
            tc = twin["W"].reducing_table(p, dual=dual)
            assert t.mats[0].dtype == np.float64
            for j, (m, mc) in enumerate(zip(t.mats, tc.mats)):
                _close(m, mc, (p, dual, j))
            _close(t.kappa, tc.kappa, (p, dual, "kappa"))


@pytest.mark.parametrize("d, n", _SHAPES)
def test_condition_family_float64_matches_complex128(d, n):
    _, real, twin, _ = _pair(d, n)

    def family(ops):
        W, U, B, f = ops["W"], ops["U"], ops["B"], ops["f"]
        A = tf.analyze(B)
        out = {}
        for p in (1.5, 2.0, 3.0):
            car = bmo.carleson_norm(W, U, A, p)
            out[p] = [
                fields.ap_characteristic(W, p),
                car.supremum, car.extras["psd_constant"],
                bmo.condition_b(W, U, A, p).supremum,
                bmo.bloom_bprime(B, W, U, p).supremum,
                bmo.bloom_cprime(B, W, U, p).supremum,
                bmo.bmo_original(B, W, U, p).supremum,
                bmo.vector_jn(f, W, p)[0].supremum,
            ]
        out["p2"] = [
            bmo.hlw_condition(B, W, U).supremum,
            *(r.supremum for r in bmo.jn_p2_pair(B, W)),
            *(r.supremum for r in bmo.buckley_fkp_summation(W)),
            bmo.a2_spectral(W),
            bmo.h1_norm(B, W, U),
        ]
        return out

    got, want = family(real), family(twin)
    for key in want:
        for i, (g, w) in enumerate(zip(got[key], want[key], strict=True)):
            _close(g, w, (key, i))


def test_real_spectra_and_operator_outputs_stay_float64():
    win, real, twin, smap = _pair(1, 2)
    B, f = real["B"], real["f"]
    spec = tf.analyze(B)
    assert spec.root.dtype == np.float64
    assert all(c.dtype == np.float64 for c in spec.coefs)
    assert tf.synthesize(spec).leaves.dtype == np.float64
    for name, t in tf.shift_commutator_terms(B, smap, f):
        assert t.leaves.dtype == np.float64, name
    assert tf.shift_commutator_terms(twin["B"], smap, f)[0][1].leaves.dtype == np.complex128
    assert tf.weighted_square_function(real["W"], B).dtype == np.float64
    assert tf.mu_multiplier(real["U"], B).leaves.dtype == np.float64
    field, *_ = bmo.extremal_h1_instance(B, real["W"], real["U"])
    assert field.leaves.dtype == np.float64
