"""The condition family against its per-quantity oracle, and its symmetries."""

import numpy as np
import pytest

from matweight import bmo, opnorm
from matweight import transforms as tf
from matweight.dyadic import Window
from matweight.fields import FieldError, MatrixField, VectorField

import condition_reference as cref
from conftest import foreign_grid_bmo

RTOL = 1e-12


def _unitary(rng, n):
    Z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return np.linalg.qr(Z)[0]


def _conjugated(F, Q, weight=True):
    """Q^* F Q leaf by leaf."""
    return MatrixField(F.window, Q.conj().T @ F.leaves @ Q, weight=weight)


def _setup(rng, d, n, kind):
    win = Window.unit(d, 5 if d == 1 else 3)
    W = bmo.bounded_weight(win, n, rng)
    U = bmo.bounded_weight(win, n, rng)
    B = bmo.random_matrix_field(win, n, rng)
    f = bmo.random_vector_field(win, n, rng)
    if kind == "complex":
        Q = _unitary(rng, n)
        W, U = _conjugated(W, Q), _conjugated(U, Q)
        B = MatrixField(win, B.leaves + 1j * bmo.random_matrix_field(win, n, rng).leaves)
        f = VectorField(win, f.leaves + 1j * bmo.random_vector_field(win, n, rng).leaves)
        if n > 1:
            assert np.max(np.abs(W.leaves.imag)) > 0.01
    return W, U, B, f


def _same(got, want):
    if want == 0:
        assert got == 0
    else:
        assert got == pytest.approx(want, rel=RTOL, abs=0)


def _same_report(got, want):
    assert got.quantity == want.quantity
    assert got.witness == want.witness
    assert got.params == want.params
    _same(got.supremum, want.supremum)
    assert set(got.extras) == set(want.extras)
    for key, value in want.extras.items():
        if isinstance(value, float):
            _same(got.extras[key], value)
        else:
            assert got.extras[key] == value


@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_condition_family_matches_per_quantity_oracle(rng, n, d, p, kind):
    W, U, B, f = _setup(rng, d, n, kind)
    A = tf.analyze(B)
    pairs = [
        (bmo.bmo_original(B, W, U, p), cref.bmo_original(B, W, U, p)),
        (bmo.bmo_original(B, W, U, p, 0.5), cref.bmo_original(B, W, U, p, 0.5)),
        (bmo.condition_b(W, U, A, p), cref.condition_b(W, U, A, p)),
        (bmo.carleson_norm(W, U, A, p), cref.carleson_norm(W, U, A, p)),
        (bmo.bloom_bprime(B, W, U, p), cref.bloom_bprime(B, W, U, p)),
        (bmo.bloom_cprime(B, W, U, p), cref.bloom_cprime(B, W, U, p)),
        *zip(bmo.vector_jn(f, W, p), cref.vector_jn(f, W, p)),
    ]
    if p == 2.0:
        fkp, buckley, isral = bmo.buckley_fkp_summation(W)
        want = cref.buckley_fkp_summation(W)
        pairs += [
            (bmo.hlw_condition(B, W, U), cref.hlw_condition(B, W, U)),
            *zip(bmo.jn_p2_pair(B, W, 0.5), cref.jn_p2_pair(B, W, 0.5)),
            (fkp, want[0]), (buckley, want[1]), (isral, want[2]),
        ]
        _same(bmo.condition_b(W, U, A, 2.0).supremum, cref._avg_condb_value(B, W, U))
    for got, want in pairs:
        _same_report(got, want)
    _same(
        opnorm.haar_multiplier_norm_relation(A, W, U, 2.0)["sup_criterion"],
        cref.haar_multiplier_sup(A, W, U, 2.0),
    )


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("d", [1, 2])
def test_shifted_grid_families_match_oracle(rng, d, p):
    W, U, B, _ = _setup(rng, d, 2, "complex")
    got = bmo.bmo_over_shifted_grids(B, W, U, p, 0.5)
    want = cref.bmo_over_shifted_grids(B, W, U, p, 0.5)
    assert set(got) == set(want) and set(got["per_grid"]) == set(want["per_grid"])
    for t, vals in want["per_grid"].items():
        for key, value in vals.items():
            _same(got["per_grid"][t][key], value)
        for g, w in zip(
            foreign_grid_bmo(B, W, U, p, 0.5, t),
            cref._foreign_grid_bmo(B, W, U, p, 0.5, t),
        ):
            _same(g, w)
    for key in ("max_bmo_original", "max_condition_b"):
        _same(got[key], want[key])


@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("d", [1, 2])
def test_bmo_original_sweep_equals_per_eps_calls(rng, d, p, kind):
    # one norm pass serves the whole sweep, bit for bit
    W, U, B, _ = _setup(rng, d, 2, kind)
    epsilons = [0.1, 0.3, 0.5, 1.0, 2.5]
    sweep = bmo.bmo_original_sweep(B, W, U, p, epsilons)
    assert len(sweep) == len(epsilons)
    for got, eps in zip(sweep, epsilons):
        want = bmo.bmo_original(B, W, U, p, eps)
        assert got.params == {"p": p, "eps": eps}
        assert (got.quantity, got.supremum, got.witness, got.params, got.extras) == (
            want.quantity, want.supremum, want.witness, want.params, want.extras
        )


@pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -1.0])
def test_bmo_original_sweep_checks_every_eps(rng, bad):
    W, U, B, _ = _setup(rng, 1, 2, "real")
    with pytest.raises(FieldError, match="eps must"):
        bmo.bmo_original_sweep(B, W, U, 2.0, [0.5, bad, 1.0])


# -- symmetries of the condition family --------------------------------------------

SYM_RTOL = 1e-13  # every symmetry below held within 3.4e-15 when measured


def _family(W, U, B, f, p, eps=1.0):
    """Every condition-family value at exponent p, by name."""
    A = tf.analyze(B)
    car = bmo.carleson_norm(W, U, A, p)
    out = {
        "condition_b": bmo.condition_b(W, U, A, p).supremum,
        "carleson_norm": car.supremum,
        "carleson_psd": car.extras["psd_constant"],
        "bmo_original": bmo.bmo_original(B, W, U, p, eps).supremum,
        "bloom_bprime": bmo.bloom_bprime(B, W, U, p).supremum,
        "bloom_cprime": bmo.bloom_cprime(B, W, U, p).supremum,
    }
    wjn, plain = bmo.vector_jn(f, W, p)
    out["vector_jn"], out["vector_bmo"] = wjn.supremum, plain.supremum
    if p == 2.0:
        out["hlw_condition"] = bmo.hlw_condition(B, W, U).supremum
        left, right = bmo.jn_p2_pair(B, W, eps)
        out["jn_left"], out["jn_right"] = left.supremum, right.supremum
        for rep in bmo.buckley_fkp_summation(W):
            out[rep.quantity] = rep.supremum
    return out


def _assert_scaled(got, want, factor):
    for key, value in want.items():
        assert value > 0, key
        assert got[key] == pytest.approx(value * factor.get(key, 1.0), rel=SYM_RTOL), key


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("d", [1, 2])
def test_weight_scaling_invariance(rng, d, p):
    # (W, U) -> (cW, cU) leaves every two-weight quantity unchanged; the
    # one-weight John-Nirenberg pair scales as c^-(1+eps) and c^-2
    W, U, B, f = _setup(rng, d, 2, "real")
    c, eps = 3.7, 0.5
    want = _family(W, U, B, f, p, eps)
    cW = MatrixField(W.window, c * W.leaves, weight=True)
    cU = MatrixField(U.window, c * U.leaves, weight=True)
    got = _family(cW, cU, B, f, p, eps)
    _assert_scaled(got, want, {"jn_left": c ** -(1 + eps), "jn_right": c**-2.0})


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("d", [1, 2])
def test_symbol_homogeneity(rng, d, p):
    # B -> 2iB (and f -> 2if) multiplies each quantity by 2^degree
    W, U, B, f = _setup(rng, d, 2, "real")
    eps = 0.5
    want = _family(W, U, B, f, p, eps)
    got = _family(
        W, U, MatrixField(B.window, 2j * B.leaves), VectorField(f.window, 2j * f.leaves), p, eps
    )
    degree = {
        "bmo_original": 1 + eps, "bloom_bprime": p, "bloom_cprime": p / (p - 1),
        "jn_left": 1 + eps, "vector_jn": p, "vector_bmo": 1.0,
        "fkp": 0.0, "buckley": 0.0, "isral_summation": 0.0,
    }
    _assert_scaled(got, want, {k: 2.0 ** degree.get(k, 2.0) for k in want})


@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("d", [1, 2])
def test_unitary_invariance_at_p2(rng, d, kind):
    # (W, U, B, f) -> (Q*WQ, Q*UQ, Q*BQ, Q*f) leaves every spectral-norm
    # quantity unchanged at p = 2, where the reducing operators are exact
    W, U, B, f = _setup(rng, d, 2, kind)
    Q = _unitary(rng, 2)
    want = _family(W, U, B, f, 2.0)
    got = _family(
        _conjugated(W, Q), _conjugated(U, Q), _conjugated(B, Q, weight=False),
        VectorField(f.window, f.leaves @ Q.conj()), 2.0,
    )
    _assert_scaled(got, want, {})
