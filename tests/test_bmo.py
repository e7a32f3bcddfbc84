import numpy as np
import pytest

from matweight.dyadic import Window
from matweight.fields import MatrixField, VectorField, ap_characteristic
from matweight import bmo, fields
from matweight import transforms as tf

import grid_reference as grid_ref
import scalar_reference as ref
from conftest import (
    family_ap, foreign_grid_bmo, random_scalar_weight, scalar_field, scalar_vector,
)


def scalar_coef_map(win, b_vals, depth):
    """HaarSpectrum of a scalar symbol as a 1x1 coefficient map plus dict."""
    B = scalar_field(win, b_vals)
    A = tf.analyze(B)
    a = {}
    for j in range(depth):
        for k in range(2**j):
            a[(j, k)] = float(A.coefs[j][k, 0, 0, 0].real)
    return A, a


# -- degenerate exact zeros ------------------------------------------------------


def test_everything_vanishes_for_constant_symbol(rng):
    win = Window.unit(1, 4)
    W = bmo.bounded_weight(win, 2, rng)
    U = bmo.bounded_weight(win, 2, rng)
    B = MatrixField.constant(win, np.array([[1.0, 2.0], [2.0, -3.0]]))
    A = tf.analyze(B)
    assert bmo.bmo_original(B, W, U, 2.0).supremum == 0.0
    assert bmo.carleson_norm(W, U, A, 2.0).supremum == 0.0
    assert bmo.condition_b(W, U, A, 2.0).supremum == 0.0
    assert bmo.hlw_condition(B, W, U).supremum == 0.0
    assert bmo.bloom_bprime(B, W, U, 2.0).supremum == 0.0
    assert bmo.bloom_cprime(B, W, U, 2.0).supremum == 0.0
    left, right = bmo.jn_p2_pair(B, W)
    assert left.supremum == 0.0 and right.supremum == 0.0
    f = VectorField.constant(win, np.array([1.0, 5.0]))
    wjn, plain = bmo.vector_jn(f, W, 2.0)
    assert wjn.supremum == 0.0 and plain.supremum == 0.0
    fkp, buck, isr = bmo.buckley_fkp_summation(MatrixField.identity(win, 2))
    assert fkp.supremum == 0.0 and buck.supremum == 0.0 and isr.supremum == 0.0


# -- scalar oracle agreement ------------------------------------------------------


def test_scalar_oracles_all_quantities(rng):
    depth = 4
    win = Window.unit(1, depth)
    for p in (2.0, 3.0, 1.5):
        w_vals = random_scalar_weight(rng, depth)
        u_vals = random_scalar_weight(rng, depth)
        b_vals = rng.standard_normal(2**depth)
        W = scalar_field(win, w_vals, weight=True)
        U = scalar_field(win, u_vals, weight=True)
        B = scalar_field(win, b_vals)
        A, a = scalar_coef_map(win, b_vals, depth)
        assert np.isclose(
            bmo.carleson_norm(W, U, A, p).supremum,
            ref.carleson(a, w_vals, u_vals, p, depth),
            rtol=1e-9,
        )
        assert np.isclose(
            bmo.condition_b(W, U, A, p).supremum,
            ref.condition_b(a, w_vals, u_vals, p, depth),
            rtol=1e-9,
        )
        assert np.isclose(
            bmo.bloom_bprime(B, W, U, p).supremum,
            ref.bloom_bprime(b_vals, w_vals, u_vals, p, depth),
            rtol=1e-9,
        )
        assert np.isclose(
            bmo.bloom_cprime(B, W, U, p).supremum,
            ref.bloom_cprime(b_vals, w_vals, u_vals, p, depth),
            rtol=1e-9,
        )
        assert np.isclose(
            bmo.bmo_original(B, W, U, p, 1.0).supremum,
            ref.bmo_original(b_vals, w_vals, u_vals, p, 1.0, depth),
            rtol=1e-9,
        )
    # p = 2 only quantities
    w_vals = random_scalar_weight(rng, depth)
    u_vals = random_scalar_weight(rng, depth)
    b_vals = rng.standard_normal(2**depth)
    phi_vals = rng.standard_normal(2**depth)
    W = scalar_field(win, w_vals, weight=True)
    U = scalar_field(win, u_vals, weight=True)
    B = scalar_field(win, b_vals)
    assert np.isclose(
        bmo.hlw_condition(B, W, U).supremum,
        ref.hlw(b_vals, w_vals, u_vals, depth),
        rtol=1e-9,
    )
    fkp, buck, isr = bmo.buckley_fkp_summation(W)
    assert np.isclose(fkp.supremum, ref.fkp(w_vals, depth), rtol=1e-9)
    assert np.isclose(buck.supremum, ref.buckley(w_vals, depth), rtol=1e-9)
    assert np.isclose(isr.supremum, ref.isral_summation(w_vals, depth), rtol=1e-9)
    Phi = scalar_field(win, phi_vals)
    assert np.isclose(
        bmo.h1_norm(Phi, W, U), ref.h1_norm(phi_vals, w_vals, u_vals, depth),
        rtol=1e-9,
    )
    left, right = bmo.jn_p2_pair(B, W, eps=1.0)
    assert np.isclose(left.supremum, ref.jn_left(b_vals, w_vals, 1.0, depth), rtol=1e-9)
    assert np.isclose(right.supremum, ref.jn_right(b_vals, w_vals, depth), rtol=1e-9)
    f = scalar_vector(win, rng.standard_normal(2**depth))
    wjn, _ = bmo.vector_jn(f, W, 2.0)
    assert np.isclose(
        wjn.supremum, ref.vector_jn(f.leaves[:, 0].real, w_vals, 2.0, depth),
        rtol=1e-9,
    )


# -- structural identities ---------------------------------------------------------


def test_carleson_psd_band(rng):
    win = Window.unit(1, 5)
    for p in (2.0, 3.0):
        W = bmo.bounded_weight(win, 2, rng)
        U = bmo.bounded_weight(win, 2, rng)
        B = bmo.random_matrix_field(win, 2, rng)
        rep = bmo.carleson_norm(W, U, tf.analyze(B), p)
        assert rep.extras["psd_band_ok"]
        C, Bv = rep.extras["psd_constant"], rep.supremum
        assert C <= Bv * (1 + 1e-8)
        assert Bv <= 2 * C * (1 + 1e-8)


def test_carleson_single_coefficient_hand_case(rng):
    # one unit coefficient at cube I: each ancestor K contributes
    # ||V_I(W) V_K(U)^{-1}||^2 / |K|
    depth = 4
    win = Window.unit(1, depth)
    W = bmo.bounded_weight(win, 2, rng)
    U = bmo.bounded_weight(win, 2, rng)
    A = tf.HaarSpectrum.zeros(win, (2, 2))
    jI, kI = 3, 5
    A.coefs[jI][kI, 0] = np.eye(2)
    rep = bmo.carleson_norm(W, U, A, 2.0)
    tw, tu = W.reducing_table(2.0), U.reducing_table(2.0)
    best = 0.0
    for jK in range(jI + 1):
        kK = kI >> (jI - jK)
        M = tw.mats[jI][kI] @ tu.inv(jK)[kK]
        val = np.linalg.norm(M, 2) ** 2 / win.volumes[jK]
        best = max(best, float(val))
    assert np.isclose(rep.supremum, best, rtol=1e-10)


def test_condition_b_within_band_of_carleson(rng):
    win = Window.unit(1, 5)
    W = bmo.bounded_weight(win, 2, rng)
    U = bmo.bounded_weight(win, 2, rng)
    B = bmo.random_matrix_field(win, 2, rng)
    A = tf.analyze(B)
    for p in (2.0, 3.0):
        cb = bmo.condition_b(W, U, A, p).supremum
        car = bmo.carleson_norm(W, U, A, p).supremum
        assert 0 < cb and 0 < car
        assert 1e-3 < cb / car < 1e3


def test_bloom_bprime_equals_dual_cprime(rng):
    # (c') of the dual quadruple is exactly (b') by the reducing-operator
    # duality choice
    win = Window.unit(1, 4)
    for p in (2.0, 3.0, 1.5):
        pp = p / (p - 1.0)
        W = bmo.bounded_weight(win, 2, rng)
        U = bmo.bounded_weight(win, 2, rng)
        B = bmo.random_matrix_field(win, 2, rng)
        bprime = bmo.bloom_bprime(B, W, U, p).supremum
        Bstar = B.conj_transpose()
        Wd = W.power(1.0 - pp)
        Ud = U.power(1.0 - pp)
        cprime_dual = bmo.bloom_cprime(Bstar, Ud, Wd, pp).supremum
        assert np.isclose(bprime, cprime_dual, rtol=1e-8)


def test_buckley_psd_slack(rng):
    win = Window.unit(1, 5)
    W = bmo.bounded_weight(win, 2, rng)
    _, buck, _ = bmo.buckley_fkp_summation(W)
    assert buck.extras["min_eig_slack"] >= -1e-10


def test_h1_single_mode_hand_value():
    win = Window.unit(1, 4)
    spec = tf.HaarSpectrum.zeros(win, (2, 2))
    jI, kI = 2, 1
    E11 = np.zeros((2, 2))
    E11[0, 0] = 1.0
    spec.coefs[jI][kI, 0] = E11
    Phi = tf.synthesize(spec)
    Iw = MatrixField.identity(win, 2)
    # S_D of one unit mode integrates to |I|^{1/2}
    assert np.isclose(bmo.h1_norm(Phi, Iw, Iw), np.sqrt(win.volumes[jI]), rtol=1e-12)
    assert bmo.h1_norm(MatrixField.constant(win, np.zeros((2, 2))), Iw, Iw) == 0.0


def test_frobenius_pairing_modes_and_parseval(rng):
    win = Window.unit(1, 4)
    spec1 = tf.HaarSpectrum.zeros(win, (2, 2))
    spec2 = tf.HaarSpectrum.zeros(win, (2, 2))
    E11 = np.zeros((2, 2)); E11[0, 0] = 1.0
    spec1.coefs[1][0, 0] = E11
    spec2.coefs[1][0, 0] = E11
    a = tf.synthesize(spec1)
    b = tf.synthesize(spec2)
    assert np.isclose(bmo.frobenius_pairing(a, b).real, 1.0, atol=1e-12)
    spec2b = tf.HaarSpectrum.zeros(win, (2, 2))
    spec2b.coefs[2][1, 0] = E11
    c = tf.synthesize(spec2b)
    assert abs(bmo.frobenius_pairing(a, c)) < 1e-13
    Phi = bmo.random_matrix_field(win, 2, rng)
    B = bmo.random_matrix_field(win, 2, rng)
    sp = bmo.frobenius_pairing(Phi, B)
    ss = bmo.frobenius_pairing_spectral(Phi, B)
    assert abs(sp - ss) < 1e-10 * max(1.0, abs(sp))


def test_extremal_instance_identity_and_bound(rng):
    win = Window.unit(1, 5)
    for _ in range(5):
        W = bmo.bounded_weight(win, 2, rng)
        U = bmo.bounded_weight(win, 2, rng)
        B = bmo.random_matrix_field(win, 2, rng)
        fld, pair, predicted, h1S, bound = bmo.extremal_h1_instance(B, W, U)
        assert np.isclose(abs(pair), predicted, rtol=1e-10)
        assert h1S <= bound * (1 + 1e-9)
        # the sequence norm is really 1
        spec = tf.analyze(fld)
        aW, aU = W.level_averages(), U.level_averages()
        mass = 0.0
        for j in range(win.depth):
            from matweight.fields import _mat_isqrt, _mat_sqrt

            S = np.einsum(
                "kab,ksbc,kcd->ksad", _mat_isqrt(aW[j]), spec.coefs[j],
                _mat_sqrt(aU[j]),
            )
            mass += float(np.sum(np.abs(S) ** 2))
        assert np.isclose(mass, 1.0, rtol=1e-9)


def test_extremal_instance_zero_symbol():
    win = Window.unit(1, 3)
    Iw = MatrixField.identity(win, 2)
    B = MatrixField.constant(win, np.eye(2))
    _, pair, predicted, h1S, bound = bmo.extremal_h1_instance(B, Iw, Iw)
    assert pair == 0.0 and predicted == 0.0 and h1S == 0.0


def test_duality_experiment_small():
    rep = bmo.duality_experiment(
        {"n": 2, "d": 1, "depth": 4, "seeds": [0, 1, 2], "amplitude": 0.4}
    )
    assert len(rep["rows"]) == 3
    for row in rep["rows"]:
        assert row["extremal_h1_ok"]
        assert np.isfinite(row["upper_ratio"])
        assert row["a2W"] <= 10.0
    assert rep["upper_ratio_ceiling"] < np.inf


def test_duality_zero_field_gives_zero_ratio(rng):
    win = Window.unit(1, 3)
    W = bmo.bounded_weight(win, 2, rng)
    Z = MatrixField.constant(win, np.zeros((2, 2)))
    B = bmo.random_matrix_field(win, 2, rng)
    assert bmo.frobenius_pairing(Z, B) == 0.0
    assert bmo.h1_norm(Z, W, W) == 0.0


# -- shifted grids ------------------------------------------------------------------


def test_grid_sweep_constant_fields_identical():
    win = Window.unit(1, 4)
    W = MatrixField.constant(win, np.diag([1.0, 3.0]), weight=True)
    U = MatrixField.constant(win, np.diag([2.0, 0.5]), weight=True)
    B = MatrixField.constant(win, np.array([[0.0, 1.0], [1.0, 0.0]]))
    sweep = bmo.bmo_over_shifted_grids(B, W, U, 2.0)
    vals = [v["bmo_original"] for v in sweep["per_grid"].values()]
    assert all(v == 0.0 for v in vals)
    cb = [v["condition_b"] for v in sweep["per_grid"].values()]
    assert all(v == 0.0 for v in cb)


def test_grid_sweep_finiteness_agreement(rng):
    win = Window.unit(1, 4)
    W = bmo.bounded_weight(win, 2, rng)
    U = bmo.bounded_weight(win, 2, rng)
    B = bmo.random_matrix_field(win, 2, rng)
    for p in (2.0, 3.0, 1.5):
        sweep = bmo.bmo_over_shifted_grids(B, W, U, p)
        assert set(sweep["per_grid"]) == {1, 2}
        for v in sweep["per_grid"].values():
            assert 0 < v["bmo_original"] < np.inf
            assert 0 < v["condition_b"] < np.inf
    # the own-grid entry matches the direct computation
    sweep = bmo.bmo_over_shifted_grids(B, W, U, 2.0)
    own = sweep["per_grid"][win.grid.shift]
    assert np.isclose(own["bmo_original"], bmo.bmo_original(B, W, U, 2.0).supremum)


def test_grid_sweep_2d_runs(rng):
    win = Window.unit(2, 2)
    W = bmo.bounded_weight(win, 2, rng, amplitude=0.3)
    U = MatrixField.identity(win, 2)
    B = bmo.random_matrix_field(win, 2, rng)
    sweep = bmo.bmo_over_shifted_grids(B, W, U, 2.0)
    assert set(sweep["per_grid"]) == {1, 2, 3, 4}
    for v in sweep["per_grid"].values():
        assert np.isfinite(v["bmo_original"]) and np.isfinite(v["condition_b"])


# -- pipeline -------------------------------------------------------------------------


def test_pipeline_unitary_constant():
    win = Window.unit(1, 4)
    Lam = MatrixField.identity(win, 2)
    # a constant reflection: unitary and Hermitian
    R = np.array([[0.6, 0.8], [0.8, -0.6]])
    U = MatrixField.constant(win, R)
    out = bmo.matrix_weight_theorem_pipeline(Lam, U, 2.0)
    assert np.max(np.abs(out["W"].leaves - np.eye(2))) < 1e-12
    assert out["identity_ok"]
    assert out["bmo"].supremum == 0.0


def test_pipeline_scalar_hand_formula(rng):
    depth = 4
    win = Window.unit(1, depth)
    lam_vals = random_scalar_weight(rng, depth)
    u_vals = rng.standard_normal(2**depth) + 3.0
    Lam = scalar_field(win, lam_vals, weight=True)
    U = scalar_field(win, u_vals)
    for p in (2.0, 3.0):
        out = bmo.matrix_weight_theorem_pipeline(Lam, U, p)
        assert out["identity_ok"]
        expect = lam_vals * np.abs(u_vals) ** 2  # (u lam^{2/p} u)^{p/2} = lam |u|^p
        expect = (np.abs(u_vals) ** 2 * lam_vals ** (2.0 / p)) ** (p / 2.0)
        assert np.max(np.abs(out["W"].leaves[:, 0, 0].real - expect)) < 1e-10


def test_pipeline_special_case_reports_summation(rng):
    win = Window.unit(1, 5)
    W = bmo.bounded_weight(win, 2, rng)
    out = bmo.matrix_weight_theorem_pipeline(W.inverse(), W, 2.0)
    # W_built = (W Lam W) with Lam = W^{-1} gives back W
    assert np.max(np.abs(out["W"].leaves - W.leaves)) < 1e-8
    assert out["identity_ok"]
    assert "buckley" in out and "fkp" in out and "isral" in out
    assert np.isfinite(out["buckley"].supremum)
    assert np.isfinite(out["fkp"].supremum)
    assert out["bmo"].supremum < np.inf


def test_pipeline_eigensolves_the_constructed_field_once(rng, monkeypatch):
    # U^* Lam^{2/p} U is checked for positivity once, by the constructor of
    # the weight the pipeline builds, so no leaves are solved twice.
    win = Window.unit(1, 4)
    Lam, U = bmo.bounded_weight(win, 2, rng), bmo.bounded_weight(win, 2, rng)
    solved = []
    eigvalsh = np.linalg.eigvalsh

    def spy(a, *args, **kwargs):
        solved.append(np.array(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    for p in (2.0, 3.0):
        solved.clear()
        assert bmo.matrix_weight_theorem_pipeline(Lam, U, p)["identity_ok"]
        assert solved
        for i, a in enumerate(solved):
            assert not any(b.shape == a.shape and np.array_equal(a, b) for b in solved[:i]), p


def test_pipeline_rejects_singular_u(rng):
    from matweight.fields import NotPositiveDefiniteError

    win = Window.unit(1, 3)
    Lam = MatrixField.identity(win, 2)
    U = MatrixField.constant(win, np.diag([1.0, 0.0]))
    with pytest.raises(NotPositiveDefiniteError):
        bmo.matrix_weight_theorem_pipeline(Lam, U, 2.0)


# -- reports and ensembles --------------------------------------------------------------


def test_report_witness_attains(rng):
    depth = 4
    win = Window.unit(1, depth)
    w_vals = random_scalar_weight(rng, depth)
    b_vals = rng.standard_normal(2**depth)
    W = scalar_field(win, w_vals, weight=True)
    B = scalar_field(win, b_vals)
    rep = bmo.bmo_original(B, W, W, 2.0)
    j, k = win.rel_index(_cube_from_address(win, rep.witness))
    sl = ref.leaf_slice(j, k, depth)
    aw = np.mean(w_vals[sl] ** 0.5)
    bj = np.mean(b_vals[sl])
    val = float(np.mean((aw * np.abs(b_vals[sl] - bj) / aw) ** 2))
    assert np.isclose(val, rep.supremum, rtol=1e-9)


def _cube_from_address(win, address):
    from matweight.dyadic import DyadicCube, DyadicGrid

    t, lvl, coords = address.split("/")
    grid = DyadicGrid(win.d, int(t))
    return DyadicCube(grid, int(lvl), tuple(int(c) for c in coords.split(",")))


def test_equivalence_experiment_small():
    out = bmo.equivalence_experiment(
        {
            "n": 2,
            "d": 1,
            "depth": 4,
            "seeds": [0, 1],
            "p_values": [2.0, 3.0],
            "amplitude": 0.4,
        }
    )
    assert len(out["rows"]) == 4
    for row in out["rows"]:
        assert row["psd_band_ok"]
        for key in ("carleson_norm", "condition_b", "bloom_bprime",
                    "bloom_cprime", "bmo_original", "pi_opnorm_sq"):
            assert row[key] > 0
        if row["p"] == 2.0:
            assert "hlw_condition" in row
            assert row["pi_opnorm_exact"]
    for band in out["bands"].values():
        assert np.isfinite(band) and band >= 1.0


def test_foreign_grid_machinery_matches_own_grid(rng):
    # evaluating the window's own grid through the piecewise path must
    # reproduce the exact fast path
    for win in (Window.unit(1, 4), Window.unit(2, 3)):
        W = bmo.bounded_weight(win, 2, rng)
        U = bmo.bounded_weight(win, 2, rng)
        B = bmo.random_matrix_field(win, 2, rng)
        own_shift = win.grid.shift
        for p in (2.0, 3.0):
            bo, cb = foreign_grid_bmo(B, W, U, p, 1.0, own_shift)
            assert np.isclose(bo, bmo.bmo_original(B, W, U, p, 1.0).supremum, rtol=1e-9)
            assert np.isclose(
                cb, bmo.condition_b(W, U, tf.analyze(B), p).supremum, rtol=1e-9
            )


def _rotated(F, Q):
    return MatrixField(F.window, Q @ F.leaves @ Q.conj().T, weight=True)


def _random_unitary(rng):
    Q, _ = np.linalg.qr(
        rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    )
    return Q


def test_foreign_grid_machinery_matches_own_grid_complex_weights(rng):
    # complex Hermitian weights at p != 2 need the complex direction net on
    # the piecewise path too, or its reducing operators drift off the table's
    for win in (Window.unit(1, 5), Window.unit(2, 3)):
        Q = _random_unitary(rng)
        W = _rotated(bmo.bounded_weight(win, 2, rng), Q)
        U = _rotated(bmo.bounded_weight(win, 2, rng), Q)
        assert np.max(np.abs(W.leaves.imag)) > 0.1
        B = bmo.random_matrix_field(win, 2, rng)
        _, cb = foreign_grid_bmo(B, W, U, 3.0, 1.0, win.grid.shift)
        assert np.isclose(
            cb, bmo.condition_b(W, U, tf.analyze(B), 3.0).supremum, rtol=1e-9
        )


@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("d, depth", [(1, 5), (2, 3)])
def test_foreign_grid_paths_match_per_cube_oracle(rng, d, depth, p, kind):
    # the per-level A_p, bmo_original and condition (b) on every shifted
    # grid reproduce the cube-by-cube reference, witnesses included
    win = Window.unit(d, depth)
    W = bmo.bounded_weight(win, 2, rng)
    U = bmo.bounded_weight(win, 2, rng)
    if kind == "complex":
        Q = _random_unitary(rng)
        W, U = _rotated(W, Q), _rotated(U, Q)
        assert np.max(np.abs(W.leaves.imag)) > 0.1
    B = bmo.random_matrix_field(win, 2, rng)
    for t in range(1, 2**d + 1):
        val, cube = family_ap(fields._ShiftedGrid(win, t, depth), W, p)
        want_val, want_cube = grid_ref.foreign_grid_ap(W, p, t, depth)
        assert np.isclose(val, want_val, rtol=1e-12, atol=0)
        assert cube.address == want_cube.address
        np.testing.assert_allclose(
            foreign_grid_bmo(B, W, U, p, 1.0, t),
            grid_ref.foreign_grid_bmo(B, W, U, p, 1.0, t),
            rtol=1e-12,
        )


def test_equivalence_experiment_computes_a2_once_per_seed(monkeypatch):
    spec = {"n": 2, "d": 1, "depth": 3, "seeds": [0, 1], "p_values": [2.0, 3.0, 1.5]}
    calls = {"outside": 0, "inside": 0}
    real_ap, real_bounded = bmo.ap_characteristic, bmo.bounded_weight
    where = ["outside"]

    def spy_ap(*args, **kwargs):
        calls[where[-1]] += 1
        return real_ap(*args, **kwargs)

    def spy_bounded(*args, **kwargs):
        where.append("inside")
        try:
            return real_bounded(*args, **kwargs)
        finally:
            where.pop()

    monkeypatch.setattr(bmo, "ap_characteristic", spy_ap)
    monkeypatch.setattr(bmo, "bounded_weight", spy_bounded)
    rows = bmo.equivalence_experiment(spec)["rows"]
    assert calls["outside"] == 2 * len(spec["seeds"])
    assert calls["inside"] >= 2 * len(spec["seeds"])
    for seed in spec["seeds"]:
        rng = np.random.default_rng(seed)
        win = Window.unit(1, 3)
        W = real_bounded(win, 2, rng, amplitude=0.5, char_cap=10.0)
        U = real_bounded(win, 2, rng, amplitude=0.5, char_cap=10.0)
        for row in (r for r in rows if r["seed"] == seed):
            assert row["a2W"] == real_ap(W, 2) and row["a2U"] == real_ap(U, 2)


def test_level_set_diagnostic(rng):
    win = Window.unit(1, 5)
    W = bmo.bounded_weight(win, 2, rng)
    U = bmo.bounded_weight(win, 2, rng)
    Phi = bmo.random_matrix_field(win, 2, rng)
    levels = bmo.square_function_level_sets(Phi, W, U)
    assert levels
    measures = [m for _, m in levels]
    assert all(a >= b for a, b in zip(measures, measures[1:]))
    assert measures[0] <= win.volumes[0] + 1e-15
    Z = bmo.square_function_level_sets(
        __import__("matweight.fields", fromlist=["MatrixField"]).MatrixField.constant(
            win, np.zeros((2, 2))
        ),
        W, U,
    )
    assert Z == []


def test_hlw_identity_weights_is_carleson_psd(rng):
    # with both weights trivial the testing condition collapses to the
    # PSD-form Carleson constant of the symbol's own coefficients
    win = Window.unit(1, 4)
    Iw = MatrixField.identity(win, 2)
    B = bmo.random_matrix_field(win, 2, rng)
    A = tf.analyze(B)
    hlw = bmo.hlw_condition(B, Iw, Iw).supremum
    psd = bmo.carleson_norm(Iw, Iw, A, 2.0).extras["psd_constant"]
    assert np.isclose(hlw, psd, rtol=1e-9)


def test_fkp_grows_along_power_weight_sweep():
    from matweight.fields import generate_weight

    rows = []
    for alpha in (0.2, 0.5, 0.8):
        W = generate_weight(
            {"kind": "scalar_power", "n": 1, "alphas": [alpha], "d": 1,
             "depth": 8}
        )
        fkp, _, _ = bmo.buckley_fkp_summation(W)
        rows.append((ap_characteristic(W, 2), fkp.supremum))
    # recorded trend: both the characteristic and the square-sum grow
    chars = [c for c, _ in rows]
    fkps = [f for _, f in rows]
    assert chars == sorted(chars)
    assert fkps == sorted(fkps)
    assert all(np.isfinite(f) and f > 0 for f in fkps)


def test_carleson_matrix_bruteforce_n2(rng):
    # slow pure-loop reference over explicit (K, I) ancestor pairs guards the
    # level-batched accumulation
    depth = 3
    win = Window.unit(1, depth)
    W = bmo.bounded_weight(win, 2, rng)
    U = bmo.bounded_weight(win, 2, rng)
    B = bmo.random_matrix_field(win, 2, rng)
    A = tf.analyze(B)
    p = 3.0
    tw, tu = W.reducing_table(p), U.reducing_table(p)
    best = 0.0
    for jK in range(depth):
        for kK in range(win.cubes_at(jK)):
            total = 0.0
            for jI in range(jK, depth):
                for kI in range(win.cubes_at(jI)):
                    if jI > jK and (kI >> (jI - jK)) != kK:
                        continue
                    if jI == jK and kI != kK:
                        continue
                    for s in range(win.nsig):
                        M = tw.mats[jI][kI] @ A.coefs[jI][kI, s] @ tu.inv(jK)[kK]
                        total += np.linalg.norm(M, 2) ** 2
            best = max(best, total / win.volumes[jK])
    assert np.isclose(bmo.carleson_norm(W, U, A, p).supremum, best, rtol=1e-10)


def test_condition_b_matrix_bruteforce_n2(rng):
    depth = 3
    win = Window.unit(1, depth)
    W = bmo.bounded_weight(win, 2, rng)
    U = bmo.bounded_weight(win, 2, rng)
    B = bmo.random_matrix_field(win, 2, rng)
    A = tf.analyze(B)
    p = 1.5
    tw, tu = W.reducing_table(p), U.reducing_table(p)
    best = 0.0
    for jJ in range(depth):
        for kJ in range(win.cubes_at(jJ)):
            total = 0.0
            for jI in range(jJ, depth):
                for kI in range(win.cubes_at(jI)):
                    anc = kI >> (jI - jJ)
                    if anc != kJ:
                        continue
                    for s in range(win.nsig):
                        M = tw.mats[jI][kI] @ A.coefs[jI][kI, s] @ tu.inv(jI)[kI]
                        total += np.linalg.norm(M, 2) ** 2
            best = max(best, total / win.volumes[jJ])
    assert np.isclose(bmo.condition_b(W, U, A, p).supremum, best, rtol=1e-10)


def test_sweep_from_shifted_home_grid(rng):
    # the window itself lives on a shifted grid; the sweep covers both grids
    win = Window.unit(1, 4, shift=1)
    W = bmo.bounded_weight(win, 2, rng)
    U = bmo.bounded_weight(win, 2, rng)
    B = bmo.random_matrix_field(win, 2, rng)
    sweep = bmo.bmo_over_shifted_grids(B, W, U, 2.0)
    assert set(sweep["per_grid"]) == {1, 2}
    own = sweep["per_grid"][1]
    assert np.isclose(own["bmo_original"], bmo.bmo_original(B, W, U, 2.0).supremum)
    assert all(np.isfinite(v["condition_b"]) for v in sweep["per_grid"].values())


def test_extremal_instance_deeper_cube(rng):
    win = Window.unit(1, 5)
    W = bmo.bounded_weight(win, 2, rng)
    U = bmo.bounded_weight(win, 2, rng)
    B = bmo.random_matrix_field(win, 2, rng)
    for root in ((1, 1), (2, 3), (3, 0)):
        fld, pair, predicted, h1S, bound = bmo.extremal_h1_instance(
            B, W, U, root=root
        )
        assert np.isclose(abs(pair), predicted, rtol=1e-10)
        assert h1S <= bound * (1 + 1e-9)
        # the field is supported inside J
        j, k = root
        idx = win.block_view(np.arange(win.leafcount), j)[k]
        mask = np.ones(win.leafcount, dtype=bool)
        mask[idx] = False
        assert np.max(np.abs(fld.leaves[mask])) < 1e-13
        # the same cube given as a window cube is the same instance
        by_cube = bmo.extremal_h1_instance(B, W, U, root=win.cube(*root))
        assert np.array_equal(by_cube[0].leaves, fld.leaves)
        assert by_cube[1:] == (pair, predicted, h1S, bound)
