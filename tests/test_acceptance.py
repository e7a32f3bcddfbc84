"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Tolerances are pinned here, not configurable.
"""

import time
from fractions import Fraction

import numpy as np

from matweight.dyadic import (
    Signature,
    Window,
    containing_shifted_cube,
)
from matweight.fields import MatrixField, VectorField, ap_characteristic
from matweight import bmo
from matweight import opnorm as onorm
from matweight import stopping as st
from matweight import transforms as tf

import operator_reference as oref
from geometry_reference import haar_eval, signature_product
import scalar_reference as ref
from conftest import scalar_field, scalar_vector, random_scalar_weight


def _report(num, text):
    print(f"[PASS] criterion {num}: {text}")


# -- 1: Haar algebra exactness ---------------------------------------------------


def test_criterion_01_haar_exactness():
    t0 = time.perf_counter()
    for d, depth in ((1, 8), (2, 4)):
        win = Window.unit(d, depth)
        rng = np.random.default_rng(d)
        # completeness count
        count = 1 + sum(win.cubes_at(j) * win.nsig for j in range(depth))
        assert count == win.leafcount
        # analysis/synthesis round trip at 1e-11
        f = bmo.random_vector_field(win, 2, rng)
        g = tf.synthesize(tf.analyze(f))
        assert np.max(np.abs(g.leaves - f.leaves)) < 1e-11
        # Parseval
        s = tf.analyze(f)
        l2 = win.leaf_volume * np.sum(np.abs(f.leaves) ** 2)
        sp = s.cancellative_mass() + win.volumes[0] * np.sum(np.abs(s.root) ** 2)
        assert abs(l2 - sp) < 1e-11 * max(1.0, l2)
        # orthonormality by quadrature on a shallow subwindow
        wino = Window.unit(d, 3 if d == 1 else 2)
        centers = wino.leaf_centers()
        modes = [
            (wino.cube(j, k), Signature.from_int(sig, d))
            for j in range(wino.depth)
            for k in range(wino.cubes_at(j))
            for sig in range(wino.nsig)
        ]
        vals = np.array(
            [[haar_eval(c, sg, tuple(x)) for x in centers] for c, sg in modes]
        )
        gram = wino.leaf_volume * vals @ vals.T
        assert np.max(np.abs(gram - np.eye(len(modes)))) < 1e-11
        # signature product identity at every leaf center
        cube = wino.cube(1, 0)
        scale = float(cube.volume) ** 0.5
        for s1 in range(wino.nsig):
            for s2 in range(wino.nsig):
                psi = signature_product(
                    Signature.from_int(s1, d), Signature.from_int(s2, d)
                )
                for x in centers:
                    x = tuple(x)
                    lhs = scale * haar_eval(cube, Signature.from_int(s1, d), x) * \
                        haar_eval(cube, Signature.from_int(s2, d), x)
                    assert abs(lhs - haar_eval(cube, psi, x)) < 1e-11
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report(1, f"Haar algebra exact to 1e-11 on d=1,2 windows ({elapsed:.2f}s)")


# -- 2: commutator decomposition ---------------------------------------------------


def test_criterion_02_commutator_decomposition():
    t0 = time.perf_counter()
    win = Window.unit(1, 8)
    rng = np.random.default_rng(22)
    worst = 0.0
    for trial in range(100):
        B = bmo.random_matrix_field(win, 2, rng, headroom=1)
        f = bmo.random_vector_field(win, 2, rng, headroom=1)
        smap = tf.ShiftMap.random(win, rng, injective=bool(trial % 2))
        direct = tf.shift_commutator(B, smap, f)
        total = sum(t.leaves for _, t in tf.shift_commutator_terms(B, smap, f))
        scale = max(1.0, float(np.max(np.abs(direct.leaves))))
        worst = max(worst, float(np.max(np.abs(total - direct.leaves))) / scale)
    assert worst < 1e-9
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report(
        2,
        f"case decomposition = direct commutator on 100 draws, "
        f"worst residual {worst:.2e} ({elapsed:.2f}s)",
    )


# -- 3: scalar-reduction oracles ------------------------------------------------------


def test_criterion_03_scalar_oracles():
    depth = 6
    win = Window.unit(1, depth)
    rng = np.random.default_rng(33)
    Iw = MatrixField.identity(win, 1)
    checks = 0
    for inst in range(50):
        w_vals = random_scalar_weight(rng, depth)
        u_vals = random_scalar_weight(rng, depth)
        b_vals = rng.standard_normal(2**depth)
        phi_vals = rng.standard_normal(2**depth)
        W = scalar_field(win, w_vals, weight=True)
        U = scalar_field(win, u_vals, weight=True)
        B = scalar_field(win, b_vals)
        A = tf.analyze(B)
        a = {
            (j, k): float(A.coefs[j][k, 0, 0, 0].real)
            for j in range(depth)
            for k in range(2**j)
        }
        p = (2.0, 3.0, 1.5)[inst % 3]
        pairs = [
            (ap_characteristic(W, p), ref.ap(w_vals, p, depth)),
            (
                bmo.carleson_norm(W, U, A, p).supremum,
                ref.carleson(a, w_vals, u_vals, p, depth),
            ),
            (
                bmo.condition_b(W, U, A, p).supremum,
                ref.condition_b(a, w_vals, u_vals, p, depth),
            ),
            (
                bmo.bloom_bprime(B, W, U, p).supremum,
                ref.bloom_bprime(b_vals, w_vals, u_vals, p, depth),
            ),
            (
                bmo.bloom_cprime(B, W, U, p).supremum,
                ref.bloom_cprime(b_vals, w_vals, u_vals, p, depth),
            ),
            (
                bmo.hlw_condition(B, W, U).supremum,
                ref.hlw(b_vals, w_vals, u_vals, depth),
            ),
            (
                bmo.h1_norm(scalar_field(win, phi_vals), W, U),
                ref.h1_norm(phi_vals, w_vals, u_vals, depth),
            ),
        ]
        fkp, buck, isr = bmo.buckley_fkp_summation(W)
        pairs += [
            (fkp.supremum, ref.fkp(w_vals, depth)),
            (buck.supremum, ref.buckley(w_vals, depth)),
            (isr.supremum, ref.isral_summation(w_vals, depth)),
        ]
        if inst % 5 == 0:
            T = onorm.materialize(
                {"kind": "conjugated_paraproduct", "A": A, "W": W, "U": U,
                 "p": 2.0},
                win, 1,
            )
            M = ref.conjugated_paraproduct_matrix(a, w_vals, u_vals, 2.0, depth)
            pairs.append(
                (onorm.weighted_opnorm_p2(T, Iw, Iw), ref.l2_opnorm(M, depth))
            )
        for got, want in pairs:
            assert np.isclose(got, want, rtol=1e-9, atol=1e-12), (got, want)
            checks += 1
    _report(3, f"{checks} scalar brute-force oracle agreements at 1e-9")


# -- 4: p = 2 exact operator norms ------------------------------------------------------


def test_criterion_04_p2_operator_norms():
    depth = 8
    win = Window.unit(1, depth)
    rng = np.random.default_rng(44)
    Iw = MatrixField.identity(win, 2)
    ratios = []
    for seed in range(100):
        W = bmo.bounded_weight(win, 2, rng, char_cap=10.0)
        U = bmo.bounded_weight(win, 2, rng, char_cap=10.0)
        B = bmo.random_matrix_field(win, 2, rng)
        A = tf.analyze(B)
        op = {"kind": "conjugated_paraproduct", "A": A, "W": W, "U": U, "p": 2.0}
        if seed < 10:
            T = onorm.materialize(op, win, 2)
            f = bmo.random_vector_field(win, 2, rng)
            direct = tf.conjugated_paraproduct(A, W, U, 2.0, f)
            via = T.apply_field(f)
            scale = max(1.0, float(np.max(np.abs(direct.leaves))))
            assert np.max(np.abs(direct.leaves - via.leaves)) < 1e-10 * scale
            # adjoint duality at p = 2
            Tstar = onorm.OperatorMatrix(T.matrix.conj().T, win, 2, "adj")
            lhs = onorm.weighted_opnorm_p2(T, W, U)
            rhs = onorm.weighted_opnorm_p2(Tstar, U.inverse(), W.inverse())
            assert abs(lhs - rhs) < 1e-9 * max(1.0, lhs)
            # the matrix-free norm against the dense one and against the
            # Gram-eigvalsh oracle
            free = onorm.weighted_norm_p2(op, W, U)
            for want in (lhs, oref.weighted_opnorm_p2(T, W, U)):
                assert abs(free - want) <= 1e-12 * want
        rel = onorm.haar_multiplier_norm_relation(A, W, U, 2.0)
        assert rel["exact"]
        if rel["sup_criterion"] > 0:
            ratios.append(rel["operator_norm"] / rel["sup_criterion"])
    band = max(ratios) / min(ratios)
    assert band <= 1e3
    _report(
        4,
        f"materialization consistency 1e-10, adjoint duality 1e-9, "
        f"matrix-free norm 1e-12 (dense and eigvalsh oracle), "
        f"multiplier criterion band {band:.3g} <= 1e3 over 100 seeds",
    )


# -- 5: stopping decay ---------------------------------------------------------------


def test_criterion_05_stopping_decay():
    rng = np.random.default_rng(55)
    win = Window.unit(1, 6)
    for _ in range(50):
        W = bmo.bounded_weight(win, 2, rng, char_cap=10.0)
        U = bmo.bounded_weight(win, 2, rng, char_cap=10.0)
        lam = st.default_lambda(W, U, 2.0)
        forest = st.build(W, U, 2.0, lam=lam)
        assert st.verify_decay(forest).all_ok
        # exact partition and disjointness
        seen = set()
        for blk in forest.blocks:
            for cube in blk:
                assert cube not in seen
                seen.add(cube)
        assert len(seen) == sum(win.cubes_at(j) for j in range(win.depth + 1))
    # the power-weight family
    from matweight.fields import generate_weight

    for alpha in (0.3, 0.5, 0.8, -0.4):
        W = generate_weight(
            {"kind": "scalar_power", "n": 1, "alphas": [alpha], "d": 1,
             "depth": 9}
        )
        U = MatrixField.identity(W.window, 1)
        lam = st.default_lambda(W, U, 2.0)
        forest = st.build(W, U, 2.0, lam=lam)
        assert st.verify_decay(forest).all_ok
    _report(5, "decay |union J^j| <= 2^-j |root| with searched lambda, "
               "partitions exact, 50 random pairs + power family")


# -- 6: equivalence bands ---------------------------------------------------------------


def test_criterion_06_equivalence_bands():
    out = bmo.equivalence_experiment(
        {
            "n": 2,
            "d": 1,
            "depth": 6,
            "seeds": list(range(100)),
            "p_values": [2.0, 3.0, 1.5],
            "eps": 1.0,
            "amplitude": 0.5,
            "char_cap": 10.0,
        }
    )
    assert len(out["rows"]) == 300
    for row in out["rows"]:
        assert row["a2W"] <= 10.0 and row["a2U"] <= 10.0
        assert row["psd_band_ok"]
    for key, band in out["bands"].items():
        assert np.isfinite(band) and band <= 1e3, (key, band)
    # degenerate cases are exactly zero
    win = Window.unit(1, 6)
    rng = np.random.default_rng(66)
    W = bmo.bounded_weight(win, 2, rng)
    U = bmo.bounded_weight(win, 2, rng)
    Bc = MatrixField.constant(win, np.array([[2.0, 1.0], [1.0, -1.0]]))
    Ac = tf.analyze(Bc)
    assert bmo.carleson_norm(W, U, Ac, 2.0).supremum == 0.0
    assert bmo.condition_b(W, U, Ac, 3.0).supremum == 0.0
    assert bmo.hlw_condition(Bc, W, U).supremum == 0.0
    assert bmo.bloom_bprime(Bc, W, U, 1.5).supremum == 0.0
    assert bmo.bloom_cprime(Bc, W, U, 3.0).supremum == 0.0
    assert bmo.bmo_original(Bc, W, U, 2.0).supremum == 0.0
    worst = max(out["bands"].values())
    _report(
        6,
        f"all pairwise ratio bands finite over 100 seeds x p in {{2,3,3/2}}; "
        f"worst band {worst:.3g} <= 1e3; degenerate cases exactly 0",
    )


# -- 7: duality ------------------------------------------------------------------------


def test_criterion_07_duality():
    out = bmo.duality_experiment(
        {
            "n": 2,
            "d": 1,
            "depth": 6,
            "seeds": list(range(100)),
            "amplitude": 0.5,
            "char_cap": 10.0,
        }
    )
    assert len(out["rows"]) == 100
    for row in out["rows"]:
        assert row["extremal_h1_ok"], row
        assert row["extremal_deep_ok"], row
        assert row["extremal_h1"] <= row["extremal_h1_bound"] * (1 + 1e-9)
        assert np.isfinite(row["upper_ratio"])
        # the optimal-sequence pairing identity
        assert np.isclose(
            row["extremal_pairing"], row["extremal_predicted"], rtol=1e-9
        )
    ceiling = out["upper_ratio_ceiling"]
    assert np.isfinite(ceiling)
    _report(
        7,
        f"pairing ratio ceiling {ceiling:.3g} over 100 seeds; extremal "
        f"instances meet the H1 bound A2(W)^(1/2) |J|^(1/2) to 1e-9",
    )


# -- 8: two-weight construction pipeline --------------------------------------------------


def test_criterion_08_construction_pipeline():
    rng = np.random.default_rng(88)
    win = Window.unit(1, 7)
    # generic pairs (Lam, U)
    for p in (2.0, 3.0, 1.5):
        Lam = bmo.bounded_weight(win, 2, rng, char_cap=10.0)
        U = bmo.random_matrix_field(win, 2, rng, hermitian=True)
        U = MatrixField(win, U.leaves + 4.0 * np.eye(2))  # keep invertible
        out = bmo.matrix_weight_theorem_pipeline(Lam, U, p)
        assert out["identity_error"] <= 1e-10 * 10
        assert out["identity_ok"]
        assert np.isfinite(out["bmo"].supremum)
    # the special case Lam = W^{-1}, U = W at p = 2 on tested A2 weights
    from matweight.fields import generate_weight

    tested = [
        bmo.bounded_weight(win, 2, rng, char_cap=10.0),
        bmo.bounded_weight(win, 2, rng, char_cap=10.0),
        generate_weight(
            {"kind": "scalar_power", "n": 1, "alphas": [0.5], "d": 1, "depth": 8}
        ),
    ]
    for W in tested:
        out = bmo.matrix_weight_theorem_pipeline(W.inverse(), W, 2.0)
        assert out["identity_ok"]
        assert np.isfinite(out["buckley"].supremum) and out["buckley"].supremum > 0
        assert np.isfinite(out["fkp"].supremum)
        assert np.max(np.abs(out["W"].leaves - W.leaves)) < 1e-8
        assert out["buckley"].extras["min_eig_slack"] >= -1e-10
    _report(
        8,
        "pointwise norm identity to 1e-10 per leaf; Buckley/FKP finite with "
        "PSD ordering slack >= -1e-10 on every tested A2 weight",
    )


# -- 9: John-Nirenberg pairs ---------------------------------------------------------------


def test_criterion_09_john_nirenberg():
    rng = np.random.default_rng(99)
    win = Window.unit(1, 6)
    ratios = []
    for _ in range(100):
        W = bmo.bounded_weight(win, 2, rng, char_cap=10.0)
        B = bmo.random_matrix_field(win, 2, rng)
        left, right = bmo.jn_p2_pair(B, W)
        assert 0 < left.supremum < np.inf
        assert 0 < right.supremum < np.inf
        ratios.append(left.supremum / right.supremum)
        f = bmo.random_vector_field(win, 2, rng)
        wjn, plain = bmo.vector_jn(f, W, 2.0)
        assert 0 < wjn.supremum < np.inf and 0 < plain.supremum < np.inf
    assert np.isfinite(max(ratios) / min(ratios))
    # exact zeros on constants
    W = bmo.bounded_weight(win, 2, rng)
    Bc = MatrixField.constant(win, np.eye(2))
    left, right = bmo.jn_p2_pair(Bc, W)
    assert left.supremum == 0.0 and right.supremum == 0.0
    fc = VectorField.constant(win, np.array([1.0, -2.0]))
    wjn, plain = bmo.vector_jn(fc, W, 2.0)
    assert wjn.supremum == 0.0 and plain.supremum == 0.0
    # scalar reductions
    depth = 5
    winS = Window.unit(1, depth)
    for _ in range(10):
        w_vals = random_scalar_weight(rng, depth)
        b_vals = rng.standard_normal(2**depth)
        Ws = scalar_field(winS, w_vals, weight=True)
        Bs = scalar_field(winS, b_vals)
        left, right = bmo.jn_p2_pair(Bs, Ws)
        assert np.isclose(
            left.supremum, ref.jn_left(b_vals, w_vals, 1.0, depth), rtol=1e-9
        )
        assert np.isclose(
            right.supremum, ref.jn_right(b_vals, w_vals, depth), rtol=1e-9
        )
        fv = rng.standard_normal(2**depth)
        wjn, _ = bmo.vector_jn(scalar_vector(winS, fv), Ws, 2.0)
        assert np.isclose(
            wjn.supremum, ref.vector_jn(fv, w_vals, 2.0, depth), rtol=1e-9
        )
    _report(9, "finiteness agreement on 100 instances, exact zeros on "
               "constants, scalar oracle agreement at 1e-9")


# -- 10: shifted grids ------------------------------------------------------------------------


def test_criterion_10_shifted_grids():
    rng = np.random.default_rng(110)
    worst = 0.0
    for _ in range(1000):
        d = 2
        side = Fraction(int(rng.integers(1, 4000)), 4000)
        corner = tuple(
            Fraction(int(rng.integers(-8000, 8000)), 2000) for _ in range(d)
        )
        t, q = containing_shifted_cube(corner, side)
        assert q.contains_box(corner, side)
        ratio = float(q.side / side)
        worst = max(worst, ratio)
        assert ratio <= 6.0
    # norm finiteness agreement across all shifted grids at matched depth
    for d, depth in ((1, 6), (2, 3)):
        win = Window.unit(d, depth)
        W = bmo.bounded_weight(win, 2, rng, amplitude=0.4)
        U = bmo.bounded_weight(win, 2, rng, amplitude=0.4)
        B = bmo.random_matrix_field(win, 2, rng)
        sweep = bmo.bmo_over_shifted_grids(B, W, U, 2.0)
        assert set(sweep["per_grid"]) == set(range(1, 2**d + 1))
        for v in sweep["per_grid"].values():
            assert 0 < v["bmo_original"] < np.inf
            assert 0 < v["condition_b"] < np.inf
    _report(
        10,
        f"containment ratio <= 6 on 1000 random cubes (worst {worst:.3g}); "
        f"norm finiteness agrees across all shifted grids",
    )
