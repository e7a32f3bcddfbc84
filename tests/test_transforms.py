import numpy as np
import pytest

from matweight.dyadic import Window, WindowError, Signature
from matweight.fields import MatrixField, VectorField
from matweight import bmo
from matweight import transforms as tf

import operator_reference as oref
import scalar_reference as ref
from conftest import scalar_field, scalar_vector, random_scalar_weight


def haar_mode_vector(win, j, k, s, vec):
    """VectorField equal to h_I^eps times a fixed vector."""
    spec = tf.HaarSpectrum.zeros(win, (len(vec),))
    spec.coefs[j][k, s] = np.asarray(vec, dtype=complex)
    return tf.synthesize(spec)


# -- analysis / synthesis -------------------------------------------------------


def test_analyze_constant():
    win = Window.unit(1, 4)
    f = VectorField.constant(win, np.array([2.0, -1.0]))
    s = tf.analyze(f)
    assert s.cancellative_mass() < 1e-28
    assert np.allclose(s.root, [2.0, -1.0])


def test_analyze_single_mode():
    win = Window.unit(1, 3)
    f = haar_mode_vector(win, 0, 0, 0, [1.0, 0.0])
    s = tf.analyze(f)
    assert np.allclose(s.coefs[0][0, 0], [1.0, 0.0])
    assert np.isclose(s.cancellative_mass(), 1.0)
    assert np.allclose(s.root, 0.0)


def test_parseval_and_roundtrip(rng):
    for d, depth in ((1, 6), (2, 3)):
        win = Window.unit(d, depth)
        f = bmo.random_vector_field(win, 2, rng)
        s = tf.analyze(f)
        l2 = win.leaf_volume * np.sum(np.abs(f.leaves) ** 2)
        spectral = s.cancellative_mass() + win.volumes[0] * np.sum(
            np.abs(s.root) ** 2
        )
        assert abs(l2 - spectral) < 1e-11 * max(1.0, l2)
        g = tf.synthesize(s)
        assert np.max(np.abs(g.leaves - f.leaves)) < 1e-11


def test_coef_lookup_by_cube_and_signature():
    win = Window.unit(2, 2)
    spec = tf.HaarSpectrum.zeros(win, (1,))
    spec.coefs[1][3, 2] = 7.0
    cube = win.cube(1, 3)
    assert spec.coef(cube, Signature.from_int(2, 2))[0] == 7.0
    assert spec.coef((1, 3), 2)[0] == 7.0
    assert spec.coef((np.int64(1), np.int64(3)), np.int64(2))[0] == 7.0
    with pytest.raises(WindowError):
        spec.coef(cube, Signature((1, 1)))


@pytest.mark.parametrize(
    "cube, sig",
    [((-1, 3), 0), ((0, -1), 0), ((1, 2), 0), ((4, 0), 0), ((0, 0), 1), ((0, 0), -1)],
)
def test_coef_rejects_out_of_window_references(cube, sig):
    # negative levels, indices and signature ints must not wrap around
    win = Window.unit(1, 4)
    spec = tf.HaarSpectrum.zeros(win, (1,))
    with pytest.raises(WindowError):
        spec.coef(cube, sig)


# -- paraproducts ----------------------------------------------------------------


def test_paraproduct_constant_symbol_is_zero(rng):
    win = Window.unit(1, 4)
    B = MatrixField.constant(win, np.array([[1.0, 2.0], [2.0, -1.0]]))
    f = bmo.random_vector_field(win, 2, rng)
    out = tf.paraproduct(B, f)
    assert np.max(np.abs(out.leaves)) < 1e-13


def test_paraproduct_single_mode_hand_case():
    win = Window.unit(1, 3)
    b = tf.synthesize(
        _one_coef_matrix_spec(win, 0, 0, 0, np.array([[1.0]]))
    )
    f = VectorField.constant(win, np.array([1.0]))
    out = tf.paraproduct(b, f)
    expect = haar_mode_vector(win, 0, 0, 0, [1.0])
    assert np.max(np.abs(out.leaves - expect.leaves)) < 1e-13


def _one_coef_matrix_spec(win, j, k, s, M):
    spec = tf.HaarSpectrum.zeros(win, M.shape)
    spec.coefs[j][k, s] = M
    return spec


def test_paraproduct_constant_argument_telescopes(rng):
    win = Window.unit(1, 4)
    B = bmo.random_matrix_field(win, 2, rng)
    c = np.array([0.7, -0.3])
    f = VectorField.constant(win, c)
    out = tf.paraproduct(B, f)
    expect = np.einsum(
        "lab,b->la", B.leaves - B.level_averages()[0][0][None], c
    )
    assert np.max(np.abs(out.leaves - expect)) < 1e-12


def test_dual_paraproduct_constant_zero_and_hand_case(rng):
    win = Window.unit(1, 3)
    B = MatrixField.constant(win, np.array([[3.0]]))
    f = scalar_vector(win, np.arange(8.0))
    assert np.max(np.abs(tf.dual_paraproduct(B, f).leaves)) < 1e-14
    b = tf.synthesize(_one_coef_matrix_spec(win, 0, 0, 0, np.array([[1.0]])))
    h = haar_mode_vector(win, 0, 0, 0, [1.0])
    out = tf.dual_paraproduct(b, h)
    assert np.max(np.abs(out.leaves - 1.0)) < 1e-13


def test_dual_paraproduct_adjointness(rng):
    win = Window.unit(1, 5)
    B = bmo.random_matrix_field(win, 2, rng)
    f = bmo.random_vector_field(win, 2, rng)
    g = bmo.random_vector_field(win, 2, rng)
    Bstar = B.conj_transpose()
    lhs = win.leaf_volume * np.sum(
        np.conj(f.leaves) * tf.paraproduct(Bstar, g).leaves
    )
    rhs = win.leaf_volume * np.sum(
        np.conj(tf.dual_paraproduct(B, f).leaves) * g.leaves
    )
    assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))


def test_haar_multiplier_identity_and_zero(rng):
    win = Window.unit(1, 4)
    f = bmo.random_vector_field(win, 2, rng)
    A = tf.HaarSpectrum.zeros(win, (2, 2))
    for j in range(win.depth):
        A.coefs[j][:, :] = np.eye(2)
    out = tf.haar_multiplier(A, f)
    expect = f.leaves - tf.analyze(f).root[None]
    assert np.max(np.abs(out.leaves - expect)) < 1e-12
    Z = tf.HaarSpectrum.zeros(win, (2, 2))
    assert np.max(np.abs(tf.haar_multiplier(Z, f).leaves)) == 0.0


def test_haar_multiplier_scalar_martingale_oracle(rng):
    depth = 4
    win = Window.unit(1, depth)
    vals = rng.standard_normal(2**depth)
    f = scalar_vector(win, vals)
    signs = {}
    A = tf.HaarSpectrum.zeros(win, (1, 1))
    for j in range(depth):
        for k in range(2**j):
            signs[(j, k)] = float(rng.choice([-1.0, 1.0]))
            A.coefs[j][k, 0, 0, 0] = signs[(j, k)]
    out = tf.haar_multiplier(A, f)
    expect = np.zeros(2**depth)
    for (j, k), sgn in signs.items():
        expect += sgn * ref.haar_coef(vals, j, k, depth) * ref.haar_fn(j, k, depth)
    assert np.max(np.abs(out.leaves[:, 0].real - expect)) < 1e-11


def test_mu_multiplier_identity_and_constant(rng):
    win = Window.unit(1, 4)
    Phi = bmo.random_matrix_field(win, 2, rng)
    out = tf.mu_multiplier(MatrixField.identity(win, 2), Phi)
    expect = Phi.leaves - tf.analyze(Phi).root[None]
    assert np.max(np.abs(out.leaves - expect)) < 1e-12
    C = MatrixField.constant(win, np.array([[1.0, 0.0], [0.0, 2.0]]))
    W = MatrixField.constant(win, np.eye(2) * 3.0, weight=True)
    assert np.max(np.abs(tf.mu_multiplier(W, C).leaves)) < 1e-13


def test_mu_multiplier_scalar(rng):
    depth = 4
    win = Window.unit(1, depth)
    u = random_scalar_weight(rng, depth)
    phi = rng.standard_normal(2**depth)
    U = scalar_field(win, u, weight=True)
    P = scalar_field(win, phi)
    out = tf.mu_multiplier(U, P)
    expect = np.zeros(2**depth)
    for j, k in ref.cubes(depth):
        c = ref.haar_coef(phi, j, k, depth) * np.sqrt(ref.mean(u, j, k, depth))
        expect += c * ref.haar_fn(j, k, depth)
    assert np.max(np.abs(out.leaves[:, 0, 0].real - expect)) < 1e-11


def test_conjugated_paraproduct_reductions(rng):
    win = Window.unit(1, 4)
    Iw = MatrixField.identity(win, 2)
    B = bmo.random_matrix_field(win, 2, rng)
    A = tf.analyze(B)
    f = bmo.random_vector_field(win, 2, rng)
    out = tf.conjugated_paraproduct(A, Iw, Iw, 2.0, f)
    plain = tf.paraproduct(B, f)
    assert np.max(np.abs(out.leaves - plain.leaves)) < 1e-11


# -- shifts and commutators -------------------------------------------------------


def test_haar_shift_single_mode(rng):
    win = Window.unit(1, 4)
    smap = tf.ShiftMap.random(win, rng)
    f = haar_mode_vector(win, 1, 1, 0, [1.0, 0.0])
    out = tf.haar_shift(smap, f)
    s = tf.analyze(out)
    ci = smap.image_cube_index(1)[1, 0]
    assert np.allclose(s.coefs[2][ci, smap.sig[1][1, 0]], [1.0, 0.0], atol=1e-12)
    assert np.isclose(s.cancellative_mass(), 1.0, atol=1e-12)


def test_haar_shift_kills_constants(rng):
    win = Window.unit(1, 4)
    smap = tf.ShiftMap.random(win, rng)
    f = VectorField.constant(win, np.array([1.0, 2.0]))
    assert np.max(np.abs(tf.haar_shift(smap, f).leaves)) < 1e-14


def test_haar_shift_injective_preserves_mass(rng):
    win = Window.unit(1, 5)
    smap = tf.ShiftMap.random(win, rng, injective=True)
    assert smap.is_injective()
    f = bmo.random_vector_field(win, 2, rng, headroom=1)
    spec = tf.analyze(f)
    out = tf.haar_shift(smap, f)
    assert np.isclose(
        tf.analyze(out).cancellative_mass(),
        spec.cancellative_mass(),
        rtol=1e-11,
    )


def test_haar_shift_headroom_rejected(rng):
    win = Window.unit(1, 3)
    smap = tf.ShiftMap.random(win, rng)
    f = bmo.random_vector_field(win, 2, rng)  # full spectrum
    with pytest.raises(tf.HeadroomError):
        tf.haar_shift(smap, f)


def test_shift_operators_analyze_each_input_once(rng, monkeypatch):
    # the headroom check reads the coefficients that the shift then moves
    win = Window.unit(2, 3)
    smap = tf.ShiftMap.random(win, rng)
    B = bmo.random_matrix_field(win, 2, rng, headroom=1)
    f = bmo.random_vector_field(win, 2, rng, headroom=1)
    calls = []
    analyze_values = tf._analyze_values

    def spy(window, values):
        calls.append(values.shape)
        return analyze_values(window, values)

    monkeypatch.setattr(tf, "_analyze_values", spy)
    tf.haar_shift(smap, f)
    assert len(calls) == 1
    tf.haar_shift(smap, B)
    assert len(calls) == 2
    calls.clear()
    tf.shift_commutator(B, smap, f)  # B, f and B f
    assert len(calls) == 3


def test_commutator_decomposition_many(rng):
    # The odd trials draw with injective=False on a d = 2 window: in d = 1
    # each cube has one mode, which goes to a child of its own cube, so
    # such a draw is injective there and no two modes would ever collide.
    windows = {True: Window.unit(1, 6), False: Window.unit(2, 4)}
    collided = 0
    for trial in range(20):
        injective = trial % 2 == 0
        win = windows[injective]
        B = bmo.random_matrix_field(win, 2, rng, headroom=1)
        f = bmo.random_vector_field(win, 2, rng, headroom=1)
        smap = tf.ShiftMap.random(win, rng, injective=injective)
        collided += not smap.is_injective()
        direct = tf.shift_commutator(B, smap, f)
        terms = tf.shift_commutator_terms(B, smap, f)
        total = sum(t.leaves for _, t in terms)
        scale = max(1.0, float(np.max(np.abs(direct.leaves))))
        assert np.max(np.abs(total - direct.leaves)) < 1e-9 * scale
    assert collided


def test_commutator_decomposition_2d(rng):
    # and d = 3, whose seven signatures no other identity test reaches
    for d, injective in ((2, True), (3, True), (3, False)):
        win = Window.unit(d, 3)
        B = bmo.random_matrix_field(win, 2, rng, headroom=1)
        f = bmo.random_vector_field(win, 2, rng, headroom=1)
        smap = tf.ShiftMap.random(win, rng, injective=injective)
        direct = tf.shift_commutator(B, smap, f)
        total = sum(t.leaves for _, t in tf.shift_commutator_terms(B, smap, f))
        assert np.max(np.abs(total - direct.leaves)) < 1e-9, (d, injective)


@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("injective", [True, False])
@pytest.mark.parametrize("d, depth", [(1, 6), (2, 4), (3, 4)])
def test_commutator_terms_match_reference(d, depth, injective, kind):
    # every term against the per-signature loops it replaced, relative to
    # the largest term (a term can vanish up to rounding, e.g.
    # paraproduct_shift when B lives on one level above the last)
    rng = np.random.default_rng(100 * d + depth)
    win = Window.unit(d, depth)
    B = bmo.random_matrix_field(win, 2, rng, headroom=1)
    if kind == "complex":
        im = bmo.random_matrix_field(win, 2, rng, headroom=1)
        B = MatrixField(win, B.leaves + 1j * im.leaves)
    f = bmo.random_vector_field(win, 2, rng, headroom=1)
    smap = tf.ShiftMap.random(win, rng, injective=injective)
    assert smap.is_injective() == (injective or d == 1)  # d = 1: one mode per cube
    got = tf.shift_commutator_terms(B, smap, f)
    want = oref.shift_commutator_terms(B, smap, f)
    assert [name for name, _ in got] == [name for name, _ in want]
    scale = max(float(np.max(np.abs(t.leaves))) for _, t in want)
    for (name, g), (_, w) in zip(got, want):
        assert g.leaves.dtype == np.result_type(B.leaves, f.leaves), name
        assert np.max(np.abs(g.leaves - w.leaves)) <= 1e-12 * scale, name


def test_commutator_constant_symbol_and_linearity(rng):
    win = Window.unit(1, 5)
    f = bmo.random_vector_field(win, 2, rng, headroom=1)
    smap = tf.ShiftMap.random(win, rng)
    Bc = MatrixField.constant(win, np.array([[1.0, 1.0], [1.0, 0.0]]))
    assert np.max(np.abs(tf.shift_commutator(Bc, smap, f).leaves)) < 1e-13
    for name, t in tf.shift_commutator_terms(Bc, smap, f):
        assert np.max(np.abs(t.leaves)) < 1e-13, name
    B = bmo.random_matrix_field(win, 2, rng, headroom=1)
    B3 = MatrixField(win, 3.0 * B.leaves)
    one = tf.shift_commutator(B, smap, f)
    three = tf.shift_commutator(B3, smap, f)
    assert np.max(np.abs(three.leaves - 3.0 * one.leaves)) < 1e-10


def test_commutator_triangular_identification(rng):
    # double_shift + shift_paraproduct = -Q(pi_B f), the triangular grouping
    win = Window.unit(1, 5)
    B = bmo.random_matrix_field(win, 2, rng, headroom=1)
    f = bmo.random_vector_field(win, 2, rng, headroom=1)
    smap = tf.ShiftMap.random(win, rng)
    td = dict(tf.shift_commutator_terms(B, smap, f))
    qpb = tf.haar_shift(smap, tf.paraproduct(B, f))
    resid = td["double_shift"].leaves + td["shift_paraproduct"].leaves + qpb.leaves
    assert np.max(np.abs(resid)) < 1e-10


def test_commutator_named_composites(rng):
    win = Window.unit(1, 5)
    B = bmo.random_matrix_field(win, 2, rng, headroom=1)
    f = bmo.random_vector_field(win, 2, rng, headroom=1)
    smap = tf.ShiftMap.random(win, rng)
    td = dict(tf.shift_commutator_terms(B, smap, f))
    assert np.max(np.abs(
        td["shift_dual_paraproduct"].leaves
        + tf.haar_shift(smap, tf.dual_paraproduct(B, f)).leaves
    )) < 1e-12
    assert np.max(np.abs(
        td["dual_paraproduct_shift"].leaves
        - tf.dual_paraproduct(B, tf.haar_shift(smap, f)).leaves
    )) < 1e-12
    assert np.max(np.abs(
        td["paraproduct_shift"].leaves
        - tf.paraproduct(B, tf.haar_shift(smap, f)).leaves
    )) < 1e-12


def test_commutator_single_mode_case_selection(rng):
    # f on one mode: only case-matching pieces fire
    win = Window.unit(1, 5)
    smap = tf.ShiftMap.random(win, rng)
    f = haar_mode_vector(win, 2, 1, 0, [1.0, 0.0])
    # B supported strictly above f's cube: only triangular terms survive
    Bspec = tf.HaarSpectrum.zeros(win, (2, 2))
    Bspec.coefs[0][0, 0] = np.array([[1.0, 0.5], [0.5, 2.0]])
    B = tf.synthesize(Bspec)
    td = dict(tf.shift_commutator_terms(B, smap, f))
    for name in ("diagonal_relocation", "diagonal_multiplier",
                 "shift_dual_paraproduct", "dual_paraproduct_shift",
                 "child_multiplier", "double_shift"):
        assert np.max(np.abs(td[name].leaves)) < 1e-13, name
    direct = tf.shift_commutator(B, smap, f)
    total = td["shift_paraproduct"].leaves + td["paraproduct_shift"].leaves
    assert np.max(np.abs(total - direct.leaves)) < 1e-12
    # B on the same single mode: only diagonal pieces survive
    B2 = tf.synthesize(_one_coef_matrix_spec(win, 2, 1, 0, np.eye(2)))
    td2 = dict(tf.shift_commutator_terms(B2, smap, f))
    for name in ("child_multiplier", "double_shift", "paraproduct_shift"):
        assert np.max(np.abs(td2[name].leaves)) < 1e-13, name
    direct2 = tf.shift_commutator(B2, smap, f)
    total2 = sum(t.leaves for _, t in td2.items())
    assert np.max(np.abs(total2 - direct2.leaves)) < 1e-12


# -- square functions -------------------------------------------------------------


def test_square_function_single_mode_and_constant():
    win = Window.unit(1, 4)
    f = haar_mode_vector(win, 1, 0, 0, [1.0, 0.0])
    s = tf.dyadic_square_function(f)
    # one unit mode on I = [0, 1/2): S_D = |I|^{-1/2} chi_I
    expect = np.zeros(win.leafcount)
    expect[: win.leafcount // 2] = 0.5 ** -0.5
    assert np.max(np.abs(s - expect)) < 1e-12
    c = VectorField.constant(win, np.array([3.0, 1.0]))
    assert np.max(tf.dyadic_square_function(c)) < 1e-14


def test_square_function_l2_identity(rng):
    win = Window.unit(1, 5)
    f = bmo.random_vector_field(win, 2, rng)
    s = tf.dyadic_square_function(f)
    lhs = win.leaf_volume * np.sum(s**2)
    rhs = tf.analyze(f).cancellative_mass()
    assert abs(lhs - rhs) < 1e-11 * max(1.0, rhs)


def test_weighted_square_function_reductions(rng):
    win = Window.unit(1, 5)
    Phi = bmo.random_matrix_field(win, 2, rng)
    sw = tf.weighted_square_function(MatrixField.identity(win, 2), Phi)
    sd = tf.dyadic_square_function(Phi)
    assert np.max(np.abs(sw - sd)) < 1e-11
    C = MatrixField.constant(win, np.eye(2))
    W = MatrixField.identity(win, 2)
    assert np.max(tf.weighted_square_function(W, C)) < 1e-14


def test_weighted_square_function_scalar(rng):
    depth = 4
    win = Window.unit(1, depth)
    w = random_scalar_weight(rng, depth)
    phi = rng.standard_normal(2**depth)
    W = scalar_field(win, w, weight=True)
    P = scalar_field(win, phi)
    s = tf.weighted_square_function(W, P)
    expect = np.sqrt(w) * ref.square_function(phi, depth)
    assert np.max(np.abs(s - expect)) < 1e-11


def test_triebel_lizorkin(rng):
    depth = 5
    win = Window.unit(1, depth)
    f = bmo.random_vector_field(win, 2, rng)
    val = tf.triebel_lizorkin_functional(MatrixField.identity(win, 2), 2.0, f)
    assert np.isclose(val, tf.analyze(f).cancellative_mass(), rtol=1e-11)
    c = VectorField.constant(win, np.array([1.0, 1.0]))
    W = MatrixField.identity(win, 2)
    assert tf.triebel_lizorkin_functional(W, 2.0, c) < 1e-14
    w = random_scalar_weight(rng, depth)
    fv = rng.standard_normal(2**depth)
    for p in (2.0, 3.0, 1.5):
        got = tf.triebel_lizorkin_functional(
            scalar_field(win, w, weight=True), p, scalar_vector(win, fv)
        )
        assert np.isclose(got, ref.triebel(fv, w, p, depth), rtol=1e-9)


def test_haar_multiplier_adjoint_consistency(rng):
    # <T_A f, g> = <f, T_{A^*} g> with the conjugate-transposed coefficients
    win = Window.unit(1, 4)
    n = 2
    A = tf.HaarSpectrum.zeros(win, (n, n))
    for j in range(win.depth):
        A.coefs[j] = (
            rng.standard_normal((win.cubes_at(j), win.nsig, n, n))
            + 1j * rng.standard_normal((win.cubes_at(j), win.nsig, n, n))
        )
    Astar = tf.HaarSpectrum.zeros(win, (n, n))
    for j in range(win.depth):
        Astar.coefs[j] = np.conj(np.swapaxes(A.coefs[j], 2, 3))
    f = bmo.random_vector_field(win, n, rng)
    g = bmo.random_vector_field(win, n, rng)
    lv = win.leaf_volume
    lhs = lv * np.sum(np.conj(g.leaves) * tf.haar_multiplier(A, f).leaves)
    rhs = lv * np.sum(np.conj(tf.haar_multiplier(Astar, g).leaves) * f.leaves)
    assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))


def test_embedding_comparability_band_p2(rng):
    # ||f||_{L^2(W)}^2 vs the square-sum functional plus the root term:
    # the ratio band over an ensemble stays within the A2-driven envelope;
    # measured, not assumed
    win = Window.unit(1, 5)
    ratios, chars = [], []
    for _ in range(20):
        W = bmo.bounded_weight(win, 2, rng, char_cap=10.0)
        f = bmo.random_vector_field(win, 2, rng)
        lhs = f.lp_norm(2.0, weight=W) ** 2
        root = tf.analyze(f).root
        mW = W.level_averages()[0][0]
        root_term = win.volumes[0] * float(
            np.real(np.conj(root) @ (mW @ root))
        )
        rhs = tf.triebel_lizorkin_functional(W, 2.0, f) + root_term
        ratios.append(lhs / rhs)
        chars.append(bmo.a2_spectral(W))
    band = max(ratios) / min(ratios)
    assert np.isfinite(band)
    # the ratio is pinched between 1/A2 and A2 for the spectral characteristic
    for r, c in zip(ratios, chars):
        assert 1.0 / (c * (1 + 1e-9)) <= r <= c * (1 + 1e-9)


def test_commutator_hand_expansion_depth3():
    # d = 1, scalar symbol b = h_[0,1), argument f = h_[0,1), shift always
    # (left child, same signature): [b, Q] f = h_[0,1/2) by hand
    win = Window.unit(1, 3)
    child = [np.zeros((win.cubes_at(j), 1), dtype=int) for j in range(2)]
    sig = [np.zeros((win.cubes_at(j), 1), dtype=int) for j in range(2)]
    smap = tf.ShiftMap(win, child, sig)
    b = tf.synthesize(_one_coef_matrix_spec(win, 0, 0, 0, np.array([[1.0]])))
    f = haar_mode_vector(win, 0, 0, 0, [1.0])
    out = tf.shift_commutator(b, smap, f)
    expect = np.zeros(8)
    expect[0:2] = np.sqrt(2.0)
    expect[2:4] = -np.sqrt(2.0)
    assert np.max(np.abs(out.leaves[:, 0] - expect)) < 1e-12
    total = sum(t.leaves for _, t in tf.shift_commutator_terms(b, smap, f))
    assert np.max(np.abs(total - out.leaves)) < 1e-12


def test_commutator_terms_reject_headroom_violation(rng):
    win = Window.unit(1, 4)
    full_B = bmo.random_matrix_field(win, 2, rng)      # full spectrum
    ok_f = bmo.random_vector_field(win, 2, rng, headroom=1)
    smap = tf.ShiftMap.random(win, rng)
    with pytest.raises(tf.HeadroomError):
        tf.shift_commutator_terms(full_B, smap, ok_f)
    with pytest.raises(tf.HeadroomError):
        tf.shift_commutator(full_B, smap, ok_f)
