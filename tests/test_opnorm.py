import functools

import numpy as np
import pytest

from matweight.dyadic import Window, WindowError
from matweight.fields import FieldError, MatrixField, NotPositiveDefiniteError, VectorField
from matweight import bmo
from matweight import opnorm as onorm
from matweight import transforms as tf

import operator_reference as oref
import scalar_reference as ref
from conftest import scalar_field, random_scalar_weight


def identity_coef_map(win, n):
    A = tf.HaarSpectrum.zeros(win, (n, n))
    for j in range(win.depth):
        A.coefs[j][:, :] = np.eye(n)
    return A


def test_materialize_identity_multiplier(rng):
    win = Window.unit(1, 3)
    T = onorm.materialize(
        {"kind": "haar_multiplier", "A": identity_coef_map(win, 2)}, win, 2
    )
    f = bmo.random_vector_field(win, 2, rng)
    out = T.apply_field(f)
    expect = f.leaves - tf.analyze(f).root[None]
    assert np.max(np.abs(out.leaves - expect)) < 1e-12


def test_materialize_constant_paraproduct_is_zero():
    win = Window.unit(1, 3)
    B = MatrixField.constant(win, np.array([[1.0, 2.0], [2.0, 0.0]]))
    T = onorm.materialize({"kind": "paraproduct", "B": B}, win, 2)
    assert np.max(np.abs(T.matrix)) < 1e-13


@functools.lru_cache(maxsize=None)
def _operator_setup(d, n, kind):
    """Weights, symbol, shift map and argument with shift headroom; complex
    weights are unitary conjugates Q^* W Q, with complex B and f."""
    rng = np.random.default_rng([d, n, kind == "complex"])
    win = Window.unit(d, 4 if d == 1 else 3)
    W = bmo.bounded_weight(win, n, rng)
    U = bmo.bounded_weight(win, n, rng)
    B = bmo.random_matrix_field(win, n, rng, headroom=1)
    f = bmo.random_vector_field(win, n, rng, headroom=1)
    if kind == "complex":
        Q = np.linalg.qr(
            rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        )[0]
        W = MatrixField(win, Q.conj().T @ W.leaves @ Q, weight=True)
        U = MatrixField(win, Q.conj().T @ U.leaves @ Q, weight=True)
        B = MatrixField(
            win, B.leaves + 1j * bmo.random_matrix_field(win, n, rng, headroom=1).leaves
        )
        f = VectorField(
            win, f.leaves + 1j * bmo.random_vector_field(win, n, rng, headroom=1).leaves
        )
    else:  # real data in complex128, the dtype the reference computes in
        W = MatrixField(win, W.leaves.astype(complex), weight=True)
        U = MatrixField(win, U.leaves.astype(complex), weight=True)
        B = MatrixField(win, B.leaves.astype(complex))
        f = VectorField(win, f.leaves.astype(complex))
    return win, W, U, B, f, tf.ShiftMap.random(win, rng)


def _operator_cases(win, W, U, B, smap):
    """(descriptor, single-field operator name, operands before f) per case."""
    A = tf.analyze(B)
    return [
        ({"kind": "paraproduct", "B": B}, "paraproduct", (B,)),
        ({"kind": "dual_paraproduct", "B": B}, "dual_paraproduct", (B,)),
        ({"kind": "haar_multiplier", "A": A}, "haar_multiplier", (A,)),
        *(
            (
                {"kind": "conjugated_paraproduct", "A": A, "W": W, "U": U, "p": p},
                "conjugated_paraproduct",
                (A, W, U, p),
            )
            for p in (2.0, 3.0)
        ),
        ({"kind": "haar_shift", "sigma": smap}, "haar_shift", (smap,)),
        ({"kind": "commutator", "B": B, "sigma": smap}, "shift_commutator", (B, smap)),
    ]


_CONFIGS = [
    (d, n, kind) for d in (1, 2) for n in (1, 2, 3) for kind in ("real", "complex")
]


def test_materialize_consistency_all_kinds():
    for d, n, kind in _CONFIGS:
        win, W, U, B, f, smap = _operator_setup(d, n, kind)
        cases = _operator_cases(win, W, U, B, smap)
        assert {desc["kind"] for desc, _, _ in cases} == set(onorm._KERNELS)
        for desc, name, operands in cases:
            T = onorm.materialize(desc, win, n)
            got = T.apply_field(f).leaves
            for direct in (getattr(tf, name), getattr(oref, name)):
                want = direct(*operands, f).leaves
                assert np.max(np.abs(got - want)) < 1e-10, (desc["kind"], d, n, kind)


@pytest.mark.parametrize("kind", sorted(onorm._KERNELS))
def test_operator_kernels_match_reference(kind):
    # Every kind in materialize's kernel table needs a case here and an
    # adjoint kernel, and both the dense matrix and the single-field
    # operator must reproduce the reference implementations bit for bit.
    checked = 0
    for d, n, weights in _CONFIGS:
        win, W, U, B, f, smap = _operator_setup(d, n, weights)
        for desc, name, operands in _operator_cases(win, W, U, B, smap):
            if desc["kind"] != kind:
                continue
            _, adjoint = onorm._KERNELS[kind](desc, win)
            assert callable(adjoint), f"descriptor kind {kind!r} has no adjoint kernel"
            T = onorm.materialize(desc, win, n)
            matrix, provenance = oref.materialize(desc, win, n)
            assert T.provenance == provenance
            assert np.array_equal(T.matrix, matrix), (d, n, weights)
            got = getattr(tf, name)(*operands, f).leaves
            want = getattr(oref, name)(*operands, f).leaves
            assert np.array_equal(got, want), (d, n, weights)
            if name == "haar_shift":  # the matrix-field shift
                got = tf.haar_shift(smap, B)
                assert isinstance(got, MatrixField)
                assert np.array_equal(got.leaves, oref.haar_shift(smap, B).leaves)
            checked += 1
    assert checked, f"no reference case for descriptor kind {kind!r}"


@functools.lru_cache(maxsize=None)
def _adjoint_setup(d, n, kind):
    """Every descriptor of ``_operator_cases`` on float64 (real) or complex
    operands, plus the shift and the commutator on a shift map drawn with
    ``injective=False``: in d = 2 some of its modes collide, and only the
    gather of a collided image tests the transpose of the scatter-add."""
    win, W, U, B, f, smap = _operator_setup(d, n, kind)
    if kind == "real":
        W = MatrixField(win, W.leaves.real, weight=True)
        U = MatrixField(win, U.leaves.real, weight=True)
        B = MatrixField(win, B.leaves.real)
    collide = tf.ShiftMap.random(win, np.random.default_rng([d, n, 17]), injective=False)
    descs = [desc for desc, _, _ in _operator_cases(win, W, U, B, smap)]
    descs += [{"kind": "haar_shift", "sigma": collide}, {"kind": "commutator", "B": B, "sigma": collide}]
    return win, W, U, descs


def test_adjoint_cases_reach_colliding_shifts():
    sigmas = [
        desc["sigma"] for d, n, kind in _CONFIGS for desc in _adjoint_setup(d, n, kind)[3]
        if "sigma" in desc and desc["sigma"].window.d == 2
    ]
    assert any(not smap.is_injective() for smap in sigmas)


@pytest.mark.parametrize("kind", sorted(onorm._KERNELS))
def test_adjoint_kernels(kind):
    # <T f, g> = <f, T* g> on random batched blocks, and T* applied to the
    # standard basis is the conjugate transpose of the dense matrix.
    checked = 0
    for d, n, weights in _CONFIGS:
        win, W, U, descs = _adjoint_setup(d, n, weights)
        rng = np.random.default_rng([d, n, 23])
        L, N = win.leafcount, n * win.leafcount
        X, Y = (
            rng.standard_normal((L, n, 4))
            + (1j * rng.standard_normal((L, n, 4)) if weights == "complex" else 0.0)
            for _ in range(2)
        )
        for desc in descs:
            if desc["kind"] != kind:
                continue
            forward, adjoint = onorm._KERNELS[kind](desc, win)
            TX, TsY = forward(X), adjoint(Y)
            if weights == "real":
                assert TsY.dtype == np.float64, (d, n)
            lhs = np.einsum("lab,lab->b", TX, np.conj(Y))
            rhs = np.einsum("lab,lab->b", X, np.conj(TsY))
            scale = np.linalg.norm(TX) * np.linalg.norm(Y) + np.linalg.norm(X) * np.linalg.norm(TsY)
            assert np.max(np.abs(lhs - rhs)) <= 1e-12 * scale, (d, n, weights)
            dense = onorm.materialize(desc, win, n).matrix.conj().T
            basis = np.eye(N).reshape(L, n, N)
            Ts = adjoint(basis).reshape(N, N)
            assert np.max(np.abs(Ts - dense)) <= 1e-12 * max(1.0, np.max(np.abs(dense))), (d, n, weights)
            checked += 1
    assert checked


@pytest.mark.parametrize("kind", sorted(onorm._KERNELS))
def test_weighted_norm_p2_matches_dense(kind):
    # W != U, and the complex configurations have complex weights; the
    # matrix-free norm against the dense one and against the Gram-eigvalsh
    # oracle, which shares no eigensolver with either
    for d, n, weights in _CONFIGS:
        win, W, U, descs = _adjoint_setup(d, n, weights)
        for desc in descs:
            if desc["kind"] != kind:
                continue
            T = onorm.materialize(desc, win, n)
            got = onorm.weighted_norm_p2(desc, W, U)
            for want in (onorm.weighted_opnorm_p2(T, W, U), oref.weighted_opnorm_p2(T, W, U)):
                assert abs(got - want) <= 1e-12 * want, (d, n, weights, got, want)


@pytest.mark.parametrize("kind", sorted(onorm._KERNELS))
def test_weighted_opnorm_p2_matches_eigvalsh_oracle(kind):
    # The dense norm (Lanczos on matrix-vector products) against the
    # conjugated matrix's Gram and a full eigvalsh, for T with W != U and
    # for T^H with the inverse weights swapped, on float64 and complex
    # operands.
    checked = 0
    for d, n, weights in _CONFIGS:
        win, W, U, descs = _adjoint_setup(d, n, weights)
        for desc in descs:
            if desc["kind"] != kind:
                continue
            T = onorm.materialize(desc, win, n)
            Tstar = onorm.OperatorMatrix(T.matrix.conj().T, win, n, "adjoint")
            for args in ((T, W, U), (Tstar, U.inverse(), W.inverse())):
                got = onorm.weighted_opnorm_p2(*args)
                want = oref.weighted_opnorm_p2(*args)
                assert abs(got - want) <= 1e-12 * want, (d, n, weights, got, want)
            checked += 1
    assert checked


def test_weighted_norm_p2_past_the_dense_cap():
    # n * leafcount = 8192: materialize refuses, the matrix-free norm runs,
    # and ||T||_{U -> W} = ||T*||_{W^-1 -> U^-1} for T_A (T* = T_{A^H}) and
    # for pi_B (pi_B* = the dual paraproduct of B^H)
    rng = np.random.default_rng(8192)
    win, n = Window.unit(1, 12), 2
    W = bmo.bounded_weight(win, n, rng)
    U = bmo.bounded_weight(win, n, rng)
    B = bmo.random_matrix_field(win, n, rng)
    A = tf.analyze(B)
    Ah = tf.HaarSpectrum(win, [np.conj(np.swapaxes(c, -1, -2)) for c in A.coefs], A.root)
    Bh = MatrixField(win, np.conj(np.swapaxes(B.leaves, 1, 2)))
    pairs = [
        ({"kind": "haar_multiplier", "A": A}, {"kind": "haar_multiplier", "A": Ah}),
        ({"kind": "paraproduct", "B": B}, {"kind": "dual_paraproduct", "B": Bh}),
    ]
    for op, adjoint in pairs:
        with pytest.raises(onorm.CapError):
            onorm.materialize(op, win, n)
        lhs = onorm.weighted_norm_p2(op, W, U)
        rhs = onorm.weighted_norm_p2(adjoint, U.inverse(), W.inverse())
        assert lhs > 0
        assert abs(lhs - rhs) <= 1e-12 * lhs, (op["kind"], lhs, rhs)


def test_weighted_norm_p2_zero_operator_and_open_bracket(rng, monkeypatch):
    win = Window.unit(1, 2)
    W, U = bmo.bounded_weight(win, 2, rng), _complex_weight(win, rng)
    zero = {"kind": "haar_multiplier", "A": tf.HaarSpectrum.zeros(win, (2, 2))}
    assert onorm.weighted_norm_p2(zero, W, U) == 0.0
    op = {"kind": "paraproduct", "B": bmo.random_matrix_field(win, 2, rng)}
    monkeypatch.setattr(onorm, "_LANCZOS_RTOL", -1.0)  # a bracket that never closes
    with pytest.raises(onorm.LanczosError, match="after 8 steps"):
        onorm.weighted_norm_p2(op, W, U)


def test_weighted_norm_p2_prepares_each_descriptor_once(rng, monkeypatch):
    # The symbol is analysed once for the kernel and its adjoint together,
    # not on every Lanczos step, and the conjugated paraproduct's adjoint
    # levels V_I A_I are formed once.
    win = Window.unit(1, 5)
    W, U = bmo.bounded_weight(win, 2, rng), bmo.bounded_weight(win, 2, rng)
    B = bmo.random_matrix_field(win, 2, rng)
    A = tf.analyze(B)
    calls = []

    def spy_on(name):
        real = getattr(tf, name)

        def spy(*args):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(tf, name, spy)

    spy_on("analyze")
    spy_on("_conjugated_adjoint_levels")
    for kind in ("paraproduct", "dual_paraproduct"):
        calls.clear()
        assert onorm.weighted_norm_p2({"kind": kind, "B": B}, W, U) > 0
        assert calls == ["analyze"], kind
    calls.clear()
    op = {"kind": "conjugated_paraproduct", "A": A, "W": W, "U": U, "p": 2.0}
    assert onorm.weighted_norm_p2(op, W, U) > 0
    assert calls == ["_conjugated_adjoint_levels"]


def test_weighted_norm_p2_refuses_bad_operands(rng):
    win = Window.unit(1, 3)
    W = bmo.bounded_weight(win, 2, rng)
    B = bmo.random_matrix_field(win, 2, rng)
    with pytest.raises(ValueError, match="unknown operator descriptor kind 'nope'"):
        onorm.weighted_norm_p2({"kind": "nope"}, W, W)
    with pytest.raises(NotPositiveDefiniteError):
        onorm.weighted_norm_p2({"kind": "paraproduct", "B": B}, W, B)
    T = onorm.materialize({"kind": "paraproduct", "B": B}, win, 2)
    for weights in ((B, W), (W, B)):
        with pytest.raises(NotPositiveDefiniteError):
            onorm.weighted_opnorm_p2(T, *weights)


@pytest.mark.parametrize("kind", sorted(onorm._KERNELS))
def test_operator_norm_is_the_direct_call(kind):
    # The exact-or-lower-bound choice returns the very bits of the call it
    # chooses, for a descriptor and for its dense matrix: at p != 2 a
    # descriptor is materialized first, as a direct caller would.
    checked = 0
    for d, n, weights in ((1, 2, "real"), (2, 2, "complex")):
        win, W, U, descs = _adjoint_setup(d, n, weights)
        for desc in descs:
            if desc["kind"] != kind:
                continue
            T = onorm.materialize(desc, win, n)
            assert onorm._operator_norm(desc, W, U, 2.0) == (onorm.weighted_norm_p2(desc, W, U), True)
            assert onorm._operator_norm(T, W, U, 2.0) == (onorm.weighted_opnorm_p2(T, W, U), True)
            lower, _ = onorm.lp_opnorm_estimate(T, W, U, 3.0, budget=5)
            for op in (desc, T):
                assert onorm._operator_norm(op, W, U, 3.0, budget=5) == (lower, False)
            checked += 1
    assert checked


def test_foreign_operator_matrix_is_refused_before_its_pair(rng, monkeypatch):
    win, other = Window.unit(1, 3), Window.unit(1, 3)
    W = bmo.bounded_weight(win, 2, rng)
    op = {"kind": "paraproduct", "B": bmo.random_matrix_field(other, 2, rng)}
    T = onorm.materialize(op, other, 2)
    calls = []
    real = onorm._dense_pair
    monkeypatch.setattr(onorm, "_dense_pair", lambda M: calls.append(M) or real(M))
    for p in (2.0, 3.0):
        with pytest.raises(WindowError):
            onorm._operator_norm(T, W, W, p)
    assert calls == []
    V = bmo.bounded_weight(other, 2, rng)
    onorm._operator_norm(T, V, V, 2.0)
    assert len(calls) == 1  # the spy sees the pair of a matrix on its own window


def test_norm_choice_runs_once_per_seed_and_p(rng, monkeypatch):
    calls = []
    real = onorm._operator_norm

    def spy(op, W, U, p, budget=60):
        calls.append((p, budget))
        return real(op, W, U, p, budget)

    monkeypatch.setattr(onorm, "_operator_norm", spy)
    spec = {"n": 2, "d": 1, "depth": 3, "seeds": [0, 1], "p_values": [2.0, 3.0]}
    rows = bmo.equivalence_experiment(spec)["rows"]
    assert calls == [(2.0, 25), (3.0, 25)] * 2
    assert [row["pi_opnorm_exact"] for row in rows] == [True, False] * 2
    calls.clear()
    win = Window.unit(1, 3)
    W, U = bmo.bounded_weight(win, 2, rng), bmo.bounded_weight(win, 2, rng)
    A = tf.analyze(bmo.random_matrix_field(win, 2, rng))
    exact = [onorm.haar_multiplier_norm_relation(A, W, U, p)["exact"] for p in (2.0, 3.0)]
    assert calls == [(2.0, 60), (3.0, 60)] and exact == [True, False]


def _psd_with_spectrum(rng, vals, complex_=False):
    """A Hermitian matrix Q diag(vals) Q^H with a random (unitary) Q."""
    N = len(vals)
    X = rng.standard_normal((N, N))
    if complex_:
        X = X + 1j * rng.standard_normal((N, N))
    Q = np.linalg.qr(X)[0]
    G = (Q * np.asarray(vals, dtype=float)) @ Q.conj().T
    return 0.5 * (G + G.conj().T)


@pytest.mark.parametrize(
    "case",
    ["growth", "clustered", "repeated_top", "rank_one", "zero", "one_by_one", "complex"],
)
def test_lanczos_top_matches_eigvalsh(case):
    # _lanczos_top against a full eigvalsh of the same Hermitian PSD matrix;
    # "growth" has a crowded top of the spectrum, so the Krylov basis
    # outgrows its first 32 rows and is doubled.  "clustered" packs 60
    # eigenvalues into [0.99, 1] above 40 in [0, 0.1]: its bracket closes
    # after some 80 of the N = 100 steps, long after the plain three-term
    # recurrence has lost orthogonality; without the reorthogonalization
    # the basis repeats directions, and the bracket stays open until step N.
    rng = np.random.default_rng(7)
    if case == "growth":
        G = _psd_with_spectrum(rng, np.linspace(0.0, 1.0, 120))
    elif case == "clustered":
        G = _psd_with_spectrum(rng, np.r_[np.linspace(0.99, 1.0, 60), np.linspace(0.0, 0.1, 40)])
    elif case == "repeated_top":
        G = _psd_with_spectrum(rng, np.r_[[4.0] * 3, rng.uniform(0.0, 3.0, 37)])
    elif case == "rank_one":
        u = rng.standard_normal(50)
        G = np.outer(u, u)
    elif case == "zero":
        G = np.zeros((20, 20))
    elif case == "one_by_one":
        G = np.array([[2.5]])
    else:
        G = _psd_with_spectrum(rng, rng.uniform(0.0, 2.0, 40), complex_=True)
    calls = []

    def gram(x):
        calls.append(1)
        return G @ x

    got = onorm._lanczos_top(gram, len(G))
    want = np.linalg.eigvalsh(G)[-1]
    if case == "zero":
        assert got == 0.0
    else:
        assert abs(got - want) <= 1e-12 * want, (got, want)
    if case == "growth":
        assert len(calls) > 32
    if case == "clustered":
        assert len(calls) < len(G)


@pytest.mark.parametrize("kind", ["haar_shift", "commutator"])
def test_materialized_shift_projects_input_without_headroom(kind):
    # The dense shift and commutator act on any input as the operator after
    # the projection that kills the last coefficient level.
    rng = np.random.default_rng(5)
    win, n = Window.unit(1, 5), 2
    B = bmo.random_matrix_field(win, n, rng, headroom=1)
    smap = tf.ShiftMap.random(win, rng)
    f = bmo.random_vector_field(win, n, rng)
    spec = tf.analyze(f)
    spec.coefs[win.depth - 1][:] = 0.0
    g = tf.synthesize(spec)
    if kind == "haar_shift":
        desc, name, operands = {"kind": kind, "sigma": smap}, "haar_shift", (smap,)
    else:
        desc = {"kind": kind, "B": B, "sigma": smap}
        name, operands = "shift_commutator", (B, smap)
    with pytest.raises(tf.HeadroomError):
        getattr(tf, name)(*operands, f)
    T = onorm.materialize(desc, win, n)
    assert T.provenance == kind + "*headroom_projection"
    want = getattr(oref, name)(*operands, g).leaves
    scale = max(1.0, float(np.max(np.abs(want))))
    assert np.max(np.abs(T.apply_field(f).leaves - want)) < 1e-12 * scale


@pytest.mark.parametrize("depth", [3, 12])
def test_materialize_unknown_kind(depth):
    # the kind is looked up before the size cap and the basis allocation
    with pytest.raises(ValueError, match="unknown operator descriptor kind 'nope'"):
        onorm.materialize({"kind": "nope"}, Window.unit(1, depth), 2)


def _materialize_columns(op, window, n):
    # The column loop materialize once ran for bare callables: apply the
    # operator to one standard basis field at a time.
    N = n * window.leafcount
    cols = np.zeros((N, N), dtype=complex)
    basis = np.zeros(N, dtype=complex)
    for i in range(N):
        basis[i] = 1.0
        f = VectorField(window, basis.reshape(window.leafcount, n))
        cols[:, i] = op(f).leaves.reshape(-1)
        basis[i] = 0.0
    return cols


def test_materialize_callable_fallback(rng):
    win = Window.unit(1, 3)
    B = bmo.random_matrix_field(win, 2, rng)
    T1 = onorm.materialize({"kind": "paraproduct", "B": B}, win, 2)
    T2 = _materialize_columns(lambda g: tf.paraproduct(B, g), win, 2)
    assert np.max(np.abs(T1.matrix - T2)) < 1e-12


def test_materialize_cap():
    win = Window.unit(1, 12)
    with pytest.raises(onorm.CapError):
        onorm.materialize({"kind": "paraproduct", "B": None}, win, 2)


def test_weighted_opnorm_identity():
    win = Window.unit(1, 3)
    n = 2
    T = onorm.OperatorMatrix(
        np.eye(n * win.leafcount, dtype=complex), win, n, "identity"
    )
    rng = np.random.default_rng(0)
    W = bmo.bounded_weight(win, n, rng)
    assert np.isclose(onorm.weighted_opnorm_p2(T, W, W), 1.0, atol=1e-10)


def test_weighted_opnorm_single_block():
    # T_A with one coefficient matrix M on one mode has unweighted norm ||M||
    win = Window.unit(1, 3)
    M = np.array([[1.0, 2.0], [0.0, 0.5]])
    A = tf.HaarSpectrum.zeros(win, (2, 2))
    A.coefs[1][0, 0] = M
    T = onorm.materialize({"kind": "haar_multiplier", "A": A}, win, 2)
    Iw = MatrixField.identity(win, 2)
    assert np.isclose(
        onorm.weighted_opnorm_p2(T, Iw, Iw), np.linalg.norm(M, 2), rtol=1e-10
    )


def test_weighted_opnorm_scalar_oracle(rng):
    depth = 4
    win = Window.unit(1, depth)
    w_vals = random_scalar_weight(rng, depth)
    u_vals = random_scalar_weight(rng, depth)
    b_vals = rng.standard_normal(2**depth)
    W = scalar_field(win, w_vals, weight=True)
    U = scalar_field(win, u_vals, weight=True)
    B = scalar_field(win, b_vals)
    A = tf.analyze(B)
    a = {
        (j, k): float(A.coefs[j][k, 0, 0, 0].real)
        for j in range(depth)
        for k in range(2**j)
    }
    T = onorm.materialize(
        {"kind": "conjugated_paraproduct", "A": A, "W": W, "U": U, "p": 2.0},
        win,
        1,
    )
    Iw = MatrixField.identity(win, 1)
    got = onorm.weighted_opnorm_p2(T, Iw, Iw)
    M = ref.conjugated_paraproduct_matrix(a, w_vals, u_vals, 2.0, depth)
    assert np.isclose(got, ref.l2_opnorm(M, depth), rtol=1e-9)


def test_adjoint_duality_p2(rng):
    win = Window.unit(1, 4)
    n = 2
    W = bmo.bounded_weight(win, n, rng)
    U = bmo.bounded_weight(win, n, rng)
    B = bmo.random_matrix_field(win, n, rng)
    T = onorm.materialize({"kind": "paraproduct", "B": B}, win, n)
    Tstar = onorm.OperatorMatrix(T.matrix.conj().T, win, n, "adjoint")
    lhs = onorm.weighted_opnorm_p2(T, W, U)
    rhs = onorm.weighted_opnorm_p2(Tstar, U.inverse(), W.inverse())
    assert np.isclose(lhs, rhs, rtol=1e-9)


def _blockdiag_power(F, power):
    # dense oracle: the power of the whole block-diagonal matrix via eigh
    L, n = F.window.leafcount, F.n
    D = np.zeros((L * n, L * n), dtype=complex)
    for i in range(L):
        D[i * n : (i + 1) * n, i * n : (i + 1) * n] = F.leaves[i]
    vals, vecs = np.linalg.eigh(D)
    return (vecs * vals**power) @ vecs.conj().T


def _complex_weight(win, rng):
    Q, _ = np.linalg.qr(
        rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    )
    F = bmo.bounded_weight(win, 2, rng)
    return MatrixField(win, Q @ F.leaves @ Q.conj().T, weight=True)


def _svd_oracle(T, W, U):
    A = _blockdiag_power(W, 0.5) @ T.matrix @ _blockdiag_power(U, -0.5)
    return np.linalg.norm(A, 2)


@pytest.mark.parametrize(
    "weights, gram_dtype", [("real", np.float64), ("complex", np.complex128)]
)
def test_weighted_opnorm_p2_matches_svd(rng, monkeypatch, weights, gram_dtype):
    win = Window.unit(1, 5)
    if weights == "real":
        W = bmo.bounded_weight(win, 2, rng)
        U = bmo.bounded_weight(win, 2, rng)
    else:
        W = _complex_weight(win, rng)
        U = _complex_weight(win, rng)
    B = bmo.random_matrix_field(win, 2, rng)
    T = onorm.materialize({"kind": "paraproduct", "B": B}, win, 2)
    want = _svd_oracle(T, W, U)
    # real weights and symbol keep the Gram map, and so every Lanczos
    # vector, in float64; complex weights run it in complex128
    seen = []
    lanczos_top = onorm._lanczos_top

    def spy(gram, N):
        def recorded(x):
            y = gram(x)
            seen.append(y.dtype)
            return y

        return lanczos_top(recorded, N)

    monkeypatch.setattr(onorm, "_lanczos_top", spy)
    got = onorm.weighted_opnorm_p2(T, W, U)
    monkeypatch.undo()
    assert seen and set(seen) == {np.dtype(gram_dtype)}
    assert np.isclose(got, want, rtol=1e-12)


def test_weighted_opnorm_p2_zero_operator(rng):
    win = Window.unit(1, 4)
    W = _complex_weight(win, rng)
    U = bmo.bounded_weight(win, 2, rng)
    Z = onorm.OperatorMatrix(
        np.zeros((2 * win.leafcount,) * 2, dtype=complex), win, 2, "zero"
    )
    assert onorm.weighted_opnorm_p2(Z, W, U) == 0.0


def test_weighted_opnorm_p2_adjoint_complex(rng):
    win = Window.unit(1, 5)
    W = _complex_weight(win, rng)
    U = _complex_weight(win, rng)
    B = bmo.random_matrix_field(win, 2, rng)
    T = onorm.materialize({"kind": "paraproduct", "B": B}, win, 2)
    Tstar = onorm.OperatorMatrix(T.matrix.conj().T, win, 2, "adjoint")
    lhs = onorm.weighted_opnorm_p2(T, W, U)
    rhs = onorm.weighted_opnorm_p2(Tstar, U.inverse(), W.inverse())
    assert np.isclose(lhs, rhs, rtol=1e-12)
    assert np.isclose(lhs, _svd_oracle(T, W, U), rtol=1e-12)


def test_lp_lower_bounds(rng):
    win = Window.unit(1, 4)
    n = 2
    W = bmo.bounded_weight(win, n, rng)
    U = bmo.bounded_weight(win, n, rng)
    B = bmo.random_matrix_field(win, n, rng)
    T = onorm.materialize({"kind": "paraproduct", "B": B}, win, n)
    Z = onorm.OperatorMatrix(np.zeros_like(T.matrix), win, n, "zero")
    lo, up = onorm.lp_opnorm_estimate(Z, W, U, 3.0, budget=5)
    assert lo == 0.0 and up is None
    exact = onorm.weighted_opnorm_p2(T, W, U)
    lo2, _ = onorm.lp_opnorm_estimate(T, W, U, 2.0, budget=40)
    assert lo2 <= exact * (1 + 1e-8)
    assert lo2 >= 0.5 * exact  # ascent gets within a factor on small windows


@functools.lru_cache(maxsize=None)
def _lp_setup(d, n, weights):
    """Weights and symbol on a window of at most 64 leaves; complex weights
    are unitary conjugates Q W Q^H, with a complex B."""
    rng = np.random.default_rng([d, n, weights == "complex", 3])
    win = Window.unit(d, {1: 5, 2: 3, 3: 2}[d])
    W = bmo.bounded_weight(win, n, rng)
    U = bmo.bounded_weight(win, n, rng)
    B = bmo.random_matrix_field(win, n, rng)
    if weights == "complex":
        Q = np.linalg.qr(
            rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        )[0]
        W = MatrixField(win, Q @ W.leaves @ Q.conj().T, weight=True)
        U = MatrixField(win, Q @ U.leaves @ Q.conj().T, weight=True)
        B = MatrixField(win, B.leaves + 1j * bmo.random_matrix_field(win, n, rng).leaves)
    else:  # real data in complex128, the dtype the reference computes in
        W = MatrixField(win, W.leaves.astype(complex), weight=True)
        U = MatrixField(win, U.leaves.astype(complex), weight=True)
        B = MatrixField(win, B.leaves.astype(complex))
    return win, W, U, B


@pytest.mark.parametrize("d", [1, 2, 3])
def test_lp_opnorm_estimate_matches_reference(d):
    # The level-by-level test family and the one L^p mass reproduce the
    # per-cube reference bit for bit, sweep (budget 0) and ascent alike.
    for n in (1, 2, 3):
        for weights in ("real", "complex"):
            win, W, U, B = _lp_setup(d, n, weights)
            A = tf.analyze(B)
            for p in (1.5, 3.0):
                for desc in (
                    {"kind": "paraproduct", "B": B},
                    {"kind": "conjugated_paraproduct", "A": A, "W": W, "U": U, "p": p},
                    {"kind": "haar_multiplier", "A": A},
                ):
                    T = onorm.materialize(desc, win, n)
                    for budget in (0, 5, 25):
                        got = onorm.lp_opnorm_estimate(T, W, U, p, budget=budget)
                        want = oref.lp_opnorm_estimate(T, W, U, p, budget=budget)
                        assert got == want, (desc["kind"], n, weights, p, budget)


@pytest.mark.parametrize("p", [0.5, 1.0, np.inf, np.nan])
def test_lp_opnorm_estimate_rejects_p_outside_range(p, monkeypatch):
    win = Window.unit(1, 3)
    Iw = MatrixField.identity(win, 1)
    T = onorm.OperatorMatrix(np.eye(win.leafcount, dtype=complex), win, 1, "identity")

    def no_power(self, s):
        raise AssertionError("a power was formed before p was checked")

    monkeypatch.setattr(MatrixField, "power", no_power)
    with pytest.raises(FieldError, match="p must lie in"):
        onorm.lp_opnorm_estimate(T, Iw, Iw, p)


def test_lp_sweep_refused_over_its_budget(monkeypatch):
    # d = 1, depth 4, n = 2: levels 0-4 give 6 * 31 = 186 test columns of
    # 32 entries, counted as 5 arrays of 16-byte entries.  Over the budget
    # the estimate is refused before any power, matrix or column is formed.
    win = Window.unit(1, 4)
    W = MatrixField.identity(win, 2)
    B = bmo.random_matrix_field(win, 2, np.random.default_rng(0))
    desc = {"kind": "haar_multiplier", "A": tf.analyze(B)}
    need = 5 * 16 * 32 * 186
    monkeypatch.setattr(onorm, "_SWEEP_BUDGET", need)
    assert onorm.lp_opnorm_estimate(desc, W, W, 3.0, budget=0)[0] > 0

    def forbidden(*args, **kwargs):
        raise AssertionError("work was done before the sweep was refused")

    monkeypatch.setattr(onorm, "_SWEEP_BUDGET", need - 1)
    monkeypatch.setattr(MatrixField, "power", forbidden)
    monkeypatch.setattr(onorm, "materialize", forbidden)
    with pytest.raises(onorm.CapError, match="186 test columns of 32 entries"):
        onorm.lp_opnorm_estimate(desc, W, W, 3.0)


def test_lp_norm_is_the_weighted_lp_mass(rng):
    # ||f||_{L^p(W)}^p = sum over leaves of |x| |W^{1/p} f|^p
    win = Window.unit(2, 2)
    W = bmo.bounded_weight(win, 2, rng)
    f = bmo.random_vector_field(win, 2, rng)
    for p in (1.5, 3.0):
        g = np.einsum("lab,lb->la", W.power(1.0 / p).leaves, f.leaves)
        want = (win.leaf_volume * np.sum(np.linalg.norm(g, axis=1) ** p)) ** (1.0 / p)
        assert np.isclose(f.lp_norm(p, weight=W), want, rtol=1e-14)
        plain = (win.leaf_volume * np.sum(np.linalg.norm(f.leaves, axis=1) ** p)) ** (1.0 / p)
        assert np.isclose(f.lp_norm(p), plain, rtol=1e-14)


def test_martingale_transform_unweighted_norm(rng):
    # unimodular signs, w = u = 1: single Haar modes already give ratio 1,
    # so the lower bound reaches 1; the true L^3 norm is at most the
    # unconditionality constant max(p, p') - 1 = 2
    depth = 4
    win = Window.unit(1, depth)
    A = tf.HaarSpectrum.zeros(win, (1, 1))
    for j in range(depth):
        A.coefs[j][:, 0, 0, 0] = rng.choice([-1.0, 1.0], size=2**j)
    T = onorm.materialize({"kind": "haar_multiplier", "A": A}, win, 1)
    Iw = MatrixField.identity(win, 1)
    lo, _ = onorm.lp_opnorm_estimate(T, Iw, Iw, 3.0, budget=40)
    assert lo >= 1.0 - 1e-9
    assert lo <= 2.0 + 1e-9


def test_haar_multiplier_norm_relation(rng):
    win = Window.unit(1, 4)
    n = 2
    W = bmo.bounded_weight(win, n, rng)
    U = bmo.bounded_weight(win, n, rng)
    Z = tf.HaarSpectrum.zeros(win, (n, n))
    rep = onorm.haar_multiplier_norm_relation(Z, W, U, 2.0)
    assert rep["sup_criterion"] == 0.0 and rep["operator_norm"] == 0.0
    # constructed instance: A_I = V_I(W)^{-1} V_I(U) makes the criterion 1
    tw, tu = W.reducing_table(2.0), U.reducing_table(2.0)
    A = tf.HaarSpectrum.zeros(win, (n, n))
    for j in range(win.depth):
        A.coefs[j][:, :] = (tw.inv(j) @ tu.mats[j])[:, None]
    rep = onorm.haar_multiplier_norm_relation(A, W, U, 2.0)
    assert np.isclose(rep["sup_criterion"], 1.0, rtol=1e-10)
    assert rep["exact"]
    assert 0.05 < rep["ratio"] < 20.0


def test_haar_multiplier_relation_scalar(rng):
    depth = 4
    win = Window.unit(1, depth)
    w_vals = random_scalar_weight(rng, depth)
    W = scalar_field(win, w_vals, weight=True)
    B = scalar_field(win, rng.standard_normal(2**depth))
    A = tf.analyze(B)
    rep = onorm.haar_multiplier_norm_relation(A, W, W, 2.0)
    # classical weighted criterion at w = u: sup |a_I|, since V cancels
    sup = max(
        abs(float(A.coefs[j][k, 0, 0, 0].real))
        for j in range(depth)
        for k in range(2**j)
    )
    assert np.isclose(rep["sup_criterion"], sup, rtol=1e-9)


def test_dual_route_lower_bounds_both_finite(rng):
    # the adjoint route: the dual conjugated operator at p' built from the
    # dual weights and conjugated coefficients is bounded together with the
    # primal one; lower bounds land in a common band
    win = Window.unit(1, 4)
    n = 2
    p = 3.0
    pp = p / (p - 1.0)
    W = bmo.bounded_weight(win, n, rng)
    U = bmo.bounded_weight(win, n, rng)
    B = bmo.random_matrix_field(win, n, rng)
    A = tf.analyze(B)
    Astar = tf.HaarSpectrum.zeros(win, (n, n))
    for j in range(win.depth):
        Astar.coefs[j] = np.conj(np.swapaxes(A.coefs[j], 2, 3))
    Iw = MatrixField.identity(win, n)
    T = onorm.materialize(
        {"kind": "conjugated_paraproduct", "A": A, "W": W, "U": U, "p": p},
        win, n,
    )
    Td = onorm.materialize(
        {
            "kind": "conjugated_paraproduct",
            "A": Astar,
            "W": U.power(1.0 - pp),
            "U": W.power(1.0 - pp),
            "p": pp,
        },
        win, n,
    )
    lo, _ = onorm.lp_opnorm_estimate(T, Iw, Iw, p, budget=30)
    lod, _ = onorm.lp_opnorm_estimate(Td, Iw, Iw, pp, budget=30)
    assert lo > 0 and lod > 0
    assert 1e-3 < lo / lod < 1e3


def test_materialize_consistency_deep_window(rng):
    # near the dense cap: depth 10, d = 1, n = 2 (N = 2048)
    win = Window.unit(1, 10)
    n = 2
    W = bmo.bounded_weight(win, n, rng)
    U = bmo.bounded_weight(win, n, rng)
    B = bmo.random_matrix_field(win, n, rng)
    A = tf.analyze(B)
    T = onorm.materialize(
        {"kind": "conjugated_paraproduct", "A": A, "W": W, "U": U, "p": 2.0},
        win, n,
    )
    f = bmo.random_vector_field(win, n, rng)
    direct = tf.conjugated_paraproduct(A, W, U, 2.0, f)
    via = T.apply_field(f)
    scale = max(1.0, float(np.max(np.abs(direct.leaves))))
    assert np.max(np.abs(direct.leaves - via.leaves)) < 1e-10 * scale
