import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from matweight.dyadic import Window, WindowError
from matweight import fields
from matweight.fields import (
    FieldError,
    MatrixField,
    NotPositiveDefiniteError,
    VectorField,
    a2_exact_form,
    ap_characteristic,
    ap_characteristic_report,
    dump_field,
    generate_weight,
    load_field,
    reducing_operator,
    verify_reducing_comparability,
)

import reducing_reference as red_ref
import scalar_reference as ref
from conftest import family_ap, scalar_field, random_scalar_weight


def rand_spd(rng, n, scale=1.0):
    A = rng.standard_normal((n, n))
    return scale * (A @ A.T + n * np.eye(n))


# -- averages and powers -------------------------------------------------------


def test_average_constant_field():
    win = Window.unit(2, 3)
    M = np.array([[2.0, 1.0], [1.0, 3.0]])
    W = MatrixField.constant(win, M, weight=True)
    for j, k in ((0, 0), (2, 7), (3, 11)):
        assert np.allclose(W.average((j, k)), M)


def test_average_hand_value():
    win = Window.unit(1, 1)
    w = scalar_field(win, [1.0, 4.0], weight=True)
    assert np.isclose(w.average((0, 0))[0, 0].real, 2.5)


def test_average_commutes_with_refinement(rng):
    win = Window.unit(1, 4)
    leaves = np.array([rand_spd(rng, 2) for _ in range(win.leafcount)])
    W = MatrixField(win, leaves, weight=True)
    avgs = W.level_averages()
    for j in range(win.depth):
        kids = avgs[j + 1][win.children_index(j)]
        assert np.allclose(avgs[j], kids.mean(axis=1))


def test_average_outside_window():
    win = Window.unit(1, 3)
    W = MatrixField.identity(win, 2)
    with pytest.raises(WindowError):
        W.average((4, 0))


def test_power_identity_and_diag():
    win = Window.unit(1, 2)
    W = MatrixField.identity(win, 2)
    assert np.allclose(W.power(0.37).leaves, W.leaves)
    D = MatrixField.constant(win, np.diag([4.0, 9.0]), weight=True)
    assert np.allclose(D.power(0.5).leaves[0], np.diag([2.0, 3.0]))


def test_power_roundtrip(rng):
    win = Window.unit(1, 3)
    leaves = np.array([rand_spd(rng, 3) for _ in range(win.leafcount)])
    W = MatrixField(win, leaves, weight=True)
    back = W.power(1.0 / 3.0).power(3.0)
    assert np.max(np.abs(back.leaves - W.leaves)) < 1e-9


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_conj_transpose_of_a_weight_needs_no_eigensolve(rng, monkeypatch, kind):
    # The constructor makes a weight's leaves exactly Hermitian, so the
    # weight is its own pointwise adjoint and is not checked again.
    win = Window.unit(1, 3)
    leaves = np.array([rand_spd(rng, 3) for _ in range(win.leafcount)])
    if kind == "complex":
        Q = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0]
        leaves = Q.conj().T @ leaves @ Q
    W = MatrixField(win, leaves, weight=True)
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def spy(a, *args, **kwargs):
        calls.append(a.shape)
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    Wt = W.conj_transpose()
    assert calls == []
    assert Wt.is_weight
    assert np.array_equal(Wt.leaves, np.conj(np.swapaxes(W.leaves, 1, 2)))
    B = MatrixField(win, rng.standard_normal((win.leafcount, 3, 3)))
    Bt = B.conj_transpose()
    assert not Bt.is_weight
    assert np.array_equal(Bt.leaves, np.swapaxes(B.leaves, 1, 2))


def test_power_rejects_singular():
    win = Window.unit(1, 1)
    leaves = np.zeros((2, 2, 2))
    leaves[:] = np.diag([1.0, 0.0])
    M = MatrixField(win, leaves)
    with pytest.raises(NotPositiveDefiniteError):
        M.power(0.5)


def test_weight_flag_requires_positive():
    win = Window.unit(1, 1)
    leaves = np.zeros((2, 2, 2))
    leaves[:] = np.diag([1.0, -0.5])
    with pytest.raises(NotPositiveDefiniteError):
        MatrixField(win, leaves, weight=True)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_jensen_psd_ordering(seed):
    # (m_I A)^2 <= m_I (A^2) for Hermitian fields
    rng = np.random.default_rng(seed)
    win = Window.unit(1, 3)
    leaves = rng.standard_normal((win.leafcount, 2, 2))
    leaves = 0.5 * (leaves + np.swapaxes(leaves, 1, 2))
    A = MatrixField(win, leaves)
    sq = MatrixField(win, np.einsum("lab,lbc->lac", leaves, leaves))
    for j in range(win.depth + 1):
        m1 = A.level_averages()[j]
        m2 = sq.level_averages()[j]
        gap = m2 - np.einsum("kab,kbc->kac", m1, m1)
        assert np.min(np.linalg.eigvalsh(0.5 * (gap + np.conj(np.swapaxes(gap, 1, 2))))) > -1e-10


# -- A_p characteristic ---------------------------------------------------------


def test_ap_identity_weight():
    win = Window.unit(1, 4)
    for n in (1, 2, 3):
        W = MatrixField.identity(win, n)
        for p in (2.0, 3.0, 1.5):
            assert np.isclose(ap_characteristic(W, p), 1.0, atol=1e-12)


def test_ap_hand_jump_example():
    win = Window.unit(1, 1)
    w = scalar_field(win, [0.25, 4.0], weight=True)
    assert np.isclose(ap_characteristic(w, 2), (17.0 / 8.0) ** 2, atol=1e-12)


def test_ap_scalar_oracle(rng):
    depth = 5
    win = Window.unit(1, depth)
    for p in (2.0, 3.0, 1.5):
        vals = random_scalar_weight(rng, depth)
        W = scalar_field(win, vals, weight=True)
        assert np.isclose(ap_characteristic(W, p), ref.ap(vals, p, depth), rtol=1e-9)


def test_ap_p2_exact_form_identity(rng):
    win = Window.unit(1, 5)
    from matweight.bmo import bounded_weight

    W = bounded_weight(win, 2, rng, char_cap=50.0)
    assert np.isclose(ap_characteristic(W, 2), a2_exact_form(W), rtol=1e-9)


def test_ap_dual_weight_symmetry_p2(rng):
    win = Window.unit(1, 4)
    from matweight.bmo import bounded_weight

    W = bounded_weight(win, 2, rng, char_cap=50.0)
    Wd = W.inverse()
    assert np.isclose(ap_characteristic(W, 2), ap_characteristic(Wd, 2), rtol=1e-9)


def test_ap_dual_weight_general_p(rng):
    depth = 4
    win = Window.unit(1, depth)
    vals = random_scalar_weight(rng, depth)
    W = scalar_field(win, vals, weight=True)
    p = 3.0
    pp = p / (p - 1.0)
    dual = W.power(1.0 - pp)
    a = ap_characteristic(W, p)
    b = ap_characteristic(dual, pp)
    assert np.isfinite(a) and np.isfinite(b)
    # scalar identity: [w^{1-p'}]_{A_{p'}} = [w]_{A_p}^{p'-1}
    assert np.isclose(b, a ** (pp - 1.0), rtol=1e-8)


def test_ap_rejects_bad_p():
    win = Window.unit(1, 2)
    W = MatrixField.identity(win, 1)
    with pytest.raises(FieldError):
        ap_characteristic(W, 1.0)


def test_ap_witness_attains(rng):
    depth = 4
    win = Window.unit(1, depth)
    vals = random_scalar_weight(rng, depth)
    W = scalar_field(win, vals, weight=True)
    value, witness = ap_characteristic_report(W, 2)
    j, idx = win.rel_index(witness)
    m1 = float(np.mean(vals[idx * 2 ** (depth - j) : (idx + 1) * 2 ** (depth - j)]))
    m2 = float(
        np.mean(1.0 / vals[idx * 2 ** (depth - j) : (idx + 1) * 2 ** (depth - j)])
    )
    assert np.isclose(value, m1 * m2, rtol=1e-9)


def test_ap_cross_grid_at_least_own(rng):
    depth = 4
    win = Window.unit(1, depth)
    vals = random_scalar_weight(rng, depth)
    W = scalar_field(win, vals, weight=True)
    own = ap_characteristic(W, 2)
    both = ap_characteristic(W, 2, grids=[1, 2])
    assert both >= own - 1e-12


# The dense A_p path the library used before the Gram was streamed: the
# full N x N leaf Gram, gathered per cube.  Kept here as the test oracle.


def _dense_gram_power(W, p):
    pp = p / (p - 1.0)
    P = W.power(2.0 / p).leaves
    N = W.power(-2.0 / p).leaves
    n = W.n
    G = np.real(P.reshape(len(P), n * n) @ np.conj(N.reshape(len(N), n * n)).T) / n
    return np.maximum(G, 0.0) ** (pp / 2.0)


def _dense_own_grid_ap(W, p, max_rel_level):
    win = W.window
    pp = p / (p - 1.0)
    H = _dense_gram_power(W, p)
    best, best_cube = 0.0, (0, 0)
    per_level = []
    for j in range(0, max_rel_level + 1):
        idx = win.block_view(np.arange(win.leafcount), j)
        Hb = H[idx[:, :, None], idx[:, None, :]]
        inner = Hb.mean(axis=2) ** (p / pp)
        vals = inner.mean(axis=1)
        per_level.append(vals)
        k = int(np.argmax(vals))
        if vals[k] > best:
            best, best_cube = float(vals[k]), (j, k)
    return best, best_cube, per_level


def _dense_foreign_grid_ap(W, p, shift, max_level):
    from grid_reference import cube_pieces, enumerate_grid_cubes

    win = W.window
    pp = p / (p - 1.0)
    H = _dense_gram_power(W, p)
    best, best_cube = 0.0, None
    for k, cubes in enumerate_grid_cubes(win, shift, max_level=max_level):
        for cube in cubes:
            idx, vols = cube_pieces(win, cube)
            if idx.size == 0:
                continue
            w = vols / vols.sum()
            Hb = H[np.ix_(idx, idx)]
            inner = (Hb * w[None, :]).sum(axis=1) ** (p / pp)
            val = float((inner * w).sum())
            if val > best:
                best, best_cube = val, cube
    return best, best_cube


def _complex_log_spd(window, n, rng, amplitude=0.3):
    """exp of a real log_spd logarithm plus a random skew imaginary part."""
    Wr = generate_weight(
        {"kind": "log_spd", "n": n, "amplitude": 0.5,
         "seed": int(rng.integers(2**31))},
        window,
    )
    vals, vecs = np.linalg.eigh(Wr.leaves)
    logW = np.einsum("lab,lb,lcb->lac", vecs, np.log(vals), np.conj(vecs))
    B = rng.standard_normal((window.leafcount, n, n))
    H = logW + 1j * amplitude * (B - np.swapaxes(B, 1, 2))
    vals, vecs = np.linalg.eigh(H)
    leaves = np.einsum("lab,lb,lcb->lac", vecs, np.exp(vals), np.conj(vecs))
    return MatrixField(window, leaves, weight=True)


def _ap_weight(kind, d, depth, rng):
    win = Window.unit(d, depth)
    if kind == "complex":
        return _complex_log_spd(win, 2, rng)
    return generate_weight(
        {"kind": "log_spd", "n": 2, "amplitude": 0.5,
         "seed": int(rng.integers(2**31))},
        win,
    )


@pytest.mark.parametrize("budget", [2**22, 2**12, 2**10, 2**7, 2**6, 2**4, 24])
@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("d, depth", [(1, 6), (2, 3), (3, 2)])
def test_ap_matches_dense_gram_oracle(monkeypatch, rng, d, depth, p, kind, budget):
    # at N = 64 leaves the own grid takes one strip of all rows at 2^22;
    # strips of 16 or 8 rows at 2^12 and of 8 or 4 rows at 2^10, each with
    # several cubes below it, against all columns; strips of 4 rows (d <= 2)
    # against 2 column tiles at 2^7 and of 2 rows (d = 1) at 2^6, the
    # diagonal block in either tile; single rows against all columns at
    # 2^6 (d >= 2) and 2^7 (d = 3), against 4 column tiles at 2^4, and
    # against uneven tiles of 24, 24 and 16 at 24.  Foreign cubes stream
    # (cubes, rows, pieces) blocks.
    monkeypatch.setattr(fields, "_ROW_BUDGET", budget)
    W = _ap_weight(kind, d, depth, rng)
    win = W.window
    levels = fields._ap_levels(fields._OwnGrid(win), W, p)
    best, cube = fields._level_argmax(levels)
    want_best, want_cube, want_levels = _dense_own_grid_ap(W, p, depth)
    for got, want in zip(levels, want_levels, strict=True):
        np.testing.assert_allclose(got, want, rtol=1e-12)
    # cut above the leaves, so strips may be finer than the finest level
    half = depth // 2
    cut = fields._ap_levels(fields._OwnGrid(win, win.root.level + half), W, p)
    for got, want in zip(cut, want_levels[: half + 1], strict=True):
        np.testing.assert_allclose(got, want, rtol=1e-12)
    assert np.isclose(best, want_best, rtol=1e-12) and cube == want_cube
    if p == 2.0:
        assert np.isclose(a2_exact_form(W), want_best, rtol=1e-12)
    value, witness = ap_characteristic_report(W, p)
    assert value == best and witness == win.cube(*cube)
    want_all, want_witness = want_best, win.cube(*want_cube)
    for t in range(1, 2**d + 1):
        if t == win.grid.shift:
            continue
        got_val, got_cube = family_ap(fields._ShiftedGrid(win, t, depth), W, p)
        want_val, want_cube_t = _dense_foreign_grid_ap(W, p, t, depth)
        assert np.isclose(got_val, want_val, rtol=1e-12)
        assert got_cube.address == want_cube_t.address
        if want_val > want_all:
            want_all, want_witness = want_val, want_cube_t
    value_all, witness_all = ap_characteristic_report(
        W, p, grids=list(range(1, 2**d + 1))
    )
    assert np.isclose(value_all, want_all, rtol=1e-12)
    assert witness_all.address == want_witness.address


@pytest.mark.parametrize("where", ["root", "middle", "leaf"])
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("d, depth", [(1, 6), (2, 3)])
def test_ap_max_level_matches_dense_oracle(rng, d, depth, p, where):
    # every family is cut at max_level: the own grid and each shifted grid
    W = _ap_weight("real", d, depth, rng)
    win = W.window
    rel = {"root": 0, "middle": depth // 2, "leaf": depth}[where]
    level = win.root.level + rel
    want, cube, _ = _dense_own_grid_ap(W, p, rel)
    want_witness = win.cube(*cube)
    for t in range(1, 2**d + 1):
        if t == win.grid.shift:
            continue
        val, cube_t = _dense_foreign_grid_ap(W, p, t, level)
        if where == "root":
            assert cube_t is None  # no shifted cube fits at the root level
        if val > want:
            want, want_witness = val, cube_t
    value, witness = ap_characteristic_report(
        W, p, grids=list(range(1, 2**d + 1)), max_level=level
    )
    assert np.isclose(value, want, rtol=1e-12)
    assert witness.address == want_witness.address
    if where == "root":
        assert witness == win.root
        assert np.isclose(value, _dense_own_grid_ap(W, p, 0)[0], rtol=1e-12)


def _spy_pair_gram(monkeypatch):
    calls = []
    real = fields._pair_gram

    def spy(A, B, out=None):
        out = real(A, B, out)
        calls.append((A.copy(), out.shape))
        return out

    monkeypatch.setattr(fields, "_pair_gram", spy)
    return calls


def test_ap_p2_forms_no_gram(monkeypatch, rng):
    calls = _spy_pair_gram(monkeypatch)
    W = _ap_weight("complex", 2, 3, rng)
    ap_characteristic(W, 2.0)
    ap_characteristic(W, 2.0, grids=[1, 2, 3, 4])
    a2_exact_form(W)
    assert calls == []


@pytest.mark.parametrize("budget", [None, 2**14])
def test_ap_streamed_gram_blocks_bounded_and_cover_rows(monkeypatch, rng, budget):
    # N = 4096: strips of 64 rows against all columns at the default
    # budget; at 2^14 < 16 N, strips of 16 rows against 4 column tiles
    if budget is not None:
        monkeypatch.setattr(fields, "_ROW_BUDGET", budget)
    win = Window.unit(1, 12)
    W = generate_weight({"kind": "log_spd", "n": 2, "seed": 7}, win)
    calls = _spy_pair_gram(monkeypatch)
    ap_characteristic(W, 3.0)
    N = win.leafcount
    assert calls and all(rows * cols <= fields._ROW_BUDGET for _, (rows, cols) in calls)
    want_shape = (64, N) if budget is None else (16, N // 4)
    assert all(shape == want_shape for _, shape in calls)
    # the row strips hold every leaf's power exactly once, as real rows / n
    tiles = N // want_shape[1]
    seen = W.n * np.concatenate([A for A, _ in calls[::tiles]])
    want = W.power(2.0 / 3.0).leaves.reshape(N, W.n * W.n)

    def rows(a):
        return sorted(map(tuple, np.ascontiguousarray(a).view(float).tolist()))

    assert rows(seen) == rows(want)


@pytest.mark.parametrize("d, depth", [(1, 12), (2, 5)])
def test_ap_shifted_grid_gram_blocks_bounded(monkeypatch, d, depth):
    # the own grid streams 2-D row blocks against all N columns; a shifted
    # grid forms (cubes, rows, pieces) blocks.  At d = 1, depth 12 the
    # coarsest shifted cube has 2049 pieces, so its Gram is split into rows.
    win = Window.unit(d, depth)
    W = generate_weight({"kind": "log_spd", "n": 2, "seed": 7}, win)
    calls = _spy_pair_gram(monkeypatch)
    ap_characteristic(W, 3.0, grids=list(range(1, 2**d + 1)))
    shapes = [shape for _, shape in calls]
    assert all(np.prod(shape) <= fields._ROW_BUDGET for shape in shapes)
    own = [s for s in shapes if len(s) == 2]
    shifted = [s for s in shapes if len(s) == 3]
    assert own and shifted and len(own) + len(shifted) == len(shapes)
    assert all(cols == win.leafcount for _, cols in own)
    if d == 1:
        assert any(cubes == 1 and rows < pieces for cubes, rows, pieces in shifted)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_ap_invariant_under_scaling_and_unitary_conjugation(rng, p):
    W = _ap_weight("real", 2, 3, rng)
    grids = [1, 2, 3, 4]
    Q, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    scaled = MatrixField(W.window, 3.7 * W.leaves, weight=True)
    rotated = MatrixField(W.window, Q.conj().T @ W.leaves @ Q, weight=True)
    for g in (None, grids):
        want = ap_characteristic(W, p, grids=g)
        for V in (scaled, rotated):
            assert np.isclose(ap_characteristic(V, p, grids=g), want, rtol=1e-12)


# -- reducing operators -----------------------------------------------------------


def test_reducing_identity_all_p():
    win = Window.unit(1, 3)
    W = MatrixField.identity(win, 2)
    for p in (2.0, 3.0, 1.5):
        V = reducing_operator(W, (1, 1), p)
        assert np.allclose(V, np.eye(2), atol=1e-12)


def test_reducing_scalar_p2(rng):
    depth = 4
    win = Window.unit(1, depth)
    vals = random_scalar_weight(rng, depth)
    W = scalar_field(win, vals, weight=True)
    for j, k in ((0, 0), (2, 3)):
        V = reducing_operator(W, (j, k), 2.0)
        assert np.isclose(V[0, 0].real, ref.reducing(vals, 2.0, j, k, depth))


def test_reducing_scalar_general_p(rng):
    depth = 4
    win = Window.unit(1, depth)
    vals = random_scalar_weight(rng, depth)
    W = scalar_field(win, vals, weight=True)
    for p in (3.0, 1.5):
        table = W.reducing_table(p)
        for j, k in ((0, 0), (3, 5)):
            assert np.isclose(
                table.mats[j][k][0, 0].real, ref.reducing(vals, p, j, k, depth),
                rtol=1e-10,
            )
        dual = W.reducing_table(p, dual=True)
        for j, k in ((1, 0), (2, 2)):
            assert np.isclose(
                dual.mats[j][k][0, 0].real, ref.dual_reducing(vals, p, j, k, depth),
                rtol=1e-10,
            )


def test_reducing_p2_exact_average_invariant(rng):
    win = Window.unit(1, 4)
    leaves = np.array([rand_spd(rng, 2) for _ in range(win.leafcount)])
    W = MatrixField(win, leaves, weight=True)
    table = W.reducing_table(2)
    for j in range(win.depth + 1):
        sq = table.mats[j]
        back = np.einsum("kab,kbc->kac", sq, sq)
        assert np.max(np.abs(back - W.level_averages()[j])) < 1e-10
    assert table.kappa == 1.0


def test_reducing_diagonal_p4_direction_bruteforce(rng):
    win = Window.unit(1, 4)
    d1 = random_scalar_weight(rng, 4)
    d2 = random_scalar_weight(rng, 4)
    leaves = np.zeros((win.leafcount, 2, 2))
    leaves[:, 0, 0] = d1
    leaves[:, 1, 1] = d2
    W = MatrixField(win, leaves, weight=True)
    p = 4.0
    table = W.reducing_table(p)
    Wp = W.power(1.0 / p).leaves
    dirs = np.array([[1.0, 0.0], [0.0, 1.0], [0.6, 0.8], [-0.8, 0.6]])
    for j, k in ((0, 0), (2, 1)):
        sl = win.block_view(np.arange(win.leafcount), j)[k]
        for e in dirs:
            rho = float(
                np.mean(np.linalg.norm(Wp[sl] @ e, axis=1) ** p) ** (1.0 / p)
            )
            ve = float(np.linalg.norm(table.mats[j][k] @ e))
            assert ve / rho <= table.kappa * (1 + 1e-9)
            assert rho / ve <= table.kappa * (1 + 1e-9)
    # diagonal weight gives (numerically) diagonal reducing operators
    assert np.max(np.abs(table.mats[0][0] - np.diag(np.diag(table.mats[0][0])))) < 1e-10


def test_reducing_p2_predicate_is_shared():
    # ap_characteristic takes its exact p = 2 path within 1e-12 of 2; the
    # reducing table must take the exact average path there too
    W = generate_weight({"kind": "log_spd", "n": 2, "d": 1, "depth": 4, "seed": 3})
    near = fields.ReducingTable.build(W, 2.0 + 1e-13)
    exact = fields.ReducingTable.build(W, 2.0)
    assert near.exact and near.kappa == 1.0
    for a, b in zip(near.mats, exact.mats, strict=True):
        assert np.array_equal(a, b)


def test_reducing_duality_choice(rng):
    win = Window.unit(1, 4)
    leaves = np.array([rand_spd(rng, 2) for _ in range(win.leafcount)])
    W = MatrixField(win, leaves, weight=True)
    p = 3.0
    pp = p / (p - 1.0)
    Wd = W.power(1.0 - pp)
    primal_of_dual = Wd.reducing_table(pp)
    dual_of_primal = W.reducing_table(p, dual=True)
    for a, b in zip(primal_of_dual.mats, dual_of_primal.mats):
        assert np.max(np.abs(a - b)) < 1e-10
    dual_of_dual = Wd.reducing_table(pp, dual=True)
    primal = W.reducing_table(p)
    for a, b in zip(dual_of_dual.mats, primal.mats):
        assert np.max(np.abs(a - b)) < 1e-10


def _assert_stacks_close(got, want, rtol):
    for a, b in zip(got, want, strict=True):
        assert a.shape == b.shape
        assert np.max(np.abs(a - b)) <= rtol * np.max(np.abs(b))


def _near_singular(window, n, kind, cond, rng):
    """Leaves Q diag(lam) Q^H with eigenvalues from s down to s / cond (s a
    random leaf scale, Q a random unitary or orthogonal); for n = 1 complex
    scalars spread over the same range."""
    count = window.leafcount
    if n == 1:
        return MatrixField(window, np.logspace(0, -np.log10(cond), count)[
            rng.permutation(count)].astype(complex).reshape(count, 1, 1), weight=True)
    Z = rng.standard_normal((count, n, n))
    if kind == "complex":
        Z = Z + 1j * rng.standard_normal((count, n, n))
    Q = np.linalg.qr(Z)[0]
    lam = np.logspace(0, -np.log10(cond), n) * rng.uniform(0.5, 2.0, (count, 1))
    return MatrixField(window, np.einsum("lab,lb,lcb->lac", Q, lam, np.conj(Q)), weight=True)


_REDUCING_CASES = [
    pytest.param(n, kind, None, id=f"{n}-{kind}")
    for n in (1, 2, 3, 4) for kind in ("real", "complex")
] + [
    pytest.param(n, kind, cond, id=f"{n}-{kind}-cond{cond:.0e}")
    for n, kind in ((1, "complex"), (2, "real"), (2, "complex"), (3, "real"), (3, "complex"))
    for cond in (1e6, 1e12)
]


@pytest.mark.parametrize("dual", [False, True])
@pytest.mark.parametrize("p", [1.5, 3.0])
@pytest.mark.parametrize("n, kind, cond", _REDUCING_CASES)
def test_reducing_table_matches_einsum_oracle(rng, n, kind, cond, p, dual):
    # n = 4 takes the random-net branch of direction_net; cond sets near-
    # singular leaves of that condition number
    win = Window.unit(1, 5)
    if cond is not None:
        W = _near_singular(win, n, kind, cond, rng)
    elif kind == "complex":
        W = _complex_log_spd(win, n, rng)
    else:
        W = generate_weight(
            {"kind": "log_spd", "n": n, "amplitude": 0.5,
             "seed": int(rng.integers(2**31))},
            win,
        )
    table = fields.ReducingTable.build(W, p, dual=dual)
    mats, kappa = red_ref.build(W, p, dual=dual)
    _assert_stacks_close(table.mats, mats, 1e-12)
    assert abs(table.kappa - kappa) <= 1e-12 * kappa
    assert not table.exact and table.kappa >= 1.0


@pytest.mark.parametrize("p", [1.5, 3.0])
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_piece_reducing_matches_einsum_oracle(rng, kind, p):
    from grid_reference import level_pieces

    win = Window.unit(2, 4)
    W = _ap_weight(kind, 2, 4, rng)
    for t in range(1, 2**win.d):
        pieces = [(idx, vols) for _, idx, vols in level_pieces(win, t)]
        got, _ = fields._fit_reducing(fields._ShiftedGrid(win, t), W, p)
        _assert_stacks_close(got, red_ref.piece_reducing(W, p, pieces), 1e-12)


def _streamed_weight(win, n, kind, rng):
    if kind == "near-singular":
        return _near_singular(win, n, "complex", 1e12, rng)
    if kind == "complex":
        return _complex_log_spd(win, n, rng)
    return generate_weight(
        {"kind": "log_spd", "n": n, "amplitude": 0.5, "seed": int(rng.integers(2**31))}, win)


@pytest.mark.parametrize("cells", [1, 8])
@pytest.mark.parametrize("dual", [False, True])
@pytest.mark.parametrize("p", [1.5, 3.0])
@pytest.mark.parametrize("kind", ["real", "complex", "near-singular"])
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("d, depth", [(1, 6), (2, 3), (3, 2)])
def test_streamed_reducing_fit_matches_einsum_oracle(
        monkeypatch, rng, d, depth, n, kind, p, dual, cells):
    # 64 leaves in blocks of at most `cells` (1 or 8 at d = 1 and 3, 1 or 4
    # at d = 2): 8 to 64 blocks, each fitted in one call, then one call for
    # the levels above the blocks.  At d >= 2 the tree order is not the
    # C order, so every block scatters into scattered cube indices.
    win = Window.unit(d, depth)
    W = _streamed_weight(win, n, kind, rng)
    dirs = len(fields._reducing_net(W.power(1.0 / p).leaves).dirs)
    monkeypatch.setattr(fields, "_ROW_BUDGET", 8 * dirs * cells)
    calls = []
    fit = fields._ellipsoid_fit
    monkeypatch.setattr(fields, "_ellipsoid_fit", lambda rho, *a: calls.append(len(rho)) or fit(rho, *a))
    table = fields.ReducingTable.build(W, p, dual=dual)
    mats, kappa = red_ref.build(W, p, dual=dual)
    _assert_stacks_close(table.mats, mats, 1e-12)
    assert abs(table.kappa - kappa) <= 1e-12 * kappa
    per_block = 1  # the largest cube of at most `cells` leaves
    while per_block * 2**d <= cells:
        per_block *= 2**d
    blocks = win.leafcount // per_block
    assert len(calls) == blocks + 1 and blocks >= 8
    assert sum(calls) == sum(win.cubes_at(j) for j in range(depth + 1))
    for stop in (1, depth):  # levels above the blocks only, or cut inside them
        got, _ = fields._fit_reducing(fields._OwnGrid(win), W, p, dual=dual, stop=stop)
        _assert_stacks_close(got, mats[:stop], 1e-12)
    if not dual:
        from grid_reference import level_pieces

        for t in range(1, 2**d):
            got, _ = fields._fit_reducing(fields._ShiftedGrid(win, t), W, p)
            pieces = [(idx, vols) for _, idx, vols in level_pieces(win, t)]
            _assert_stacks_close(got, red_ref.piece_reducing(W, p, pieces), 1e-12)


def test_streamed_reducing_table_memory_and_calls(monkeypatch):
    # N = 4096, complex n = 2 (128 directions): 16 blocks of 256 leaves and
    # one call for levels 0-3; the whole build, the power included, stays
    # under 8 MB (the whole-window fit took 30.8 MB)
    import tracemalloc

    win = Window.unit(1, 12)
    Q = np.array([[1.0, 1.0j], [1.0j, 1.0]]) / np.sqrt(2.0)
    Wr = generate_weight({"kind": "log_spd", "n": 2, "amplitude": 0.5, "seed": 5}, win)
    W = MatrixField(win, Q @ Wr.leaves @ Q.conj().T, weight=True)
    win.tree_order()  # the window's own cache, not the build's
    tracemalloc.start()
    try:
        table = fields.ReducingTable.build(W, 3.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    calls = []
    fit = fields._ellipsoid_fit
    monkeypatch.setattr(fields, "_ellipsoid_fit", lambda rho, *a: calls.append(len(rho)) or fit(rho, *a))
    again = fields.ReducingTable.build(W, 3.0)
    assert calls == [511] * 16 + [15]
    for a, b in zip(again.mats, table.mats, strict=True):
        assert np.array_equal(a, b)


def _svd_top(stack):
    return np.linalg.svd(stack, compute_uv=False)[..., 0]


@pytest.mark.parametrize("shape", [(7,), (5, 3)], ids=["3d", "4d"])
@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_opnorms_match_svd(rng, n, kind, shape):
    def draw(*size):
        z = rng.standard_normal(size).astype(complex)
        if kind == "complex":
            z += 1j * rng.standard_normal(size)
        return z

    M = draw(*shape, n, n)
    M[(0,) * len(shape)] = np.outer(draw(n), draw(n))  # rank one
    M[(-1,) * len(shape)] = 0.0
    if n == 2:  # cases that press the 2 x 2 closed form
        Q, V = (np.linalg.qr(draw(2, 2))[0] for _ in range(2))
        flat = M.reshape(-1, 2, 2)
        flat[1] = Q @ np.diag([3.0, 3e-12]) @ V.conj().T  # sigma_2 / sigma_1 = 1e-12
        flat[2] = 2.5 * Q  # equal singular values: a - c and b vanish
        flat[3] = [[1e-3, 4.0 + (3j if kind == "complex" else 0)], [2e-4, -1e-3]]
        flat[4] = 1e100 * draw(2, 2)
        flat[5] = 1e-100 * draw(2, 2)
    got = fields._opnorms(M)
    want = np.linalg.svd(M, compute_uv=False)[..., 0]
    assert got.shape == shape
    assert np.all(np.abs(got - want) <= 1e-13 * want)
    assert got[(-1,) * len(shape)] == 0.0
    if kind == "real":
        assert np.array_equal(fields._opnorms(M.real), got)


@pytest.mark.parametrize("n, eigensolves", [(2, 0), (3, 2)])
def test_opnorms_eigensolver_only_above_2x2(rng, monkeypatch, n, eigensolves):
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def spy(a, *args, **kwargs):
        calls.append(a.shape)
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    real = rng.standard_normal((6, n, n))
    fields._opnorms(real)
    fields._opnorms(real + 1j * rng.standard_normal((6, n, n)))
    assert len(calls) == eigensolves


@pytest.mark.parametrize("shape", [(0, 2, 2), (3, 0, 2, 2), (0, 1, 1)])
def test_opnorms_empty_stack_keeps_shape(shape):
    got = fields._opnorms(np.zeros(shape, dtype=complex))
    assert got.shape == shape[:-2]


def _root_errors(M, exact):
    """Largest entry error of the closed form and of an eigh root."""
    vals, vecs = np.linalg.eigh(M)
    via_eigh = np.einsum(
        "...ab,...b,...cb->...ac", vecs, np.sqrt(np.maximum(vals, 0.0)), np.conj(vecs)
    )
    return np.max(np.abs(fields._mat_sqrt(M) - exact)), np.max(np.abs(via_eigh - exact))


@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
def test_mat_sqrt_closed_form_as_accurate_as_eigh(rng, kind, scale):
    # M = Q diag(lam) Q^H with eigenvalue ratios from 1 down to 0; the exact
    # root is Q diag(sqrt(lam)) Q^H.  Near-singular M loses accuracy to the
    # cancellation in det M, but no more than eigh loses to its rounding.
    eps = np.finfo(float).eps
    for ratio in (1.0, 0.5, 1e-2, 1e-4, 1e-8, 1e-12, 1e-16, 0.0):
        Z = rng.standard_normal((64, 2, 2))
        if kind == "complex":
            Z = Z + 1j * rng.standard_normal((64, 2, 2))
        Q = np.linalg.qr(Z)[0]
        Qh = np.conj(np.swapaxes(Q, 1, 2))
        lam = scale * np.array([1.0, ratio])
        M = Q @ (lam[:, None] * Qh)
        exact = Q @ (np.sqrt(lam)[:, None] * Qh)
        closed, via_eigh = _root_errors(M, exact)
        assert closed <= 2.0 * via_eigh + 8 * eps * np.sqrt(scale), (ratio, closed, via_eigh)
        got = fields._mat_sqrt(M)
        assert got.dtype == M.dtype
        assert np.array_equal(got, np.conj(np.swapaxes(got, 1, 2)))  # exactly Hermitian


def test_mat_sqrt_zero_and_indefinite():
    for dtype in (float, complex):
        zero = fields._mat_sqrt(np.zeros((3, 2, 2), dtype=dtype))
        assert zero.dtype == dtype and not np.any(zero)
    # eigenvalues just inside the threshold pass, as they do through eigh
    fields._mat_sqrt(np.array([[[1.0, 0.0], [0.0, -0.5e-10]]]))
    for M in ([[1.0, 0.0], [0.0, -2e-10]], [[0.0, 1.0], [1.0, 0.0]], [[-1.0, 0.0], [0.0, -1.0]]):
        with pytest.raises(NotPositiveDefiniteError, match="indefinite"):
            fields._mat_sqrt(np.array([M]))
        with pytest.raises(NotPositiveDefiniteError, match="indefinite"):
            fields._mat_sqrt(np.array([np.eye(2), M], dtype=complex))
    # other sizes keep eigh, with the same check
    with pytest.raises(NotPositiveDefiniteError, match="indefinite"):
        fields._mat_sqrt(np.diag([1.0, 1.0, -1e-3])[None])


@pytest.mark.parametrize("p", [0.5, 1.0, np.inf, np.nan])
def test_lp_norm_rejects_p_outside_range(p):
    f = VectorField.constant(Window.unit(1, 3), [1.0, 1.0])
    with pytest.raises(FieldError, match="p must lie in"):
        f.lp_norm(p)


def test_comparability_identity_weight():
    win = Window.unit(1, 3)
    W = MatrixField.identity(win, 2)
    rep = verify_reducing_comparability(W, 2)
    assert rep.ok
    assert np.isclose(rep.lower, 1.0, atol=1e-12)
    assert np.isclose(rep.upper, 1.0, atol=1e-12)


def test_comparability_p2_jensen(rng):
    win = Window.unit(1, 4)
    leaves = np.array([rand_spd(rng, 2) for _ in range(win.leafcount)])
    W = MatrixField(win, leaves, weight=True)
    rep = verify_reducing_comparability(W, 2)
    assert rep.ok
    assert rep.lower >= 1 - 1e-9
    # operator Jensen: m_I(W^{-1}) - (m_I W^{-1/2})^2 is PSD
    Mi = W.power(-1.0)
    Mh = W.power(-0.5)
    for j in range(win.depth + 1):
        a = Mi.level_averages()[j]
        b = Mh.level_averages()[j]
        gap = a - np.einsum("kab,kbc->kac", b, b)
        assert np.min(np.linalg.eigvalsh(gap)) > -1e-10


def test_comparability_random_sweep(rng):
    from matweight.bmo import bounded_weight

    win = Window.unit(1, 4)
    for p in (2.0, 3.0):
        for _ in range(5):
            W = bounded_weight(win, 2, rng, char_cap=10.0)
            rep = verify_reducing_comparability(W, p)
            assert rep.ok


# -- generators and serialization ---------------------------------------------


def test_generate_identity():
    W = generate_weight({"kind": "identity", "n": 2, "d": 1, "depth": 4})
    assert np.allclose(W.leaves, np.eye(2))
    assert np.isclose(ap_characteristic(W, 2), 1.0)


def test_generate_scalar_power_matches_oracle():
    depth = 8
    W = generate_weight(
        {"kind": "scalar_power", "n": 1, "alphas": [0.5], "d": 1, "depth": depth}
    )
    vals = W.leaves[:, 0, 0].real
    assert np.isclose(
        ap_characteristic(W, 2), ref.ap(vals, 2.0, depth), rtol=1e-8
    )


def test_generate_power_exact_cell_averages():
    depth = 3
    W = generate_weight(
        {"kind": "scalar_power", "n": 1, "alphas": [0.5], "d": 1, "depth": depth}
    )
    h = 2.0**-depth
    a1 = 1.5
    for i in range(2**depth):
        exact = ((h * (i + 1)) ** a1 - (h * i) ** a1) / (a1 * h)
        assert np.isclose(W.leaves[i, 0, 0].real, exact, rtol=1e-12)


def test_generate_power_singularity_must_sit_on_boundary():
    with pytest.raises(FieldError):
        generate_weight(
            {
                "kind": "scalar_power",
                "n": 1,
                "alphas": [0.5],
                "x0": [0.3],
                "d": 1,
                "depth": 2,
            }
        )


def test_generate_rotation_constant_theta_matches_diagonal():
    spec = {
        "kind": "rotation",
        "n": 2,
        "d": 1,
        "depth": 5,
        "theta": {"kind": "constant", "value": 0.7},
        "lambda": [
            {"kind": "scalar_power", "alpha": 0.5},
            {"kind": "constant", "value": 2.0},
        ],
    }
    W = generate_weight(spec)
    diag_spec = dict(spec, theta={"kind": "constant", "value": 0.0})
    D = generate_weight(diag_spec)
    for p in (2.0, 3.0):
        assert np.isclose(
            ap_characteristic(W, p), ap_characteristic(D, p), rtol=1e-9
        )


def test_generate_log_spd_is_weight(rng):
    W = generate_weight({"kind": "log_spd", "n": 2, "d": 1, "depth": 5, "seed": 1})
    assert W.is_weight
    assert np.isfinite(ap_characteristic(W, 2))


def test_generate_leaves_and_malformed():
    win = Window.unit(1, 2)
    vals = [np.eye(2).tolist()] * 4
    W = generate_weight({"kind": "leaves", "values": vals, "d": 1, "depth": 2})
    assert np.allclose(W.leaves, np.eye(2))
    with pytest.raises(FieldError):
        generate_weight({"kind": "nope"})


def test_dump_load_bit_exact(tmp_path, rng):
    win = Window.unit(2, 2, shift=3)
    leaves = np.array([rand_spd(rng, 2) for _ in range(win.leafcount)])
    W = MatrixField(win, leaves, weight=True)
    path = tmp_path / "w.mwf"
    dump_field(W, path)
    W2 = load_field(path)
    assert np.array_equal(W.leaves, W2.leaves)
    assert W2.window.grid.shift == 3
    assert W2.is_weight
    dump_field(W2, tmp_path / "w2.mwf")
    assert (tmp_path / "w.mwf").read_bytes() == (tmp_path / "w2.mwf").read_bytes()


def test_vector_field_dump_load(tmp_path, rng):
    win = Window.unit(1, 3)
    f = VectorField(win, rng.standard_normal((win.leafcount, 2)))
    dump_field(f, tmp_path / "f.mwf")
    f2 = load_field(tmp_path / "f.mwf")
    assert np.array_equal(f.leaves, f2.leaves)


def test_foreign_grid_ap_matches_own(rng):
    # the piecewise family on the window's own shift walks its levels as
    # the own grid does: its kids and leaf blocks are the own grid's, bit
    # for bit, on complex data with trailing axes
    from matweight.bmo import bounded_weight

    for win in (Window.unit(1, 4), Window.unit(2, 3), Window.unit(3, 2)):
        W = bounded_weight(win, 2, rng)
        fam = fields._ShiftedGrid(win, win.grid.shift, win.depth)
        own_fam = fields._OwnGrid(win)
        assert fam.top == own_fam.top and fam.counts == own_fam.counts
        shape = (win.leafcount, 2, 3)
        leaves = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        for i in range(win.depth + 1):
            assert np.array_equal(fam.leaf_blocks(leaves, i), own_fam.leaf_blocks(leaves, i))
            if i < win.depth:
                vals = leaves[: win.cubes_at(i + 1)]
                assert np.array_equal(fam.kids(vals, i), own_fam.kids(vals, i))
        for p in (2.0, 3.0):
            own = ap_characteristic(W, p)
            val, cube = family_ap(fam, W, p)
            assert np.isclose(val, own, rtol=1e-9)


def test_complex_hermitian_weight_paths(rng):
    win = Window.unit(1, 4)
    A = rng.standard_normal((win.leafcount, 2, 2)) * 0.3
    Bm = rng.standard_normal((win.leafcount, 2, 2)) * 0.3
    H = A + np.swapaxes(A, 1, 2) + 1j * (Bm - np.swapaxes(Bm, 1, 2))
    vals, vecs = np.linalg.eigh(H)
    leaves = np.einsum("lab,lb,lcb->lac", vecs, np.exp(vals), np.conj(vecs))
    W = MatrixField(win, leaves, weight=True)
    assert np.isfinite(ap_characteristic(W, 2))
    for p in (2.0, 3.0):
        rep = verify_reducing_comparability(W, p)
        assert rep.ok, (p, rep.lower, rep.upper, rep.bound)
    # phase-augmented net really engaged for the complex field at p != 2
    assert W.reducing_table(3.0).kappa < 10.0


def test_comparability_probes_complex_weights_with_phased_net():
    # U = Q W' Q^H with a fixed complex unitary Q: the real offset net alone
    # tops out near 1.55; the phase-rotated offset directions reach 1.93
    a, phase = 0.6, 0.9
    c, s = np.cos(a), np.sin(a)
    Q = np.array([[c, -s * np.exp(-1j * phase)], [s * np.exp(1j * phase), c]])
    Wr = generate_weight(
        {"kind": "log_spd", "n": 2, "d": 1, "depth": 6, "seed": 3, "amplitude": 0.5}
    )
    U = MatrixField(Wr.window, Q @ Wr.leaves @ Q.conj().T, weight=True)
    rep = verify_reducing_comparability(U, 3.0)
    assert rep.ok
    assert 1.9 < rep.upper <= rep.kappa * (1 + 1e-9)


def test_reducing_table_provenance_flags(rng):
    from matweight.bmo import bounded_weight

    win = Window.unit(1, 3)
    W = bounded_weight(win, 2, rng, char_cap=60.0)
    assert W.reducing_table(2.0).exact and W.reducing_table(2.0).kappa == 1.0
    t3 = W.reducing_table(3.0)
    assert not t3.exact and t3.kappa >= 1.0


def test_generate_power_2d_separable():
    depth = 2
    W = generate_weight(
        {"kind": "scalar_power", "n": 1, "alphas": [0.5], "d": 2, "depth": depth}
    )
    # leaf (i1, i2) average is the product of the per-axis closed forms
    h = 2.0**-depth
    a1 = 1.5

    def axis_avg(i):
        return ((h * (i + 1)) ** a1 - (h * i) ** a1) / (a1 * h)

    for i1 in (0, 3):
        for i2 in (1, 2):
            idx = i1 * 2**depth + i2
            assert np.isclose(
                W.leaves[idx, 0, 0].real, axis_avg(i1) * axis_avg(i2), rtol=1e-12
            )
    assert np.isfinite(ap_characteristic(W, 2))


def test_window_with_nonunit_root(rng):
    from matweight.dyadic import DyadicGrid, Window as Win
    from matweight import transforms as tf2

    grid = DyadicGrid(1, 1)  # shifted grid
    root = grid.cube(2, (5,))
    win = Win(root, 3)
    assert float(root.side) == 0.25
    vals = rng.standard_normal((win.leafcount, 1))
    f = VectorField(win, vals)
    s = tf2.analyze(f)
    g = tf2.synthesize(s)
    assert np.max(np.abs(g.leaves - f.leaves)) < 1e-12
    l2 = win.leaf_volume * np.sum(np.abs(f.leaves) ** 2)
    sp = s.cancellative_mass() + win.volumes[0] * np.sum(np.abs(s.root) ** 2)
    assert abs(l2 - sp) < 1e-12 * max(1.0, l2)
    # cube addresses round-trip
    for j in (0, 1, 3):
        for k in (0, win.cubes_at(j) - 1):
            assert win.rel_index(win.cube(j, k)) == (j, k)
