from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from matweight.dyadic import (
    DyadicGrid,
    GridError,
    Signature,
    UniverseError,
    Window,
    WindowError,
    children,
    containing_shifted_cube,
    cube_pieces,
    enumerate_grid_cubes,
)

import grid_reference as grid_ref
from geometry_reference import haar_eval, signature_product


def test_children_bisection_1d():
    c = DyadicGrid.standard(1).cube(0, (0,))
    kids = children(c)
    assert [k.corner for k in kids] == [(Fraction(0),), (Fraction(1, 2),)]
    assert all(k.side == Fraction(1, 2) for k in kids)


def test_children_quadrants_2d():
    c = DyadicGrid.standard(2).cube(0, (0, 0))
    kids = children(c)
    assert len(kids) == 4
    corners = {k.corner for k in kids}
    h = Fraction(1, 2)
    assert corners == {(0, 0), (0, h), (h, 0), (h, h)}


def test_children_measure_partition():
    c = DyadicGrid(2, 3).cube(1, (0, 1))
    kids = children(c)
    assert sum(k.volume for k in kids) == c.volume
    for k in kids:
        assert c.contains_box(k.corner, k.side)
        assert k.parent() == c


def test_shifted_grid_nesting_and_standard_convention():
    # t = 2^d reproduces the plain dyadic grid
    g = DyadicGrid.standard(1)
    assert g.shift_numerators == (0,)
    assert g.cube(0, (0,)).corner == (Fraction(0),)
    # shifted grids stay nested under bisection
    g1 = DyadicGrid(1, 1)
    c = g1.cube(2, (5,))
    for k in children(c):
        assert c.contains_box(k.corner, k.side)
        assert k.parent() == c


def test_haar_eval_left_right():
    c = DyadicGrid.standard(1).cube(0, (0,))
    e = Signature((0,))
    assert haar_eval(c, e, (0.25,)) == 1.0
    assert haar_eval(c, e, (0.75,)) == -1.0
    assert haar_eval(c, e, (1.5,)) == 0.0
    ind = Signature((1,))
    assert haar_eval(c, ind, (0.9,)) == 1.0


def test_haar_orthonormality_quadrature():
    win = Window.unit(1, 3)
    lv = win.leaf_volume
    centers = win.leaf_centers()
    modes = []
    for j in range(win.depth):
        for k in range(win.cubes_at(j)):
            modes.append((win.cube(j, k), Signature((0,))))
    vals = np.array(
        [[haar_eval(c, s, tuple(x)) for x in centers] for c, s in modes]
    )
    gram = lv * vals @ vals.T
    assert np.max(np.abs(gram - np.eye(len(modes)))) < 1e-12


def test_haar_orthonormality_2d():
    win = Window.unit(2, 2)
    lv = win.leaf_volume
    centers = win.leaf_centers()
    modes = []
    for j in range(win.depth):
        for k in range(win.cubes_at(j)):
            for s in range(3):
                modes.append((win.cube(j, k), Signature.from_int(s, 2)))
    vals = np.array(
        [[haar_eval(c, s, tuple(x)) for x in centers] for c, s in modes]
    )
    gram = lv * vals @ vals.T
    assert np.max(np.abs(gram - np.eye(len(modes)))) < 1e-12


def test_completeness_count():
    for d, depth in ((1, 4), (2, 3)):
        win = Window.unit(d, depth)
        count = 1  # root indicator
        for j in range(depth):
            count += win.cubes_at(j) * win.nsig
        assert count == win.leafcount


def test_signature_product_examples():
    one = signature_product(Signature((0,)), Signature((0,)))
    assert one.bits == (1,)
    assert not one.cancellative
    psi = signature_product(Signature((0, 1)), Signature((0, 0)))
    assert psi.bits == (1, 0)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2), st.integers(0, 2), st.integers(0, 3))
def test_signature_product_pointwise_identity(s1, s2, cube_idx):
    win = Window.unit(2, 2)
    c = win.cube(1, cube_idx)
    e1 = Signature.from_int(s1, 2)
    e2 = Signature.from_int(s2, 2)
    psi = signature_product(e1, e2)
    scale = float(c.volume) ** 0.5
    for x in win.leaf_centers():
        x = tuple(x)
        lhs = scale * haar_eval(c, e1, x) * haar_eval(c, e2, x)
        assert abs(lhs - haar_eval(c, psi, x)) < 1e-12


def test_containing_shifted_cube_self():
    c = DyadicGrid(2, 2).cube(3, (1, 5))
    t, found = containing_shifted_cube(c)
    assert found.side <= 6 * c.side
    assert found.contains_box(c.corner, c.side)
    assert (t, found) == (2, c)


def test_containing_shifted_cube_interval():
    t, q = containing_shifted_cube((Fraction(2, 5),), Fraction(1, 2))
    assert q.contains_box((Fraction(2, 5),), Fraction(1, 2))
    assert q.side <= 3


def test_containing_shifted_cube_sweep():
    rng = np.random.default_rng(42)
    for _ in range(200):
        side = Fraction(rng.integers(1, 1000).item(), 1000)
        corner = tuple(
            Fraction(rng.integers(-5000, 5000).item(), 1000) for _ in range(2)
        )
        t, q = containing_shifted_cube(corner, side)
        assert q.contains_box(corner, side)
        assert q.side <= 6 * side


def test_containing_shifted_cube_universe_error():
    with pytest.raises(UniverseError):
        containing_shifted_cube((2**30,), 1)
    with pytest.raises(UniverseError):
        containing_shifted_cube((0.0,), 0)


def test_grid_validation():
    with pytest.raises(GridError):
        DyadicGrid(0, 1)
    with pytest.raises(GridError):
        DyadicGrid(1, 3)
    with pytest.raises(GridError):
        Signature((0, 2))


def test_cube_address_and_rel_index():
    win = Window.unit(2, 3, shift=3)
    for j in (0, 2, 3):
        for k in (0, win.cubes_at(j) - 1):
            cube = win.cube(j, k)
            assert win.rel_index(cube) == (j, k)
            t, lvl, coords = cube.address.split("/")
            assert int(t) == 3 and int(lvl) == j
            assert len(coords.split(",")) == 2
    outside = DyadicGrid(2, 3).cube(0, (5, 5))
    with pytest.raises(WindowError):
        win.rel_index(outside)


@pytest.mark.parametrize(
    "win",
    [
        Window.unit(1, 9),
        Window.unit(1, 6, shift=1),
        Window.unit(2, 4),
        Window.unit(2, 3, shift=2),
        Window.unit(3, 2, shift=5),
        Window(DyadicGrid(2, 1).cube(-3, (-2, 7)), 3),
    ],
    ids=str,
)
def test_window_addresses_match_cubes(win):
    rng = np.random.default_rng(7)
    for j in range(win.depth + 1):
        idx = rng.permutation(win.cubes_at(j))
        want = [win.cube(j, int(k)).address for k in idx]
        assert win.addresses(j, idx) == want
        assert win.addresses(j, idx[:0]) == []
    with pytest.raises(WindowError):
        win.addresses(win.depth + 1, [0])


def test_window_rel_cubes_tile_root():
    win = Window.unit(1, 3, shift=1)
    root = win.root
    for j in range(win.depth + 1):
        total = Fraction(0)
        for k in range(win.cubes_at(j)):
            c = win.cube(j, k)
            assert root.contains_box(c.corner, c.side)
            total += c.volume
        assert total == root.volume


def test_block_view_and_averages():
    win = Window.unit(2, 3)
    vals = np.arange(win.leafcount, dtype=float)
    avgs = win.level_averages(vals)
    # averaging commutes with refinement
    for j in range(win.depth):
        kids = avgs[j + 1][win.children_index(j)]
        assert np.allclose(avgs[j], kids.mean(axis=1))
    assert np.isclose(avgs[0][0], vals.mean())


def _geometric_children(win, j):
    """(cubes_j, 2^d) flat indices of ``DyadicCube.child`` of every level-j cube."""
    rows = []
    for k in range(win.cubes_at(j)):
        kids = [win.rel_index(win.cube(j, k).child(b)) for b in range(win.nchild)]
        assert all(level == j + 1 for level, _ in kids)
        rows.append([idx for _, idx in kids])
    return np.array(rows)


# own grids and shifted grids, roots at the origin and off it, d = 1, 2, 3
_INDEX_WINDOWS = [
    Window.unit(1, 4),
    Window(DyadicGrid(1, 1).cube(2, (3,)), 4),
    Window.unit(2, 3),
    Window(DyadicGrid(2, 1).cube(3, (5, -2)), 3),
    Window(DyadicGrid(3, 5).cube(-1, (1, 0, -1)), 2),
    Window.unit(3, 2, shift=3),
]


@pytest.mark.parametrize("win", _INDEX_WINDOWS, ids=repr)
def test_index_maps_match_exact_geometry(win):
    # children_index, ancestor_index and descendants_view are one reshape
    # walk; here each is rebuilt from DyadicCube.child / parent and rel_index
    for j in range(win.depth):
        assert np.array_equal(win.children_index(j), _geometric_children(win, j))
    for fine in range(win.depth + 1):
        vals = np.arange(win.cubes_at(fine)) * 1.5 - 7.0
        for j in range(fine + 1):
            up = []
            for k in range(win.cubes_at(fine)):
                cube = win.cube(fine, k)
                for _ in range(fine - j):
                    cube = cube.parent()
                up.append(win.rel_index(cube))
            assert up == [(j, int(a)) for a in win.ancestor_index(fine, j)]
            blocks = win.descendants_view(vals, j, fine)
            for k in range(win.cubes_at(j)):
                below = [win.cube(j, k)]
                for _ in range(fine - j):
                    below = [c for cube in below for c in children(cube)]
                # every descendant, in ascending flat index
                idx = sorted(win.rel_index(c)[1] for c in below)
                assert np.array_equal(blocks[k], vals[idx])


@pytest.mark.parametrize("d, depth", [(1, 4), (2, 3), (3, 2)])
@pytest.mark.parametrize("trailing", [(), (2,), (2, 3)])
def test_children_view_is_the_children_index_gather(d, depth, trailing):
    # the reshape walk and its inverse equal the gather and scatter through
    # the children of exact cube geometry, bit for bit, on complex data with
    # trailing batch axes
    win = Window.unit(d, depth)
    rng = np.random.default_rng([d, depth, len(trailing)])
    for j in range(depth):
        shape = (win.cubes_at(j + 1),) + trailing
        vals = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        idx = _geometric_children(win, j)
        kids = win.children_view(vals, j)
        assert np.array_equal(kids, vals[idx])
        assert d > 1 or np.shares_memory(kids, vals)  # a view in d = 1
        flat = np.empty_like(vals)
        flat[idx] = kids
        assert np.array_equal(win.children_flat(kids, j), flat)
        # a child axis of 1 gives every child its parent's value
        one = kids[:, :1]
        flat[idx] = one
        assert np.array_equal(win.children_flat(one, j), flat)


@pytest.mark.parametrize("d, depth", [(1, 4), (2, 3), (3, 2)])
def test_tree_order_makes_every_cube_a_run(d, depth):
    win = Window.unit(d, depth)
    order = win.tree_order()
    assert sorted(order) == list(range(win.leafcount))
    for j in range(depth + 1):
        cells = win.leafcount // win.cubes_at(j)
        owners = win.ancestor_index(depth, j)[order[::cells]]
        assert sorted(owners) == list(range(win.cubes_at(j)))
        for k, cube in enumerate(owners):
            run = order[k * cells : (k + 1) * cells]
            assert sorted(run) == sorted(win.block_view(np.arange(win.leafcount), j)[cube])


def _grid_cases():
    """Windows over every own shift and four root positions in d = 1, 2, 3,
    each with every target shift: the per-cube oracle's grid."""
    for d, depth in ((1, 5), (2, 3), (3, 2)):
        for own in range(1, 2**d + 1):
            for root in ((0,) * d, (1,) * d, (-1,) * d, (2, 3, 5)[:d]):
                win = Window(DyadicGrid(d, own).cube(0, root), depth)
                for t in range(1, 2**d + 1):
                    yield win, t


def test_enumerate_grid_cubes_inside_box():
    # the per-level positions are the per-cube oracle's cubes, in C order,
    # and every one of them lies inside the window box
    total = 0
    for win, t in _grid_cases():
        got = enumerate_grid_cubes(win, t)
        want = grid_ref.enumerate_grid_cubes(win, t)
        assert [k for k, _ in got] == [k for k, _ in want]
        grid = DyadicGrid(win.d, t)
        for (k, positions), (_, cubes) in zip(got, want):
            assert positions.shape == (len(cubes), win.d)
            assert [tuple(m) for m in positions.tolist()] == [c.position for c in cubes]
            for m in positions:
                c = grid.cube(k, m)
                assert win.root.contains_box(c.corner, c.side)
                total += 1
    assert total > 0


def test_cube_pieces_partition_volume():
    # each level's piece window over the leaf indices is the oracle's
    # per-cube pieces exactly, and so are the shared volumes; the pieces
    # partition each cube, and the window reads data with trailing axes
    # as the gather through those indices does
    for win, t in _grid_cases():
        for _, cubes in grid_ref.enumerate_grid_cubes(win, t):
            if not cubes:
                continue
            take, vols = cube_pieces(win, t, cubes[0].level)
            idx = take(np.arange(win.leafcount))
            assert idx.shape == (len(cubes), vols.size)
            for c, cube in enumerate(cubes):
                want_idx, want_vols = grid_ref.cube_pieces(win, cube)
                assert np.array_equal(idx[c], want_idx)
                assert np.array_equal(vols, want_vols)
                assert len(np.unique(idx[c])) == len(idx[c])
                assert np.isclose(vols.sum(), float(cube.volume), atol=1e-15)
            vals = np.arange(win.leafcount * 6).reshape(-1, 2, 3) * (1 + 1j)
            assert np.array_equal(take(vals), vals[idx])


def test_shifted_children_are_exact_children():
    # the children slice of every level of every shift is
    # DyadicCube.child's children, in offset-bit order, on data with and
    # without trailing axes
    from matweight.fields import _ShiftedGrid

    for win, t in _grid_cases():
        fam = _ShiftedGrid(win, t)
        cubes = [c for _, c in grid_ref.enumerate_grid_cubes(win, t) if c]
        assert fam.counts == [len(c) for c in cubes]
        for i in range(fam.top):
            want = grid_ref.children_index(cubes[i], cubes[i + 1])
            assert np.array_equal(fam.kids(np.arange(len(cubes[i + 1])), i), want)
            vals = np.arange(len(cubes[i + 1]) * 4).reshape(-1, 2, 2) * (1 - 1j)
            assert np.array_equal(fam.kids(vals, i), vals[want])
        for i, level in enumerate(cubes):
            assert [fam.cube(i, c) for c in range(len(level))] == level


def test_window_depth_validation():
    with pytest.raises(WindowError):
        Window(DyadicGrid.standard(1).cube(0, (0,)), 0)


def test_containing_shifted_cube_large_side():
    t, q = containing_shifted_cube((Fraction(3, 2), Fraction(-7, 2)), Fraction(5))
    assert q.contains_box((Fraction(3, 2), Fraction(-7, 2)), Fraction(5))
    assert q.side <= 30


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_roundtrip_property(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 3))
    depth = int(rng.integers(1, 4 if d == 2 else 6))
    win = Window.unit(d, depth, shift=int(rng.integers(1, 2**d + 1)))
    vals = rng.standard_normal((win.leafcount, 2))
    from matweight.fields import VectorField
    from matweight import transforms as tf2

    f = VectorField(win, vals)
    g = tf2.synthesize(tf2.analyze(f))
    assert np.max(np.abs(g.leaves - f.leaves)) < 1e-12
