from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from matweight.dyadic import Window, WindowError
from matweight.fields import MatrixField
from matweight import bmo
from matweight import stopping as st

from conftest import scalar_field
import stopping_reference as stop_ref


def test_identity_pair_never_stops():
    win = Window.unit(1, 4)
    W = MatrixField.identity(win, 2)
    forest = st.build(W, W, 2.0, lam=2.0)
    assert forest.generations == [[]] or forest.generations == []
    # F^1 is all of D(root)
    total = sum(win.cubes_at(j) for j in range(win.depth + 1))
    assert len(forest.blocks[0]) == total
    rep = st.verify_decay(forest)
    assert rep.all_ok
    assert all(r == 0 for r in rep.ratios)
    assert st.default_lambda(W, W, 2.0) == 2.0


def test_lambda_must_exceed_one():
    win = Window.unit(1, 3)
    W = MatrixField.identity(win, 1)
    with pytest.raises(st.StoppingError):
        st.build(W, W, 2.0, lam=1.0)


def test_single_jump_child_is_unique_stop():
    # scalar weight 1 on the left half, c on the right; hand evaluation of
    # the four stopping norms picks out exactly the jump child at lam = 2
    lam = 2.0
    c = 0.1
    depth = 4
    win = Window.unit(1, depth)
    vals = np.ones(2**depth)
    vals[2 ** (depth - 1) :] = c
    W = scalar_field(win, vals, weight=True)
    U = MatrixField.identity(win, 1)
    m_root = (1.0 + c) / 2.0
    r_right = max(np.sqrt(m_root / c), np.sqrt(c / m_root))
    r_left = max(np.sqrt(m_root), np.sqrt(1.0 / m_root))
    assert r_right > lam and r_left < lam
    forest = st.build(W, U, 2.0, lam=lam)
    assert forest.generations[0] == [(1, 1)]
    assert len(forest.generations) == 1
    rep = st.verify_decay(forest)
    assert rep.ratios[0] == Fraction(1, 2)  # the jump child's relative measure
    norms = forest.stopped_norms[(1, 1)]
    assert np.isclose(max(norms), r_right, rtol=1e-12)


def test_blocks_partition_and_disjointness(rng):
    win = Window.unit(1, 5)
    W = bmo.bounded_weight(win, 2, rng, amplitude=1.2, char_cap=60.0)
    U = bmo.bounded_weight(win, 2, rng, amplitude=1.2, char_cap=60.0)
    lam = 1.5
    forest = st.build(W, U, 2.0, lam=lam)
    seen = set()
    for blk in forest.blocks:
        for cube in blk:
            assert cube not in seen
            seen.add(cube)
    everything = {
        (j, k) for j in range(win.depth + 1) for k in range(win.cubes_at(j))
    }
    assert seen == everything
    for gen in forest.generations:
        # pairwise disjoint: no cube is an ancestor of another in the same gen
        for j1, k1 in gen:
            for j2, k2 in gen:
                if (j1, k1) == (j2, k2):
                    continue
                if j1 <= j2:
                    assert win.ancestor_index(j2, j1)[k2] != k1 or j1 == j2


def _is_descendant(win, cube, root):
    j, k = cube
    jr, kr = root
    if j < jr:
        return False
    if j == jr:
        return k == kr
    return win.ancestor_index(j, jr)[k] == kr


def test_non_stopped_cubes_satisfy_bound(rng):
    win = Window.unit(1, 4)
    W = bmo.bounded_weight(win, 2, rng, amplitude=1.0, char_cap=60.0)
    U = bmo.bounded_weight(win, 2, rng, amplitude=1.0, char_cap=60.0)
    lam = 2.0
    forest = st.build(W, U, 2.0, lam=lam)
    stats = stop_ref._PairStats(W, U, 2.0)
    gens = [[forest.root]] + forest.generations
    # every cube of F(K) obeys all four norms <= lam against its block root K
    for i, blk in enumerate(forest.blocks):
        for cube in blk:
            owners = [K for K in gens[i] if _is_descendant(win, cube, K)]
            assert len(owners) == 1
            if cube != owners[0]:
                assert stats.stat(cube, owners[0]) <= lam + 1e-12


@pytest.mark.parametrize("d, depth, p", [
    (1, 5, 2.0), (2, 4, 2.0), (2, 4, 3.0), (3, 3, 2.0), (3, 3, 3.0)])
def test_decay_with_default_lambda_random_pairs(rng, d, depth, p):
    win = Window.unit(d, depth)
    for _ in range(5):
        W = bmo.bounded_weight(win, 2, rng, char_cap=10.0)
        U = bmo.bounded_weight(win, 2, rng, char_cap=10.0)
        forest = st.build(W, U, p, lam=st.default_lambda(W, U, p))
        assert st.verify_decay(forest).all_ok
        cubes = [c for blk in forest.blocks for c in blk]
        assert len(set(cubes)) == len(cubes)
        assert len(cubes) == sum(win.cubes_at(j) for j in range(depth + 1))
        assert st._rule_holds(forest, W, U)


@pytest.mark.parametrize("root", [(9, 0), (2, 100), (2, -1)])
def test_root_outside_window_refused(root):
    win = Window.unit(1, 5)
    W = MatrixField.identity(win, 2)
    B = MatrixField.constant(win, np.eye(2))
    calls = (
        lambda: st.build(W, W, 2.0, root=root),
        lambda: st.default_lambda(W, W, 2.0, root=root),
        lambda: bmo.extremal_h1_instance(B, W, W, root=root),
    )
    for call in calls:
        with pytest.raises(WindowError):
            call()


def test_decay_power_weight_general_p():
    from matweight.fields import generate_weight

    depth = 7
    W = generate_weight(
        {"kind": "scalar_power", "n": 1, "alphas": [0.5], "d": 1, "depth": depth}
    )
    U = generate_weight(
        {"kind": "scalar_power", "n": 1, "alphas": [-0.3]}, window=W.window
    )
    for p in (2.0, 3.0):
        lam = st.default_lambda(W, U, p)
        forest = st.build(W, U, p, lam=lam)
        assert st.verify_decay(forest).all_ok
        assert lam <= 2.0**10


def test_lambda_monotone_under_window_shrink(rng):
    # lambda found on a shallower window never exceeds the deep-window one
    from matweight.fields import generate_weight

    lams = []
    for depth in (7, 5):
        W = generate_weight(
            {"kind": "scalar_power", "n": 1, "alphas": [0.7], "d": 1, "depth": depth}
        )
        U = MatrixField.identity(W.window, 1)
        lams.append(st.default_lambda(W, U, 2.0))
    assert lams[1] <= lams[0]


def test_forest_dump(tmp_path, rng):
    import json

    win = Window.unit(1, 4)
    W = bmo.bounded_weight(win, 2, rng, amplitude=1.0, char_cap=60.0)
    forest = st.build(W, W, 2.0, lam=1.5)
    st.dump_forest(forest, tmp_path / "forest.json")
    doc = json.loads((tmp_path / "forest.json").read_text())
    assert doc["lambda"] == 1.5
    assert len(doc["blocks"]) == len(forest.blocks)
    if doc["generations"] and doc["generations"][0]:
        assert "norms" in doc["generations"][0][0]


# generations reached below the window root at lambda = 1.05, 1.2, 1.5, 2, 4,
# per (d, p, complex U); at lambda = 1.05 every forest runs down to the leaves
_GENERATIONS = {
    (1, 1.5, False): (9, 8, 4, 2, 1),
    (1, 1.5, True): (9, 8, 6, 4, 2),
    (1, 2.0, False): (9, 8, 5, 3, 1),
    (1, 2.0, True): (9, 8, 5, 4, 2),
    (1, 3.0, False): (9, 5, 2, 1, 0),
    (1, 3.0, True): (9, 6, 4, 2, 0),
    (2, 1.5, False): (4, 4, 4, 4, 2),
    (2, 1.5, True): (4, 4, 4, 3, 1),
    (2, 2.0, False): (4, 4, 4, 4, 2),
    (2, 2.0, True): (4, 4, 4, 4, 2),
    (2, 3.0, False): (4, 4, 4, 2, 1),
    (2, 3.0, True): (4, 4, 3, 1, 0),
    (3, 1.5, False): (3, 3, 3, 3, 2),
    (3, 1.5, True): (3, 3, 3, 3, 2),
    (3, 2.0, False): (3, 3, 3, 3, 2),
    (3, 2.0, True): (3, 3, 3, 3, 2),
    (3, 3.0, False): (3, 3, 3, 2, 1),
    (3, 3.0, True): (3, 3, 3, 2, 1),
}


def _oracle_pair(d, depth, complex_u, seed):
    rng = np.random.default_rng(seed)
    win = Window.unit(d, depth)
    W = bmo.bounded_weight(win, 2, rng, amplitude=1.2, char_cap=60.0)
    U = bmo.bounded_weight(win, 2, rng, amplitude=1.2, char_cap=60.0)
    if complex_u:
        z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        Q = np.linalg.qr(z)[0]
        U = MatrixField(win, Q @ U.leaves @ Q.conj().T, weight=True)
    return W, U


@pytest.mark.parametrize("complex_u", [False, True])
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("d, depth", [(1, 9), (2, 4), (3, 3)])
def test_forest_matches_eager_oracle(tmp_path, d, depth, p, complex_u):
    W, U = _oracle_pair(d, depth, complex_u, seed=10 * d + int(complex_u))
    win = W.window
    stats = stop_ref._PairStats(W, U, p)
    reached = []
    # the window root, a level-1 cube, a cube whose children are leaves, and
    # a leaf, which has no level below
    edge = win.cube(win.depth - 1, win.cubes_at(win.depth - 1) // 3)
    leaf = win.cube(win.depth, win.cubes_at(win.depth) - 2)
    for root in (None, win.cube(1, win.nchild - 1), edge, leaf):
        ref_root = (0, 0) if root is None else win.rel_index(root)
        for lam in (1.05, 1.2, 1.5, 2.0, 4.0):
            got = st.build(W, U, p, root=root, lam=lam)
            want = stop_ref._build_with_stats(stats, ref_root, lam, p)
            assert got.root == want.root
            assert got.generations == want.generations
            assert got.blocks == want.blocks
            assert got.stopped_norms == want.stopped_norms
            assert list(got.stopped_norms) == [c for gen in got.generations for c in gen]
            assert got.decay_ratios == want.decay_ratios
            st.dump_forest(got, tmp_path / "got.json")
            stop_ref.dump_forest(want, tmp_path / "want.json")
            assert (tmp_path / "got.json").read_bytes() == (
                tmp_path / "want.json"
            ).read_bytes()
            if root is None:
                reached.append(len(got.generations))
    assert tuple(reached) == _GENERATIONS[(d, p, complex_u)]
    if d == 1:
        assert reached[0] >= 8


@pytest.mark.parametrize("d, depth, p, lam", [(1, 6, 2.0, 4.0), (2, 4, 3.0, 2.0)])
def test_rule_check_catches_a_tampered_forest(d, depth, p, lam):
    # the stopping_decay audit re-checks the rule cube by cube; a forest
    # whose decay still verifies but whose stops are wrong must fail it
    rng = np.random.default_rng(5)
    win = Window.unit(d, depth)
    W, U = bmo.bounded_weight(win, 2, rng), bmo.bounded_weight(win, 2, rng)
    forest = st.build(W, U, p, lam=lam)
    assert forest.generations and forest.generations[0]
    assert st._rule_holds(forest, W, U)

    cube = forest.generations[0][0]
    norms = dict(forest.stopped_norms)
    norms[cube] = [norms[cube][0] * (1 + 1e-9), *norms[cube][1:]]
    assert not st._rule_holds(replace(forest, stopped_norms=norms), W, U)

    moved = replace(
        forest,
        generations=[forest.generations[0][1:], *forest.generations[1:]],
        blocks=[forest.blocks[0] + [cube], *forest.blocks[1:]],
    )
    assert st.verify_decay(moved).all_ok
    assert not st._rule_holds(moved, W, U)

    # a block cube listed under the next generation's roots, none of which
    # it lies below
    stray = next(c for c in forest.blocks[0] if c != forest.root)
    strayed = replace(forest, blocks=[*forest.blocks[:1], forest.blocks[1] + [stray]])
    assert not st._rule_holds(strayed, W, U)
