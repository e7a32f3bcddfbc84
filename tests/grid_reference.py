"""Per-cube reference implementations of the shifted-grid machinery.

These are the cube-by-cube paths the library used before it computed the
foreign-grid geometry once per level: every cube of D^t inside the window
box is built as a ``DyadicCube``, its overlap with the window leaves is
computed from exact ``Fraction`` corners, and its children are
``DyadicCube.child``.  The tests compare the per-level arrays and values
against them, and the other references take their shifted cubes, pieces
and children from here.
"""

import math
from fractions import Fraction

import numpy as np

from matweight.dyadic import DyadicCube, DyadicGrid, sign_table
from matweight.fields import (
    _ROW_BUDGET,
    _gram_power,
    _is_p2,
    _mat_isqrt,
    _mat_sqrt,
    _opnorms,
    _real_rows,
    _reducing_net,
    _trace_form,
)


def _weighted_cube_ap(P, N, w, p):
    """sum_x w_x (sum_t w_t H[x, t])^{p/p'} over one cube's pieces, with the
    Gram of the pieces streamed in row blocks."""
    pp = p / (p - 1.0)
    step = max(1, _ROW_BUDGET // len(N))
    A, B = _real_rows(P) / P.shape[-1], _real_rows(N)
    val = 0.0
    for lo in range(0, len(P), step):
        H = _gram_power(A[lo : lo + step], B, pp / 2.0)
        val += float(((H @ w) ** (p / pp)) @ w[lo : lo + step])
    return val


def enumerate_grid_cubes(window, shift, max_level=None):
    """Cubes of D^shift fully inside the window box, grouped by level.

    Returns a list of (absolute level, list of DyadicCube).  Levels run from
    the window root level down to ``max_level`` (default: leaf level).
    """
    grid = DyadicGrid(window.d, shift)
    u = grid.shift_numerators
    box_corner = window.root.corner
    box_side = window.root.side
    if max_level is None:
        max_level = window.root.level + window.depth
    out = []
    for k in range(window.root.level, max_level + 1):
        s = Fraction(1, 2**k) if k >= 0 else Fraction(2**-k)
        if s > box_side:
            continue
        sgn = -1 if k % 2 else 1
        ranges = []
        for a in range(window.d):
            # cube [m, m+1) * s + tau must satisfy m >= lo and m + 1 <= hi
            lo = box_corner[a] / s - Fraction(sgn * u[a], 3)
            hi = (box_corner[a] + box_side) / s - Fraction(sgn * u[a], 3)
            m_min = math.ceil(lo)
            m_max = math.floor(hi - 1)
            ranges.append(range(m_min, m_max + 1))
        cubes = []
        if all(len(r) > 0 for r in ranges):
            sizes = [len(r) for r in ranges]
            total = int(np.prod(sizes))
            for flat in range(total):
                rem = flat
                m = []
                for a in range(window.d - 1, -1, -1):
                    m.append(ranges[a][rem % sizes[a]])
                    rem //= sizes[a]
                m.reverse()
                cubes.append(DyadicCube(grid, k, tuple(m)))
        out.append((k, cubes))
    return out


def cube_pieces(window, cube):
    """Exact overlap of a (possibly foreign-grid) cube with window leaves.

    Returns (leaf index array, volume array).  Volumes are exact rationals
    converted to float at the end; the cube must lie inside the window box.
    """
    d, L = window.d, window.depth
    corner = cube.corner
    side = cube.side
    h = window.leaf_side
    c0 = window.root.corner
    axis_hits = []
    for a in range(d):
        alpha = corner[a]
        beta = corner[a] + side
        i_lo = math.floor((alpha - c0[a]) / h)
        i_hi = math.ceil((beta - c0[a]) / h) - 1
        hits = []
        for i in range(max(i_lo, 0), min(i_hi, 2**L - 1) + 1):
            lo = c0[a] + h * i
            ov = min(beta, lo + h) - max(alpha, lo)
            if ov > 0:
                hits.append((i, ov))
        axis_hits.append(hits)
    idxs, vols = [], []
    sizes = [len(hh) for hh in axis_hits]
    total = int(np.prod(sizes)) if all(sizes) else 0
    for flat in range(total):
        rem = flat
        coords = []
        vol = Fraction(1)
        for a in range(d - 1, -1, -1):
            i, ov = axis_hits[a][rem % sizes[a]]
            coords.append(i)
            vol *= ov
            rem //= sizes[a]
        coords.reverse()
        idxs.append(int(np.ravel_multi_index(tuple(coords), (2**L,) * d)))
        vols.append(float(vol))
    return np.array(idxs, dtype=int), np.array(vols)


def level_pieces(window, shift):
    """Per level of D^shift that has cubes inside the window box, down to
    the leaf level: (cubes, idx, vols), the ``DyadicCube``s of
    ``enumerate_grid_cubes`` and their ``cube_pieces`` stacked, idx
    (cubes, pieces) and vols (pieces,), which every cube of a level shares
    (checked)."""
    out = []
    for _, cubes in enumerate_grid_cubes(window, shift):
        if not cubes:
            continue
        pieces = [cube_pieces(window, cube) for cube in cubes]
        vols = pieces[0][1]
        assert all(np.array_equal(v, vols) for _, v in pieces)
        out.append((cubes, np.stack([idx for idx, _ in pieces]), vols))
    return out


def children_index(cubes, below):
    """(cubes, 2^d) positions in the list ``below`` of each cube's children,
    in the offset-bit order of ``DyadicCube.child``."""
    where = {cube.position: k for k, cube in enumerate(below)}
    bits = range(2 ** cubes[0].grid.dimension)
    return np.array([[where[cube.child(b).position] for b in bits] for cube in cubes])


def piece_means(values, idx, vols):
    """Volume-weighted means of leaf data over the (cubes, pieces) leaf
    indices ``idx`` with piece volumes ``vols``."""
    return np.tensordot(values[idx], vols, axes=(1, 0)) / vols.sum()


def foreign_grid_ap(W, p, shift, max_level):
    win = W.window
    p2 = _is_p2(p)
    if p2:
        P, N = W.leaves, W.inverse().leaves
    else:
        P, N = W.power(2.0 / p).leaves, W.power(-2.0 / p).leaves
    best, best_cube = 0.0, None
    for k, cubes in enumerate_grid_cubes(win, shift, max_level=max_level):
        for cube in cubes:
            idx, vols = cube_pieces(win, cube)
            if idx.size == 0:
                continue
            w = vols / vols.sum()
            if p2:
                mP, mN = np.tensordot(w, P[idx], 1), np.tensordot(w, N[idx], 1)
                val = float(_trace_form(mP, mN))
            else:
                val = _weighted_cube_ap(P[idx], N[idx], w, p)
            if val > best:
                best, best_cube = val, cube
    return best, best_cube


class GridEvaluator:
    """Exact evaluation of averages and Haar coefficients of
    window step fields over the cubes of another shifted grid."""

    def __init__(self, window, shift):
        self.window = window
        self.shift = shift
        leaf_level = window.root.level + window.depth
        self.levels = enumerate_grid_cubes(window, shift, max_level=leaf_level)
        self.index = {}
        self.pieces = []
        self.cubes = []
        for k, cubes in self.levels:
            for cube in cubes:
                self.index[(cube.level, cube.position)] = len(self.cubes)
                self.cubes.append(cube)
                self.pieces.append(cube_pieces(window, cube))

    def average(self, leaf_values, ci):
        idx, vols = self.pieces[ci]
        return np.tensordot(vols, leaf_values[idx], axes=(0, 0)) / vols.sum()

    def haar_coefs(self, leaf_values, ci):
        """(nsig, ...) coefficients of the field on cube ci (children needed)."""
        win = self.window
        cube = self.cubes[ci]
        tbl = sign_table(win.d)
        child_avgs = []
        for b in range(2**win.d):
            ch = cube.child(b)
            ck = self.index.get((ch.level, ch.position))
            if ck is not None:
                child_avgs.append(self.average(leaf_values, ck))
            else:
                idx, vols = cube_pieces(win, ch)
                child_avgs.append(
                    np.tensordot(vols, leaf_values[idx], axes=(0, 0)) / vols.sum()
                )
        ch = np.stack(child_avgs, axis=0)
        vol = float(cube.volume)
        return (np.sqrt(vol) / 2**win.d) * np.einsum("sb,b...->s...", tbl, ch)


def foreign_grid_reducing(ev, Ppow, p, expo, ci):
    net = _reducing_net(Ppow).dirs
    idx, vols = ev.pieces[ci]
    Y = np.einsum("lab,jb->lja", Ppow[idx], net)
    rho_p = np.tensordot(vols, np.linalg.norm(Y, axis=2) ** expo, axes=(0, 0))
    rho2 = (rho_p / vols.sum()) ** (2.0 / expo)
    M0 = np.einsum("ja,jb->ab", net, np.conj(net))
    S = np.einsum("j,ja,jb->ab", rho2, net, np.conj(net))
    M0i = _mat_isqrt(M0[None])[0]
    return _mat_sqrt((M0i @ S @ M0i)[None])[0]


def foreign_grid_bmo(B, W, U, p, eps, t):
    win = B.window
    ev = GridEvaluator(win, t)
    leaf_level = win.root.level + win.depth
    Wp = W.power(1.0 / p).leaves
    Up = U.power(1.0 / p).leaves
    exact_p2 = abs(p - 2.0) < 1e-15
    bo_best, cb_best = 0.0, 0.0
    # per-cube data
    n = B.n
    nc = len(ev.cubes)
    own = np.zeros(nc)
    VW = [None] * nc
    VUinv = [None] * nc
    coef_cache = [None] * nc
    for ci, cube in enumerate(ev.cubes):
        if cube.level >= leaf_level:
            continue
        idx, vols = ev.pieces[ci]
        volJ = float(cube.volume)
        aB = ev.average(B.leaves, ci)
        aWp = ev.average(Wp, ci)
        aUp = ev.average(Up, ci)
        M = np.einsum(
            "ab,cbd,de->cae", aWp, B.leaves[idx] - aB[None], np.linalg.inv(aUp)
        )
        vals = _opnorms(M) ** (1.0 + eps)
        bo = float(np.dot(vols, vals) / volJ)
        bo_best = max(bo_best, bo)
        if exact_p2:
            VW[ci] = _mat_sqrt(ev.average(W.leaves, ci)[None])[0]
            VUinv[ci] = np.linalg.inv(
                _mat_sqrt(ev.average(U.leaves, ci)[None])[0]
            )
        else:
            VW[ci] = foreign_grid_reducing(ev, Wp, p, p, ci)
            VUinv[ci] = np.linalg.inv(foreign_grid_reducing(ev, Up, p, p, ci))
        coef_cache[ci] = ev.haar_coefs(B.leaves, ci)
        M2 = np.einsum("ab,sbc,cd->sad", VW[ci], coef_cache[ci], VUinv[ci])
        own[ci] = float(np.sum(_opnorms(M2) ** 2))
    # bottom-up accumulation over the in-window forest
    acc = own.copy()
    order = sorted(range(nc), key=lambda c: -ev.cubes[c].level)
    for ci in order:
        cube = ev.cubes[ci]
        parent = cube.parent()
        pk = ev.index.get((parent.level, parent.position))
        if pk is not None:
            acc[pk] += acc[ci]
    for ci, cube in enumerate(ev.cubes):
        if cube.level >= leaf_level:
            continue
        cb_best = max(cb_best, acc[ci] / float(cube.volume))
    return bo_best, cb_best
