"""Shifted dyadic grids, cubes, Haar signatures, and finite windows.

Cube geometry is exact: corners are rational (``fractions.Fraction``), so
membership and containment never suffer floating-point drift.  The shifted
grid with index ``t`` in ``[1, 2^d]`` is the family

    D^t = { 2^{-k} ([0,1)^d + m + (-1)^k tau(t)) : k in Z, m in Z^d }

with tau(t) in {0, 1/3}^d.  The bijection reads the binary digits of
``t mod 2^d`` (axis 0 = most significant digit), so ``t = 2^d`` is the
plain dyadic grid.  The alternating sign keeps each family nested under
bisection because 3*tau is integral.

A Window is the computational universe everywhere else: a root cube plus
``depth`` refinement levels.  Leaf cells all share one volume, which makes
every integral in the package an exact finite sum.

The cubes of any shifted grid inside a window are handled a level at a
time.  Down to the leaf level a cube's side is a whole number of leaf
sides, so every cube of a level overlaps the same pattern of leaf pieces,
shifted by whole leaves: the exact rational overlap is computed once per
(level, axis) and shared by every cube of the level
(``enumerate_grid_cubes``, ``cube_pieces``, ``grid_children_index``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
import itertools
import math

import numpy as np

__all__ = [
    "GridError",
    "WindowError",
    "UniverseError",
    "DyadicGrid",
    "DyadicCube",
    "Signature",
    "Window",
    "children",
    "haar_eval",
    "signature_product",
    "containing_shifted_cube",
    "sign_table",
]

# Coordinates admitted by containing_shifted_cube.
UNIVERSE_BOUND = Fraction(2**24)


class GridError(ValueError):
    pass


class WindowError(ValueError):
    pass


class UniverseError(ValueError):
    pass


@dataclass(frozen=True)
class DyadicGrid:
    """A shifted dyadic grid D^t in dimension d, shift index t in [1, 2^d]."""

    dimension: int
    shift: int

    def __post_init__(self):
        if self.dimension < 1:
            raise GridError(f"dimension must be >= 1, got {self.dimension}")
        if not 1 <= self.shift <= 2**self.dimension:
            raise GridError(
                f"shift index must lie in [1, {2**self.dimension}], got {self.shift}"
            )

    @classmethod
    def standard(cls, dimension):
        """The unshifted grid (shift index 2^d encodes tau = 0)."""
        return cls(dimension, 2**dimension)

    @property
    def shift_numerators(self):
        """Integer vector u with tau = u/3, axis 0 on the most significant bit."""
        d = self.dimension
        c = self.shift % (2**d)
        return tuple((c >> (d - 1 - a)) & 1 for a in range(d))

    def cube(self, level, position):
        return DyadicCube(self, level, tuple(int(m) for m in position))


@dataclass(frozen=True)
class DyadicCube:
    """Cube 2^{-k}([0,1)^d + m + (-1)^k tau) of a shifted grid."""

    grid: DyadicGrid
    level: int
    position: tuple

    def __post_init__(self):
        if len(self.position) != self.grid.dimension:
            raise GridError("position length must match the grid dimension")

    @property
    def side(self):
        k = self.level
        return Fraction(1, 2**k) if k >= 0 else Fraction(2 ** (-k))

    @property
    def volume(self):
        return self.side ** self.grid.dimension

    @property
    def corner(self):
        s = self.side
        sgn = -1 if self.level % 2 else 1
        u = self.grid.shift_numerators
        return tuple(
            (Fraction(m) + Fraction(sgn * ui, 3)) * s
            for m, ui in zip(self.position, u)
        )

    @property
    def address(self):
        coords = ",".join(str(m) for m in self.position)
        return f"{self.grid.shift}/{self.level}/{coords}"

    def child(self, b):
        """Child with offset bits b (int in [0, 2^d), axis 0 = MSB)."""
        d = self.grid.dimension
        sgn = -1 if self.level % 2 else 1
        u = self.grid.shift_numerators
        m = tuple(
            2 * self.position[a] + sgn * u[a] + ((b >> (d - 1 - a)) & 1)
            for a in range(d)
        )
        return DyadicCube(self.grid, self.level + 1, m)

    def parent(self):
        d = self.grid.dimension
        sgn = -1 if (self.level - 1) % 2 else 1
        u = self.grid.shift_numerators
        m = tuple((self.position[a] - sgn * u[a]) // 2 for a in range(d))
        return DyadicCube(self.grid, self.level - 1, m)

    def contains_point(self, x):
        c = self.corner
        s = self.side
        return all(ci <= Fraction(xi) < ci + s for ci, xi in zip(c, x))

    def contains_box(self, corner, side):
        c = self.corner
        s = self.side
        return all(
            ci <= Fraction(qi) and Fraction(qi) + Fraction(side) <= ci + s
            for ci, qi in zip(c, corner)
        )


def children(cube):
    """The 2^d children of a cube, ordered by offset bits (axis 0 = MSB)."""
    return [cube.child(b) for b in range(2**cube.grid.dimension)]


@dataclass(frozen=True)
class Signature:
    """Haar signature epsilon in {0,1}^d; cancellative iff not all ones."""

    bits: tuple

    def __post_init__(self):
        if not self.bits or any(b not in (0, 1) for b in self.bits):
            raise GridError("signature bits must be a nonempty 0/1 tuple")

    @property
    def dimension(self):
        return len(self.bits)

    @property
    def cancellative(self):
        return any(b == 0 for b in self.bits)

    def to_int(self):
        d = len(self.bits)
        return sum(b << (d - 1 - a) for a, b in enumerate(self.bits))

    @classmethod
    def from_int(cls, value, dimension):
        return cls(tuple((value >> (dimension - 1 - a)) & 1 for a in range(dimension)))


def signature_product(eps, eps2):
    """Signature psi with h_I^psi = |I|^{1/2} h_I^eps h_I^{eps'} (componentwise XNOR)."""
    if eps.dimension != eps2.dimension:
        raise GridError("signatures must share a dimension")
    return Signature(tuple(1 if a == b else 0 for a, b in zip(eps.bits, eps2.bits)))


def haar_eval(cube, sig, x):
    """Evaluate the tensor Haar function h_I^eps at a point (zero off I).

    Per axis, epsilon_i = 1 gives the normalized indicator and epsilon_i = 0
    the left-minus-right oscillation.
    """
    if sig.dimension != cube.grid.dimension:
        raise GridError("signature dimension must match the cube")
    if not cube.contains_point(x):
        return 0.0
    c = cube.corner
    s = cube.side
    scale = float(s) ** (-0.5 * cube.grid.dimension)
    val = scale
    for a, (eb, xa) in enumerate(zip(sig.bits, x)):
        if eb == 0 and Fraction(xa) >= c[a] + s / 2:
            val = -val
    return val


def _sig_child_sign(sig_int, child_int, d):
    # product over axes with epsilon bit 0 of (-1)^{child bit}
    mask = (2**d - 1) ^ sig_int
    return -1.0 if bin(mask & child_int).count("1") % 2 else 1.0


@lru_cache(maxsize=None)
def sign_table(d):
    """(2^d - 1, 2^d) array: value sign of h^eps on child b, all cancellative eps."""
    S = 2**d - 1
    tbl = np.empty((S, 2**d))
    for s in range(S):
        for b in range(2**d):
            tbl[s, b] = _sig_child_sign(s, b, d)
    return tbl


class Window:
    """A root cube plus ``depth`` refinement levels; the finite universe.

    Level j (relative, 0..depth) holds 2^{dj} cubes indexed in C order over
    the per-axis positions.  Leaf data lives in arrays of shape
    (leafcount, ...) with the same C-order convention.
    """

    def __init__(self, root, depth):
        if depth < 1:
            raise WindowError("depth must be >= 1")
        self.root = root
        self.depth = depth
        self.grid = root.grid
        self.d = root.grid.dimension
        self.nchild = 2**self.d
        self.nsig = 2**self.d - 1
        self.leafcount = 2 ** (self.d * depth)
        side0 = float(root.side)
        self.volumes = np.array(
            [(side0 * 2.0**-j) ** self.d for j in range(depth + 1)]
        )
        self.leaf_volume = self.volumes[depth]
        # axis orders of a level's per-axis (coarse, fine) index pairs, plus
        # one trailing axis: coarse axes first, fine axes after, and back
        d = self.d
        self._split = tuple(range(0, 2 * d, 2)) + tuple(range(1, 2 * d, 2)) + (2 * d,)
        self._merge = tuple(p for a in range(d) for p in (a, d + a)) + (2 * d,)
        self._children_idx = {}
        self._block_leaf_idx = {}
        self._tree_order = None

    @classmethod
    def unit(cls, d, depth, shift=None):
        """Window on [0,1)^d; default shift reproduces the standard grid."""
        grid = DyadicGrid(d, shift if shift is not None else 2**d)
        return cls(grid.cube(0, (0,) * d), depth)

    # -- index plumbing -------------------------------------------------

    def cubes_at(self, j):
        return 2 ** (self.d * j)

    def children_index(self, j):
        """(cubes_j, 2^d) indices of children at level j+1."""
        key = j
        if key not in self._children_idx:
            d = self.d
            shape = (2**j,) * d
            coords = np.unravel_index(np.arange(self.cubes_at(j)), shape)
            cols = []
            for b in range(self.nchild):
                bits = [(b >> (d - 1 - a)) & 1 for a in range(d)]
                fine = tuple(2 * coords[a] + bits[a] for a in range(d))
                cols.append(np.ravel_multi_index(fine, (2 ** (j + 1),) * d))
            self._children_idx[key] = np.stack(cols, axis=1)
        return self._children_idx[key]

    def ancestor_index(self, j_fine, j_coarse):
        """Map each level-j_fine cube index to its level-j_coarse ancestor."""
        d = self.d
        coords = np.unravel_index(
            np.arange(self.cubes_at(j_fine)), (2**j_fine,) * d
        )
        shiftn = j_fine - j_coarse
        coarse = tuple(c >> shiftn for c in coords)
        return np.ravel_multi_index(coarse, (2**j_coarse,) * d)

    def block_leaf_index(self, j):
        """(cubes_j, cells) leaf indices grouped per level-j cube."""
        if j not in self._block_leaf_idx:
            arr = np.arange(self.leafcount)
            self._block_leaf_idx[j] = self.block_view(arr, j)
        return self._block_leaf_idx[j]

    def tree_order(self):
        """Leaf permutation under which every window cube is a contiguous range.

        In ``leaves[tree_order()]`` each level-j cube occupies one run of
        2^{d(depth-j)} consecutive entries, its children's runs in offset-bit
        order.  The level-j cube at run k is
        ``ancestor_index(depth, j)[tree_order()[k * 2^{d(depth-j)}]]``.
        """
        if self._tree_order is None:
            self._tree_order = self.tree_ranks()[-1]
        return self._tree_order

    def tree_ranks(self):
        """Per level j, the index of the level-j cube at each tree-order rank
        (the leaf level's is ``tree_order()``)."""
        ranks = [np.zeros(1, dtype=int)]
        for j in range(self.depth):
            ranks.append(self.children_index(j)[ranks[-1]].reshape(-1))
        return ranks

    def _blocks(self, values, j, fine):
        """Level-``fine`` data reshaped to (cubes_j, cells, ...): each level-j
        cube's level-``fine`` cubes in C order over their per-axis offsets.
        In d = 1 these are runs, so the result is a view; in d >= 2 it is
        a transpose copy."""
        d, r = self.d, fine - j
        trailing = values.shape[1:]
        if d > 1:
            values = values.reshape((2**j, 2**r) * d + (-1,)).transpose(self._split)
        return values.reshape((self.cubes_at(j), 2 ** (d * r)) + trailing)

    def block_view(self, values, j):
        """Reshape leaf-indexed data to (cubes_j, cells_per_cube, ...)."""
        return self._blocks(values, j, self.depth)

    def children_view(self, values, j):
        """Level-(j+1) data as (cubes_j, 2^d, ...), children in offset-bit
        order: ``values[children_index(j)]`` as a reshape, a view in d = 1."""
        return self._blocks(values, j, j + 1)

    def children_flat(self, kids, j):
        """Inverse of ``children_view``: (cubes_j, 2^d or 1, ...) data to
        level-(j+1) data (cubes_{j+1}, ...); a child axis of 1 gives every
        child the same value."""
        d, trailing = self.d, kids.shape[2:]
        if kids.shape[1] != self.nchild:
            kids = kids.repeat(self.nchild, axis=1)
        if d > 1:
            kids = kids.reshape((2**j,) * d + (2,) * d + (-1,)).transpose(self._merge)
        return kids.reshape((self.cubes_at(j + 1),) + trailing)

    def level_averages(self, values):
        """List over levels 0..depth of per-cube means of leaf data."""
        out = [None] * (self.depth + 1)
        out[self.depth] = values
        for j in range(self.depth - 1, -1, -1):
            out[j] = np.add.reduce(self.children_view(out[j + 1], j), axis=1) / self.nchild
        return out

    # -- cube addressing -------------------------------------------------

    def _origin(self, j):
        """Grid position of the level-j cube with flat index 0."""
        if not 0 <= j <= self.depth:
            raise WindowError(f"relative level {j} outside window")
        sgn0 = -1 if self.root.level % 2 else 1
        a_j = sgn0 * ((2**j - (-1) ** j) // 3)
        u = self.grid.shift_numerators
        return tuple((m << j) + a_j * ua for m, ua in zip(self.root.position, u))

    def cube(self, j, index):
        """Absolute cube for relative level j and flat index."""
        origin = self._origin(j)
        coords = np.unravel_index(int(index), (2**j,) * self.d)
        m = tuple(o + int(c) for o, c in zip(origin, coords))
        return DyadicCube(self.grid, self.root.level + j, m)

    def addresses(self, j, idx):
        """``cube(j, k).address`` for every flat index k of ``idx``, formatted
        from the index array without building the cubes."""
        origin = self._origin(j)
        coords = np.unravel_index(np.asarray(idx, dtype=np.int64), (2**j,) * self.d)
        cols = [[str(o + c) for c in axis.tolist()] for o, axis in zip(origin, coords)]
        prefix = f"{self.grid.shift}/{self.root.level + j}/"
        return [prefix + ",".join(m) for m in zip(*cols)]

    def rel_index(self, cube):
        """(relative level, flat index) of a cube; WindowError if outside."""
        if cube.grid != self.grid:
            raise WindowError("cube belongs to a different grid")
        j = cube.level - self.root.level
        if not 0 <= j <= self.depth:
            raise WindowError("cube level outside window")
        coords = tuple(m - o for m, o in zip(cube.position, self._origin(j)))
        if not all(0 <= x < 2**j for x in coords):
            raise WindowError("cube outside window")
        return j, int(np.ravel_multi_index(coords, (2**j,) * self.d))

    def leaf_centers(self):
        """(leafcount, d) float centers of leaf cells."""
        d, L = self.d, self.depth
        corner = [float(c) for c in self.root.corner]
        h = float(self.root.side) / 2**L
        axes = [corner[a] + h * (np.arange(2**L) + 0.5) for a in range(d)]
        grids = np.meshgrid(*axes, indexing="ij")
        return np.stack([g.reshape(-1) for g in grids], axis=1)

    @property
    def leaf_side(self):
        return self.root.side / 2**self.depth

    def __repr__(self):
        return f"Window(root={self.root.address}, depth={self.depth})"


def containing_shifted_cube(corner, side=None):
    """Find (t, Q_t) with Q subset Q_t in D^t and side(Q_t) <= 6 side(Q).

    Accepts a DyadicCube or a (corner tuple, side) pair.  Scans levels from
    fine to coarse so a cube that is already dyadic in some D^t is returned
    as itself.  Raises UniverseError for cubes outside the configured
    universe, GridError if the search fails (it cannot, by the one-third
    shift lemma).
    """
    if isinstance(corner, DyadicCube):
        cube = corner
        corner, side = cube.corner, cube.side
    if side is None:
        raise GridError("side must be given when corner is a tuple")
    corner = tuple(Fraction(c) for c in corner)
    side = Fraction(side)
    d = len(corner)
    if side <= 0:
        raise UniverseError("cube side must be positive")
    if any(abs(c) > UNIVERSE_BOUND for c in corner) or side > UNIVERSE_BOUND:
        raise UniverseError("cube outside configured universe")

    def side_at(k):
        return Fraction(1, 2**k) if k >= 0 else Fraction(2**-k)

    # finest level whose cubes are still at least as large as Q
    k_hi = math.floor(math.log2(1.0 / float(side)) + 1e-9)
    while side_at(k_hi) < side:
        k_hi -= 1
    while side_at(k_hi + 1) >= side:
        k_hi += 1
    for k in range(k_hi, k_hi - 4, -1):
        s = side_at(k)
        if s > 6 * side:
            break
        sgn = -1 if k % 2 else 1
        for t in range(1, 2**d + 1):
            grid = DyadicGrid(d, t)
            u = grid.shift_numerators
            m = tuple(
                (corner[a] / s - Fraction(sgn * u[a], 3)).__floor__()
                for a in range(d)
            )
            cand = DyadicCube(grid, k, m)
            if cand.contains_box(corner, side):
                return t, cand
    raise GridError("no containing shifted cube found within ratio 6")


def _grid_level_axes(window, shift, level):
    """Exact per-axis geometry of the D^shift cubes of one level inside the box.

    Per axis: (m_min, count, lo, pieces, first, last).  The cubes have
    positions m_min .. m_min + count - 1.  The first meets the ``pieces``
    leaves lo, lo + 1, ...; it overlaps the first of them by ``first`` and
    the last by ``last`` leaf sides (exact), and the others fully.  A cube's
    side is r = 2^{leaf level - level} whole leaf sides, so the cube at
    m_min + i meets the same overlaps at leaves shifted by i r.
    """
    leaf_level = window.root.level + window.depth
    if not window.root.level <= level <= leaf_level:
        raise WindowError(f"level {level} outside the window's levels")
    h = window.leaf_side
    c0, box = window.root.corner, window.root.side
    r = 2 ** (leaf_level - level)
    s = h * r
    sgn = -1 if level % 2 else 1
    axes = []
    for a, u in enumerate(DyadicGrid(window.d, shift).shift_numerators):
        tau = Fraction(sgn * u, 3)
        # cube [m, m+1) * s + tau lies in the box iff m >= lo and m + 1 <= hi
        m_min = math.ceil(c0[a] / s - tau)
        m_max = math.floor((c0[a] + box) / s - tau - 1)
        f = ((m_min + tau) * s - c0[a]) / h  # the first cube's start, in leaves
        lo, hi = math.floor(f), math.ceil(f + r)
        first = min(f + r, lo + 1) - f
        last = f + r - max(f, hi - 1)
        axes.append((m_min, max(0, m_max - m_min + 1), lo, hi - lo, first, last))
    return axes


def enumerate_grid_cubes(window, shift, max_level=None):
    """Cubes of D^shift fully inside the window box, grouped by level.

    Returns a list of (absolute level, (cubes, d) integer positions in C
    order over the per-axis positions).  Levels run from the window root
    level down to ``max_level`` (default and at most: the leaf level).
    """
    leaf_level = window.root.level + window.depth
    top = leaf_level if max_level is None else min(max_level, leaf_level)
    out = []
    for k in range(window.root.level, top + 1):
        ranges = [
            np.arange(m_min, m_min + count)
            for m_min, count, *_ in _grid_level_axes(window, shift, k)
        ]
        grids = np.meshgrid(*ranges, indexing="ij")
        out.append((k, np.stack([g.reshape(-1) for g in grids], axis=1)))
    return out


def cube_pieces(window, shift, level):
    """Exact overlap of every D^shift cube of one level with the window leaves.

    Returns (idx, vols): ``idx[c]`` holds the leaf indices met by cube c (in
    the order of ``enumerate_grid_cubes``) and ``vols`` their overlap
    volumes, which are the same for every cube of the level.  Each distinct
    product of axis overlaps is formed once as an exact rational and then
    converted to float.
    """
    d, L = window.d, window.depth
    r = 2 ** (window.root.level + L - level)
    idx = np.zeros((1,) * (2 * d), dtype=int)
    codes, values = [], []
    for a, (_, count, lo, pieces, first, last) in enumerate(
        _grid_level_axes(window, shift, level)
    ):
        leaves = lo + r * np.arange(count)[:, None] + np.arange(pieces)
        shape = [1] * (2 * d)
        shape[a], shape[d + a] = count, pieces
        idx = idx + leaves.reshape(shape) * 2 ** (L * (d - 1 - a))
        code = np.ones(pieces, dtype=int)  # interior leaves overlap fully
        code[0], code[-1] = 0, 2  # a single leaf is overlapped fully: last = 1
        codes.append(code)
        values.append((first, Fraction(1), last))
    unit = window.leaf_side**d
    table = np.array(
        [float(math.prod(combo) * unit) for combo in itertools.product(*values)]
    ).reshape((3,) * d)
    vols = table[np.ix_(*codes)].reshape(-1)
    return idx.reshape(-1, vols.size), vols


def grid_children_index(grid, level, positions, below):
    """(cubes, 2^d) indices of the children of the cubes of ``grid`` at
    ``positions`` (one level, as from ``enumerate_grid_cubes``) among
    ``below``, the positions of the next level in the same C order over a
    box; children in offset-bit order, as ``DyadicCube.child`` numbers them.
    """
    d = grid.dimension
    sgn = -1 if level % 2 else 1
    bits = (np.arange(2**d)[:, None] >> np.arange(d - 1, -1, -1)) & 1
    child = 2 * positions[:, None, :] + sgn * np.array(grid.shift_numerators) + bits
    lo, counts = below[0], below[-1] - below[0] + 1
    return np.ravel_multi_index(tuple(np.moveaxis(child - lo, -1, 0)), tuple(counts))
