"""Matrix weights and step fields on a dyadic window.

A MatrixField holds one n x n matrix per leaf cell, a VectorField one
vector; both keep their window, leaves and cached level averages in one
private base, ``_LeafField``.  A matrix field's leaves are read-only, a
vector field's writable.  Weight fields are Hermitian with positive
definite leaves (enforced); symbol fields and operator outputs may be
arbitrary.  All averages, powers and characteristics are exact finite sums
over leaves, so scalar identities hold to rounding error.

Norm conventions.  The A_p characteristic integrand uses the normalized
Frobenius norm ||.||_F / sqrt(n): the identity weight scores exactly 1,
and at p = 2 the double-integral form of the characteristic agrees
exactly with the averaged closed form (both equal tr(m_I W m_I W^{-1})/n
per cube).  Condition-family quantities elsewhere use the spectral norm.

Reducing operators: at p = 2 the exact averages (m_I W)^{1/2} and
(m_I W^{-1})^{1/2} are used.  For p != 2 a second-moment ellipsoid over a
direction net approximates the L^p average norm; the realized two-sided
ratio kappa is verified on an offset net and recorded, never assumed.

Working memory.  The two O(N^2) or O(N * net) kernels at p != 2, the A_p
Gram and the net products |P e| of the reducing fit and its kappa check,
run in real arithmetic over blocks of at most ``_ROW_BUDGET`` entries
(2 MB of float64); complex leaves enter through their real embedding, so
no complex (leaves, n, dirs) temporary is formed.  The own grid's reducing
fit takes the window in tree-order blocks of at most
``_ROW_BUDGET`` / (8 dirs) leaves and fits each block's cubes in one call,
so it holds O(block + N / block * dirs) beyond the O(N n^2) table; a
shifted grid forms the net powers of every leaf, O(N * dirs), a net at a time.

Dtypes.  A field is float64 when the data it is built from are real and
complex128 otherwise (``np.result_type(data, float64)``), and everything
derived from it (powers, averages, reducing operators) keeps that type;
only a complex operand makes a result complex.  Dumps always store
complex128 and load back as float64 when no imaginary entry is nonzero.

Cube families.  A family gives the cubes of one grid inside the window,
level by level, with their leaf pieces, children, means, reducing
operators and witness cubes.  ``_OwnGrid`` is the window's own grid: each
cube is a block of whole leaves, read off cached level data, and its
``kids`` and ``leaf_blocks`` are reshapes of C-order level data
(``Window.children_view``, ``Window.block_view``).
``_ShiftedGrid`` holds the cubes of D^t inside the window box, walked
alike: its ``kids`` slice the next level's box of positions, its
``leaf_blocks`` are a strided window over the leaf pieces (exact volumes),
and its means come from the finest level up.  The
A_p characteristic, the reducing fit, the Haar coefficients and the
condition family of ``bmo`` all run over families, so every shifted grid
has one evaluation path.
"""

from __future__ import annotations

import json
import math
import numbers
import os
from dataclasses import dataclass, field as dc_field
from functools import lru_cache

import numpy as np

from .dyadic import (
    DyadicCube,
    DyadicGrid,
    Window,
    WindowError,
    cube_pieces,
    enumerate_grid_cubes,
    sign_table,
)

__all__ = [
    "FieldError",
    "NotPositiveDefiniteError",
    "MatrixField",
    "VectorField",
    "ap_characteristic",
    "ap_characteristic_report",
    "ReducingTable",
    "reducing_operator",
    "verify_reducing_comparability",
    "generate_weight",
    "dump_field",
    "load_field",
]

HERMITIAN_TOL = 1e-12
EIG_FLOOR = 1e-14


class FieldError(ValueError):
    pass


class NotPositiveDefiniteError(FieldError):
    pass


def _real_or_complex(data):
    """``data`` as an array of float64, or of complex128 when it is complex."""
    data = np.asarray(data)
    return data.astype(np.result_type(data, np.float64), copy=False)


def _same_window(*operands):
    """The one window of the operands (fields, spectra, shift maps, operator
    matrices or bare ``Window``s); WindowError unless all share it."""
    wins = [op if isinstance(op, Window) else op.window for op in operands]
    if any(w is not wins[0] for w in wins[1:]):
        raise WindowError("operands live on different windows")
    return wins[0]


def _check_p(p):
    if not 1.0 < p < np.inf:
        raise FieldError(f"p must lie in (1, inf), got {p}")


def _need_weight(F, what):
    if not F.is_weight:
        raise NotPositiveDefiniteError(f"{what} needs a weight field")


def _as_herm(mats, tol, what="matrix"):
    # M^H is a view for a real stack, so the check and the mean cost one
    # or two stacks of working memory beyond the result
    adj = np.swapaxes(mats, -1, -2)
    if np.iscomplexobj(adj):
        adj = np.conj(adj)
    err = np.max(np.abs(mats - adj))
    scale = max(1.0, float(np.max(np.abs(mats))))
    if err > tol * scale:
        raise FieldError(f"{what} not Hermitian: asymmetry {err:.3e}")
    out = mats + adj
    out *= 0.5
    return out


def _spectral_power(herm, s):
    """(H^s, the eigenvalues^s) of a stack of Hermitian matrices; the
    eigenvectors are gone when it returns."""
    vals, vecs = np.linalg.eigh(herm)
    if np.min(vals) < EIG_FLOOR and not s.is_integer():
        raise NotPositiveDefiniteError(
            f"eigenvalue below floor {EIG_FLOOR:g} in pointwise power"
        )
    if np.min(vals) <= 0 and s < 0:
        raise NotPositiveDefiniteError("negative power of singular leaf")
    pw_vals = np.power(vals, s)
    right = np.conj(vecs) if np.iscomplexobj(vecs) else vecs
    return np.einsum("lab,lb,lcb->lac", vecs, pw_vals, right), pw_vals


class _LeafField:
    """Leaf data (leafcount, n, ...) on a window, with cached level averages."""

    def __init__(self, window, leaves):
        self.window = window
        self.n = leaves.shape[1]
        self.leaves = leaves
        self._avg_cache = None

    def level_averages(self):
        if self._avg_cache is None:
            self._avg_cache = self.window.level_averages(self.leaves)
        return self._avg_cache

    def average(self, cube):
        """Arithmetic mean of the leaf values over a cube of this window."""
        j, idx = _rel(self.window, cube)
        return self.level_averages()[j][idx]


class MatrixField(_LeafField):
    """Piecewise-constant n x n matrix field on a window.

    Weight fields are Hermitian with positive definite leaves (checked);
    general symbol fields and operator outputs may be arbitrary matrices.
    Leaves are float64 for real data and complex128 otherwise.  Spectral
    operations (powers, inverses) demand Hermitian input.
    """

    def __init__(self, window, leaves, weight=False, _eigvals=None):
        # _eigvals: the leaves' eigenvalues when the caller has them already
        # (``power``), so that the positivity check needs no eigensolve
        leaves = _real_or_complex(leaves)
        if leaves.shape[0] != window.leafcount or leaves.ndim != 3:
            raise FieldError("leaves must have shape (leafcount, n, n)")
        if leaves.shape[1] != leaves.shape[2]:
            raise FieldError("leaf matrices must be square")
        if weight:
            leaves = _as_herm(leaves, HERMITIAN_TOL, "weight leaf")
        else:
            leaves = leaves.copy()
        super().__init__(window, leaves)
        self.leaves.setflags(write=False)
        self.is_weight = bool(weight)
        if weight:
            mineig = np.min(np.linalg.eigvalsh(leaves) if _eigvals is None else _eigvals)
            if mineig <= 0:
                raise NotPositiveDefiniteError(
                    f"weight field has non-positive leaf (min eig {mineig:.3e})"
                )
        self._power_cache = {}
        self._reducing_cache = {}

    # -- constructors ----------------------------------------------------

    @classmethod
    def constant(cls, window, matrix, weight=False):
        matrix = _real_or_complex(matrix)
        return cls(window, np.broadcast_to(
            matrix, (window.leafcount,) + matrix.shape).copy(), weight=weight)

    @classmethod
    def identity(cls, window, n):
        return cls.constant(window, np.eye(n), weight=True)

    # -- basic layers ------------------------------------------------------

    def power(self, s):
        """Pointwise spectral power W^s as a new field (cached)."""
        key = float(s)
        if key not in self._power_cache:
            # the constructor made a weight's leaves exactly Hermitian
            herm = self.leaves if self.is_weight else _as_herm(
                self.leaves, HERMITIAN_TOL, "power input")
            pw, pw_vals = _spectral_power(herm, key)
            self._power_cache[key] = MatrixField(
                self.window, pw, weight=self.is_weight, _eigvals=pw_vals
            )
        return self._power_cache[key]

    def inverse(self):
        return self.power(-1.0)

    def conj_transpose(self):
        """Pointwise Hermitian adjoint; a weight is its own, as the
        constructor made its leaves exactly Hermitian."""
        if self.is_weight:
            return self
        return MatrixField(self.window, np.conj(np.swapaxes(self.leaves, 1, 2)))

    def apply(self, vec_field):
        """Pointwise matrix-vector product, leaf by leaf."""
        win = _same_window(self, vec_field)
        return VectorField(win, np.einsum("lab,lb->la", self.leaves, vec_field.leaves))

    def reducing_table(self, p, dual=False):
        key = (float(p), bool(dual))
        if key not in self._reducing_cache:
            self._reducing_cache[key] = ReducingTable.build(self, p, dual=dual)
        return self._reducing_cache[key]

    def __repr__(self):
        tag = "weight" if self.is_weight else "field"
        return f"MatrixField(n={self.n}, {tag}, {self.window!r})"


class VectorField(_LeafField):
    """Piecewise-constant C^n-valued function on a window (float64 leaves
    for real data)."""

    def __init__(self, window, leaves):
        leaves = _real_or_complex(leaves)
        if leaves.shape[0] != window.leafcount or leaves.ndim != 2:
            raise FieldError("leaves must have shape (leafcount, n)")
        if not np.all(np.isfinite(leaves)):
            raise FieldError("vector field has non-finite entries")
        super().__init__(window, leaves)

    @classmethod
    def constant(cls, window, vec):
        vec = _real_or_complex(vec)
        return cls(window, np.broadcast_to(vec, (window.leafcount, vec.shape[0])).copy())

    def lp_norm(self, p, weight=None):
        """||f||_{L^p(W)} with exact leaf quadrature (weight optional)."""
        _same_window(self, self if weight is None else weight)
        _check_p(p)
        P = None if weight is None else weight.power(1.0 / p).leaves
        _, _, mass = _weighted_lp_mass(P, self.leaves, p, self.window.leaf_volume)
        return float(mass ** (1.0 / p))

    def __add__(self, other):
        return VectorField(self.window, self.leaves + other.leaves)

    def __sub__(self, other):
        return VectorField(self.window, self.leaves - other.leaves)

    def __mul__(self, scalar):
        return VectorField(self.window, self.leaves * scalar)

    __rmul__ = __mul__

    def __neg__(self):
        return VectorField(self.window, -self.leaves)


def _weighted_lp_mass(P, values, p, leaf_volume):
    """(P f, |P f| per leaf, leaf_volume * sum over leaves of |P f|^p).

    ``values`` is a leaf array (leaves, n, ...) whose trailing axes are batch
    axes, ``P`` a stack (leaves, n, n) of leaf matrices or None for the
    identity; the mass is the p-th power of the L^p norm with weight P^p.
    """
    Pf = values if P is None else np.einsum("lab,lb...->la...", P, values)
    mags = np.sqrt(np.sum(np.abs(Pf) ** 2, axis=1))
    return Pf, mags, leaf_volume * np.sum(mags**p, axis=0)


def _rel(window, cube):
    if isinstance(cube, tuple) and len(cube) == 2 and isinstance(cube[0], (int, np.integer)):
        j, idx = cube
        if not 0 <= j <= window.depth or not 0 <= idx < window.cubes_at(j):
            raise WindowError("relative cube reference outside window")
        return j, idx
    return window.rel_index(cube)


# -- cube families ------------------------------------------------------------


class _OwnGrid:
    """The cubes of the window's own grid, levels 0..top.

    ``top`` is the leaf level, or the last level at or above ``max_level``.
    Every cube is a block of whole leaves, so means read the fields' cached
    level averages and reducing operators the cached ``ReducingTable``s.
    """

    def __init__(self, window, max_level=None):
        self.window = window
        self.top = window.depth
        if max_level is not None:
            self.top = min(self.top, max_level - window.root.level)
        self.volumes = window.volumes[: self.top + 1]
        self.counts = [window.cubes_at(j) for j in range(self.top + 1)]

    def kids(self, values, i):
        return self.window.children_view(values, i)

    def leaf_blocks(self, values, i):
        return self.window.block_view(values, i)

    def piece_mean(self, i, vals):
        return vals.mean(axis=1)  # every piece is one whole leaf

    def means(self, F):
        return F.level_averages()[: self.top + 1]

    def reducing(self, F, p):
        return F.reducing_table(p).mats[: self.top]

    def reducing_inv(self, F, p):
        table = F.reducing_table(p)
        return [table.inv(j) for j in range(self.top)]

    def net_means(self, P, nets, expo, stop):
        # The window in blocks of `cells` leaves, each one level-jb cube (a
        # run of the tree order), `cells` the largest that keeps
        # cells * dirs * 8 <= _ROW_BUDGET, so that a block's stacks and the
        # |V e| products of its fit stay near _ROW_BUDGET entries: per
        # block, the net powers of its leaves and their means over each of
        # its cubes, one stack of levels jb..stop-1; then the blocks' own
        # means, kept as they come, give levels 0..jb-1 in one last stack.
        # The stacks are reused buffers, each valid until the next is asked
        # for.
        win, k = self.window, self.window.nchild
        order, ranks = win.tree_order(), win.tree_ranks()
        dirs = max(len(net.dirs) for net in nets)
        most = max(1, _ROW_BUDGET // (8 * dirs)).bit_length() - 1  # log2 of the most cells
        jb = win.depth - min(win.depth, most // win.d)
        blocks = win.cubes_at(jb)
        cells = win.leafcount // blocks
        # flat destinations of the cubes, level-major, in tree order
        dest = [o + r for o, r in zip(np.cumsum([0] + self.counts[: stop - 1]), ranks[:stop])]
        coarse = np.concatenate([np.empty(0, dtype=int)] + dest[:jb])
        inner = np.hstack([np.empty((blocks, 0), dtype=int)] + [
            d.reshape(blocks, -1) for d in dest[jb:]])
        del ranks, dest
        stacks = [np.empty(((k * cells - 1) // (k - 1), len(net.dirs))) for net in nets]
        roots = [np.empty(((k * blocks - 1) // (k - 1), len(net.dirs))) for net in nets]
        for b in range(blocks):
            Pb = P[order[b * cells : (b + 1) * cells]]
            for net, stack, root in zip(nets, stacks, roots):
                _net_powers(Pb, net, expo, out=stack[-cells:])
                root[b - blocks] = _tree_means(stack, k)[0]
            if inner.shape[1]:
                yield (inner[b], *(stack[: inner.shape[1]] for stack in stacks))
        if len(coarse):
            yield (coarse, *(_tree_means(root, k)[: len(coarse)] for root in roots))

    def gram_levels(self, W, p):
        win, ranks = self.window, self.window.tree_ranks()
        sums = self._tree_sums(W.power(2.0 / p).leaves, W.power(-2.0 / p).leaves, p)
        per_level = []
        for j, run in enumerate(sums):
            vals = np.empty(len(run))
            vals[ranks[j]] = run / (win.leafcount // len(run))
            per_level.append(vals)
        return per_level

    def _tree_sums(self, P, N, p):
        # Per level j <= top, per level-j cube I in tree order: the sum over
        # the rows x of I of (mean over the columns t of I of H[x, t])^{p/p'},
        # H = max(Gram, 0)^{p'/2} of rows P against columns N.
        #
        # Under the tree order every cube is a run of leaves.  A strip is one
        # level-j0 cube of `rows` leaves: the coarsest of at most
        # max(_ROW_BUDGET / N, 16) rows whose diagonal block is at most an
        # eighth of _ROW_BUDGET.  Its Gram comes in tiles of whole blocks of
        # `rows` columns: all columns at once up to N = _ROW_BUDGET / 16;
        # beyond that, column tiles, so that each pass over the columns still
        # serves 16 rows (a single row per pass rereads all N columns per
        # leaf, which costs more than the extra tiles).  The tiles are summed
        # into blocks of `rows` columns as they come, and the strip's
        # diagonal block is kept.  Taken in the order b ^ (lo / rows), the
        # blocks put the strip's level-j cube first for every j <= j0; inside
        # the strip's own diagonal block each row i takes the columns in the
        # order i ^ u, which puts its level-j cube first for j > j0.  So all
        # of a row's cube sums are the running sums of one reduceat over the
        # level boundaries: sums of nonnegative terms, in which nothing
        # cancels, in a fixed number of numpy calls per strip.  The working
        # arrays are local, so they are gone before the caller maps the sums
        # to cube order.
        win, top = self.window, self.top
        pp = p / (p - 1.0)
        total, order = win.leafcount, win.tree_order()
        B = _real_rows(N if win.d == 1 else N[order])  # d = 1: order is the identity
        cells = 2 ** (win.d * (win.depth - np.arange(win.depth + 1)))
        limit = min(max(_ROW_BUDGET // total, 16), math.isqrt(_ROW_BUDGET // 8))
        j0 = int(np.argmax(cells <= max(1, limit)))
        rows, jo = int(cells[j0]), min(j0, top)
        cols = min(total, _ROW_BUDGET // rows // rows * rows)
        # ring boundaries: the strip's cubes below j0 in its diagonal block,
        # then its cubes from level jo up to the root in blocks
        inner = np.concatenate([[0], cells[top:jo:-1]])
        outer = np.concatenate([[0], cells[jo:0:-1] // rows])
        swap = np.arange(rows)[:, None] ^ np.arange(rows)
        blocks, ones = np.arange(total // rows), np.ones(rows)
        start = np.concatenate([[0], np.cumsum(win.cubes_at(np.arange(top + 1)))])
        slot = start[:-1] + np.arange(rows)[:, None] // cells[: top + 1]
        acc = np.zeros(start[-1])
        tile, seg = np.empty((rows, cols)), np.empty((rows, len(blocks)))
        for lo in range(0, total, rows):
            A = _real_rows(P[order[lo : lo + rows]]) / P.shape[-1]
            for c in range(0, total, cols):
                H = _gram_power(A, B[c : c + cols], pp / 2.0, tile[:, : total - c])
                seg[:, c // rows : (c + cols) // rows] = (
                    H.reshape(-1, rows) @ ones).reshape(rows, -1)
                if top > jo and c <= lo < c + cols:
                    diag = np.take_along_axis(H[:, lo - c : lo - c + rows], swap, axis=1)
            rings = np.add.reduceat(seg[:, blocks ^ (lo // rows)], outer, axis=1)
            if top > jo:
                rings = np.concatenate(
                    [np.add.reduceat(diag, inner, axis=1), rings[:, 1:]], axis=1)
            means = np.cumsum(rings, axis=1)[:, ::-1] / cells[: top + 1]
            np.add.at(acc, slot + lo // cells[: top + 1], means ** (p / pp))
        return np.split(acc, start[1:-1])

    def cube(self, i, k):
        return self.window.cube(i, k)


class _ShiftedGrid:
    """The cubes of D^t inside the window box, from the coarsest level that
    has one down to the leaf level (or ``max_level``); a level's data are in
    C order over its box of positions."""

    def __init__(self, window, t, max_level=None):
        self.window = window
        self.grid = DyadicGrid(window.d, t)
        # per level: (absolute level, first position, cubes per axis)
        self.levels = [
            (k, pos[0], pos[-1] - pos[0] + 1)
            for k, pos in enumerate_grid_cubes(window, t, max_level) if len(pos)
        ]
        self.pieces = [cube_pieces(window, t, k) for k, _, _ in self.levels]
        self.top = len(self.levels) - 1
        self.volumes = [float(self.grid.cube(k, m).volume) for k, m, _ in self.levels]
        self.counts = [int(np.prod(c)) for _, _, c in self.levels]
        # where level i's children start in level i + 1's box: 2 m + sgn_k u
        u = np.array(self.grid.shift_numerators)
        self.offsets = [
            2 * m + (-1 if k % 2 else 1) * u - below
            for (k, m, _), (_, below, _) in zip(self.levels, self.levels[1:])
        ]

    def kids(self, values, i):
        counts, below = self.levels[i][2], self.levels[i + 1][2]
        box = tuple(slice(o, o + 2 * c) for o, c in zip(self.offsets[i], counts))
        boxed = values.reshape(tuple(below) + values.shape[1:])[box]
        return self.window.box_blocks(boxed, counts, 2)

    def leaf_blocks(self, values, i):
        return self.pieces[i][0](values)

    def piece_mean(self, i, vals):
        return vals @ self.pieces[i][1] / self.volumes[i]

    def means(self, F):
        return list(self._walk_up(self._finest(F.leaves)))[::-1]

    def _finest(self, values):
        """The finest level's means of leaf data, from its weighted pieces."""
        if not self.pieces:
            return None  # cut above every cube of the grid: nothing to walk
        take, vols = self.pieces[self.top]
        return np.tensordot(take(values), vols, axes=(1, 0)) / vols.sum()

    def _walk_up(self, m):
        """The finest level's means ``m``, then each coarser level's, the
        mean of its kids."""
        for i in range(self.top, -1, -1):
            yield m
            if i:
                m = np.add.reduce(self.kids(m, i - 1), axis=1) / self.window.nchild

    def reducing(self, F, p):
        return _fit_reducing(self, F, p, stop=self.top)[0]

    def reducing_inv(self, F, p):
        return [np.linalg.inv(V) for V in self.reducing(F, p)]

    def net_means(self, P, nets, expo, stop):
        # one stack per level, from the finest up: means are linear, so net
        # powers walk up as leaf data do, each level dropped after its parent
        ends = np.cumsum(self.counts)
        walks = [self._walk_up(self._finest(_net_powers(P, net, expo))) for net in nets]
        for i, stacks in zip(range(self.top, -1, -1), zip(*walks)):
            if i < stop:
                yield (slice(ends[i] - self.counts[i], ends[i]), *stacks)

    def gram_levels(self, W, p):
        # Per level, the Gram of every cube's pieces as (cubes, rows, pieces)
        # blocks of at most _ROW_BUDGET entries: whole cubes when one fits,
        # row blocks of a single cube otherwise, gathered by leaf index.
        pp = p / (p - 1.0)
        A = _real_rows(W.power(2.0 / p).leaves) / W.n
        B = _real_rows(W.power(-2.0 / p).leaves)
        per_level = []
        for take, vols in self.pieces:
            idx = take(np.arange(self.window.leafcount))
            pieces = idx.shape[1]
            w = vols / vols.sum()
            rows = min(pieces, max(1, _ROW_BUDGET // pieces))
            step = max(1, _ROW_BUDGET // (rows * pieces))
            vals = np.zeros(len(idx))
            for c in range(0, len(idx), step):
                cols = B[idx[c : c + step]]
                for lo in range(0, pieces, rows):
                    H = _gram_power(A[idx[c : c + step, lo : lo + rows]], cols, pp / 2.0)
                    vals[c : c + step] += ((H @ w) ** (p / pp)) @ w[lo : lo + rows]
            per_level.append(vals)
        return per_level

    def cube(self, i, c):
        k, m, counts = self.levels[i]
        return self.grid.cube(k, m + np.unravel_index(c, counts))


def _family(window, t, max_level=None):
    """The cube family of shifted grid ``t`` on the window: its own grid's
    family when ``t`` is the window's shift."""
    if t == window.grid.shift:
        return _OwnGrid(window, max_level)
    return _ShiftedGrid(window, t, max_level)


def _tree_means(stack, k):
    """Fill in a stack (1 + k + ... + k^m, ...) whose last k^m rows hold the
    leaf data of one cube in tree order: above them, coarsest first, the
    means over the cube's runs of k^m, ..., k^2, k leaves, each level the
    pairwise child means of the next, as ``Window.level_averages`` forms
    them.  Returns the stack."""
    hi, size = len(stack), (len(stack) * (k - 1) + 1) // k
    while size > 1:
        lo, size = hi - size, size // k
        np.mean(stack[lo:hi].reshape((size, k) + stack.shape[1:]), axis=1,
                out=stack[lo - size : lo])
        hi = lo
    return stack


def _level_argmax(per_level):
    """(largest value, (level, index)) over per-level value arrays; the first
    cube attaining it wins, and (0.0, (0, 0)) stands when none is positive."""
    best, wit = 0.0, (0, 0)
    for i, vals in enumerate(per_level):
        k = int(np.argmax(vals))
        if vals[k] > best:
            best, wit = float(vals[k]), (i, k)
    return best, wit


def _haar_coefs(fam, means):
    """Haar coefficients on the family's cubes above its finest level from
    the per-level means of some data: sign-weighted child means scaled by
    sqrt(|I|) / 2^d.  ``transforms.analyze`` is this on the own grid."""
    d = fam.window.d
    tbl = sign_table(d)
    return [
        (np.sqrt(vol) / 2**d) * np.einsum("sb,kb...->ks...", tbl, fam.kids(means[i + 1], i))
        for i, vol in enumerate(fam.volumes[: fam.top])
    ]


# -- A_p characteristic ---------------------------------------------------

# Entries of one Gram tile or net-product block (2 MB of float64).
_ROW_BUDGET = 2**18


def _real_rows(M):
    """Matrices (..., n, n) as real rows of their entries: (..., n^2) for a
    real stack, (..., 2 n^2), real parts then imaginary, for a complex one."""
    V = M.reshape(M.shape[:-2] + (-1,))
    return np.concatenate([V.real, V.imag], axis=-1) if np.iscomplexobj(V) else V


def _pair_gram(A, B, out=None):
    # G[..., x, t] = tr(P_x N_t) / n for rows A = _real_rows(P) / n and
    # B = _real_rows(N) of one dtype kind: the squared *normalized*
    # Frobenius norm of P_x^{1/2} N_t^{1/2}, so that the identity weight
    # scores 1.  For Hermitian N_t the trace is the real part of
    # <P_x, N_t>_F, one real product of the rows; leading axes are batch
    # axes.  ``out``, when given, receives the block.
    return np.matmul(A, np.swapaxes(B, -1, -2), out=out)


def _gram_power(A, B, expo, out=None):
    """max(Gram, 0)^expo of rows A against columns B, in place (in ``out``
    when given)."""
    H = _pair_gram(A, B, out)
    np.maximum(H, 0.0, out=H)
    return np.power(H, expo, out=H)


def _trace_form(mP, mN):
    # tr(m P m N) / n per cube: the p = 2 double average, which factorizes
    return np.real(np.einsum("...ab,...ba->...", mP, mN)) / mP.shape[-1]


def _is_p2(p):
    return abs(p - 2.0) < 1e-12


def _ap_levels(fam, W, p):
    """The A_p integrand of every cube of a family, level by level."""
    if _is_p2(p):
        Wi = W.inverse()  # before any means, as the eigensolve peaks highest
        return [_trace_form(mW, mWi) for mW, mWi in zip(fam.means(W), fam.means(Wi))]
    return fam.gram_levels(W, p)


def ap_characteristic_report(W, p, grids=None, max_level=None):
    """Window A_p characteristic with witness cube.

    The supremum runs over all cubes of the window's own grid and, when
    ``grids`` lists further shift indices, over cubes of those grids
    contained in the window box, down to absolute level ``max_level``.

    Method.  At p = 2 the double average factorizes: a cube scores
    tr(m_I W m_I W^{-1}) / n, read off the family's means (on a shifted
    grid, the finest level's weighted by the exact piece volumes and each
    coarser level's from its children), so no Gram is formed.
    At p != 2 the leaf Gram tr(W_x^{2/p} W_t^{-2/p}) / n is formed in
    tiles of at most ``_ROW_BUDGET`` = 2^18 entries: O(N^2) time in about
    2 MB of working memory beyond O(N n^2) for the power leaves and their
    real rows.  On the own grid the rows are taken in tree order, so a
    strip of rows is one cube and every cube's columns are one contiguous
    range; each strip's sums over all levels come from a fixed number of
    numpy calls.  Beyond N = 2^14 a strip keeps 16 rows and takes the
    columns in tiles.  A shifted grid forms the Gram of each cube's own
    pieces, a level's cubes batched together.
    """
    _check_p(p)
    _need_weight(W, "the A_p characteristic")
    win = W.window
    if max_level is not None and max_level < win.root.level:
        raise WindowError("max_level above the window root")
    own = win.grid.shift
    fams = [_family(win, t, max_level) for t in [own, *(t for t in grids or () if t != own)]]
    best, witness = 0.0, None
    for fam in fams:
        val, (i, k) = _level_argmax(_ap_levels(fam, W, p))
        if witness is None or val > best:
            best, witness = val, fam.cube(i, k)
    return best, witness


def ap_characteristic(W, p, grids=None, max_level=None):
    """Matrix A_p characteristic of the weight on its window (Frobenius form)."""
    return ap_characteristic_report(W, p, grids=grids, max_level=max_level)[0]


def a2_exact_form(W):
    """sup_I ||(m_I W)^{1/2} (m_I W^{-1})^{1/2}||^2 over window cubes, in the
    normalized Frobenius norm: tr(m_I W m_I W^{-1}) / n from the level
    averages, the same code as ``ap_characteristic(W, 2)`` on the own grid."""
    return _level_argmax(_ap_levels(_OwnGrid(W.window), W, 2.0))[0]


# -- reducing operators -----------------------------------------------------


@lru_cache(maxsize=None)
def direction_net(n, offset=False):
    """Quasi-uniform unit directions on the real sphere (antipodes dropped)."""
    if n == 1:
        return np.array([[1.0]])
    if n == 2:
        count = 64
        theta = (np.arange(count) + (0.5 if offset else 0.0)) * np.pi / count
        return np.stack([np.cos(theta), np.sin(theta)], axis=1)
    if n == 3:
        count = 512
        k = np.arange(count) + (0.75 if offset else 0.25)
        phi = np.arccos(1.0 - k / count)  # upper hemisphere
        golden = np.pi * (3.0 - np.sqrt(5.0))
        ang = golden * k
        return np.stack(
            [np.sin(phi) * np.cos(ang), np.sin(phi) * np.sin(ang), np.cos(phi)],
            axis=1,
        )
    rng = np.random.default_rng(90210 + (1 if offset else 0))
    vecs = rng.standard_normal((128 * n * n, n))
    return vecs / np.linalg.norm(vecs, axis=1, keepdims=True)


class _Net:
    """A direction net ``dirs`` (dirs, n), real or complex, with the real
    tables of its kernels:

    - ``rows`` multiplies real leaf rows (leaves * n, n): E = dirs^T for a
      real net, [Re E | Im E] for a complex one;
    - ``embed`` multiplies the interleaved real view (leaves * n, 2n) of
      complex leaf rows, [Re p_a0, Im p_a0, Re p_a1, ...]: its rows 2b and
      2b + 1 are [Re E_b | Im E_b] and [-Im E_b | Re E_b], so the product
      is [Re(P e) | Im(P e)], the embedding [[Re P, -Im P], [Im P, Re P]]
      applied to (Re e, Im e);
    - ``fit`` holds the outer products f f^H of f = M0^{-1/2} e, where
      M0 = sum_e e e^H, as real rows (dirs, n^2), or (dirs, 2 n^2) with
      real and imaginary parts interleaved for a complex net.
    """

    def __init__(self, dirs):
        self.dirs = dirs
        E = dirs.T
        self.rows = np.hstack([E.real, E.imag]) if np.iscomplexobj(E) else E.copy()
        self.embed = np.stack(
            [np.hstack([E.real, E.imag]), np.hstack([-E.imag, E.real])], axis=1
        ).reshape(2 * len(E), -1)
        F = np.ascontiguousarray((_mat_isqrt((E @ np.conj(E.T))[None])[0] @ E).T)
        self.fit = (F[:, :, None] * np.conj(F)[:, None, :]).reshape(len(F), -1).view(np.float64)


@lru_cache(maxsize=None)
def _net(n, offset, phased):
    base = direction_net(n, offset)
    if not phased:
        return _Net(base)
    turned = base.astype(complex)
    turned[:, 1:] *= 1j
    return _Net(np.concatenate([base, turned], axis=0))


def _reducing_net(P, offset=False):
    """Direction net (a ``_Net``, built once) for the p != 2 reducing
    operators of power leaves P.

    Leaves with no nonzero imaginary entry use the real net; complex leaves
    add a copy with the trailing coordinates rotated by i.
    """
    n = P.shape[1]
    return _net(n, bool(offset), n > 1 and bool(np.any(P.imag)))


def _net_powers(P, net, expo, out=None):
    """|P(x) e|^expo per leaf and direction e of the net: (leaves, dirs), in
    ``out`` when given.

    Real arithmetic throughout, over blocks of leaves whose products hold
    at most _ROW_BUDGET entries: a real stack multiplies its leaf rows
    (leaves * n, n) by ``net.rows``, a complex one the interleaved real view
    of its rows by ``net.embed``.  Each product holds Re(P e), and Im(P e)
    when either side is complex, per leaf row; a leaf's squares, summed
    over its rows, are |P e|^2.  Each |P e| is formed from its own product,
    so it keeps its accuracy on near-singular leaves.
    """
    P = np.ascontiguousarray(P)
    L, n = P.shape[:2]
    if np.iscomplexobj(P):
        rows, table = P.view(np.float64).reshape(L * n, 2 * n), net.embed
    else:
        rows, table = P.reshape(L * n, n), net.rows
    dirs = len(net.dirs)
    out = np.empty((L, dirs)) if out is None else out
    step = max(1, _ROW_BUDGET // (n * table.shape[1]))
    for lo in range(0, L, step):
        block = out[lo : lo + step]
        Pe = (rows[lo * n : (lo + step) * n] @ table).reshape(len(block), -1, dirs)
        np.einsum("lkj,lkj->lj", Pe, Pe, out=block)
        if expo != 2.0:
            np.power(block, expo / 2.0, out=block)
    return out


def _ellipsoid_fit(rho, vr, net, vnet, expo):
    """Second-moment ellipsoids V for a stack of cubes, and their kappa.

    ``rho`` and ``vr`` are the per-cube means of |P e|^expo over the
    directions of the ``_Net`` ``net`` and of the offset net ``vnet``,
    shape (cubes, dirs).  V is fitted so that |V e| matches the L^expo
    average norm (mean |P e|^expo)^{1/expo} on the net; kappa is the largest
    two-sided ratio between the two on the offset net, found as the square
    root of the largest two-sided ratio of their squares.

    V = (M0^{-1/2} S M0^{-1/2})^{1/2} for the moment
    S = sum_e rho(e)^{2/expo} e e^H and M0 = sum_e e e^H; with M0^{-1/2}
    folded into ``net.fit``, the whole sandwich of every cube of the stack
    is one real matmul.
    """
    n = net.dirs.shape[1]
    S = (rho ** (2.0 / expo) @ net.fit).view(net.dirs.dtype).reshape(-1, n, n)
    V = _mat_sqrt(S)
    ratio2 = vr ** (2.0 / expo)
    ratio2 /= np.maximum(_net_powers(V, vnet, 2.0), 1e-300)
    return V, float(np.sqrt(max(1.0, float(np.max(ratio2)), float(1.0 / np.min(ratio2)))))


@dataclass
class ReducingTable:
    """Per-cube SPD reducing operators V_I(W,p) or V_I'(W,p) on a window.

    ``mats[j]`` has shape (cubes_j, n, n); ``inv(j)`` returns inverses.
    ``kappa`` is the realized two-sided net-verification constant (exactly
    1.0 on the p = 2 average path).
    """

    window: object
    p: float
    dual: bool
    mats: list
    kappa: float
    exact: bool
    _inv: dict = dc_field(default_factory=dict)

    @classmethod
    def build(cls, W, p, dual=False):
        _check_p(p)
        _need_weight(W, "a reducing table")
        mats, kappa = _fit_reducing(_OwnGrid(W.window), W, p, dual=dual)
        return cls(W.window, p, dual, mats, kappa=kappa, exact=_is_p2(p))

    def inv(self, j):
        if j not in self._inv:
            self._inv[j] = np.linalg.inv(self.mats[j])
        return self._inv[j]

    def at(self, cube):
        j, idx = _rel(self.window, cube)
        return self.mats[j][idx]


def _opnorms(stack):
    """Spectral norms of a stack of matrices (shape stack.shape[:-2]).

    The norm is the square root of the top eigenvalue of the Gram M^H M,
    which keeps machine-epsilon relative accuracy (see
    ``tests/operator_reference.weighted_opnorm_p2``); a float64 stack runs
    in float64 throughout.
    A 2 x 2 stack takes the eigenvalue in closed form from the Gram entries
    a = |m00|^2 + |m10|^2, c = |m01|^2 + |m11|^2 and
    b = conj(m00) m01 + conj(m10) m11:

        ||M|| = sqrt((a + c)/2 + hypot((a - c)/2, |b|)).

    Both terms under the root are sums of nonnegative numbers, so nothing
    cancels, and the zero matrix gives exactly 0 (a complex stack with no
    imaginary part gives the bits of its real part).  Every other size takes
    the top eigenvalue from a batched ``eigvalsh`` of the n x n Gram; a
    complex stack with no nonzero imaginary entry takes the real Gram, so
    it too gives the bits of its real part.
    """
    if stack.size == 0:
        return np.zeros(stack.shape[:-2])
    if stack.shape[-2:] == (2, 2):
        m00, m01 = stack[..., 0, 0], stack[..., 0, 1]
        m10, m11 = stack[..., 1, 0], stack[..., 1, 1]
        if np.iscomplexobj(stack):
            a = m00.real**2 + m00.imag**2 + m10.real**2 + m10.imag**2
            c = m01.real**2 + m01.imag**2 + m11.real**2 + m11.imag**2
            b = np.abs(np.conj(m00) * m01 + np.conj(m10) * m11)
        else:
            a, c = m00 * m00 + m10 * m10, m01 * m01 + m11 * m11
            b = np.abs(m00 * m01 + m10 * m11)
        return np.sqrt(0.5 * (a + c) + np.hypot(0.5 * (a - c), b))
    if np.iscomplexobj(stack) and not stack.imag.any():
        stack = stack.real
    gram = np.conj(np.swapaxes(stack, -1, -2)) @ stack
    return np.sqrt(np.maximum(np.linalg.eigvalsh(gram)[..., -1], 0.0))


def _fit_reducing(fam, W, p, dual=False, stop=None):
    """Reducing operators V_I(W, p), or the dual V_I'(W, p), of a family's
    cubes at levels 0..stop-1 (default: all), and their kappa.

    At p = 2 they are the exact average square roots (kappa 1); otherwise
    the second-moment ellipsoids of W^{+-1/p} fitted to the means of
    |W^{+-1/p} e|^expo over the direction net, one ``_ellipsoid_fit`` per
    stack of cubes that ``fam.net_means`` gives (the own grid's tree-order
    blocks, or a shifted grid's levels), each scattered into the level
    tables, which are views of one array in level-major cube order.
    """
    stop = fam.top + 1 if stop is None else stop
    if _is_p2(p):
        src = W.inverse() if dual else W
        return [_mat_sqrt(m) for m in fam.means(src)[:stop]], 1.0
    expo = p / (p - 1.0) if dual else p
    P = W.power(-1.0 / p if dual else 1.0 / p).leaves
    net, vnet = _reducing_net(P), _reducing_net(P, offset=True)
    sizes = fam.counts[:stop]
    flat = np.empty((sum(sizes), W.n, W.n), net.dirs.dtype)
    kappa = 1.0
    for dest, rho, vr in fam.net_means(P, (net, vnet), expo, stop):
        flat[dest], k = _ellipsoid_fit(rho, vr, net, vnet, expo)
        kappa = max(kappa, k)
    ends = np.cumsum(sizes)
    return [flat[e - c : e] for c, e in zip(sizes, ends)], kappa


def _mat_sqrt(stack):
    """PSD square roots of a stack of Hermitian matrices (lower triangle read,
    as ``eigh`` does).  A 2 x 2 stack takes the closed form

        sqrt(M) = (M + s I) / t,  s = sqrt(det M),  t = sqrt(tr M + 2 s),

    with the zero matrix mapped to 0; other sizes go through ``eigh``.
    Either way a stack with an eigenvalue below -1e-10 max(1, |eigenvalues|)
    is refused.
    """
    if stack.shape[-2:] != (2, 2):
        vals, vecs = np.linalg.eigh(stack)
        _check_semidefinite(vals)
        vals = np.maximum(vals, 0.0)
        return np.einsum("...ab,...b,...cb->...ac", vecs, np.sqrt(vals), np.conj(vecs))
    a, c, b = stack[..., 0, 0].real, stack[..., 1, 1].real, stack[..., 1, 0]
    babs = np.abs(b)
    mid, rad = 0.5 * (a + c), np.hypot(0.5 * (a - c), babs)
    _check_semidefinite(np.stack([mid - rad, mid + rad], axis=-1))
    s = np.sqrt(np.maximum(a * c - babs * babs, 0.0))
    t = np.sqrt(np.maximum(a + c + 2.0 * s, 0.0))
    inv_t = np.divide(1.0, t, out=np.zeros_like(t), where=t > 0)
    out = np.empty(stack.shape, dtype=stack.dtype)
    out[..., 0, 0] = (a + s) * inv_t
    out[..., 1, 1] = (c + s) * inv_t
    out[..., 1, 0] = b * inv_t
    out[..., 0, 1] = np.conj(b) * inv_t
    return out


def _check_semidefinite(vals):
    if np.min(vals) < -1e-10 * max(1.0, float(np.max(np.abs(vals)))):
        raise NotPositiveDefiniteError("matrix square root of indefinite stack")


def _mat_isqrt(stack):
    vals, vecs = np.linalg.eigh(stack)
    if np.min(vals) < EIG_FLOOR:
        raise NotPositiveDefiniteError("inverse square root of singular stack")
    return np.einsum("...ab,...b,...cb->...ac", vecs, vals**-0.5, np.conj(vecs))


def reducing_operator(W, cube, p, dual=False):
    """The SPD matrix V_I(W,p) (or the dual V_I'(W,p)) for one cube."""
    return W.reducing_table(p, dual=dual).at(cube)


@dataclass
class ComparabilityReport:
    p: float
    characteristic: float
    kappa: float
    lower: float
    upper: float
    bound: float
    ok: bool
    per_cube: list


def verify_reducing_comparability(W, p):
    """Check Lemma-style comparability |V_I'(W) e| vs |m_I(W^{-1/p}) e|.

    The directions are the offset net of the table's own rule
    (``_reducing_net``: phase-doubled when the leaves are complex).  Per
    cube and direction the ratio |V' e| / |m_I(W^{-1/p}) e| must sit
    in [(1 - 1e-9)/kappa, (n char)^{n/p} * kappa * (1 + 1e-9)]; kappa is the
    table's realized ellipsoid constant (1 on the exact p = 2 path, where
    the lower bound is the operator Jensen inequality).  n*char dominates
    the spectral-norm characteristic the comparability lemma is stated
    with, whatever the matrix-norm convention.
    """
    table = W.reducing_table(p, dual=True)
    char = ap_characteristic(W, p)
    Mi = W.power(-1.0 / p)
    avgs = Mi.level_averages()
    net = _reducing_net(Mi.leaves, offset=True)
    per_cube = []
    lo, hi = np.inf, 0.0
    for j in range(W.window.depth + 1):
        ve = _net_powers(table.mats[j], net, 1.0)
        me = _net_powers(avgs[j], net, 1.0)
        r = ve / np.maximum(me, 1e-300)
        per_cube.append((j, r.min(axis=1), r.max(axis=1)))
        lo = min(lo, float(r.min()))
        hi = max(hi, float(r.max()))
    bound = (W.n * char) ** (W.n / p) * table.kappa * (1 + 1e-9)
    ok = (lo * table.kappa >= 1 - 1e-9) and (hi <= bound)
    return ComparabilityReport(
        p=p, characteristic=char, kappa=table.kappa, lower=lo, upper=hi,
        bound=bound, ok=ok, per_cube=per_cube,
    )


# -- synthetic weights ------------------------------------------------------


def _axis_power_averages(edges_lo, h, x0, alpha, count):
    """Exact cell averages of |x - x0|^alpha on count cells of width h."""
    out = np.empty(count)
    a1 = alpha + 1.0
    for i in range(count):
        lo = edges_lo + i * h
        hi = lo + h
        lof, hif = float(lo - x0), float(hi - x0)
        if lof >= 0:
            out[i] = (hif**a1 - lof**a1) / (a1 * float(h))
        elif hif <= 0:
            out[i] = ((-lof) ** a1 - (-hif) ** a1) / (a1 * float(h))
        else:
            raise FieldError("power-weight singularity inside a leaf cell")
    return out


def _power_diag_entry(window, alpha, x0):
    d, L = window.d, window.depth
    if len(x0) != d:
        raise FieldError(f"need one singular point coordinate per axis, got x0 = {x0!r}")
    c0 = window.root.corner
    h = window.leaf_side
    axes = [_axis_power_averages(c0[a], h, float(x0[a]), alpha, 2**L) for a in range(d)]
    grid = axes[0]
    for a in range(1, d):
        grid = np.multiply.outer(grid, axes[a])
    return grid.reshape(-1)


def _rotation(theta):
    c, s = np.cos(theta), np.sin(theta)
    R = np.zeros(theta.shape + (2, 2))
    R[..., 0, 0] = c
    R[..., 0, 1] = -s
    R[..., 1, 0] = s
    R[..., 1, 1] = c
    return R


def _theta_values(spec, window, rng):
    kind = spec.get("kind", "constant")
    if kind == "constant":
        return np.full(window.leafcount, spec.get("value", 0.0))
    if kind == "linear":
        return spec.get("a", 1.0) * window.leaf_centers().sum(axis=1) + spec.get("b", 0.0)
    if kind == "random":
        return spec.get("amplitude", 1.0) * rng.uniform(-np.pi, np.pi, window.leafcount)
    raise FieldError(f"unknown theta spec kind {kind!r}")


def _log_spd_leaves(window, n, amplitude, rng, levels=None):
    from .transforms import HaarSpectrum, synthesize  # local to avoid cycle

    top = window.depth if levels is None else min(levels, window.depth)
    coefs = []
    for j in range(window.depth):
        shape = (window.cubes_at(j), window.nsig, n, n)
        if j >= top:
            coefs.append(np.zeros(shape))
            continue
        a = rng.standard_normal(shape)
        a = 0.5 * (a + np.swapaxes(a, -1, -2))
        coefs.append(amplitude * np.sqrt(window.volumes[j]) * 2.0 ** (-0.35 * j) * a)
    H = synthesize(HaarSpectrum(window, coefs, np.zeros((n, n)))).leaves
    H = 0.5 * (H + np.swapaxes(H, 1, 2))
    vals, vecs = np.linalg.eigh(H)
    return np.einsum("lab,lb,lcb->lac", vecs, np.exp(vals), vecs)


def _count(low):
    """Reader of an integer (not a bool) of at least ``low``: the value as an
    int, or None for anything else."""
    def read(v):
        ok = isinstance(v, numbers.Integral) and not isinstance(v, bool) and v >= low
        return int(v) if ok else None
    return read


def _finite(v):
    """``v`` as a float when it is a finite real number (not a bool); None
    for anything else."""
    ok = isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v)
    return float(v) if ok else None


def _sequence(ok):
    """Reader of a non-string sequence whose items all pass ``ok``: the
    items as a list, or None for anything else."""
    def read(v):
        if isinstance(v, (str, bytes)):
            return None
        try:
            items = list(v)
        except TypeError:
            return None
        return items if all(ok(x) for x in items) else None
    return read


_objects = _sequence(lambda s: isinstance(s, dict))


def _leaf_stack(v):
    """``v`` as a (leaves, n, n) array of finite numbers; None for anything
    else, ragged nesting included."""
    try:
        a = np.asarray(v)
    except ValueError:
        return None
    ok = a.ndim == 3 and a.shape[1] == a.shape[2] and a.dtype.kind in "iufc"
    return a if ok and np.all(np.isfinite(a)) else None

# weight spec key -> (its value as used, or None when the value is refused;
# what the key asks for), nested theta and lambda objects included
_SPEC = {
    **dict.fromkeys(("n", "d", "depth", "shift"), (_count(1), "a positive integer")),
    **dict.fromkeys(("seed", "levels"), (_count(0), "a nonnegative integer")),
    **dict.fromkeys(("amplitude", "alpha", "value", "a", "b", "sigma"), (_finite, "a finite number")),
    **dict.fromkeys(("alphas", "x0"), (
        _sequence(lambda x: _finite(x) is not None), "a sequence of finite numbers")),
    "kind": (lambda v: v if isinstance(v, str) else None, "a string"),
    "values": (_leaf_stack, "a (leaves, n, n) array of finite numbers"),
    "weight": (lambda v: v if isinstance(v, bool) else None, "true or false"),
    "theta": (lambda v: _read_spec(v) if isinstance(v, dict) else None, "a JSON object"),
    "lambda": (lambda v: [_read_spec(x) for x in s] if (s := _objects(v)) and len(s) == 2
               else None, "a sequence of two JSON objects"),
}


def _read_spec(spec):
    """The weight spec ``spec`` with each key of ``_SPEC`` that it gives read
    through its check, before anything is built.  FieldError, naming the
    key, for a given value of the wrong type or range."""
    given = {}
    for key, (read, what) in _SPEC.items():
        if key in spec:
            given[key] = read(spec[key])
            if given[key] is None:
                raise FieldError(f"weight spec key {key!r} must be {what}, got {spec[key]!r}")
    return {**spec, **given}


def generate_weight(spec, window=None):
    """Build a weight field from a JSON-style spec dict.

    Kinds: ``identity``, ``scalar_power`` (per-axis power law per diagonal
    entry, singular point on a leaf boundary, exact cell averages),
    ``rotation`` (n = 2 conjugated diagonal), ``log_spd`` (random bounded
    log-eigenvalue oscillation), ``leaves`` (explicit per-leaf list).
    """
    spec = _read_spec(spec)
    if window is None:
        window = Window.unit(spec.get("d", 1), spec.get("depth", 8), shift=spec.get("shift"))
    kind = spec.get("kind")
    n = spec.get("n", 1)
    rng = np.random.default_rng(spec.get("seed", 0))
    if kind == "identity":
        return MatrixField.identity(window, n)
    if kind == "scalar_power":
        alphas = spec.get("alphas", [spec.get("alpha", 0.5)] * n)
        if len(alphas) != n:
            raise FieldError("need one exponent per diagonal entry")
        x0 = spec.get("x0", [0.0] * window.d)
        leaves = np.zeros((window.leafcount, n, n))
        for i, alpha in enumerate(alphas):
            leaves[:, i, i] = _power_diag_entry(window, float(alpha), x0)
        return MatrixField(window, leaves, weight=True)
    if kind == "rotation":
        if n != 2:
            raise FieldError("rotation-conjugated weights are n = 2 only")
        theta = _theta_values(spec.get("theta", {}), window, rng)
        lam_specs = spec.get("lambda", [{"kind": "constant", "value": 1.0}] * 2)
        diag = np.zeros((window.leafcount, 2))
        for i, sub in enumerate(lam_specs):
            skind = sub.get("kind", "constant")
            if skind == "constant":
                diag[:, i] = sub.get("value", 1.0)
            elif skind == "scalar_power":
                diag[:, i] = _power_diag_entry(
                    window, sub.get("alpha", 0.5), sub.get("x0", [0.0] * window.d))
            elif skind == "lognormal":
                diag[:, i] = np.exp(sub.get("sigma", 0.5) * rng.standard_normal(window.leafcount))
            else:
                raise FieldError(f"unknown lambda spec kind {skind!r}")
        R = _rotation(theta)
        leaves = np.einsum("lba,lb,lbc->lac", R, diag, R)
        return MatrixField(window, leaves, weight=True)
    if kind == "log_spd":
        leaves = _log_spd_leaves(window, n, spec.get("amplitude", 0.6), rng, spec.get("levels"))
        return MatrixField(window, leaves, weight=True)
    if kind == "leaves":
        if "values" not in spec:
            raise FieldError("weight spec of kind 'leaves' needs the key 'values'")
        return MatrixField(window, spec["values"], weight=spec.get("weight", True))
    raise FieldError(f"unknown weight spec kind {kind!r}")


# -- serialization ----------------------------------------------------------

_MAGIC = "matweight-field"
_HEADER_BYTES = 2**16  # a longer first line is no field dump's header


def dump_field(field, path):
    """Write a field dump: one JSON header line + raw little-endian complex128
    payload, whatever the leaves' dtype."""
    is_matrix = isinstance(field, MatrixField)
    win = field.window
    header = {
        "magic": _MAGIC,
        "version": 1,
        "kind": "matrix" if is_matrix else "vector",
        "n": field.n,
        "d": win.d,
        "depth": win.depth,
        "shift": win.grid.shift,
        "root_level": win.root.level,
        "root_position": list(win.root.position),
        "weight": bool(getattr(field, "is_weight", False)),
    }
    payload = np.ascontiguousarray(field.leaves, dtype=np.complex128)
    with open(path, "wb") as fh:
        fh.write((json.dumps(header, sort_keys=True) + "\n").encode())
        fh.write(payload.astype("<c16").tobytes())


# header key -> test of its value: a bool is not a count, and a window of
# more than 2^64 leaves cannot be on disk, so d and depth stop at 64 before
# the window's per-level tables are built
_HEADER = dict.fromkeys(("n", "shift", "root_level"), lambda v: type(v) is int)
_HEADER.update(dict.fromkeys(("d", "depth"), lambda v: type(v) is int and 0 < v <= 64))
_HEADER.update(kind=lambda v: v in ("matrix", "vector"), weight=lambda v: type(v) is bool,
               root_position=lambda v: type(v) is list and all(type(x) is int for x in v))


def load_field(path, window=None):
    """Read a ``dump_field`` file; leaves are float64 when no imaginary entry
    of the payload is nonzero, complex128 otherwise.  FieldError, naming the
    file, for a header that is not a field dump's JSON object, that has a
    key missing or of the wrong type, or whose payload size differs from
    the file's; the size is checked before any of the payload is read."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline(_HEADER_BYTES).decode())
        if not isinstance(header, dict) or header.get("magic") != _MAGIC:
            raise FieldError(f"{path}: not a matweight field dump")
        for key, ok in _HEADER.items():
            if not ok(header.get(key)):
                raise FieldError(
                    f"{path}: header key {key!r} is missing or bad: {header.get(key)!r}")
        n, matrix = header["n"], header["kind"] == "matrix"
        shape = (n, n) if matrix else (n,)
        need = 16 * 2 ** (header["d"] * header["depth"]) * int(np.prod(shape))
        have = os.fstat(fh.fileno()).st_size - fh.tell()
        if have != need:
            raise FieldError(f"{path}: payload has {have} bytes, the header needs {need}")
        raw = fh.read(need)
    grid = DyadicGrid(header["d"], header["shift"])
    root = DyadicCube(grid, header["root_level"], tuple(header["root_position"]))
    if window is None:
        window = Window(root, header["depth"])
    elif (root, header["depth"]) != (window.root, window.depth):
        raise FieldError(
            f"{path}: dump geometry d={grid.dimension}, depth={header['depth']}, "
            f"root {root.address} does not match the window's "
            f"d={window.d}, depth={window.depth}, root {window.root.address}"
        )
    data = np.frombuffer(raw, dtype="<c16")
    if not np.any(data.imag):
        data = data.real
    leaves = data.reshape(window.leafcount, *shape).copy()
    return MatrixField(window, leaves, header["weight"]) if matrix else VectorField(window, leaves)
