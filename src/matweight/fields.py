"""Matrix weights and step fields on a dyadic window.

A MatrixField holds one n x n matrix per leaf cell.  Weight fields are
Hermitian with positive definite leaves (enforced); symbol fields and
operator outputs may be arbitrary.  All averages, powers and
characteristics are exact finite sums over leaves, so scalar identities
hold to rounding error.

Norm conventions.  The A_p characteristic integrand uses the normalized
Frobenius norm ||.||_F / sqrt(n): the identity weight scores exactly 1,
and at p = 2 the double-integral form of the characteristic agrees
exactly with the averaged closed form (both equal tr(m_I W m_I W^{-1})/n
per cube).  Condition-family quantities elsewhere use the spectral norm.

Reducing operators: at p = 2 the exact averages (m_I W)^{1/2} and
(m_I W^{-1})^{1/2} are used.  For p != 2 a second-moment ellipsoid over a
direction net approximates the L^p average norm; the realized two-sided
ratio kappa is verified on an offset net and recorded, never assumed.

Dtypes.  A field is float64 when the data it is built from are real and
complex128 otherwise (``np.result_type(data, float64)``), and everything
derived from it (powers, averages, reducing operators) keeps that type;
only a complex operand makes a result complex.  Dumps always store
complex128 and load back as float64 when no imaginary entry is nonzero.

Cube families.  A family gives the cubes of one grid inside the window,
level by level, with their leaf pieces, children, means, reducing
operators and witness cubes.  ``_OwnGrid`` is the window's own grid: each
cube is a block of whole leaves, read off cached level data.
``_ShiftedGrid`` holds the cubes of D^t inside the window box: every cube
of a level meets the same pattern of leaf pieces, with exact volumes.  The
A_p characteristic, the reducing fit, the Haar coefficients and the
condition family of ``bmo`` all run over families, so every shifted grid
has one evaluation path.
"""

from __future__ import annotations

import json
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
    grid_children_index,
    sign_table,
)

__all__ = [
    "FieldError",
    "NotPositiveDefiniteError",
    "MatrixField",
    "VectorField",
    "average",
    "pointwise_power",
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


def _as_herm(mats, tol, what="matrix"):
    err = np.max(np.abs(mats - np.conj(np.swapaxes(mats, -1, -2))))
    scale = max(1.0, float(np.max(np.abs(mats))))
    if err > tol * scale:
        raise FieldError(f"{what} not Hermitian: asymmetry {err:.3e}")
    return 0.5 * (mats + np.conj(np.swapaxes(mats, -1, -2)))


class MatrixField:
    """Piecewise-constant n x n matrix field on a window.

    Weight fields are Hermitian with positive definite leaves (checked);
    general symbol fields and operator outputs may be arbitrary matrices.
    Leaves are float64 for real data and complex128 otherwise.  Spectral
    operations (powers, inverses) demand Hermitian input.
    """

    def __init__(self, window, leaves, weight=False):
        leaves = _real_or_complex(leaves)
        if leaves.shape[0] != window.leafcount or leaves.ndim != 3:
            raise FieldError("leaves must have shape (leafcount, n, n)")
        if leaves.shape[1] != leaves.shape[2]:
            raise FieldError("leaf matrices must be square")
        if weight:
            leaves = _as_herm(leaves, HERMITIAN_TOL, "weight leaf")
        else:
            leaves = leaves.copy()
        self.window = window
        self.n = leaves.shape[1]
        self.leaves = leaves
        self.leaves.setflags(write=False)
        self.is_weight = bool(weight)
        if weight:
            mineig = np.min(np.linalg.eigvalsh(leaves))
            if mineig <= 0:
                raise NotPositiveDefiniteError(
                    f"weight field has non-positive leaf (min eig {mineig:.3e})"
                )
        self._avg_cache = None
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

    def level_averages(self):
        if self._avg_cache is None:
            self._avg_cache = self.window.level_averages(self.leaves)
        return self._avg_cache

    def average(self, cube):
        """Arithmetic mean of leaf matrices over a cube of this window."""
        j, idx = _rel(self.window, cube)
        return self.level_averages()[j][idx]

    def power(self, s):
        """Pointwise spectral power W^s as a new field (cached)."""
        key = float(s)
        if key not in self._power_cache:
            herm = _as_herm(self.leaves, HERMITIAN_TOL, "power input")
            vals, vecs = np.linalg.eigh(herm)
            if np.min(vals) < EIG_FLOOR and not float(s).is_integer():
                raise NotPositiveDefiniteError(
                    f"eigenvalue below floor {EIG_FLOOR:g} in pointwise power"
                )
            if np.min(vals) <= 0 and float(s) < 0:
                raise NotPositiveDefiniteError("negative power of singular leaf")
            pw = np.einsum(
                "lab,lb,lcb->lac", vecs, np.power(vals, key), np.conj(vecs)
            )
            self._power_cache[key] = MatrixField(
                self.window, pw, weight=self.is_weight
            )
        return self._power_cache[key]

    def inverse(self):
        return self.power(-1.0)

    def conj_transpose(self):
        """Pointwise Hermitian adjoint (trivial for Hermitian fields)."""
        return MatrixField(
            self.window, np.conj(np.swapaxes(self.leaves, 1, 2)),
            weight=self.is_weight,
        )

    def apply(self, vec_field):
        """Pointwise matrix-vector product, leaf by leaf."""
        if vec_field.window is not self.window:
            raise WindowError("fields live on different windows")
        return VectorField(
            self.window, np.einsum("lab,lb->la", self.leaves, vec_field.leaves)
        )

    def reducing_table(self, p, dual=False):
        key = (float(p), bool(dual))
        if key not in self._reducing_cache:
            self._reducing_cache[key] = ReducingTable.build(self, p, dual=dual)
        return self._reducing_cache[key]

    def __repr__(self):
        tag = "weight" if self.is_weight else "field"
        return f"MatrixField(n={self.n}, {tag}, {self.window!r})"


class VectorField:
    """Piecewise-constant C^n-valued function on a window (float64 leaves
    for real data)."""

    def __init__(self, window, leaves):
        leaves = _real_or_complex(leaves)
        if leaves.shape[0] != window.leafcount or leaves.ndim != 2:
            raise FieldError("leaves must have shape (leafcount, n)")
        if not np.all(np.isfinite(leaves)):
            raise FieldError("vector field has non-finite entries")
        self.window = window
        self.n = leaves.shape[1]
        self.leaves = leaves
        self._avg_cache = None

    @classmethod
    def constant(cls, window, vec):
        vec = _real_or_complex(vec)
        return cls(window, np.broadcast_to(vec, (window.leafcount, vec.shape[0])).copy())

    def level_averages(self):
        if self._avg_cache is None:
            self._avg_cache = self.window.level_averages(self.leaves)
        return self._avg_cache

    def average(self, cube):
        j, idx = _rel(self.window, cube)
        return self.level_averages()[j][idx]

    def lp_norm(self, p, weight=None):
        """||f||_{L^p(W)} with exact leaf quadrature (weight optional)."""
        if not 1.0 < p < np.inf:
            raise FieldError(f"p must lie in (1, inf), got {p}")
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


def average(field, cube):
    """m_I of a matrix or vector field over a window cube."""
    return field.average(cube)


def pointwise_power(field, s):
    return field.power(s)


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
        self.children = [window.children_index(j) for j in range(self.top)]

    def leaf_index(self, i):
        return self.window.block_leaf_index(i)

    def piece_mean(self, i, vals):
        return vals.mean(axis=1)  # every piece is one whole leaf

    def mean(self, F, i):
        return F.level_averages()[i]

    def level_means(self, values, stop):
        return self.window.level_averages(values)[:stop]

    def reducing(self, F, p):
        return F.reducing_table(p).mats[: self.top]

    def reducing_inv(self, F, p):
        table = F.reducing_table(p)
        return [table.inv(j) for j in range(self.top)]

    def gram_levels(self, W, p):
        # Under the tree order a block of `rows` leaves is one level-j0 cube.
        # For j <= j0 its rows lie in one level-j cube, whose columns are one
        # contiguous range; for j > j0 the level-j cubes lie inside the block,
        # so their columns are in the block's diagonal rows x rows sub-block.
        win = self.window
        pp = p / (p - 1.0)
        d, L, total, top = win.d, win.depth, win.leafcount, self.top
        order = win.tree_order()
        P = W.power(2.0 / p).leaves[order]
        N = W.power(-2.0 / p).leaves[order]
        j0 = next(
            (j for j in range(L + 1) if 2 ** (d * (L - j)) * total <= _ROW_BUDGET), L
        )
        rows = 2 ** (d * (L - j0))
        cells = [2 ** (d * (L - j)) for j in range(top + 1)]
        sums = [np.zeros(win.cubes_at(j)) for j in range(top + 1)]
        for lo in range(0, total, rows):
            H = _gram_power(P[lo : lo + rows], N, pp / 2.0)
            seg = H.reshape(rows, total // rows, rows).sum(axis=2)
            diag = np.ascontiguousarray(H[:, lo : lo + rows])
            for j in range(top + 1):
                c = cells[j]
                if j <= j0:
                    k = lo // c
                    per = c // rows
                    means = seg[:, k * per : (k + 1) * per].sum(axis=1) / c
                    sums[j][k] += np.sum(means ** (p / pp))
                else:
                    m = rows // c
                    means = np.einsum("iaib->ia", diag.reshape(m, c, m, c)) / c
                    sums[j][lo // c : lo // c + m] += (means ** (p / pp)).sum(axis=1)
        per_level = []
        for j in range(top + 1):
            vals = np.empty(win.cubes_at(j))
            vals[win.ancestor_index(L, j)[order[:: cells[j]]]] = sums[j] / cells[j]
            per_level.append(vals)
        return per_level

    def cube(self, i, k):
        return self.window.cube(i, k)


class _ShiftedGrid:
    """The cubes of D^t inside the window box, from the coarsest level that
    has one down to the leaf level (or ``max_level``).  Every cube of a
    level meets the same pattern of leaf pieces, so a level is one
    (cubes, pieces) stack with exact piece volumes."""

    def __init__(self, window, t, max_level=None):
        self.window = window
        self.grid = DyadicGrid(window.d, t)
        self.levels = [
            (k, pos) for k, pos in enumerate_grid_cubes(window, t, max_level) if len(pos)
        ]
        self.pieces = [cube_pieces(window, t, k) for k, _ in self.levels]
        self.top = len(self.levels) - 1
        self.volumes = [float(self.grid.cube(k, pos[0]).volume) for k, pos in self.levels]
        self.children = [
            grid_children_index(self.grid, k, pos, below)
            for (k, pos), (_, below) in zip(self.levels, self.levels[1:])
        ]

    def leaf_index(self, i):
        return self.pieces[i][0]

    def piece_mean(self, i, vals):
        return vals @ self.pieces[i][1] / self.volumes[i]

    def mean(self, F, i):
        return _cube_means(F.leaves, *self.pieces[i])

    def level_means(self, values, stop):
        return [_cube_means(values, *pc) for pc in self.pieces[:stop]]

    def reducing(self, F, p):
        return _fit_reducing(self, F, p, stop=self.top)[0]

    def reducing_inv(self, F, p):
        return [np.linalg.inv(V) for V in self.reducing(F, p)]

    def gram_levels(self, W, p):
        # Per level, the Gram of every cube's pieces as (cubes, rows, pieces)
        # blocks of at most _ROW_BUDGET entries: whole cubes when one fits,
        # row blocks of a single cube otherwise.
        pp = p / (p - 1.0)
        P, N = W.power(2.0 / p).leaves, W.power(-2.0 / p).leaves
        per_level = []
        for idx, vols in self.pieces:
            pieces = idx.shape[1]
            w = vols / vols.sum()
            rows = min(pieces, max(1, _ROW_BUDGET // pieces))
            step = max(1, _ROW_BUDGET // (rows * pieces))
            vals = np.zeros(len(idx))
            for c in range(0, len(idx), step):
                cols = N[idx[c : c + step]]
                for lo in range(0, pieces, rows):
                    H = _gram_power(P[idx[c : c + step, lo : lo + rows]], cols, pp / 2.0)
                    vals[c : c + step] += ((H @ w) ** (p / pp)) @ w[lo : lo + rows]
            per_level.append(vals)
        return per_level

    def cube(self, i, c):
        k, pos = self.levels[i]
        return self.grid.cube(k, pos[c])


def _cube_means(values, idx, vols):
    """Volume-weighted means of leaf data over the pieces of a stack of
    cubes: ``idx`` (cubes, pieces) leaf indices, ``vols`` (pieces,)."""
    return np.tensordot(values[idx], vols, axes=(1, 0)) / vols.sum()


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
        (np.sqrt(vol) / 2**d) * np.einsum("sb,kb...->ks...", tbl, means[i + 1][ch])
        for i, (vol, ch) in enumerate(zip(fam.volumes, fam.children))
    ]


# -- A_p characteristic ---------------------------------------------------

# Entries of one Gram block (32 MB of float64).
_ROW_BUDGET = 2**22


def _pair_gram(P, N):
    # G[..., x, t] = tr(P_x N_t) / n: the squared *normalized* Frobenius
    # norm of P_x^{1/2} N_t^{1/2}, so that the identity weight scores 1.
    # For Hermitian N_t the trace is the real part of <P_x, N_t>_F, one
    # real product over the stacked real and imaginary entries; leading
    # axes of P and N are batch axes.
    n = P.shape[-1]
    VP = P.reshape(P.shape[:-2] + (n * n,))
    VN = N.reshape(N.shape[:-2] + (n * n,))
    A = np.concatenate([VP.real, VP.imag], axis=-1) / n
    B = np.concatenate([VN.real, VN.imag], axis=-1)
    return A @ np.swapaxes(B, -1, -2)


def _gram_power(P, N, expo):
    """max(Gram, 0)^expo of rows P against columns N, in place."""
    H = _pair_gram(P, N)
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
        Wi = W.inverse()
        return [_trace_form(fam.mean(W, i), fam.mean(Wi, i)) for i in range(fam.top + 1)]
    return fam.gram_levels(W, p)


def ap_characteristic_report(W, p, grids=None, max_level=None):
    """Window A_p characteristic with witness cube.

    The supremum runs over all cubes of the window's own grid and, when
    ``grids`` lists further shift indices, over cubes of those grids
    contained in the window box, down to absolute level ``max_level``.

    Method.  At p = 2 the double average factorizes: a cube scores
    tr(m_I W m_I W^{-1}) / n, read off the family's means (on a shifted
    grid, means weighted by the exact piece volumes), so no Gram is formed.
    At p != 2 the leaf Gram tr(W_x^{2/p} W_t^{-2/p}) / n is formed in
    blocks of at most 2^22 entries: O(N^2) time in about 32 MB of working
    memory beyond the O(N n^2) power leaves.  On the own grid the rows are
    taken in tree order, so each block is one cube and every cube's columns
    are one contiguous range; a shifted grid forms the Gram of each cube's
    own pieces, a level's cubes batched together.
    """
    if not 1.0 < p < np.inf:
        raise FieldError(f"p must lie in (1, inf), got {p}")
    if not W.is_weight:
        raise NotPositiveDefiniteError("A_p characteristic needs a weight field")
    win = W.window
    if max_level is not None and max_level < win.root.level:
        raise WindowError("max_level above the window root")
    fams = [_OwnGrid(win, max_level)] + [
        _ShiftedGrid(win, t, max_level) for t in grids or () if t != win.grid.shift
    ]
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


def _reducing_net(P, offset=False):
    """Direction net for the p != 2 reducing operators of power leaves P.

    Leaves with no nonzero imaginary entry use the real net; complex leaves
    add a copy with the trailing coordinates rotated by i.
    """
    base = direction_net(P.shape[1], offset)
    if P.shape[1] == 1 or not np.any(P.imag):
        return base
    phased = base.astype(complex)
    phased[:, 1:] *= 1j
    return np.concatenate([base, phased], axis=0)


def _net_powers(P, net, expo):
    """|P(x) e|^expo per leaf and net direction: (leaves, dirs).

    All the products P(x) e are one matmul of the stacked leaf rows
    (leaves * n, n) against the net, in float64 when both are real; the
    squared moduli are summed over the n rows of each product.
    """
    L, n = P.shape[:2]
    Pe = (P.reshape(L * n, n) @ net.T).reshape(L, n, len(net))
    sq = np.einsum("laj,laj->lj", Pe.real, Pe.real)
    if np.iscomplexobj(Pe):
        sq += np.einsum("laj,laj->lj", Pe.imag, Pe.imag)
    return sq ** (expo / 2.0)


def _ellipsoid_fit(rho_pow, vr_pow, net, vnet, expo):
    """Second-moment ellipsoids V for stacks of cubes, and their kappa.

    ``rho_pow`` and ``vr_pow`` list, per stack, the per-cube means of
    |P e|^expo over the directions of ``net`` and of the offset net
    ``vnet``, shape (cubes, dirs).  V is fitted so that |V e| matches the
    L^expo average norm (mean |P e|^expo)^{1/expo} on the net; kappa is the
    largest two-sided ratio between the two on the offset net, found as the
    square root of the largest two-sided ratio of their squares.

    The moment S = sum_e rho(e)^{2/expo} e e^H of every cube of a stack is
    one matmul against the (dirs, n^2) table of outer products, taken over
    its real view when the net is complex.
    """
    n = net.shape[1]
    outer = (net[:, :, None] * np.conj(net)[:, None, :]).reshape(len(net), n * n)
    table = outer.view(np.float64)  # a complex entry becomes two real columns
    M0_isqrt = _mat_isqrt(outer.sum(axis=0).reshape(1, n, n))
    mats, kappa2 = [], 1.0
    for rho, vr in zip(rho_pow, vr_pow, strict=True):
        S = (rho ** (2.0 / expo) @ table).view(outer.dtype).reshape(-1, n, n)
        V = _mat_sqrt(M0_isqrt @ S @ M0_isqrt)
        mats.append(V)
        ratio2 = vr ** (2.0 / expo) / np.maximum(_net_powers(V, vnet, 2.0), 1e-300)
        kappa2 = max(kappa2, float(np.max(ratio2)), float(1.0 / np.min(ratio2)))
    return mats, float(np.sqrt(kappa2))


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
        if not 1.0 < p < np.inf:
            raise FieldError(f"p must lie in (1, inf), got {p}")
        if not W.is_weight:
            raise NotPositiveDefiniteError("reducing operators need a weight field")
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
    ``weighted_opnorm_p2``); a float64 stack runs in float64 throughout.
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
    the second-moment ellipsoids of W^{+-1/p} fitted to the family's level
    means of |W^{+-1/p} e|^expo over the direction net.
    """
    stop = fam.top + 1 if stop is None else stop
    if _is_p2(p):
        src = W.inverse() if dual else W
        return [_mat_sqrt(fam.mean(src, i)) for i in range(stop)], 1.0
    expo = p / (p - 1.0) if dual else p
    P = W.power(-1.0 / p if dual else 1.0 / p).leaves
    net, vnet = _reducing_net(P), _reducing_net(P, offset=True)
    return _ellipsoid_fit(
        fam.level_means(_net_powers(P, net, expo), stop),
        fam.level_means(_net_powers(P, vnet, expo), stop),
        net, vnet, expo,
    )


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


def verify_reducing_comparability(W, p, cubes=None):
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
    win = W.window
    table = W.reducing_table(p, dual=True)
    char = ap_characteristic(W, p)
    Mi = W.power(-1.0 / p)
    avgs = Mi.level_averages()
    net = _reducing_net(Mi.leaves, offset=True)
    per_cube = []
    lo, hi = np.inf, 0.0
    if cubes is None:
        pairs = [(j, None) for j in range(win.depth + 1)]
    else:
        pairs = [_rel(win, c) for c in cubes]
    for j, idx in pairs:
        Vm = table.mats[j] if idx is None else table.mats[j][idx : idx + 1]
        Am = avgs[j] if idx is None else avgs[j][idx : idx + 1]
        ve = _net_powers(Vm, net, 1.0)
        me = _net_powers(Am, net, 1.0)
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
        lof, hif, x0f = float(lo - x0), float(hi - x0), 0.0
        if lof >= 0:
            out[i] = (hif**a1 - lof**a1) / (a1 * float(h))
        elif hif <= 0:
            out[i] = ((-lof) ** a1 - (-hif) ** a1) / (a1 * float(h))
        else:
            raise FieldError("power-weight singularity inside a leaf cell")
    return out


def _power_diag_entry(window, alpha, x0):
    d, L = window.d, window.depth
    c0 = window.root.corner
    h = window.leaf_side
    axes = []
    for a in range(d):
        axes.append(
            _axis_power_averages(c0[a], h, float(x0[a]), alpha, 2**L)
        )
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
        return np.full(window.leafcount, float(spec.get("value", 0.0)))
    if kind == "linear":
        centers = window.leaf_centers()
        return float(spec.get("a", 1.0)) * centers.sum(axis=1) + float(
            spec.get("b", 0.0)
        )
    if kind == "random":
        amp = float(spec.get("amplitude", 1.0))
        return amp * rng.uniform(-np.pi, np.pi, window.leafcount)
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


def generate_weight(spec, window=None):
    """Build a weight field from a JSON-style spec dict.

    Kinds: ``identity``, ``scalar_power`` (per-axis power law per diagonal
    entry, singular point on a leaf boundary, exact cell averages),
    ``rotation`` (n = 2 conjugated diagonal), ``log_spd`` (random bounded
    log-eigenvalue oscillation), ``leaves`` (explicit per-leaf list).
    """
    if window is None:
        d = int(spec.get("d", 1))
        depth = int(spec.get("depth", 8))
        shift = spec.get("shift")
        window = Window.unit(d, depth, shift=shift)
    kind = spec.get("kind")
    n = int(spec.get("n", 1))
    rng = np.random.default_rng(spec.get("seed", 0))
    if kind == "identity":
        return MatrixField.identity(window, n)
    if kind == "scalar_power":
        alphas = spec.get("alphas")
        if alphas is None:
            alphas = [float(spec.get("alpha", 0.5))] * n
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
                diag[:, i] = float(sub.get("value", 1.0))
            elif skind == "scalar_power":
                diag[:, i] = _power_diag_entry(
                    window, float(sub.get("alpha", 0.5)),
                    sub.get("x0", [0.0] * window.d),
                )
            elif skind == "lognormal":
                diag[:, i] = np.exp(
                    float(sub.get("sigma", 0.5))
                    * rng.standard_normal(window.leafcount)
                )
            else:
                raise FieldError(f"unknown lambda spec kind {skind!r}")
        R = _rotation(theta)
        leaves = np.einsum("lba,lb,lbc->lac", R, diag, R)
        return MatrixField(window, leaves, weight=True)
    if kind == "log_spd":
        amp = float(spec.get("amplitude", 0.6))
        leaves = _log_spd_leaves(window, n, amp, rng, spec.get("levels"))
        return MatrixField(window, leaves, weight=True)
    if kind == "leaves":
        return MatrixField(window, spec["values"], weight=bool(spec.get("weight", True)))
    raise FieldError(f"unknown weight spec kind {kind!r}")


# -- serialization ----------------------------------------------------------

_MAGIC = "matweight-field"


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


def load_field(path, window=None):
    """Read a ``dump_field`` file; leaves are float64 when no imaginary entry
    of the payload is nonzero, complex128 otherwise."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline().decode())
        if header.get("magic") != _MAGIC:
            raise FieldError("not a matweight field dump")
        raw = fh.read()
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
    n = header["n"]
    width = n * n if header["kind"] == "matrix" else n
    need = 16 * 2 ** (header["d"] * header["depth"]) * width
    if len(raw) != need:
        raise FieldError(
            f"{path}: payload has {len(raw)} bytes, the header needs {need}"
        )
    data = np.frombuffer(raw, dtype="<c16")
    if not np.any(data.imag):
        data = data.real
    if header["kind"] == "matrix":
        leaves = data.reshape(window.leafcount, n, n).copy()
        return MatrixField(window, leaves, weight=header["weight"])
    leaves = data.reshape(window.leafcount, n).copy()
    return VectorField(window, leaves)
