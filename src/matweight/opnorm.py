"""Weighted operator norms of dyadic operators, matrix-free and dense.

Every operator here acts on leaf-resolved vector fields, i.e. on C^{n * 2^{dL}}.
An operator is a descriptor (a dict with a ``kind``) or a dense
``OperatorMatrix``, and ``_operator_form`` is the one place that tells them
apart: it checks the window and the kind, then prepares the pair (T, T^H)
once per operator, ``_KERNELS[kind]`` for a descriptor and ``_dense_pair``
for a matrix.  ``weighted_norm_p2`` (also named ``weighted_opnorm_p2``) is
the p = 2 norm L^2(U) -> L^2(W) of either form: one Lanczos
(``_lanczos_top``) on the Gram map U^{-1/2} T^H W T U^{-1/2}, applied as T
and T^H between leafwise factors, closing its residual bracket to 1e-10
of the top Ritz value or raising LanczosError.  A descriptor needs no
matrix, so its norm reaches windows past ``DENSE_CAP``.
A dense matrix is the operator's ``transforms`` kernel applied to the
standard basis ``_BLOCK`` columns at a time, so it matches the field-level
operator bit for bit.
The basis is the real identity, so the matrix is float64 unless an operand
(symbol, coefficient map or weight) is complex, and every norm below then
runs in real arithmetic.
For p != 2 only certified lower bounds exist at finite cost, and they
still need the dense matrix: indicator-type test functions swept over all
cubes, refined by gradient ascent on the Rayleigh ratio.  The test family
is built one level at a time, as the level's (leaves, cubes) indicator
times a per-leaf table of e_i, U^{-1/p} e_i and U^{1/p} e_i, and every
weighted L^p mass of the sweep and the ascent is
``fields._weighted_lp_mass``, the helper behind ``VectorField.lp_norm``.
``_operator_norm`` chooses between the exact p = 2 norm and this bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .fields import (
    VectorField, _check_p, _is_p2, _need_weight, _same_window, _weighted_lp_mass,
)
from . import transforms as tf

__all__ = [
    "CapError",
    "LanczosError",
    "OperatorMatrix",
    "materialize",
    "weighted_opnorm_p2",
    "weighted_norm_p2",
    "lp_opnorm_estimate",
    "haar_multiplier_norm_relation",
]

DENSE_CAP = 4096
# bytes the p != 2 lower-bound sweep of ``lp_opnorm_estimate``, and the
# Lanczos basis of ``_lanczos_top``, may take
_SWEEP_BUDGET = 2**31
# basis columns per kernel call of ``materialize``: fewer pay more per-call
# overhead, more hold larger temporaries
_BLOCK = 64


class CapError(ValueError):
    """A dense matrix larger than ``DENSE_CAP``, or working memory past
    ``_SWEEP_BUDGET``, was asked for."""


@dataclass
class OperatorMatrix:
    """Dense matrix of a dyadic operator on vectorized leaf fields."""

    matrix: np.ndarray
    window: object
    n: int
    provenance: str

    @property
    def size(self):
        return self.matrix.shape[0]

    def apply_field(self, f):
        forward, _ = _dense_pair(self.matrix)
        return VectorField(self.window, forward(f.leaves))


def _levels_pair(kernel, adjoint, win, levels):
    """(``kernel`` on coefficient levels, ``adjoint`` on their ``_adjoint_levels``)."""
    return partial(kernel, win, levels), partial(adjoint, win, tf._adjoint_levels(levels))


def _conjugated_pair(op, win):
    """The conjugated paraproduct and its adjoint: U^{-1/p} after the dual
    paraproduct on ``_conjugated_adjoint_levels``."""
    A, W, U, p = op["A"], op["W"], op["U"], op["p"]
    VAh, Um = tf._conjugated_adjoint_levels(A, W, p), U.power(-1.0 / p).leaves
    return (partial(tf._conjugated_paraproduct, win, A, W, U, p),
            lambda v: tf._leafwise(Um, tf._dual_paraproduct(win, VAh, v)))


def _flagged_pair(kernel):
    """prepare(op, win) of a kernel(op, win, values, adjoint)."""
    return lambda op, win: tuple(partial(kernel, op, win, adjoint=a) for a in (False, True))


# descriptor kind -> prepare(op, win): the operator's transforms kernel and its
# adjoint (T, T^H) on leaf arrays (leaves, n, ...), with the work that depends
# only on the operator (the Haar analysis of a symbol, adjoint coefficient
# levels) done once for both, so a norm that applies them many times pays once
_KERNELS = {
    "paraproduct": lambda op, win: _levels_pair(
        tf._paraproduct, tf._dual_paraproduct, win, tf.analyze(op["B"]).coefs
    ),
    "conjugated_paraproduct": _conjugated_pair,
    "dual_paraproduct": lambda op, win: _levels_pair(
        tf._dual_paraproduct, tf._paraproduct, win, tf.analyze(op["B"]).coefs
    ),
    "haar_multiplier": lambda op, win: _levels_pair(
        tf._haar_multiplier, tf._haar_multiplier, win, op["A"].coefs
    ),
    "haar_shift": _flagged_pair(lambda op, win, v, adjoint: tf._haar_shift(
        win, op["sigma"], tf._analyze_values(win, v)[0], adjoint
    )),
    "commutator": _flagged_pair(lambda op, win, v, adjoint: tf._shift_commutator(
        win, op["B"], op["sigma"], v, tf._analyze_values(win, v)[0], adjoint
    )),
}


def _dense_pair(M):
    """(T, T^H) of a dense N x N matrix ``M`` on leaf arrays (leaves, n, ...)
    whose trailing axes are batch axes; T^H v is (v^H M)^H, so no conjugate
    copy of M is formed."""

    def forward(v):
        return (M @ v.reshape((len(M),) + v.shape[2:])).reshape(v.shape)

    def adjoint(v):
        return np.conj(np.conj(v.reshape((len(M),) + v.shape[2:])).T @ M).T.reshape(v.shape)

    return forward, adjoint


def _operator_form(op, *operands):
    """(window, prepare) of an operator: a descriptor or an ``OperatorMatrix``.

    The operator and ``operands`` must share one window, and a descriptor's
    kind must be known.  Nothing is prepared here, so each caller's own
    checks still run before any work.  ``prepare()`` is the pair (T, T^H) on
    leaf arrays: the descriptor's ``_KERNELS`` entry or the matrix's
    ``_dense_pair``; ``prepare(n)`` is a dense pair of either, a descriptor
    materialized at n components first.
    """
    if isinstance(op, OperatorMatrix):
        return _same_window(op, *operands), lambda n=None: _dense_pair(op.matrix)
    win = _same_window(*operands, *(v for v in op.values() if hasattr(v, "window")))
    if op["kind"] not in _KERNELS:
        raise ValueError(f"unknown operator descriptor kind {op['kind']!r}")

    def prepare(n=None):
        if n is None:
            return _KERNELS[op["kind"]](op, win)
        return _dense_pair(materialize(op, win, n).matrix)

    return win, prepare


def materialize(op, window, n):
    """Dense matrix of an operator descriptor (a dict with a ``kind``).

    The descriptor's kernel is prepared once and applied to the standard
    basis ``_BLOCK`` (64) columns at a time, each block written into one
    preallocated N x N matrix whose dtype is the first block's.  The kernel
    treats trailing axes as batch axes, so every column is computed as on
    its own; the temporaries are those of one block, and the peak stays
    near the matrix itself.  Size is capped at n * leafcount <= 4096 (the
    N x N matrix itself); larger windows must use ``weighted_norm_p2``,
    which needs no matrix.

    Shift and commutator descriptors are defined only on fields with shift
    headroom; their dense matrices act as the operator composed with the
    orthogonal projection that kills the last coefficient level, and carry
    that composition in the provenance tag.  On headroom inputs this is the
    operator itself.
    """
    _, prepare = _operator_form(op, window)
    kind = op["kind"]
    N = n * window.leafcount
    if N > DENSE_CAP:
        raise CapError(f"dense materialization capped at {DENSE_CAP}, need {N}")
    provenance = kind
    if kind in ("haar_shift", "commutator"):
        provenance = kind + "*headroom_projection"
    forward, _ = prepare()
    cols = None
    for lo in range(0, N, _BLOCK):
        width = min(_BLOCK, N - lo)
        basis = np.eye(N, width, -lo).reshape(window.leafcount, n, width)
        block = forward(basis).reshape(N, width)
        if cols is None:
            cols = np.empty((N, N), dtype=block.dtype)
        cols[:, lo : lo + width] = block
    return OperatorMatrix(matrix=cols, window=window, n=n, provenance=provenance)


def weighted_norm_p2(op, W, U):
    """||T||_{L^2(U) -> L^2(W)} of an operator descriptor or ``OperatorMatrix``.

    Lanczos on U^{-1/2} T^H W T U^{-1/2} through the operator's pair
    (T, T^H), prepared once: a descriptor's kernel and adjoint kernel, so no
    matrix is formed and windows past ``DENSE_CAP`` are in reach, or a
    matrix's dense products.  No W^{1/2}, conjugated matrix, Gram or full
    eigensolve is formed, and real operands keep every vector in float64.
    LanczosError if the residual bracket has not closed after
    n * leafcount steps.
    """
    _, prepare = _operator_form(op, W, U)
    _need_weight(W, "the weighted norm")
    _need_weight(U, "the weighted norm")
    return _gram_norm(*prepare(), W, U)


weighted_opnorm_p2 = weighted_norm_p2


def _gram_norm(forward, adjoint, W, U):
    """sqrt(theta) for the top eigenvalue theta of the Gram map
    A^H A = U^{-1/2} T^H W T U^{-1/2}, where ``forward`` applies T and
    ``adjoint`` applies T^H to leaf arrays (leaves, n); U^{-1/2} is the
    cached ``U.power(-0.5)`` and W is applied as it is.  theta comes from
    ``_lanczos_top``, once its residual bracket |beta_k y_k| <= 1e-10 theta
    closes (the uniform leaf mass cancels).  The callers check the
    weights."""
    Uih = U.power(-0.5).leaves
    shape = (U.window.leafcount, U.n)

    def gram(x):
        y = forward(tf._leafwise(Uih, x.reshape(shape)))
        y = adjoint(tf._leafwise(W.leaves, y))
        return tf._leafwise(Uih, y).reshape(-1)

    return float(np.sqrt(max(0.0, _lanczos_top(gram, shape[0] * shape[1]))))


class LanczosError(ValueError):
    """The Lanczos residual bracket did not close within the Krylov space."""


_LANCZOS_RTOL = 1e-10


def _lanczos_top(gram, N):
    """Top eigenvalue of the Hermitian positive semidefinite map ``gram`` on
    vectors of length N, by Lanczos with full reorthogonalization from a
    fixed random start (Golub and Van Loan, ch. 10).  Each step
    orthogonalizes the new vector against the whole basis twice, and stops
    when the top Ritz pair (theta, y) of the tridiagonal T_k has
    |beta_k y_k| <= _LANCZOS_RTOL |theta|.  The basis grows by doubling;
    CapError before any growth that would take it past ``_SWEEP_BUDGET``
    bytes."""
    q = np.random.default_rng(2).standard_normal(N)
    q /= np.linalg.norm(q)
    w = gram(q)
    basis = _lanczos_basis(min(N, 32), N, np.result_type(w, q))
    basis[0] = q
    alpha, beta = [], []
    for k in range(N):
        V = basis[: k + 1]
        alpha.append(float(np.real(np.vdot(V[k], w))))
        for _ in range(2):
            w = w - V.T @ (V.conj() @ w)
        beta.append(float(np.linalg.norm(w)))
        # eigh reads the lower triangle: the beta's go below the diagonal
        vals, vecs = np.linalg.eigh(np.diag(alpha) + np.diag(beta[:-1], -1))
        if beta[-1] * abs(vecs[-1, -1]) <= _LANCZOS_RTOL * abs(vals[-1]):
            return float(vals[-1])
        if k + 1 == N:
            break
        if k + 1 == len(basis):
            grown = _lanczos_basis(min(N, 2 * len(basis)), N, basis.dtype)
            grown[: len(basis)] = basis
            basis = grown
        basis[k + 1] = w / beta[-1]
        w = gram(basis[k + 1])
    raise LanczosError(f"Lanczos bracket still open after {N} steps")


def _lanczos_basis(steps, N, dtype):
    """A zero Lanczos basis of ``steps`` vectors of length N; CapError when
    its bytes would pass ``_SWEEP_BUDGET``."""
    need = steps * N * np.dtype(dtype).itemsize
    if need > _SWEEP_BUDGET:
        raise CapError(
            f"the Lanczos basis needs {need} bytes for {steps} steps of {N} entries, "
            f"over its {_SWEEP_BUDGET} byte budget")
    return np.zeros((steps, N), dtype)


def lp_opnorm_estimate(T, W, U, p, budget=60):
    """(lower bound, None) for ||T||_{L^p(U) -> L^p(W)}, 1 < p < inf.

    T is an ``OperatorMatrix`` or a descriptor, which is materialized first
    (so within ``DENSE_CAP``).  Test columns chi_J e_i, chi_J U^{-1/p} e_i
    and chi_J U^{1/p} e_i for every window cube J and component i, one
    level at a time until a level has more than 6000 columns; the best is
    refined by gradient ascent on log ||T f||_{L^p(W)} - log ||f||_{L^p(U)}.
    Every L^p mass is ``fields._weighted_lp_mass``; the sweep takes the
    L^p(U) masses of its columns from per-leaf masses summed over each cube.
    The sweep holds about five arrays of its test columns at once, each
    entry counted at 16 bytes; CapError, before any work, when that exceeds
    ``_SWEEP_BUDGET`` (2 GiB).  The second slot is None because no upper
    bound is computed yet for p != 2.
    """
    win, prepare = _operator_form(T, W, U)
    _check_p(p)
    n = U.n
    levels = 1 + next((j for j in range(win.depth) if win.cubes_at(j) * n * 3 > 6000), win.depth)
    columns = 3 * n * sum(win.cubes_at(j) for j in range(levels))
    # the sweep holds about five arrays of its test columns at once
    need = 5 * 16 * n * win.leafcount * columns
    if need > _SWEEP_BUDGET:
        raise CapError(
            f"the p != 2 lower-bound sweep needs about {need / 2**30:.1f} GiB for "
            f"{columns} test columns of {n * win.leafcount} entries, over its "
            f"{_SWEEP_BUDGET / 2**30:g} GiB budget")
    forward, adjoint = prepare(n)
    WP = W.power(1.0 / p).leaves
    UP = U.power(1.0 / p).leaves
    UM = U.power(-1.0 / p).leaves

    def masses(F):
        """L^p(W) mass of T F and L^p(U) mass of F, F a leaf array (leaves, n, ...)."""
        return (
            _weighted_lp_mass(WP, forward(F), p, win.leaf_volume),
            _weighted_lp_mass(UP, F, p, win.leaf_volume),
        )

    def ratio(num, den):
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(den > 0, (num / den) ** (1.0 / p), 0.0)

    # per-leaf test vectors, (leaves, n, i, variant): e_i, U^{-1/p} e_i, U^{1/p} e_i,
    # and their L^p(U) masses per leaf, (leaves, i * variant)
    table = np.stack([np.broadcast_to(np.eye(n), UM.shape), UM, UP], axis=-1)
    leaf_mass = _weighted_lp_mass(UP, table, p, 1.0)[1].reshape(win.leafcount, -1) ** p
    blocks, dens = [], []
    for j in range(levels):
        K = win.cubes_at(j)
        chi = np.zeros((win.leafcount, K))
        chi[win.block_view(np.arange(win.leafcount), j), np.arange(K)[:, None]] = 1.0
        # (leaves, n, cube, i, variant): columns in (cube, i, variant) order
        cols = chi[:, None, :, None, None] * table[:, :, None]
        blocks.append(cols.reshape(win.leafcount, n, -1))
        # a column's mass sums its cube's leaves in leaf order, as the sum
        # over all leaves of the column does
        dens.append(win.leaf_volume * win.block_view(leaf_mass, j).sum(axis=1).reshape(-1))
    F = np.concatenate(blocks, axis=-1)
    del blocks
    r = ratio(_weighted_lp_mass(WP, forward(F), p, win.leaf_volume)[2], np.concatenate(dens))
    best = float(np.max(r))
    f = F[..., int(np.argmax(r))]

    f = f + 1e-3 * np.random.default_rng(7).standard_normal(f.shape)
    WPc, UPc = np.conj(WP), np.conj(UP)
    m = None  # the masses of f, when an accepted trial has formed them
    for _ in range(budget):
        (gw, nw, num), (gu, nu, den) = masses(f) if m is None else m
        if den <= 0 or num <= 0:
            break
        # gradient of log num - log den (Wirtinger); clamp the p < 2
        # singularity at vanishing pointwise mass
        wn = (np.maximum(nw, 1e-150) ** (p - 2.0))[:, None]
        wu = (np.maximum(nu, 1e-150) ** (p - 2.0))[:, None]
        gn = adjoint(np.einsum("lba,lb->la", WPc, wn * gw))
        gd = np.einsum("lba,lb->la", UPc, wu * gu)
        grad = gn / num - gd / den
        step = 0.25 * np.linalg.norm(f) / max(np.linalg.norm(grad), 1e-30)
        f2 = f + step * grad
        m2 = masses(f2)
        r2 = ratio(m2[0][2], m2[1][2])
        r1 = (num / den) ** (1.0 / p)
        if r2 > r1:
            f, m = f2, m2
        else:
            f, m = f + 0.25 * step * grad, None
        best = max(best, float(max(r1, r2)))
    return best, None


def _operator_norm(op, W, U, p, budget=60):
    """(value, exact) for ||T||_{L^p(U) -> L^p(W)} of an operator in either
    form: the exact ``weighted_norm_p2`` at p = 2, else the lower bound of
    ``lp_opnorm_estimate`` with ``budget`` ascent steps."""
    if _is_p2(p):
        return weighted_norm_p2(op, W, U), True
    return lp_opnorm_estimate(op, W, U, p, budget)[0], False


def haar_multiplier_norm_relation(A, W, U, p):
    """Compare sup_I ||V_I(W) A_I^eps V_I(U)^{-1}|| with the T_A operator norm.

    The operator norm is ``_operator_norm`` of the T_A descriptor: exact at
    p = 2 (``weighted_norm_p2``, matrix-free); otherwise only the lower bound
    of ``lp_opnorm_estimate`` is reported and ``exact`` is False.
    """
    from .bmo import _coef_norms  # bmo imports this module

    win = _same_window(A, W, U)
    tu = U.reducing_table(p)
    inv = [tu.inv(j) for j in range(win.depth)]
    norms = _coef_norms(A.coefs, W.reducing_table(p).mats, inv)
    sup = max((float(np.max(v)) for v in norms if v.size), default=0.0)
    norm, exact = _operator_norm({"kind": "haar_multiplier", "A": A}, W, U, p)
    ratio = norm / sup if sup > 0 else (0.0 if norm == 0 else np.inf)
    return {"sup_criterion": sup, "operator_norm": norm, "exact": exact, "ratio": ratio}
