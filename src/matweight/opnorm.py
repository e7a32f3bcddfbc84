"""Dense materialization of dyadic operators and weighted operator norms.

Every operator here acts on leaf-resolved vector fields, i.e. on C^{n * 2^{dL}}.
A dense matrix is the operator's ``transforms`` kernel applied to the whole
standard basis at once, so it matches the field-level operator bit for bit.
The basis is the real identity, so the matrix is float64 unless an operand
(symbol, coefficient map or weight) is complex, and every norm below then
runs in real arithmetic.
At p = 2 the weighted norm L^2(U) -> L^2(W) is the top singular value of the
conjugated matrix A = blockdiag(W^{1/2}) T blockdiag(U^{-1/2}) (the uniform
leaf mass cancels), computed as the square root of the top eigenvalue of the
Gram matrix A^H A.  For p != 2 only certified lower bounds
exist at finite cost: indicator-type test functions swept over all cubes,
refined by gradient ascent on the Rayleigh ratio.  The test family is built
one level at a time, as the level's (leaves, cubes) indicator times a
per-leaf table of e_i, U^{-1/p} e_i and U^{1/p} e_i, and every weighted
L^p mass of the sweep and the ascent is ``fields._weighted_lp_mass``, the
helper behind ``VectorField.lp_norm``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import (
    FieldError, VectorField, _is_p2, _mat_isqrt, _mat_sqrt, _weighted_lp_mass,
)
from . import transforms as tf

__all__ = [
    "CapError",
    "OperatorMatrix",
    "materialize",
    "weighted_opnorm_p2",
    "lp_opnorm_estimate",
    "haar_multiplier_norm_relation",
    "dump_operator",
]

DENSE_CAP = 4096


class CapError(ValueError):
    pass


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
        vec = self.matrix @ f.leaves.reshape(-1)
        return VectorField(self.window, vec.reshape(-1, self.n))


# descriptor kind -> the transforms kernel, applied to values (leaves, n, N)
_KERNELS = {
    "paraproduct": lambda op, win, v: tf._paraproduct(win, op["B"], v),
    "conjugated_paraproduct": lambda op, win, v: tf._conjugated_paraproduct(
        win, op["A"], op["W"], op["U"], op["p"], v
    ),
    "dual_paraproduct": lambda op, win, v: tf._dual_paraproduct(win, op["B"], v),
    "haar_multiplier": lambda op, win, v: tf._haar_multiplier(win, op["A"], v),
    "haar_shift": lambda op, win, v: tf._haar_shift(
        win, op["sigma"], tf._analyze_values(win, v)[0]
    ),
    "commutator": lambda op, win, v: tf._shift_commutator(
        win, op["B"], op["sigma"], v, tf._analyze_values(win, v)[0]
    ),
}


def materialize(op, window, n):
    """Dense matrix of an operator descriptor (a dict with a ``kind``).

    The descriptor's kernel is applied to the whole standard basis in one
    batched pass.  Size is capped at n * leafcount <= 4096 (dense p = 2 norm
    cost); larger windows must use the matrix-free lower bounds.

    Shift and commutator descriptors are defined only on fields with shift
    headroom; their dense matrices act as the operator composed with the
    orthogonal projection that kills the last coefficient level, and carry
    that composition in the provenance tag.  On headroom inputs this is the
    operator itself.
    """
    kind = op["kind"]
    if kind not in _KERNELS:
        raise ValueError(f"unknown operator descriptor kind {kind!r}")
    N = n * window.leafcount
    if N > DENSE_CAP:
        raise CapError(f"dense materialization capped at {DENSE_CAP}, need {N}")
    provenance = kind
    if kind in ("haar_shift", "commutator"):
        provenance = kind + "*headroom_projection"
    basis = np.eye(N).reshape(window.leafcount, n, N)
    cols = _KERNELS[kind](op, window, basis).reshape(N, N)
    return OperatorMatrix(matrix=cols, window=window, n=n, provenance=provenance)


def weighted_opnorm_p2(T, W, U):
    """||T||_{L^2(U) -> L^2(W)}: top singular value after weight conjugation.

    A = blockdiag(W^{1/2}) T blockdiag(U^{-1/2}) is formed with two batched
    matmuls over leaf blocks, and the norm is sqrt(max(0, top eigenvalue of
    the Gram A^H A)); squaring perturbs sigma_max^2 by about eps sigma_max^2,
    so the result keeps machine-epsilon relative accuracy.  Real T, W and
    U keep A, its Gram and the eigensolve in float64.
    """
    L, n, N = T.window.leafcount, T.n, T.size
    Wh = _mat_sqrt(W.leaves)
    Uih = _mat_isqrt(U.leaves)
    # rows: leaf block i of T is scaled by W_i^{1/2}
    WT = np.matmul(Wh, T.matrix.reshape(L, n, N)).reshape(N, N)
    # columns, on the transpose: (M D)^T = D^T M^T with D = blockdiag(U^{-1/2})
    At = np.matmul(np.swapaxes(Uih, 1, 2), WT.T.reshape(L, n, N)).reshape(N, N)
    # At = A^T, whose Gram conj(A A^H) has the singular values of A squared
    top = np.linalg.eigvalsh(At.conj().T @ At)[-1]
    return float(np.sqrt(max(0.0, top)))


def lp_opnorm_estimate(T, W, U, p, budget=60, rng=None):
    """(lower bound, None) for ||T||_{L^p(U) -> L^p(W)}, 1 < p < inf.

    Test columns chi_J e_i, chi_J U^{-1/p} e_i and chi_J U^{1/p} e_i for every
    window cube J and component i, one level at a time until a level has more
    than 6000 columns; the best is refined by gradient ascent on
    log ||T f||_{L^p(W)} - log ||f||_{L^p(U)}.  Every L^p mass is
    ``fields._weighted_lp_mass``.  No finite certified upper bound exists
    for p != 2, so none is reported.
    """
    if not 1.0 < p < np.inf:
        raise FieldError(f"p must lie in (1, inf), got {p}")
    win, n, Tm = T.window, T.n, T.matrix
    WP = W.power(1.0 / p).leaves
    UP = U.power(1.0 / p).leaves
    UM = U.power(-1.0 / p).leaves

    def masses(F):
        """L^p(W) mass of T F and L^p(U) mass of F, F of shape (N, ...)."""
        shape = (win.leafcount, n) + F.shape[1:]
        return (
            _weighted_lp_mass(WP, (Tm @ F).reshape(shape), p, win.leaf_volume),
            _weighted_lp_mass(UP, F.reshape(shape), p, win.leaf_volume),
        )

    def ratios(F):
        (_, _, num), (_, _, den) = masses(F)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(den > 0, (num / den) ** (1.0 / p), 0.0)

    # per-leaf test vectors, (leaves, n, i, variant): e_i, U^{-1/p} e_i, U^{1/p} e_i
    table = np.stack([np.broadcast_to(np.eye(n), UM.shape), UM, UP], axis=-1)
    blocks = []
    for j in range(win.depth + 1):
        K = win.cubes_at(j)
        chi = np.zeros((win.leafcount, K))
        chi[win.block_leaf_index(j), np.arange(K)[:, None]] = 1.0
        # (leaves, n, cube, i, variant): columns in (cube, i, variant) order
        cols = chi[:, None, :, None, None] * table[:, :, None]
        blocks.append(cols.reshape(T.size, -1))
        if K * n * 3 > 6000:
            break
    F = np.concatenate(blocks, axis=1)
    r = ratios(F)
    best = float(np.max(r))
    f = F[:, int(np.argmax(r))]

    if rng is None:
        rng = np.random.default_rng(7)
    f = f + 1e-3 * rng.standard_normal(f.shape)
    for _ in range(budget):
        (gw, nw, num), (gu, nu, den) = masses(f)
        if den <= 0 or num <= 0:
            break
        # gradient of log num - log den (Wirtinger); clamp the p < 2
        # singularity at vanishing pointwise mass
        wn = (np.maximum(nw, 1e-150) ** (p - 2.0))[:, None]
        wu = (np.maximum(nu, 1e-150) ** (p - 2.0))[:, None]
        gn = np.einsum("lba,lb->la", np.conj(WP), wn * gw).reshape(-1)
        gn = np.conj(np.conj(gn) @ Tm)  # T^H gn without forming T^H
        gd = np.einsum("lba,lb->la", np.conj(UP), wu * gu).reshape(-1)
        grad = gn / num - gd / den
        step = 0.25 * np.linalg.norm(f) / max(np.linalg.norm(grad), 1e-30)
        f2 = f + step * grad
        r2 = ratios(f2[:, None])[0]
        r1 = (num / den) ** (1.0 / p)
        f = f2 if r2 > r1 else f + 0.25 * step * grad
        best = max(best, float(max(r1, r2)))
    return best, None


def haar_multiplier_norm_relation(A, W, U, p):
    """Compare sup_I ||V_I(W) A_I^eps V_I(U)^{-1}|| with the T_A operator norm.

    At p = 2 the operator norm is exact (``weighted_opnorm_p2``); otherwise
    only the lower bound is reported and ``exact`` is False.
    """
    from .bmo import _coef_norms  # bmo imports this module

    win = A.window
    tu = U.reducing_table(p)
    inv = [tu.inv(j) for j in range(win.depth)]
    norms = _coef_norms(A.coefs, W.reducing_table(p).mats, inv)
    sup = max((float(np.max(v)) for v in norms if v.size), default=0.0)
    T = materialize({"kind": "haar_multiplier", "A": A}, win, U.n)
    if _is_p2(p):
        norm = weighted_opnorm_p2(T, W, U)
        exact = True
    else:
        norm, _ = lp_opnorm_estimate(T, W, U, p)
        exact = False
    ratio = norm / sup if sup > 0 else (0.0 if norm == 0 else np.inf)
    return {
        "sup_criterion": sup,
        "operator_norm": norm,
        "exact": exact,
        "ratio": ratio,
    }


def dump_operator(T, path):
    """Binary dense dump: one JSON header line + little-endian complex payload."""
    import json

    header = {
        "magic": "matweight-operator",
        "size": T.size,
        "n": T.n,
        "provenance": T.provenance,
        "d": T.window.d,
        "depth": T.window.depth,
    }
    with open(path, "wb") as fh:
        fh.write((json.dumps(header, sort_keys=True) + "\n").encode())
        fh.write(np.ascontiguousarray(T.matrix, dtype="<c16").tobytes())
