"""Einsum and SVD reference implementations of the reducing-operator kernels.

These are the kernels the library used before it computed them as plain
matrix products: ``_net_powers`` and ``_ellipsoid_fit`` walk 3-D einsum
temporaries, and ``_opnorms`` takes the top singular value from a batched
SVD.  ``build`` and ``piece_reducing`` are ``ReducingTable.build`` and the
shifted-grid reducing fit (``fields._fit_reducing`` over a ``_ShiftedGrid``)
on top of them; the tests compare the library's tables, kappas and norms
against these.
"""

import numpy as np

from matweight.fields import (
    FieldError,
    NotPositiveDefiniteError,
    _cube_means,
    _is_p2,
    _mat_isqrt,
    _mat_sqrt,
    _reducing_net,
)


def _net_powers(P, net, expo):
    # |P(x) e|^expo per leaf and net direction: (leaves, dirs)
    return np.linalg.norm(np.einsum("lab,jb->lja", P, net), axis=2) ** expo


def _ellipsoid_fit(rho_pow, vr_pow, net, vnet, expo):
    """Second-moment ellipsoids V for stacks of cubes, and their kappa.

    ``rho_pow`` and ``vr_pow`` list, per stack, the per-cube means of
    |P e|^expo over the directions of ``net`` and of the offset net
    ``vnet``, shape (cubes, dirs).  V is fitted so that |V e| matches the
    L^expo average norm (mean |P e|^expo)^{1/expo} on the net; kappa is the
    largest two-sided ratio between the two on the offset net.
    """
    M0 = np.einsum("ja,jb->ab", net, np.conj(net))
    M0_isqrt = _mat_isqrt(M0[None])[0]
    mats, kappa = [], 1.0
    for rho, vr in zip(rho_pow, vr_pow, strict=True):
        S = np.einsum("kj,ja,jb->kab", rho ** (2.0 / expo), net, np.conj(net))
        V = _mat_sqrt(M0_isqrt[None] @ S @ M0_isqrt[None])
        mats.append(V)
        ve = np.linalg.norm(np.einsum("kab,jb->kja", V, vnet), axis=2)
        ratio = vr ** (1.0 / expo) / np.maximum(ve, 1e-300)
        kappa = max(kappa, float(np.max(ratio)), float(np.max(1.0 / ratio)))
    return mats, kappa


def _opnorms(stack):
    """Spectral norms of a stack of matrices (shape stack.shape[:-2])."""
    if stack.size == 0:
        return np.zeros(stack.shape[:-2])
    return np.linalg.svd(stack, compute_uv=False)[..., 0]


def build(W, p, dual=False):
    """(mats, kappa) of ``ReducingTable.build(W, p, dual)`` on the kernels
    above."""
    if not 1.0 < p < np.inf:
        raise FieldError(f"p must lie in (1, inf), got {p}")
    if not W.is_weight:
        raise NotPositiveDefiniteError("reducing operators need a weight field")
    win = W.window
    if _is_p2(p):
        src = W.inverse() if dual else W
        return [_mat_sqrt(a) for a in src.level_averages()], 1.0
    expo = p / (p - 1.0) if dual else p
    P = W.power(-1.0 / p if dual else 1.0 / p).leaves
    net, vnet = _reducing_net(P).dirs, _reducing_net(P, offset=True).dirs
    return _ellipsoid_fit(
        win.level_averages(_net_powers(P, net, expo)),
        win.level_averages(_net_powers(P, vnet, expo)),
        net, vnet, expo,
    )


def piece_reducing(W, p, pieces):
    """The reducing operators of the (idx, vols) cube stacks ``pieces``, on
    the kernels above."""
    if _is_p2(p):
        return [_mat_sqrt(_cube_means(W.leaves, *pc)) for pc in pieces]
    P = W.power(1.0 / p).leaves
    net, vnet = _reducing_net(P).dirs, _reducing_net(P, offset=True).dirs
    rho, vr = _net_powers(P, net, p), _net_powers(P, vnet, p)
    return _ellipsoid_fit(
        [_cube_means(rho, *pc) for pc in pieces],
        [_cube_means(vr, *pc) for pc in pieces],
        net, vnet, p,
    )[0]
