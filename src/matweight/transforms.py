"""Haar analysis/synthesis and the dyadic operator zoo.

Spectra store one coefficient per (cube strictly above leaf level,
cancellative signature); the root average is carried separately so that
analysis/synthesis is an exact bijection on leaf-resolved step fields.

Haar shifts relocate each cancellative mode (I, eps) to a prescribed
(child of I, signature).  ``_shift_coefs`` is the one relocation kernel:
haar_shift, shift_commutator, their dense matrices and the commutator
terms all move coefficient levels through it.  The commutator [B, Q] is
decomposed into eight named pieces whose sum reproduces the direct
difference B(Qf) - Q(Bf) exactly.  The bookkeeping conventions that make
the finite-window identity exact:

* averages m_I f include the window root average;
* the shifted-paraproduct piece runs over strictly-contained pairs with
  the sigma-child pairs removed (those live in the double-shift piece), so
  double_shift + shift_paraproduct = -Q(pi_B f) identically;
* all pieces keep their true signs; no sign is absorbed into a "plus-minus".

Shift operators demand one spare level: spectra must vanish on the last
coefficient level, else HeadroomError.

Dtypes follow the operands, as in ``fields``: real data give float64
spectra, fields and kernel outputs, and any complex operand makes the
result complex128.  ``HaarSpectrum.zeros`` is the one exception: it is a
complex128 buffer for callers to write arbitrary coefficients into.

Each of paraproduct, conjugated_paraproduct, dual_paraproduct,
haar_multiplier, haar_shift and shift_commutator is written once, as a
private kernel on leaf arrays with trailing batch axes; the public function
checks its operands and applies the kernel to one field, and
``opnorm.materialize`` applies the same kernel to the standard basis.
Each adjoint is a kernel of this module too, paired with its operator in
``opnorm._KERNELS``: the multiplier and the two paraproducts on
``_adjoint_levels`` of their coefficients, the conjugated paraproduct as
U^{-1/p} after the dual paraproduct on ``_conjugated_adjoint_levels``, and
the shift and the commutator with ``adjoint=True``, whose relocation is
``_unshift_coefs``, the transpose of ``_shift_coefs``.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .dyadic import WindowError, sign_table, Signature
from .fields import (
    MatrixField, VectorField, _haar_coefs, _need_weight, _OwnGrid,
    _real_or_complex, _rel, _same_window,
)

__all__ = [
    "HaarSpectrum",
    "HeadroomError",
    "ShiftMap",
    "analyze",
    "synthesize",
    "paraproduct",
    "conjugated_paraproduct",
    "dual_paraproduct",
    "haar_multiplier",
    "mu_multiplier",
    "haar_shift",
    "shift_commutator",
    "shift_commutator_terms",
    "dyadic_square_function",
    "weighted_square_function",
    "triebel_lizorkin_functional",
    "require_headroom",
]


class HeadroomError(ValueError):
    pass


class HaarSpectrum:
    """Haar coefficients of a step field plus the root average.

    ``coefs[j]`` has shape (cubes_j, nsig, *valdims) for j = 0..depth-1;
    ``root`` has shape valdims.  The constructor keeps the coefficient
    arrays as given and takes the root as float64 when it is real.
    """

    def __init__(self, window, coefs, root):
        self.window = window
        self.coefs = coefs
        self.root = _real_or_complex(root)
        self.valdims = self.root.shape

    @classmethod
    def zeros(cls, window, valdims):
        """An all-zero complex128 spectrum, ready to be written into."""
        coefs = [
            np.zeros((window.cubes_at(j), window.nsig) + tuple(valdims), dtype=complex)
            for j in range(window.depth)
        ]
        return cls(window, coefs, np.zeros(valdims, dtype=complex))

    @property
    def kind(self):
        return "matrix" if len(self.valdims) == 2 else "vector"

    def coef(self, cube, sig):
        """Coefficient for a cube and cancellative Signature."""
        if isinstance(sig, Signature):
            if not sig.cancellative:
                raise WindowError("only cancellative signatures carry coefficients")
            sig = sig.to_int()
        if not 0 <= sig < self.window.nsig:
            raise WindowError("signature outside the cancellative range")
        j, idx = _rel(self.window, cube)
        if j >= self.window.depth:
            raise WindowError("leaf-level cubes carry no coefficients")
        return self.coefs[j][idx, sig]

    def cancellative_mass(self):
        """Sum of squared coefficient magnitudes (Parseval mass minus root)."""
        return float(
            sum(np.sum(np.abs(c) ** 2) for c in self.coefs)
        )

    def max_abs(self):
        vals = [np.max(np.abs(c)) if c.size else 0.0 for c in self.coefs]
        return float(max(vals + [np.max(np.abs(self.root))]))


def _analyze_values(window, values):
    """(coefficients, root average) of leaf data on the window's own grid."""
    avgs = window.level_averages(values)
    return _haar_coefs(_OwnGrid(window), avgs), avgs[0][0]


def _descend(win, top, steps):
    """Leaf values of a root-to-leaf walk: ``top`` is the root's value, and
    each child at level j + 1 takes its parent's value plus ``steps[j]``,
    shaped (cubes_j, children or 1, ...)."""
    vals = np.asarray(top)[None]
    for j, step in enumerate(steps):
        vals = win.children_flat(vals[:, None] + step, j)
    return vals


def _synthesize_values(window, coefs, root):
    tbl = sign_table(window.d)
    top = np.array(root, dtype=np.result_type(root, np.float64))
    return _descend(window, top, (
        np.einsum("ks...,sb->kb...", c, tbl) / np.sqrt(vol)
        for c, vol in zip(coefs, window.volumes)
    ))


def analyze(field):
    """Haar coefficients of a vector or matrix step field (exact on leaves)."""
    coefs, root = _analyze_values(field.window, field.leaves)
    return HaarSpectrum(field.window, coefs, root)


def synthesize(spectrum):
    """Left inverse of analyze; returns a field of the spectrum's kind."""
    leaves = _synthesize_values(spectrum.window, spectrum.coefs, spectrum.root)
    if spectrum.kind == "matrix":
        return MatrixField(spectrum.window, leaves)
    return VectorField(spectrum.window, leaves)


def require_headroom(spectrum, what="spectrum"):
    """Shift operators need the last coefficient level empty."""
    win = spectrum.window
    top = spectrum.coefs[win.depth - 1]
    scale = max(1.0, spectrum.max_abs())
    if top.size and np.max(np.abs(top)) > 1e-10 * scale:
        raise HeadroomError(
            f"{what} carries coefficients at the last level; "
            "shift operators need spectrum support at levels <= depth-2"
        )


# -- paraproducts and multipliers -------------------------------------------


# Operator kernels on leaf arrays ``values`` (leaves, n, ...) whose trailing
# axes are batch axes.  They check nothing: the public functions check first.


def _zero_root(values):
    return np.zeros(values.shape[1:], dtype=values.dtype)


def _leafwise(M, values):
    return np.einsum("lab,lb...->la...", M, values)


def _adjoint_levels(levels):
    """Leafwise conjugate transposes of matrix coefficient levels."""
    return [np.conj(np.swapaxes(c, -1, -2)) for c in levels]


def _paraproduct(win, Bc, values):
    """sum B_I^eps m_I(values) h_I^eps for coefficient levels ``Bc``."""
    avgs = win.level_averages(values)
    coefs = [np.einsum("ksab,kb...->ksa...", b, a) for b, a in zip(Bc, avgs)]
    return _synthesize_values(win, coefs, _zero_root(values))


def _conjugated_paraproduct(win, A, W, U, p, values):
    table = W.reducing_table(p)
    avgs = win.level_averages(_leafwise(U.power(-1.0 / p).leaves, values))
    coefs = [
        np.einsum("kab,ksbc,kc...->ksa...", table.mats[j], A.coefs[j], avgs[j])
        for j in range(win.depth)
    ]
    return _synthesize_values(win, coefs, _zero_root(values))


def _conjugated_adjoint_levels(A, W, p):
    """``_adjoint_levels`` of V_I(W) A_I^eps: U^{-1/p} after the dual
    paraproduct on these levels is the adjoint of ``_conjugated_paraproduct``."""
    return _adjoint_levels(
        [np.einsum("kab,ksbc->ksac", V, c) for V, c in zip(W.reducing_table(p).mats, A.coefs)]
    )


def _dual_paraproduct(win, Bc, values):
    """sum B_I^eps values_I^eps chi_I / |I| for coefficient levels ``Bc``;
    on ``_adjoint_levels`` of B it is the adjoint of ``_paraproduct``, and
    the reverse."""
    fc, _ = _analyze_values(win, values)
    return _descend(win, _zero_root(values), (
        np.einsum("ksab,ksb...->ka...", b, c)[:, None] / vol
        for b, c, vol in zip(Bc, fc, win.volumes)
    ))


def _haar_multiplier(win, Ac, values):
    """sum A_I^eps values_I^eps h_I^eps for coefficient levels ``Ac``; its
    adjoint is the same kernel on ``_adjoint_levels(Ac)``."""
    fc, _ = _analyze_values(win, values)
    coefs = [np.einsum("ksab,ksb...->ksa...", a, c) for a, c in zip(Ac, fc)]
    return _synthesize_values(win, coefs, _zero_root(values))


def _shift_coefs(win, smap, fc):
    """Coefficient levels of Q_sigma g from those of g, ``fc`` (levels
    0..depth-2 at least; a last level has no level to go to and is dropped):
    each mode (I, eps) moves to sigma(I, eps), one level down.  The one
    kernel that relocates modes."""
    shape, dtype = fc[0].shape[2:], fc[0].dtype
    coefs = [np.zeros((win.cubes_at(j), win.nsig) + shape, dtype) for j in range(win.depth)]
    for j in range(win.depth - 1):
        np.add.at(coefs[j + 1], (smap.image_cube_index(j), smap.sig[j]), fc[j])
    return coefs


def _unshift_coefs(win, smap, gc):
    """The transpose of ``_shift_coefs``: each mode (I, eps) of level j
    gathers the coefficient at sigma(I, eps) from level j + 1, and the last
    level stays zero.  Modes that sigma sends to one image all read it."""
    coefs = [gc[j + 1][smap.image_cube_index(j), smap.sig[j]] for j in range(win.depth - 1)]
    return coefs + [np.zeros_like(gc[win.depth - 1])]


def _haar_shift(win, smap, fc, adjoint=False):
    """Q_sigma after the projection that kills the last coefficient level,
    whose modes the shift has no level to send to, or with ``adjoint`` its
    adjoint; ``fc`` are the input's coefficient levels (the shift reads
    nothing else)."""
    move = _unshift_coefs if adjoint else _shift_coefs
    zero_root = np.zeros(fc[0].shape[2:], dtype=fc[0].dtype)
    return _synthesize_values(win, move(win, smap, fc), zero_root)


def _shift_commutator(win, B, smap, values, fc, adjoint=False):
    """B (Q values) - Q (B values), or with ``adjoint`` its adjoint
    Q^* (B^H values) - B^H (Q^* values); ``fc`` are the coefficient levels
    of values."""
    M = np.conj(np.swapaxes(B.leaves, 1, 2)) if adjoint else B.leaves
    MQ = _leafwise(M, _haar_shift(win, smap, fc, adjoint))
    Mc, _ = _analyze_values(win, _leafwise(M, values))
    QM = _haar_shift(win, smap, Mc, adjoint)
    return QM - MQ if adjoint else MQ - QM


def paraproduct(B, f):
    """pi_B f = sum_eps sum_I B_I^eps (m_I f) h_I^eps over window modes."""
    win = _same_window(B, f)
    return VectorField(win, _paraproduct(win, analyze(B).coefs, f.leaves))


def conjugated_paraproduct(A, W, U, p, f):
    """sum V_I(W) A_I^eps m_I(U^{-1/p} f) h_I^eps (Carleson-embedding operator)."""
    win = _same_window(A, W, U, f)
    return VectorField(win, _conjugated_paraproduct(win, A, W, U, p, f.leaves))


def dual_paraproduct(B, f):
    """(pi_{B*})* f = sum B_I^eps f_I^eps chi_I / |I| (adjoint of pi_{B*})."""
    win = _same_window(B, f)
    return VectorField(win, _dual_paraproduct(win, analyze(B).coefs, f.leaves))


def haar_multiplier(A, f):
    """T_A f = sum A_I^eps f_I^eps h_I^eps (kills the root average)."""
    win = _same_window(A, f)
    return VectorField(win, _haar_multiplier(win, A.coefs, f.leaves))


def mu_multiplier(U, Phi):
    """M_U Phi = sum Phi_I^eps (m_I U)^{1/2} h_I^eps (right multiplication)."""
    win = _same_window(U, Phi)
    _need_weight(U, "M_U")
    ps = analyze(Phi)
    sq = U.reducing_table(2).mats  # (m_I U)^{1/2}, the exact p = 2 table
    coefs = [
        np.einsum("ksab,kbc->ksac", ps.coefs[j], sq[j]) for j in range(win.depth)
    ]
    root = np.zeros_like(ps.root)
    return MatrixField(win, _synthesize_values(win, coefs, root))


# -- Haar shifts and commutators ---------------------------------------------


class ShiftMap:
    """Map (cube, cancellative sig) -> (child cube, cancellative sig).

    ``child[j]`` and ``sig[j]`` have shape (cubes_j, nsig) for levels
    j = 0..depth-2 (the domain on which shifted modes stay representable).
    """

    def __init__(self, window, child, sig):
        if len(child) != window.depth - 1 or len(sig) != window.depth - 1:
            raise ValueError("shift map must cover levels 0..depth-2")
        for j, (c, s) in enumerate(zip(child, sig)):
            shape = (window.cubes_at(j), window.nsig)
            if c.shape != shape or s.shape != shape:
                raise ValueError("shift arrays have wrong shape")
            if c.min() < 0 or c.max() >= window.nchild:
                raise ValueError("child choice out of range")
            if s.min() < 0 or s.max() >= window.nsig:
                raise ValueError("signature image out of range")
        self.window = window
        self.child = [c.astype(int) for c in child]
        self.sig = [s.astype(int) for s in sig]

    @classmethod
    def random(cls, window, rng, injective=True):
        child, sig = [], []
        for j in range(window.depth - 1):
            K, S = window.cubes_at(j), window.nsig
            child.append(rng.integers(0, window.nchild, size=(K, S)))
            if injective:
                sig.append(
                    np.stack([rng.permutation(S) for _ in range(K)], axis=0)
                )
            else:
                sig.append(rng.integers(0, S, size=(K, S)))
        return cls(window, child, sig)

    def image_cube_index(self, j):
        """(cubes_j, nsig) flat indices at level j+1 of the image cubes."""
        win = self.window
        rows = np.arange(win.cubes_at(j))[:, None]
        return win.children_index(j)[rows, self.child[j]]

    def is_injective(self):
        """No two modes share an image: Q moves one unit mass per mode."""
        win = self.window
        ones = [np.ones((win.cubes_at(j), win.nsig)) for j in range(win.depth)]
        return all(np.max(c, initial=0.0) <= 1.0 for c in _shift_coefs(win, self, ones))


def haar_shift(smap, f):
    """Q_sigma f: relocate every cancellative mode; the root average dies."""
    win = _same_window(smap, f)
    spec = analyze(f)
    require_headroom(spec, "shift input")
    leaves = _haar_shift(win, smap, spec.coefs)
    if leaves.ndim == 3:
        return MatrixField(win, leaves)
    return VectorField(win, leaves)


def shift_commutator(B, smap, f):
    """[B, Q_sigma] f = B (Q f) - Q (B f), computed as the direct difference."""
    win = _same_window(B, smap, f)
    require_headroom(analyze(B), "commutator symbol")
    spec = analyze(f)
    require_headroom(spec, "commutator argument")
    return VectorField(win, _shift_commutator(win, B, smap, f.leaves, spec.coefs))


def _products(win, Bc, coefs):
    """P(B, g): the coefficient levels of the cancellative part of
    sum_{b, e} B_I^b g_I^e h_I^b h_I^e.  The pairs b != e give
    |I|^{-1/2} h_I^{xnor(b, e)}; the pairs b = e give chi_I / |I| and are
    left out."""
    S = win.nsig
    tbl = _product_table(win.d).reshape(S * S, S).T  # (psi, (b, e))
    out = []
    for b, c, vol in zip(Bc, coefs, win.volumes):
        pairs = b[:, :, None] @ c[:, None, :, :, None]  # B_I^b g_I^e: (cubes, b, e, n, 1)
        out.append(tbl @ pairs.reshape(len(c), S * S, -1) / np.sqrt(vol))
    return out


@lru_cache(maxsize=None)
def _product_table(d):
    """(S, S, S) table T with h^b h^e = |I|^{-1/2} sum_psi T[b, e, psi] h^psi
    on a cube I for b != e, and T[b, b] = 0: the mean over children of the
    product of the three sign vectors."""
    tbl = sign_table(d)
    return np.einsum("bc,ec,pc->bep", tbl, tbl, tbl) / 2**d


def shift_commutator_terms(B, smap, f):
    """The eight-term case decomposition of [B, Q_sigma] f.

    Returns an ordered list of (name, VectorField) whose sum equals
    shift_commutator(B, smap, f) exactly:

    diagonal_relocation      B_I^{eps'} f_I^eps h_I^{eps'}(sigma I) h_{sigma I}^{sigma eps}
    diagonal_multiplier      -|I|^{-1/2} B_I^{eps'} f_I^eps h at sigma(I, psi), eps' != eps
    shift_dual_paraproduct   -Q (pi_{B*})* f          (diagonal, eps' = eps)
    dual_paraproduct_shift   (pi_{B*})* Q f           (child level, eps' = sigma eps)
    child_multiplier         |sigma I|^{-1/2} B_{sigma I}^{eps'} f_I^eps h^psi, eps' != sigma eps
    double_shift             -h_I^eps(sigma I) B_{sigma I}^{eps'} f_I^eps h at sigma(sigma I, eps')
    shift_paraproduct        the strictly-triangular -Q(h h) pairs plus root bookkeeping
    paraproduct_shift        pi_B Q f

    double_shift + shift_paraproduct = -Q(pi_B f) identically.

    Kernels: Q is ``_shift_coefs`` on coefficient levels and P(B, g) is
    ``_products``, the product table contracted with whole levels, so that

    * diagonal_relocation is Q of the per-cube diagonal sum
      sum_{eps'} h_I^{eps'}(sigma I) B_I^{eps'} f_I^eps;
    * diagonal_multiplier is -Q P(B, f);
    * child_multiplier is P(B, Q f);
    * double_shift is -Q(B_J a_J), a_J = sum h_I^eps(sigma I) f_I^eps over
      the modes (I, eps) that Q moves into J.

    The other four compose the public haar_shift, paraproduct and
    dual_paraproduct.
    """
    win = _same_window(B, smap, f)
    Bs, fs = analyze(B), analyze(f)
    require_headroom(Bs, "commutator symbol")
    require_headroom(fs, "commutator argument")
    Bc, fc = Bs.coefs, fs.coefs
    tbl = sign_table(win.d)
    # hs[j][p, k, s]: h_I^p on the child of I that sigma(I, s) lies in, for
    # the k-th cube I of level j
    hs = [tbl[:, c] / np.sqrt(vol) for c, vol in zip(smap.child, win.volumes)]
    Qf = _shift_coefs(win, smap, fc)
    diag = [
        (np.einsum("pks,kpab->ksab", h, b) @ c[..., None])[..., 0]
        for h, b, c in zip(hs, Bc, fc)
    ]
    a = _shift_coefs(win, smap, [np.einsum("sks,ksa->ksa", h, c) for h, c in zip(hs, fc)])
    Ba = [np.einsum("ksab,kb->ksa", b, np.sum(aJ, axis=1)) for b, aJ in zip(Bc, a)]

    zero_root = np.zeros(f.n, np.result_type(B.leaves, f.leaves))

    def field(coefs):
        return VectorField(win, _synthesize_values(win, coefs, zero_root))

    t_dbl = -field(_shift_coefs(win, smap, Ba))
    Qf_field = field(Qf)
    return [
        ("diagonal_relocation", field(_shift_coefs(win, smap, diag))),
        ("diagonal_multiplier", -field(_shift_coefs(win, smap, _products(win, Bc, fc)))),
        ("shift_dual_paraproduct", -haar_shift(smap, dual_paraproduct(B, f))),
        ("dual_paraproduct_shift", dual_paraproduct(B, Qf_field)),
        ("child_multiplier", field(_products(win, Bc, Qf))),
        ("double_shift", t_dbl),
        ("shift_paraproduct", -haar_shift(smap, paraproduct(B, f)) - t_dbl),
        ("paraproduct_shift", paraproduct(B, Qf_field)),
    ]


# -- square functions ---------------------------------------------------------


def dyadic_square_function(f):
    """S_D f: pointwise sqrt of sum |f_I^eps|^2 / |I| over cubes containing x."""
    win = f.window
    return np.sqrt(_descend(win, 0.0, (
        np.sum(np.abs(c) ** 2, axis=tuple(range(1, c.ndim)))[:, None] / vol
        for c, vol in zip(analyze(f).coefs, win.volumes)
    )))


def weighted_square_function(W, Phi):
    """S_{W,D} Phi with the Frobenius matrix norm, evaluated per leaf."""
    win = _same_window(W, Phi)
    _need_weight(W, "the weighted square function")
    ps = analyze(Phi)
    G = _descend(win, np.zeros((W.n, W.n), dtype=ps.root.dtype), (
        np.einsum("ksab,kscb->kac", c, np.conj(c))[:, None] / vol
        for c, vol in zip(ps.coefs, win.volumes)
    ))
    vals = np.real(np.einsum("lab,lba->l", W.leaves, G))
    return np.sqrt(np.maximum(vals, 0.0))


def triebel_lizorkin_functional(W, p, f):
    """int (sum |V_I(W) f_I^eps|^2 / |I| chi_I)^{p/2} dx, leaf exact."""
    win = _same_window(W, f)
    table = W.reducing_table(p)
    g = _descend(win, 0.0, (
        np.sum(np.abs(np.einsum("kab,ksb->ksa", V, c)) ** 2, axis=(1, 2))[:, None] / vol
        for V, c, vol in zip(table.mats, analyze(f).coefs, win.volumes)
    ))
    return float(win.leaf_volume * np.sum(g ** (p / 2.0)))
