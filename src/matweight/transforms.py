"""Haar analysis/synthesis and the dyadic operator zoo.

Spectra store one coefficient per (cube strictly above leaf level,
cancellative signature); the root average is carried separately so that
analysis/synthesis is an exact bijection on leaf-resolved step fields.

Haar shifts relocate each cancellative mode (I, eps) to a prescribed
(child of I, signature); the commutator [B, Q] is decomposed into eight
named pieces whose sum reproduces the direct difference B(Qf) - Q(Bf)
exactly.  The bookkeeping conventions that make the finite-window identity
exact:

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
"""

from __future__ import annotations

import json

import numpy as np

from .dyadic import WindowError, sign_table, Signature
from .fields import (
    MatrixField, VectorField, _haar_coefs, _mat_sqrt, _OwnGrid, _real_or_complex, _rel,
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
    "dump_spectrum",
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


def _synthesize_values(window, coefs, root):
    tbl = sign_table(window.d)
    avg = np.array(root, dtype=np.result_type(root, np.float64))[None]
    for j in range(window.depth):
        contrib = np.einsum("ks...,sb->kb...", coefs[j], tbl) / np.sqrt(
            window.volumes[j]
        )
        step = avg[:, None] + contrib
        nxt = np.empty((window.cubes_at(j + 1),) + root.shape, dtype=step.dtype)
        nxt[window.children_index(j)] = step
        avg = nxt
    return avg


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


def _check_windows(*fields):
    win = fields[0].window
    for f in fields[1:]:
        if f.window is not win:
            raise WindowError("operands live on different windows")
    return win


# Operator kernels on leaf arrays ``values`` (leaves, n, ...) whose trailing
# axes are batch axes.  They check nothing: the public functions check first.


def _zero_root(values):
    return np.zeros(values.shape[1:], dtype=values.dtype)


def _leafwise(M, values):
    return np.einsum("lab,lb...->la...", M, values)


def _paraproduct(win, B, values):
    Bs = analyze(B)
    avgs = win.level_averages(values)
    coefs = [
        np.einsum("ksab,kb...->ksa...", Bs.coefs[j], avgs[j])
        for j in range(win.depth)
    ]
    return _synthesize_values(win, coefs, _zero_root(values))


def _conjugated_paraproduct(win, A, W, U, p, values):
    table = W.reducing_table(p)
    avgs = win.level_averages(_leafwise(U.power(-1.0 / p).leaves, values))
    coefs = [
        np.einsum("kab,ksbc,kc...->ksa...", table.mats[j], A.coefs[j], avgs[j])
        for j in range(win.depth)
    ]
    return _synthesize_values(win, coefs, _zero_root(values))


def _dual_paraproduct(win, B, values):
    Bs = analyze(B)
    fc, _ = _analyze_values(win, values)
    acc = _zero_root(values)[None]
    for j in range(win.depth):
        term = (
            np.einsum("ksab,ksb...->ka...", Bs.coefs[j], fc[j]) / win.volumes[j]
        )
        step = (acc + term)[:, None]
        nxt = np.empty((win.cubes_at(j + 1),) + acc.shape[1:], dtype=step.dtype)
        nxt[win.children_index(j)] = step
        acc = nxt
    return acc


def _haar_multiplier(win, A, values):
    fc, _ = _analyze_values(win, values)
    coefs = [
        np.einsum("ksab,ksb...->ksa...", A.coefs[j], fc[j])
        for j in range(win.depth)
    ]
    return _synthesize_values(win, coefs, _zero_root(values))


def _haar_shift(win, smap, fc):
    """Q_sigma after the projection that kills the last coefficient level,
    whose modes the shift has no level to send to; ``fc`` are the input's
    coefficient levels (the shift reads nothing else)."""
    coefs = [np.zeros_like(c) for c in fc]
    for j in range(win.depth - 1):
        if fc[j].size:
            np.add.at(coefs[j + 1], (smap.image_cube_index(j), smap.sig[j]), fc[j])
    return _synthesize_values(win, coefs, np.zeros(fc[0].shape[2:], dtype=fc[0].dtype))


def _shift_commutator(win, B, smap, values, fc):
    """B (Q values) - Q (B values); ``fc`` are the coefficient levels of values."""
    BQ = _leafwise(B.leaves, _haar_shift(win, smap, fc))
    Bc, _ = _analyze_values(win, _leafwise(B.leaves, values))
    return BQ - _haar_shift(win, smap, Bc)


def paraproduct(B, f):
    """pi_B f = sum_eps sum_I B_I^eps (m_I f) h_I^eps over window modes."""
    win = _check_windows(B, f)
    return VectorField(win, _paraproduct(win, B, f.leaves))


def conjugated_paraproduct(A, W, U, p, f):
    """sum V_I(W) A_I^eps m_I(U^{-1/p} f) h_I^eps (Carleson-embedding operator)."""
    win = _check_windows(W, U, f)
    if A.window is not win:
        raise WindowError("coefficient map lives on a different window")
    return VectorField(win, _conjugated_paraproduct(win, A, W, U, p, f.leaves))


def dual_paraproduct(B, f):
    """(pi_{B*})* f = sum B_I^eps f_I^eps chi_I / |I| (adjoint of pi_{B*})."""
    win = _check_windows(B, f)
    return VectorField(win, _dual_paraproduct(win, B, f.leaves))


def haar_multiplier(A, f):
    """T_A f = sum A_I^eps f_I^eps h_I^eps (kills the root average)."""
    win = _check_windows(f)
    if A.window is not win:
        raise WindowError("coefficient map lives on a different window")
    return VectorField(win, _haar_multiplier(win, A, f.leaves))


def mu_multiplier(U, Phi):
    """M_U Phi = sum Phi_I^eps (m_I U)^{1/2} h_I^eps (right multiplication)."""
    win = _check_windows(U, Phi)
    if not U.is_weight:
        raise ValueError("M_U needs a weight field")
    ps = analyze(Phi)
    sq = [_mat_sqrt(a) for a in U.level_averages()]
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
        for j in range(len(self.child)):
            pairs = self.image_cube_index(j) * self.window.nsig + self.sig[j]
            if len(np.unique(pairs)) != pairs.size:
                return False
        return True


def haar_shift(smap, f):
    """Q_sigma f: relocate every cancellative mode; the root average dies."""
    win = _check_windows(f)
    spec = analyze(f)
    require_headroom(spec, "shift input")
    leaves = _haar_shift(win, smap, spec.coefs)
    if leaves.ndim == 3:
        return MatrixField(win, leaves)
    return VectorField(win, leaves)


def shift_commutator(B, smap, f):
    """[B, Q_sigma] f = B (Q f) - Q (B f), computed as the direct difference."""
    win = _check_windows(B, f)
    require_headroom(analyze(B), "commutator symbol")
    spec = analyze(f)
    require_headroom(spec, "commutator argument")
    return VectorField(win, _shift_commutator(win, B, smap, f.leaves, spec.coefs))


def _xnor(a, b, mask):
    return ~(a ^ b) & mask


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
    """
    win = _check_windows(B, f)
    d, S, L = win.d, win.nsig, win.depth
    mask = 2**d - 1
    Bs, fs = analyze(B), analyze(f)
    require_headroom(Bs, "commutator symbol")
    require_headroom(fs, "commutator argument")
    tbl = sign_table(d)
    n = f.n

    dtype = np.result_type(B.leaves, f.leaves)
    diag_rel, diag_mult, child_mult, dbl_shift = (
        [np.zeros(c.shape, dtype) for c in fs.coefs] for _ in range(4)
    )

    for j in range(L - 1):
        K = win.cubes_at(j)
        Bc = Bs.coefs[j]
        fc = fs.coefs[j]
        cj = smap.child[j]
        dj = smap.sig[j]
        img = smap.image_cube_index(j)
        rvol = 1.0 / np.sqrt(win.volumes[j])

        # diagonal, first piece: h_I^{eps'} (Q h_I^{eps})
        sg = tbl[:, cj]  # (S_bmode, K, S_fmode)
        M = np.einsum("pks,kpab->ksab", sg, Bc)
        v = rvol * np.einsum("ksab,ksb->ksa", M, fc)
        np.add.at(diag_rel[j + 1], (img, dj), v)

        # diagonal, second piece with eps != eps': -|I|^{-1/2} Q h_I^{psi}
        for sf in range(S):
            for sb in range(S):
                if sb == sf:
                    continue
                psi = _xnor(sb, sf, mask)
                c2 = cj[:, psi]
                d2 = dj[:, psi]
                rows = np.arange(K)
                ci2 = win.children_index(j)[rows, c2]
                val = -rvol * np.einsum("kab,kb->ka", Bc[:, sb], fc[:, sf])
                np.add.at(diag_mult[j + 1], (ci2, d2), val)

        # child-level pieces need B coefficients one level down
        Bc1 = Bs.coefs[j + 1]
        rvol1 = 1.0 / np.sqrt(win.volumes[j + 1])
        for sf in range(S):
            i2 = img[:, sf]  # sigma(I, eps) cube index at level j+1
            dsig = dj[:, sf]
            fvec = fc[:, sf]
            s0 = tbl[sf, cj[:, sf]] * rvol  # value of h_I^eps on sigma(I)
            for e2 in range(S):
                bmat = Bc1[i2, e2]
                bv = np.einsum("kab,kb->ka", bmat, fvec)
                # product h_{sigma I}^{eps'} h_{sigma I}^{sigma eps}, eps' != sigma eps
                sel = e2 != dsig
                if np.any(sel):
                    psi2 = _xnor(e2, dsig[sel], mask)
                    np.add.at(
                        child_mult[j + 1],
                        (i2[sel], psi2),
                        rvol1 * bv[sel],
                    )
                # -Q(h_{sigma I}^{eps'} h_I^eps): relocate (sigma I, eps')
                if j + 1 <= L - 2:
                    c3 = smap.child[j + 1][i2, e2]
                    d3 = smap.sig[j + 1][i2, e2]
                    ci3 = win.children_index(j + 1)[i2, c3]
                    np.add.at(
                        dbl_shift[j + 2],
                        (ci3, d3),
                        -(s0[:, None] * bv),
                    )

    zero_root = np.zeros(n, dtype)
    t_diag_rel = VectorField(win, _synthesize_values(win, diag_rel, zero_root))
    t_diag_mult = VectorField(win, _synthesize_values(win, diag_mult, zero_root))
    t_child_mult = VectorField(win, _synthesize_values(win, child_mult, zero_root))
    t_dbl = VectorField(win, _synthesize_values(win, dbl_shift, zero_root))

    t_shift_dual = -haar_shift(smap, dual_paraproduct(B, f))
    t_dual_shift = dual_paraproduct(B, haar_shift(smap, f))
    q_pi_b = haar_shift(smap, paraproduct(B, f))
    t_shift_para = -q_pi_b - t_dbl
    t_para_shift = paraproduct(B, haar_shift(smap, f))

    return [
        ("diagonal_relocation", t_diag_rel),
        ("diagonal_multiplier", t_diag_mult),
        ("shift_dual_paraproduct", t_shift_dual),
        ("dual_paraproduct_shift", t_dual_shift),
        ("child_multiplier", t_child_mult),
        ("double_shift", t_dbl),
        ("shift_paraproduct", t_shift_para),
        ("paraproduct_shift", t_para_shift),
    ]


# -- square functions ---------------------------------------------------------


def dyadic_square_function(f):
    """S_D f: pointwise sqrt of sum |f_I^eps|^2 / |I| over cubes containing x."""
    win = f.window
    fs = analyze(f)
    g = np.zeros(win.leafcount)
    for j in range(win.depth):
        c = fs.coefs[j]
        axes = tuple(range(2, c.ndim))
        contrib = np.sum(np.abs(c) ** 2, axis=(1,) + axes) / win.volumes[j]
        g[win.block_leaf_index(j)] += contrib[:, None]
    return np.sqrt(g)


def weighted_square_function(W, Phi):
    """S_{W,D} Phi with the Frobenius matrix norm, evaluated per leaf."""
    win = _check_windows(W, Phi)
    if not W.is_weight:
        raise ValueError("weighted square function needs a weight field")
    ps = analyze(Phi)
    G = np.zeros((win.leafcount, W.n, W.n), dtype=ps.root.dtype)
    for j in range(win.depth):
        c = ps.coefs[j]  # (K, S, n, n)
        contrib = (
            np.einsum("ksab,kscb->kac", c, np.conj(c)) / win.volumes[j]
        )
        G[win.block_leaf_index(j)] += contrib[:, None]
    vals = np.real(np.einsum("lab,lba->l", W.leaves, G))
    return np.sqrt(np.maximum(vals, 0.0))


def triebel_lizorkin_functional(W, p, f):
    """int (sum |V_I(W) f_I^eps|^2 / |I| chi_I)^{p/2} dx, leaf exact."""
    win = _check_windows(W, f)
    table = W.reducing_table(p)
    fs = analyze(f)
    g = np.zeros(win.leafcount)
    for j in range(win.depth):
        v = np.einsum("kab,ksb->ksa", table.mats[j], fs.coefs[j])
        contrib = np.sum(np.abs(v) ** 2, axis=(1, 2)) / win.volumes[j]
        g[win.block_leaf_index(j)] += contrib[:, None]
    return float(win.leaf_volume * np.sum(g ** (p / 2.0)))


def dump_spectrum(spectrum, path):
    """JSON-lines dump: root line then one line per (cube, signature)."""
    win = spectrum.window
    with open(path, "w") as fh:
        root = np.asarray(spectrum.root)
        fh.write(
            json.dumps(
                {
                    "root": win.cube(0, 0).address,
                    "re": np.real(root).tolist(),
                    "im": np.imag(root).tolist(),
                }
            )
            + "\n"
        )
        for j in range(win.depth):
            addresses = win.addresses(j, np.arange(win.cubes_at(j)))
            for k, address in enumerate(addresses):
                for s in range(win.nsig):
                    c = spectrum.coefs[j][k, s]
                    fh.write(
                        json.dumps(
                            {
                                "cube": address,
                                "signature": format(s, f"0{win.d}b"),
                                "re": np.real(c).tolist(),
                                "im": np.imag(c).tolist(),
                            }
                        )
                        + "\n"
                    )
