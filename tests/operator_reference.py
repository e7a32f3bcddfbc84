"""Frozen reference implementations of the dyadic operators.

A copy of the operators as they were written before each one became a
single leaf-array kernel in ``transforms``: one function per operator on a
single field, and ``batched_apply`` / ``materialize`` for a batch of
columns, with the Haar analysis and synthesis they ran on; and
``lp_opnorm_estimate`` as it was before its test columns were built one
level at a time, with one cube and component per step; and
``shift_commutator_terms`` as it was before its four hand-built terms
became whole-level coefficient products, with one Python loop per pair of
signatures and one scatter per term; and ``weighted_opnorm_p2`` as it was
before the dense p = 2 norm ran on the library's Lanczos: the conjugated
matrix, its Gram and a full ``eigvalsh``.  The tests compare the library
against this code bit for bit (the commutator terms, summed in another
order, at 1e-12 relative; the p = 2 norms, found by another method, at
1e-12 relative), so the two must never share an operator contraction, an
L^p mass or an eigensolver; only the field classes, window index plumbing,
reducing tables and the leafwise matrix roots come from the library.
Level averages are this module's own ``level_averages``, a gather through
``children_index``, so they check the library's reshape walk.
"""

from __future__ import annotations

import numpy as np

from matweight.dyadic import WindowError, sign_table
from matweight.fields import MatrixField, VectorField, _mat_isqrt, _mat_sqrt, _same_window
from matweight.transforms import HaarSpectrum, require_headroom


def level_averages(window, values):
    """Per-level cube means of leaf data, levels 0..depth: each level the
    mean of its children, gathered through ``children_index``."""
    avgs = [values]
    for j in range(window.depth - 1, -1, -1):
        avgs.insert(0, avgs[0][window.children_index(j)].mean(axis=1))
    return avgs


def _analyze_values(window, values):
    avgs = level_averages(window, values)
    tbl = sign_table(window.d)
    coefs = []
    for j in range(window.depth):
        ch = avgs[j + 1][window.children_index(j)]  # (cubes, 2^d, *v)
        c = (np.sqrt(window.volumes[j]) / window.nchild) * np.einsum(
            "sb,kb...->ks...", tbl, ch
        )
        coefs.append(c)
    return coefs, avgs[0][0], avgs


def _synthesize_values(window, coefs, root):
    tbl = sign_table(window.d)
    avg = np.broadcast_to(root, (1,) + root.shape).astype(complex)
    for j in range(window.depth):
        contrib = np.einsum("ks...,sb->kb...", coefs[j], tbl) / np.sqrt(
            window.volumes[j]
        )
        nxt = np.empty(
            (window.cubes_at(j + 1),) + root.shape, dtype=complex
        )
        nxt[window.children_index(j)] = avg[:, None] + contrib
        avg = nxt
    return avg


def analyze(field):
    coefs, root, _ = _analyze_values(field.window, field.leaves.astype(complex))
    return HaarSpectrum(field.window, coefs, root)


def _check_windows(*fields):
    win = fields[0].window
    for f in fields[1:]:
        if f.window is not win:
            raise WindowError("operands live on different windows")
    return win


# -- single-field operators ----------------------------------------------------


def paraproduct(B, f):
    win = _check_windows(B, f)
    spec = _paraproduct_spectrum(B, f)
    return VectorField(win, _synthesize_values(win, spec.coefs, spec.root))


def _paraproduct_spectrum(B, f):
    win = B.window
    Bs = analyze(B)
    avgs = level_averages(win, f.leaves)
    out = HaarSpectrum.zeros(win, (f.n,))
    for j in range(win.depth):
        out.coefs[j] = np.einsum("ksab,kb...->ksa...", Bs.coefs[j], avgs[j])
    return out


def conjugated_paraproduct(A, W, U, p, f):
    win = _check_windows(W, U, f)
    if A.window is not win:
        raise WindowError("coefficient map lives on a different window")
    table = W.reducing_table(p)
    g = U.power(-1.0 / p).apply(f)
    avgs = level_averages(win, g.leaves)
    out = HaarSpectrum.zeros(win, (f.n,))
    for j in range(win.depth):
        out.coefs[j] = np.einsum(
            "kab,ksbc,kc...->ksa...", table.mats[j], A.coefs[j], avgs[j]
        )
    return VectorField(win, _synthesize_values(win, out.coefs, out.root))


def dual_paraproduct(B, f):
    win = _check_windows(B, f)
    Bs = analyze(B)
    fs = analyze(f)
    acc = np.zeros((1, f.n), dtype=complex)
    for j in range(win.depth):
        term = (
            np.einsum("ksab,ksb->ka", Bs.coefs[j], fs.coefs[j]) / win.volumes[j]
        )
        nxt = np.empty((win.cubes_at(j + 1), f.n), dtype=complex)
        nxt[win.children_index(j)] = (acc + term)[:, None]
        acc = nxt
    return VectorField(win, acc)


def haar_multiplier(A, f):
    win = _check_windows(f)
    if A.window is not win:
        raise WindowError("coefficient map lives on a different window")
    fs = analyze(f)
    coefs = [
        np.einsum("ksab,ksb...->ksa...", A.coefs[j], fs.coefs[j])
        for j in range(win.depth)
    ]
    root = np.zeros_like(fs.root)
    return VectorField(win, _synthesize_values(win, coefs, root))


def _shift_spectrum(smap, spec):
    win = spec.window
    out = HaarSpectrum.zeros(spec.window, spec.valdims)
    for j in range(win.depth - 1):
        src = spec.coefs[j]
        if not src.size:
            continue
        np.add.at(out.coefs[j + 1], (smap.image_cube_index(j), smap.sig[j]), src)
    return out


def haar_shift(smap, f):
    win = _check_windows(f)
    spec = analyze(f)
    require_headroom(spec, "shift input")
    out = _shift_spectrum(smap, spec)
    leaves = _synthesize_values(win, out.coefs, np.zeros_like(spec.root))
    if spec.kind == "matrix":
        return MatrixField(win, leaves)
    return VectorField(win, leaves)


def shift_commutator(B, smap, f):
    win = _check_windows(B, f)
    Bs, fs = analyze(B), analyze(f)
    require_headroom(Bs, "commutator symbol")
    require_headroom(fs, "commutator argument")
    Qf = haar_shift(smap, f)
    Bf = B.apply(f)
    return B.apply(Qf) - haar_shift(smap, Bf)


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
    win = _check_windows(B, smap, f)
    d, S, L = win.d, win.nsig, win.depth
    mask = 2**d - 1
    Bs, fs = analyze(B), analyze(f)
    require_headroom(Bs, "commutator symbol")
    require_headroom(fs, "commutator argument")
    tbl = sign_table(d)
    n = f.n

    dtype = complex  # the reference analysis and synthesis run in complex
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


# -- batched application and dense materialization ---------------------------


def batched_apply(desc, window, n, values):
    """Apply a descriptor operator to a batch: values (leaves, n, m)."""
    kind = desc["kind"]
    m = values.shape[2]
    zero_root = np.zeros((n, m), dtype=complex)
    if kind == "paraproduct":
        Bs = analyze(desc["B"])
        avgs = level_averages(window, values)
        coefs = [
            np.einsum("ksab,kbm->ksam", Bs.coefs[j], avgs[j])
            for j in range(window.depth)
        ]
        return _synthesize_values(window, coefs, zero_root)
    if kind == "conjugated_paraproduct":
        A, W, U, p = desc["A"], desc["W"], desc["U"], desc["p"]
        table = W.reducing_table(p)
        g = np.einsum("lab,lbm->lam", U.power(-1.0 / p).leaves, values)
        avgs = level_averages(window, g)
        coefs = [
            np.einsum("kab,ksbc,kcm->ksam", table.mats[j], A.coefs[j], avgs[j])
            for j in range(window.depth)
        ]
        return _synthesize_values(window, coefs, zero_root)
    if kind == "haar_multiplier":
        A = desc["A"]
        fc, _, _ = _analyze_values(window, values)
        coefs = [
            np.einsum("ksab,ksbm->ksam", A.coefs[j], fc[j])
            for j in range(window.depth)
        ]
        return _synthesize_values(window, coefs, zero_root)
    if kind == "dual_paraproduct":
        Bs = analyze(desc["B"])
        fc, _, _ = _analyze_values(window, values)
        acc = np.zeros((1, n, m), dtype=complex)
        for j in range(window.depth):
            term = (
                np.einsum("ksab,ksbm->kam", Bs.coefs[j], fc[j])
                / window.volumes[j]
            )
            nxt = np.empty((window.cubes_at(j + 1), n, m), dtype=complex)
            nxt[window.children_index(j)] = (acc + term)[:, None]
            acc = nxt
        return acc
    if kind == "haar_shift":
        smap = desc["sigma"]
        spec = HaarSpectrum(window, *_analyze_values(window, values)[:2])
        if not desc.get("project", False):
            require_headroom(spec, "shift input")
        out = _shift_spectrum(smap, spec)
        return _synthesize_values(window, out.coefs, zero_root)
    if kind == "commutator":
        B, smap = desc["B"], desc["sigma"]
        shift = {
            "kind": "haar_shift",
            "sigma": smap,
            "project": desc.get("project", False),
        }
        Qv = batched_apply(shift, window, n, values)
        BQv = np.einsum("lab,lbm->lam", B.leaves, Qv)
        Bv = np.einsum("lab,lbm->lam", B.leaves, values)
        QBv = batched_apply(shift, window, n, Bv)
        return BQv - QBv
    raise ValueError(f"unknown operator descriptor kind {kind!r}")


def materialize(op, window, n):
    """(dense matrix, provenance) of a descriptor; shift kinds are composed
    with the projection that kills the last coefficient level."""
    N = n * window.leafcount
    provenance = op["kind"]
    if op["kind"] in ("haar_shift", "commutator"):
        op = dict(op, project=True)
        provenance = op["kind"] + "*headroom_projection"
    basis = np.eye(N, dtype=complex).reshape(window.leafcount, n, N)
    return batched_apply(op, window, n, basis).reshape(N, N), provenance


# -- the p != 2 lower bound ----------------------------------------------------


def _lp_ratio(Tm, F, WP, UP, p, leaf_volume, n):
    """L^p(W)/L^p(U) Rayleigh ratios for columns F (N, m)."""
    G = Tm @ F
    num = _lp_mass(G, WP, p, leaf_volume, n)
    den = _lp_mass(F, UP, p, leaf_volume, n)
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.where(den > 0, (num / den) ** (1.0 / p), 0.0)
    return r


def _lp_mass(F, P, p, leaf_volume, n):
    X = F.reshape(-1, n, F.shape[1])
    Y = np.einsum("lab,lbm->lam", P, X)
    mags = np.sqrt(np.sum(np.abs(Y) ** 2, axis=1))
    return leaf_volume * np.sum(mags**p, axis=0)


def lp_opnorm_estimate(T, W, U, p, budget=60, rng=None):
    """(lower bound, None) for ||T||_{L^p(U) -> L^p(W)}.

    Lower bound from indicator test functions chi_J e_i and their
    U^{+-1/p}-twisted variants over every window cube, refined by gradient
    ascent on log ||T f||_{L^p(W)} - log ||f||_{L^p(U)}.  No finite certified
    upper bound exists for p != 2, so none is reported.
    """
    win, n = T.window, T.n
    WP = W.power(1.0 / p).leaves
    UP = U.power(1.0 / p).leaves
    UM = U.power(-1.0 / p).leaves
    lv = win.leaf_volume
    Tm = T.matrix

    cols = []
    eye = np.eye(n)
    for j in range(win.depth + 1):
        idx = win.block_leaf_index(j)
        for k in range(win.cubes_at(j)):
            chi = np.zeros((win.leafcount, 1))
            chi[idx[k]] = 1.0
            for i in range(n):
                plain = chi * eye[i]
                cols.append(plain.reshape(-1))
                cols.append(
                    np.einsum("lab,lb->la", UM, plain).reshape(-1)
                )
                cols.append(
                    np.einsum("lab,lb->la", UP, plain).reshape(-1)
                )
        if win.cubes_at(j) * n * 3 > 6000:
            break
    F = np.stack(cols, axis=1).astype(complex)
    ratios = _lp_ratio(Tm, F, WP, UP, p, lv, n)
    best = float(np.max(ratios))
    f = F[:, int(np.argmax(ratios))].copy()

    if rng is None:
        rng = np.random.default_rng(7)
    f = f + 1e-3 * rng.standard_normal(f.shape)
    ThW = None
    for _ in range(budget):
        num_vec = (Tm @ f).reshape(-1, n)
        den_vec = f.reshape(-1, n)
        gw = np.einsum("lab,lb->la", WP, num_vec)
        gu = np.einsum("lab,lb->la", UP, den_vec)
        nw = np.sqrt(np.sum(np.abs(gw) ** 2, axis=1))
        nu = np.sqrt(np.sum(np.abs(gu) ** 2, axis=1))
        num = lv * np.sum(nw**p)
        den = lv * np.sum(nu**p)
        if den <= 0 or num <= 0:
            break
        # gradient of log num - log den (Wirtinger); clamp the p < 2
        # singularity at vanishing pointwise mass
        wn = (np.maximum(nw, 1e-150) ** (p - 2.0))[:, None]
        wu = (np.maximum(nu, 1e-150) ** (p - 2.0))[:, None]
        gn = np.einsum("lba,lb->la", np.conj(WP), wn * gw).reshape(-1)
        gn = np.conj(Tm.T) @ gn
        gd = np.einsum("lba,lb->la", np.conj(UP), wu * gu).reshape(-1)
        grad = gn / num - gd / den
        step = 0.25 * np.linalg.norm(f) / max(np.linalg.norm(grad), 1e-30)
        f2 = f + step * grad
        r2 = _lp_ratio(Tm, f2[:, None], WP, UP, p, lv, n)[0]
        r1 = (num / den) ** (1.0 / p)
        if r2 > r1:
            f = f2
        else:
            f = f + 0.25 * step * grad
        best = max(best, float(max(r1, r2)))
    return best, None


# -- the dense p = 2 norm ------------------------------------------------------


def weighted_opnorm_p2(T, W, U):
    """||T||_{L^2(U) -> L^2(W)}: top singular value after weight conjugation.

    A = blockdiag(W^{1/2}) T blockdiag(U^{-1/2}) is formed with two batched
    matmuls over leaf blocks, and the norm is sqrt(max(0, top eigenvalue of
    the Gram A^H A)); squaring perturbs sigma_max^2 by about eps sigma_max^2,
    so the result keeps machine-epsilon relative accuracy.  Real T, W and
    U keep A, its Gram and the eigensolve in float64.
    """
    L, n, N = _same_window(T, W, U).leafcount, T.n, T.size
    Wh = _mat_sqrt(W.leaves)
    Uih = _mat_isqrt(U.leaves)
    # rows: leaf block i of T is scaled by W_i^{1/2}
    WT = np.matmul(Wh, T.matrix.reshape(L, n, N)).reshape(N, N)
    # columns, on the transpose: (M D)^T = D^T M^T with D = blockdiag(U^{-1/2})
    At = np.matmul(np.swapaxes(Uih, 1, 2), WT.T.reshape(L, n, N)).reshape(N, N)
    # At = A^T, whose Gram conj(A A^H) has the singular values of A squared
    top = np.linalg.eigvalsh(At.conj().T @ At)[-1]
    return float(np.sqrt(max(0.0, top)))
