"""The condition-family quantities as each computed them on its own.

Before the condition family was written once over cube families and three
shared kernels, every quantity below ran its own level loop: its own
sandwich einsum, spectral norms, tree accumulation and PSD eigenvalue, and
``_foreign_grid_bmo`` its own copy of ``bmo_original`` and condition (b)
over the cubes of a shifted grid.  These are those functions, kept as the
oracle the tests compare the library against; ``haar_multiplier_sup`` is
the supremum part of ``opnorm.haar_multiplier_norm_relation``, and
``_piece_reducing`` the shifted-grid reducing fit from before it was
shared with ``ReducingTable.build``.
"""

from dataclasses import dataclass, field as dc_field

import numpy as np

from matweight import transforms as tf
from matweight.dyadic import WindowError, sign_table
from matweight.fields import (
    FieldError,
    _ellipsoid_fit,
    _is_p2,
    _mat_isqrt,
    _mat_sqrt,
    _net_powers,
    _opnorms,
    _reducing_net,
)

from grid_reference import children_index, level_pieces, piece_means


def _piece_reducing(W, p, pieces):
    """Reducing operators V_I(W, p) of the cube stacks given as
    (idx, vols) pieces, by ``ReducingTable``'s rule: exact average square
    roots at p = 2, the fitted ellipsoids of W^{1/p} otherwise."""
    if _is_p2(p):
        return [_mat_sqrt(piece_means(W.leaves, *pc)) for pc in pieces]
    P = W.power(1.0 / p).leaves
    net, vnet = _reducing_net(P), _reducing_net(P, offset=True)
    rho, vr = _net_powers(P, net, p), _net_powers(P, vnet, p)
    return [
        _ellipsoid_fit(piece_means(rho, *pc), piece_means(vr, *pc), net, vnet, p)[0]
        for pc in pieces
    ]


@dataclass
class BmoReport:
    """One computed quantity: window supremum, witness cube, parameters."""

    quantity: str
    supremum: float
    witness: str
    params: dict = dc_field(default_factory=dict)
    extras: dict = dc_field(default_factory=dict)
    per_level: list = None

    def __float__(self):
        return float(self.supremum)


def _sup_report(name, window, per_level, params, extras=None, keep_levels=False):
    best, wit = 0.0, window.cube(0, 0).address
    for j, vals in per_level:
        if vals.size == 0:
            continue
        k = int(np.argmax(vals))
        if vals[k] > best:
            best = float(vals[k])
            wit = window.cube(j, k).address
    return BmoReport(
        quantity=name,
        supremum=best,
        witness=wit,
        params=params,
        extras=extras or {},
        per_level=per_level if keep_levels else None,
    )


def _accumulate_down(window, per_level_vals):
    """acc[j][k] = sum of vals over all descendants of cube (j,k), incl itself."""
    L = window.depth
    acc = [None] * len(per_level_vals)
    acc[-1] = per_level_vals[-1].copy()
    for j in range(len(per_level_vals) - 2, -1, -1):
        child_sum = acc[j + 1][window.children_index(j)].sum(axis=1)
        acc[j] = per_level_vals[j] + child_sum
    return acc


def bmo_original(B, W, U, p, eps=1.0):
    """sup_I (1/|I|) int_I ||(m_I W^{1/p}) (B - B_I) (m_I U^{1/p})^{-1}||^{1+eps}."""
    win = B.window
    if W.window is not win or U.window is not win:
        raise WindowError("fields live on different windows")
    if eps <= 0:
        raise FieldError("eps must be positive")
    aWp = W.power(1.0 / p).level_averages()
    aUp = U.power(1.0 / p).level_averages()
    aB = B.level_averages()
    per_level = []
    for j in range(win.depth):
        C = np.linalg.inv(aUp[j])
        idx = win.block_view(np.arange(win.leafcount), j)
        Bl = B.leaves[idx]
        M = np.einsum(
            "kab,kcbd,kde->kcae", aWp[j], Bl - aB[j][:, None], C
        )
        vals = np.mean(_opnorms(M) ** (1.0 + eps), axis=1)
        per_level.append((j, vals))
    return _sup_report(
        "bmo_original", win, per_level, {"p": p, "eps": eps}
    )


def condition_b(W, U, A, p):
    """sup_J (1/|J|) sum_{I in D(J)} ||V_I(W) A_I^eps V_I(U)^{-1}||^2."""
    win = A.window
    tw = W.reducing_table(p)
    tu = U.reducing_table(p)
    g = []
    for j in range(win.depth):
        M = np.einsum("kab,ksbc,kcd->ksad", tw.mats[j], A.coefs[j], tu.inv(j))
        g.append(np.sum(_opnorms(M) ** 2, axis=1))
    acc = _accumulate_down(win, g)
    per_level = [(j, acc[j] / win.volumes[j]) for j in range(win.depth)]
    return _sup_report("condition_b", win, per_level, {"p": p})


def carleson_norm(W, U, A, p):
    """The Carleson embedding quantity sup_K (1/|K|) sum_{I in D(K)}
    ||V_I(W) A_I^eps V_K(U)^{-1}||^2, plus its PSD-ordering constant.

    extras carry the smallest C with
    (1/|K|) sum (A_I^eps)^* V_I(W)^2 A_I^eps <= C V_K(U)^2 per K (largest
    generalized eigenvalue) and the dimensional band check C <= B <= n C.
    """
    win = A.window
    n = W.n
    tw = W.reducing_table(p)
    tu = U.reducing_table(p)
    VA = [
        np.einsum("kab,ksbc->ksac", tw.mats[j], A.coefs[j])
        for j in range(win.depth)
    ]
    # norm sums per K and PSD accumulations, grouped by ancestor level
    sums_per_K = [np.zeros(win.cubes_at(j)) for j in range(win.depth)]
    G = [
        np.einsum("ksba,ksbc->kac", np.conj(VA[j]), VA[j]) for j in range(win.depth)
    ]
    for jI in range(win.depth):
        for jK in range(jI + 1):
            anc = win.ancestor_index(jI, jK)
            M = np.einsum("ksac,kcd->ksad", VA[jI], tu.inv(jK)[anc])
            vals = np.sum(_opnorms(M) ** 2, axis=1)
            np.add.at(sums_per_K[jK], anc, vals)
    accG = _accumulate_down(win, G)
    psd_per_level = []
    for jK in range(win.depth):
        X = np.einsum("kab,kbc,kcd->kad", tu.inv(jK), accG[jK], tu.inv(jK))
        X = 0.5 * (X + np.conj(np.swapaxes(X, 1, 2)))
        lams = np.linalg.eigvalsh(X)[:, -1] / win.volumes[jK]
        psd_per_level.append((jK, np.maximum(lams, 0.0)))
    per_level = [(j, sums_per_K[j] / win.volumes[j]) for j in range(win.depth)]
    rep = _sup_report("carleson_norm", win, per_level, {"p": p})
    psd_rep = _sup_report("carleson_psd", win, psd_per_level, {"p": p})
    C, Bv = psd_rep.supremum, rep.supremum
    tol = 1e-8 * max(1.0, Bv)
    rep.extras["psd_constant"] = C
    rep.extras["psd_witness"] = psd_rep.witness
    rep.extras["psd_band_ok"] = bool(
        C <= Bv + tol and Bv <= n * C + tol
    )
    return rep


def hlw_condition(B, W, U):
    """Smallest C with sum m_I(U^{-1}) (B_I^eps)^* (m_I W) B_I^eps m_I(U^{-1})
    <= C U^{-1}(J) over J; the p = 2 testing condition."""
    win = B.window
    Bs = tf.analyze(B)
    aW = W.level_averages()
    aUi = U.inverse().level_averages()
    H = []
    for j in range(win.depth):
        P = np.einsum(
            "kab,kscb,kcd,ksde,kef->kaf",
            aUi[j], np.conj(Bs.coefs[j]), aW[j], Bs.coefs[j], aUi[j],
        )
        H.append(P)
    acc = _accumulate_down(win, H)
    per_level = []
    for j in range(win.depth):
        Y = _mat_isqrt(aUi[j])
        X = np.einsum("kab,kbc,kcd->kad", Y, acc[j], Y) / win.volumes[j]
        X = 0.5 * (X + np.conj(np.swapaxes(X, 1, 2)))
        lams = np.linalg.eigvalsh(X)[:, -1]
        per_level.append((j, np.maximum(lams, 0.0)))
    return _sup_report("hlw_condition", win, per_level, {"p": 2})


def bloom_bprime(B, W, U, p):
    """sup_J (1/|J|) int_J ||W^{1/p}(x) (B - m_J B) V_J(U)^{-1}||^p."""
    win = B.window
    Wp = W.power(1.0 / p).leaves
    tu = U.reducing_table(p)
    aB = B.level_averages()
    per_level = []
    for j in range(win.depth):
        idx = win.block_view(np.arange(win.leafcount), j)
        M = np.einsum(
            "kcab,kcbd,kde->kcae",
            Wp[idx], B.leaves[idx] - aB[j][:, None], tu.inv(j),
        )
        vals = np.mean(_opnorms(M) ** p, axis=1)
        per_level.append((j, vals))
    return _sup_report("bloom_bprime", win, per_level, {"p": p})


def bloom_cprime(B, W, U, p):
    """sup_J (1/|J|) int_J ||U^{-1/p}(x) (B^* - m_J B^*) V_J'(W)^{-1}||^{p'}."""
    win = B.window
    pp = p / (p - 1.0)
    Um = U.power(-1.0 / p).leaves
    twd = W.reducing_table(p, dual=True)
    Bh = np.conj(np.swapaxes(B.leaves, 1, 2))
    aBh = win.level_averages(Bh)
    per_level = []
    for j in range(win.depth):
        idx = win.block_view(np.arange(win.leafcount), j)
        M = np.einsum(
            "kcab,kcbd,kde->kcae",
            Um[idx], Bh[idx] - aBh[j][:, None], twd.inv(j),
        )
        vals = np.mean(_opnorms(M) ** pp, axis=1)
        per_level.append((j, vals))
    return _sup_report("bloom_cprime", win, per_level, {"p": p})


def buckley_fkp_summation(W):
    """The three p = 2 summation conditions on a weight's own coefficients.

    Returns (fkp, buckley, isral) reports: the normalized square-sum against
    (m_I W)^{-1/2} sandwiches, the smallest C in
    (1/|J|) sum W_I^eps (m_I W)^{-1} W_I^eps <= C m_J W, and the smallest C
    in the corresponding inverse-average ordering.
    """
    win = W.window
    Ws = tf.analyze(W)
    aW = W.level_averages()
    aWi = W.inverse().level_averages()
    fkp_vals, buck_acc, isr_acc = [], [], []
    for j in range(win.depth):
        isq = _mat_isqrt(aW[j])
        M = np.einsum("kab,ksbc,kcd->ksad", isq, Ws.coefs[j], isq)
        fkp_vals.append(np.sum(_opnorms(M) ** 2, axis=1))
        invA = np.linalg.inv(aW[j])
        X = np.einsum("ksab,kbc,kscd->kad", Ws.coefs[j], invA, Ws.coefs[j])
        buck_acc.append(X)
        Y = np.einsum(
            "kab,ksbc,kcd,ksde,kef->kaf",
            aWi[j], Ws.coefs[j], aWi[j], Ws.coefs[j], aWi[j],
        )
        isr_acc.append(Y)
    facc = _accumulate_down(win, fkp_vals)
    fkp_per = [(j, facc[j] / win.volumes[j]) for j in range(win.depth)]
    fkp = _sup_report("fkp", win, fkp_per, {"p": 2})

    bacc = _accumulate_down(win, buck_acc)
    iacc = _accumulate_down(win, isr_acc)
    buck_per, isr_per = [], []
    for j in range(win.depth):
        isq = _mat_isqrt(aW[j])
        Xb = np.einsum("kab,kbc,kcd->kad", isq, bacc[j], isq) / win.volumes[j]
        Xb = 0.5 * (Xb + np.conj(np.swapaxes(Xb, 1, 2)))
        buck_per.append((j, np.maximum(np.linalg.eigvalsh(Xb)[:, -1], 0.0)))
        isqi = _mat_isqrt(aWi[j])
        Xi = np.einsum("kab,kbc,kcd->kad", isqi, iacc[j], isqi) / win.volumes[j]
        Xi = 0.5 * (Xi + np.conj(np.swapaxes(Xi, 1, 2)))
        isr_per.append((j, np.maximum(np.linalg.eigvalsh(Xi)[:, -1], 0.0)))
    buckley = _sup_report("buckley", win, buck_per, {"p": 2}, keep_levels=True)
    buckley.extras["min_eig_slack"] = buckley_psd_slack(W, buckley)
    isral = _sup_report("isral_summation", win, isr_per, {"p": 2}, keep_levels=True)
    return fkp, buckley, isral


def buckley_psd_slack(W, buckley_report):
    """Smallest eigenvalue slack of C m_J W - (1/|J|) sum W_I (m_I W)^{-1} W_I."""
    win = W.window
    C = buckley_report.supremum
    aW = W.level_averages()
    Ws = tf.analyze(W)
    acc = []
    for j in range(win.depth):
        invA = np.linalg.inv(aW[j])
        acc.append(np.einsum("ksab,kbc,kscd->kad", Ws.coefs[j], invA, Ws.coefs[j]))
    acc = _accumulate_down(win, acc)
    slack = np.inf
    for j in range(win.depth):
        R = C * aW[j] - acc[j] / win.volumes[j]
        R = 0.5 * (R + np.conj(np.swapaxes(R, 1, 2)))
        slack = min(slack, float(np.min(np.linalg.eigvalsh(R))))
    return slack


def jn_p2_pair(B, W, eps=1.0):
    """Proposition-style p = 2 pair: averaged sandwich oscillation vs the
    pointwise-left-root square oscillation; returns (left, right) reports."""
    win = B.window
    aW = W.level_averages()
    aB = B.level_averages()
    Bh = np.conj(np.swapaxes(B.leaves, 1, 2))
    aBh = win.level_averages(Bh)
    Wm = W.power(-0.5).leaves
    left_per, right_per = [], []
    for j in range(win.depth):
        isq = _mat_isqrt(aW[j])
        idx = win.block_view(np.arange(win.leafcount), j)
        Ml = np.einsum(
            "kab,kcbd,kde->kcae", isq, B.leaves[idx] - aB[j][:, None], isq
        )
        left_per.append((j, np.mean(_opnorms(Ml) ** (1 + eps), axis=1)))
        Mr = np.einsum(
            "kcab,kcbd,kde->kcae", Wm[idx], Bh[idx] - aBh[j][:, None], isq
        )
        right_per.append((j, np.mean(_opnorms(Mr) ** 2, axis=1)))
    left = _sup_report("jn_left", win, left_per, {"p": 2, "eps": eps})
    right = _sup_report("jn_right", win, right_per, {"p": 2})
    return left, right


def vector_jn(f, W, p):
    """Weighted vector oscillation sup_J (1/|J|) int |W^{1/p}(x) V_J(W)^{-1}
    (f - m_J f)|^p, together with the plain BMO oscillation of f."""
    win = f.window
    tw = W.reducing_table(p)
    Wp = W.power(1.0 / p).leaves
    af = f.level_averages()
    wt_per, plain_per = [], []
    for j in range(win.depth):
        idx = win.block_view(np.arange(win.leafcount), j)
        osc = f.leaves[idx] - af[j][:, None]
        v = np.einsum("kcab,kbd,kcd->kca", Wp[idx], tw.inv(j), osc)
        wt_per.append((j, np.mean(np.linalg.norm(v, axis=2) ** p, axis=1)))
        plain_per.append((j, np.mean(np.linalg.norm(osc, axis=2), axis=1)))
    weighted = _sup_report("vector_jn", win, wt_per, {"p": p})
    plain = _sup_report("vector_bmo", win, plain_per, {"p": 1})
    return weighted, plain


def _avg_condb_value(B, W, U, root=None):
    """Condition (b) at p = 2 with exact averages, optionally below one cube."""
    win = B.window
    Bs = tf.analyze(B)
    aW = W.level_averages()
    sq = [_mat_sqrt(a) for a in aW]
    isq = [_mat_isqrt(a) for a in U.level_averages()]
    g = []
    for j in range(win.depth):
        M = np.einsum("kab,ksbc,kcd->ksad", sq[j], Bs.coefs[j], isq[j])
        g.append(np.sum(_opnorms(M) ** 2, axis=1))
    acc = _accumulate_down(win, g)
    if root is not None:
        j, k = root
        return float(acc[j][k] / win.volumes[j])
    vals = [float(np.max(acc[j] / win.volumes[j])) for j in range(win.depth)]
    return max(vals)


def bmo_over_shifted_grids(B, W, U, p, eps=1.0):
    """bmo_original and condition (b) on each of the 2^d shifted grids.

    The window's own grid uses the exact fast path; foreign grids are
    evaluated over their cubes contained in the window box at matched
    depth, with exact piecewise integrals.  Returns per-grid values and
    the max across grids.
    """
    win = B.window
    out = {"per_grid": {}, "p": p, "eps": eps}
    for t in range(1, 2**win.d + 1):
        if t == win.grid.shift:
            bo = bmo_original(B, W, U, p, eps).supremum
            cb = condition_b(W, U, tf.analyze(B), p).supremum
        else:
            bo, cb = _foreign_grid_bmo(B, W, U, p, eps, t)
        out["per_grid"][t] = {"bmo_original": bo, "condition_b": cb}
    out["max_bmo_original"] = max(v["bmo_original"] for v in out["per_grid"].values())
    out["max_condition_b"] = max(v["condition_b"] for v in out["per_grid"].values())
    return out


def _foreign_grid_bmo(B, W, U, p, eps, t):
    """bmo_original and condition (b) over the cubes of D^t inside the
    window box, level by level: every cube of a level meets the same
    pattern of leaf pieces, so each level is one (cubes, pieces) stack.
    Cubes, pieces and children come from the exact per-cube geometry of
    ``grid_reference``."""
    win = B.window
    # nonempty levels run from the coarsest cube inside the box to the leaves
    levels = level_pieces(win, t)
    pieces = [(idx, vols) for _, idx, vols in levels]
    aB = [piece_means(B.leaves, *pc) for pc in pieces]
    Wp = W.power(1.0 / p).leaves
    Up = U.power(1.0 / p).leaves
    # the last level is the leaf level, which has no oscillation or coefficient
    VW, VU = (_piece_reducing(F, p, pieces[:-1]) for F in (W, U))
    tbl = sign_table(win.d)
    bo_best, own, children, vols_J = 0.0, [], [], []
    for i, (cubes, idx, vols) in enumerate(levels[:-1]):
        vol = float(cubes[0].volume)
        M = np.einsum(
            "kab,kcbd,kde->kcae",
            piece_means(Wp, idx, vols),
            B.leaves[idx] - aB[i][:, None],
            np.linalg.inv(piece_means(Up, idx, vols)),
        )
        bo_best = max(bo_best, float(np.max(_opnorms(M) ** (1.0 + eps) @ vols)) / vol)
        ch = children_index(cubes, levels[i + 1][0])
        coef = (np.sqrt(vol) / 2**win.d) * np.einsum("sb,kb...->ks...", tbl, aB[i + 1][ch])
        M2 = np.einsum("kab,ksbc,kcd->ksad", VW[i], coef, np.linalg.inv(VU[i]))
        own.append(np.sum(_opnorms(M2) ** 2, axis=1))
        children.append(ch)
        vols_J.append(vol)
    # sum up the in-window forest, children in offset-bit order
    acc, cb_best = np.zeros(len(levels[-1][0])), 0.0
    for i in range(len(own) - 1, -1, -1):
        total = own[i].copy()
        for col in children[i].T:
            total += acc[col]
        acc = total
        cb_best = max(cb_best, float(np.max(acc)) / vols_J[i])
    return bo_best, cb_best


def haar_multiplier_sup(A, W, U, p):
    win = A.window
    tw = W.reducing_table(p)
    tu = U.reducing_table(p)
    sup = 0.0
    for j in range(win.depth):
        M = np.einsum("kab,ksbc,kcd->ksad", tw.mats[j], A.coefs[j], tu.inv(j))
        if M.size:
            sup = max(sup, float(np.max(_opnorms(M))))
    return sup
