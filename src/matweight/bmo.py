"""Two-matrix-weighted BMO, Carleson, and H^1 quantities with experiments.

Every supremum here is a window supremum with a witness cube; no claim of
infinite-grid finiteness is ever made.  Identity-type statements (PSD
orderings, Parseval, the extremal H^1 bound) are checked to tight
tolerances; comparability statements are only measured, and ratio bands
are report content.

Conventions.  Condition-family quantities use the spectral matrix norm,
square functions the Frobenius norm.  The PSD reformulations of the
Carleson norm and of the weight summation conditions carry the 1/|K|
normalization that makes them scale invariant and comparable (within a
dimensional factor n) to the squared-norm sums.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .dyadic import (
    DyadicGrid,
    WindowError,
    cube_pieces,
    enumerate_grid_cubes,
    grid_children_index,
    sign_table,
)
from .fields import (
    MatrixField,
    FieldError,
    NotPositiveDefiniteError,
    ap_characteristic,
    generate_weight,
    _cube_means,
    _is_p2,
    _mat_sqrt,
    _mat_isqrt,
    _opnorms,
    _piece_reducing,
)
from . import transforms as tf
from . import opnorm as onorm

__all__ = [
    "BmoReport",
    "bmo_original",
    "carleson_norm",
    "condition_b",
    "hlw_condition",
    "bloom_bprime",
    "bloom_cprime",
    "buckley_fkp_summation",
    "jn_p2_pair",
    "vector_jn",
    "h1_norm",
    "square_function_level_sets",
    "frobenius_pairing",
    "frobenius_pairing_spectral",
    "a2_spectral",
    "duality_experiment",
    "extremal_h1_instance",
    "bmo_over_shifted_grids",
    "random_matrix_field",
    "random_vector_field",
    "matrix_weight_theorem_pipeline",
    "equivalence_experiment",
    "bounded_weight",
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


# -- the original averaged BMO norm -----------------------------------------


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
        idx = win.block_leaf_index(j)
        Bl = B.leaves[idx]
        M = np.einsum(
            "kab,kcbd,kde->kcae", aWp[j], Bl - aB[j][:, None], C
        )
        vals = np.mean(_opnorms(M) ** (1.0 + eps), axis=1)
        per_level.append((j, vals))
    return _sup_report(
        "bmo_original", win, per_level, {"p": p, "eps": eps}
    )


# -- condition family ---------------------------------------------------------


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
        idx = win.block_leaf_index(j)
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
        idx = win.block_leaf_index(j)
        M = np.einsum(
            "kcab,kcbd,kde->kcae",
            Um[idx], Bh[idx] - aBh[j][:, None], twd.inv(j),
        )
        vals = np.mean(_opnorms(M) ** pp, axis=1)
        per_level.append((j, vals))
    return _sup_report("bloom_cprime", win, per_level, {"p": p})


# -- weight summation conditions (p = 2) --------------------------------------


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


# -- John-Nirenberg pairs ------------------------------------------------------


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
        idx = win.block_leaf_index(j)
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
        idx = win.block_leaf_index(j)
        osc = f.leaves[idx] - af[j][:, None]
        v = np.einsum("kcab,kbd,kcd->kca", Wp[idx], tw.inv(j), osc)
        wt_per.append((j, np.mean(np.linalg.norm(v, axis=2) ** p, axis=1)))
        plain_per.append((j, np.mean(np.linalg.norm(osc, axis=2), axis=1)))
    weighted = _sup_report("vector_jn", win, wt_per, {"p": p})
    plain = _sup_report("vector_bmo", win, plain_per, {"p": 1})
    return weighted, plain


# -- H^1, pairing, duality ------------------------------------------------------


def h1_norm(Phi, W, U):
    """||S_{W^{-1},D} M_U Phi||_{L^1}, the p = 2 Hardy-space norm."""
    win = Phi.window
    s = tf.weighted_square_function(W.inverse(), tf.mu_multiplier(U, Phi))
    return float(win.leaf_volume * np.sum(s))


def square_function_level_sets(Phi, W, U):
    """Diagnostic level sets {x : S_{W^{-1}} M_U Phi > 2^k} at leaf scale.

    Returns a list of (k, measure) for the dyadic thresholds that the
    square function actually crosses; measures are exact multiples of the
    leaf volume and decrease in k.
    """
    win = Phi.window
    s = tf.weighted_square_function(W.inverse(), tf.mu_multiplier(U, Phi))
    smax = float(np.max(s))
    if smax <= 0:
        return []
    k_hi = int(np.floor(np.log2(smax)))
    out = []
    for k in range(k_hi - 20, k_hi + 1):
        measure = float(win.leaf_volume * np.count_nonzero(s > 2.0**k))
        if measure > 0:
            out.append((k, measure))
    return out


def frobenius_pairing(Phi, B):
    """int tr(Phi(x) B(x)^*) dx, exact on leaves."""
    if Phi.window is not B.window:
        raise WindowError("fields live on different windows")
    lv = Phi.window.leaf_volume
    return complex(lv * np.einsum("lab,lab->", Phi.leaves, np.conj(B.leaves)))


def frobenius_pairing_spectral(Phi, B):
    """The same pairing summed over Haar coefficients plus the root term."""
    ps, bs = tf.analyze(Phi), tf.analyze(B)
    win = Phi.window
    total = complex(np.einsum("ab,ab->", ps.root, np.conj(bs.root)) * win.volumes[0])
    for j in range(win.depth):
        total += complex(
            np.einsum("ksab,ksab->", ps.coefs[j], np.conj(bs.coefs[j]))
        )
    return total


def a2_spectral(W):
    """sup_I ||(m_I W)^{1/2} (m_I W^{-1})^{1/2}||^2 in the spectral norm."""
    aW = W.level_averages()
    aWi = W.inverse().level_averages()
    best = 0.0
    for j in range(W.window.depth + 1):
        M = _mat_sqrt(aW[j]) @ _mat_sqrt(aWi[j])
        best = max(best, float(np.max(_opnorms(M) ** 2)))
    return best


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


def extremal_h1_instance(B, W, U, root=(0, 0)):
    """The duality proof's extremal matrix field below a cube J.

    Builds S_{J,W,U}^* from the optimizing coefficient sequence for the
    pairing against B (unit Frobenius-l2 normalization) and returns
    (field, pairing, predicted_pairing, h1, h1_bound) where
    h1_bound = a2_spectral(W)^{1/2} |J|^{1/2} is the exact inequality the
    construction satisfies.
    """
    win = B.window
    jr, kr = root
    Bs = tf.analyze(B)
    aW, aU = W.level_averages(), U.level_averages()
    spec = tf.HaarSpectrum.zeros(win, (W.n, W.n))
    frob_sq = 0.0
    for j in range(jr, win.depth):
        anc = win.ancestor_index(j, jr) if j > jr else np.arange(win.cubes_at(jr))
        sel = np.nonzero(anc == kr)[0]
        if sel.size == 0:
            continue
        sq = _mat_sqrt(aW[j][sel])
        isq = _mat_isqrt(aU[j][sel])
        X = np.einsum("kab,ksbc,kcd->ksad", sq, Bs.coefs[j][sel], isq)
        # optimal sequence S_I = X_I^H / ||{X}||, so the S* coefficients are
        # (m_I W)^{1/2} X_I (m_I U)^{-1/2} / ||{X}||
        frob_sq += float(np.sum(np.abs(X) ** 2))
        spec.coefs[j][sel] = np.einsum("kab,ksbc,kcd->ksad", sq, X, isq)
    scale = np.sqrt(frob_sq)
    if scale == 0:
        field = tf.synthesize(spec)
        return field, 0.0, 0.0, 0.0, 0.0
    for j in range(win.depth):
        spec.coefs[j] /= scale
    field = tf.synthesize(spec)
    pairing = frobenius_pairing(field, B)
    volJ = win.volumes[jr]
    h1 = h1_norm(field, W, U)
    bound = np.sqrt(a2_spectral(W)) * np.sqrt(volJ)
    return field, complex(pairing), scale, h1, float(bound)


def duality_experiment(spec):
    """Pairing-ratio sweep for the p = 2 duality statement.

    spec: dict with n, d, depth, seeds (list), amplitude, char_cap.  Each
    seed draws weights W, U with window A2 at most char_cap, a random
    symbol B and a random test field Phi, and records the upper-direction
    ratio |<Phi,B>| / (A2(W)^{1/2} cond_b(B)^{1/2} ||Phi||_{H^1}) plus the
    extremal-instance lower-direction data and its hard H^1 bound check.
    """
    n = int(spec.get("n", 2))
    d = int(spec.get("d", 1))
    depth = int(spec.get("depth", 6))
    seeds = spec.get("seeds", list(range(20)))
    amp = float(spec.get("amplitude", 0.5))
    cap = float(spec.get("char_cap", 10.0))
    kind = spec.get("weight_kind", "log_spd")
    from .dyadic import Window

    rows = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        win = Window.unit(d, depth)
        W = bounded_weight(win, n, rng, amplitude=amp, char_cap=cap, kind=kind)
        U = bounded_weight(win, n, rng, amplitude=amp, char_cap=cap, kind=kind)
        B = random_matrix_field(win, n, rng)
        Phi = random_matrix_field(win, n, rng)
        pairing = frobenius_pairing(Phi, B)
        cb = _avg_condb_value(B, W, U)
        h1 = h1_norm(Phi, W, U)
        a2W = a2_spectral(W)
        denom = np.sqrt(a2W) * np.sqrt(cb) * h1
        upper_ratio = abs(pairing) / denom if denom > 0 else 0.0
        _, pairS, predicted, h1S, bound = extremal_h1_instance(B, W, U)
        # Frobenius condition-(b) mass below the root: predicted^2 / |J|
        cbJ = predicted**2 / win.volumes[0]
        lower_denom = h1S * np.sqrt(cbJ)
        lower_ratio = abs(pairS) / lower_denom if lower_denom > 0 else 0.0
        # a second extremal instance below a random strictly deeper cube
        jdeep = int(rng.integers(1, max(2, depth - 1)))
        kdeep = int(rng.integers(0, win.cubes_at(jdeep)))
        _, pairD, predD, h1D, boundD = extremal_h1_instance(
            B, W, U, root=(jdeep, kdeep)
        )
        deep_ok = bool(h1D <= boundD * (1 + 1e-9)) and np.isclose(
            abs(pairD), predD, rtol=1e-9, atol=1e-12
        )
        omega = square_function_level_sets(Phi, W, U)
        rows.append(
            {
                "seed": seed,
                "a2W": a2W,
                "a2U": a2_spectral(U),
                "pairing_abs": abs(pairing),
                "cond_b": cb,
                "h1": h1,
                "upper_ratio": upper_ratio,
                "extremal_pairing": abs(pairS),
                "extremal_predicted": predicted,
                "extremal_h1": h1S,
                "extremal_h1_bound": bound,
                "extremal_h1_ok": bool(h1S <= bound * (1 + 1e-9)),
                "extremal_deep_cube": win.cube(jdeep, kdeep).address,
                "extremal_deep_ok": deep_ok,
                "lower_ratio": lower_ratio,
                "omega_levels": len(omega),
            }
        )
    ceiling = max((r["upper_ratio"] for r in rows), default=0.0)
    return {"rows": rows, "upper_ratio_ceiling": ceiling}


def bounded_weight(window, n, rng, amplitude=0.5, char_cap=10.0, kind="log_spd"):
    """Random weight with window A2 characteristic at most char_cap."""
    amp = amplitude
    for _ in range(24):
        seed = int(rng.integers(0, 2**31))
        W = generate_weight(
            {"kind": kind, "n": n, "amplitude": amp, "seed": seed},
            window=window,
        )
        if ap_characteristic(W, 2) <= char_cap:
            return W
        amp *= 0.6
    raise FieldError("could not draw a weight under the characteristic cap")


def random_matrix_field(window, n, rng, hermitian=False, headroom=0):
    spec = tf.HaarSpectrum.zeros(window, (n, n))
    top = window.depth - headroom
    for j in range(top):
        a = rng.standard_normal((window.cubes_at(j), window.nsig, n, n))
        if hermitian:
            a = 0.5 * (a + np.swapaxes(a, -1, -2))
        spec.coefs[j] = (np.sqrt(window.volumes[j]) * a).astype(complex)
    root = rng.standard_normal((n, n))
    spec.root = root.astype(complex)
    return tf.synthesize(spec)


def random_vector_field(window, n, rng, headroom=0):
    spec = tf.HaarSpectrum.zeros(window, (n,))
    top = window.depth - headroom
    for j in range(top):
        a = rng.standard_normal((window.cubes_at(j), window.nsig, n))
        spec.coefs[j] = (np.sqrt(window.volumes[j]) * a).astype(complex)
    spec.root = rng.standard_normal(n).astype(complex)
    return tf.synthesize(spec)


# -- shifted grid sweep ---------------------------------------------------------


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
    pattern of leaf pieces, so each level is one (cubes, pieces) stack."""
    win = B.window
    grid = DyadicGrid(win.d, t)
    # nonempty levels run from the coarsest cube inside the box to the leaves
    levels = [(k, pos) for k, pos in enumerate_grid_cubes(win, t) if len(pos)]
    pieces = [cube_pieces(win, t, k) for k, _ in levels]
    aB = [_cube_means(B.leaves, *pc) for pc in pieces]
    Wp = W.power(1.0 / p).leaves
    Up = U.power(1.0 / p).leaves
    # the last level is the leaf level, which has no oscillation or coefficient
    VW, VU = (_piece_reducing(F, p, pieces[:-1]) for F in (W, U))
    tbl = sign_table(win.d)
    bo_best, own, children, vols_J = 0.0, [], [], []
    for i, (k, pos) in enumerate(levels[:-1]):
        idx, vols = pieces[i]
        vol = float(grid.cube(k, pos[0]).volume)
        M = np.einsum(
            "kab,kcbd,kde->kcae",
            _cube_means(Wp, idx, vols),
            B.leaves[idx] - aB[i][:, None],
            np.linalg.inv(_cube_means(Up, idx, vols)),
        )
        bo_best = max(bo_best, float(np.max(_opnorms(M) ** (1.0 + eps) @ vols)) / vol)
        ch = grid_children_index(grid, k, pos, levels[i + 1][1])
        coef = (np.sqrt(vol) / 2**win.d) * np.einsum("sb,kb...->ks...", tbl, aB[i + 1][ch])
        M2 = np.einsum("kab,ksbc,kcd->ksad", VW[i], coef, np.linalg.inv(VU[i]))
        own.append(np.sum(_opnorms(M2) ** 2, axis=1))
        children.append(ch)
        vols_J.append(vol)
    # sum up the in-window forest, children in offset-bit order
    acc, cb_best = np.zeros(len(levels[-1][1])), 0.0
    for i in range(len(own) - 1, -1, -1):
        total = own[i].copy()
        for col in children[i].T:
            total += acc[col]
        acc = total
        cb_best = max(cb_best, float(np.max(acc)) / vols_J[i])
    return bo_best, cb_best


# -- two-weight construction pipeline ------------------------------------------


def matrix_weight_theorem_pipeline(Lam, U, p, eps=1.0):
    """Build W = (U^* Lam^{2/p} U)^{p/2}, verify the pointwise norm identity
    |Lam^{1/p}(x) U(x) e| = |W^{1/p}(x) e|, and evaluate the averaged BMO
    norm of U against the pair (Lam, W).

    The p = 2 special case with Lam close to W^{-1} and U close to W also
    reports the three weight summation constants.
    """
    win = U.window
    if Lam.window is not win:
        raise WindowError("fields live on different windows")
    Uh = np.conj(np.swapaxes(U.leaves, 1, 2))
    core = np.einsum("lab,lbc,lcd->lad", Uh, Lam.power(2.0 / p).leaves, U.leaves)
    asym = np.max(np.abs(core - np.conj(np.swapaxes(core, 1, 2))))
    scale = max(1.0, float(np.max(np.abs(core))))
    if asym > 1e-10 * scale:
        raise FieldError(
            f"constructed field not Hermitian within 1e-10 (asymmetry {asym:.3e})"
        )
    core = 0.5 * (core + np.conj(np.swapaxes(core, 1, 2)))
    mineig = float(np.min(np.linalg.eigvalsh(core)))
    if mineig <= 0:
        raise NotPositiveDefiniteError(
            "U^* Lam^{2/p} U is singular on a leaf; U must be invertible"
        )
    Wf = MatrixField(win, core, weight=True).power(p / 2.0)

    # pointwise identity on basis vectors and a random probe
    LU = np.einsum("lab,lbc->lac", Lam.power(1.0 / p).leaves, U.leaves)
    Wp = Wf.power(1.0 / p).leaves
    probes = np.vstack([np.eye(U.n), np.ones((1, U.n)) / np.sqrt(U.n)])
    lhs = np.linalg.norm(np.einsum("lab,eb->lea", LU, probes), axis=2)
    rhs = np.linalg.norm(np.einsum("lab,eb->lea", Wp, probes), axis=2)
    identity_error = float(np.max(np.abs(lhs - rhs)))

    out = {
        "W": Wf,
        "identity_error": identity_error,
        "identity_ok": bool(identity_error <= 1e-10 * max(1.0, float(np.max(lhs)))),
        "ap_W": ap_characteristic(Wf, p),
        "bmo": bmo_original(U, Lam, Wf, p, eps),
    }
    if _is_p2(p):
        rel = np.max(np.abs(Lam.leaves - Wf.inverse().leaves)) / max(
            1.0, float(np.max(np.abs(Lam.leaves)))
        )
        if rel < 1e-9:
            fkp, buckley, isral = buckley_fkp_summation(Wf)
            out["fkp"] = fkp
            out["buckley"] = buckley
            out["isral"] = isral
    return out


# -- equivalence ensembles -------------------------------------------------------


def equivalence_experiment(spec):
    """Measure the condition family plus the operator norm across an ensemble.

    spec: n, d, depth, seeds, p_values, eps, amplitude, char_cap.  Returns
    rows of raw quantities and pairwise ratio bands of homogeneity-aligned
    values (every quantity normalized to quadratic degree in the symbol).
    """
    from .dyadic import Window

    n = int(spec.get("n", 2))
    d = int(spec.get("d", 1))
    depth = int(spec.get("depth", 6))
    seeds = spec.get("seeds", list(range(20)))
    p_values = spec.get("p_values", [2.0, 3.0, 1.5])
    eps = float(spec.get("eps", 1.0))
    amp = float(spec.get("amplitude", 0.5))
    cap = float(spec.get("char_cap", 10.0))
    kind = spec.get("weight_kind", "log_spd")
    rows = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        win = Window.unit(d, depth)
        W = bounded_weight(win, n, rng, amplitude=amp, char_cap=cap, kind=kind)
        U = bounded_weight(win, n, rng, amplitude=amp, char_cap=cap, kind=kind)
        B = random_matrix_field(win, n, rng)
        A = tf.analyze(B)
        a2 = {"a2W": ap_characteristic(W, 2), "a2U": ap_characteristic(U, 2)}
        for p in p_values:
            q = {}
            car = carleson_norm(W, U, A, p)
            q["psd_band_ok"] = car.extras["psd_band_ok"]
            reports = {
                "carleson_norm": car,
                "condition_b": condition_b(W, U, A, p),
                "bloom_bprime": bloom_bprime(B, W, U, p),
                "bloom_cprime": bloom_cprime(B, W, U, p),
                "bmo_original": bmo_original(B, W, U, p, eps),
            }
            if _is_p2(p):
                reports["hlw_condition"] = hlw_condition(B, W, U)
            for name, rep in reports.items():
                q[name] = rep.supremum
                q[name + "_witness"] = rep.witness
            T = onorm.materialize(
                {"kind": "conjugated_paraproduct", "A": A, "W": W, "U": U, "p": p},
                win,
                n,
            )
            if _is_p2(p):
                nv = onorm.weighted_opnorm_p2(T, ident(win, n), ident(win, n))
                q["pi_opnorm_sq"] = nv**2
                q["pi_opnorm_exact"] = True
            else:
                lo, _ = onorm.lp_opnorm_estimate(
                    T, ident(win, n), ident(win, n), p, budget=25
                )
                q["pi_opnorm_sq"] = lo**2
                q["pi_opnorm_exact"] = False
            rows.append(
                {
                    "seed": seed,
                    "p": p,
                    "eps": eps,
                    **a2,
                    **q,
                }
            )
    return {"rows": rows, "bands": ratio_bands(rows)}


_QUADRATIC_KEYS = ("carleson_norm", "condition_b", "hlw_condition", "pi_opnorm_sq")


def _aligned(row):
    """Quantities normalized to quadratic homogeneity in the symbol."""
    p, eps = row["p"], row["eps"]
    out = {}
    for k in _QUADRATIC_KEYS:
        if k in row:
            out[k] = row[k]
    out["bloom_bprime"] = row["bloom_bprime"] ** (2.0 / p)
    out["bloom_cprime"] = row["bloom_cprime"] ** (2.0 * (p - 1.0) / p)
    out["bmo_original"] = row["bmo_original"] ** (2.0 / (1.0 + eps))
    return out


def ratio_bands(rows):
    """max/min of pairwise ratios of aligned quantities per exponent."""
    bands = {}
    by_p = {}
    for row in rows:
        by_p.setdefault(row["p"], []).append(_aligned(row))
    for p, aligned in by_p.items():
        keys = sorted(set().union(*(a.keys() for a in aligned)))
        for i, k1 in enumerate(keys):
            for k2 in keys[i + 1:]:
                ratios = [
                    a[k1] / a[k2]
                    for a in aligned
                    if k1 in a and k2 in a and a[k1] > 0 and a[k2] > 0
                ]
                if ratios:
                    bands[(p, k1, k2)] = max(ratios) / min(ratios)
    return bands


def ident(window, n):
    return MatrixField.identity(window, n)
