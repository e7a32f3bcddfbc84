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

Structure.  Every condition-family quantity runs over a cube family of
``fields`` (``_OwnGrid``, ``_ShiftedGrid``, which walk their levels alike:
per-level means, kids and leaf blocks) through three kernels: (a)
``_oscillations``, the averaged oscillation ||L (X - m_J X) R||^q per cube;
(b) ``_coef_sums``, the coefficient sandwiches ||L A_s R||^2 summed down
the tree; (c) ``_psd_top``, the top eigenvalue of PSD stacks accumulated
down the tree and sandwiched by Y_J.  The Carleson sum and the extremal H^1
instance read a cube's subtree level by level as blocks (``descendants_view``).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import cache, partial

import numpy as np

from .dyadic import Window
from .fields import (
    MatrixField,
    FieldError,
    ap_characteristic,
    generate_weight,
    _OwnGrid,
    _check_p,
    _count,
    _family,
    _finite,
    _haar_coefs,
    _is_p2,
    _level_argmax,
    _mat_isqrt,
    _opnorms,
    _rel,
    _same_window,
    _sequence,
)
from . import transforms as tf
from . import opnorm as onorm

__all__ = [
    "BmoReport",
    "bmo_original",
    "bmo_original_sweep",
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
    "jn_experiment",
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

    def __float__(self):
        return float(self.supremum)


def _sup_report(name, fam, per_level, params, extras=None):
    best, wit = _level_argmax(per_level)
    return BmoReport(name, best, fam.cube(*wit).address, params, extras or {})


def _accumulate_down(fam, vals):
    """acc[i][k] = sum of vals over all descendants of cube (i,k), incl itself."""
    acc = list(vals)
    for i in range(len(vals) - 2, -1, -1):
        acc[i] = vals[i] + fam.kids(acc[i + 1], i).sum(axis=1)
    return acc


def _sandwich(X, left=(), right=()):
    """Batched products L_1 ... L_m X R_1 ... R_r as one einsum.

    X is a (cubes, pieces, n, n) stack, or (cubes, pieces, n) for vectors;
    each factor holds one matrix per cube (cubes, n, n) or per piece
    (cubes, pieces, n, n).
    """
    names = iter("abdefghijlmnopqr")
    row, col = next(names), ("" if X.ndim == 3 else next(names))
    terms = ["kc" + row + col]
    for F in reversed(left):
        new = next(names)
        terms.insert(0, "kc"[: F.ndim - 2] + new + row)
        row = new
    for F in right:
        new = next(names)
        terms.append("kc"[: F.ndim - 2] + col + new)
        col = new
    return np.einsum(",".join(terms) + "->kc" + row + col, *left, X, *right)


# -- kernel (a): averaged oscillation --------------------------------------------


def _oscillations(fam, p, epsilons, terms):
    """Per term (X, qs, factors) and per exponent q of qs, per cube J above
    the finest level: the volume-weighted mean over J of
    ||L (X(x) - m_J X) R||^q, one list of levels per (term, q) in order.

    The sandwich and its norms are formed once per term and level, however
    many exponents the term has.  ``factors(i, blocks)`` gives the left and
    right factor tuples of level i, per cube or per piece, where
    ``blocks(values)`` is ``fam.leaf_blocks(values, i)`` of a leaf array;
    it is called only after the exponents are checked:
    p in (1, inf) and every eps of ``epsilons`` (the quantities that have
    one) finite and positive.  Vector fields take the Euclidean norm.
    """
    _check_p(p)
    for e in epsilons:
        if not 0.0 < e < np.inf:
            raise FieldError(f"eps must be finite and positive, got {e}")
    out = []
    for X, qs, factors in terms:
        vals = [[] for _ in qs]
        means = fam.means(X)
        for i in range(fam.top):
            blocks = partial(fam.leaf_blocks, i=i)
            M = _sandwich(blocks(X.leaves) - means[i][:, None], *factors(i, blocks))
            norms = _opnorms(M) if M.ndim == 4 else np.linalg.norm(M, axis=2)
            for v, q in zip(vals, qs):
                v.append(fam.piece_mean(i, norms**q))
        out.extend(vals)
    return out


def bmo_original(B, W, U, p, eps=1.0):
    """sup_I (1/|I|) int_I ||(m_I W^{1/p}) (B - B_I) (m_I U^{1/p})^{-1}||^{1+eps}."""
    (rep,) = bmo_original_sweep(B, W, U, p, (eps,))
    return rep


def bmo_original_sweep(B, W, U, p, epsilons):
    """``bmo_original`` for each eps of ``epsilons``: one report per eps, in
    order.  Only the power 1 + eps depends on eps, so the means, sandwiches
    and spectral norms are formed once for the whole sweep."""
    return _bmo_original(_OwnGrid(_same_window(B, W, U)), B, W, U, p, epsilons)


def _bmo_original(fam, B, W, U, p, epsilons):
    means = cache(fam.means)  # every level's means of a power, formed once

    def factors(i, blocks):
        Up = means(U.power(1.0 / p))[i]
        return (means(W.power(1.0 / p))[i],), (np.linalg.inv(Up),)

    vals = _oscillations(fam, p, epsilons, [(B, [1.0 + e for e in epsilons], factors)])
    return [
        _sup_report("bmo_original", fam, v, {"p": p, "eps": e}) for v, e in zip(vals, epsilons)
    ]


def bloom_bprime(B, W, U, p):
    """sup_J (1/|J|) int_J ||W^{1/p}(x) (B - m_J B) V_J(U)^{-1}||^p."""
    fam = _OwnGrid(_same_window(B, W, U))
    tu, Wp = U.reducing_table(p), W.power(1.0 / p).leaves  # the table checks p
    (vals,) = _oscillations(fam, p, (), [(B, (p,), lambda i, blocks: ((blocks(Wp),), (tu.inv(i),)))])
    return _sup_report("bloom_bprime", fam, vals, {"p": p})


def bloom_cprime(B, W, U, p):
    """sup_J (1/|J|) int_J ||U^{-1/p}(x) (B^* - m_J B^*) V_J'(W)^{-1}||^{p'}."""
    fam = _OwnGrid(_same_window(B, W, U))
    twd, Um = W.reducing_table(p, dual=True), U.power(-1.0 / p).leaves  # the table checks p
    terms = [(B.conj_transpose(), (p / (p - 1.0),), lambda i, blocks: ((blocks(Um),), (twd.inv(i),)))]
    (vals,) = _oscillations(fam, p, (), terms)
    return _sup_report("bloom_cprime", fam, vals, {"p": p})


def jn_p2_pair(B, W, eps=1.0):
    """Proposition-style p = 2 pair: averaged sandwich oscillation vs the
    pointwise-left-root square oscillation; returns (left, right) reports."""
    fam = _OwnGrid(_same_window(B, W))
    isq = [_mat_isqrt(m) for m in fam.means(W)[: fam.top]]
    Wm = W.power(-0.5).leaves
    left, right = _oscillations(fam, 2.0, (eps,), [
        (B, (1.0 + eps,), lambda i, blocks: ((isq[i],), (isq[i],))),
        (B.conj_transpose(), (2.0,), lambda i, blocks: ((blocks(Wm),), (isq[i],))),
    ])
    jn_left = _sup_report("jn_left", fam, left, {"p": 2, "eps": eps})
    return jn_left, _sup_report("jn_right", fam, right, {"p": 2})


def vector_jn(f, W, p):
    """Weighted vector oscillation sup_J (1/|J|) int |W^{1/p}(x) V_J(W)^{-1}
    (f - m_J f)|^p, together with the plain BMO oscillation of f."""
    fam = _OwnGrid(_same_window(f, W))
    tw, Wp = W.reducing_table(p), W.power(1.0 / p).leaves  # the table checks p
    wt, plain = _oscillations(fam, p, (), [
        (f, (p,), lambda i, blocks: ((blocks(Wp), tw.inv(i)), ())),
        (f, (1.0,), lambda i, blocks: ((), ())),
    ])
    wt_rep = _sup_report("vector_jn", fam, wt, {"p": p})
    return wt_rep, _sup_report("vector_bmo", fam, plain, {"p": 1})


# -- kernel (b): coefficient sandwiches --------------------------------------------


def _coef_norms(coefs, left, right):
    """||L_J A_{J,s} R_J|| per cube J and coefficient s, level by level."""
    return [_opnorms(_sandwich(A, (L,), (R,))) for A, L, R in zip(coefs, left, right)]


def _coef_sums(fam, coefs, left, right):
    """(1/|J|) sum_{I in D(J)} sum_s ||L_I A_{I,s} R_I||^2 per cube J."""
    own = [np.sum(v**2, axis=1) for v in _coef_norms(coefs, left, right)]
    return [a / vol for a, vol in zip(_accumulate_down(fam, own), fam.volumes)]


def condition_b(W, U, A, p):
    """sup_J (1/|J|) sum_{I in D(J)} ||V_I(W) A_I^eps V_I(U)^{-1}||^2."""
    return _condition_b(_OwnGrid(_same_window(W, U, A)), W, U, A.coefs, p)


def _condition_b(fam, W, U, coefs, p):
    vals = _coef_sums(fam, coefs, fam.reducing(W, p), fam.reducing_inv(U, p))
    return _sup_report("condition_b", fam, vals, {"p": p})


# -- kernel (c): PSD accumulations and their top eigenvalue ------------------------


def _psd_sums(fam, M, G=None):
    """sum_{I in D(J)} sum_s M_{I,s}^* G_I M_{I,s} per cube J (G = 1 if None)."""
    if G is None:
        stacks = [np.einsum("ksba,ksbc->kac", np.conj(m), m) for m in M]
    else:
        stacks = [np.einsum("ksba,kbc,ksce->kae", np.conj(m), g, m) for m, g in zip(M, G)]
    return _accumulate_down(fam, stacks)


def _psd_top(fam, acc, Y):
    """Largest eigenvalue, clamped at 0, of the Hermitian part of
    Y_J acc_J Y_J / |J| per cube J."""
    out = []
    for a, y, vol in zip(acc, Y, fam.volumes):
        X = np.einsum("kab,kbc,kcd->kad", y, a, y) / vol
        X = 0.5 * (X + np.conj(np.swapaxes(X, 1, 2)))
        # eigvalsh on purpose: a 2 x 2 closed form moves the rounding-level Buckley slack
        # (min_eig_slack) off its eigvalsh oracle, 9.0e-16 -> 1.4e-15
        out.append(np.maximum(np.linalg.eigvalsh(X)[:, -1], 0.0))
    return out


def carleson_norm(W, U, A, p):
    """The Carleson embedding quantity sup_K (1/|K|) sum_{I in D(K)}
    ||V_I(W) A_I^eps V_K(U)^{-1}||^2, plus its PSD-ordering constant.

    extras carry the smallest C with
    (1/|K|) sum (A_I^eps)^* V_I(W)^2 A_I^eps <= C V_K(U)^2 per K (largest
    generalized eigenvalue) and the dimensional band check C <= B <= n C.
    """
    win = _same_window(W, U, A)
    fam = _OwnGrid(win)
    VA = [_sandwich(c, (V,)) for c, V in zip(A.coefs, fam.reducing(W, p))]
    Uinv = fam.reducing_inv(U, p)
    per_level = []
    for jK, Ui in enumerate(Uinv):
        # K's block of each level below (a copy in d >= 2) is dropped before the norms
        prods = (_sandwich(win.descendants_view(VA[jI], jK, jI).reshape(len(Ui), -1, *Ui.shape[1:]),
                           (), (Ui,)) for jI in range(jK, win.depth))
        sums = sum(np.sum(_opnorms(M) ** 2, axis=1) for M in prods)
        per_level.append(sums / win.volumes[jK])
    rep = _sup_report("carleson_norm", fam, per_level, {"p": p})
    psd = _psd_top(fam, _psd_sums(fam, VA), Uinv)
    psd_rep = _sup_report("carleson_psd", fam, psd, {"p": p})
    C, Bv = psd_rep.supremum, rep.supremum
    tol = 1e-8 * max(1.0, Bv)
    rep.extras["psd_constant"] = C
    rep.extras["psd_witness"] = psd_rep.witness
    rep.extras["psd_band_ok"] = bool(C <= Bv + tol and Bv <= W.n * C + tol)
    return rep


def hlw_condition(B, W, U):
    """Smallest C with sum m_I(U^{-1}) (B_I^eps)^* (m_I W) B_I^eps m_I(U^{-1})
    <= C U^{-1}(J) over J; the p = 2 testing condition."""
    fam = _OwnGrid(_same_window(B, W, U))
    aW, aUi = W.level_averages(), U.inverse().level_averages()
    M = [_sandwich(c, (), (a,)) for c, a in zip(tf.analyze(B).coefs, aUi)]
    acc = _psd_sums(fam, M, aW)
    vals = _psd_top(fam, acc, [_mat_isqrt(a) for a in aUi[: fam.top]])
    return _sup_report("hlw_condition", fam, vals, {"p": 2})


# -- weight summation conditions (p = 2) --------------------------------------


def buckley_fkp_summation(W):
    """The three p = 2 summation conditions on a weight's own coefficients.

    Returns (fkp, buckley, isral) reports: the normalized square-sum against
    (m_I W)^{-1/2} sandwiches, the smallest C in
    (1/|J|) sum W_I^eps (m_I W)^{-1} W_I^eps <= C m_J W, and the smallest C
    in the corresponding inverse-average ordering.  The buckley report's
    extras carry min_eig_slack, the smallest eigenvalue of
    C m_J W - (1/|J|) sum W_I^eps (m_I W)^{-1} W_I^eps over J (>= 0 up to
    rounding).
    """
    fam = _OwnGrid(W.window)
    Ws = tf.analyze(W).coefs
    aW, aWi = W.level_averages()[: fam.top], W.inverse().level_averages()
    isq = [_mat_isqrt(a) for a in aW]
    fkp = _sup_report("fkp", fam, _coef_sums(fam, Ws, isq, isq), {"p": 2})
    bacc = _psd_sums(fam, Ws, [np.linalg.inv(a) for a in aW])
    buckley = _sup_report("buckley", fam, _psd_top(fam, bacc, isq), {"p": 2})
    slack = np.inf
    for a, m, vol in zip(bacc, aW, fam.volumes):
        R = buckley.supremum * m - a / vol
        R = 0.5 * (R + np.conj(np.swapaxes(R, 1, 2)))
        slack = min(slack, float(np.min(np.linalg.eigvalsh(R))))
    buckley.extras["min_eig_slack"] = slack
    iacc = _psd_sums(fam, [_sandwich(c, (), (a,)) for c, a in zip(Ws, aWi)], aWi)
    isqi = [_mat_isqrt(a) for a in aWi[: fam.top]]
    isral = _sup_report("isral_summation", fam, _psd_top(fam, iacc, isqi), {"p": 2})
    return fkp, buckley, isral


# -- H^1, pairing, duality ------------------------------------------------------


def _hardy_square(Phi, W, U):
    """S_{W^{-1},D} M_U Phi per leaf."""
    _same_window(Phi, W, U)
    return tf.weighted_square_function(W.inverse(), tf.mu_multiplier(U, Phi))


def h1_norm(Phi, W, U):
    """||S_{W^{-1},D} M_U Phi||_{L^1}, the p = 2 Hardy-space norm."""
    return _h1_of(Phi.window, _hardy_square(Phi, W, U))


def _h1_of(win, s):
    """The L^1 norm of leaf values ``s``."""
    return float(win.leaf_volume * np.sum(s))


def square_function_level_sets(Phi, W, U):
    """Diagnostic level sets {x : S_{W^{-1}} M_U Phi > 2^k} at leaf scale.

    Returns a list of (k, measure) for the dyadic thresholds that the
    square function actually crosses; measures are exact multiples of the
    leaf volume and decrease in k.
    """
    return _level_sets_of(Phi.window, _hardy_square(Phi, W, U))


def _level_sets_of(win, s):
    """The level sets of ``square_function_level_sets`` for leaf values ``s``."""
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
    lv = _same_window(Phi, B).leaf_volume
    return complex(lv * np.einsum("lab,lab->", Phi.leaves, np.conj(B.leaves)))


def frobenius_pairing_spectral(Phi, B):
    """The same pairing summed over Haar coefficients plus the root term."""
    win = _same_window(Phi, B)
    ps, bs = tf.analyze(Phi), tf.analyze(B)
    total = complex(np.einsum("ab,ab->", ps.root, np.conj(bs.root)) * win.volumes[0])
    for j in range(win.depth):
        total += complex(
            np.einsum("ksab,ksab->", ps.coefs[j], np.conj(bs.coefs[j]))
        )
    return total


def a2_spectral(W):
    """sup_I ||(m_I W)^{1/2} (m_I W^{-1})^{1/2}||^2 in the spectral norm."""
    roots, dual_roots = W.reducing_table(2).mats, W.reducing_table(2, dual=True).mats
    best = 0.0
    for j in range(W.window.depth + 1):
        M = roots[j] @ dual_roots[j]
        best = max(best, float(np.max(_opnorms(M) ** 2)))
    return best


def extremal_h1_instance(B, W, U, root=(0, 0)):
    """The duality proof's extremal matrix field below a cube J, ``root``:
    a window cube or its (level, index).

    Builds S_{J,W,U}^* from the optimizing coefficient sequence for the
    pairing against B (unit Frobenius-l2 normalization) and returns
    (field, pairing, predicted_pairing, h1, h1_bound) where
    h1_bound = a2_spectral(W)^{1/2} |J|^{1/2} is the exact inequality the
    construction satisfies.
    """
    root = _rel(_same_window(B, W, U), root)
    return _extremal_instance(B, W, U, root, a2_spectral(W))


def _extremal_instance(B, W, U, root, a2W):
    """``extremal_h1_instance`` for a checked window and a2W = a2_spectral(W)."""
    win = W.window
    jr, kr = root
    Bs = tf.analyze(B)
    roots, aU = W.reducing_table(2).mats, U.level_averages()
    dtype = np.result_type(B.leaves, W.leaves, U.leaves)
    spec = tf.HaarSpectrum(
        win, [np.zeros(c.shape, dtype) for c in Bs.coefs], np.zeros((W.n, W.n), dtype)
    )
    frob_sq = 0.0
    for j in range(jr, win.depth):
        sel = win.descendants_view(np.arange(win.cubes_at(j)), jr, j)[kr]  # ascending
        sq = roots[j][sel]
        isq = _mat_isqrt(aU[j][sel])
        X = _sandwich(Bs.coefs[j][sel], (sq,), (isq,))
        # optimal sequence S_I = X_I^H / ||{X}||, so the S* coefficients are
        # (m_I W)^{1/2} X_I (m_I U)^{-1/2} / ||{X}||
        frob_sq += float(np.sum(np.abs(X) ** 2))
        spec.coefs[j][sel] = _sandwich(X, (sq,), (isq,))
    scale = np.sqrt(frob_sq)
    if scale == 0:
        field = tf.synthesize(spec)
        return field, 0.0, 0.0, 0.0, 0.0
    for j in range(win.depth):
        spec.coefs[j] /= scale
    field = tf.synthesize(spec)
    pairing = frobenius_pairing(field, B)
    volJ = win.volumes[jr]
    h1 = _h1_of(win, _hardy_square(field, W, U))
    bound = np.sqrt(a2W) * np.sqrt(volJ)
    return field, complex(pairing), scale, h1, float(bound)


def duality_experiment(spec):
    """Pairing-ratio sweep for the p = 2 duality statement.

    spec: the ensemble keys of ``_ensemble`` (seeds default to 0..19).  Each
    seed draws weights W, U with window A2 at most char_cap, a random
    symbol B and a random test field Phi, and records the upper-direction
    ratio |<Phi,B>| / (A2(W)^{1/2} cond_b(B)^{1/2} ||Phi||_{H^1}) plus the
    extremal-instance lower-direction data and its hard H^1 bound check.
    """
    rows = []
    for seed, rng, win, n, draw in _ensemble(spec, range(20)):
        W, U = draw(), draw()
        B = random_matrix_field(win, n, rng)
        Phi = random_matrix_field(win, n, rng)
        pairing = frobenius_pairing(Phi, B)
        cb = condition_b(W, U, tf.analyze(B), 2.0).supremum
        square = _hardy_square(Phi, W, U)
        h1 = _h1_of(win, square)
        a2W = a2_spectral(W)
        denom = np.sqrt(a2W) * np.sqrt(cb) * h1
        upper_ratio = abs(pairing) / denom if denom > 0 else 0.0
        _, pairS, predicted, h1S, bound = _extremal_instance(B, W, U, (0, 0), a2W)
        # Frobenius condition-(b) mass below the root: predicted^2 / |J|
        cbJ = predicted**2 / win.volumes[0]
        lower_denom = h1S * np.sqrt(cbJ)
        lower_ratio = abs(pairS) / lower_denom if lower_denom > 0 else 0.0
        # a second extremal instance below a random strictly deeper cube
        jdeep = int(rng.integers(1, max(2, win.depth - 1)))
        kdeep = int(rng.integers(0, win.cubes_at(jdeep)))
        _, pairD, predD, h1D, boundD = _extremal_instance(B, W, U, (jdeep, kdeep), a2W)
        deep_ok = bool(h1D <= boundD * (1 + 1e-9)) and np.isclose(
            abs(pairD), predD, rtol=1e-9, atol=1e-12
        )
        omega = _level_sets_of(win, square)
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


# the weight kinds ``bounded_weight`` draws from a seed and an amplitude alone
_DRAWN_KINDS = ("identity", "log_spd", "rotation", "scalar_power")

# manifest key -> (its value as used, or None when the value is refused;
# what the key asks for)
_MANIFEST = {
    **dict.fromkeys(("n", "d", "depth"), (_count(1), "a positive integer")),
    **dict.fromkeys(("amplitude", "char_cap", "p", "eps"), (_finite, "a finite number")),
    "seeds": (_sequence(lambda s: _count(0)(s) is not None), "a sequence of nonnegative integers"),
    "p_values": (_sequence(lambda p: _finite(p) is not None), "a sequence of finite numbers"),
    "weight_kind": (lambda v: v if isinstance(v, str) and v in _DRAWN_KINDS else None,
                    "one of " + ", ".join(map(repr, _DRAWN_KINDS))),
}


def _manifest(spec, **defaults):
    """The manifest ``spec`` over ``defaults``, each key of ``_MANIFEST`` that
    it gives read through its check.  ValueError, naming the key, for a
    given value of the wrong type or range."""
    given = {}
    for key, (read, what) in _MANIFEST.items():
        if key in spec:
            given[key] = read(spec[key])
            if given[key] is None:
                raise ValueError(f"manifest key {key!r} must be {what}, got {spec[key]!r}")
    return {**defaults, **spec, **given}


def _ensemble(spec, default_seeds):
    """Read the manifest keys n, d, depth, seeds, amplitude, char_cap and
    weight_kind once (``_manifest``); yield (seed, rng, unit window, n, draw)
    per seed, where draw() is ``bounded_weight`` on them under the
    manifest's parameters."""
    spec = _manifest(spec, n=2, d=1, depth=6, amplitude=0.5, char_cap=10.0,
                     weight_kind="log_spd", seeds=default_seeds)
    n, d, depth = spec["n"], spec["d"], spec["depth"]
    params = {
        "amplitude": spec["amplitude"],
        "char_cap": spec["char_cap"],
        "kind": spec["weight_kind"],
    }
    for seed in spec["seeds"]:
        rng = np.random.default_rng(seed)
        win = Window.unit(d, depth)
        yield seed, rng, win, n, partial(bounded_weight, win, n, rng, **params)


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
    """Real random matrix field: Gaussian Haar coefficients scaled by
    sqrt(|I|) on levels below depth - headroom, then a Gaussian root."""
    return tf.synthesize(_random_spectrum(window, (n, n), rng, hermitian, headroom))


def random_vector_field(window, n, rng, headroom=0):
    """Real random vector field, drawn as ``random_matrix_field``."""
    return tf.synthesize(_random_spectrum(window, (n,), rng, False, headroom))


def _random_spectrum(window, valdims, rng, hermitian, headroom):
    coefs = []
    for j in range(window.depth):
        shape = (window.cubes_at(j), window.nsig) + valdims
        if j >= window.depth - headroom:
            coefs.append(np.zeros(shape))
            continue
        a = rng.standard_normal(shape)
        if hermitian:
            a = 0.5 * (a + np.swapaxes(a, -1, -2))
        coefs.append(np.sqrt(window.volumes[j]) * a)
    return tf.HaarSpectrum(window, coefs, rng.standard_normal(valdims))


# -- shifted grid sweep ---------------------------------------------------------


def bmo_over_shifted_grids(B, W, U, p, eps=1.0):
    """bmo_original and condition (b) on each of the 2^d shifted grids.

    Each grid is one cube family: the window's own grid reads its cached
    level data, every other grid its cubes inside the window box at
    matched depth, with exact piecewise integrals.  Returns per-grid values
    and the max across grids.
    """
    win = _same_window(B, W, U)
    out = {"per_grid": {}, "p": p, "eps": eps}
    for t in range(1, 2**win.d + 1):
        bo, cb = _grid_pair(_family(win, t), B, W, U, p, eps)
        out["per_grid"][t] = {"bmo_original": bo, "condition_b": cb}
    out["max_bmo_original"] = max(v["bmo_original"] for v in out["per_grid"].values())
    out["max_condition_b"] = max(v["condition_b"] for v in out["per_grid"].values())
    return out


def _grid_pair(fam, B, W, U, p, eps):
    (bo,) = _bmo_original(fam, B, W, U, p, (eps,))
    coefs = _haar_coefs(fam, fam.means(B))
    return bo.supremum, _condition_b(fam, W, U, coefs, p).supremum


# -- two-weight construction pipeline ------------------------------------------


def matrix_weight_theorem_pipeline(Lam, U, p, eps=1.0):
    """Build W = (U^* Lam^{2/p} U)^{p/2}, verify the pointwise norm identity
    |Lam^{1/p}(x) U(x) e| = |W^{1/p}(x) e|, and evaluate the averaged BMO
    norm of U against the pair (Lam, W).

    The p = 2 special case with Lam close to W^{-1} and U close to W also
    reports the three weight summation constants.
    """
    win = _same_window(Lam, U)
    Uh = np.conj(np.swapaxes(U.leaves, 1, 2))
    core = np.einsum("lab,lbc,lcd->lad", Uh, Lam.power(2.0 / p).leaves, U.leaves)
    # the weight constructor symmetrizes the core and refuses a singular
    # leaf (U not invertible)
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

    spec: the ensemble keys of ``_ensemble`` (seeds default to 0..19) plus
    p_values and eps.  Returns rows of raw quantities and pairwise ratio
    bands of homogeneity-aligned values (every quantity normalized to
    quadratic degree in the symbol).
    """
    spec = _manifest(spec, p_values=[2.0, 3.0, 1.5], eps=1.0)
    p_values, eps = spec["p_values"], spec["eps"]
    rows = []
    for seed, rng, win, n, draw in _ensemble(spec, range(20)):
        W, U = draw(), draw()
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
            op = {"kind": "conjugated_paraproduct", "A": A, "W": W, "U": U, "p": p}
            T = onorm.materialize(op, win, n)
            one = MatrixField.identity(win, n)
            nv, exact = onorm._operator_norm(T, one, one, p, budget=25)
            q["pi_opnorm_sq"], q["pi_opnorm_exact"] = nv**2, exact
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


def jn_experiment(spec):
    """``jn_p2_pair(B, W, eps)`` and ``vector_jn(f, W, p)`` across an ensemble.

    spec: the keys of ``_ensemble`` (seeds default to 0..9) plus p and eps.
    zero_ok checks that the pair of a constant symbol is exactly 0.
    """
    spec = _manifest(spec, p=2.0, eps=1.0)
    p, eps = spec["p"], spec["eps"]
    rows = []
    for seed, rng, win, n, draw in _ensemble(spec, range(10)):
        W = draw()
        B = random_matrix_field(win, n, rng)
        f = random_vector_field(win, n, rng)
        reports = [*jn_p2_pair(B, W, eps), *vector_jn(f, W, p)]
        rows.append({"seed": seed, "a2W": ap_characteristic(W, 2), "reports": reports})
    ((_, _, win, n, draw),) = _ensemble(dict(spec, seeds=[0]), ())
    zero = jn_p2_pair(MatrixField.constant(win, np.eye(n)), draw(), eps)
    return {"rows": rows, "zero_ok": all(rep.supremum == 0.0 for rep in zero)}


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
