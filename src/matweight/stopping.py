"""Stopping time on a pair of matrix weights.

A cube J stops under its current root K when any of the four reducing
operator ratios

    ||V_J(W) V_K(W)^{-1}||,  ||V_J(W)^{-1} V_K(W)||,
    ||V_J(U) V_K(U)^{-1}||,  ||V_K(U) V_J(U)^{-1}||

exceeds lambda.  Generations J^j and blocks F^j are those of the usual
maximal-cube recursion; set measures are exact rationals, so the decay
check |union J^j| <= 2^{-j} |root| carries no rounding slack.

A cube's generation is the number of stopped cubes on its path from the
root, so the forest comes from one walk of the root's subtree, a level at a
time, that weighs each cube once against its nearest stopped ancestor or
the root.  Stopped cubes and blocks are listed in the order of a depth-first
walk from the root that takes the last child first; a cube's place in it
follows from where its leaf run ends in tree order.

The threshold the theory calls "lambda large enough" is found empirically:
default_lambda doubles lambda until the decay bound verifies on the
window, and the realized value is always reported.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from functools import cache

import numpy as np

from .fields import _opnorms, _rel, _same_window

__all__ = [
    "StoppingError",
    "LambdaSearchError",
    "StoppingForest",
    "DecayReport",
    "build",
    "verify_decay",
    "default_lambda",
    "dump_forest",
]

LAMBDA_CAP = 2.0**20


class StoppingError(ValueError):
    pass


class LambdaSearchError(StoppingError):
    pass


@dataclass
class StoppingForest:
    window: object
    root: tuple
    lam: float
    p: float
    generations: list  # J^j, j >= 1, lists of (level, index)
    blocks: list  # F^j, j >= 1
    stopped_norms: dict  # (level, index) -> 4 realized norms
    decay_ratios: list = dc_field(default_factory=list)  # exact Fractions

    def union_measures(self):
        """|union J^j| / |root| per generation, exact: the generation's leaf
        count, from its cube count per level, over the root's."""
        d, depth = self.window.d, self.window.depth
        out = []
        for gen in self.generations:
            leaves = sum(c << d * (depth - j) for j, c in Counter(j for j, _ in gen).items())
            out.append(Fraction(leaves, 1 << d * (depth - self.root[0])))
        return out

    def cube_addresses(self, cubes):
        """Addresses of (level, index) cubes, formatted a level at a time."""
        levels = np.array([j for j, _ in cubes], dtype=int)
        idx = np.array([k for _, k in cubes], dtype=np.int64)
        out = np.empty(len(cubes), dtype=object)
        for j in np.unique(levels).tolist():
            at = levels == j
            out[at] = self.window.addresses(j, idx[at])
        return out.tolist()


def _by_generation(level, idx, gen):
    """(level, index) lists of generations 0, 1, ... of cubes sorted by it."""
    cuts = np.cumsum(np.bincount(gen)).tolist()
    return [list(zip(level[a:b].tolist(), idx[a:b].tolist()))
            for a, b in zip([0] + cuts, cuts)]


def _forest(W, U, p, root, lam):
    """The stopping forest below root from one walk of its subtree.  Every
    cube carries its generation and its owner: the row of its nearest
    stopped ancestor, or of the root, in one growing stack of root factors
    (V_K(W)^{-1}, V_K(W), V_K(U)^{-1}, V_K(U)).
    """
    win, (jr, kr) = W.window, root
    if not 1.0 < lam < math.inf:
        raise StoppingError(f"lambda must be finite and exceed 1, got {lam}")
    tw, tu = W.reducing_table(p), U.reducing_table(p)

    def factors(j, idx):
        return [tw.inv(j)[idx], tw.mats[j][idx], tu.inv(j)[idx], tu.mats[j][idx]]

    span = 1 << win.d * (win.depth - jr)
    front, own, gen = np.array([kr]), np.zeros(1, dtype=int), np.zeros(1, dtype=int)
    owners = factors(jr, front)
    # per level: level, index, generation, stop flag and leaf-run end
    levels = [(np.array([jr]), front, gen, np.zeros(1, dtype=bool), np.array([span]))]
    norms = [np.empty((0, 4))]
    for j in range(jr + 1, win.depth + 1):
        front = win.children_index(j - 1).take(front, 0).ravel()
        own, gen = own.repeat(win.nchild), gen.repeat(win.nchild)
        kw_inv, kw, ku_inv, ku = owners
        # take gathers a stack of small matrices several times faster than []
        stats = np.stack([
            _opnorms(tw.mats[j].take(front, 0) @ kw_inv.take(own, 0)),
            _opnorms(tw.inv(j).take(front, 0) @ kw.take(own, 0)),
            _opnorms(tu.mats[j].take(front, 0) @ ku_inv.take(own, 0)),
            _opnorms(ku.take(own, 0) @ tu.inv(j).take(front, 0)),
        ], axis=1)
        stop = stats.max(axis=1) > lam
        gen = gen + stop
        own = np.where(stop, len(kw) + np.cumsum(stop) - 1, own)
        owners = [np.concatenate([K, F]) for K, F in zip(owners, factors(j, front[stop]))]
        norms.append(stats[stop])
        levels.append((np.full(front.size, j), front, gen, stop,
                       np.arange(1, front.size + 1) << win.d * (win.depth - j)))
    # Each level is in tree order below the root, so the cube at position i
    # of level j ends its leaf run at (i + 1) 2^{d(depth - j)}.  Sorted by
    # generation, then by that end (descending), then by level, the cubes of
    # one generation follow a depth-first walk that takes the last child
    # first.  The three go into one key, below (depth + 1)^2 2^{d depth}.
    level, idx, gen, stop, end = (np.concatenate(a) for a in zip(*levels))
    order = np.argsort(((gen + 1) * span - end) * (win.depth + 1) + level)
    top = order[stop[order]]
    generations = _by_generation(level[top], idx[top], gen[top])[1:]
    rows = np.concatenate(norms)[np.cumsum(stop)[top] - 1].tolist()
    forest = StoppingForest(
        window=win, root=root, lam=float(lam), p=float(p),
        generations=generations,
        blocks=_by_generation(level[order], idx[order], gen[order]),
        stopped_norms=dict(zip((c for g in generations for c in g), rows)),
    )
    forest.decay_ratios = forest.union_measures()
    return forest


def build(W, U, p, root=None, lam=4.0):
    """Stopping forest for the pair (W, U) below ``root``, a window cube or
    its (level, index), (0, 0) by default."""
    root = _rel(_same_window(W, U), (0, 0) if root is None else root)
    return _forest(W, U, p, root, lam)


@dataclass
class DecayReport:
    lam: float
    ratios: list  # exact Fractions |union J^j| / |root|
    bounds: list  # 2^{-j}
    ok: list
    all_ok: bool


def verify_decay(forest):
    """Check |union J^j| <= 2^{-j} |root| per generation."""
    ratios = forest.decay_ratios
    bounds = [Fraction(1, 2 ** (j + 1)) for j in range(len(ratios))]
    ok = [r <= b for r, b in zip(ratios, bounds)]
    return DecayReport(
        lam=forest.lam, ratios=ratios, bounds=bounds, ok=ok, all_ok=all(ok)
    )


def _rule_holds(forest, W, U):
    """The stopping rule re-checked cube by cube with dense 2-norms, apart from
    the level walk: each stopped cube's four ratios against its root exceed
    lambda at their largest and match the recorded norms to 1e-12 relative;
    each block cube below its root has all four at most lambda."""
    tw, tu = W.reducing_table(forest.p), U.reducing_table(forest.p)
    ancestor = cache(forest.window.ancestor_index)

    def ratios(j, k, roots):
        for jr in range(j):
            kr = int(ancestor(j, jr)[k])
            if (jr, kr) in roots:
                mats = (tw.mats[j][k] @ tw.inv(jr)[kr], tw.inv(j)[k] @ tw.mats[jr][kr],
                        tu.mats[j][k] @ tu.inv(jr)[kr], tu.mats[jr][kr] @ tu.inv(j)[k])
                return np.array([np.linalg.norm(M, 2) for M in mats])
        return np.full(4, np.nan)  # no root in the forest: fails both checks

    roots = {forest.root}
    for gen, block in zip(forest.generations + [[]], forest.blocks):
        for j, k in gen:
            r = ratios(j, k, roots)
            err = abs(r - forest.stopped_norms[j, k])
            if not (r.max() > forest.lam and np.all(err <= 1e-12 * r)):
                return False
        below = [ratios(j, k, roots).max() for j, k in block if (j, k) not in roots]
        if not all(m <= forest.lam for m in below):
            return False
        roots = set(gen)
    return True


def default_lambda(W, U, p, root=None):
    """Smallest power of two up to LAMBDA_CAP for which the decay bound
    verifies on the window."""
    root = _rel(_same_window(W, U), (0, 0) if root is None else root)
    lam = 2.0
    while lam <= LAMBDA_CAP:
        forest = _forest(W, U, p, root, lam)
        if verify_decay(forest).all_ok:
            return lam
        lam *= 2.0
    raise LambdaSearchError(
        f"no lambda up to {LAMBDA_CAP:g} verified the decay bound on this window"
    )


def dump_forest(forest, path):
    win = forest.window
    doc = {
        "root": win.cube(*forest.root).address,
        "lambda": forest.lam,
        "p": forest.p,
        "generations": [
            [
                {"cube": addr, "norms": forest.stopped_norms.get(c)}
                for c, addr in zip(gen, forest.cube_addresses(gen))
            ]
            for gen in forest.generations
        ],
        "blocks": [forest.cube_addresses(blk) for blk in forest.blocks],
        "decay_ratios": [float(r) for r in forest.decay_ratios],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
