"""Stopping time on a pair of matrix weights.

A cube J stops under its current root K when any of the four reducing
operator ratios

    ||V_J(W) V_K(W)^{-1}||,  ||V_J(W)^{-1} V_K(W)||,
    ||V_J(U) V_K(U)^{-1}||,  ||V_K(U) V_J(U)^{-1}||

exceeds lambda.  Generations J^j and blocks F^j are built by the usual
maximal-cube recursion; set measures are exact rationals, so the decay
check |union J^j| <= 2^{-j} |root| carries no rounding slack.

The norms are evaluated lazily, one level of a root's subtree at a time and
only for the cubes the recursion reaches: the children of cubes that did
not stop.  Stopped cubes and blocks are listed in the order of a depth-first
walk from the root.

The threshold the theory calls "lambda large enough" is found empirically:
default_lambda doubles lambda until the decay bound verifies on the
window, and the realized value is always reported.
"""

from __future__ import annotations

import json
import math
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
        """|union J^j| / |root| per generation, exact."""
        jr = self.root[0]
        out = []
        for gen in self.generations:
            out.append(sum(Fraction(1, 2 ** (self.window.d * (j - jr))) for j, _ in gen))
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


def _dfs_order(parts):
    """(level, index) tuples of the (level, indices, keys) parts by key."""
    levels = np.concatenate([np.full(len(idx), j) for j, idx, _ in parts])
    idx = np.concatenate([idx for _, idx, _ in parts])
    order = np.argsort(np.concatenate([keys for _, _, keys in parts]))
    return list(zip(levels[order].tolist(), idx[order].tolist())), order


def _select(win, tw, tu, root, lam):
    """Maximal stopped descendants of root, their four norms, and the block
    F(root), each in the order of a depth-first walk that pops the last
    child first.

    The subtree is walked one level at a time.  Every visited cube carries a
    path key: one base-(2^d + 1) digit per level below the root, 2^d minus
    its child position, and 0 below its own level, so sorting by the key
    restores the depth-first order with each ancestor before its
    descendants.  The keys stay below (2^d + 1)^depth, far inside int64 for
    any window that fits in memory.
    """
    jr, kr = root
    if jr == win.depth:
        return [], [], [root]
    digits = win.nchild - np.arange(win.nchild)
    front, keys = np.array([kr]), np.zeros(1, dtype=np.int64)
    stopped, norms, block = [], [], [(jr, front, keys)]
    for j in range(jr + 1, win.depth + 1):
        if not front.size:
            break
        front = win.children_index(j - 1)[front].ravel()
        place = (win.nchild + 1) ** (win.depth - j)
        keys = (keys[:, None] + digits * place).ravel()
        stats = np.stack([
            _opnorms(tw.mats[j][front] @ tw.inv(jr)[kr]),
            _opnorms(tw.inv(j)[front] @ tw.mats[jr][kr]),
            _opnorms(tu.mats[j][front] @ tu.inv(jr)[kr]),
            _opnorms(tu.mats[jr][kr] @ tu.inv(j)[front]),
        ], axis=1)
        stop = stats.max(axis=1) > lam
        stopped.append((j, front[stop], keys[stop]))
        norms.append(stats[stop])
        front, keys = front[~stop], keys[~stop]
        block.append((j, front, keys))
    stopped, order = _dfs_order(stopped)
    return stopped, np.concatenate(norms)[order].tolist(), _dfs_order(block)[0]


def _forest(W, U, p, root, lam):
    win = W.window
    if not 1.0 < lam < math.inf:
        raise StoppingError(f"lambda must be finite and exceed 1, got {lam}")
    tw, tu = W.reducing_table(p), U.reducing_table(p)
    generations, blocks, norms = [], [], {}
    current = [root]
    while current:
        gen, blk = [], []
        for K in current:
            st, nm, bl = _select(win, tw, tu, K, lam)
            gen.extend(st)
            blk.extend(bl)
            norms.update(zip(st, nm))
        generations.append(gen)
        blocks.append(blk)
        current = gen
    # the trailing empty generation is bookkeeping noise
    generations.pop()
    forest = StoppingForest(
        window=win, root=root, lam=float(lam), p=float(p),
        generations=generations, blocks=blocks, stopped_norms=norms,
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
