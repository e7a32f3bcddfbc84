"""Stopping time on a pair of matrix weights.

A cube J stops under its current root K when any of the four reducing
operator ratios

    ||V_J(W) V_K(W)^{-1}||,  ||V_J(W)^{-1} V_K(W)||,
    ||V_J(U) V_K(U)^{-1}||,  ||V_K(U) V_J(U)^{-1}||

exceeds lambda.  Generations J^j and blocks F^j are built by the usual
maximal-cube recursion; set measures are exact rationals, so the decay
check |union J^j| <= 2^{-j} |root| carries no rounding slack.

The threshold the theory calls "lambda large enough" is found empirically:
default_lambda doubles lambda until the decay bound verifies on the
window, and the realized value is always reported.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

import numpy as np

from .fields import _opnorms

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


class _PairStats:
    """max of the four stopping norms for every (cube, ancestor) pair."""

    def __init__(self, W, U, p):
        win = W.window
        tw = W.reducing_table(p)
        tu = U.reducing_table(p)
        self.window = win
        self.table = {}
        for jj in range(win.depth + 1):
            for jk in range(jj):
                anc = win.ancestor_index(jj, jk)
                n1 = _opnorms(tw.mats[jj] @ tw.inv(jk)[anc])
                n2 = _opnorms(tw.inv(jj) @ tw.mats[jk][anc])
                n3 = _opnorms(tu.mats[jj] @ tu.inv(jk)[anc])
                n4 = _opnorms(tu.mats[jk][anc] @ tu.inv(jj))
                self.table[(jj, jk)] = np.stack([n1, n2, n3, n4], axis=1)

    def norms(self, cube, root):
        jj, kj = cube
        jk, kk = root
        if jj == jk:
            return np.ones(4)
        row = self.table[(jj, jk)][kj]
        return row

    def stat(self, cube, root):
        return float(np.max(self.norms(cube, root)))


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
        return [self.window.cube(j, k).address for j, k in cubes]


def _select(stats, root, lam, depth):
    """Maximal stopped descendants of root plus the block F(root)."""
    win = stats.window
    stopped, block = [], [root]
    stack = []
    jr, kr = root
    if jr < depth:
        ch = win.children_index(jr)[kr]
        stack.extend((jr + 1, int(c)) for c in ch)
    while stack:
        cube = stack.pop()
        if stats.stat(cube, root) > lam:
            stopped.append(cube)
            continue
        block.append(cube)
        j, k = cube
        if j < depth:
            stack.extend((j + 1, int(c)) for c in win.children_index(j)[k])
    return stopped, block


def _build_with_stats(stats, root, lam, p):
    win = stats.window
    if lam <= 1.0:
        raise StoppingError(f"lambda must exceed 1, got {lam}")
    generations, blocks, norms = [], [], {}
    current = [root]
    while current:
        gen, blk = [], []
        for K in current:
            st, bl = _select(stats, K, lam, win.depth)
            gen.extend(st)
            blk.extend(bl)
            for c in st:
                norms[c] = stats.norms(c, K).tolist()
        generations.append(gen)
        blocks.append(blk)
        current = gen
        if not gen:
            break
    # the trailing empty generation is bookkeeping noise
    if generations and not generations[-1]:
        generations.pop()
    forest = StoppingForest(
        window=win, root=root, lam=float(lam), p=float(p),
        generations=generations, blocks=blocks, stopped_norms=norms,
    )
    forest.decay_ratios = forest.union_measures()
    return forest


def build(W, U, p, root=None, lam=4.0):
    """Stopping forest for the pair (W, U) below a root cube."""
    win = W.window
    if U.window is not win:
        raise StoppingError("weights live on different windows")
    if root is None:
        root = (0, 0)
    elif not isinstance(root, tuple):
        root = win.rel_index(root)
    stats = _PairStats(W, U, p)
    return _build_with_stats(stats, root, lam, p)


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


def default_lambda(W, U, p, root=None, cap=LAMBDA_CAP):
    """Smallest power of two for which the decay bound verifies on the window."""
    win = W.window
    if root is None:
        root = (0, 0)
    elif not isinstance(root, tuple):
        root = win.rel_index(root)
    stats = _PairStats(W, U, p)
    lam = 2.0
    while lam <= cap:
        forest = _build_with_stats(stats, root, lam, p)
        if verify_decay(forest).all_ok:
            return lam
        lam *= 2.0
    raise LambdaSearchError(
        f"no lambda up to {cap:g} verified the decay bound on this window"
    )


def dump_forest(forest, path):
    win = forest.window
    doc = {
        "root": win.cube(*forest.root).address,
        "lambda": forest.lam,
        "p": forest.p,
        "generations": [
            [
                {
                    "cube": win.cube(j, k).address,
                    "norms": forest.stopped_norms.get((j, k)),
                }
                for j, k in gen
            ]
            for gen in forest.generations
        ],
        "blocks": [forest.cube_addresses(blk) for blk in forest.blocks],
        "decay_ratios": [float(r) for r in forest.decay_ratios],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
