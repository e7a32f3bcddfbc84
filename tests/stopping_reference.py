"""Eager reference implementation of the stopping forest.

This is the construction the library used before it walked each root's
subtree level by level: ``_PairStats`` evaluates the four stopping norms for
every (cube, ancestor) pair of the window up front, and ``_select`` runs the
per-cube depth-first recursion against that table.  The tests compare the
library's forests, and its stopping norms, against it.  ``dump_forest``
writes the forest JSON with every address taken from a ``DyadicCube`` built
through ``Window.cube``, as the library did before it formatted addresses
from index arrays.
"""

import json

import numpy as np

from matweight.fields import _opnorms
from matweight.stopping import StoppingError, StoppingForest


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
        "blocks": [[win.cube(j, k).address for j, k in blk] for blk in forest.blocks],
        "decay_ratios": [float(r) for r in forest.decay_ratios],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
