import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from matweight.dyadic import Window
from matweight import bmo, fields


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def win1():
    return Window.unit(1, 5)


@pytest.fixture
def win2():
    return Window.unit(2, 3)


def scalar_field(window, values, weight=False):
    """Wrap a 1-d array of leaf values as an n = 1 MatrixField."""
    arr = np.asarray(values, dtype=float).reshape(-1, 1, 1)
    return fields.MatrixField(window, arr, weight=weight)


def scalar_vector(window, values):
    from matweight.fields import VectorField

    return VectorField(window, np.asarray(values, dtype=complex).reshape(-1, 1))


def random_scalar_weight(rng, depth, lo=0.2, hi=5.0):
    """Positive leaf values with moderate oscillation."""
    L = 2**depth
    logs = np.cumsum(rng.uniform(-0.4, 0.4, L))
    logs -= logs.mean()
    vals = np.exp(logs)
    return np.clip(vals, lo, hi)


def family_ap(fam, W, p):
    """(A_p supremum, witness cube) over one cube family, the way
    ``ap_characteristic_report`` scores each family."""
    val, (i, k) = fields._level_argmax(fields._ap_levels(fam, W, p))
    return val, fam.cube(i, k)


def foreign_grid_bmo(B, W, U, p, eps, t):
    """(bmo_original, condition (b)) over the piecewise family of the grid
    D^t, also when t is the window's own grid."""
    return bmo._grid_pair(fields._ShiftedGrid(B.window, t), B, W, U, p, eps)
