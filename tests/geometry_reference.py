"""Pointwise oracles of the dyadic geometry.

The tensor Haar function evaluated at a point of exact cube geometry, and
the signature of the product of two Haar functions on one cube.  The
library never evaluates a Haar function pointwise, so these live with the
tests that check orthonormality and the product rule against them.
"""

from fractions import Fraction

from matweight.dyadic import GridError, Signature


def signature_product(eps, eps2):
    """Signature psi with h_I^psi = |I|^{1/2} h_I^eps h_I^{eps'} (componentwise XNOR)."""
    if eps.dimension != eps2.dimension:
        raise GridError("signatures must share a dimension")
    return Signature(tuple(1 if a == b else 0 for a, b in zip(eps.bits, eps2.bits)))


def haar_eval(cube, sig, x):
    """Evaluate the tensor Haar function h_I^eps at a point (zero off I).

    Per axis, epsilon_i = 1 gives the normalized indicator and epsilon_i = 0
    the left-minus-right oscillation.
    """
    if sig.dimension != cube.grid.dimension:
        raise GridError("signature dimension must match the cube")
    c, s = cube.corner, cube.side
    if not all(ci <= Fraction(xi) < ci + s for ci, xi in zip(c, x)):
        return 0.0
    val = float(s) ** (-0.5 * cube.grid.dimension)
    for a, (eb, xa) in enumerate(zip(sig.bits, x)):
        if eb == 0 and Fraction(xa) >= c[a] + s / 2:
            val = -val
    return val
