"""Independent reference routines that only the tests use.

Each one computes a quantity by a route the library does not take:
adaptive quadrature of the fractional Laplacian's definition, the
positive/negative split of a grid function, and the Grunwald-Letnikov
binomial weights.
"""

import numpy as np
from scipy import integrate

from tsfrac.fraclap import Field, normalization_constant


def quadrature_reference(profile, x0: float, beta: float, a: float, b: float) -> float:
    """Adaptive-quadrature oracle for (-Delta)^beta at one point.

    Evaluates c * int_0^inf (2 u(x0) - u(x0+r) - u(x0-r)) r^(-1-2 beta) dr
    for a callable profile (zero outside (a, b)) with scipy quadrature,
    independent of the matrix assembly: breakpoints at the distances to
    the domain ends, exact power-law tail beyond them.  x0 must be
    interior.
    """
    if not a < x0 < b:
        raise ValueError(f"x0={x0} must lie inside ({a}, {b})")
    c = normalization_constant(beta)
    u0 = float(profile(x0))

    def uu(y):
        return float(profile(y)) if a < y < b else 0.0

    def integrand(r):
        return (2.0 * u0 - uu(x0 + r) - uu(x0 - r)) * r ** (-1.0 - 2.0 * beta)

    r_right = b - x0
    r_left = x0 - a
    rmax = max(r_left, r_right)
    breaks = [p for p in sorted({r_left, r_right}) if 0.0 < p < rmax]
    val, _ = integrate.quad(
        integrand, 0.0, rmax, points=breaks or None, limit=400, epsabs=1e-12, epsrel=1e-10
    )
    tail = 2.0 * u0 * rmax ** (-2.0 * beta) / (2.0 * beta)
    return c * (val + tail)


def sign_split(u: Field) -> tuple[Field, Field]:
    """Split into positive and negative parts: u = u+ - u-, both >= 0, u+ u- = 0."""
    return (
        Field(u.grid, np.maximum(u.values, 0.0)),
        Field(u.grid, np.maximum(-u.values, 0.0)),
    )


def gl_weights(alpha: float, n: int) -> np.ndarray:
    """Grunwald-Letnikov weights w_0..w_n: w_0 = 1, w_j = w_{j-1}(1-(alpha+1)/j).

    These are (-1)^j * binom(alpha, j); partial sums decrease to 0 from
    above (binomial theorem at x = 1).
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if n == 0:
        return np.ones(1)
    j = np.arange(1, n + 1)
    return np.concatenate(([1.0], np.cumprod(1.0 - (alpha + 1.0) / j)))
