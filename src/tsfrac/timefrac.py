"""Discrete time-fractional derivatives and their sign/convexity structure.

The regularized fractional derivative d^alpha/dt^alpha (u - u(0)) is
discretized by the L1 scheme (piecewise-linear convolution quadrature,
positive decreasing weights, order 2-alpha).  On top of the L1
derivative sit two verification tools, each stated for one sign:

* a per-index checker for the (u+)^2 convex-part inequality that follows
  from the convolution-derivative product identity when H is the squared
  positive part and k is nonnegative nonincreasing;
* the extremum sign check: at a discrete global max the L1 derivative
  of u - u(0) is >= 0.

The other sign is the same check on -u: (-u)+ = u- turns the (u+)^2
inequality into the (u-)^2 one, and a min of u is a max of -u, where
the L1 derivative, being linear, changes sign exactly.
"""

from __future__ import annotations

import math

import numpy as np

from .kernels import check_order, convolve

__all__ = [
    "l1_weights",
    "caputo_l1",
    "convex_inequality_check",
    "rl_extremum_sign",
]


def l1_weights(alpha: float, tau: float, n: int) -> np.ndarray:
    """L1 weights b_j = tau^(-alpha) ((j+1)^(1-alpha) - j^(1-alpha)) / Gamma(2-alpha).

    Each increment is formed as j^g expm1(g log1p(1/j)), g = 1 - alpha,
    so no two nearly equal powers are subtracted (b_0 has increment 1).
    Strictly positive and strictly decreasing in j (concavity of j^(1-alpha)).
    """
    check_order("alpha", alpha)
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if not tau > 0:
        raise ValueError(f"tau must be positive, got {tau}")
    g = 1.0 - alpha
    j = np.arange(1, n + 1, dtype=float)
    inc = np.concatenate(([1.0], j**g * np.expm1(g * np.log1p(1.0 / j))))
    return tau ** (-alpha) * inc / math.gamma(2.0 - alpha)


def caputo_l1(u: np.ndarray, tau: float, alpha: float, n: int) -> float:
    """L1-discrete d^alpha/dt^alpha (u - u_0) at t_n, for samples u_n at t_n = n*tau.

    sum_{j=0}^{n-1} b_j (u_{n-j} - u_{n-j-1}) with the L1 weights b_j.
    Exactly zero for constant u; n = 0 returns 0 by convention (empty sum).
    """
    v = np.asarray(u, dtype=float)
    if not 0 <= n <= len(v) - 1:
        raise ValueError(f"index n={n} outside series of length {len(v)}")
    b = l1_weights(alpha, tau, max(n - 1, 0))[:n]
    return float(np.dot(b, (v[1 : n + 1] - v[:n])[::-1]))


def convex_inequality_check(u: np.ndarray, k: np.ndarray, tau: float) -> np.ndarray:
    """Check the (u+)^2 convex-part inequality of the fractional calculus at every index.

    u and the kernel k are samples at t_n = n*tau.  Entry n of the
    returned boolean array is the verdict on
    u+_n D(k*u)_n >= 1/2 D(k*(u+)^2)_n within tol; entry 0 is vacuously
    True (no completed step).  The (u-)^2 inequality
    u-_n D(k*u)_n <= -1/2 D(k*(u-)^2)_n is this one for -u, since
    (-u)+ = u-: its verdicts are convex_inequality_check(-u, k, tau).

    The difference quotient D at index n spans the last completed cell
    [t_{n-1}, t_n] and is paired with u+ at its right endpoint t_n; in
    that pairing the inequality holds in exact arithmetic for any kernel
    whose samples are nonnegative and nonincreasing (Abel summation plus
    convexity of the squared positive part), so the tolerance only absorbs
    roundoff: tol = 1e-10 * max(1, ||u||_inf^2 * ||k||_L1).

    The kernel samples are required to be nonnegative and nonincreasing;
    for a hump-shaped kernel (e.g. the mollified power-law family) the
    inequality is genuinely false, so such input is rejected rather
    than reported as a violation.
    """
    k = np.asarray(k, dtype=float)
    if not np.all(np.isfinite(k)):
        raise ValueError("kernel samples must be finite; use a regularized kernel")
    if np.any(k < 0.0) or np.any(np.diff(k) > 0.0):
        raise ValueError(
            "convexity inequalities require a nonnegative nonincreasing kernel "
            "(use monotone_regularized_kernel)"
        )
    v = np.asarray(u, dtype=float)
    up = np.maximum(v, 0.0)
    knorm = tau * float(np.sum(np.abs(k)))
    tol = 1e-10 * max(1.0, float(np.max(np.abs(v))) ** 2 * knorm)
    dcu = np.diff(convolve(k, v, tau)) / tau
    dcp2 = np.diff(convolve(k, up**2, tau)) / tau
    return np.concatenate([[True], up[1:] * dcu - 0.5 * dcp2 >= -tol])


def rl_extremum_sign(u: np.ndarray, tau: float, alpha: float, n0: int) -> tuple[float, bool]:
    """L1-discrete derivative of u - u_0 at a global maximum index, plus verdict.

    u holds samples at t_n = n*tau.  At a discrete global max over 0..M
    the value is >= 0 exactly; the verdict allows -tol of roundoff, with
    tol = 1e-10 * tau^(-alpha) * max(1, range of u).  The index must
    satisfy n0 >= 1 and actually attain the maximum.  At a global min the
    value is <= 0: that is this check on -u, whose value is exactly the
    negated one, as the L1 derivative is odd in u.
    """
    if n0 < 1:
        raise ValueError("extremum sign check needs n0 >= 1 (t must be positive)")
    v = np.asarray(u, dtype=float)
    if not 0 <= n0 <= len(v) - 1:
        raise ValueError(f"index n0={n0} outside series of length {len(v)}")
    if v[n0] < np.max(v):
        raise ValueError(f"u does not attain its maximum at n0={n0}")
    value = caputo_l1(v, tau, alpha, n0)
    tol = 1e-10 * tau ** (-alpha) * max(1.0, float(np.ptp(v)))
    return value, bool(value >= -tol)
