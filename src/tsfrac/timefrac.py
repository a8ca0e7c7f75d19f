"""Discrete time-fractional derivatives and their sign/convexity structure.

The regularized fractional derivative d^alpha/dt^alpha (u - u(0)) is
discretized by the L1 scheme (piecewise-linear convolution quadrature,
positive decreasing weights, order 2-alpha).  On top of the L1
derivative sit two verification tools:

* per-index checkers for the convex-part inequalities that follow from
  the convolution-derivative product identity when H is the squared
  positive part and k is nonnegative nonincreasing;
* the extremum sign check: at a discrete global max (min) the L1
  derivative of u - u(0) is >= 0 (<= 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import TimeSeries, check_order, convolve

__all__ = [
    "ConvexVerdicts",
    "l1_weights",
    "caputo_l1",
    "convex_inequality_check",
    "rl_extremum_sign",
]


def l1_weights(alpha: float, tau: float, n: int) -> np.ndarray:
    """L1 weights b_j = tau^(-alpha) ((j+1)^(1-alpha) - j^(1-alpha)) / Gamma(2-alpha).

    Strictly positive and strictly decreasing in j (concavity of j^(1-alpha)).
    """
    check_order("alpha", alpha)
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if not tau > 0:
        raise ValueError(f"tau must be positive, got {tau}")
    j = np.arange(n + 1, dtype=float)
    return tau ** (-alpha) * ((j + 1.0) ** (1.0 - alpha) - j ** (1.0 - alpha)) / math.gamma(2.0 - alpha)


def caputo_l1(u: TimeSeries, alpha: float, n: int) -> float:
    """L1-discrete d^alpha/dt^alpha (u - u_0) at t_n.

    sum_{j=0}^{n-1} b_j (u_{n-j} - u_{n-j-1}) with the L1 weights b_j.
    Exactly zero for constant u; n = 0 returns 0 by convention (empty sum).
    """
    if not 0 <= n <= len(u) - 1:
        raise ValueError(f"index n={n} outside series of length {len(u)}")
    b = l1_weights(alpha, u.tau, max(n - 1, 0))[:n]
    v = u.values
    return float(np.dot(b, (v[1 : n + 1] - v[:n])[::-1]))


@dataclass(frozen=True)
class ConvexVerdicts:
    """Per-index outcomes of the two convex-part inequalities.

    Arrays are indexed like the input series; entry 0 is vacuously True
    (no completed step).  ``plus_part``: u+_n D(k*u)_n >= 1/2 D(k*(u+)^2)_n
    within tol; ``minus_part``: u-_n D(k*u)_n <= -1/2 D(k*(u-)^2)_n within
    tol, which is the ``plus_part`` inequality for -u, since (-u)+ = u-.
    """

    plus_part: np.ndarray
    minus_part: np.ndarray

    def all_ok(self) -> bool:
        return bool(np.all(self.plus_part) and np.all(self.minus_part))


def convex_inequality_check(u: TimeSeries, k: TimeSeries) -> ConvexVerdicts:
    """Check the convex-part inequalities of the fractional calculus at every index.

    The difference quotient D at index n spans the last completed cell
    [t_{n-1}, t_n] and is paired with the parts of u at its right endpoint
    t_n; in that pairing the inequalities hold in exact arithmetic for any
    kernel whose samples are nonnegative and nonincreasing (Abel summation
    plus convexity of the squared positive part), so the tolerance only
    absorbs roundoff: tol = 1e-10 * max(1, ||u||_inf^2 * ||k||_L1).

    The kernel samples are required to be nonnegative and nonincreasing;
    for a hump-shaped kernel (e.g. the mollified power-law family) the
    inequalities are genuinely false, so such input is rejected rather
    than reported as a violation.
    """
    if not np.all(np.isfinite(k.values)):
        raise ValueError("kernel samples must be finite; use a regularized kernel")
    if np.any(k.values < 0.0) or np.any(np.diff(k.values) > 0.0):
        raise ValueError(
            "convexity inequalities require a nonnegative nonincreasing kernel "
            "(use monotone_regularized_kernel)"
        )
    tau = u.tau
    v = u.values
    up = np.maximum(v, 0.0)
    um = np.maximum(-v, 0.0)
    knorm = tau * float(np.sum(np.abs(k.values)))
    tol = 1e-10 * max(1.0, float(np.max(np.abs(v))) ** 2 * knorm)

    def ts(vals):
        return TimeSeries(tau, vals)

    cu = convolve(k, u).values
    cp2 = convolve(k, ts(up**2)).values
    cm2 = convolve(k, ts(um**2)).values

    def D(x):
        return (x[1:] - x[:-1]) / tau

    s_plus = up[1:] * D(cu) - 0.5 * D(cp2)
    s_minus = -(um[1:] * D(cu) + 0.5 * D(cm2))
    pad = np.array([True])
    return ConvexVerdicts(
        plus_part=np.concatenate([pad, s_plus >= -tol]),
        minus_part=np.concatenate([pad, s_minus >= -tol]),
    )


def rl_extremum_sign(u: TimeSeries, alpha: float, n0: int, mode: str) -> tuple[float, bool]:
    """L1-discrete derivative of u - u_0 at a global extremum index, plus verdict.

    At a discrete global max over 0..M the value is >= 0 exactly (and <= 0
    at a min); the verdict allows -tol (max mode) or +tol (min mode) of
    roundoff, with tol = 1e-10 * tau^(-alpha) * max(1, range of u).
    The index must satisfy n0 >= 1 and actually attain the extremum.
    """
    if mode not in ("max", "min"):
        raise ValueError(f"mode must be 'max' or 'min', got {mode!r}")
    if n0 < 1:
        raise ValueError("extremum sign check needs n0 >= 1 (t must be positive)")
    if not 0 <= n0 <= len(u) - 1:
        raise ValueError(f"index n0={n0} outside series of length {len(u)}")
    v = u.values
    if mode == "max" and v[n0] < np.max(v):
        raise ValueError(f"u does not attain its maximum at n0={n0}")
    if mode == "min" and v[n0] > np.min(v):
        raise ValueError(f"u does not attain its minimum at n0={n0}")
    value = caputo_l1(u, alpha, n0)
    tol = 1e-10 * u.tau ** (-alpha) * max(1.0, float(np.ptp(v)))
    ok = value >= -tol if mode == "max" else value <= tol
    return value, bool(ok)
