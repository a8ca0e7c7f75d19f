"""Power-law kernels, mollifiers, and discrete causal convolution.

The memory of the time-fractional derivative is carried by the kernel
``g_gamma(t) = t^(gamma-1) / Gamma(gamma)``.  Because ``g_gamma`` blows up
at t = 0 for gamma < 1, the weak-form machinery works with regularized
kernels: the mollified family ``g_{1-alpha} * h_m`` with the exponential
mollifier ``h_m(t) = m exp(-m t)``, and the completely monotone family
``m E_alpha(-m t^alpha)`` used by the convexity checks, which need a
nonincreasing kernel.  Both are nonnegative, lie in W^{1,1}, and converge
to ``g_{1-alpha}`` in L^1 as m grows.

A Mittag-Leffler evaluator doubles as the closed-form relaxation oracle
for the time stepper.  All operations are pure functions of immutable
inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import integrate, special

__all__ = [
    "TimeMesh",
    "TimeSeries",
    "g_kernel",
    "g_cell_integral",
    "h_kernel",
    "regularized_kernel",
    "monotone_regularized_kernel",
    "convolve",
    "mittag_leffler",
]


def check_order(name: str, value: float) -> None:
    """Raise ValueError unless the fractional order ``name`` lies in the open interval (0, 1)."""
    if not 0.0 < value < 1.0:
        raise ValueError(f"{name} must lie in (0,1), got {value}")


@dataclass(frozen=True)
class TimeMesh:
    """Uniform time mesh 0 = t_0 < t_1 < ... < t_M = T with M >= 1 steps."""

    T: float
    M: int

    def __post_init__(self):
        if not self.T > 0:
            raise ValueError(f"time horizon must be positive, got T={self.T}")
        if self.M < 1:
            raise ValueError(f"need at least one time step, got M={self.M}")

    @property
    def tau(self) -> float:
        return self.T / self.M

    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.M + 1)


@dataclass(frozen=True)
class TimeSeries:
    """Values sampled on a uniform mesh: values[n] lives at t_n = n*tau."""

    tau: float
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        if not self.tau > 0:
            raise ValueError(f"tau must be positive, got {self.tau}")
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1 or vals.size < 1:
            raise ValueError("values must be a nonempty 1-D sequence")
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return self.values.size


def g_kernel(gamma: float, t):
    """Evaluate g_gamma(t) = t^(gamma-1)/Gamma(gamma) for gamma in (0,1], t > 0.

    Strictly positive; for gamma < 1 it diverges as t -> 0+, which is why
    t = 0 is rejected.  Accepts scalars or arrays in t.
    """
    if not 0.0 < gamma <= 1.0:
        raise ValueError(f"gamma must lie in (0,1], got {gamma}")
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0.0):
        raise ValueError("g_kernel requires t > 0")
    out = t ** (gamma - 1.0) / special.gamma(gamma)
    return float(out) if out.ndim == 0 else out


def g_cell_integral(gamma: float, t0: float, t1: float) -> float:
    """Exact mass of g_gamma over [t0, t1], 0 <= t0 <= t1.

    Equals (t1^gamma - t0^gamma)/Gamma(gamma+1); finite down to t0 = 0,
    which is how the singular first cell of every quadrature here is
    handled.
    """
    if not 0.0 < gamma <= 1.0:
        raise ValueError(f"gamma must lie in (0,1], got {gamma}")
    if t0 < 0.0 or t1 < t0:
        raise ValueError("need 0 <= t0 <= t1")
    return (t1**gamma - t0**gamma) / special.gamma(gamma + 1.0)


def h_kernel(m: int, t):
    """Mollifier h_m(t) = m*exp(-m*t); nonnegative with unit mass on [0,inf)."""
    if m < 1:
        raise ValueError(f"m must be a positive integer, got {m}")
    t = np.asarray(t, dtype=float)
    if np.any(t < 0.0):
        raise ValueError("h_kernel requires t >= 0")
    out = m * np.exp(-m * t)
    return float(out) if out.ndim == 0 else out


def regularized_kernel(alpha: float, m: int, mesh: TimeMesh) -> TimeSeries:
    """Sample the mollified kernel (g_{1-alpha} * h_m) on the mesh nodes.

    The convolution integral over [0, t_n] is formed cell by cell: the cell
    touching s = 0 carries the exact power-law mass of g_{1-alpha} (the
    t^(-alpha) singularity integrated analytically), every other cell uses
    the midpoint value; the smooth factor h_m is frozen at the cell
    midpoint throughout.  All entries are >= 0 and the value at t = 0 is 0,
    unlike the raw kernel which blows up there.

    Note this family is not monotone: it rises from 0 to a hump at
    t = O(1/m) before decaying alongside g_{1-alpha}.  Checks that need a
    nonincreasing kernel use :func:`monotone_regularized_kernel`.
    """
    check_order("alpha", alpha)
    if m < 1:
        raise ValueError(f"m must be a positive integer, got {m}")
    tau = mesh.tau
    M = mesh.M
    # Per-cell mass of g_{1-alpha}: exact on the singular cell, midpoint after.
    mids = (np.arange(M) + 0.5) * tau
    gmass = np.empty(M)
    gmass[0] = g_cell_integral(1.0 - alpha, 0.0, tau)
    if M > 1:
        gmass[1:] = tau * g_kernel(1.0 - alpha, mids[1:])
    hmid = h_kernel(m, mids)  # h_m((q + 1/2) tau), q = 0..M-1
    # out[n] = sum_{j<n} gmass[j] * h_m(t_n - mid_j) = (gmass * hmid)[n-1]
    out = np.empty(M + 1)
    out[0] = 0.0
    out[1:] = np.convolve(gmass, hmid)[:M]
    return TimeSeries(tau, out)


def monotone_regularized_kernel(alpha: float, m: int, mesh: TimeMesh) -> TimeSeries:
    """Sample the completely monotone regularization m*E_alpha(-m*t^alpha).

    This is the resolvent-type regularization of g_{1-alpha}: finite at
    t = 0 (value m), strictly decreasing, nonnegative, in W^{1,1}, and
    converging to g_{1-alpha} in L^1 as m grows.  The convexity
    inequalities of the time-fractional calculus hold exactly at the
    discrete level only for nonincreasing kernels, so they are checked
    against this family.
    """
    check_order("alpha", alpha)
    if m < 1:
        raise ValueError(f"m must be a positive integer, got {m}")
    t = mesh.times()
    vals = np.empty(t.size)
    vals[0] = float(m)
    for i in range(1, t.size):
        vals[i] = m * mittag_leffler(alpha, -m * t[i] ** alpha)
    return TimeSeries(mesh.tau, vals)


def convolve(k: TimeSeries, u: TimeSeries) -> TimeSeries:
    """Discrete causal convolution (k*u)(t_n) by the left-rectangle rule.

    out[n] = tau * sum_{j=0}^{n-1} k_j * u_{n-j}; the entry at n depends
    only on samples up to n and the map is linear in u.
    """
    if len(k) != len(u):
        raise ValueError(f"length mismatch: kernel {len(k)} vs signal {len(u)}")
    if abs(k.tau - u.tau) > 1e-14 * max(k.tau, u.tau):
        raise ValueError(f"mesh mismatch: tau {k.tau} vs {u.tau}")
    tau = u.tau
    M = len(u) - 1
    out = np.zeros(M + 1)
    if M == 0:
        return TimeSeries(tau, out)
    out[1:] = tau * np.convolve(k.values[:M], u.values[1 : M + 1])[:M]
    return TimeSeries(tau, out)


def _ml_series(alpha: float, z: float) -> float:
    """Power series sum_k z^k/Gamma(alpha k + 1), term-ratio stopping."""
    terms = [1.0]
    total = 1.0
    loga = math.log(abs(z)) if z != 0.0 else -math.inf
    for k in range(1, 10_001):
        try:
            mag = math.exp(k * loga - special.gammaln(alpha * k + 1.0))
        except OverflowError:
            # Only reachable for large positive z, where E_alpha overflows too.
            return math.inf
        term = mag if z >= 0.0 or k % 2 == 0 else -mag
        terms.append(term)
        total += term
        if not math.isfinite(total):
            return math.inf  # positive z beyond float64 range
        if abs(term) < 1e-15 * abs(total):
            return float(math.fsum(terms))
    raise RuntimeError(
        f"Mittag-Leffler series did not converge within 10000 terms "
        f"(alpha={alpha}, z={z})"
    )


def _ml_asymptotic(alpha: float, z: float) -> tuple[float, float]:
    """Asymptotic expansion -sum_{k>=1} z^(-k)/Gamma(1-alpha k) for z << 0.

    Returns the optimally truncated sum and the magnitude of its smallest
    nonzero term, which estimates the truncation error.
    """
    total = 0.0
    best = math.inf
    zk = 1.0
    for k in range(1, 51):
        zk *= z
        term = -special.rgamma(1.0 - alpha * k) / zk
        if abs(term) > best:
            break  # optimal truncation: stop once terms start growing
        total += term
        if term != 0.0:
            best = abs(term)
    return total, best


def _ml_spectral(alpha: float, x: float) -> float:
    """E_alpha(-x) for x > 0 via the spectral (complete-monotonicity) integral.

    E_alpha(-x) = sin(pi alpha)/(pi alpha) *
                  int_0^inf exp(-(x w)^(1/alpha)) / (w^2 + 2 w cos(pi alpha) + 1) dw,
    a smooth positive integrand.  Used in the mid range where the power
    series cancels catastrophically in double precision.
    """
    c = math.cos(math.pi * alpha)
    p = 1.0 / alpha

    def integrand(w):
        return math.exp(-((x * w) ** p)) / (w * (w + 2.0 * c) + 1.0)

    # All mass sits where (x*w)^(1/alpha) is O(1); split there to help quad.
    split = 45.0**alpha / x
    head, _ = integrate.quad(integrand, 0.0, split, epsabs=1e-14, epsrel=1e-12, limit=200)
    tail, _ = integrate.quad(integrand, split, np.inf, epsabs=1e-14, epsrel=1e-12, limit=200)
    return math.sin(math.pi * alpha) / (math.pi * alpha) * (head + tail)


def mittag_leffler(alpha: float, z: float) -> float:
    """One-parameter Mittag-Leffler function E_alpha(z) for real z.

    Regimes: the power series sum z^k / Gamma(alpha*k + 1) with term-ratio
    stopping (|term| < 1e-15 * |sum|) wherever it is numerically sound; the
    asymptotic expansion -sum_{k>=1} z^(-k)/Gamma(1-alpha*k) for z < -10
    wherever its smallest term is below 1e-15 of the sum (near alpha = 1
    the expansion stalls just past z = -10); and the spectral integral
    everywhere else, in particular on the middle band, where the alternating
    series loses all double-precision digits (the largest series term is
    roughly exp(|z|^(1/alpha)), e.g. beyond 1e19 for alpha = 0.5 at z = -7
    while the sum is O(0.1)).  The series is therefore trusted only for
    z >= -min(2, 4.6^alpha), which keeps its largest term near 1e2.
    E_1(z) = exp(z) is dispatched exactly.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0,1], got {alpha}")
    z = float(z)
    if alpha == 1.0:
        return math.exp(z)
    if z >= -min(2.0, 4.6**alpha):
        return _ml_series(alpha, z)
    if z < -10.0:
        total, smallest = _ml_asymptotic(alpha, z)
        if smallest <= 1e-15 * abs(total):
            return total
    return _ml_spectral(alpha, -z)
