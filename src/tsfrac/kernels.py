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
        if not 0 < self.T < math.inf:
            raise ValueError(f"time horizon must be positive and finite, got T={self.T}")
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
    """Evaluate g_gamma(t) = t^(gamma-1)/Gamma(gamma) for gamma in (0,1), t > 0.

    Strictly positive; it diverges as t -> 0+, which is why t = 0 is
    rejected.  Accepts scalars or arrays in t.
    """
    check_order("gamma", gamma)
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0.0):
        raise ValueError("g_kernel requires t > 0")
    out = t ** (gamma - 1.0) / math.gamma(gamma)
    return float(out) if out.ndim == 0 else out


def g_cell_integral(gamma: float, t0: float, t1: float) -> float:
    """Exact mass of g_gamma over [t0, t1], gamma in (0,1), 0 <= t0 <= t1.

    Equals (t1^gamma - t0^gamma)/Gamma(gamma+1); finite down to t0 = 0,
    which is how the singular first cell of every quadrature here is
    handled.
    """
    check_order("gamma", gamma)
    if t0 < 0.0 or t1 < t0:
        raise ValueError("need 0 <= t0 <= t1")
    return (t1**gamma - t0**gamma) / math.gamma(gamma + 1.0)


def h_kernel(m: int, t):
    """Mollifier h_m(t) = m*exp(-m*t); nonnegative with unit mass on [0,inf)."""
    if m < 1:
        raise ValueError(f"m must be a positive integer, got {m}")
    t = np.asarray(t, dtype=float)
    if np.any(t < 0.0):
        raise ValueError("h_kernel requires t >= 0")
    with np.errstate(over="ignore"):  # m t past float range: exp(-inf) = 0 is the limit
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
    tau = mesh.tau
    M = mesh.M
    # Per-cell mass of g_{1-alpha}: exact on the singular cell, midpoint after.
    mids = (np.arange(M) + 0.5) * tau
    gmass = np.empty(M)
    gmass[0] = g_cell_integral(1.0 - alpha, 0.0, tau)
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


_ML_SERIES_TERMS = 100_000  # 17,600 terms suffice at alpha = 0.001 on [-1, 0]


def _ml_series(alpha: float, z: float) -> float:
    """Power series sum_k z^k/Gamma(alpha k + 1) for -1 <= z <= 0, term-ratio stopping.

    Term k has magnitude |z|^k/Gamma(alpha k + 1) <= 1/Gamma(alpha k + 1)
    and is negative for odd k.  The terms fall below 1e-15 of the sum once
    Gamma(alpha k + 1) passes about 1e15, near alpha k = 18, so the term
    count grows as 18/alpha (17,600 terms at alpha = 0.001, z = -1).  It is
    capped at _ML_SERIES_TERMS, which covers alpha down to about 2e-4;
    past the cap the series raises RuntimeError.
    """
    terms = [1.0]
    total = 1.0
    loga = math.log(-z) if z != 0.0 else -math.inf
    for k in range(1, _ML_SERIES_TERMS + 1):
        mag = math.exp(k * loga - math.lgamma(alpha * k + 1.0))
        term = -mag if k % 2 else mag
        terms.append(term)
        total += term
        if abs(term) < 1e-15 * abs(total):
            return float(math.fsum(terms))
    raise RuntimeError(
        f"Mittag-Leffler series did not converge within {_ML_SERIES_TERMS} terms "
        f"(alpha={alpha}, z={z})"
    )


# One tanh-sinh rule on [0, 1] (Takahasi & Mori, Publ. RIMS 9:721, 1974):
# step h = 1/32, |k h| <= 4.5, 289 nodes.  Node k sits at the fraction
# _TS_LEFT = (1 + tanh u_k)/2 of the interval from its left end, written as
# 1/(1 + e^(-2 u_k)) so that nodes near that end keep their relative accuracy
# (1 + tanh u_k rounds to 0 there).  The weights sum to 1.
_TS_KH = np.arange(-144, 145) / 32.0
_TS_U = 0.5 * np.pi * np.sinh(_TS_KH)
_TS_LEFT = 1.0 / (1.0 + np.exp(-2.0 * _TS_U))
_TS_WEIGHTS = (np.pi / 128.0) * np.cosh(_TS_KH) / np.cosh(_TS_U) ** 2


def _ml_spectral(alpha: float, x: float) -> float:
    """E_alpha(-x) for x > 0 from the spectral (complete-monotonicity) integral.

    E_alpha(-x) = (sin a / a) int_0^inf exp(-(x w)^(1/alpha)) / ((w + c)^2 + sin^2 a) dw,
    with a = pi alpha and c = cos a.  The integrand has a peak of width sin a
    at w = -c, which narrows as alpha -> 1.  Substituting w = -c + sin(a) tan(phi)
    makes the Lorentzian factor constant, and w = (e^v - c) for w > sin a - c
    (alpha > 1/2 only) keeps the long tail short:

        E_alpha(-x) = (1/a) int_{phi0}^{phi1} exp(-(x w(phi))^(1/alpha)) dphi
                    + (sin a / a) int_{v1}^{v2} exp(-(x (e^v - c))^(1/alpha)) e^v / (e^2v + sin^2 a) dv,

    phi0 = pi/2 - a.  The integral is cut at w_max = 80^alpha / x, where the
    exponential is e^-80; a cut at 40 leaves 1.2e-13 at alpha = 0.999,
    z = -40, where E_alpha(-x) ~ (1 - alpha)/x is itself small.  Both pieces
    use the same tanh-sinh rule.  The angle d = phi - phi0 is carried from
    the left end, w = sin d / (sin a cos d - c sin d), so no difference of
    nearby angles is formed; the same holds for phi1 - phi0, which is one
    atan2.  Since x w <= 80^alpha, the exponent never exceeds 80 and nothing
    overflows, even at x = 1e300.
    """
    a = math.pi * alpha
    c, s = math.cos(a), math.sin(a)
    p = 1.0 / alpha
    w_max = 80.0**alpha / x
    w1 = min(s - c, w_max) if c < 0.0 else w_max
    span = math.atan2(s * w1, 1.0 + c * w1)  # phi1 - phi0
    d = span * _TS_LEFT
    sin_d = np.sin(d)
    w = sin_d / (s * np.cos(d) - c * sin_d)
    total = span * float(_TS_WEIGHTS @ np.exp(-((x * w) ** p)))
    if w1 < w_max:
        v1, v2 = math.log(w1 + c), math.log(w_max + c)
        ev = np.exp(v1 + (v2 - v1) * _TS_LEFT)
        tail = np.exp(-((x * (ev - c)) ** p)) * ev / (ev * ev + s * s)
        total += s * (v2 - v1) * float(_TS_WEIGHTS @ tail)
    return total / a


def mittag_leffler(alpha: float, z: float) -> float:
    """One-parameter Mittag-Leffler function E_alpha(z), alpha in (0,1), for z <= 0.

    z > 0 and NaN raise ValueError.  Regimes: the power series
    sum z^k / Gamma(alpha*k + 1) with term-ratio stopping (|term| < 1e-15 *
    |sum|) for -1 <= z <= 0, and one fixed tanh-sinh rule on the spectral
    integral for every z < -1.  On the negative axis the alternating series
    cancels: its largest term is roughly exp(|z|^(1/alpha)) (beyond 1e19 for
    alpha = 0.5 at z = -7, while the sum is O(0.1)), and already at
    z = -4.6^alpha the rounding of its terms costs 1e-13 relative.  Up to
    |z| = 1 its terms stay O(1), and the rule, whose error grows as x -> 0
    for small alpha, starts where it is below 1e-15 for alpha >= 0.02.
    E_alpha(-inf) = 0.
    """
    check_order("alpha", alpha)
    z = float(z)
    if not z <= 0.0:
        raise ValueError(f"mittag_leffler requires z <= 0, got {z}")
    if z >= -1.0:
        return _ml_series(alpha, z)
    if z == -math.inf:
        return 0.0
    return _ml_spectral(alpha, -z)
