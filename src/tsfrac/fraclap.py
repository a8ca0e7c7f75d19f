"""Discrete 1-D fractional Laplacian with zero exterior condition.

The operator (-Delta)^beta u(x) = c * PV int (u(x)-u(y)) |x-y|^(-1-2 beta) dy
sees u on the whole line, so the Dirichlet condition is an exterior one:
u = 0 outside (a, b).  The discretization on a uniform interior grid is
assembled from three exactly integrated pieces:

* near field |y - x_i| < h/2: principal value of the local quadratic
  model, a second-difference term with weight int_0^{h/2} r^(1-2 beta) dr;
* far field inside the domain: the kernel integrated exactly per cell
  against the piecewise-linear interpolant (hat-function weights, which
  depend only on |i - j|, so off-diagonals are Toeplitz and the matrix is
  symmetric by construction);
* exterior tail: closed-form integral of the kernel over y outside (a, b),
  a positive diagonal contribution (truncating it would break the row-sum
  positivity that drives every maximum principle downstream).

The result is a symmetric positive-definite M-matrix: positive diagonal,
nonpositive off-diagonals, strictly positive row sums.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import integrate, special
from scipy.linalg import toeplitz

from .kernels import check_order

__all__ = [
    "SpaceGrid",
    "Field",
    "FracLapMatrix",
    "normalization_constant",
    "assemble_1d",
    "apply",
    "bilinear_a",
    "sign_split",
    "quadrature_reference",
]


@dataclass(frozen=True)
class SpaceGrid:
    """Uniform interior grid on (a, b): nodes x_i = a + i*h, i = 1..n, h = (b-a)/(n+1)."""

    a: float
    b: float
    n: int

    def __post_init__(self):
        if not self.a < self.b:
            raise ValueError(f"need a < b, got [{self.a}, {self.b}]")
        if self.n < 1:
            raise ValueError(f"need at least one interior node, got n={self.n}")

    @property
    def h(self) -> float:
        return (self.b - self.a) / (self.n + 1)

    def nodes(self) -> np.ndarray:
        return self.a + self.h * np.arange(1, self.n + 1)


@dataclass(frozen=True)
class Field:
    """Grid function on the interior nodes; the exterior value is fixed at 0."""

    grid: SpaceGrid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.grid.n,):
            raise ValueError(f"values shape {vals.shape} does not match grid n={self.grid.n}")
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True)
class FracLapMatrix:
    """Assembled discrete (-Delta)^beta: dense symmetric M-matrix plus metadata."""

    beta: float
    grid: SpaceGrid
    entries: np.ndarray = field(repr=False)

    def __post_init__(self):
        ent = np.asarray(self.entries, dtype=float)
        n = self.grid.n
        if ent.shape != (n, n):
            raise ValueError(f"entries shape {ent.shape} does not match grid n={n}")
        object.__setattr__(self, "entries", ent)


def normalization_constant(beta: float) -> float:
    """The 1-D kernel constant beta * 2^(2 beta) * Gamma(1/2 + beta) / (pi^(1/2) Gamma(1-beta))."""
    check_order("beta", beta)
    return float(
        beta
        * 2.0 ** (2.0 * beta)
        * special.gamma(0.5 + beta)
        / (np.pi**0.5 * special.gamma(1.0 - beta))
    )


def _pow_integral(r0, r1, p: float):
    """Exact integral of r^p over [r0, r1], elementwise; p = -1 is the log case."""
    r0 = np.asarray(r0, dtype=float)
    r1 = np.asarray(r1, dtype=float)
    if abs(p + 1.0) < 1e-12:
        return np.log(r1 / r0)
    return (r1 ** (p + 1.0) - r0 ** (p + 1.0)) / (p + 1.0)


def _exterior_tail(grid: SpaceGrid, beta: float) -> np.ndarray:
    """kappa_i = int_{y outside (a,b)} |x_i - y|^(-1-2 beta) dy, exact per node."""
    x = grid.nodes()
    left = x - grid.a
    right = grid.b - x
    return (left ** (-2.0 * beta) + right ** (-2.0 * beta)) / (2.0 * beta)


def _near_weight(h: float, beta: float) -> float:
    """int_0^{h/2} r^(1-2 beta) dr, the exactly integrated near-field weight."""
    return (h / 2.0) ** (2.0 - 2.0 * beta) / (2.0 - 2.0 * beta)


def assemble_1d(grid: SpaceGrid, beta: float) -> FracLapMatrix:
    """Assemble the dense discrete (-Delta)^beta on the grid.

    Off-diagonal couplings depend only on the node distance d = |i - j|
    (hat-function weights H_d, plus the near-field second difference at
    d = 1), so they are computed once per distance; the diagonal collects
    the near-field weight, the exact in-domain kernel mass outside the
    h/2 ball, and the exterior tail.
    """
    n = grid.n
    h = grid.h
    c = normalization_constant(beta)
    pk = -1.0 - 2.0 * beta  # kernel exponent
    pr = -2.0 * beta  # r * kernel exponent (log case at beta = 1/2)
    w_near = _near_weight(h, beta)

    # Hat-function weights: H_1 sees the h/2 exclusion ball, H_d (d >= 2) the full hat.
    coef = np.zeros(n)  # coupling magnitude at distance d
    if n > 1:
        H1 = (
            _pow_integral(h / 2.0, h, pr) / h
            + 2.0 * _pow_integral(h, 2.0 * h, pk)
            - _pow_integral(h, 2.0 * h, pr) / h
        )
        coef[1] = H1 + w_near / h**2
    if n > 2:
        d = np.arange(2, n, dtype=float)
        lo, mid, hi = (d - 1.0) * h, d * h, (d + 1.0) * h
        Hd = (
            _pow_integral(lo, mid, pr) / h
            - (d - 1.0) * _pow_integral(lo, mid, pk)
            + (d + 1.0) * _pow_integral(mid, hi, pk)
            - _pow_integral(mid, hi, pr) / h
        )
        coef[2:] = Hd

    A = np.zeros((n, n))
    for dd in range(1, n):
        val = -c * coef[dd]
        idx = np.arange(n - dd)
        A[idx, idx + dd] = val
        A[idx + dd, idx] = val

    # Diagonal: near-field + in-domain kernel mass beyond h/2 (minus the node's
    # own hat weight there, the u_i part of the interpolant) + exterior tail.
    i = np.arange(1, n + 1, dtype=float)
    dist_a = i * h
    dist_b = (n + 1.0 - i) * h
    J = _pow_integral(h / 2.0, dist_a, pk) + _pow_integral(h / 2.0, dist_b, pk)
    H0 = 2.0 * (_pow_integral(h / 2.0, h, pk) - _pow_integral(h / 2.0, h, pr) / h)
    kappa = _exterior_tail(grid, beta)
    np.fill_diagonal(A, c * (2.0 * w_near / h**2 + J - H0 + kappa))
    return FracLapMatrix(beta=beta, grid=grid, entries=A)


def apply(A: FracLapMatrix, u: Field) -> Field:
    """Matrix-vector product (-Delta)^beta u on matching grids."""
    if A.grid != u.grid:
        raise ValueError("matrix and field live on different grids")
    return Field(u.grid, A.entries @ u.values)


def bilinear_a(u: Field, v: Field, beta: float) -> float:
    """Discrete energy form a(u, v) of the fractional Laplacian.

    (c/2) * sum_{i != j} W_|i-j| (u_i - u_j)(v_i - v_j) plus the exterior
    strips where the second argument of each difference is 0.  Cell-pair
    weights: W_d = h^2 |x_i - x_j|^(-1-2 beta) for d >= 2; the adjacent
    weight reuses the exactly integrated near-field weight of the
    assembly (w_near / h), matching the matrix's second-difference term.
    Symmetric in (u, v); a(u, u) >= 0 with equality only at u = 0, since
    the exterior term is strictly positive for any nonzero field.
    """
    if u.grid != v.grid:
        raise ValueError("fields live on different grids")
    grid = u.grid
    n, h = grid.n, grid.h
    c = normalization_constant(beta)
    dists = h * np.arange(1, n, dtype=float)
    w = np.zeros(n)
    if n > 1:
        w[1:] = h**2 * dists ** (-1.0 - 2.0 * beta)
        w[1] = _near_weight(h, beta) / h
    W = toeplitz(w)
    uv = u.values * v.values
    rows = W @ np.ones(n)
    cross = float(u.values @ (W @ v.values))
    double = float(np.dot(uv, rows)) - cross  # (1/2) sum_{ij} W_ij (u_i-u_j)(v_i-v_j)
    exterior = h * float(np.dot(_exterior_tail(grid, beta), uv))
    return c * (double + exterior)


def sign_split(u: Field) -> tuple[Field, Field]:
    """Split into positive and negative parts: u = u+ - u-, both >= 0, u+ u- = 0."""
    return (
        Field(u.grid, np.maximum(u.values, 0.0)),
        Field(u.grid, np.maximum(-u.values, 0.0)),
    )


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
