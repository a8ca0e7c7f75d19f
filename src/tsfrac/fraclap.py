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
nonpositive off-diagonals, strictly positive row sums.  It is the one
discretization of the operator here: the energy form a(u, v) is
h v^T A u of the same matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .kernels import check_order

__all__ = [
    "SpaceGrid",
    "Field",
    "FracLapMatrix",
    "normalization_constant",
    "assemble_1d",
    "bilinear_a",
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
        if not 0.0 < self.h * self.h < math.inf:  # assembly divides by h^2
            raise ValueError(f"need finite a, b and h with 0 < h^2 < inf, got [{self.a}, {self.b}]")

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
    return (
        beta
        * 2.0 ** (2.0 * beta)
        * math.gamma(0.5 + beta)
        / (np.pi**0.5 * math.gamma(1.0 - beta))
    )


def _pow_integral(r0, r1, p: float):
    """Exact integral of r^p over [r0, r1], elementwise; p = -1 is the log case."""
    r0 = np.asarray(r0, dtype=float)
    r1 = np.asarray(r1, dtype=float)
    if abs(p + 1.0) < 1e-12:
        return np.log(r1 / r0)
    return (r1 ** (p + 1.0) - r0 ** (p + 1.0)) / (p + 1.0)


def assemble_1d(grid: SpaceGrid, beta: float) -> FracLapMatrix:
    """Assemble the dense discrete (-Delta)^beta on the grid.

    Off-diagonal couplings depend only on the node distance d = |i - j|
    (hat-function weights H_d, plus the near-field second difference at
    d = 1), so they are computed once per distance and laid out as the
    rows of one window view; the diagonal collects the near-field weight,
    the exact in-domain kernel mass outside the h/2 ball, and the exterior
    tail.
    """
    n = grid.n
    h = grid.h
    c = normalization_constant(beta)
    pk = -1.0 - 2.0 * beta  # kernel exponent
    pr = -2.0 * beta  # r * kernel exponent (log case at beta = 1/2)
    w_near = (h / 2.0) ** (2.0 - 2.0 * beta) / (2.0 - 2.0 * beta)  # int_0^{h/2} r^(1-2 beta) dr

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
        coef[2:] = (
            _pow_integral(lo, mid, pr) / h
            - (d - 1.0) * _pow_integral(lo, mid, pk)
            + (d + 1.0) * _pow_integral(mid, hi, pk)
            - _pow_integral(mid, hi, pr) / h
        )

    # Row i of A is the window of r = -c (coef_{n-1}, .., coef_1, coef_0,
    # coef_1, .., coef_{n-1}) that starts at n-1-i: A_ij = -c coef_|i-j|.
    r = -c * np.concatenate((coef[:0:-1], coef))
    A = sliding_window_view(r, n)[::-1].copy()

    # Diagonal: near-field + in-domain kernel mass beyond h/2 (minus the node's
    # own hat weight there, the u_i part of the interpolant) + exterior tail.
    i = np.arange(1, n + 1, dtype=float)
    dist_a = i * h
    dist_b = (n + 1.0 - i) * h
    J = _pow_integral(h / 2.0, dist_a, pk) + _pow_integral(h / 2.0, dist_b, pk)
    H0 = 2.0 * (_pow_integral(h / 2.0, h, pk) - _pow_integral(h / 2.0, h, pr) / h)
    x = grid.nodes()  # exterior tail: int_{y outside (a,b)} |x_i - y|^(-1-2 beta) dy
    kappa = ((x - grid.a) ** pr + (grid.b - x) ** pr) / (2.0 * beta)
    np.fill_diagonal(A, c * (2.0 * w_near / h**2 + J - H0 + kappa))
    return FracLapMatrix(beta=beta, grid=grid, entries=A)


def bilinear_a(u: Field, v: Field, beta: float) -> float:
    """Discrete energy form a(u, v) = h v^T A u of the assembled operator.

    A is assemble_1d on the fields' grid, so the form is the weak
    counterpart of the operator the solver steps with.  A is symmetric
    positive definite, so a is symmetric (up to rounding) and a(u, u) > 0
    for u != 0.  A's off-diagonals are nonpositive, so for nonnegative
    fields with disjoint supports (u+ and u-) only off-diagonals meet and
    a(u+, u-) <= 0 exactly, rounding included.
    """
    if u.grid != v.grid:
        raise ValueError("fields live on different grids")
    A = assemble_1d(u.grid, beta).entries
    return u.grid.h * float(v.values @ (A @ u.values))
