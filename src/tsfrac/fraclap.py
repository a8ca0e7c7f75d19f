"""Discrete 1-D fractional Laplacian with zero exterior condition.

The operator (-Delta)^beta u(x) = c * PV int (u(x)-u(y)) |x-y|^(-1-2 beta) dy
sees u on the whole line, so the Dirichlet condition is an exterior one:
u = 0 outside (a, b).  The discretization on a uniform interior grid is
assembled from exactly integrated pieces, each a function of the node
distance d = |i - j| and h alone, so the matrix is symmetric Toeplitz:

* near field |y - x_i| < h/2: principal value of the local quadratic
  model, a second-difference term with weight int_0^{h/2} r^(1-2 beta) dr;
* far field inside the domain: the kernel integrated exactly per cell
  against the piecewise-linear interpolant.  By parts, node j's hat
  weight is (t_{d-1} - t_d) / (2 beta) h^(-2 beta), with the cell
  integrals t_k = int_k^{k+1} max(r, 1/2)^(-2 beta) dr in units of h;
* the u_i term of the far field: beyond h/2, every node sees the whole
  line's kernel mass, in the domain or in the exterior where u = 0, less
  its own hat weight, which leaves t_0 / beta.  The exterior's share of
  that mass keeps the row sums positive (truncating it would break the
  row-sum positivity that drives every maximum principle downstream).

Each t_k, k >= 1, is one power increment k^q expm1(q log1p(1/k)) / q with
q = 1 - 2 beta (log1p(1/k) at q = 0), never a difference of nearly equal
powers, at beta = 1/2 or next to it.

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
        # The assembly scales by h^(-2 beta), below 1/h^2 for h < 1.
        if not math.isfinite(self.b - self.a):
            raise ValueError(f"the width b - a of [{self.a}, {self.b}] overflows")
        h = self.h
        if not 0.0 < h * h < math.inf:
            raise ValueError(f"with n={self.n} the spacing h = (b - a)/(n + 1) = {h!r} squares to {h * h!r}")

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
    """Assembled discrete (-Delta)^beta: a dense symmetric M-matrix."""

    entries: np.ndarray = field(repr=False)


def normalization_constant(beta: float) -> float:
    """The 1-D kernel constant beta * 2^(2 beta) * Gamma(1/2 + beta) / (pi^(1/2) Gamma(1-beta))."""
    check_order("beta", beta)
    return (
        beta
        * 2.0 ** (2.0 * beta)
        * math.gamma(0.5 + beta)
        / (np.pi**0.5 * math.gamma(1.0 - beta))
    )


def assemble_1d(grid: SpaceGrid, beta: float) -> FracLapMatrix:
    """Assemble the dense discrete (-Delta)^beta on the grid.

    Every entry depends only on the node distance d = |i - j| and on h, so
    A is one coefficient vector laid out as the rows of one window view:
    A_ij = -c h^(-2 beta) coef_|i-j|, all from the one vector of cell
    integrals t_0 .. t_{n-1} of the module docstring, with
    t_0 = (1/2)^q + int_{1/2}^1 r^(-2 beta) dr.  For d >= 1, coef_d is the
    hat weight (t_{d-1} - t_d) / (2 beta), plus the near field
    (1/2)^(2-2 beta) / (2-2 beta) at d = 1.  The diagonal is the positive
    sum (1/2)^q / (2 (1 - beta)) + t_0 / beta.
    """
    n = grid.n
    c = normalization_constant(beta)  # checks beta before the divisions below
    q = 1.0 - 2.0 * beta
    # Cell k is [lo, k + 1], lo = max(k, 1/2): t_k = lo^q expm1(q g) / q with
    # g = log((k + 1) / lo); t_0 adds the flat (1/2)^q of [0, 1/2].
    k = np.arange(n, dtype=float)
    lo = np.maximum(k, 0.5)
    g = np.log1p((k + 1.0 - lo) / lo)
    t = g if q == 0.0 else lo**q * np.expm1(q * g) / q
    t[0] += 0.5**q
    coef = np.empty(n)
    coef[1:] = (t[:-1] - t[1:]) / (2.0 * beta)
    coef[1:2] += 0.5 ** (2.0 - 2.0 * beta) / (2.0 - 2.0 * beta)
    coef[0] = -(0.5**q / (2.0 * (1.0 - beta)) + t[0] / beta)

    # Row i of A is the window of r = -c h^(-2 beta) (coef_{n-1}, .., coef_1,
    # coef_0, coef_1, .., coef_{n-1}) that starts at n-1-i.
    r = -c * np.float64(grid.h) ** (-2.0 * beta) * np.concatenate((coef[:0:-1], coef))
    return FracLapMatrix(sliding_window_view(r, n)[::-1].copy())


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
