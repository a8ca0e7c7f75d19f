"""Implicit time stepping for the time-space fractional diffusion equation.

The equation d^alpha/dt^alpha (u - u0) + (-Delta)^beta u = f on (a, b) with
zero exterior condition is advanced by the L1-implicit scheme:

    (b_0 I + A) u^n = sum_{j=1}^{n-1} (b_{j-1} - b_j) u^{n-j}
                      + b_{n-1} u^0 + f^n,

where A is the assembled fractional Laplacian and b_j the L1 weights.
Every coefficient on the right is positive and (b_0 I + A) is a symmetric
positive-definite M-matrix, so each step is uniquely solvable and
inverse-positive: nonnegative data propagate to nonnegative states
exactly, which is the discrete engine behind the maximum-principle
checks.

The stepper writes the states over the forcing samples it is given, as
LAPACK's solvers write X over B: row n holds f^n until step n writes u^n
there, and row 0 becomes u^0 (f^0 enters no step).  Before the first
step every row gets its u^0 term.  The history sum is the block scheme
of Hairer, Lubich & Schlichte (SIAM J. Sci. Stat. Comput. 6:532, 1985),
with dense products in place of FFTs.  Step n pulls the q = (n-1) mod
_PULL earlier states of its _PULL-step block (one product of w_{q-1},
.., w_0, 1 with rows n-q .. n) and multiplies that sum by G into row n.
After a step n that ends a block, its L = n & -n states u^{n-L+1} .. u^n
are pushed into the rows of the next L steps (up to M).  Steps j < t of
one block meet in t's pull, others in one push: with 2^b >= _PULL the
highest bit in which j-1 and t-1 differ, that of 2^b states after step
t-1 with its bits below b cleared.  A push of more than _BLOCK states
runs as products of _BLOCK states each, oldest first, and one Toeplitz
view _BLOCK weights wide serves every product.  A step's two products
are np.dot, which costs less per call than @ (1.7 ms in place of 2.0
for the K = 1, n = 128, M = 256 call); the pieces of a push are @, since
np.dot copies their reversed Toeplitz operand, which raised the traced
peak at K = 1, n = 128, M = 512 to 396 kB, past the 328 kB the tests
allow.  Only the order of summation differs from a step-by-step sum.

The stepper that l1_stepper builds advances K problems that share alpha,
beta, the grid and the mesh at once; solve is its one-column call.  The K
right-hand sides of a step form one contiguous row of K n values, so
the history sums above are the same products on K times wider operands,
and column k is the one-column result up to the summation order BLAS
picks for the wider operands.  The u^0 terms and the pushes are split
into pieces of at most _BLOCK/2 / K rows, so no product holds more than
_BLOCK/2 rows of n values, for any K and M.

Each step applies G = (b_0 I + A)^{-1} in place of solving with a factor.
l1_stepper forms G once, in the one n x n buffer that holds A, then
b_0 I + A, then G, and every call of its stepper reuses it.

G is the inverse of an M-matrix and so entrywise nonnegative (Berman &
Plemmons, Nonnegative Matrices in the Mathematical Sciences, SIAM 1994,
ch. 6), and _inverse keeps it so in floating point by construction.  It
inverts B = b_0 I + A in place by the block (Schur-complement) formula
(Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., ch. 13):
with X = B_11^{-1}, N = -B_12 >= 0, S = B_22 - N^T (XN) and Y = S^{-1},

    G = [[X + (XN) Y (XN)^T, (XN) Y], [Y (XN)^T, Y]],

X and Y inverted the same way, down to 2 x 2 blocks (in scalars) and 1 x 1
blocks [b], b > 0, whose inverse is 1 / b.  As B is symmetric Toeplitz,
G = JGJ (J the reversal; Golub & Van Loan, Matrix Computations, 4.7), so
at the top G's left half is its right half reversed.  The sign argument:

- The off-diagonal entries of A are <= 0 (l1_stepper checks them).  The
  buffer first holds 0 - B, a subtraction from +0.0, so its off-diagonal
  entries are nonnegative and none is -0.0; its B_12 block is then N
  itself.
- A Schur complement of an M-matrix is an M-matrix, and in floating point
  every off-diagonal entry of S is a nonpositive number minus a
  nonnegative product.  The buffer holds -S = -B_22 + (N^T X) N, a
  nonnegative number plus a nonnegative one.
- A 1 x 1 block holds -b < 0 and becomes -1 / -b = 1 / b > 0.
- Every block of G is a sum of products of nonnegatives, or at the top
  a copy of such entries.  No product is negated afterwards (-(+0.0) is
  -0.0), so G has no negative entry and no -0.0.

Positivity is therefore exact, with no clamping: each history term is a
positive weight times a nonnegative state, in any order, and G maps a
nonnegative right-hand side to a nonnegative state by sums of products of
nonnegatives.  The price (Higham, ch. 14): the relative step residual is
1.2-1.4 times that of solving with a Cholesky factor (README).

Also here: the mollified weak-form residual and the CSV and metadata
serialization of a Solution.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .fraclap import Field, SpaceGrid, assemble_1d, bilinear_a
from .kernels import TimeMesh, check_order, h_kernel, regularized_kernel
from .timefrac import l1_weights

__all__ = [
    "FracOrders",
    "ProblemSpec",
    "Solution",
    "solve",
    "l1_stepper",
    "weak_residual",
    "solution_csv_rows",
    "solution_metadata",
]

_BLOCK = 256  # states per history product; longer pushes run as several
_PULL = 16  # steps per block; each step pulls the earlier states of its block itself
_SCHUR_ROWS = 512  # rows of -S per product, so the scratch beside -S is at most 512 x n/2


@dataclass(frozen=True)
class FracOrders:
    """The pair of fractional orders, both in the open interval (0, 1)."""

    alpha: float
    beta: float

    def __post_init__(self):
        check_order("alpha", self.alpha)
        check_order("beta", self.beta)


@dataclass(frozen=True)
class ProblemSpec:
    """Data of one initial-exterior-value problem.

    forcing_samples is the one place a forcing closure is sampled: it
    calls ``forcing(x, t)`` once per step with the node array and the step
    time, and takes an array of shape (n,) or a scalar for every node.
    """

    orders: FracOrders
    grid: SpaceGrid
    mesh: TimeMesh
    u0: Field
    forcing: Callable[[np.ndarray, float], np.ndarray]

    def __post_init__(self):
        if self.u0.grid != self.grid:
            raise ValueError("u0 lives on a different grid")

    def forcing_samples(self) -> np.ndarray:
        """Forcing sampled on the space-time grid, shape (M+1, n)."""
        x = self.grid.nodes()
        out = np.empty((self.mesh.M + 1, self.grid.n))
        for j, t in enumerate(self.mesh.times()):
            out[j] = self.forcing(x, float(t))
        return out


@dataclass(frozen=True)
class Solution:
    """States u^0..u^M (time-major array) plus the problem and sampled forcing."""

    problem: ProblemSpec
    states: np.ndarray = field(repr=False)
    forcing: np.ndarray = field(repr=False)

    def __post_init__(self):
        st = np.asarray(self.states, dtype=float)
        M, n = self.problem.mesh.M, self.problem.grid.n
        if st.shape != (M + 1, n):
            raise ValueError(f"states shape {st.shape}, expected {(M + 1, n)}")
        object.__setattr__(self, "states", st)


def solve(problem: ProblemSpec) -> Solution:
    """Sample the problem's forcing and run all M L1-implicit steps.

    A one-column call of the stepper that l1_stepper builds at the
    problem's orders, grid and mesh, on a copy of the forcing samples,
    which it overwrites with the states: Solution.forcing keeps the
    samples.  Deterministic for fixed inputs.
    Raises ValueError for L1 weights or an operator that break the
    positivity premise (l1_stepper), for a non-finite u0 or forcing sample (checked after the
    inversion, before the first step) and for states that overflow.
    """
    fsamp = problem.forcing_samples()
    step = l1_stepper(problem.orders.alpha, problem.orders.beta, problem.grid, problem.mesh)
    states = step(problem.u0.values[None], fsamp.copy()[:, None])
    return Solution(problem=problem, states=states[:, 0], forcing=fsamp)


def l1_stepper(
    alpha: float, beta: float, grid: SpaceGrid, mesh: TimeMesh
) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """The L1 stepper of every problem with these alpha, beta, grid and mesh.

    The weights, their differences and G = (b_0 I + A)^{-1} are computed
    here, once: A = assemble_1d(grid, beta) gets b_0 added to its diagonal
    and is inverted in place, so b_0 I + A and G share one n x n buffer.
    The returned function takes ``u0`` of shape (K, n) and the forcing
    samples of shape (M+1, K, n), for any K, and overwrites the samples
    with the states of the K problems, which it returns: the same array.
    The samples must be float64 and their rows of K n values views, not
    copies (a C-contiguous array, or a column slice of one, qualifies).
    It first adds the u^0 terms to the forcing rows; each step then pulls
    its block's states and multiplies by G, and each _PULL-th step pushes
    its dyadic sub-block into later rows, _BLOCK states per product at most.
    Nonnegative data give exactly nonnegative states.

    That rests on b_0 > 0, b_{j-1} - b_j >= 0 (j = 1..M) and b_M >= 0,
    which rounding can break at alpha near 0 with many steps, and on
    off-diagonal entries of A that are <= 0, which rounding breaks for
    beta near 0, where they shrink to rounding noise: l1_stepper then
    raises ValueError naming alpha, M and the first bad j, or beta, n and
    the first bad distance.  The returned function raises ValueError for a
    u0 that is not a float64 array of shape (K, n), for samples of another
    type or layout and for a non-finite u0 or forcing sample, all before
    it writes anything, and for states that overflow.
    """
    M, nx = mesh.M, grid.n
    b = l1_weights(alpha, mesh.tau, M)
    w = b[:-1] - b[1:]  # w[j-1] = b_{j-1} - b_j, j = 1..M
    premise = np.concatenate(([b[0] > 0.0], w >= 0.0, [b[M] >= 0.0]))  # entry j: premise at j, b_M's at M
    if not premise.all():
        j = min(int(np.argmin(premise)), M)
        raise ValueError(f"L1 weights at alpha={alpha!r}, M={M} break b_0 > 0, b_(j-1) >= b_j, "
                         f"b_M >= 0 first at j={j}")
    G = assemble_1d(grid, beta).entries
    # A is Toeplitz, so row 0 holds every off-diagonal value once.
    bad = np.flatnonzero(G[0, 1:] > 0.0)
    if bad.size:
        raise ValueError(f"operator at beta={beta!r}, n={nx} has a positive off-diagonal entry, "
                         f"first at distance d={int(bad[0]) + 1}")
    G.flat[:: nx + 1] += b[0]
    _inverse(G)
    # toeplitz[r, c] = w[r + _BLOCK - 1 - c], zero past w[M-1] so that M < _BLOCK has a view too
    toeplitz = sliding_window_view(np.concatenate([w, np.zeros(_BLOCK - 1)]), _BLOCK)[:, ::-1]
    pull = np.concatenate((w[: _PULL - 1][::-1], [1.0]))  # w_14 .. w_0, and 1 for row n itself

    def l1_states(u0: np.ndarray, forcing: np.ndarray) -> np.ndarray:
        if not (isinstance(u0, np.ndarray) and u0.dtype == np.float64 and u0.ndim == 2 and u0.shape[1] == nx):
            got = f"{u0.dtype} of shape {u0.shape}" if isinstance(u0, np.ndarray) else type(u0).__name__
            raise ValueError(f"u0 must be float64 of shape (K, {nx}), got {got}")
        K = u0.shape[0]
        is_array = isinstance(forcing, np.ndarray)
        flat = forcing.reshape(M + 1, K * nx) if is_array and forcing.shape == (M + 1, K, nx) else None
        if flat is None or forcing.dtype != np.float64 or not np.may_share_memory(flat, forcing):
            got = f"{forcing.dtype} of shape {forcing.shape}" if is_array else type(forcing).__name__
            raise ValueError(f"forcing must be float64 of shape {(M + 1, K, nx)} with rows of K n values "
                             f"that the states overwrite, got {got}")
        if not np.isfinite(u0).all():
            k, i = np.argwhere(~np.isfinite(u0))[0]
            raise ValueError(f"u0 is {u0[k, i]} at x={float(grid.nodes()[i])!r}")
        if not np.isfinite(forcing).all():
            j, k, i = np.argwhere(~np.isfinite(forcing))[0]
            x, t = float(grid.nodes()[i]), float(mesh.times()[j])
            raise ValueError(f"forcing sample is {forcing[j, k, i]} at (x={x!r}, t={t!r})")
        rhs = np.empty(K * nx)
        rhs_rows, states = rhs.reshape(K, nx), forcing
        states[0] = u0
        rows = max(1, _BLOCK // 2 // K)  # rows of K n values per temporary
        # An overflow shows as a non-finite state and is reported after the loop.
        with np.errstate(over="ignore", invalid="ignore"):
            # Row n holds f^n; it first gets the u^0 term of step n.
            for c0 in range(1, M + 1, rows):
                c1 = min(c0 + rows, M + 1)
                flat[c0:c1] += b[c0 - 1 : c1 - 1, None] * flat[0]
            for n in range(1, M + 1):
                q = (n - 1) % _PULL  # earlier states of step n's own block
                np.dot(pull[-1 - q :], flat[n - q : n + 1], out=rhs)
                np.dot(rhs_rows, G, out=states[n])
                if n % _PULL:
                    continue
                L = n & -n
                r = min(n + 1 + L, M + 1)  # push u^{n-L+1} .. u^n into rows n+1 .. r-1
                P = min(L, _BLOCK)  # states per product, oldest piece first
                for c0 in range(n + 1, r, rows):
                    c1 = min(c0 + rows, r)
                    for j in range(n + 1 - L, n + 1, P):
                        flat[c0:c1] += toeplitz[c0 - j - P : c1 - j - P, _BLOCK - P :] @ flat[j : j + P]
        if not np.isfinite(flat).all():
            k = np.flatnonzero(~np.isfinite(flat).all(axis=1))[0]
            raise ValueError(f"states overflow: u^{k} is not finite")
        return states

    return l1_states


def _inverse(B: np.ndarray) -> None:
    """Overwrite the symmetric Toeplitz M-matrix B with its inverse, > 0 entrywise.

    It is formed in B by the recursion of the module docstring, its left half
    from G = JGJ at the top only: lower down, Y's rounding would reach X at
    every level.  The only scratch is one product block at a time: N^T X goes
    into the B_21 slot, which symmetry frees, and -S takes its product
    _SCHUR_ROWS rows at a time, so a block holds at most min(n/2, 512) x n/2
    entries at the top and (n/4)^2 below: a quarter of B up to n = 1024,
    max(256/n, 1/16) of it above.
    """
    np.subtract(0.0, B, out=B)
    n, k = B.shape[0], B.shape[0] // 2
    if n < 3:
        _sweep(B)
        return
    _right_half(B)
    B[:k, :k] = B[n - k :, n - k :][::-1, ::-1]
    B[k:, :k] = B[: n - k, n - k :][::-1, ::-1]


def _sweep(H: np.ndarray) -> None:
    """Turn H = -B, B a symmetric M-matrix (Toeplitz or not), into B^{-1} in place."""
    if H.shape[0] == 1:
        np.divide(-1.0, H, out=H)  # H = -b < 0
        return
    if H.shape[0] == 2:  # _right_half and the lines below on scalars, reading N = c, never B_21
        (a, c), (_, e) = H.tolist()
        x = -1.0 / a  # X
        cx = c * x  # N^T X
        y = -1.0 / (e + cx * c)  # Y
        H[...] = ((x + cx * y * cx, cx * y), (cx * y, y))
        return
    H11, H12, H21 = _right_half(H)
    H11 += H12 @ H21  # X + (XN) Y (XN)^T
    H21[...] = H12.T


def _right_half(H: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Form B^{-1}'s right half in H = -B, n >= 3; return the blocks 11, 12 and 21."""
    k = H.shape[0] // 2
    H11, H12, H21, H22 = H[:k, :k], H[:k, k:], H[k:, :k], H[k:, k:]
    _sweep(H11)  # X; H12 holds N
    np.matmul(H12.T, H11, out=H21)  # N^T X
    for i in range(0, H22.shape[0], _SCHUR_ROWS):
        H22[i : i + _SCHUR_ROWS] += H21[i : i + _SCHUR_ROWS] @ H12  # -S
    _sweep(H22)  # Y
    np.matmul(H21.T, H22, out=H12)  # (XN) Y
    return H11, H12, H21


def weak_residual(sol: Solution, psi: Field, m: int, n: int) -> float:
    """LHS - RHS of the mollified weak form at time index n, tested with psi >= 0.

    Evaluates  int psi d/dt[(g_{1-alpha} * h_m) * (u - u0)] dx
             + a(h_m * u(., t_n), psi)  -  int (h_m * f)(., t_n) psi dx
    with discrete convolutions, a forward time difference at n (so n < M is
    required), h-weighted sums for the space integrals and the energy form
    a(u, psi) = h psi^T A u of the operator the steps use (bilinear_a), so
    the residual measures the time discretization alone.  For a solution
    of the discrete equation the residual shrinks under mesh refinement;
    for a supersolution (solved with forcing f + s, s >= 0, then tested
    against f) it stays above -tol.
    """
    problem = sol.problem
    if psi.grid != problem.grid:
        raise ValueError("test function lives on a different grid")
    if np.any(psi.values < 0.0):
        raise ValueError("test function must be nonnegative")
    M = problem.mesh.M
    if not 1 <= n < M:
        raise ValueError(f"forward difference needs 1 <= n < M, got n={n}")
    tau = problem.mesh.tau
    h = problem.grid.h
    alpha = problem.orders.alpha
    greg = regularized_kernel(alpha, m, problem.mesh)
    hm = h_kernel(m, problem.mesh.times())

    def conv(k, u, j):  # kernels.convolve(k, u) at t_j, on every node at once
        return tau * (k[:j] @ u[j:0:-1])

    dstates = sol.states - sol.states[0]
    ddt = (conv(greg, dstates, n + 1) - conv(greg, dstates, n)) / tau
    hu_n = conv(hm, sol.states, n)
    hf_n = conv(hm, sol.forcing, n)
    term_time = h * float(psi.values @ ddt)
    term_form = bilinear_a(Field(problem.grid, hu_n), psi, problem.orders.beta)
    term_load = h * float(psi.values @ hf_n)
    return term_time + term_form - term_load


def solution_csv_rows(sol: Solution) -> Iterator[str]:
    """CSV rows t, x, u with 17 significant digits: the header, then the n lines of each time level."""
    yield "t,x,u\n"
    xs = [f",{x:.17g}," for x in sol.problem.grid.nodes().tolist()]
    for t, us in zip(sol.problem.mesh.times().tolist(), sol.states):
        ts = f"{t:.17g}"
        yield "".join([f"{ts}{x}{u:.17g}\n" for x, u in zip(xs, us.tolist())])


def solution_metadata(sol: Solution, config_hash: str = "") -> dict:
    """Metadata sidecar content: orders, grid, mesh, and the config hash."""
    p = sol.problem
    return {
        "alpha": p.orders.alpha,
        "beta": p.orders.beta,
        "domain": [p.grid.a, p.grid.b],
        "n": p.grid.n,
        "T": p.mesh.T,
        "M": p.mesh.M,
        "config_hash": config_hash,
    }


def config_hash(config: dict) -> str:
    """Stable content hash of a configuration mapping."""
    blob = json.dumps(config, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()
