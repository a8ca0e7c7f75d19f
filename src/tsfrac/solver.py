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

The history sum is taken in blocks of _BLOCK steps (Hairer, Lubich &
Schlichte, SIAM J. Sci. Stat. Comput. 6:532, 1985, with dense products in
place of FFTs).  Before the steps s .. s+_BLOCK-1 of a block run, their
right-hand sides are formed as one array: first the u^0 and forcing terms,
then the part of their sums over the states u^1 .. u^{s-1} of all finished
blocks, one matrix-matrix product per finished block.  Each step then adds
its own sum over u^s .. u^{n-1} as one forward matrix-vector product: the
states in increasing order, a C-contiguous block, against the weights
reversed.  That product is np.dot, not @: matmul calls BLAS only for
operands with positive strides, so on the reversed weight view @ runs
numpy's own loop, 4-5 times slower at n = 128, while np.dot copies the
weights to a contiguous buffer and calls BLAS gemv.  Only the order of
summation differs from a step-by-step sum over u^{n-1}, ..., u^1.

The stepper that l1_stepper builds advances K problems that share alpha,
the grid, the mesh and A at once; solve is its one-column call.  The K
right-hand sides of a step form one C-contiguous row of K n values, so
the history sums above are the same products on K times wider operands,
and column k is the one-column result up to the summation order BLAS
picks for the wider operands.

Each step applies G = (b_0 I + A)^{-1} in place of solving with a factor:
one general matrix-matrix product of the K rows with G, for every K.
l1_stepper forms G once, and every call of its stepper reuses it.

G is the inverse of an M-matrix and so entrywise nonnegative (Berman &
Plemmons, Nonnegative Matrices in the Mathematical Sciences, SIAM 1994,
ch. 6), and _inverse keeps it so in floating point by construction.  It
inverts B = b_0 I + A in place by the block (Schur-complement) formula
(Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., ch. 13):
with X = B_11^{-1}, N = -B_12 >= 0, S = B_22 - N^T (XN) and Y = S^{-1},

    G = [[X + (XN) Y (XN)^T, (XN) Y], [Y (XN)^T, Y]],

X and Y inverted the same way, down to 1 x 1 blocks [b], b > 0, whose
inverse is 1 / b.  The sign argument:

- The buffer first holds 0 - B, a subtraction from +0.0, so its
  off-diagonal entries are nonnegative and none is -0.0; its B_12 block
  is then N itself.
- A Schur complement of an M-matrix is an M-matrix, and in floating point
  every off-diagonal entry of S is a nonpositive number minus a
  nonnegative product.  The buffer holds -S = -B_22 + (N^T X) N, a
  nonnegative number plus a nonnegative one.
- A 1 x 1 block holds -b < 0 and becomes -1 / -b = 1 / b > 0.
- Every block of G is a sum of products of nonnegatives.  No product is
  negated afterwards (-(+0.0) is -0.0), so G has no negative entry and no
  -0.0.

Positivity is therefore exact, with no clamping: each history term is a
positive weight times a nonnegative state, whatever the order, and G maps
a nonnegative right-hand side to a nonnegative state through sums of
products of nonnegatives.  The price is the backward error of inversion
against solving (Higham, ch. 14): the relative step residual measured
1.1-1.4 times the Cholesky one (README).

Also here: the mollified test functions and the mollified weak-form
residual used by the weak maximum-principle machinery.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .fraclap import Field, FracLapMatrix, SpaceGrid, assemble_1d, bilinear_a
from .kernels import TimeMesh, check_order, h_kernel, regularized_kernel
from .timefrac import l1_weights

__all__ = [
    "FracOrders",
    "ProblemSpec",
    "Solution",
    "solve",
    "l1_stepper",
    "mollified_test_function",
    "weak_residual",
    "solution_to_csv",
    "solution_metadata",
]

_BLOCK = 256  # steps per block of the history sum; M <= _BLOCK is one block


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

    ``forcing(x, t)`` is called once per step with the full node array and
    the step time and must return the sampled values: an array of shape
    (n,), or a scalar that holds at every node.
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


def solve(problem: ProblemSpec, A: FracLapMatrix | None = None) -> Solution:
    """Assemble (once), sample the forcing and run all M L1-implicit steps.

    A one-column call of the stepper that l1_stepper builds; deterministic
    for fixed inputs.  Raises ValueError for a matrix assembled on another
    grid or for another beta, for a non-finite u0 or forcing sample (checked
    after the inversion, before the first step) and for states that
    overflow.
    """
    if A is None:
        A = assemble_1d(problem.grid, problem.orders.beta)
    elif A.grid != problem.grid:
        raise ValueError("matrix assembled on a different grid")
    elif A.beta != problem.orders.beta:
        raise ValueError(f"matrix assembled for beta={A.beta}, not {problem.orders.beta}")
    fsamp = problem.forcing_samples()
    step = l1_stepper(problem.orders.alpha, problem.grid, problem.mesh, A)
    states = step(problem.u0.values[None], fsamp[:, None])
    return Solution(problem=problem, states=states[:, 0], forcing=fsamp)


def l1_stepper(
    alpha: float, grid: SpaceGrid, mesh: TimeMesh, A: FracLapMatrix
) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """The L1 stepper of every problem with these alpha, grid, mesh and A.

    A must be assembled on ``grid``.  The weights, their differences and
    G = (b_0 I + A)^{-1} are computed here, once; b_0 I + A is built and
    inverted in one n x n buffer.  The returned function takes ``u0`` of
    shape (K, n) and the forcing samples of shape (M+1, K, n), for any K,
    and returns the states of the K problems, shape (M+1, K, n).  Its steps
    run in blocks of _BLOCK: a block starting at step s first forms, in its
    own rows of the states, the right-hand sides of all its steps from u^0,
    the forcing and the history over u^1 .. u^{s-1}, one matrix-matrix
    product per finished block of states; each step then adds its sum over
    u^s .. u^{n-1} (one forward matrix-vector product) and multiplies its
    K rows by G.  Nonnegative data give exactly nonnegative states in
    floating point.

    The returned function raises ValueError for a non-finite u0 or forcing
    sample (before the first step, so after the inversion) and for states
    that overflow.
    """
    M, nx = mesh.M, grid.n
    b = l1_weights(alpha, mesh.tau, M)
    w = b[:-1] - b[1:]  # w[j-1] = b_{j-1} - b_j > 0, j = 1..M
    G = np.array(A.entries, dtype=float)
    G.flat[:: nx + 1] += b[0]
    _inverse(G)

    def l1_states(u0: np.ndarray, forcing: np.ndarray) -> np.ndarray:
        K = u0.shape[0]
        if not np.isfinite(u0).all():
            k, i = np.argwhere(~np.isfinite(u0))[0]
            raise ValueError(f"u0 is {u0[k, i]} at x={float(grid.nodes()[i])!r}")
        if not np.isfinite(forcing).all():
            j, k, i = np.argwhere(~np.isfinite(forcing))[0]
            x, t = float(grid.nodes()[i]), float(mesh.times()[j])
            raise ValueError(f"forcing sample is {forcing[j, k, i]} at (x={x!r}, t={t!r})")
        step = np.empty((K, nx))
        states = np.empty((M + 1, K, nx))
        flat = states.reshape(M + 1, K * nx)
        states[0] = u0
        fflat = forcing.reshape(M + 1, K * nx)
        # An overflow shows as a non-finite state and is reported after the loop.
        with np.errstate(over="ignore", invalid="ignore"):
            for s in range(1, M + 1, _BLOCK):
                e = min(s + _BLOCK, M + 1)
                # Row n of the block first holds the right-hand side of step n
                # less its sum over u^s .. u^{n-1}: the u^0 and forcing terms,
                # then the sum over the states u^1 .. u^{s-1} of the finished
                # blocks.  Against the block u^c .. u^{c+_BLOCK-1} the weights
                # form a Toeplitz matrix: rows d .. d+e-s-1 of a window view of
                # w, columns reversed.
                rhs = flat[s:e]
                np.multiply(b[s - 1 : e - 1, None], flat[0], out=rhs)
                rhs += fflat[s:e]
                for c in range(1, s, _BLOCK):
                    d = s - c - _BLOCK
                    rhs += sliding_window_view(w, _BLOCK)[d : d + e - s, ::-1] @ flat[c : c + _BLOCK]
                for n in range(s, e):
                    if n > s:  # w_{n-s-1}, ..., w_0 against u^s .. u^{n-1}
                        flat[n] += np.dot(w[n - s - 1 :: -1], flat[s:n])
                    np.matmul(states[n], G, out=step)
                    states[n] = step
        if not np.isfinite(flat).all():
            k = np.flatnonzero(~np.isfinite(flat).all(axis=1))[0]
            raise ValueError(f"states overflow: u^{k} is not finite")
        return states

    return l1_states


def _inverse(B: np.ndarray) -> None:
    """Overwrite the M-matrix B with its inverse, which is >= 0 entrywise.

    The inverse is formed in B itself by the sign-safe Schur-complement
    recursion of the module docstring.  The only scratch is one product
    block of at most (n/2)^2 entries at a time: N^T X goes into the B_21
    slot, which symmetry leaves free.
    """
    np.subtract(0.0, B, out=B)
    _sweep(B)


def _sweep(H: np.ndarray) -> None:
    """Turn H = -B, B an M-matrix, into B^{-1} in place."""
    n = H.shape[0]
    if n == 1:
        np.divide(-1.0, H, out=H)  # H = -b < 0
        return
    k = n // 2
    H11, H12, H21, H22 = H[:k, :k], H[:k, k:], H[k:, :k], H[k:, k:]
    _sweep(H11)  # X; H12 holds N
    np.matmul(H12.T, H11, out=H21)  # N^T X
    H22 += H21 @ H12  # -S
    _sweep(H22)  # Y
    np.matmul(H21.T, H22, out=H12)  # (XN) Y
    H11 += H12 @ H21  # X + (XN) Y (XN)^T
    H21[...] = H12.T


def mollified_test_function(phi: np.ndarray, m: int, mesh: TimeMesh) -> np.ndarray:
    """eta(x, t) = int_t^T h_m(s - t) phi(x, s) ds, exactly per cell.

    ``phi`` is a space-time array (time-major, shape (M+1, nx)), required
    nonnegative with phi(., T) = 0.  The exponential is integrated exactly
    against the piecewise-linear interpolant of phi on each cell, so eta
    inherits nonnegativity and eta(., T) = 0 exactly.
    """
    phi = np.asarray(phi, dtype=float)
    if phi.ndim != 2 or phi.shape[0] != mesh.M + 1:
        raise ValueError(f"phi must have shape (M+1, nx), got {phi.shape}")
    if np.any(phi < 0.0):
        raise ValueError("test-function profile must be nonnegative")
    if np.any(phi[-1] != 0.0):
        raise ValueError("test-function profile must vanish at t = T")
    if m < 1:
        raise ValueError(f"m must be a positive integer, got {m}")
    tau = mesh.tau
    M = mesh.M
    # On cell [s_j, s_{j+1}], with offsets a = s_j - t: the exact weights of
    # phi_j and phi_{j+1} against m exp(-m (s - t)) are
    #   w_left  = E(a) (1 + 1/(m tau)) - E(b) / (m tau) - E(a) (a' terms)...
    # assembled below from I0 = int m e^{-ms} ds and I1 = int m (s-a) e^{-ms} ds.
    eta = np.zeros_like(phi)
    ex = np.exp(-m * tau * np.arange(M + 1))  # e^{-m (s_q - t)} offsets on the grid
    for nt in range(M):  # eta at t_nt; eta[M] = 0
        nc = M - nt  # number of cells ahead
        Ea = ex[:nc]  # e^{-m a_j}, a_j = j tau
        Eb = ex[1 : nc + 1]
        I0 = Ea - Eb  # int_cell m e^{-ms} ds
        # int_cell m (s - a_j) e^{-ms} ds = a_j I0 + (I0/m - tau Eb)  - a_j I0
        I1 = I0 / m - tau * Eb
        w_left = I0 - I1 / tau
        w_right = I1 / tau
        eta[nt] = w_left @ phi[nt : nt + nc] + w_right @ phi[nt + 1 : nt + nc + 1]
    return eta


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
    if m < 1:
        raise ValueError(f"m must be a positive integer, got {m}")
    M = problem.mesh.M
    if not 1 <= n < M:
        raise ValueError(f"forward difference needs 1 <= n < M, got n={n}")
    tau = problem.mesh.tau
    h = problem.grid.h
    alpha = problem.orders.alpha
    greg = regularized_kernel(alpha, m, problem.mesh).values
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


def solution_to_csv(sol: Solution) -> str:
    """Serialize as CSV rows t, x, u with 17 significant digits."""
    lines = ["t,x,u"]
    times = sol.problem.mesh.times()
    xs = sol.problem.grid.nodes()
    for nt, t in enumerate(times):
        for i, x in enumerate(xs):
            lines.append(f"{t:.17g},{x:.17g},{sol.states[nt, i]:.17g}")
    return "\n".join(lines) + "\n"


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
