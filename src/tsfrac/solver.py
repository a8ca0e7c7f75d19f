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

Each step applies G = (b_0 I + A)^{-1}, formed once per solve, with one
symmetric matrix-vector product (BLAS dsymv) in place of two triangular
solves.  G is the inverse of an M-matrix and so entrywise nonnegative
(Berman & Plemmons, Nonnegative Matrices in the Mathematical Sciences,
SIAM 1994, ch. 6), and it stays so in floating point: the upper Cholesky
factor U of b_0 I + A has nonpositive off-diagonal entries even after
rounding, so every term LAPACK dtrtri adds to U^{-1} has the same sign,
and dlauum forms U^{-1} U^{-T} from products and sums of nonnegatives.
Positivity is therefore exact, with no clamping: each history term is a
positive weight times a nonnegative state, whatever the order, and G maps
a nonnegative right-hand side to a nonnegative state.  The price is the
backward error of inversion against solving (Higham, Accuracy and
Stability of Numerical Algorithms, 2nd ed., ch. 14): the relative step
residual measured 1.5-1.7 times the Cholesky one (README).

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
from scipy import linalg
from scipy.linalg import blas, lapack

from .fraclap import Field, FracLapMatrix, SpaceGrid, assemble_1d, bilinear_a
from .kernels import TimeMesh, TimeSeries, check_order, convolve, h_kernel, regularized_kernel
from .timefrac import l1_weights

__all__ = [
    "FracOrders",
    "ProblemSpec",
    "Solution",
    "solve",
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
    """Assemble (once) and run all M L1-implicit steps; deterministic for fixed inputs.

    The weights, their differences and one triangle of the inverse
    G = (b_0 I + A)^{-1} are computed once; b_0 I + A is built, factored and
    inverted in one n x n buffer.  The steps run in blocks of _BLOCK: a
    block starting at step s first forms the right-hand sides of all its
    steps from u^0, the forcing and the history over u^1 .. u^{s-1}, one
    matrix-matrix product per finished block of states; each step then adds
    its sum over u^s .. u^{n-1} (one forward matrix-vector product) and
    multiplies its right-hand side by G (one dsymv).  Every history term
    is a positive weight times a nonnegative state and G is entrywise
    nonnegative, so nonnegative data give exactly nonnegative states in
    floating point.

    Raises ValueError for a non-finite u0 or forcing sample (before any
    factoring) and for states that overflow.
    """
    if A is None:
        A = assemble_1d(problem.grid, problem.orders.beta)
    elif A.grid != problem.grid:
        raise ValueError("matrix assembled on a different grid")
    elif A.beta != problem.orders.beta:
        raise ValueError(f"matrix assembled for beta={A.beta}, not {problem.orders.beta}")
    M = problem.mesh.M
    nx = problem.grid.n
    fsamp = problem.forcing_samples()
    states = np.empty((M + 1, nx))
    states[0] = problem.u0.values
    if not np.isfinite(states[0]).all():
        i = np.flatnonzero(~np.isfinite(states[0]))[0]
        raise ValueError(f"u0 is {states[0, i]} at x={float(problem.grid.nodes()[i])!r}")
    if not np.isfinite(fsamp).all():
        j, i = np.argwhere(~np.isfinite(fsamp))[0]
        x, t = float(problem.grid.nodes()[i]), float(problem.mesh.times()[j])
        raise ValueError(f"forcing sample is {fsamp[j, i]} at (x={x!r}, t={t!r})")
    b = l1_weights(problem.orders.alpha, problem.mesh.tau, M)
    w = b[:-1] - b[1:]  # w[j-1] = b_{j-1} - b_j > 0, j = 1..M
    # b_0 I + A, then its upper Cholesky factor, then the upper triangle of
    # its inverse, all in this one Fortran-ordered buffer.
    G = np.array(A.entries, dtype=float, order="F")
    G.flat[:: nx + 1] += b[0]
    G, lower = linalg.cho_factor(G, overwrite_a=True)
    G, info = lapack.dpotri(G, lower=lower, overwrite_c=True)
    if info != 0:
        raise ValueError(f"inverting b_0 I + A failed: LAPACK dpotri info={info}")
    # An overflow shows as a non-finite state and is reported after the loop.
    with np.errstate(over="ignore", invalid="ignore"):
        for s in range(1, M + 1, _BLOCK):
            e = min(s + _BLOCK, M + 1)
            # rhs[r] is the right-hand side of step s+r less its sum over
            # u^s .. u^{s+r-1}: the u^0 and forcing terms, then the sum over
            # the states u^1 .. u^{s-1} of the finished blocks.  Against the
            # block u^c .. u^{c+_BLOCK-1} the weights form a Toeplitz matrix:
            # rows d .. d+e-s-1 of a window view of w, columns reversed.
            rhs = b[s - 1 : e - 1, None] * states[0] + fsamp[s:e]
            for c in range(1, s, _BLOCK):
                d = s - c - _BLOCK
                rhs += sliding_window_view(w, _BLOCK)[d : d + e - s, ::-1] @ states[c : c + _BLOCK]
            for n in range(s, e):
                r = rhs[n - s]
                if n > s:  # w_{n-s-1}, ..., w_0 against u^s .. u^{n-1}
                    r += np.dot(w[n - s - 1 :: -1], states[s:n])
                states[n] = blas.dsymv(1.0, G, r, lower=lower)
    if not np.isfinite(states).all():
        k = np.flatnonzero(~np.isfinite(states).all(axis=1))[0]
        raise ValueError(f"states overflow: u^{k} is not finite")
    return Solution(problem=problem, states=states, forcing=fsamp)


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
    required) and h-weighted sums for the space integrals.  For a solution
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
    greg = regularized_kernel(alpha, m, problem.mesh)
    hm = TimeSeries(tau, h_kernel(m, problem.mesh.times()))

    dstates = sol.states - sol.states[0]
    nx = problem.grid.n
    ddt = np.empty(nx)
    hu_n = np.empty(nx)
    hf_n = np.empty(nx)
    for i in range(nx):
        conv_g = convolve(greg, TimeSeries(tau, dstates[:, i])).values
        ddt[i] = (conv_g[n + 1] - conv_g[n]) / tau
        hu_n[i] = convolve(hm, TimeSeries(tau, sol.states[:, i])).values[n]
        hf_n[i] = convolve(hm, TimeSeries(tau, sol.forcing[:, i])).values[n]
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
