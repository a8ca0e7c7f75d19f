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
blocks, one matrix-matrix product per finished block.  Inside the block
the same splitting runs on the dyadic schedule: once step n, the q-th of
its block, has its state, the L = q & -q states u^{n-L+1} .. u^n are
pushed into the right-hand sides of the next L steps of the block, one
matrix-matrix product.  Steps j < n of one block meet in exactly one push
(the highest bit where j - s and n - s differ picks it), after step j and
before step n.  A push is np.dot, not @: half of the pushes are 1 x 1
products, where np.dot's call costs half of matmul's.  Only the order of
summation differs from a step-by-step sum.

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

Also here: the mollified weak-form residual and the CSV and metadata
serialization of a Solution.
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
    """Assemble the problem's operator, sample the forcing and run all M L1-implicit steps.

    A one-column call of the stepper that l1_stepper builds; deterministic
    for fixed inputs.  A caller with another operator calls l1_stepper
    itself.  Raises ValueError for a non-finite u0 or forcing sample
    (checked after the inversion, before the first step) and for states
    that overflow.
    """
    A = assemble_1d(problem.grid, problem.orders.beta)
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
    product per finished block of states; each step then multiplies its K
    rows by G and pushes its dyadic sub-block of states into the rows of
    the next steps.  Nonnegative data give exactly nonnegative states.

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
    # toeplitz[r, c] = w[r + _BLOCK - 1 - c], zero past w[M-1] so that M < _BLOCK has a view too
    toeplitz = sliding_window_view(np.concatenate([w, np.zeros(_BLOCK - 1)]), _BLOCK)[:, ::-1]

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
                # Row n of the block first holds the u^0 and forcing terms of
                # step n, then its sum over the states u^1 .. u^{s-1} of the
                # finished blocks, one product per block u^c .. u^{c+_BLOCK-1}.
                rhs = flat[s:e]
                np.multiply(b[s - 1 : e - 1, None], flat[0], out=rhs)
                rhs += fflat[s:e]
                for c in range(1, s, _BLOCK):
                    rhs += toeplitz[s - c - _BLOCK : e - c - _BLOCK] @ flat[c : c + _BLOCK]
                for n in range(s, e):
                    np.matmul(states[n], G, out=step)
                    states[n] = step
                    q = n - s + 1  # step n is the q-th of its block
                    L = q & -q
                    r = min(n + 1 + L, e)  # push u^{n-L+1} .. u^n into rows n+1 .. r-1
                    flat[n + 1 : r] += np.dot(toeplitz[: r - n - 1, _BLOCK - L :], flat[n + 1 - L : n + 1])
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
    xs = [f",{x:.17g}," for x in sol.problem.grid.nodes().tolist()]
    for t, us in zip(sol.problem.mesh.times().tolist(), sol.states):
        ts = f"{t:.17g}"
        lines += [f"{ts}{x}{u:.17g}" for x, u in zip(xs, us.tolist())]
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
