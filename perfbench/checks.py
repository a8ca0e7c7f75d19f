"""Output checks that do not trust the stepper.

The L1 step residual is recomputed from ``timefrac.l1_weights`` and
``fraclap.assemble_1d``, bound here at import so that tracing (which
rebinds the names inside tsfrac) never sees the checker's own calls.
"""

from __future__ import annotations

import numpy as np
from tsfrac.fraclap import assemble_1d
from tsfrac.timefrac import l1_weights

RESIDUAL_TOL = 1e-10


def sampled_steps(M: int) -> list:
    return sorted({k for k in (1, 2, M // 4, M // 2, M - 1, M) if 1 <= k <= M})


def l1_residual(states: np.ndarray, forcing: np.ndarray, alpha: float, tau: float, A: np.ndarray) -> float:
    """Worst ||(b0 I + A) u^k - rhs^k|| / ||rhs^k|| over the sampled steps k."""
    M = states.shape[0] - 1
    b = l1_weights(alpha, tau, M)
    worst = 0.0
    for k in sampled_steps(M):
        rhs = b[k - 1] * states[0] + forcing[k]
        if k > 1:
            rhs = rhs + (b[: k - 1] - b[1:k]) @ states[k - 1 : 0 : -1]
        lhs = b[0] * states[k] + A @ states[k]
        scale = float(np.linalg.norm(rhs)) or 1.0
        worst = max(worst, float(np.linalg.norm(lhs - rhs)) / scale)
    return worst


class ResidualChecker:
    """Residuals of Solution objects; operator matrices cached per (grid, beta)."""

    def __init__(self):
        self._matrices: dict = {}

    def matrix(self, grid, beta: float) -> np.ndarray:
        key = (grid.a, grid.b, grid.n, beta)
        if key not in self._matrices:
            self._matrices[key] = assemble_1d(grid, beta).entries
        return self._matrices[key]

    def solution(self, sol, A=None) -> float:
        p = sol.problem
        entries = A.entries if A is not None else self.matrix(p.grid, p.orders.beta)
        return l1_residual(sol.states, sol.forcing, p.orders.alpha, p.mesh.tau, entries)


def violation(states: np.ndarray) -> float:
    """Positivity violation max(0, -min u); exactly 0.0 is required, no tolerance."""
    return max(0.0, -float(np.min(states)))


def report_statuses(node) -> list:
    """Every "status" value anywhere in a verify report."""
    out = []
    if isinstance(node, dict):
        for key, val in node.items():
            if key == "status":
                out.append(val)
            else:
                out.extend(report_statuses(val))
    elif isinstance(node, list):
        for val in node:
            out.extend(report_statuses(val))
    return out


def report_violations(node) -> list:
    """The "violation" value of every nonnegativity entry in a verify report."""
    out = []
    if isinstance(node, dict):
        if node.get("kind") in ("nonneg", "weak-nonneg") and "violation" in node:
            out.append(node["violation"])
        for val in node.values():
            out.extend(report_violations(val))
    elif isinstance(node, list):
        for val in node:
            out.extend(report_violations(val))
    return out
