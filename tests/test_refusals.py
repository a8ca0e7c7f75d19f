"""Library refusals that the other suites never reach.

Each case is one call that breaks a documented precondition; it must
raise ``ValueError`` with its own message rather than return a number.
"""

import re

import numpy as np
import pytest

from tsfrac.fraclap import Field, SpaceGrid
from tsfrac.kernels import TimeMesh, g_cell_integral, monotone_regularized_kernel
from tsfrac.solver import FracOrders, ProblemSpec, Solution, solve, weak_residual
from tsfrac.timefrac import convex_inequality_check, l1_weights, rl_extremum_sign

GRID, OTHER = SpaceGrid(-1.0, 1.0, 4), SpaceGrid(-1.0, 1.0, 5)
MESH = TimeMesh(1.0, 4)


def _problem():
    return ProblemSpec(FracOrders(0.5, 0.5), GRID, MESH, Field(GRID, np.ones(4)), lambda x, t: 0.0 * x)


CASES = {
    "l1_weights n < 0": (lambda: l1_weights(0.5, 0.1, -1), "n must be >= 0, got -1"),
    "l1_weights tau = 0": (lambda: l1_weights(0.5, 0.0, 3), "tau must be positive, got 0.0"),
    "g_cell_integral t1 < t0": (lambda: g_cell_integral(0.5, 0.2, 0.1), "need 0 <= t0 <= t1"),
    "monotone_regularized_kernel m = 0": (
        lambda: monotone_regularized_kernel(0.5, 0, MESH), "m must be a positive integer, got 0"),
    "convex_inequality_check inf kernel": (
        lambda: convex_inequality_check(np.zeros(3), np.array([np.inf, 1.0, 0.5]), 0.1),
        "kernel samples must be finite"),
    "rl_extremum_sign n0 out of range": (
        lambda: rl_extremum_sign(np.zeros(5), 0.1, 0.5, 5), "index n0=5 outside series of length 5"),
    "ProblemSpec u0 on another grid": (
        lambda: ProblemSpec(FracOrders(0.5, 0.5), GRID, MESH, Field(OTHER, np.ones(5)), lambda x, t: 0.0 * x),
        "u0 lives on a different grid"),
    "Solution states of the wrong shape": (
        lambda: Solution(_problem(), np.zeros((4, 4)), np.zeros((5, 4))),
        "states shape (4, 4), expected (5, 4)"),
    "weak_residual psi on another grid": (
        lambda: weak_residual(solve(_problem()), Field(OTHER, np.ones(5)), 4, 1),
        "test function lives on a different grid"),
}


@pytest.mark.parametrize("case", CASES)
def test_refusal(case):
    call, message = CASES[case]
    with pytest.raises(ValueError, match=re.escape(message)):
        call()
