"""The stepper against its closed-form oracle.

Replacing the space operator by the scalar lambda = 1 turns the equation
into fractional relaxation, whose exact solution is E_alpha(-t^alpha).
The implicit L1 stepper should land on that curve to O(tau); the table
prints the relative error at t = 1 for a sweep of orders.
"""

import numpy as np

from tsfrac import Field, FracLapMatrix, FracOrders, ProblemSpec, SpaceGrid, TimeMesh, mittag_leffler, solve

grid = SpaceGrid(-1.0, 1.0, 1)
lam = FracLapMatrix(beta=0.5, grid=grid, entries=np.array([[1.0]]))

print(f"{'alpha':>6} {'u(1) stepped':>14} {'E_alpha(-1)':>14} {'rel err':>10}")
for alpha in (0.3, 0.5, 0.7, 0.9):
    problem = ProblemSpec(
        FracOrders(alpha, 0.5),
        grid,
        TimeMesh(1.0, 2048),
        Field(grid, np.array([1.0])),
        lambda x, t: np.zeros_like(x),
    )
    sol = solve(problem, A=lam)
    exact = mittag_leffler(alpha, -1.0)
    err = abs(sol.states[-1, 0] - exact) / exact
    print(f"{alpha:6.2f} {sol.states[-1, 0]:14.8f} {exact:14.8f} {err:10.2e}")

print("\nthe same trajectory at alpha = 0.5 is erfcx(sqrt(t)) in closed form:")
from scipy.special import erfcx

problem = ProblemSpec(
    FracOrders(0.5, 0.5), grid, TimeMesh(1.0, 512), Field(grid, np.array([1.0])),
    lambda x, t: np.zeros_like(x),
)
sol = solve(problem, A=lam)
for k in (64, 256, 512):
    t = 512 ** -1 * k
    print(f"  t = {t:5.3f}: stepped {sol.states[k, 0]:.6f}, erfcx(sqrt(t)) = {float(erfcx(np.sqrt(t))):.6f}")
