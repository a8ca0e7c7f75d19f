"""The stepper against its closed-form oracle.

On the one-node grid the fractional Laplacian is the 1 x 1 matrix
[lambda], so the L1 stepper with u0 = 1 and zero forcing solves
fractional relaxation, whose exact solution is E_alpha(-lambda t^alpha).
The stepper should land on that curve to O(tau); the table prints the
relative error at t = 1 for a sweep of orders.
"""

import numpy as np

from tsfrac import SpaceGrid, TimeMesh, assemble_1d, mittag_leffler
from tsfrac.solver import l1_stepper

grid = SpaceGrid(-1.0, 1.0, 1)
beta = 0.5
lam = float(assemble_1d(grid, beta).entries[0, 0])
print(f"one-node grid at beta = {beta}: lambda = {lam:.6f}\n")


def relaxation(alpha, M):
    """u^0 .. u^M on [0, 1]: one problem (K = 1) with u0 = 1 and f = 0."""
    step = l1_stepper(alpha, beta, grid, TimeMesh(1.0, M))
    return step(np.ones((1, 1)), np.zeros((M + 1, 1, 1)))[:, 0, 0]


print(f"{'alpha':>6} {'u(1) stepped':>14} {'E_alpha(-lam)':>14} {'rel err':>10}")
for alpha in (0.3, 0.5, 0.7, 0.9):
    u = relaxation(alpha, 2048)
    exact = mittag_leffler(alpha, -lam)
    err = abs(u[-1] - exact) / exact
    print(f"{alpha:6.2f} {u[-1]:14.8f} {exact:14.8f} {err:10.2e}")

print("\nthe same trajectory at alpha = 0.5 is erfcx(lambda sqrt(t)) in closed form:")
from scipy.special import erfcx

u = relaxation(0.5, 512)
for k in (64, 256, 512):
    t = 512 ** -1 * k
    print(f"  t = {t:5.3f}: stepped {u[k]:.6f}, erfcx(lambda sqrt(t)) = {float(erfcx(lam * np.sqrt(t))):.6f}")
