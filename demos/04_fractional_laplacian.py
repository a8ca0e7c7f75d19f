"""The discrete fractional Laplacian: nonlocal, dense, and an M-matrix.

Every row couples to every node (the operator sees the whole line), the
off-diagonals are negative, and the exterior tail keeps all row sums
strictly positive: exactly the structure that makes the solver monotone.
The Getoor profile (1-x^2)^beta, whose fractional Laplacian is constant
inside (-1,1), serves as the accuracy oracle; the constant itself is
confirmed by adaptive quadrature of the definition, not taken on faith.
"""

import numpy as np
from scipy.integrate import quad
from scipy.special import gamma

from tsfrac import Field, SpaceGrid, assemble_1d, bilinear_a, normalization_constant

beta = 0.5
grid = SpaceGrid(-1.0, 1.0, 512)
A = assemble_1d(grid, beta)

entries = A.entries
print(f"beta = {beta}, n = {grid.n}")
print(f"symmetric: {np.array_equal(entries, entries.T)}")
print(f"diagonal positive: {np.all(np.diag(entries) > 0)}")
print(f"off-diagonal nonpositive: {np.all((entries - np.diag(np.diag(entries))) <= 0)}")
print(f"row sums strictly positive: min row sum = {entries.sum(axis=1).min():.4f}")

# Getoor test
x = grid.nodes()
Au = entries @ (1.0 - x**2) ** beta
const = 2.0 ** (2 * beta) * gamma(1 + beta) * gamma(beta + 0.5) / gamma(0.5)
err = np.max(np.abs(Au[np.abs(x) <= 0.5] - const))
print(f"\nGetoor profile: interior value should be {const:.6f}")
print(f"  matrix route, max interior error: {err:.2e}")
# c * int_0^inf (2 u(x0) - u(x0 + r) - u(x0 - r)) r^(-1-2 beta) dr, with u = 0
# outside (-1, 1): quadrature up to the far end, exact power-law tail beyond it.
x0 = 0.25
prof = lambda y: max(0.0, 1.0 - y * y) ** beta
rmax = 1.0 + abs(x0)
val, _ = quad(
    lambda r: (2.0 * prof(x0) - prof(x0 + r) - prof(x0 - r)) * r ** (-1.0 - 2.0 * beta),
    0.0, rmax, points=[1.0 - abs(x0)], limit=400, epsabs=1e-12, epsrel=1e-10,
)
oracle = normalization_constant(beta) * (val + prof(x0) * rmax ** (-2.0 * beta) / beta)
print(f"  quadrature oracle at x = {x0}:    {oracle:.8f}")

# energy form: positive/negative parts repel
rng = np.random.default_rng(3)
v = Field(grid, rng.standard_normal(grid.n))
vp, vm = Field(grid, np.maximum(v.values, 0.0)), Field(grid, np.maximum(-v.values, 0.0))
print(f"\nrandom field: a(u+, u-) = {bilinear_a(vp, vm, beta):.4f}  (always <= 0)")
print(f"              a(u-, u-) = {bilinear_a(vm, vm, beta):.4f}  (> 0 when u- is nonzero)")
