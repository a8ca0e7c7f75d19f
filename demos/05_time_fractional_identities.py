"""Discrete time-fractional calculus: weights, extremum signs, inequalities.

Two layers of structure, each checked numerically below:

* the L1 derivative agrees with the Grunwald-Letnikov sum on smooth signals;
* at a discrete global maximum the fractional derivative of u - u(0) is
  nonnegative, and the convex-part inequalities hold exactly for any
  nonnegative nonincreasing kernel.
"""

import numpy as np

from tsfrac import caputo_l1, convex_inequality_check, rl_extremum_sign
from tsfrac.kernels import TimeMesh, monotone_regularized_kernel

alpha = 0.5
M = 2048
tau = 1.0 / M
t = tau * np.arange(M + 1)

print("derivative of t^2 at t = 1, order 1/2 (exact 1.50450555...):")
v = t**2
print(f"  l1: {caputo_l1(v, tau, alpha, M):.6f}")
# Grunwald-Letnikov weights: w_0 = 1, w_j = w_{j-1} (1 - (alpha + 1)/j)
gl = np.concatenate(([1.0], np.cumprod(1.0 - (alpha + 1.0) / np.arange(1, M + 1))))
print(f"  gl: {tau**-alpha * gl @ (v[M::-1] - v[0]):.6f}")

print("\nextremum sign check on u = t(2-t) over [0, 2]:")
M2 = 512
tau2 = 2.0 / M2
u2 = (tau2 * np.arange(M2 + 1)) * (2.0 - tau2 * np.arange(M2 + 1))
n0 = int(np.argmax(u2))
val, ok = rl_extremum_sign(u2, tau2, alpha, n0, "max")
print(f"  derivative at the max: {val:+.4f} (>= 0: {ok})")

print("\nconvex-part inequalities on 50 random trajectories, monotone kernel m = 8:")
mesh = TimeMesh(1.0, 128)
k = monotone_regularized_kernel(alpha, 8, mesh)
rng = np.random.default_rng(0)
all_ok = True
for _ in range(50):
    breaks = np.linspace(0, 128, 8).astype(int)
    traj = np.interp(np.arange(129), breaks, rng.uniform(-1, 1, 8))
    all_ok &= convex_inequality_check(traj, k, mesh.tau).all_ok()
print(f"  all verdicts pass at 1e-10 relative tolerance: {all_ok}")
