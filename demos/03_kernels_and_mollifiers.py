"""The kernel zoo: power-law memory, mollified and monotone regularizations.

g_gamma(t) = t^(gamma-1)/Gamma(gamma) blows up at t = 0, which is why weak
formulations swap it for regularized kernels.  Two families are built
here: the exponential-mollified one (value 0 at t = 0, hump at t ~ 1/m)
and the completely monotone one (value m at t = 0, strictly decreasing).
Both converge to g in L1, which the ladder below shows.
"""

import numpy as np

from tsfrac import TimeMesh, convolve, g_kernel, h_kernel
from tsfrac.kernels import g_cell_integral, monotone_regularized_kernel, regularized_kernel

mesh = TimeMesh(1.0, 4096)
t = mesh.times()
alpha = 0.5

print("g_{1-alpha} at a few times (alpha = 0.5):")
for tt in (0.01, 0.1, 1.0):
    print(f"  g({tt:5.2f}) = {g_kernel(1 - alpha, tt):8.4f}")

print("\nL1 distance to g_{1-alpha} along the m ladder:")
g = g_kernel(1 - alpha, t[1:])
print(f"{'m':>5} {'mollified':>12} {'monotone':>12}")
for m in (4, 16, 64, 256):
    km = regularized_kernel(alpha, m, mesh)
    body = mesh.tau * np.sum(np.abs(g - km[1:]))
    head = g_cell_integral(1 - alpha, 0.0, mesh.tau) - 0.5 * mesh.tau * km[1]
    kmono = monotone_regularized_kernel(alpha, m, mesh)
    dmono = mesh.tau * np.sum(np.abs(g - kmono[1:]))
    print(f"{m:5d} {body + abs(head):12.5f} {dmono:12.5f}")

print("\nmollified kernel shape (hump) vs monotone kernel (decreasing), m = 16:")
km = regularized_kernel(alpha, 16, mesh)
kmono = monotone_regularized_kernel(alpha, 16, TimeMesh(1.0, 16))
peak = np.argmax(km)
print(f"  mollified: k(0) = {km[0]:.1f}, peak {km[peak]:.3f} at t = {t[peak]:.4f}")
print(f"  monotone:  k(0) = {kmono[0]:.1f}, then strictly decreasing "
      f"({'yes' if np.all(np.diff(kmono) < 0) else 'no'})")

print("\nh_m is an approximate identity: ||h_m * u - u||_L2 for a smooth u")
u = np.sin(np.pi * t) * (1 + 0.3 * np.cos(3 * np.pi * t))
for m in (4, 16, 64, 256):
    err = np.sqrt(mesh.tau * np.sum((convolve(h_kernel(m, t), u, mesh.tau) - u) ** 2))
    print(f"  m = {m:4d}: {err:.5f}")
