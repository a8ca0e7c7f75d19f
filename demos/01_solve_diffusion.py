"""Solve a time-space fractional diffusion problem and watch a bump relax.

The equation carries memory (order alpha in time) and long-range coupling
(order beta in space), so a compactly supported bump decays with a heavy
tail rather than the exponential rate of classical heat flow.
"""

import numpy as np

from tsfrac import Field, FracOrders, ProblemSpec, SpaceGrid, TimeMesh, solve
from tsfrac.solver import solution_csv_rows

orders = FracOrders(alpha=0.6, beta=0.7)
grid = SpaceGrid(-1.0, 1.0, 127)
mesh = TimeMesh(T=1.0, M=256)

x = grid.nodes()
u0 = Field(grid, np.maximum(0.0, 1.0 - 4.0 * x**2))  # bump supported in (-1/2, 1/2)
problem = ProblemSpec(orders, grid, mesh, u0, lambda xs, t: np.zeros_like(xs))

sol = solve(problem)

print(f"alpha={orders.alpha}, beta={orders.beta}, n={grid.n}, M={mesh.M}")
print(f"{'t':>6} {'max u':>10} {'mass h*sum(u)':>14}")
for k in range(0, mesh.M + 1, 32):
    u = sol.states[k]
    print(f"{mesh.times()[k]:6.3f} {u.max():10.6f} {grid.h * u.sum():14.6f}")

# the heavy tail: compare against exp decay fitted at early times
early = sol.states[32].max() / sol.states[16].max()
late = sol.states[256].max() / sol.states[128].max()
print(f"\npeak decay ratio over one doubling, early vs late: {early:.3f} vs {late:.3f}")
print("(classical diffusion would keep that ratio fixed; memory slows it down)")

with open("demo_solution.csv", "w") as fh:
    fh.writelines(solution_csv_rows(sol))
print("wrote demo_solution.csv (columns t, x, u)")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    for k in (0, 16, 64, 256):
        plt.plot(x, sol.states[k], label=f"t = {mesh.times()[k]:.2f}")
    plt.legend()
    plt.xlabel("x")
    plt.ylabel("u")
    plt.title("fractional diffusion of a bump")
    plt.savefig("demo_solution.png", dpi=120)
    print("wrote demo_solution.png")
except ImportError:
    pass
