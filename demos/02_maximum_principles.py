"""The maximum principles as executable facts.

Nonnegative data give a nonnegative solution, and with a nonnegative
forcing the global minimum can only sit on the parabolic boundary (the
initial slice or the exterior-adjacent layer), never strictly inside at
the final time.  The checks read a solution's states and forcing samples
as (M+1, n) arrays.  Both are exact properties of the monotone scheme, so
the randomized trials below, which draw each trial's data as arrays from
its seed, pass, nonnegativity with no tolerance at all, reproducibly.
"""

import numpy as np

from tsfrac import (
    Field,
    FracOrders,
    ProblemSpec,
    SpaceGrid,
    TimeMesh,
    TrialConfig,
    check_nonnegativity,
    check_parabolic_boundary,
    run_trials,
    solve,
)

grid = SpaceGrid(-1.0, 1.0, 64)
mesh = TimeMesh(1.0, 96)
x = grid.nodes()

# one concrete instance first: bump initial state, gentle nonnegative forcing
problem = ProblemSpec(
    FracOrders(0.5, 0.5),
    grid,
    mesh,
    Field(grid, np.maximum(0.0, 1.0 - 4.0 * x**2)),
    lambda xs, t: 0.2 * (1.0 + np.cos(np.pi * xs)),
)
sol = solve(problem)

nn = check_nonnegativity(sol.states, sol.forcing)
print(f"nonnegativity: {nn.status}, min value {nn.extremal_value:.3e} at {nn.location}")

pb = check_parabolic_boundary(sol.states, sol.forcing)
print(f"parabolic boundary: {pb.status}, argmin tagged {pb.location_class.value}")

# a hypothesis violation is a distinct outcome, not a theorem failure
bad = ProblemSpec(
    FracOrders(0.5, 0.5), grid, mesh, problem.u0, lambda xs, t: np.full_like(xs, -10.0)
)
bad_sol = solve(bad)
print(f"negative forcing: {check_nonnegativity(bad_sol.states, bad_sol.forcing).status}")

# with f <= 0 the maximum sits on the parabolic boundary: the min check on -u,
# which is the solution for -u0 and -f since the equation is linear
mx = check_parabolic_boundary(-bad_sol.states, -bad_sol.forcing)
print(f"max statement under f <= 0: {mx.status}, argmax tagged {mx.location_class.value}")

# now hammer it: randomized trials over an (alpha, beta) lattice
for kind in ("nonneg", "boundary-min", "weak-nonneg"):
    config = TrialConfig(
        kind=kind,
        trials=40,
        seed=7,
        alphas=(0.3, 0.5, 0.7, 0.9),
        betas=(0.3, 0.5, 0.7, 0.9),
        grid=grid,
        mesh=mesh,
    )
    report = run_trials(config)
    print(
        f"{kind:13s}: {report.status} over {report.trials} trials, "
        f"worst violation {report.violation:.2e}, argext class {report.location_class.value}"
    )
