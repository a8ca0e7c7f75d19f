"""tsfrac: time-space fractional diffusion in 1-D, with its maximum principles as executable checks.

The library solves d^alpha/dt^alpha (u - u0) + (-Delta)^beta u = f
(alpha, beta in (0,1)) on an interval with zero exterior condition, and
ships the verification machinery that makes the maximum principles of
that equation testable: discrete fractional-derivative inequalities
and extremum signs, M-matrix structure of the nonlocal operator, nonnegativity
and parabolic-boundary checks, and a Mittag-Leffler relaxation oracle.

Modules: kernels (power-law/mollified kernels, convolution,
Mittag-Leffler), timefrac (L1 derivative, convexity inequalities),
fraclap (fractional Laplacian assembly and energy form), solver
(the L1 stepper and solve, its one-column call for the assembled
operator; weak residual), principles (maximum-principle
harness), exprparse (config expressions), cli (command line).
"""

from .fraclap import (
    Field,
    FracLapMatrix,
    SpaceGrid,
    assemble_1d,
    bilinear_a,
    normalization_constant,
)
from .kernels import (
    TimeMesh,
    TimeSeries,
    convolve,
    g_kernel,
    h_kernel,
    mittag_leffler,
    monotone_regularized_kernel,
    regularized_kernel,
)
from .principles import (
    BoundaryClass,
    PrincipleReport,
    TrialConfig,
    check_nonnegativity,
    check_parabolic_boundary,
    classify,
    run_trials,
)
from .solver import (
    FracOrders,
    ProblemSpec,
    Solution,
    solve,
    weak_residual,
)
from .timefrac import caputo_l1, convex_inequality_check, l1_weights, rl_extremum_sign

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # kernels
    "TimeMesh", "TimeSeries", "g_kernel", "h_kernel",
    "regularized_kernel", "monotone_regularized_kernel", "convolve", "mittag_leffler",
    # timefrac
    "l1_weights", "caputo_l1", "convex_inequality_check", "rl_extremum_sign",
    # fraclap
    "SpaceGrid", "Field", "FracLapMatrix", "normalization_constant",
    "assemble_1d", "bilinear_a",
    # solver
    "FracOrders", "ProblemSpec", "Solution", "solve", "weak_residual",
    # principles
    "BoundaryClass", "PrincipleReport", "TrialConfig", "classify",
    "check_nonnegativity", "check_parabolic_boundary", "run_trials",
]
