"""Independent reference routines that only the tests use.

Each one computes a quantity by a route the library does not take:
adaptive quadrature of the fractional Laplacian's definition, the
positive/negative split of a grid function, the Grunwald-Letnikov
binomial weights, the randomized trials run one solve per trial, the
mollified weak residual with one discrete convolution per node, the
expression language evaluated one scalar (x, t) at a time by a recursive
tree walk with Python's math module, and the printer whose output parses
back to the same tree.
"""

import math

import numpy as np
from scipy import integrate

from tsfrac.exprparse import BinOp, Call, Expr, Neg, Num, Var

from tsfrac.fraclap import Field, assemble_1d, bilinear_a, normalization_constant
from tsfrac.principles import (
    PrincipleReport,
    TrialConfig,
    _random_bump,
    _random_forcing,
    check_nonnegativity,
    check_parabolic_boundary,
)
from tsfrac.kernels import TimeSeries, convolve, h_kernel, regularized_kernel
from tsfrac.solver import FracOrders, ProblemSpec, Solution, solve


def quadrature_reference(profile, x0: float, beta: float, a: float, b: float) -> float:
    """Adaptive-quadrature oracle for (-Delta)^beta at one point.

    Evaluates c * int_0^inf (2 u(x0) - u(x0+r) - u(x0-r)) r^(-1-2 beta) dr
    for a callable profile (zero outside (a, b)) with scipy quadrature,
    independent of the matrix assembly: breakpoints at the distances to
    the domain ends, exact power-law tail beyond them.  x0 must be
    interior.
    """
    if not a < x0 < b:
        raise ValueError(f"x0={x0} must lie inside ({a}, {b})")
    c = normalization_constant(beta)
    u0 = float(profile(x0))

    def uu(y):
        return float(profile(y)) if a < y < b else 0.0

    def integrand(r):
        return (2.0 * u0 - uu(x0 + r) - uu(x0 - r)) * r ** (-1.0 - 2.0 * beta)

    r_right = b - x0
    r_left = x0 - a
    rmax = max(r_left, r_right)
    breaks = [p for p in sorted({r_left, r_right}) if 0.0 < p < rmax]
    val, _ = integrate.quad(
        integrand, 0.0, rmax, points=breaks or None, limit=400, epsabs=1e-12, epsrel=1e-10
    )
    tail = 2.0 * u0 * rmax ** (-2.0 * beta) / (2.0 * beta)
    return c * (val + tail)


def sign_split(u: Field) -> tuple[Field, Field]:
    """Split into positive and negative parts: u = u+ - u-, both >= 0, u+ u- = 0."""
    return (
        Field(u.grid, np.maximum(u.values, 0.0)),
        Field(u.grid, np.maximum(-u.values, 0.0)),
    )


def gl_weights(alpha: float, n: int) -> np.ndarray:
    """Grunwald-Letnikov weights w_0..w_n: w_0 = 1, w_j = w_{j-1}(1-(alpha+1)/j).

    These are (-1)^j * binom(alpha, j); partial sums decrease to 0 from
    above (binomial theorem at x = 1).
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if n == 0:
        return np.ones(1)
    j = np.arange(1, n + 1)
    return np.concatenate(([1.0], np.cumprod(1.0 - (alpha + 1.0) / j)))


def run_trials_reference(config: TrialConfig) -> PrincipleReport:
    """``run_trials`` with one ``solve`` per trial, in trial order.

    Each trial samples its forcing step by step through
    ``ProblemSpec.forcing_samples`` and inverts its own b_0 I + A.
    """
    master = np.random.default_rng(config.seed)
    seeds = [int(s) for s in master.integers(0, 2**31 - 1, config.trials)]
    lattice = [(float(al), float(be)) for al in config.alphas for be in config.betas]
    grid, mesh = config.grid, config.mesh

    matrices = {}
    worst: PrincipleReport | None = None
    for idx, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        alpha, beta = lattice[idx % len(lattice)]
        if beta not in matrices:
            matrices[beta] = assemble_1d(grid, beta)
        A = matrices[beta]

        u0 = _random_bump(rng, grid)
        if config.kind != "boundary-min":
            u0 = np.maximum(u0, 0.0)
        f = _random_forcing(rng, grid)
        if config.kind == "weak-nonneg":
            # a supersolution of the slack-free problem: strictly positive
            # forcing slack; the conclusion (nonnegativity) is checked exactly
            slack = float(rng.uniform(0.5, 1.5))
            f = lambda xs, t, base=f, slack=slack: base(xs, t) + slack

        problem = ProblemSpec(FracOrders(alpha, beta), grid, mesh, Field(grid, u0), f)
        sol = solve(problem, A=A)

        if config.kind == "boundary-min":
            report = check_parabolic_boundary(sol)
        else:
            report = check_nonnegativity(sol)

        if worst is None or report.violation > worst.violation or (
            report.status != "pass" and worst.status == "pass"
        ):
            worst = report

    assert worst is not None
    worst.trials = config.trials
    worst.seeds = seeds
    worst.lattice = lattice
    worst.kind = config.kind
    return worst


def weak_residual_reference(sol: Solution, psi: Field, m: int, n: int) -> float:
    """``weak_residual`` with three ``kernels.convolve`` calls per node."""
    problem = sol.problem
    tau = problem.mesh.tau
    h = problem.grid.h
    greg = regularized_kernel(problem.orders.alpha, m, problem.mesh)
    hm = TimeSeries(tau, h_kernel(m, problem.mesh.times()))
    dstates = sol.states - sol.states[0]
    nx = problem.grid.n
    ddt = np.empty(nx)
    hu_n = np.empty(nx)
    hf_n = np.empty(nx)
    for i in range(nx):
        conv_g = convolve(greg, TimeSeries(tau, dstates[:, i])).values
        ddt[i] = (conv_g[n + 1] - conv_g[n]) / tau
        hu_n[i] = convolve(hm, TimeSeries(tau, sol.states[:, i])).values[n]
        hf_n[i] = convolve(hm, TimeSeries(tau, sol.forcing[:, i])).values[n]
    term_time = h * float(psi.values @ ddt)
    term_form = bilinear_a(Field(problem.grid, hu_n), psi, problem.orders.beta)
    term_load = h * float(psi.values @ hf_n)
    return term_time + term_form - term_load


def _pow(a: float, b: float) -> float:
    """Real power: repeated multiplication for small integer exponents, exp*log otherwise."""
    if b == int(b) and abs(b) <= 64:
        k = int(abs(b))
        out = 1.0
        for _ in range(k):
            out *= a
        if b < 0:
            if out == 0.0:
                return math.inf if a >= 0 or k % 2 == 0 else -math.inf
            return 1.0 / out
        return out
    if a < 0.0:
        return math.nan
    if a == 0.0:
        return 0.0 if b > 0 else math.inf
    try:
        return math.exp(b * math.log(a))
    except OverflowError:
        return math.inf


def evaluate_reference(e: Expr, x: float, t: float) -> float:
    """Evaluate with IEEE semantics: inf/nan propagate, nothing raises."""
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Var):
        return float(x) if e.name == "x" else float(t)
    if isinstance(e, Neg):
        return -evaluate_reference(e.arg, x, t)
    if isinstance(e, BinOp):
        a = evaluate_reference(e.left, x, t)
        b = evaluate_reference(e.right, x, t)
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "*":
            return a * b
        if e.op == "/":
            if b == 0.0:
                if a == 0.0 or math.isnan(a):
                    return math.nan
                return math.copysign(math.inf, a) * math.copysign(1.0, b)
            return a / b
        return _pow(a, b)
    a = [evaluate_reference(arg, x, t) for arg in e.args]
    if e.name == "sin":
        return math.sin(a[0]) if math.isfinite(a[0]) else math.nan
    if e.name == "cos":
        return math.cos(a[0]) if math.isfinite(a[0]) else math.nan
    if e.name == "exp":
        try:
            return math.exp(a[0])
        except OverflowError:
            return math.inf
    if e.name == "abs":
        return abs(a[0])
    if e.name == "sqrt":
        return math.sqrt(a[0]) if a[0] >= 0.0 else math.nan
    if e.name == "max":
        return max(a[0], a[1])
    return min(a[0], a[1])


_LEVEL = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def _render(e: Expr, parent_level: int) -> str:
    if isinstance(e, Num):
        s = repr(e.value)
        return s[:-2] if s.endswith(".0") else s
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Call):
        return f"{e.name}({', '.join(_render(a, 0) for a in e.args)})"
    if isinstance(e, Neg):
        inner = _render(e.arg, _LEVEL["neg"])
        s = f"-{inner}"
        return f"({s})" if parent_level > _LEVEL["neg"] else s
    lvl = _LEVEL[e.op]
    if e.op == "^":
        left = _render(e.left, lvl + 1)  # left operand must bind tighter
        right = _render(e.right, _LEVEL["neg"])  # right side admits unary minus
    else:
        left = _render(e.left, lvl)
        right = _render(e.right, lvl + 1)  # - and / are left-associative
    s = f"{left} {e.op} {right}"
    return f"({s})" if parent_level > lvl else s


def to_str(e: Expr) -> str:
    """Pretty-print with minimal parentheses; parse(to_str(e)) reproduces e."""
    return _render(e, 0)
