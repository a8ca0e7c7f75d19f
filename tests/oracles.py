"""Independent reference routines that only the tests use.

Each one computes a quantity by a route the library does not take:
adaptive quadrature of the fractional Laplacian's definition, the
positive/negative split of a grid function, the Grunwald-Letnikov
binomial weights, the randomized trials run one solve per trial with
each trial's forcing a scalar-t closure of its own draws, sampled step
by step, the mollified weak residual with one discrete convolution per
node, the expression language's postfix programs run one scalar (x, t)
at a time with Python's math module, the printer whose output parses
back to the same program, the expression scanner written character by
character, and the Schur-complement inverse that forms every block down
to 1 x 1 and copies none.
"""

import math

import numpy as np
from scipy import integrate

from tsfrac.exprparse import Expr, ParseError

from tsfrac.fraclap import Field, bilinear_a, normalization_constant
from tsfrac.principles import PrincipleReport, TrialConfig, check_nonnegativity, check_parabolic_boundary
from tsfrac.kernels import convolve, h_kernel, regularized_kernel
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


def trial_closure(kind: str, seed: int, grid):
    """The u0 and the scalar-t forcing closure f(x, t) of one randomized trial.

    The draws from ``default_rng(seed)``, in order: 5 uniforms on (-1, 1)
    for the u0 bump, 5 for the forcing bump, omega on (0, 4), phase on
    (0, 2 pi) and, for weak-nonneg, a slack on (0.5, 1.5) added to the
    forcing.  A bump is the sum of c_k sin((k + 1) pi (x - a)/(b - a)) over
    the nodes; u0 is clipped at 0 except for boundary-min, and the forcing
    is max(bump(x) cos(omega t + phase), 0).
    """
    rng = np.random.default_rng(seed)
    s = (grid.nodes() - grid.a) / (grid.b - grid.a)

    def bump():
        coeffs = rng.uniform(-1.0, 1.0, 5)
        return sum(c * np.sin((k + 1) * np.pi * s) for k, c in enumerate(coeffs))

    u0 = bump()
    if kind != "boundary-min":
        u0 = np.maximum(u0, 0.0)
    fbump = bump()
    omega = rng.uniform(0.0, 4.0)
    phase = rng.uniform(0.0, 2 * np.pi)
    slack = float(rng.uniform(0.5, 1.5)) if kind == "weak-nonneg" else None

    def f(x, t):
        values = np.maximum(fbump * np.cos(omega * t + phase), 0.0)
        return values if slack is None else values + slack

    return u0, f


def run_trials_reference(config: TrialConfig) -> PrincipleReport:
    """``run_trials`` with one ``solve`` per trial, in trial order.

    Each trial's data come from ``trial_closure``: its forcing is sampled
    step by step through ``ProblemSpec.forcing_samples``, and each trial
    assembles its own A and inverts its own b_0 I + A.
    """
    master = np.random.default_rng(config.seed)
    seeds = [int(s) for s in master.integers(0, 2**31 - 1, config.trials)]
    lattice = [(float(al), float(be)) for al in config.alphas for be in config.betas]
    grid, mesh = config.grid, config.mesh
    check = check_parabolic_boundary if config.kind == "boundary-min" else check_nonnegativity

    worst: PrincipleReport | None = None
    for idx, seed in enumerate(seeds):
        alpha, beta = lattice[idx % len(lattice)]
        u0, f = trial_closure(config.kind, seed, grid)
        sol = solve(ProblemSpec(FracOrders(alpha, beta), grid, mesh, Field(grid, u0), f))
        report = check(sol.states, sol.forcing)
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
    hm = h_kernel(m, problem.mesh.times())
    dstates = sol.states - sol.states[0]
    nx = problem.grid.n
    ddt = np.empty(nx)
    hu_n = np.empty(nx)
    hf_n = np.empty(nx)
    for i in range(nx):
        conv_g = convolve(greg, dstates[:, i], tau)
        ddt[i] = (conv_g[n + 1] - conv_g[n]) / tau
        hu_n[i] = convolve(hm, sol.states[:, i], tau)[n]
        hf_n[i] = convolve(hm, sol.forcing[:, i], tau)[n]
    term_time = h * float(psi.values @ ddt)
    term_form = bilinear_a(Field(problem.grid, hu_n), psi, problem.orders.beta)
    term_load = h * float(psi.values @ hf_n)
    return term_time + term_form - term_load


def inverse_reference(B: np.ndarray) -> np.ndarray:
    """The inverse of the M-matrix B by the sign-safe Schur-complement
    recursion of ``solver``, with every block formed: 1 x 1 leaves, and no
    left half copied from the right half."""

    def sweep(H):  # H = -B into B^{-1}
        n = H.shape[0]
        if n == 1:
            np.divide(-1.0, H, out=H)
            return
        k = n // 2
        H11, H12, H21, H22 = H[:k, :k], H[:k, k:], H[k:, :k], H[k:, k:]
        sweep(H11)
        np.matmul(H12.T, H11, out=H21)
        H22 += H21 @ H12
        sweep(H22)
        np.matmul(H21.T, H22, out=H12)
        H11 += H12 @ H21
        H21[...] = H12.T

    G = np.subtract(0.0, B)
    sweep(G)
    return G


def tokenize_reference(src: str) -> list:
    """The (kind, text, offset) triples of src, scanned one character at a time.

    Kinds: num, name, op, end.  A number is ASCII digits with an optional
    "." fraction and an e/E exponent taken only when it has digits; a name
    starts with a letter or "_" and goes on over letters, digits and "_".
    """
    tokens = []
    i = 0
    n = len(src)
    while i < n:
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        if "0" <= ch <= "9" or (ch == "." and i + 1 < n and "0" <= src[i + 1] <= "9"):
            j = i
            while j < n and "0" <= src[j] <= "9":
                j += 1
            if j < n and src[j] == ".":
                j += 1
                while j < n and "0" <= src[j] <= "9":
                    j += 1
            if j < n and src[j] in "eE":
                k = j + 1
                if k < n and src[k] in "+-":
                    k += 1
                if k < n and "0" <= src[k] <= "9":
                    j = k
                    while j < n and "0" <= src[j] <= "9":
                        j += 1
            tokens.append(("num", src[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            tokens.append(("name", src[i:j], i))
            i = j
            continue
        if ch in "+-*/^(),":
            tokens.append(("op", ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", n))
    return tokens


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


def _div(a: float, b: float) -> float:
    if b == 0.0:
        if a == 0.0 or math.isnan(a):
            return math.nan
        return math.copysign(math.inf, a) * math.copysign(1.0, b)
    return a / b


def _exp(a: float) -> float:
    try:
        return math.exp(a)
    except OverflowError:
        return math.inf


_SCALAR = {  # instruction: (scalar function, arity)
    "+": (lambda a, b: a + b, 2),
    "-": (lambda a, b: a - b, 2),
    "*": (lambda a, b: a * b, 2),
    "/": (_div, 2),
    "^": (_pow, 2),
    "neg": (lambda a: -a, 1),
    "sin": (lambda a: math.sin(a) if math.isfinite(a) else math.nan, 1),
    "cos": (lambda a: math.cos(a) if math.isfinite(a) else math.nan, 1),
    "exp": (_exp, 1),
    "abs": (abs, 1),
    "sqrt": (lambda a: math.sqrt(a) if a >= 0.0 else math.nan, 1),
    "max": (max, 2),
    "min": (min, 2),
}


def evaluate_reference(e: Expr, x: float, t: float) -> float:
    """Run a program on a stack of Python floats: IEEE semantics, inf/nan propagate, nothing raises."""
    vals = []
    for op in e:
        if isinstance(op, float):
            vals.append(op)
        elif op == "x":
            vals.append(float(x))
        elif op == "t":
            vals.append(float(t))
        else:
            fn, k = _SCALAR[op]
            args = [vals.pop() for _ in range(k)][::-1]
            vals.append(fn(*args))
    return vals[0]


_LEVEL = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}
_ATOM = 5  # literals, variables and calls never take parentheses


def to_str(e: Expr) -> str:
    """Pretty-print with minimal parentheses; parse(to_str(e)) reproduces e.

    A stack of (text, level) pairs: an operand below the level its place
    needs is parenthesized.
    """

    def place(item, need):
        s, lvl = item
        return f"({s})" if need > lvl else s

    stack = []
    for op in e:
        if isinstance(op, float):
            s = repr(op)
            stack.append((s[:-2] if s.endswith(".0") else s, _ATOM))
        elif op in ("x", "t"):
            stack.append((op, _ATOM))
        elif op == "neg":
            stack.append(("-" + place(stack.pop(), _LEVEL["neg"]), _LEVEL["neg"]))
        elif op in _LEVEL:
            right, left, lvl = stack.pop(), stack.pop(), _LEVEL[op]
            if op == "^":
                # the left operand must bind tighter; the right side admits unary minus
                s = f"{place(left, lvl + 1)} ^ {place(right, _LEVEL['neg'])}"
            else:
                s = f"{place(left, lvl)} {op} {place(right, lvl + 1)}"  # - and / are left-associative
            stack.append((s, lvl))
        else:
            k = _SCALAR[op][1]
            args = [stack.pop()[0] for _ in range(k)][::-1]
            stack.append((f"{op}({', '.join(args)})", _ATOM))
    return stack[0][0]
