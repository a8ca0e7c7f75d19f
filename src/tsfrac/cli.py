"""Command-line entry point.

Subcommands: ``solve`` (run the stepper, write solution CSV + metadata
JSON), ``verify`` (property suites on randomized trials plus the
configured profile), ``convergence`` (mesh-refinement studies) and
``kernel-table`` (kernel samples and L1 distances).  One flat JSON config
file drives everything; all validation errors are reported together.

Exit codes: 0 success; 1 = a verification suite found a violation;
2 = usage or config error; 3 = internal numeric error (including a float
overflow, division by zero or invalid operation) or out of memory.
No environment variables, no network: flags and the config file are the
whole interface, so runs are reproducible byte for byte.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import exprparse, fraclap, kernels, principles, solver, timefrac

__all__ = ["RunConfig", "load_config", "main"]

# Every config key and its JSON type; the keys with a default are optional.
_TYPES = {
    "alpha": float, "beta": float, "a": float, "b": float, "n": int, "T": float, "M": int,
    "u0": str, "f": str, "m": int, "trials": int, "seed": int, "out": str, "m_ladder": str,
}
_DEFAULTS = {"m": 16, "trials": 20, "seed": 0, "out": "out", "m_ladder": "4,16,64,256"}
# Most bytes a config's solve may be estimated to need, checked before
# anything is allocated: two n x n matrices (the one buffer that holds A,
# then b_0 I + A, then its inverse, and its scratch, at most n^2/4, with
# room to spare), plus the sampled forcing and the copy of it that the
# stepper overwrites with the states ((M+1) x n each).  verify's trials run
# in batches of at most 4 MiB of forcing samples, or one trial at a time,
# each in an array of its own whose samples the states overwrite (one batch
# is alive at a time), and keep one report and one seed per trial (888
# bytes each, measured at n = M = 1), estimated at 1 KiB per trial.
_MEMORY_BUDGET = 2 * 2**30
_TRIAL_BYTES = 2**10
_MAX_INT = int(sys.float_info.max)  # largest m that is still a finite float
# verify's suites in the order of --suite all: (principles trial kind, None for
# _verify_identities; the principles check of the configured profile, looked up
# by name at each call, or None; the config error when its hypotheses fail).
_SUITES = {
    "nonneg": ("nonneg", "check_nonnegativity", "nonnegativity check demands u0 >= 0 and f >= 0; "
               "the configured expressions sample negative values"),
    "boundary": ("boundary-min", "check_parabolic_boundary", "parabolic-boundary (min) check "
                 "demands f >= 0; the configured expression samples negative values"),
    "weak": ("weak-nonneg", None, None),
    "identities": (None, None, None),
}


class ConfigError(ValueError):
    """Config-file problem; message lists every offending key at once."""


@dataclass(frozen=True)
class RunConfig:
    alpha: float
    beta: float
    grid: fraclap.SpaceGrid
    mesh: kernels.TimeMesh
    u0_expr: exprparse.Expr
    f_expr: exprparse.Expr
    m: int
    trials: int
    seed: int
    out: str
    m_ladder: tuple
    raw: dict

    def problem(self) -> solver.ProblemSpec:
        """The configured problem: u0 sampled on the grid, f sampled per step by the solver."""
        u0 = fraclap.Field(self.grid, _sample_expr(self.u0_expr, self.grid.nodes(), 0.0, "u0"))
        return solver.ProblemSpec(
            solver.FracOrders(self.alpha, self.beta), self.grid, self.mesh, u0,
            lambda x, t: _sample_expr(self.f_expr, x, t, "f"),
        )


def _sample_expr(expr: exprparse.Expr, xs: np.ndarray, t: float, key: str) -> np.ndarray:
    """Sample expr on the node array xs at time t; name the first non-finite sample."""
    out = exprparse.evaluate(expr, xs, t)
    bad = np.flatnonzero(~np.isfinite(out))
    if bad.size:
        v, x = float(out[bad[0]]), float(xs[bad[0]])
        raise ConfigError(f"expression {key!r} evaluates to {v} at (x={x!r}, t={float(t)!r})")
    return out


def load_config(path: str | Path) -> RunConfig:
    """Load and validate a flat JSON config; collect all errors before raising."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = json.loads(path.read_text())
    except (ValueError, RecursionError) as e:  # also integers past 4300 digits, deep nesting
        raise ConfigError(f"malformed config {path}: {e}") from e
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object of scalars and strings")

    errors = [f"unknown key {key!r}" for key in raw if key not in _TYPES]
    vals = dict(_DEFAULTS)  # an optional key that fails its type check keeps its default
    for key, typ in _TYPES.items():
        if key in raw:
            try:
                vals[key] = _coerce(key, raw[key], typ)
            except ConfigError as e:
                errors.append(str(e))
        elif key not in _DEFAULTS:
            errors.append(f"missing key {key!r}")

    def have(*keys):
        return all(k in vals for k in keys)

    for key in ("alpha", "beta"):
        if have(key):
            try:
                kernels.check_order(key, vals[key])
            except ValueError as e:
                errors.append(f"key {key!r}: {e}")
    if have("a", "b") and not vals["a"] < vals["b"]:
        errors.append(f"keys 'a','b': need a < b, got [{vals['a']}, {vals['b']}]")
    if have("n") and vals["n"] < 1:
        errors.append(f"key 'n': need at least one interior node, got {vals['n']}")
    if have("T") and not vals["T"] > 0:
        errors.append(f"key 'T': must be positive, got {vals['T']}")
    if have("M") and vals["M"] < 1:
        errors.append(f"key 'M': need at least one time step, got {vals['M']}")
    sized = have("n", "M") and vals["n"] >= 1 and vals["M"] >= 1
    if sized:
        n, M = vals["n"], vals["M"]
        matrices, arrays = 2 * 8 * n * n, 2 * 8 * (M + 1) * n
        if matrices + arrays > _MEMORY_BUDGET:
            sized = False
            key = "n" if matrices >= arrays else "M"
            errors.append(
                f"key {key!r}: n={_show(n)} and M={_show(M)} need about "
                f"{_gib(matrices + arrays)} GiB, over the {_MEMORY_BUDGET // 2**30} GiB budget"
            )
    # The grid and the mesh are built only once their keys and the memory estimate have passed.
    if sized and have("a", "b") and vals["a"] < vals["b"]:
        try:
            grid = fraclap.SpaceGrid(vals["a"], vals["b"], vals["n"])
        except ValueError as e:
            errors.append(f"keys 'a','b': {e}")
    if sized and have("T") and vals["T"] > 0:
        mesh = kernels.TimeMesh(vals["T"], vals["M"])
        errors += _step_errors(mesh)
    if not 1 <= vals["m"] <= _MAX_INT:
        errors.append(f"key 'm': must be a positive integer of at most 1.8e308, got {_show(vals['m'])}")
    if vals["trials"] < 1:
        errors.append(f"key 'trials': must be >= 1, got {vals['trials']}")
    elif vals["trials"] * _TRIAL_BYTES > _MEMORY_BUDGET:
        errors.append(
            f"key 'trials': {_show(vals['trials'])} trials need about "
            f"{_gib(vals['trials'] * _TRIAL_BYTES)} GiB, over the {_MEMORY_BUDGET // 2**30} GiB budget"
        )
    if vals["seed"] < 0:
        errors.append(f"key 'seed': must be a non-negative integer, got {vals['seed']}")

    exprs = {}
    for key in ("u0", "f"):
        if key not in vals:
            continue
        try:
            exprs[key] = exprparse.parse(vals[key])
        except exprparse.ParseError as e:
            errors.append(f"key {key!r}: {e}")

    try:
        pieces = [s.strip(" ") for s in vals["m_ladder"].split(",")]
        if not all(s and all("0" <= ch <= "9" for ch in s) for s in pieces):
            raise ValueError
        ladder = tuple(int(s) for s in pieces)
        if any(not 1 <= m <= _MAX_INT for m in ladder):
            raise ValueError
    except ValueError:
        errors.append(
            "key 'm_ladder': expected comma-separated positive integers of at most 1.8e308, "
            f"got {_show(vals['m_ladder'])}"
        )

    if errors:
        raise ConfigError("invalid config:\n  " + "\n  ".join(errors))
    scalars = ("alpha", "beta", "m", "trials", "seed", "out")
    return RunConfig(
        **{key: vals[key] for key in scalars}, grid=grid, mesh=mesh,
        u0_expr=exprs["u0"], f_expr=exprs["f"], m_ladder=ladder, raw=raw,
    )


def _show(value) -> str:
    """An integer or string for an error line: itself, or its length past 40 characters."""
    text = repr(value)
    if len(text) <= 40:
        return text
    return f"<{len(text)}-digit integer>" if isinstance(value, int) else f"<{len(text)}-character string>"


def _gib(nbytes: int) -> str:
    return f"{nbytes / 2**30:.1f}" if nbytes < 2**1000 else "more than 1e290"


def _step_errors(mesh: kernels.TimeMesh) -> list:
    """[] if tau = T/M is a normal float, so that every L1 weight tau^(-alpha) is finite; else why not.

    A CLI rule, not TimeMesh's: kernel-table's 8192-step quadrature mesh may have a smaller tau.
    """
    if mesh.tau >= sys.float_info.min:
        return []
    return [f"key 'T': with M={mesh.M} the time step T/M = {mesh.tau!r} is below the smallest normal float"]


def _coerce(key, value, typ):
    if typ is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"key {key!r}: expected a number, got {value!r}")
        try:
            value = float(value)
        except OverflowError:
            value = math.inf
        if not math.isfinite(value):
            raise ConfigError(f"key {key!r}: expected a finite number, got {value!r}")
        return value
    if typ is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"key {key!r}: expected an integer, got {value!r}")
        return int(value)
    if not isinstance(value, str):
        raise ConfigError(f"key {key!r}: expected a string, got {value!r}")
    return value


def _outdir(config: RunConfig, override: str | None) -> Path:
    out = Path(override if override is not None else config.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except ValueError as e:  # a NUL character in the path
        raise ConfigError(f"output directory {str(out)!r}: {e}") from e
    return out


def cmd_solve(config: RunConfig, out_override: str | None = None) -> int:
    out = _outdir(config, out_override)
    sol = solver.solve(config.problem())
    with (out / "solution.csv").open("w") as fh:
        fh.writelines(solver.solution_csv_rows(sol))
    meta = solver.solution_metadata(sol, solver.config_hash(config.raw))
    (out / "metadata.json").write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    print(f"solve: wrote {out / 'solution.csv'} and {out / 'metadata.json'}")
    return 0


def _verify_identities(config: RunConfig) -> dict:
    """Randomized convexity-inequality and extremum-sign suites."""
    rng = np.random.default_rng(config.seed)
    mesh = config.mesh
    tau = mesh.tau
    k = kernels.monotone_regularized_kernel(config.alpha, config.m, mesh)
    breaks = np.linspace(0, mesh.M, 8).astype(int)
    failures = 0
    worst = 0.0
    for _ in range(config.trials):
        u = np.interp(np.arange(mesh.M + 1), breaks, rng.uniform(-1, 1, 8))
        # the (u-)^2 and min checks are the (u+)^2 and max checks on -u
        failures += not all(timefrac.convex_inequality_check(s, k, tau).all() for s in (u, -u))
        for s in (u, -u):
            n0 = int(np.argmax(s))
            if n0 >= 1:
                val, ok = timefrac.rl_extremum_sign(s, tau, config.alpha, n0)
                if not ok:
                    failures += 1
                    worst = max(worst, -val)
    return {
        "kind": "identities",
        "status": "pass" if failures == 0 else "fail",
        "trials": config.trials,
        "failures": failures,
        "worst": worst,
        "seeds": [config.seed],
        "lattice": [[config.alpha, config.beta]],
    }


def cmd_verify(config: RunConfig, suite: str, out_override: str | None = None) -> int:
    out = _outdir(config, out_override)
    suites = list(_SUITES) if suite == "all" else [suite]
    # The configured (u0, f) profile is checked deterministically by the
    # suites that name a check; all use this one solve.  Data that break
    # a theorem's hypotheses are a config error, not a failed check.
    sol = solver.solve(config.problem()) if any(_SUITES[s][1] for s in suites) else None
    report: dict = {}
    any_fail = False
    for s in suites:
        kind, check, hypotheses = _SUITES[s]
        entry: dict = {}
        if check:
            profile = getattr(principles, check)(sol.states, sol.forcing)
            if profile.status == "hypotheses-violated":
                raise ConfigError(hypotheses)
            entry["configured_profile"] = profile.to_json_dict()
            any_fail |= profile.status != "pass"
        if kind is None:
            entry["trials"] = _verify_identities(config)
        else:
            tc = principles.TrialConfig(
                kind=kind,
                trials=config.trials,
                seed=config.seed,
                alphas=(config.alpha,),
                betas=(config.beta,),
                grid=config.grid,
                mesh=config.mesh,
            )
            entry["trials"] = principles.run_trials(tc).to_json_dict()
        any_fail |= entry["trials"]["status"] != "pass"
        report[s] = entry
    report["config_hash"] = solver.config_hash(config.raw)
    (out / "verify_report.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    status = "FAIL" if any_fail else "PASS"
    print(f"verify[{suite}]: {status}; report at {out / 'verify_report.json'}")
    return 1 if any_fail else 0


def _study(name: str, resolutions, error) -> list:
    """Rows (name, resolution, error, observed order) of one study, error(r) taken level by level.

    The order is log2 of the previous error over this one; nan at the first level and after a zero.
    """
    errs = [error(r) for r in resolutions]
    orders = [math.nan] + [
        float(np.log2(e0 / e1)) if e0 > 0 and e1 > 0 else math.nan for e0, e1 in zip(errs, errs[1:])
    ]
    return [(name, r, e, o) for r, e, o in zip(resolutions, errs, orders)]


def _write_csv(path: Path, rows) -> None:
    """Write rows as CSV lines: strings and ints as str, floats with 17 significant digits."""
    lines = [",".join(str(c) if isinstance(c, (str, int)) else f"{c:.17g}" for c in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def _check_complement(command: str, alpha: float) -> None:
    """The kernels take the order 1 - alpha, which must stay below 1."""
    if 1.0 - alpha == 1.0:
        raise ConfigError(f"{command}: key 'alpha': 1 - alpha rounds to 1.0 at alpha={alpha!r}")


def cmd_convergence(config: RunConfig, out_override: str | None = None) -> int:
    _check_complement("convergence", config.alpha)
    out = _outdir(config, out_override)
    alpha, beta = config.alpha, config.beta
    rows = [("study", "resolution", "error", "observed_order")]

    # Caputo L1 order on u = t^2 against the closed form 2 t^(2-a)/Gamma(3-a).
    exact = 2.0 / math.gamma(3.0 - alpha)

    def caputo_error(M):
        tau = 1.0 / M
        return abs(timefrac.caputo_l1((tau * np.arange(M + 1)) ** 2, tau, alpha, M) - exact)

    rows += _study("caputo-l1", (256, 512, 1024, 2048), caputo_error)

    # Fractional Laplacian on the Getoor profile over (-1, 1) at the config beta.
    const = (
        2.0**(2 * beta)
        * math.gamma(1 + beta)
        * math.gamma((1 + 2 * beta) / 2.0)
        / math.gamma(0.5)
    )

    def getoor_error(n):
        grid = fraclap.SpaceGrid(-1.0, 1.0, n)
        x = grid.nodes()
        Au = fraclap.assemble_1d(grid, beta).entries @ (1.0 - x**2) ** beta
        return float(np.max(np.abs(Au[np.abs(x) <= 0.5] - const)))

    rows += _study("getoor", (128, 256, 512), getoor_error)

    # Scalar relaxation vs the Mittag-Leffler oracle: the L1 stepper on the
    # one-node grid, whose operator is the 1 x 1 matrix [lam], with u0 = 1
    # and zero forcing; its exact value at t = 1 is E_alpha(-lam).
    grid1 = fraclap.SpaceGrid(-1.0, 1.0, 1)
    lam = float(fraclap.assemble_1d(grid1, beta).entries[0, 0])
    exactml = kernels.mittag_leffler(alpha, -lam)

    def relaxation_error(M):
        step = solver.l1_stepper(alpha, beta, grid1, kernels.TimeMesh(1.0, M))
        states = step(np.ones((1, 1)), np.zeros((M + 1, 1, 1)))
        return abs(float(states[-1, 0, 0]) - exactml) / abs(exactml)

    rows += _study("mittag-leffler", (256, 512, 1024, 2048), relaxation_error)

    # Mollified weak-residual decay under simultaneous (tau, h) halving:
    # M steps on [0, T] and n = 3M/4 interior nodes on (a, b).
    a, b = config.grid.a, config.grid.b
    mid, wid = 0.5 * (a + b), 0.5 * (b - a)

    def weak_error(Mt):
        try:
            grid = fraclap.SpaceGrid(a, b, 3 * Mt // 4)
        except ValueError as e:
            raise ConfigError(f"convergence: keys 'a','b': {e}") from e
        mesh = kernels.TimeMesh(config.mesh.T, Mt)
        problems = _step_errors(mesh)
        if problems:
            raise ConfigError(f"convergence: {problems[0]}")
        x = grid.nodes()
        u0 = fraclap.Field(grid, np.maximum(0.0, 1.0 - ((x - mid) / (0.5 * wid)) ** 2))
        problem = solver.ProblemSpec(
            solver.FracOrders(alpha, beta), grid, mesh, u0,
            lambda xx, t: 0.5 * (1.0 + np.cos(np.pi * (xx - mid) / wid)),
        )
        sol = solver.solve(problem)
        psi = fraclap.Field(grid, np.maximum(0.0, 1.0 - ((x - mid) / (0.33 * wid)) ** 2) ** 2)
        return abs(solver.weak_residual(sol, psi, m=64, n=Mt // 2))

    rows += _study("weak-residual", (32, 64, 128), weak_error)

    _write_csv(out / "convergence.csv", rows)
    print(f"convergence: wrote {out / 'convergence.csv'}")
    return 0


def cmd_kernel_table(config: RunConfig, out_override: str | None = None) -> int:
    alpha = config.alpha
    _check_complement("kernel-table", alpha)
    out = _outdir(config, out_override)
    mesh = config.mesh
    times = mesh.times()
    cols = {"t": times, "g": np.concatenate([[np.inf], kernels.g_kernel(1.0 - alpha, times[1:])])}
    for m in config.m_ladder:
        cols[f"h_m{m}"] = kernels.h_kernel(m, times)
        cols[f"greg_m{m}"] = kernels.regularized_kernel(alpha, m, mesh)
    _write_csv(out / "kernel_table.csv", [list(cols), *zip(*(c.tolist() for c in cols.values()))])

    # L1 distances ||greg_m - g|| on [0, T] via fine-mesh quadrature.
    fine = kernels.TimeMesh(mesh.T, 8192)
    distances = [(m, _l1_distance(alpha, m, fine)) for m in config.m_ladder]
    _write_csv(out / "kernel_distances.csv", [("m", "l1_distance"), *distances])
    print(f"kernel-table: wrote {out / 'kernel_table.csv'} and {out / 'kernel_distances.csv'}")
    return 0


def _l1_distance(alpha: float, m: int, fine: kernels.TimeMesh) -> float:
    """||greg_m - g_{1-alpha}||_L1 with the singular first cell handled exactly."""
    tau = fine.tau
    greg = kernels.regularized_kernel(alpha, m, fine)
    t = fine.times()
    g = kernels.g_kernel(1.0 - alpha, t[1:])
    body = tau * float(np.sum(np.abs(g - greg[1:])))
    # First cell: g mass is exact, the regularized kernel's is below it.
    head = kernels.g_cell_integral(1.0 - alpha, 0.0, tau) - 0.5 * tau * greg[1]
    return body + abs(head)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="tsfrac",
        description="Time-space fractional diffusion solver and maximum-principle verifier",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("solve", "verify", "convergence", "kernel-table"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the JSON config file")
        p.add_argument("--out", default=None, help="output directory (overrides config)")
        if name == "verify":
            p.add_argument(
                "--suite",
                default="all",
                choices=(*_SUITES, "all"),
            )
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        config = load_config(args.config)
        # A float overflow, division by zero or invalid operation that no
        # routine handles itself is a numeric error: one line, exit 3.
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            if args.command == "solve":
                return cmd_solve(config, args.out)
            if args.command == "verify":
                return cmd_verify(config, args.suite, args.out)
            if args.command == "convergence":
                return cmd_convergence(config, args.out)
            return cmd_kernel_table(config, args.out)
    except (ConfigError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, ArithmeticError) as e:
        print(f"internal numeric error: {e}", file=sys.stderr)
        return 3
    except MemoryError:
        print("internal numeric error: out of memory", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
