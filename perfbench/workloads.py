"""The benchmark's workloads: inputs made from the seed, one timed operation, checks.

Each workload is a closed loop with one client: the next operation starts
when the previous one has finished.  ``op(i)`` runs operation i and
returns its wall time, the times of its named parts and its output;
``check(i, output)`` returns the number of sub-operations it checked and
the failures found, as (sub-operation, message) pairs.  Where operations have parts (the four CLI
commands, the two trial kinds), the workload's time is the sum of the
parts' medians.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import numpy as np
from tsfrac import fraclap, kernels, principles, solver

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# The (alpha, beta) lattice of acceptance criterion 01.
LATTICE = (0.3, 0.5, 0.7, 0.9)
CHILD_TIMEOUT_S = 150.0


def child_env() -> dict:
    """Environment of every child: the checkout's sources, the parent's BLAS thread cap."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(cmd: list, stdout, stderr) -> tuple:
    """Run one child to completion; return (exit code, wall seconds, start, peak RSS in KiB)."""
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, stdout=stdout, stderr=stderr, cwd=ROOT, env=child_env())
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    wall = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, t0, usage.ru_maxrss


class CliReadme:
    """Cold `tsfrac` processes for the four subcommands at the README config."""

    COMMANDS = (
        ("solve", ["solve"]),
        ("verify", ["verify", "--suite", "all"]),
        ("convergence", ["convergence"]),
        ("kernel_table", ["kernel-table"]),
    )
    MIN_OPS = 2

    def __init__(self, seed: int, workdir: Path):
        self.workdir = workdir
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.cfg = {
            "alpha": 0.5, "beta": 0.5, "a": -1.0, "b": 1.0, "n": 128, "T": 1.0, "M": 256,
            "u0": "max(0, 1 - x^2)", "f": "0.1*(1 + cos(3.14159265358979*x))",
            "trials": 20, "seed": seed,
        }
        self.config = workdir / "cfg.json"
        self.config.write_text(json.dumps(self.cfg, indent=2) + "\n")
        self.traced = False
        self.peak_rss_kib = 0
        self.reference: dict = {}
        self.verdicts: dict = {}
        self.checker = checks.ResidualChecker()

    def op(self, i: int):
        parts, outputs = {}, {}
        for key, argv in self.COMMANDS:
            out = self.workdir / key
            shutil.rmtree(out, ignore_errors=True)  # so stale artifacts cannot pass the checks
            tail = [*argv, "--config", str(self.config), "--out", str(out)]
            if self.traced:
                trace_file = self.workdir / f"trace-{key}.json"
                cmd = [sys.executable, str(HERE / "child.py"), "cli", str(trace_file), *tail]
            else:
                trace_file = None
                cmd = [sys.executable, "-m", "tsfrac", *tail]
            with open(self.workdir / "stdout.txt", "wb") as so, open(self.workdir / "stderr.txt", "wb") as se:
                rc, wall, start, rss = run_child(cmd, so, se)
            self.peak_rss_kib = max(self.peak_rss_kib, rss)
            parts[key] = wall
            files = {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.is_dir() else {}
            outputs[key] = {"rc": rc, "files": files, "start": start, "wall": wall, "trace": trace_file,
                            "stderr": (self.workdir / "stderr.txt").read_text(errors="replace")}
        return sum(parts.values()), parts, outputs

    def check(self, i: int, outputs: dict):
        errors = []
        for key, out in outputs.items():
            if out["rc"] != 0:
                errors.append((key, f"exit code {out['rc']}: {out['stderr'][-300:]}"))
                continue
            digest = {name: hashlib.sha256(data).hexdigest() for name, data in out["files"].items()}
            ref = self.reference.setdefault(key, digest)
            if digest != ref:
                errors.append((key, "artifacts differ from the first repetition"))
                continue
            sig = (key, tuple(sorted(digest.items())))
            if sig not in self.verdicts:
                self.verdicts[sig] = getattr(self, f"_check_{key}")(out["files"])
            errors.extend((key, e) for e in self.verdicts[sig])
        return len(outputs), errors

    def _check_solve(self, files: dict) -> list:
        cfg = self.cfg
        n, M = cfg["n"], cfg["M"]
        data = np.loadtxt(files["solution.csv"].decode().splitlines(), delimiter=",", skiprows=1)
        if data.shape != ((M + 1) * n, 3):
            return [f"solution.csv has shape {data.shape}"]
        u = data[:, 2].reshape(M + 1, n)
        x = data[:n, 1]
        f = np.broadcast_to(0.1 * (1.0 + np.cos(3.14159265358979 * x)), u.shape)
        grid = fraclap.SpaceGrid(cfg["a"], cfg["b"], n)
        A = self.checker.matrix(grid, cfg["beta"])
        errors = []
        v = checks.violation(u)
        if v != 0.0:
            errors.append(f"positivity violation {v!r}")
        r = checks.l1_residual(u, f, cfg["alpha"], cfg["T"] / M, A)
        if not r <= checks.RESIDUAL_TOL:
            errors.append(f"L1 step residual {r:.3e}")
        return errors

    def _check_verify(self, files: dict) -> list:
        report = json.loads(files["verify_report.json"])
        errors = [f"status {s!r}" for s in checks.report_statuses(report) if s != "pass"]
        errors += [f"violation {v!r}" for v in checks.report_violations(report) if v != 0.0]
        return errors

    def _check_convergence(self, files: dict) -> list:
        rows = [line.split(",") for line in files["convergence.csv"].decode().splitlines()[1:]]
        order = [float(r[3]) for r in rows if r[0] == "caputo-l1"][-1]
        expected = 2.0 - self.cfg["alpha"]
        return [] if abs(order - expected) < 0.05 else [f"Caputo L1 order {order} != {expected}"]

    def _check_kernel_table(self, files: dict) -> list:
        rows = files["kernel_distances.csv"].decode().splitlines()[1:]
        dist = [float(r.split(",")[1]) for r in rows]
        lines = files["kernel_table.csv"].decode().splitlines()
        errors = [] if len(lines) == self.cfg["M"] + 2 else [f"kernel_table.csv has {len(lines)} lines"]
        if not all(b < a for a, b in zip(dist, dist[1:])):
            errors.append(f"kernel distances not decreasing: {dist}")
        return errors


class InProcessSolve:
    """`solver.solve` in process, on seeded nonnegative numpy data (no expressions).

    The orders are the README's alpha = beta = 0.5.  At n = 2048 with beta = 0.9
    and alpha = 0.3 the system's condition number alone puts the relative step
    residual at about 6e-11, too close to the 1e-10 check to be a stable input.
    """

    MIN_OPS = 3

    def __init__(self, seed: int, n: int, M: int):
        rng = np.random.default_rng(seed)
        grid = fraclap.SpaceGrid(-1.0, 1.0, n)
        mesh = kernels.TimeMesh(1.0, M)
        self.F = rng.uniform(0.0, 1.0, (M + 1, n))
        F, tau = self.F, mesh.tau
        self.problem = solver.ProblemSpec(
            solver.FracOrders(0.5, 0.5), grid, mesh,
            fraclap.Field(grid, rng.uniform(0.0, 1.0, n)),
            lambda x, t: F[int(round(t / tau))],
        )
        self.first = None
        self.checker = checks.ResidualChecker()

    def op(self, i: int):
        t0 = perf_counter()
        sol = solver.solve(self.problem)
        return perf_counter() - t0, {}, sol

    def check(self, i: int, sol):
        p = self.problem
        errors = []
        v = checks.violation(sol.states)
        if v != 0.0:
            errors.append(f"positivity violation {v!r}")
        A = self.checker.matrix(p.grid, p.orders.beta)
        r = checks.l1_residual(sol.states, self.F, p.orders.alpha, p.mesh.tau, A)
        if not r <= checks.RESIDUAL_TOL:
            errors.append(f"L1 step residual {r:.3e}")
        if self.first is None:
            self.first = sol.states.copy()
        elif not np.array_equal(sol.states, self.first):
            errors.append("states differ from the first repetition")
        return 1, [("output", e) for e in errors]


class TrialSweep:
    """`principles.run_trials` over the criterion-01 lattice; nonneg and boundary-min calls alternate."""

    MIN_OPS = 4  # two calls of each kind
    TRIALS = 128  # per call, 8 per lattice point

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        grid = fraclap.SpaceGrid(-1.0, 1.0, 128)
        mesh = kernels.TimeMesh(1.0, 256)
        self.configs = [
            principles.TrialConfig(kind=kind, trials=self.TRIALS, seed=int(s),
                                   alphas=LATTICE, betas=LATTICE, grid=grid, mesh=mesh)
            for kind, s in zip(("nonneg", "boundary-min"), rng.integers(0, 2**31 - 1, 2))
        ]
        self.first: dict = {}

    def op(self, i: int):
        config = self.configs[i % 2]
        t0 = perf_counter()
        report = principles.run_trials(config)
        dt = perf_counter() - t0
        return dt, {config.kind: dt}, report

    def check(self, i: int, report):
        errors = []
        if report.status != "pass":
            errors.append(f"{report.kind}: status {report.status}")
        if report.violation != 0.0:
            errors.append(f"{report.kind}: violation {report.violation!r}")
        blob = json.dumps(report.to_json_dict(), sort_keys=True)
        if self.first.setdefault(report.kind, blob) != blob:
            errors.append(f"{report.kind}: report differs from the first repetition")
        return 1, [("output", e) for e in errors]


def make(name: str, seed: int, workdir: Path):
    if name == "cli-readme":
        return CliReadme(seed, workdir)
    if name == "long-history":
        return InProcessSolve(seed, n=128, M=4096)
    if name == "wide-grid":
        return InProcessSolve(seed, n=2048, M=256)
    if name == "trial-sweep":
        return TrialSweep(seed)
    raise KeyError(name)


NAMES = ("cli-readme", "long-history", "trial-sweep", "wide-grid")
