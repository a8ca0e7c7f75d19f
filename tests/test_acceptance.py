"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them
all).  Tolerances are pinned here, not tuned at runtime; oracles are the
independent routes (closed forms, adaptive quadrature, Mittag-Leffler
series) rather than the code paths under test.
"""

import json
import time

import numpy as np
import pytest
from scipy.interpolate import CubicSpline
from scipy.special import gamma

from tsfrac.cli import main as cli_main
from tsfrac.fraclap import (
    Field,
    SpaceGrid,
    assemble_1d,
    bilinear_a,
)
from tsfrac.kernels import (
    TimeMesh,
    g_cell_integral,
    g_kernel,
    h_kernel,
    mittag_leffler,
    monotone_regularized_kernel,
    regularized_kernel,
)
from tsfrac.principles import BoundaryClass, TrialConfig, run_trials
from tsfrac.solver import FracOrders, ProblemSpec, l1_stepper, solve, weak_residual
from tsfrac.timefrac import caputo_l1, convex_inequality_check, rl_extremum_sign

from oracles import quadrature_reference, sign_split

LATTICE = (0.3, 0.5, 0.7, 0.9)


def _line(num: int, ok: bool, desc: str, t0: float):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance {num:02d}] {status} ({time.time() - t0:5.1f}s) {desc}")
    assert ok, f"criterion {num}: {desc}"


def test_criterion_01_exact_discrete_positivity():
    t0 = time.time()
    config = TrialConfig(
        kind="nonneg",
        trials=200,
        seed=101,
        alphas=LATTICE,
        betas=LATTICE,
        grid=SpaceGrid(-1.0, 1.0, 128),
        mesh=TimeMesh(1.0, 256),
    )
    report = run_trials(config)
    ok = report.status == "pass" and report.violation == 0.0
    _line(1, ok, f"positivity, 200 trials, worst violation {report.violation:.2e}", t0)


def test_criterion_02_parabolic_boundary_argmin():
    t0 = time.time()
    config = TrialConfig(
        kind="boundary-min",
        trials=100,
        seed=202,
        alphas=LATTICE,
        betas=LATTICE,
        grid=SpaceGrid(-1.0, 1.0, 128),
        mesh=TimeMesh(1.0, 256),
    )
    report = run_trials(config)
    ok = report.status == "pass" and report.location_class in (
        BoundaryClass.INITIAL,
        BoundaryClass.LATERAL,
    )
    _line(2, ok, f"argmin class {report.location_class.value} over 100 trials", t0)


def test_criterion_03_scalar_relaxation_vs_mittag_leffler():
    t0 = time.time()
    # The one-node grid's operator is the 1 x 1 matrix [lam]: u = E_alpha(-lam t^alpha).
    grid = SpaceGrid(-1.0, 1.0, 1)
    lam = float(assemble_1d(grid, 0.5).entries[0, 0])
    worst = 0.0
    for alpha in LATTICE:
        step = l1_stepper(alpha, 0.5, grid, TimeMesh(1.0, 2048))
        u = step(np.ones((1, 1)), np.zeros((2049, 1, 1)))[:, 0, 0]
        exact = mittag_leffler(alpha, -lam)
        worst = max(worst, abs(u[-1] - exact) / abs(exact))
    _line(3, worst < 1e-2, f"relaxation vs E_alpha, worst rel err {worst:.2e}", t0)


def test_criterion_04_caputo_l1_convergence_order():
    t0 = time.time()
    alpha = 0.5
    exact = 2.0 / gamma(3.0 - alpha)
    errs = []
    for M in (256, 512, 1024, 2048):
        tau = 1.0 / M
        u = (tau * np.arange(M + 1)) ** 2
        errs.append(abs(caputo_l1(u, tau, alpha, M) - exact))
    orders = [np.log2(e0 / e1) for e0, e1 in zip(errs, errs[1:])]
    ok = all(2 - alpha - 0.2 <= o <= 2 - alpha + 0.2 for o in orders) and errs[-1] < 2e-3
    _line(4, ok, f"L1 orders {['%.3f' % o for o in orders]}, err(M=2048) {errs[-1]:.2e}", t0)


def test_criterion_05_getoor_oracle():
    t0 = time.time()
    beta, n = 0.5, 2048
    profile = lambda y: np.sqrt(max(0.0, 1.0 - y * y))
    # the flat value 1.0 is confirmed by the quadrature oracle, not assumed
    oracle_vals = [quadrature_reference(profile, x0, beta, -1.0, 1.0) for x0 in (0.0, 0.3, -0.45)]
    oracle_ok = all(abs(v - 1.0) < 1e-6 for v in oracle_vals)
    grid = SpaceGrid(-1.0, 1.0, n)
    A = assemble_1d(grid, beta)
    x = grid.nodes()
    Au = A.entries @ np.sqrt(1.0 - x**2)
    err = float(np.max(np.abs(Au[np.abs(x) <= 0.5] - 1.0)))
    _line(5, oracle_ok and err < 1e-2, f"Getoor interior max err {err:.2e} (oracle ok: {oracle_ok})", t0)


def test_criterion_06_m_matrix_invariants():
    t0 = time.time()
    ok = True
    for beta in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9):
        for n in (64, 256, 1024):
            A = assemble_1d(SpaceGrid(-1.0, 1.0, n), beta).entries
            offdiag = A - np.diag(np.diag(A))
            ok &= bool(np.array_equal(A, A.T))
            ok &= bool(np.all(np.diag(A) > 0.0))
            ok &= bool(np.all(offdiag <= 0.0))
            ok &= bool(np.all(A.sum(axis=1) > 0.0))
    _line(6, ok, "M-matrix structure on the full (beta, n) lattice, zero exceptions", t0)


def test_criterion_07_bilinear_sign_properties():
    t0 = time.time()
    rng = np.random.default_rng(707)
    grid = SpaceGrid(-1.0, 1.0, 64)
    beta = 0.6
    worst_cross = -np.inf
    ok = True
    for _ in range(500):
        u = Field(grid, rng.standard_normal(64))
        up, um = sign_split(u)
        cross = bilinear_a(up, um, beta)
        worst_cross = max(worst_cross, cross)
        ok &= cross <= 0.0
        if np.any(um.values > 0.0):
            ok &= bilinear_a(um, um, beta) > 0.0
    _line(7, ok, f"a(u+,u-) <= 0 and a(u-,u-) > 0 over 500 fields (max cross {worst_cross:.2e})", t0)


@pytest.mark.parametrize("m", [4, 64])
def test_criterion_08_convex_inequalities(m):
    t0 = time.time()
    M = 128
    mesh = TimeMesh(1.0, M)
    k = monotone_regularized_kernel(0.5, m, mesh)
    rng = np.random.default_rng(808 + m)
    ok = True
    for _ in range(500):
        breaks = np.linspace(0, M, 8).astype(int)
        u = np.interp(np.arange(M + 1), breaks, rng.uniform(-1, 1, 8))
        ok &= convex_inequality_check(u, k, mesh.tau).all_ok()
    _line(8, ok, f"convexity inequalities, 500 trajectories, m={m}, tol 1e-10 rel", t0)


def test_criterion_09_kernel_regularization_properties():
    t0 = time.time()
    ok = True
    mesh = TimeMesh(1.0, 256)
    for alpha in np.arange(0.1, 0.95, 0.1):
        alpha = round(float(alpha), 1)
        for m in (1, 4, 16, 64):
            greg = regularized_kernel(alpha, m, mesh)
            ok &= bool(np.all(greg >= 0.0))
            ok &= bool(np.all(h_kernel(m, mesh.times()) >= 0.0))
    fine = TimeMesh(1.0, 4096)
    tf = fine.times()
    for alpha in np.arange(0.1, 0.95, 0.1):
        alpha = round(float(alpha), 1)
        g = g_kernel(1.0 - alpha, tf[1:])
        dists = []
        for m in (4, 16, 64, 256):
            k = regularized_kernel(alpha, m, fine)
            body = fine.tau * float(np.sum(np.abs(g - k[1:])))
            head = g_cell_integral(1.0 - alpha, 0.0, fine.tau) - 0.5 * fine.tau * k[1]
            dists.append(body + abs(head))
        ok &= all(d0 > d1 for d0, d1 in zip(dists, dists[1:]))
    _line(9, ok, "kernel nonnegativity on the lattice; L1 distance strictly decreasing in m", t0)


def test_criterion_10_weak_residual_self_convergence():
    t0 = time.time()
    resids = []
    for M, n in ((32, 24), (64, 48), (128, 96)):
        grid = SpaceGrid(-1.0, 1.0, n)
        x = grid.nodes()
        problem = ProblemSpec(
            FracOrders(0.5, 0.5),
            grid,
            TimeMesh(1.0, M),
            Field(grid, np.maximum(0.0, 1.0 - 4.0 * x**2)),
            lambda xx, t: 0.5 * (1.0 + np.cos(np.pi * xx)) * np.exp(-t),
        )
        sol = solve(problem)
        psi = Field(grid, np.maximum(0.0, 1.0 - 9.0 * x**2) ** 2)
        resids.append(abs(weak_residual(sol, psi, 64, M // 2)))
    ok = resids[0] > resids[1] > resids[2]
    _line(10, ok, f"weak residual decay {['%.2e' % r for r in resids]}", t0)


def test_criterion_11_extremum_sign_check():
    t0 = time.time()
    rng = np.random.default_rng(1111)
    M = 256
    tau = 2.0 / M
    t = tau * np.arange(M + 1)
    ok = True
    checked = 0
    for _ in range(200):
        spline = CubicSpline(np.linspace(0.0, 2.0, 7), rng.uniform(-1.0, 1.0, 7))
        u = spline(t)
        alpha = float(rng.uniform(0.05, 0.95))
        for mode, pick in (("max", np.argmax), ("min", np.argmin)):
            n0 = int(pick(u))
            if n0 == 0:
                continue
            _, verdict = rl_extremum_sign(u, tau, alpha, n0, mode)
            ok &= verdict
            checked += 1
    _line(11, ok and checked >= 200, f"extremum sign verdicts, {checked} checks over 200 trajectories", t0)


def test_criterion_12_cli_end_to_end(tmp_path):
    t0 = time.time()
    golden = {
        "alpha": 0.5,
        "beta": 0.5,
        "a": -1.0,
        "b": 1.0,
        "n": 16,
        "T": 1.0,
        "M": 12,
        "u0": "max(0, 1 - x^2)",
        "f": "0.1 * (1 + cos(3.14159265358979 * x))",
        "m": 8,
        "trials": 3,
        "seed": 42,
        "m_ladder": "2,8",
    }
    cfg = tmp_path / "golden.json"
    cfg.write_text(json.dumps(golden))

    outputs = {
        "solve": ("solution.csv", "metadata.json"),
        "verify": ("verify_report.json",),
        "convergence": ("convergence.csv",),
        "kernel-table": ("kernel_table.csv", "kernel_distances.csv"),
    }
    ok = True
    for command, files in outputs.items():
        blobs = []
        for run in ("r1", "r2"):
            out = tmp_path / f"{command}-{run}"
            code = cli_main([command, "--config", str(cfg), "--out", str(out)])
            ok &= code == 0
            blobs.append(tuple((out / f).read_bytes() for f in files))
        ok &= blobs[0] == blobs[1]

    # three crafted failure configs, each a distinct error class: exit 2
    bad_range = tmp_path / "bad_range.json"
    bad_range.write_text(json.dumps({**golden, "alpha": 1.2}))
    bad_syntax = tmp_path / "bad_syntax.json"
    bad_syntax.write_text("{this is not json")
    for bad in (bad_range, bad_syntax, tmp_path / "does_not_exist.json"):
        ok &= cli_main(["solve", "--config", str(bad)]) == 2
    _line(12, ok, "CLI byte-identical outputs and exit-code contract", t0)
