"""Maximum-principle harness tests.

Boundary classification is checked exhaustively on small grids against
the definition (parabolic boundary = initial slice plus lateral layer,
never the terminal interior).  The theorem checks themselves are exact
discrete statements: the nonnegativity check has no tolerance, and the
boundary check's near-tie rule is roundoff-sized.
"""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from tsfrac import principles, solver
from tsfrac.fraclap import Field, SpaceGrid
from tsfrac.kernels import TimeMesh
from tsfrac.principles import (
    BoundaryClass,
    TrialConfig,
    check_nonnegativity,
    check_parabolic_boundary,
    classify,
    run_trials,
)
from tsfrac.solver import FracOrders, ProblemSpec, solve

from oracles import run_trials_reference, trial_closure

ZERO_F = lambda x, t: np.zeros_like(x)


def small_problem(u0_vals, f=ZERO_F, alpha=0.5, beta=0.5, n=16, M=12):
    grid = SpaceGrid(-1.0, 1.0, n)
    mesh = TimeMesh(1.0, M)
    return ProblemSpec(FracOrders(alpha, beta), grid, mesh, Field(grid, u0_vals), f)


class TestClassify:
    def setup_method(self):
        self.nx, self.M = 8, 6

    def test_initial_slice(self):
        assert classify(self.nx, self.M, 4, 0) is BoundaryClass.INITIAL

    def test_edge_adjacent_at_final_time_is_lateral(self):
        assert classify(self.nx, self.M, 1, 6) is BoundaryClass.LATERAL
        assert classify(self.nx, self.M, 8, 6) is BoundaryClass.LATERAL

    def test_ghost_nodes_are_lateral(self):
        for n in (0, 3, 6):
            assert classify(self.nx, self.M, 0, n) is BoundaryClass.LATERAL
            assert classify(self.nx, self.M, 9, n) is BoundaryClass.LATERAL

    def test_center_at_final_time_is_terminal(self):
        assert classify(self.nx, self.M, 4, 6) is BoundaryClass.TERMINAL

    def test_bulk_is_interior(self):
        assert classify(self.nx, self.M, 4, 3) is BoundaryClass.INTERIOR

    def test_exhaustive_partition(self):
        counts = {cls: 0 for cls in BoundaryClass}
        for i in range(self.nx + 2):
            for n in range(self.M + 1):
                cls = classify(self.nx, self.M, i, n)
                counts[cls] += 1
                parabolic = cls in (BoundaryClass.INITIAL, BoundaryClass.LATERAL)
                if cls is BoundaryClass.TERMINAL:
                    assert not parabolic
        total = (self.nx + 2) * (self.M + 1)
        assert sum(counts.values()) == total
        assert all(c > 0 for c in counts.values())

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            classify(self.nx, self.M, 10, 0)
        with pytest.raises(ValueError):
            classify(self.nx, self.M, 0, 7)


class TestNonnegativity:
    def test_zero_data_exact_zero(self):
        sol = solve(small_problem(np.zeros(16)))
        report = check_nonnegativity(sol.states, sol.forcing)
        assert report.status == "pass"
        assert report.extremal_value == 0.0
        assert report.violation == 0.0

    def test_bump_passes_at_roundoff_tolerance(self):
        x = SpaceGrid(-1.0, 1.0, 16).nodes()
        u0 = np.maximum(0.0, 1.0 - 4.0 * x**2)
        sol = solve(small_problem(u0))
        report = check_nonnegativity(sol.states, sol.forcing)
        assert report.status == "pass"
        assert report.violation == 0.0

    def test_any_negative_state_fails(self):
        # Positivity is exact, so there is no tolerance: one state of
        # -1e-300 under u0 >= 0 and f >= 0 fails, and the violation says so.
        sol = solve(small_problem(np.ones(16)))
        states = sol.states.copy()
        states[5, 7] = -1e-300
        report = check_nonnegativity(states, sol.forcing)
        assert report.status == "fail"
        assert report.violation == 1e-300
        assert report.location == (8, 5)

    def test_hypotheses_violation_is_not_a_failure(self):
        x = SpaceGrid(-1.0, 1.0, 16).nodes()
        u0 = np.maximum(0.0, 1.0 - 4.0 * x**2)
        f = lambda xx, t: np.full_like(xx, -10.0 if t < 0.2 else 0.0)
        sol = solve(small_problem(u0, f=f))
        report = check_nonnegativity(sol.states, sol.forcing)
        assert report.status == "hypotheses-violated"
        assert "negative" in report.detail

    def test_mixed_sign_u0_also_not_applicable(self):
        sol = solve(small_problem(np.linspace(-1, 1, 16)))
        assert check_nonnegativity(sol.states, sol.forcing).status == "hypotheses-violated"


class TestParabolicBoundary:
    def test_nonneg_data_min_on_boundary_at_zero(self):
        x = SpaceGrid(-1.0, 1.0, 16).nodes()
        u0 = np.maximum(0.0, 1.0 - 4.0 * x**2)
        f = lambda xx, t: 0.3 * (1.0 + np.cos(np.pi * xx))
        sol = solve(small_problem(u0, f=f))
        report = check_parabolic_boundary(sol.states, sol.forcing)
        assert report.status == "pass"
        assert report.extremal_value == pytest.approx(0.0, abs=1e-14)
        assert report.location_class in (BoundaryClass.INITIAL, BoundaryClass.LATERAL)

    def test_sign_flipped_mirror(self):
        # The max statement (f <= 0: the maximum sits on the parabolic
        # boundary) is the min check on the negated solution.
        x = SpaceGrid(-1.0, 1.0, 16).nodes()
        u0 = -np.maximum(0.0, 1.0 - 4.0 * x**2)
        f = lambda xx, t: -0.3 * (1.0 + np.cos(np.pi * xx))
        sol = solve(small_problem(u0, f=f))
        report = check_parabolic_boundary(-sol.states, -sol.forcing)
        assert report.status == "pass"
        assert report.location_class in (BoundaryClass.INITIAL, BoundaryClass.LATERAL)
        assert -report.extremal_value == pytest.approx(0.0, abs=1e-14)
        assert -report.extremal_value == max(float(np.max(sol.states)), 0.0)

    def test_mixed_sign_initial_data_argmin_never_terminal_interior(self):
        rng = np.random.default_rng(71)
        grid = SpaceGrid(-1.0, 1.0, 24)
        x = grid.nodes()
        for _ in range(25):
            c = rng.uniform(-1, 1, 5)
            u0 = sum(ci * np.sin((k + 1) * np.pi * (x + 1) / 2) for k, ci in enumerate(c))
            d = rng.uniform(0, 1, 3)
            f = lambda xx, t, d=d: sum(
                di * (1.0 + np.sin((k + 1) * np.pi * (xx + 1) / 2) ** 2) for k, di in enumerate(d)
            )
            sol = solve(small_problem(u0, f=f, n=24, M=16))
            report = check_parabolic_boundary(sol.states, sol.forcing)
            assert report.status == "pass"
            assert report.location_class in (BoundaryClass.INITIAL, BoundaryClass.LATERAL)

    def test_wrong_sign_hypothesis_flagged(self):
        sol = solve(small_problem(np.zeros(16), f=lambda x, t: -np.ones_like(x)))
        assert check_parabolic_boundary(sol.states, sol.forcing).status == "hypotheses-violated"
        assert check_parabolic_boundary(-sol.states, -sol.forcing).status == "pass"


class TestRunTrials:
    def _config(self, kind="nonneg", trials=6, seed=7):
        return TrialConfig(
            kind=kind,
            trials=trials,
            seed=seed,
            alphas=(0.3, 0.7),
            betas=(0.4, 0.8),
            grid=SpaceGrid(-1.0, 1.0, 24),
            mesh=TimeMesh(1.0, 16),
        )

    def test_deterministic_for_fixed_seed(self):
        r1 = run_trials(self._config())
        r2 = run_trials(self._config())
        assert r1.to_json_dict() == r2.to_json_dict()

    def test_nonneg_trials_pass(self):
        report = run_trials(self._config(trials=12))
        assert report.status == "pass"
        assert report.trials == 12
        assert len(report.seeds) == 12
        assert report.violation == 0.0

    def test_boundary_trials_pass(self):
        report = run_trials(self._config(kind="boundary-min", trials=8))
        assert report.status == "pass"

    def test_weak_trials_pass(self):
        report = run_trials(self._config(kind="weak-nonneg", trials=4))
        assert report.status == "pass"

    def test_empty_lattice_rejected(self):
        with pytest.raises(ValueError):
            TrialConfig(
                kind="nonneg",
                trials=1,
                seed=0,
                alphas=(),
                betas=(0.5,),
                grid=SpaceGrid(-1.0, 1.0, 8),
                mesh=TimeMesh(1.0, 4),
            )

    def test_zero_trials_rejected(self):
        # and a kind that is not a trial kind: the max statement is the
        # boundary-min check on -u, so there is no boundary-max kind
        for kind, trials, message in (("nonneg", 0, "at least one trial"),
                                      ("boundary-max", 1, "unknown trial kind")):
            with pytest.raises(ValueError, match=message):
                TrialConfig(
                    kind=kind,
                    trials=trials,
                    seed=0,
                    alphas=(0.5,),
                    betas=(0.5,),
                    grid=SpaceGrid(-1.0, 1.0, 8),
                    mesh=TimeMesh(1.0, 4),
                )

    def test_json_schema(self):
        report = run_trials(self._config(trials=3))
        data = json.loads(json.dumps(report.to_json_dict()))
        for key in ("kind", "status", "worst", "location", "trials", "seeds", "lattice"):
            assert key in data
        assert data["trials"] == 3
        assert [0.3, 0.4] in data["lattice"]


KINDS = ("nonneg", "boundary-min", "weak-nonneg")


def one_point(kind="nonneg", trials=20, seed=0, n=128, M=256):
    return TrialConfig(kind=kind, trials=trials, seed=seed, alphas=(0.6,), betas=(0.45,),
                       grid=SpaceGrid(-1.0, 1.0, n), mesh=TimeMesh(1.0, M))


def record_batches(monkeypatch):
    """Record the (u0, forcing) arguments of every batched solve."""
    calls = []
    original = principles.l1_stepper

    def recording_stepper(alpha, beta, grid, mesh):
        step = original(alpha, beta, grid, mesh)

        def recorder(u0, forcing):
            calls.append((u0.copy(), forcing.copy()))
            return step(u0, forcing)

        return recorder

    monkeypatch.setattr(principles, "l1_stepper", recording_stepper)
    return calls


class TestBatchedTrials:
    """``run_trials`` solves each lattice point's trials as batches of one
    K-column solve; the reports must be those of one solve per trial."""

    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("kind", KINDS)
    def test_matches_per_trial_reference(self, kind, seed):
        uneven = TrialConfig(kind=kind, trials=37, seed=seed, alphas=(0.3, 0.7), betas=(0.4, 0.8),
                             grid=SpaceGrid(-1.0, 1.0, 24), mesh=TimeMesh(1.0, 300))
        for config in (uneven, one_point(kind, seed=seed)):
            got = json.dumps(run_trials(config).to_json_dict())
            assert got == json.dumps(run_trials_reference(config).to_json_dict())

    @pytest.mark.parametrize("kind", KINDS)
    def test_forcing_columns_are_the_step_samples(self, kind, monkeypatch):
        # Batches run point by point, each point's trials in trial order;
        # each forcing column is drawn as one array and must equal the
        # step-by-step samples of the oracle's closure for that trial.
        calls = record_batches(monkeypatch)
        config = TrialConfig(kind=kind, trials=10, seed=3, alphas=(0.3, 0.7), betas=(0.5,),
                             grid=SpaceGrid(-1.0, 1.0, 32), mesh=TimeMesh(1.0, 256))
        run_trials(config)
        seeds = np.random.default_rng(3).integers(0, 2**31 - 1, 10)
        order = [i for p in range(2) for i in range(p, 10, 2)]
        columns = [(u0[k], forcing[:, k]) for u0, forcing in calls for k in range(len(u0))]
        assert len(columns) == len(order)
        grid = config.grid
        for i, (u0, forcing) in zip(order, columns):
            u0_ref, f = trial_closure(kind, int(seeds[i]), grid)
            problem = ProblemSpec(FracOrders(0.3, 0.5), grid, config.mesh, Field(grid, u0_ref), f)
            assert np.array_equal(u0, u0_ref)
            assert np.array_equal(forcing, problem.forcing_samples())

    @pytest.mark.parametrize("kind", KINDS)
    def test_each_check_reads_its_own_trials_extremes(self, kind, monkeypatch):
        # Every trial forcing here is >= 0, so a check handed another
        # trial's forcing would still pass: compare the forcing argument of
        # each check call with [min, max] of that trial's oracle samples.
        # 31 trials on two points run as batches of 8, 8 and 15.
        seen = []
        for name in ("check_nonnegativity", "check_parabolic_boundary"):
            def recording(states, forcing, original=getattr(principles, name)):
                seen.append(np.array(forcing))
                return original(states, forcing)

            monkeypatch.setattr(principles, name, recording)
        config = TrialConfig(kind=kind, trials=31, seed=2, alphas=(0.3, 0.7), betas=(0.5,),
                             grid=SpaceGrid(-1.0, 1.0, 128), mesh=TimeMesh(1.0, 256))
        run_trials(config)
        seeds = np.random.default_rng(2).integers(0, 2**31 - 1, 31)
        order = [i for p in range(2) for i in range(p, 31, 2)]
        assert len(seen) == len(order)
        grid = config.grid
        for i, forcing in zip(order, seen):
            u0, f = trial_closure(kind, int(seeds[i]), grid)
            problem = ProblemSpec(FracOrders(0.3, 0.5), grid, config.mesh, Field(grid, u0), f)
            samples = problem.forcing_samples()
            assert np.array_equal(forcing, [samples.min(), samples.max()]), i

    def test_batch_widths(self, monkeypatch):
        # 8 (M+1) n bytes per trial against a 4 MiB cap: 15 trials fit at
        # n = 128, M = 256, so 20 trials on one point run as 10, 10 ...
        calls = record_batches(monkeypatch)
        run_trials(one_point())
        assert [len(u0) for u0, _ in calls] == [10, 10]
        # ... and two at a time once a single trial needs 2 MiB.
        calls.clear()
        run_trials(one_point(trials=3, n=512, M=511))
        assert [len(u0) for u0, _ in calls] == [2, 1]

    @pytest.mark.parametrize("kind", KINDS)
    def test_a_smaller_point_may_run_the_larger_batch(self, kind, monkeypatch):
        # 15 trials fit at n = 128, M = 256.  Of 31 trials on two points the
        # first gets 16, run as 8 + 8, and the second 15, run as one batch
        # of 15, longer than any batch before it.
        calls = record_batches(monkeypatch)
        config = TrialConfig(kind=kind, trials=31, seed=2, alphas=(0.3, 0.7), betas=(0.5,),
                             grid=SpaceGrid(-1.0, 1.0, 128), mesh=TimeMesh(1.0, 256))
        got = json.dumps(run_trials(config).to_json_dict())
        assert [len(u0) for u0, _ in calls] == [8, 8, 15]
        assert got == json.dumps(run_trials_reference(config).to_json_dict())

    def test_one_inverse_per_lattice_point(self, monkeypatch):
        # 8 trials per point of a 2 x 2 lattice at n = 128, M = 256 run as
        # one batch of 8; each point inverts once.
        inversions = []
        original = solver._inverse

        def counting_inverse(B):
            inversions.append(B.shape)
            original(B)

        monkeypatch.setattr(solver, "_inverse", counting_inverse)
        calls = record_batches(monkeypatch)
        config = TrialConfig(kind="nonneg", trials=32, seed=0, alphas=(0.3, 0.7), betas=(0.4, 0.8),
                             grid=SpaceGrid(-1.0, 1.0, 128), mesh=TimeMesh(1.0, 256))
        run_trials(config)
        assert [len(u0) for u0, _ in calls] == [8] * 4
        assert inversions == [(128, 128)] * 4

    def test_one_buffer_peak_on_criterion_01_lattice(self):
        # 128 trials at n = 128, M = 256 run as one batch of 8 per point,
        # each in one 2.1 MB array that the states overwrite.  Two arrays of
        # the states and the forcing in batches of 4 peaked at 2.96-2.97 MB
        # (tracemalloc, after a warm-up call); one array per batch at 2.59.
        run_trials(one_point(trials=2, n=8, M=8))
        lattice = (0.3, 0.5, 0.7, 0.9)
        for kind in ("nonneg", "boundary-min"):
            config = TrialConfig(kind=kind, trials=128, seed=101, alphas=lattice, betas=lattice,
                                 grid=SpaceGrid(-1.0, 1.0, 128), mesh=TimeMesh(1.0, 256))
            tracemalloc.start()
            try:
                run_trials(config)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= 2_960_000, (kind, peak)

    def test_memory_peak(self):
        # Two batches of 10, each in a 2.6 MB array of its own that holds
        # the forcing samples until the states overwrite them; the first is
        # freed before the second is drawn (peak 3.1 MB, tracemalloc).
        config = one_point()
        tracemalloc.start()
        try:
            run_trials(config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2**20


# OPENBLAS_CORETYPE kernels and the CPU feature each needs, as numpy names it.
CORETYPES = (("Prescott", "SSE3"), ("Haswell", "AVX2"), ("SkylakeX", "AVX512_SKX"))

KERNEL_RUN = """
import json
from tsfrac.fraclap import SpaceGrid
from tsfrac.kernels import TimeMesh
from tsfrac.principles import TrialConfig, run_trials
lattice = (0.3, 0.5, 0.7, 0.9)
configs = [
    TrialConfig(kind="nonneg", trials=200, seed=101, alphas=lattice, betas=lattice,
                grid=SpaceGrid(-1.0, 1.0, 128), mesh=TimeMesh(1.0, 256)),
    TrialConfig(kind="nonneg", trials=48, seed=7, alphas=(0.3, 0.9), betas=(0.5,),
                grid=SpaceGrid(-1.0, 1.0, 96), mesh=TimeMesh(1.0, 700)),
]
print(json.dumps([run_trials(c).to_json_dict() for c in configs]))
"""


def test_exact_positivity_under_every_blas_kernel():
    # Each OpenBLAS kernel sums the products in its own order, so the states
    # move in the last bits between kernels.  Exact positivity must not: it
    # rests on signs, not on the order.  Criterion 01's trials and a run
    # whose pushes span 512 states (M = 700, six columns per call) report a
    # violation of exactly 0.0, and the same report, under each kernel.
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    if "DYNAMIC_ARCH" not in blas.get("openblas configuration", ""):
        pytest.skip(f"BLAS {blas.get('name')!r} is not a DYNAMIC_ARCH OpenBLAS: its kernel cannot be chosen")
    from numpy._core._multiarray_umath import __cpu_features__

    kernels = [name for name, feature in CORETYPES if __cpu_features__.get(feature)]
    if not kernels:
        pytest.skip(f"the CPU runs none of the x86 kernels {[name for name, _ in CORETYPES]}")
    src = str(Path(__file__).resolve().parent.parent / "src")
    reports, cores = {}, set()
    for name in kernels:
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_CORETYPE=name, OPENBLAS_VERBOSE="2")
        proc = subprocess.run([sys.executable, "-c", KERNEL_RUN], env=env, capture_output=True,
                              text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr[-2000:]
        # OpenBLAS names the kernel it loaded (Prescott's is Katmai's).
        cores.update(line for line in proc.stderr.splitlines() if line.startswith("Core: "))
        reports[name] = json.loads(proc.stdout)
        assert [r["violation"] for r in reports[name]] == [0.0, 0.0], name
        assert [r["status"] for r in reports[name]] == ["pass", "pass"], name
    assert len(cores) == len(kernels), cores
    assert all(r == reports[kernels[0]] for r in reports.values()), list(reports)
