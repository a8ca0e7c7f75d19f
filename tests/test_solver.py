"""Time-stepper tests.

The scalar-relaxation oracle: the L1 stepper on the one-node grid, whose
operator is the 1x1 matrix [lambda], with zero forcing; its exact solution
is u0 * E_alpha(-lambda t^alpha), evaluated by the independent
Mittag-Leffler routine.  Positivity and comparison are exact discrete
properties of the L1 + M-matrix scheme and are tested at roundoff scale.
"""

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import linalg
from scipy.linalg import lapack

from tsfrac.fraclap import Field, SpaceGrid, assemble_1d
from tsfrac.kernels import TimeMesh, mittag_leffler
from tsfrac import solver
from tsfrac.principles import check_nonnegativity
from tsfrac.solver import (
    FracOrders,
    ProblemSpec,
    Solution,
    config_hash,
    l1_stepper,
    solution_metadata,
    solution_to_csv,
    solve,
    _BLOCK,
    _inverse,
    weak_residual,
)
from tsfrac.timefrac import l1_weights

from oracles import gl_weights, inverse_reference, weak_residual_reference

ZERO_F = lambda x, t: np.zeros_like(x)
ONE_NODE = SpaceGrid(-1.0, 1.0, 1)
LAM = float(assemble_1d(ONE_NODE, 0.5).entries[0, 0])  # the one-node operator [lambda] at beta = 0.5


def scalar_relaxation(alpha, M):
    """u^0 .. u^M of the L1 stepper on the one-node grid at beta = 0.5, u0 = 1 and f = 0 on [0, 1]."""
    return l1_stepper(alpha, 0.5, ONE_NODE, TimeMesh(1.0, M))(np.ones((1, 1)), np.zeros((M + 1, 1, 1)))[:, 0, 0]


def bump_problem(alpha=0.5, beta=0.5, n=32, M=48, u0_fn=None, f_fn=None):
    grid = SpaceGrid(-1.0, 1.0, n)
    mesh = TimeMesh(1.0, M)
    x = grid.nodes()
    u0 = Field(grid, u0_fn(x) if u0_fn else np.maximum(0.0, 1.0 - 4.0 * x**2))
    return ProblemSpec(FracOrders(alpha, beta), grid, mesh, u0, f_fn or ZERO_F)


class TestStepAndSolve:
    def test_zero_data_zero_solution(self):
        problem = bump_problem(u0_fn=lambda x: np.zeros_like(x))
        sol = solve(problem)
        assert np.all(sol.states == 0.0)

    def test_states_satisfy_l1_equation(self):
        # (b_0 I + A) u^k = sum_{j=1}^{k-1} (b_{j-1} - b_j) u^{k-j} + b_{k-1} u^0 + f^k
        problem = bump_problem(M=12, f_fn=lambda x, t: (1.0 - x**2) * (1.0 + t))
        A = assemble_1d(problem.grid, problem.orders.beta)
        sol = solve(problem)
        b = l1_weights(problem.orders.alpha, problem.mesh.tau, problem.mesh.M)
        u = sol.states
        for k in (1, 5, 12):
            rhs = b[k - 1] * u[0] + sol.forcing[k]
            for j in range(1, k):
                rhs = rhs + (b[j - 1] - b[j]) * u[k - j]
            lhs = b[0] * u[k] + A.entries @ u[k]
            np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-12)

    def test_scalar_relaxation_vs_mittag_leffler(self):
        u = scalar_relaxation(0.5, 2048)
        exact = mittag_leffler(0.5, -LAM)
        assert abs(u[-1] - exact) / exact < 1e-2

    def test_gl_cross_check_on_scalar(self):
        # Grunwald-Letnikov oracle for the scalar relaxation:
        # tau^-alpha sum_{j=0}^{n} w_j (u^{n-j} - u^0) + lambda u^n = 0
        alpha, M = 0.5, 2048
        w = gl_weights(alpha, M)
        scale = (1.0 / M) ** (-alpha)
        u = np.empty(M + 1)
        u[0] = 1.0
        for n in range(1, M + 1):
            hist = w[1 : n + 1] @ (u[n - 1 :: -1] - u[0])  # u^{n-1}, ..., u^0
            u[n] = scale * (u[0] - hist) / (scale + LAM)
        assert u[-1] == pytest.approx(mittag_leffler(alpha, -LAM), rel=1e-2)
        assert u[-1] == pytest.approx(scalar_relaxation(alpha, M)[-1], rel=1e-2)

    def test_exact_positivity(self):
        rng = np.random.default_rng(51)
        grid = SpaceGrid(-1.0, 1.0, 48)
        mesh = TimeMesh(1.0, 64)
        x = grid.nodes()
        for _ in range(20):
            alpha = rng.choice([0.3, 0.5, 0.7, 0.9])
            beta = rng.choice([0.3, 0.5, 0.7, 0.9])
            c = rng.uniform(-1, 1, 5)
            u0 = np.maximum(0.0, sum(ci * np.sin((k + 1) * np.pi * (x + 1) / 2) for k, ci in enumerate(c)))
            d = rng.uniform(-1, 1, 5)
            f = lambda xx, t, d=d: np.maximum(
                0.0, sum(di * np.sin((k + 1) * np.pi * (xx + 1) / 2) for k, di in enumerate(d))
            ) * abs(np.cos(3 * t))
            problem = ProblemSpec(FracOrders(alpha, beta), grid, mesh, Field(grid, u0), f)
            sol = solve(problem)
            scale = max(1.0, np.max(u0), np.max(sol.forcing))
            assert sol.states.min() >= -1e-12 * scale

    def test_comparison_principle_in_forcing(self):
        rng = np.random.default_rng(52)
        grid = SpaceGrid(-1.0, 1.0, 32)
        mesh = TimeMesh(1.0, 40)
        x = grid.nodes()
        for _ in range(10):
            base = rng.uniform(-1, 1, 4)
            extra = rng.uniform(0, 1, 4)
            f1 = lambda xx, t, b=base: sum(bi * np.sin((k + 1) * np.pi * (xx + 1) / 2) for k, bi in enumerate(b)) * np.cos(t)
            f2 = lambda xx, t, b=base, e=extra: f1(xx, t) + sum(
                ei * (1 + np.sin((k + 1) * np.pi * (xx + 1) / 2) ** 2) for k, ei in enumerate(e)
            )
            u0 = Field(grid, rng.uniform(-1, 1, 32))
            s1 = solve(ProblemSpec(FracOrders(0.4, 0.6), grid, mesh, u0, f1))
            s2 = solve(ProblemSpec(FracOrders(0.4, 0.6), grid, mesh, u0, f2))
            scale = max(1.0, np.max(np.abs(s1.states)), np.max(np.abs(s2.states)))
            assert np.all(s1.states <= s2.states + 1e-12 * scale)

    def test_exterior_condition_breaks_translation_invariance(self):
        # constant initial data decays fastest next to the boundary
        problem = bump_problem(n=33, M=32, u0_fn=lambda x: np.ones_like(x))
        sol = solve(problem)
        final = sol.states[-1]
        assert final[0] < final[16]
        assert final[-1] < final[16]

    def test_determinism_byte_identical(self):
        problem = bump_problem(M=16, n=16)
        csv1 = solution_to_csv(solve(problem))
        csv2 = solution_to_csv(solve(problem))
        assert csv1 == csv2

    def test_near_classical_limit(self):
        # alpha = beta = 0.95 against backward Euler + 3-point Laplacian;
        # soft check: the fractional constant degenerates as beta -> 1
        n, M, T = 64, 128, 0.5
        grid = SpaceGrid(-1.0, 1.0, n)
        x = grid.nodes()
        u0 = np.sin(np.pi * (x + 1.0) / 2.0)
        problem = ProblemSpec(
            FracOrders(0.95, 0.95), grid, TimeMesh(T, M), Field(grid, u0), ZERO_F
        )
        frac = solve(problem).states[-1]

        h, tau = grid.h, T / M
        lap = (np.diag(np.full(n, 2.0)) - np.diag(np.ones(n - 1), 1) - np.diag(np.ones(n - 1), -1)) / h**2
        system = np.eye(n) + tau * lap
        u = u0.copy()
        for _ in range(M):
            u = np.linalg.solve(system, u)
        assert np.max(np.abs(frac - u)) < 0.1

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            FracOrders(0.0, 0.5)
        with pytest.raises(ValueError):
            FracOrders(0.5, 1.0)


class TestExactSemiDiscreteSolution:
    """The multi-node stepper against the exact solution of the system it discretizes in time.

    For time-independent f, D^alpha (u - u0) + A u = f has the exact solution
    u(t) = A^-1 f + Q E_alpha(-Lambda t^alpha) Q^T (u0 - A^-1 f), A = Q Lambda Q^T
    (eigh): an oracle that shares no code with the history sum.  At fixed t
    the L1 error of such data falls as tau^1 (Jin, Lazarov & Zhou, IMA J.
    Numer. Anal. 36:197, 2016); a history sum that dropped or misplaced a
    push would show in the orders at M >= 256, where pushes of 256 states start.
    """

    LEVELS = (32, 64, 128, 256, 512, 1024)

    @pytest.mark.parametrize("beta", [0.2, 0.5, 0.8])
    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.9])
    def test_first_order_in_time(self, alpha, beta):
        grid = SpaceGrid(-1.0, 1.0, 64)
        x = grid.nodes()
        u0, f = np.maximum(0.0, 1.0 - x**2), 0.1 * (1.0 + np.cos(np.pi * x))
        A = assemble_1d(grid, beta).entries
        lam, Q = np.linalg.eigh(A)
        steady = np.linalg.solve(A, f)
        exact = steady + Q @ (np.array([mittag_leffler(alpha, -v) for v in lam]) * (Q.T @ (u0 - steady)))
        errors = []
        for M in self.LEVELS:
            states = l1_stepper(alpha, beta, grid, TimeMesh(1.0, M))(u0[None], np.tile(f, (M + 1, 1, 1)))
            errors.append(np.max(np.abs(states[-1, 0] - exact)) / np.max(np.abs(exact)))
        orders = np.log2(np.array(errors[:-1]) / errors[1:])
        assert errors[0] < 0.03, errors
        assert np.all((orders[1:] >= 0.95) & (orders[1:] <= 1.1)), orders


def l1_reference(problem, A):
    """Step-by-step L1 stepping, one history GEMV per step and the
    library's inverse and step product: the oracle for the dyadic history
    sum of ``solve``."""
    M, nx = problem.mesh.M, problem.grid.n
    f = problem.forcing_samples()
    b = l1_weights(problem.orders.alpha, problem.mesh.tau, M)
    w = b[:-1] - b[1:]
    G = b[0] * np.eye(nx) + A.entries
    _inverse(G)
    u = np.empty((M + 1, nx))
    u[0] = problem.u0.values
    for n in range(1, M + 1):
        rhs = b[n - 1] * u[0] + f[n]
        if n > 1:
            rhs = rhs + np.dot(w[n - 2 :: -1], u[1:n])
        u[n] = np.matmul(rhs[None], G)[0]
    return u


def cho_solve_reference(problem, A):
    """Step-by-step L1 stepping with two triangular solves per step: the
    oracle for the inverse-times-vector step of ``solve``."""
    M, nx = problem.mesh.M, problem.grid.n
    f = problem.forcing_samples()
    b = l1_weights(problem.orders.alpha, problem.mesh.tau, M)
    w = b[:-1] - b[1:]
    cho = linalg.cho_factor(b[0] * np.eye(nx) + A.entries)
    u = np.empty((M + 1, nx))
    u[0] = problem.u0.values
    for n in range(1, M + 1):
        rhs = b[n - 1] * u[0] + f[n]
        if n > 1:
            rhs = rhs + w[: n - 1] @ u[n - 1 : 0 : -1]
        u[n] = linalg.cho_solve(cho, rhs)
    return u


def random_problem(n, M, alpha, beta, seed):
    """Uniform [0, 1) initial data and forcing, sampled from a fixed table."""
    rng = np.random.default_rng(seed)
    grid = SpaceGrid(-1.0, 1.0, n)
    mesh = TimeMesh(1.0, M)
    F = rng.uniform(0.0, 1.0, (M + 1, n))
    return ProblemSpec(
        FracOrders(alpha, beta), grid, mesh, Field(grid, rng.uniform(0.0, 1.0, n)),
        lambda x, t: F[int(round(t / mesh.tau))],
    )


def l1_residual(sol, A, k):
    """Max-norm of (b_0 I + A) u^k - rhs^k, from the L1 weights alone."""
    u = sol.states
    b = l1_weights(sol.problem.orders.alpha, sol.problem.mesh.tau, sol.problem.mesh.M)
    rhs = b[k - 1] * u[0] + sol.forcing[k] + (b[: k - 1] - b[1:k]) @ u[k - 1 : 0 : -1]
    return np.max(np.abs(b[0] * u[k] + A.entries @ u[k] - rhs))


class TestBlockedHistorySum:
    """``solve`` sums the history of each step in two parts: the step pulls
    the earlier states of its own 16-step block in one product, and each
    finished block of 16 or more states is pushed into later rows by
    dyadic pushes, a push of more than 256 states as products of 256 each;
    only the order of summation differs from the per-step sum."""

    @pytest.mark.parametrize("alpha", [0.3, 0.9])
    @pytest.mark.parametrize("M", [16, 17, 255, 256, 257, 300, 512, 513, 1000])
    def test_matches_per_step_oracle(self, M, alpha):
        rng = np.random.default_rng(1000 * M + int(10 * alpha))
        grid = SpaceGrid(-1.0, 1.0, 16)
        mesh = TimeMesh(1.0, M)
        F = rng.uniform(0.0, 1.0, (M + 1, 16))
        problem = ProblemSpec(
            FracOrders(alpha, 0.6), grid, mesh, Field(grid, rng.uniform(0.0, 1.0, 16)),
            lambda x, t: F[int(round(t / mesh.tau))],
        )
        A = assemble_1d(grid, 0.6)
        got = solve(problem).states
        ref = l1_reference(problem, A)
        np.testing.assert_allclose(got, ref, rtol=1e-13, atol=0.0)
        assert got.min() >= 0.0

    @pytest.mark.parametrize("K", [1, 3, 7])
    @pytest.mark.parametrize("M", [1, 2, 3, 5, 15, 16, 17, 31, 32, 33, 48, 127, 128, 129, 255, 256, 257,
                                   300, 600, 1025])
    def test_l1_equation_at_every_step(self, M, K):
        # A pair (j, n) that the pulls and pushes miss or count twice breaks
        # the equation at the first step n that needs it.
        rng = np.random.default_rng(10 * M + K)
        grid, mesh = SpaceGrid(-1.0, 1.0, 8), TimeMesh(1.0, M)
        A = assemble_1d(grid, 0.6)
        u0, F = rng.uniform(0.0, 1.0, (K, 8)), rng.uniform(0.0, 1.0, (M + 1, K, 8))
        states = l1_stepper(0.4, 0.6, grid, mesh)(u0, F.copy())
        for k in range(K):
            sol = Solution(ProblemSpec(FracOrders(0.4, 0.6), grid, mesh, Field(grid, u0[k]), ZERO_F),
                           states[:, k], F[:, k])
            for n in range(1, M + 1):
                assert l1_residual(sol, A, n) <= 1e-12, (k, n)

    def test_residual_across_block_boundaries(self):
        problem = bump_problem(alpha=0.7, n=24, M=600, f_fn=lambda x, t: (1.0 - x**2) * (1.0 + t))
        A = assemble_1d(problem.grid, problem.orders.beta)
        sol = solve(problem)
        for k in (1, 255, 256, 257, 511, 512, 513, 600):
            assert l1_residual(sol, A, k) <= 1e-12, k

    def test_long_horizon_positivity(self):
        # Compact u0, f = 0, 8192 steps: the last state sums 8191 history
        # terms, most of them through 256-state products, and must still be
        # exactly nonnegative with no clamp anywhere.
        problem = bump_problem(n=32, M=8192, u0_fn=lambda x: np.maximum(0.0, 1.0 - 16.0 * x**2))
        A = assemble_1d(problem.grid, problem.orders.beta)
        sol = solve(problem)
        assert check_nonnegativity(sol.states, sol.forcing).violation == 0.0
        assert sol.states.min() >= 0.0
        assert l1_residual(sol, A, 8192) <= 1e-12


def m_matrix(n, alpha, beta, M):
    """b_0 I + A for the L1 weights of M steps on [0, 1] and n nodes of [-1, 1]."""
    b0 = l1_weights(alpha, 1.0 / M, 0)[0]
    return b0 * np.eye(n) + assemble_1d(SpaceGrid(-1.0, 1.0, n), beta).entries


def lapack_inverse(B):
    """Oracle inverse: Cholesky factor and LAPACK dpotri, mirrored to the full matrix."""
    G, info = lapack.dpotri(linalg.cholesky(B))
    assert info == 0
    return np.triu(G) + np.triu(G, 1).T


class TestInverseStep:
    """Each step of ``solve`` multiplies by (b_0 I + A)^{-1}, formed once in
    place by ``_inverse``, instead of doing two triangular solves with a
    Cholesky factor."""

    @pytest.mark.parametrize("alpha", [0.3, 0.9])
    @pytest.mark.parametrize("M", [1, 16, 256, 600])
    @pytest.mark.parametrize("n", [1, 16, 128])
    def test_matches_cho_solve_oracle(self, n, M, alpha):
        problem = random_problem(n, M, alpha, 0.6, seed=10 * n + M + int(10 * alpha))
        A = assemble_1d(problem.grid, 0.6)
        got = solve(problem).states
        np.testing.assert_allclose(got, cho_solve_reference(problem, A), rtol=1e-13, atol=0.0)
        assert got.min() >= 0.0

    @staticmethod
    def check_inverse(cases):
        # Positivity is exact because every entry of the inverse is a sum of
        # products of nonnegatives: no negative entry, and no -0.0.  The
        # inverse of an irreducible M-matrix is strictly positive, and so is
        # G.  B is symmetric Toeplitz, so G = JGJ, and the left half of G is
        # a copy of its right half, reversed.  G is the plain recursion's
        # inverse bit for bit up to n = 2; beyond, the two differ by the
        # rounding of either, at most 8 eps cond_1(B) max G (measured:
        # 2.9 eps).  The worst residual over the cases is held to
        # twice the worst of LAPACK's Cholesky-based inverse (case by case
        # both are a few ulps, and LAPACK's is exactly 0 for some 1 x 1
        # matrices).
        ours, theirs = [], []
        for n, alpha, beta, M in cases:
            B = m_matrix(n, alpha, beta, M)
            G = B.copy()
            _inverse(G)
            assert not np.any(G < 0.0), (alpha, M)
            assert not np.any(np.signbit(G)), (alpha, M)
            assert G.min() > 0.0, (alpha, M)
            k = n // 2
            assert n < 3 or np.array_equal(G[:, :k], G[::-1, ::-1][:, :k]), (alpha, M)
            ref = inverse_reference(B)
            cond = np.abs(B).sum(axis=0).max() * G.sum(axis=0).max()  # cond_1(B), as G >= 0
            assert n > 2 or np.array_equal(G, ref), (alpha, M)
            assert np.max(np.abs(G - ref)) <= 8 * np.finfo(float).eps * cond * G.max(), (alpha, M)
            eye = np.eye(n)
            ours.append(np.max(np.abs(B @ G - eye)))
            theirs.append(np.max(np.abs(B @ lapack_inverse(B) - eye)))
        assert max(ours) <= 2.0 * max(theirs), (ours, theirs)

    @pytest.mark.parametrize("beta", [0.05, 0.3, 0.5, 0.9, 0.99])
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 16, 17, 31, 128, 255])
    def test_sign_premise_of_exact_positivity(self, n, beta):
        self.check_inverse([(n, alpha, beta, M) for alpha in (0.05, 0.5, 0.99) for M in (1, 256, 65536)])

    def test_sign_premise_at_wide_grid(self):
        self.check_inverse([(2048, 0.05, 0.95, 4096)])

    @pytest.mark.parametrize("n", [3, 128, 255, 1024, 2048])
    def test_matches_plain_recursion_at_readme_orders(self, n):
        # At alpha = beta = 1/2 and M = 256, cond_1(B) is at most 154, and
        # copying the left half moves no entry of G by 1e-14 of max G.
        B = m_matrix(n, 0.5, 0.5, 256)
        G = B.copy()
        _inverse(G)
        assert np.max(np.abs(G - inverse_reference(B))) <= 1e-14 * G.max()

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 17, 128, 255, 1000])
    def test_recursion_is_the_plain_one_bit_for_bit(self, n):
        # Below the top, the 2 x 2 blocks in scalars take the numpy steps
        # of 1 x 1 leaves in the same order, reading B_12 as those do.
        for alpha, beta, M in ((0.5, 0.5, 256), (0.05, 0.99, 65536), (0.99, 0.05, 1)):
            B = m_matrix(n, alpha, beta, M)
            H = np.subtract(0.0, B)
            solver._sweep(H)
            assert np.array_equal(H, inverse_reference(B)), (alpha, beta, M)

    @pytest.mark.parametrize("n", [128, 255, 2048])
    def test_recursion_ends_at_two_by_two_blocks(self, n, monkeypatch):
        # With 1 x 1 leaves the recursion is entered 2n - 1 times; ending it
        # at 2 x 2 blocks in scalars brings that under n.
        calls = []
        sweep = solver._sweep

        def counting_sweep(H):
            calls.append(H.shape[0])
            sweep(H)

        monkeypatch.setattr(solver, "_sweep", counting_sweep)
        _inverse(m_matrix(n, 0.5, 0.5, 256))
        assert len(calls) < n, len(calls)

    def test_inverse_peak_memory_is_a_quarter_matrix(self):
        # In place: the scratch is one (n/2)^2 product block at a time, so
        # inverting the buffer allocates at most 0.3 x 8 n^2 bytes.
        n = 1024
        B = m_matrix(n, 0.5, 0.5, 256)
        tracemalloc.start()
        try:
            _inverse(B)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.3 * 8 * n * n, peak / (8 * n * n)

    def test_solve_holds_one_matrix(self):
        # The stepper adds b_0 to the diagonal of the A it assembles and
        # inverts that buffer: one n x n matrix plus the inversion's
        # quarter-matrix scratch, and no copy of A.
        n = 1024
        problem = bump_problem(n=n, M=8)
        tracemalloc.start()
        try:
            solve(problem)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * 8 * n * n, peak / (8 * n * n)


@pytest.mark.parametrize("M", [1, 256, 4096, 65536])
@pytest.mark.parametrize("alpha", [1e-12, 1e-9, 0.05, 0.5, 0.99, 1 - 1e-9, 1 - 1e-12])
def test_weight_premise_holds_or_stepper_raises(alpha, M):
    # Exact positivity rests on b_0 > 0, b_{j-1} >= b_j (j = 1..M) and
    # b_M >= 0, which the rounded weights can break at alpha near 0 or 1.
    b = l1_weights(alpha, 1.0 / M, M)
    bad = ([] if b[0] > 0.0 else [0]) + [j for j in range(1, M + 1) if not b[j - 1] >= b[j]]
    bad += [] if b[M] >= 0.0 else [M]
    mesh = TimeMesh(1.0, M)
    if not bad:
        l1_stepper(alpha, 0.5, ONE_NODE, mesh)
        return
    with pytest.raises(ValueError, match=rf"alpha={re.escape(repr(alpha))}, M={M} .* first at j={bad[0]}$"):
        l1_stepper(alpha, 0.5, ONE_NODE, mesh)


NEAR_0 = st.floats(np.finfo(float).tiny, 1e-6)  # a subnormal beta overflows t_0 / beta
NEAR_HALF = st.floats(0.5 - 1e-6, 0.5 + 1e-6)
NEAR_1 = st.floats(1.0 - 1e-6, 1.0, exclude_max=True)


@settings(max_examples=300, deadline=None)
@given(alpha=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), M=st.integers(1, 65536),
       beta=st.one_of(NEAR_0, NEAR_HALF, NEAR_1), n=st.integers(1, 2048))
@example(alpha=1e-12, M=65536, beta=0.5 + 5e-13, n=256)
@example(alpha=0.5, M=16, beta=1e-14, n=256)
@example(alpha=1.0 - 1e-12, M=65536, beta=1.0 - 1e-12, n=2048)
def test_sign_premises_hold_or_stepper_raises(alpha, M, beta, n):
    # Both signs of exact positivity, the weights' and the operator's, hold
    # over all of (0, 1) but at alpha or beta near 0, where their differences
    # shrink to rounding noise; there l1_stepper refuses with its ValueError.
    b = l1_weights(alpha, 1.0 / M, M)
    weights_ok = b[0] > 0.0 and bool(np.all(b[:-1] >= b[1:])) and b[M] >= 0.0
    grid = SpaceGrid(-1.0, 1.0, n)
    A = assemble_1d(grid, beta).entries
    operator_ok = bool(np.all(A[0, 1:] <= 0.0))
    assert A[0, 0] > 0.0 and np.isfinite(A).all()
    assert weights_ok or alpha < 1e-10, alpha
    assert operator_ok or beta < 1e-11, beta
    if weights_ok and operator_ok:
        return
    what = "L1 weights" if not weights_ok else "operator"
    with pytest.raises(ValueError, match=f"^{what} at "):
        l1_stepper(alpha, beta, grid, TimeMesh(1.0, M))


class TestStatesOverForcing:
    """The stepper writes the states over the forcing samples it is given
    and returns that array; solve gives it a copy of its samples."""

    def test_returns_its_forcing_argument(self):
        grid, mesh, u0, F = TestManyColumns.data(16, 3, 300, seed=11)
        states = l1_stepper(0.4, 0.6, grid, mesh)(u0, F)
        assert states is F
        assert np.array_equal(states[0], u0)

    def test_states_match_a_run_on_a_copy(self):
        grid, mesh, u0, F = TestManyColumns.data(16, 3, 300, seed=12)
        step = l1_stepper(0.4, 0.6, grid, mesh)
        copy = F.copy()
        assert np.array_equal(step(u0, F), step(u0, copy))
        assert np.array_equal(F, copy)

    def test_solve_keeps_the_samples(self):
        problem = random_problem(16, 300, 0.7, 0.6, seed=13)
        sol = solve(problem)
        assert np.array_equal(sol.forcing, problem.forcing_samples())
        assert np.array_equal(sol.states[0], problem.u0.values)

    def test_errors_leave_the_samples_untouched(self):
        grid, mesh, u0, F = TestManyColumns.data(16, 3, 8, seed=14)
        step = l1_stepper(0.5, 0.6, grid, mesh)
        bad = u0.copy()
        bad[1, 2] = np.inf
        kept = F.copy()
        with pytest.raises(ValueError, match="^u0 is inf at x="):
            step(bad, F)
        assert np.array_equal(F, kept)

    @pytest.mark.parametrize("shape", [(3, 1), (3, 16, 1)])
    def test_refuses_a_misshaped_u0(self, shape):
        # A (K, 1) u0 would broadcast over every node, a (K, n, 1) one
        # would fail inside numpy: both are refused before any write.
        grid, mesh, u0, F = TestManyColumns.data(16, 3, 8, seed=17)
        kept = F.copy()
        message = f"u0 must be float64 of shape (K, 16), got float64 of shape {shape}"
        with pytest.raises(ValueError, match=re.escape(message)):
            l1_stepper(0.5, 0.6, grid, mesh)(np.ones(shape), F)
        assert np.array_equal(F, kept)

    def test_refuses_a_u0_that_is_no_float64_array(self):
        # A numpy scalar, a nested list and an object array are refused with
        # the same ValueError as a misshaped u0, before any write.
        grid, mesh, u0, F = TestManyColumns.data(8, 1, 4, seed=18)
        step = l1_stepper(0.5, 0.6, grid, mesh)
        kept = F.copy()
        for bad, got in ((np.float64(1.0), "float64"), (u0.tolist(), "list"),
                         (u0.astype(object), "object of shape (1, 8)")):
            message = f"u0 must be float64 of shape (K, 8), got {got}"
            with pytest.raises(ValueError, match=re.escape(message) + "$"):
                step(bad, F)
            assert np.array_equal(F, kept)

    def test_refuses_samples_it_cannot_overwrite(self):
        grid, mesh, u0, F = TestManyColumns.data(16, 4, 8, seed=15)
        step = l1_stepper(0.5, 0.6, grid, mesh)
        for bad, K, got in ((F.astype(np.float32), 4, "float32 of shape (9, 4, 16)"),
                            (F[:, ::2], 2, "float64 of shape (9, 2, 16)"),
                            (F.transpose(0, 2, 1).copy(), 4, "float64 of shape (9, 16, 4)"),
                            (F.tolist(), 4, "list")):
            with pytest.raises(ValueError, match="^forcing must be float64 of shape .*, got " + re.escape(got) + "$"):
                step(u0[:K], bad)
        # A column slice reshapes to rows without a copy: it is overwritten.
        col = step(u0[1:2], F[:, 1:2])
        assert np.shares_memory(col, F)


    @pytest.mark.parametrize("K", [1, 7])
    def test_temporaries_past_one_block(self, K):
        # At M = 512 step 256 pushes its 256 states into the next 256 rows.
        # Every push runs in pieces of _BLOCK/2 / K rows, so the peak is the
        # (M+1) K n-byte mask of the finite check, or one product of at most
        # _BLOCK/2 rows of n values and the operands copied for it.  One
        # product over all 256 rows peaked at 1.8 MB at K = 7, and np.dot
        # in place of @ for the 256-state products, which copies the
        # reversed Toeplitz operand, at 396 kB at K = 1.
        n, M = 128, 512
        grid, mesh, u0, F = TestManyColumns.data(n, K, M, seed=16)
        step = l1_stepper(0.4, 0.6, grid, mesh)
        tracemalloc.start()
        try:
            step(u0, F)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= (M + 1) * K * n + 2 * 8 * (_BLOCK // 2) * n, peak


class TestOperatorSignPremise:
    """Exact positivity needs every off-diagonal entry of A to be <= 0.
    Formed from power increments, they keep that sign at and next to
    beta = 1/2; rounding breaks it only at beta near 0, where they shrink
    to rounding noise."""

    def test_positive_off_diagonal_refused(self, monkeypatch):
        def assemble_with_positive_entries(grid, beta):
            A = assemble_1d(grid, beta)
            i, j = np.indices(A.entries.shape)
            A.entries[abs(i - j) == 5] = 1e-17
            return A

        monkeypatch.setattr("tsfrac.solver.assemble_1d", assemble_with_positive_entries)
        grid = SpaceGrid(-1.0, 1.0, 256)
        beta = 0.5 + 5e-13
        with pytest.raises(ValueError) as info:
            l1_stepper(0.5, beta, grid, TimeMesh(1.0, 16))
        assert str(info.value) == (f"operator at beta={beta!r}, n=256 has a positive off-diagonal entry, "
                                   "first at distance d=5")

    @pytest.mark.parametrize("n", [16, 128, 256])
    def test_half_is_accepted(self, n):
        grid = SpaceGrid(-1.0, 1.0, n)
        assert assemble_1d(grid, 0.5).entries[0, 1:].max() <= 0.0
        l1_stepper(0.5, 0.5, grid, TimeMesh(1.0, 16))


class TestManyColumns:
    """The stepper that ``l1_stepper`` builds steps K problems at once: each
    step multiplies the K right-hand sides by the inverse in one
    matrix-matrix product, as for one column, and the history sums run K
    times wider."""

    @staticmethod
    def data(n, K, M, seed):
        rng = np.random.default_rng(seed)
        grid = SpaceGrid(-1.0, 1.0, n)
        return grid, TimeMesh(1.0, M), rng.uniform(0.0, 1.0, (K, n)), rng.uniform(0.0, 1.0, (M + 1, K, n))

    @pytest.mark.parametrize("M", [1, 2, 3, 255, 256, 257, 600])
    @pytest.mark.parametrize("K", [2, 7])
    @pytest.mark.parametrize("n", [1, 16, 128])
    def test_columns_match_one_column_solves(self, n, K, M):
        grid, mesh, u0, F = self.data(n, K, M, seed=1000 * n + 10 * K + M)
        step = l1_stepper(0.4, 0.6, grid, mesh)
        got = step(u0, F.copy())
        assert got.shape == (M + 1, K, n)
        for k in range(K):
            one = step(u0[k : k + 1], F[:, k : k + 1])
            np.testing.assert_allclose(got[:, k], one[:, 0], rtol=1e-13, atol=0.0)
        assert got.min() >= 0.0

    def test_one_column_is_solve(self):
        problem = random_problem(16, 300, 0.7, 0.6, seed=3)
        got = l1_stepper(0.7, 0.6, problem.grid, problem.mesh)(problem.u0.values[None],
                                                               problem.forcing_samples()[:, None])
        assert np.array_equal(got[:, 0], solve(problem).states)

    def test_non_finite_data_in_a_later_column(self):
        grid, mesh, u0, F = self.data(16, 3, 8, seed=5)
        x = grid.nodes()
        step = l1_stepper(0.5, 0.6, grid, mesh)
        bad = u0.copy()
        bad[2, 3] = np.nan
        with pytest.raises(ValueError) as info:
            step(bad, F)
        assert str(info.value) == f"u0 is nan at x={float(x[3])!r}"
        bad = F.copy()
        bad[4, 1, 7] = -np.inf
        with pytest.raises(ValueError) as info:
            step(u0, bad)
        t = float(mesh.times()[4])
        assert str(info.value) == f"forcing sample is -inf at (x={float(x[7])!r}, t={t!r})"


class TestNonFiniteData:
    """The step checks no finiteness itself: ``solve`` checks its data once
    before the first step and its states once after the last step."""

    def test_nan_in_one_forcing_row(self):
        f = lambda x, t: np.where((x == x[4]) & (t == 0.5), np.nan, 1.0)
        problem = bump_problem(n=16, M=16, f_fn=f)
        with pytest.raises(ValueError, match=r"forcing sample is nan at \(x=.*, t=0\.5\)"):
            solve(problem)

    def test_inf_in_u0(self):
        problem = bump_problem(n=16, M=8, u0_fn=lambda x: np.where(x == x[3], np.inf, 1.0))
        with pytest.raises(ValueError, match="u0 is inf"):
            solve(problem)

    def test_overflow(self):
        problem = bump_problem(n=16, M=12, f_fn=lambda x, t: np.full_like(x, 1.7e308))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="states overflow"):
                solve(problem)


class TestForcingSamples:
    """``forcing_samples`` stores each call's result as one row of the
    (M+1, n) samples, broadcast over x."""

    def test_scalar_forcing_broadcasts_over_x(self):
        problem = bump_problem(n=8, M=4, f_fn=lambda x, t: 2.0 * t)
        expected = np.repeat(2.0 * problem.mesh.times()[:, None], 8, axis=1)
        assert np.array_equal(problem.forcing_samples(), expected)
        problem = bump_problem(n=8, M=4, f_fn=lambda x, t: 3)
        assert np.array_equal(problem.forcing_samples(), np.full((5, 8), 3.0))

    def test_vector_forcing_rows(self):
        fn = lambda x, t: (1.0 - x**2) * np.cos(3.0 * t)
        problem = bump_problem(n=8, M=4, f_fn=fn)
        x = problem.grid.nodes()
        expected = np.stack(
            [np.broadcast_to(np.asarray(fn(x, float(t)), dtype=float), x.shape) for t in problem.mesh.times()]
        )
        got = problem.forcing_samples()
        assert got.dtype == np.float64 and got.shape == (5, 8)
        assert np.array_equal(got, expected)

    def test_wrong_length_raises(self):
        problem = bump_problem(n=8, M=4, f_fn=lambda x, t: np.ones(3))
        with pytest.raises(ValueError, match="broadcast"):
            problem.forcing_samples()


class TestWeakResidual:
    @staticmethod
    def _bump_psi(grid):
        x = grid.nodes()
        return Field(grid, np.maximum(0.0, 1.0 - 9.0 * x**2) ** 2)

    def test_zero_test_function(self):
        problem = bump_problem(M=16, n=16)
        sol = solve(problem)
        psi = Field(problem.grid, np.zeros(16))
        assert weak_residual(sol, psi, 8, 8) == 0.0

    def test_negative_test_function_rejected(self):
        problem = bump_problem(M=16, n=16)
        sol = solve(problem)
        with pytest.raises(ValueError):
            weak_residual(sol, Field(problem.grid, -np.ones(16)), 8, 8)
        with pytest.raises(ValueError, match="m must be a positive integer, got 0"):
            weak_residual(sol, Field(problem.grid, np.ones(16)), 0, 8)

    def test_self_convergence_for_solved_problem(self):
        f = lambda x, t: 0.5 * (1.0 + np.cos(np.pi * x)) * np.exp(-t)
        resids = []
        for M, n in ((32, 24), (64, 48), (128, 96)):
            problem = bump_problem(M=M, n=n, f_fn=f)
            sol = solve(problem)
            resids.append(abs(weak_residual(sol, self._bump_psi(problem.grid), 64, M // 2)))
        assert resids[0] > resids[1] > resids[2]

    def test_supersolution_residual_positive(self):
        # solve with f + 1, then test the weak form against f alone
        f = lambda x, t: 0.5 * (1.0 + np.cos(np.pi * x))
        problem = bump_problem(M=64, n=48, f_fn=lambda x, t: f(x, t) + 1.0)
        sol = solve(problem)
        tested = Solution(problem=problem, states=sol.states, forcing=sol.forcing - 1.0)
        r = weak_residual(tested, self._bump_psi(problem.grid), 64, 32)
        assert r > 0.1  # roughly int psi * (h_m * 1) for large m

    def test_matches_per_node_convolutions(self):
        # one product over all nodes sums in another order than np.convolve;
        # the residual is a difference of O(1) terms, so the bound is absolute
        f = lambda x, t: 0.5 * (1.0 + np.cos(np.pi * x)) * np.exp(-t)
        problem = bump_problem(M=64, n=48, f_fn=f)
        sol = solve(problem)
        psi = self._bump_psi(problem.grid)
        for m, n in ((8, 1), (64, 32), (16, 63)):
            want = weak_residual_reference(sol, psi, m, n)
            assert abs(weak_residual(sol, psi, m, n) - want) <= 1e-13

    def test_index_bounds(self):
        problem = bump_problem(M=16, n=8)
        sol = solve(problem)
        psi = Field(problem.grid, np.ones(8))
        with pytest.raises(ValueError):
            weak_residual(sol, psi, 8, 16)  # forward difference needs n < M
        with pytest.raises(ValueError):
            weak_residual(sol, psi, 8, 0)


class TestSerialization:
    def test_csv_layout(self):
        problem = bump_problem(M=2, n=3)
        sol = solve(problem)
        lines = solution_to_csv(sol).strip().split("\n")
        assert lines[0] == "t,x,u"
        assert len(lines) == 1 + 3 * 3
        t, x, u = (float(v) for v in lines[1].split(","))
        assert (t, x) == (0.0, problem.grid.nodes()[0])
        assert u == pytest.approx(sol.states[0, 0])

    def test_csv_matches_cell_by_cell_reference(self):
        # every cell formatted from the numpy arrays, one row at a time
        sol = solve(bump_problem(M=16, n=9))
        times, xs = sol.problem.mesh.times(), sol.problem.grid.nodes()
        ref = ["t,x,u"] + [
            f"{t:.17g},{x:.17g},{sol.states[nt, i]:.17g}"
            for nt, t in enumerate(times) for i, x in enumerate(xs)
        ]
        assert solution_to_csv(sol) == "\n".join(ref) + "\n"

    def test_metadata_and_hash_stability(self):
        problem = bump_problem(M=2, n=3)
        sol = solve(problem)
        meta = solution_metadata(sol, "deadbeef")
        assert meta["alpha"] == 0.5 and meta["M"] == 2 and meta["config_hash"] == "deadbeef"
        h1 = config_hash({"a": 1, "b": [1, 2]})
        h2 = config_hash({"b": [1, 2], "a": 1})
        assert h1 == h2 and len(h1) == 64
