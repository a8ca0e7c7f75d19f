"""Fractional Laplacian tests.

The Getoor profile (1-x^2)^beta on (-1,1) has a constant fractional
Laplacian inside the interval; the constant is confirmed independently by
the adaptive-quadrature oracle before the matrix is held to it.  The frozen
normalization value is exact: c(1/2) = 1/pi in 1-D.
"""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from scipy.special import gamma

from tsfrac.fraclap import (
    Field,
    FracLapMatrix,
    SpaceGrid,
    assemble_1d,
    bilinear_a,
    normalization_constant,
)

from oracles import quadrature_reference, sign_split


def getoor_constant(beta: float) -> float:
    """2^(2b) Gamma(1+b) Gamma(b+1/2) / Gamma(1/2): the flat interior value."""
    return 2.0 ** (2 * beta) * gamma(1 + beta) * gamma(beta + 0.5) / gamma(0.5)


class TestNormalizationConstant:
    def test_half_order_1d_is_inv_pi(self):
        assert normalization_constant(0.5) == pytest.approx(1.0 / np.pi, rel=1e-14)

    def test_vanishes_linearly_as_beta_to_zero(self):
        vals = [normalization_constant(b) / b for b in (1e-3, 1e-5, 1e-7)]
        # remaining factor tends to the finite limit Gamma(1/2)/(sqrt(pi) Gamma(1)) = 1
        for v in vals:
            assert v == pytest.approx(1.0, rel=5e-2)
        assert abs(vals[2] - 1.0) < abs(vals[0] - 1.0)

    def test_domain_errors(self):
        for bad in (0.0, 1.0, -0.2, 1.3):
            with pytest.raises(ValueError):
                normalization_constant(bad)


class TestGridAndField:
    def test_grid_geometry(self):
        g = SpaceGrid(-1.0, 1.0, 3)
        assert g.h == pytest.approx(0.5)
        np.testing.assert_allclose(g.nodes(), [-0.5, 0.0, 0.5])

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            SpaceGrid(1.0, -1.0, 4)
        with pytest.raises(ValueError):
            SpaceGrid(0.0, 1.0, 0)
        # infinite ends give nan nodes; finite ends 2e308 apart give h = inf;
        # ends 1e-200 apart give h^2 = 0, which assembly divides by
        for a, b in ((-math.inf, 1.0), (0.0, math.inf), (-math.inf, math.inf), (-1e308, 1e308)):
            with pytest.raises(ValueError, match=r"^the width b - a of \[.*\] overflows$"):
                SpaceGrid(a, b, 4)
        spacing = r"^with n=4 the spacing h = \(b - a\)/\(n \+ 1\) = 2e-201 squares to 0\.0$"
        with pytest.raises(ValueError, match=spacing):
            SpaceGrid(0.0, 1e-200, 4)

    def test_field_shape_checked(self):
        g = SpaceGrid(0.0, 1.0, 4)
        with pytest.raises(ValueError):
            Field(g, np.ones(5))


class TestAssembly:
    @pytest.mark.parametrize("beta", [0.1, 0.3, 0.5, 0.7, 0.9])
    @pytest.mark.parametrize("n", [64, 256])
    def test_m_matrix_invariants(self, beta, n):
        A = assemble_1d(SpaceGrid(-1.0, 1.0, n), beta).entries
        offdiag = A - np.diag(np.diag(A))
        assert np.array_equal(A, A.T)  # exact, by construction
        assert np.all(np.diag(A) > 0.0)
        assert np.all(offdiag <= 0.0)
        assert np.all(A.sum(axis=1) > 0.0)

    def test_positive_definite(self):
        rng = np.random.default_rng(21)
        for beta in (0.2, 0.6):
            A = assemble_1d(SpaceGrid(-1.0, 1.0, 64), beta).entries
            for _ in range(100):
                u = rng.standard_normal(64)
                assert u @ A @ u > 0.0

    def test_zero_in_zero_out(self):
        g = SpaceGrid(-1.0, 1.0, 32)
        A = assemble_1d(g, 0.4)
        out = A.entries @ np.zeros(32)
        assert np.all(out == 0.0)

    def test_apply_linearity(self):
        rng = np.random.default_rng(22)
        g = SpaceGrid(-1.0, 1.0, 48)
        A = assemble_1d(g, 0.6)
        u = rng.standard_normal(48)
        v = rng.standard_normal(48)
        lhs = A.entries @ (2.0 * u - 3.0 * v)
        rhs = 2.0 * (A.entries @ u) - 3.0 * (A.entries @ v)
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)

    def test_sign_at_interior_negative_minimum(self):
        # M-matrix rows: a strictly negative minimum forces (Au)_i < 0
        rng = np.random.default_rng(23)
        g = SpaceGrid(-1.0, 1.0, 64)
        A = assemble_1d(g, 0.5)
        checked = 0
        for _ in range(500):
            u = rng.standard_normal(64)
            i = int(np.argmin(u))
            if u[i] < 0.0:
                assert (A.entries @ u)[i] < 0.0
                checked += 1
        assert checked > 400

    def test_peak_memory_is_one_matrix(self):
        # A is one copy of one window view: no n x n index array or other
        # temporary beside the 8 n^2-byte result
        n = 1024
        g = SpaceGrid(-1.0, 1.0, n)
        tracemalloc.start()
        try:
            assemble_1d(g, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * 8 * n * n

    def test_single_node_grid(self):
        for beta in (0.1, 0.5, 0.9):
            A = assemble_1d(SpaceGrid(-1.0, 1.0, 1), beta).entries
            assert A.shape == (1, 1)
            assert A[0, 0] > 0.0

    @pytest.mark.parametrize("beta", [0.1, 0.3, 0.5, 0.7, 0.9])
    @pytest.mark.parametrize("n", [1, 2, 3, 64, 257])
    def test_toeplitz_and_shift_invariant(self, beta, n):
        # every entry, the diagonal included, depends only on |i - j| and h
        A = assemble_1d(SpaceGrid(-1.0, 1.0, n), beta).entries
        i, j = np.indices((n, n))
        assert np.array_equal(A, A[0, np.abs(i - j)])
        assert np.array_equal(A, assemble_1d(SpaceGrid(999.0, 1001.0, n), beta).entries)

    @pytest.mark.parametrize("beta", [0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99,
                                      0.5 - 5e-13, 0.5 + 5e-13, 0.5 - 1e-12, 0.5 + 1e-12, 0.5 + 1e-11])
    @pytest.mark.parametrize("n", [16, 128, 2048])
    def test_diagonal_against_mpmath(self, beta, n):
        # c (2 w_near / h^2 + (h/2)^(-2 beta) / beta - H_0): the near field,
        # the whole line's kernel mass outside the h/2 ball, and the node's
        # own hat weight H_0 = 2 int_{h/2}^h r^(-1-2 beta) (1 - r/h) dr
        with mpmath.workdps(40):
            b, h = mpmath.mpf(beta), mpmath.mpf(SpaceGrid(-1.0, 1.0, n).h)
            c = b * 2 ** (2 * b) * mpmath.gamma(b + 0.5) / (mpmath.sqrt(mpmath.pi) * mpmath.gamma(1 - b))
            w_near = (h / 2) ** (2 - 2 * b) / (2 - 2 * b)
            h0 = 2 * mpmath.quad(lambda r: r ** (-1 - 2 * b) * (1 - r / h), [h / 2, h])
            want = float(c * (2 * w_near / h**2 + (h / 2) ** (-2 * b) / b - h0))
        A = assemble_1d(SpaceGrid(-1.0, 1.0, n), beta).entries
        assert A[0, 0] == pytest.approx(want, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("beta", [0.1, 0.3, 0.5, 0.7, 0.9, 0.5 - 5e-13, 0.5 + 1e-12])
    def test_far_field_against_mpmath(self, beta):
        # -c times the kernel integrated against node j's hat outside the
        # h/2 ball (plus the near-field second difference at d = 1)
        n = 2048
        grid = SpaceGrid(-1.0, 1.0, n)
        A = assemble_1d(grid, beta).entries
        with mpmath.workdps(30):
            b, h = mpmath.mpf(beta), mpmath.mpf(grid.h)
            c = b * 2 ** (2 * b) * mpmath.gamma(b + 0.5) / (mpmath.sqrt(mpmath.pi) * mpmath.gamma(1 - b))
            for d in (1, 2, 3, 10, n // 2, n - 1):
                lo, mid, hi = max(d - 1, 0.5) * h, d * h, (d + 1) * h
                hat = mpmath.quad(lambda r: r ** (-1 - 2 * b) * (r / h - (d - 1)), [lo, mid])
                hat += mpmath.quad(lambda r: r ** (-1 - 2 * b) * ((d + 1) - r / h), [mid, hi])
                near = (h / 2) ** (2 - 2 * b) / (2 - 2 * b) / h**2 if d == 1 else 0
                want = float(-c * (hat + near))
                assert A[0, d] == pytest.approx(want, rel=1e-11, abs=0.0), d

    def test_beta_outside_unit_interval_rejected(self):
        g = SpaceGrid(-1.0, 1.0, 8)
        u = Field(g, np.ones(8))
        for bad in (0.0, 1.0, -0.2, 1.3):
            with pytest.raises(ValueError, match="beta"):
                assemble_1d(g, bad)
            with pytest.raises(ValueError, match="beta"):
                bilinear_a(u, u, bad)


class TestGetoor:
    def test_oracle_confirms_flat_value(self):
        beta = 0.5
        prof = lambda y: np.sqrt(max(0.0, 1.0 - y * y))
        for x0 in (0.0, 0.25, -0.5):
            ref = quadrature_reference(prof, x0, beta, -1.0, 1.0)
            assert ref == pytest.approx(getoor_constant(beta), rel=1e-8)

    @pytest.mark.parametrize("beta", [0.25, 0.5, 0.75])
    def test_matrix_matches_constant_interior(self, beta):
        n = 512
        g = SpaceGrid(-1.0, 1.0, n)
        A = assemble_1d(g, beta)
        x = g.nodes()
        Au = A.entries @ (1.0 - x**2) ** beta
        err = np.max(np.abs(Au[np.abs(x) <= 0.5] - getoor_constant(beta)))
        assert err < 2e-2

    def test_error_decreases_with_refinement(self):
        beta = 0.5
        errs = []
        for n in (128, 256, 512, 1024):
            g = SpaceGrid(-1.0, 1.0, n)
            A = assemble_1d(g, beta)
            x = g.nodes()
            Au = A.entries @ np.sqrt(1.0 - x**2)
            errs.append(np.max(np.abs(Au[np.abs(x) <= 0.5] - 1.0)))
        assert all(e0 > e1 for e0, e1 in zip(errs, errs[1:]))


class TestBilinearForm:
    def test_symmetric(self):
        rng = np.random.default_rng(31)
        g = SpaceGrid(-1.0, 1.0, 40)
        u = Field(g, rng.standard_normal(40))
        v = Field(g, rng.standard_normal(40))
        assert bilinear_a(u, v, 0.5) == pytest.approx(bilinear_a(v, u, 0.5), rel=1e-14)

    def test_energy_positive_unless_zero(self):
        rng = np.random.default_rng(32)
        g = SpaceGrid(-1.0, 1.0, 40)
        assert bilinear_a(Field(g, np.zeros(40)), Field(g, np.zeros(40)), 0.5) == 0.0
        for _ in range(50):
            u = Field(g, rng.standard_normal(40))
            assert bilinear_a(u, u, 0.5) > 0.0
        # even a constant has positive energy: the rows of A sum to > 0
        c = Field(g, np.ones(40))
        assert bilinear_a(c, c, 0.5) > 0.0

    def test_split_parts_anticorrelated(self):
        rng = np.random.default_rng(33)
        g = SpaceGrid(-1.0, 1.0, 48)
        for _ in range(200):
            u = Field(g, rng.standard_normal(48))
            up, um = sign_split(u)
            assert bilinear_a(up, um, 0.6) <= 0.0
            if np.any(um.values > 0.0):
                assert bilinear_a(um, um, 0.6) > 0.0

    def test_is_energy_of_assembled_matrix(self):
        # one discretization: a(u, v) is h v^T A u of the matrix the solver uses
        for beta in (0.25, 0.5):
            for n in (64, 128, 256, 512):
                g = SpaceGrid(-1.0, 1.0, n)
                A = assemble_1d(g, beta).entries
                x = g.nodes()
                u = Field(g, np.sin(np.pi * (x + 0.3)) * (1.0 - x**2))
                v = Field(g, (0.5 + x) * np.cos(0.5 * np.pi * x) * (1.0 - x**2))
                ref = g.h * (v.values @ (A @ u.values))
                assert bilinear_a(u, v, beta) == pytest.approx(ref, rel=1e-15)

    def test_grid_mismatch(self):
        u = Field(SpaceGrid(-1.0, 1.0, 8), np.ones(8))
        v = Field(SpaceGrid(0.0, 1.0, 8), np.ones(8))
        with pytest.raises(ValueError):
            bilinear_a(u, v, 0.5)


class TestSignSplit:
    def test_nonnegative_passthrough(self):
        g = SpaceGrid(0.0, 1.0, 4)
        u = Field(g, np.array([0.0, 1.0, 2.0, 3.0]))
        up, um = sign_split(u)
        np.testing.assert_array_equal(up.values, u.values)
        np.testing.assert_array_equal(um.values, 0.0 * u.values)

    def test_single_negative_node(self):
        g = SpaceGrid(0.0, 1.0, 3)
        u = Field(g, np.array([1.0, -3.0, 2.0]))
        up, um = sign_split(u)
        assert um.values[1] == 3.0
        assert up.values[1] == 0.0

    def test_reconstruction_and_complementarity(self):
        rng = np.random.default_rng(41)
        g = SpaceGrid(-2.0, 2.0, 33)
        u = Field(g, rng.standard_normal(33))
        up, um = sign_split(u)
        np.testing.assert_array_equal(up.values - um.values, u.values)
        assert np.all(up.values * um.values == 0.0)
        assert np.all(up.values >= 0.0) and np.all(um.values >= 0.0)
