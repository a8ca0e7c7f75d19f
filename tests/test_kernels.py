"""Kernel family tests.

Frozen oracle values were computed independently (mpmath at 30 digits,
cross-checked against scipy.special) before the implementations were
written; the Mittag-Leffler evaluator is additionally checked against the
closed form E_{1/2}(-x) = exp(x^2) erfc(x) in both of its regimes via
scipy.special.erfcx, and against a committed mpmath table on a dense scan.
"""

import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import erfcx

from tsfrac.fraclap import normalization_constant
from tsfrac.kernels import (
    TimeMesh,
    convolve,
    g_cell_integral,
    g_kernel,
    h_kernel,
    mittag_leffler,
    monotone_regularized_kernel,
    regularized_kernel,
)
from tsfrac.solver import FracOrders
from tsfrac.timefrac import l1_weights

SCAN_ALPHAS = (0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 0.999)
ML_REFERENCE = Path(__file__).resolve().parent / "data" / "ml_reference.csv"

INV_SQRT_PI = 0.5641895835477563  # 1/sqrt(pi), mpmath 30 dps
G_03_AT_2 = 0.20576901592641537  # 2^(-0.7)/Gamma(0.3), mpmath 30 dps
ML_HALF_AT_M1 = 0.4275835761558070  # e * erfc(1), mpmath 30 dps
ONE_MINUS_EXP_M4 = 0.9816843611112658


class TestGKernel:
    def test_half_order_at_one(self):
        assert g_kernel(0.5, 1.0) == pytest.approx(INV_SQRT_PI, rel=1e-14)

    def test_frozen_value(self):
        assert g_kernel(0.3, 2.0) == pytest.approx(G_03_AT_2, rel=1e-14)

    def test_positivity(self):
        t = np.geomspace(1e-8, 10.0, 50)
        for gamma in (0.1, 0.5, 0.9):
            assert np.all(g_kernel(gamma, t) > 0.0)

    def test_divergence_at_origin(self):
        assert g_kernel(0.4, 1e-300) > 1e100

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            g_kernel(0.5, 0.0)
        with pytest.raises(ValueError):
            g_kernel(0.5, -1.0)
        with pytest.raises(ValueError):
            g_kernel(0.0, 1.0)
        with pytest.raises(ValueError):
            g_kernel(1.5, 1.0)

    def test_cell_integral_matches_quadrature(self):
        for gamma in (0.3, 0.5, 0.9):
            ref, _ = quad(lambda s: g_kernel(gamma, s), 0.1, 0.7)
            assert g_cell_integral(gamma, 0.1, 0.7) == pytest.approx(ref, rel=1e-10)
        # exact down to the singular endpoint
        ref, _ = quad(lambda s: g_kernel(0.3, s), 0.0, 0.25, points=[0.0])
        assert g_cell_integral(0.3, 0.0, 0.25) == pytest.approx(ref, rel=1e-8)


class TestSemigroup:
    @staticmethod
    def _disc_power_conv(a, b, t, M):
        # symmetric split: the singular factor carries exact cell masses,
        # the smooth factor is frozen at cell midpoints
        def half(sing, smooth):
            edges = np.linspace(0.0, t / 2, M // 2 + 1)
            mids = (edges[:-1] + edges[1:]) / 2
            mass = np.array(
                [g_cell_integral(sing, lo, hi) for lo, hi in zip(edges[:-1], edges[1:])]
            )
            return float(mass @ g_kernel(smooth, t - mids))

        return half(a, b) + half(b, a)

    def test_half_orders_compose_to_identity_kernel(self):
        # g_{1/2} * g_{1/2} = g_1 = 1; error halves or better per doubling
        errs = []
        for M in (64, 128, 256, 512):
            errs.append(abs(self._disc_power_conv(0.5, 0.5, 1.0, M) - 1.0))
        for e0, e1 in zip(errs, errs[1:]):
            assert e1 < e0 / 2.0


class TestHKernel:
    def test_value_at_zero(self):
        assert h_kernel(1, 0.0) == pytest.approx(1.0, abs=0)

    def test_unit_mass(self):
        for m in (1, 7):
            mass, _ = quad(lambda s: h_kernel(m, s), 0.0, np.inf)
            assert mass == pytest.approx(1.0, rel=1e-10)

    def test_convolution_with_one_closed_form(self):
        # (h_m * 1)(t) = 1 - exp(-m t); exercises the convolution routine
        m, M, T = 4, 4096, 1.0
        mesh = TimeMesh(T, M)
        k = h_kernel(m, mesh.times())
        ones = np.ones(M + 1)
        out = convolve(k, ones, mesh.tau)
        assert out[-1] == pytest.approx(ONE_MINUS_EXP_M4, abs=1e-3)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            h_kernel(0, 1.0)
        with pytest.raises(ValueError):
            h_kernel(2, -0.5)
        # regularized_kernel checks m with h_kernel's message
        with pytest.raises(ValueError, match="m must be a positive integer, got 0"):
            regularized_kernel(0.5, 0, TimeMesh(1.0, 4))


class TestRegularizedKernel:
    def test_nonnegative_on_lattice(self):
        for M in (256, 16384):
            mesh = TimeMesh(1.0, M)
            for alpha in (0.1, 0.3, 0.5, 0.7, 0.9):
                for m in (1, 4, 16, 64):
                    k = regularized_kernel(alpha, m, mesh)
                    assert np.all(k >= 0.0), (M, alpha, m)

    @pytest.mark.parametrize("M", [256, 8192])
    def test_recurrence_matches_convolution(self, M):
        # The O(M) recurrence against the convolution of the per-cell masses
        # of g_{1-alpha} with h_m at the cell midpoints, over the default
        # m_ladder: the same sum in another order.
        mesh = TimeMesh(1.0, M)
        mids = (np.arange(M) + 0.5) * mesh.tau
        for alpha in (0.1, 0.5, 0.9, 0.99):
            gmass = mesh.tau * g_kernel(1.0 - alpha, mids)
            gmass[0] = g_cell_integral(1.0 - alpha, 0.0, mesh.tau)
            for m in (4, 16, 64, 256):
                ref = np.convolve(gmass, h_kernel(m, mids))[:M]
                k = regularized_kernel(alpha, m, mesh)
                assert k[0] == 0.0
                assert np.max(np.abs(k[1:] - ref) / ref) <= 1e-13, (alpha, m)

    def test_zero_at_origin(self):
        k = regularized_kernel(0.5, 8, TimeMesh(1.0, 64))
        assert k[0] == 0.0
        assert np.all(np.isfinite(k))

    def test_l1_distance_decreases_along_m(self):
        mesh = TimeMesh(1.0, 4096)
        tau = mesh.tau
        t = mesh.times()
        for alpha in (0.25, 0.5, 0.75):
            g = g_kernel(1.0 - alpha, t[1:])
            dists = []
            for m in (4, 16, 64, 256):
                k = regularized_kernel(alpha, m, mesh)
                body = tau * np.sum(np.abs(g - k[1:]))
                head = g_cell_integral(1.0 - alpha, 0.0, tau) - 0.5 * tau * k[1]
                dists.append(body + abs(head))
            assert all(d0 > d1 for d0, d1 in zip(dists, dists[1:])), (alpha, dists)

    def test_pointwise_limit_at_large_m(self):
        # high-resolution quadrature: g_{1-alpha,m}(1) -> g_{1-alpha}(1)
        k = regularized_kernel(0.5, 1024, TimeMesh(1.0, 2**16))
        assert k[-1] == pytest.approx(INV_SQRT_PI, rel=0.02)

    def test_zero_step_mesh_rejected(self):
        for M in (0, -1):
            with pytest.raises(ValueError, match="at least one time step"):
                TimeMesh(1.0, M)

    def test_import_leaves_scipy_signal_unloaded(self):
        # direct convolution only: a cold `import tsfrac` must not pay for scipy.signal
        src = str(Path(__file__).resolve().parent.parent / "src")
        code = "import sys, tsfrac; print('scipy.signal' in sys.modules)"
        proc = subprocess.run(
            [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert proc.stdout.strip() == "False"


class TestMonotoneRegularizedKernel:
    def test_samples_nonnegative_and_strictly_decreasing(self):
        mesh = TimeMesh(1.0, 256)
        for alpha in (0.1, 0.3, 0.5, 0.7, 0.9):
            for m in (1, 4, 16, 64, 256):
                k = monotone_regularized_kernel(alpha, m, mesh)
                assert np.all(k >= 0.0)
                assert np.all(np.diff(k) < 0.0), (alpha, m)

    def test_value_at_origin_is_m(self):
        k = monotone_regularized_kernel(0.3, 17, TimeMesh(1.0, 32))
        assert k[0] == 17.0

    def test_pointwise_limit_at_large_m(self):
        k = monotone_regularized_kernel(0.5, 1024, TimeMesh(1.0, 16))
        assert k[-1] == pytest.approx(INV_SQRT_PI, rel=0.05)


class TestConvolve:
    def test_zero_kernel(self):
        ts = np.arange(5.0)
        z = np.zeros(5)
        assert np.all(convolve(z, ts, 0.1) == 0.0)

    def test_ones_give_left_rectangle_ramp(self):
        tau, M = 0.25, 8
        ones = np.ones(M + 1)
        out = convolve(ones, ones, tau)
        np.testing.assert_allclose(out, tau * np.arange(M + 1), rtol=0, atol=1e-15)

    def test_causality(self):
        rng = np.random.default_rng(0)
        k = rng.standard_normal(33)
        u1 = rng.standard_normal(33)
        u2 = u1.copy()
        u2[20:] += 5.0
        out1 = convolve(k, u1, 0.1)
        out2 = convolve(k, u2, 0.1)
        np.testing.assert_array_equal(out1[:20], out2[:20])

    def test_linearity_to_roundoff(self):
        rng = np.random.default_rng(1)
        tau = 0.05
        k = rng.standard_normal(65)
        u = rng.standard_normal(65)
        v = rng.standard_normal(65)
        a, b = 1.7, -0.3
        lhs = convolve(k, a * u + b * v, tau)
        rhs = a * convolve(k, u, tau) + b * convolve(k, v, tau)
        np.testing.assert_allclose(lhs, rhs, atol=1e-13)

    def test_mismatch_errors(self):
        with pytest.raises(ValueError):
            convolve(np.ones(4), np.ones(5), 0.1)

    def test_input_refusals(self):
        with pytest.raises(ValueError, match="tau must be positive"):
            convolve(np.ones(3), np.ones(3), 0.0)
        with pytest.raises(ValueError, match="nonempty 1-D sequence"):
            convolve(np.ones(4), np.ones((2, 2)), 0.1)


class TestApproximateIdentity:
    def test_l2_error_decreases_with_m(self):
        rng = np.random.default_rng(2)
        mesh = TimeMesh(1.0, 2048)
        t = mesh.times()
        coeffs = rng.uniform(-1, 1, 4)
        u = sum(c * np.sin((k + 1) * np.pi * t) for k, c in enumerate(coeffs))
        errs = []
        for m in (2, 8, 32, 128):
            smoothed = convolve(h_kernel(m, t), u, mesh.tau)
            errs.append(np.sqrt(mesh.tau * np.sum((smoothed - u) ** 2)))
        assert all(e0 > e1 for e0, e1 in zip(errs, errs[1:]))
        assert errs[-1] < 0.15 * errs[0]


class TestMittagLeffler:
    def test_value_one_at_zero(self):
        for alpha in (0.1, 0.5, 0.77):
            assert mittag_leffler(alpha, 0.0) == 1.0

    def test_frozen_half_order_value(self):
        assert mittag_leffler(0.5, -1.0) == pytest.approx(ML_HALF_AT_M1, rel=1e-12)

    def test_half_order_closed_form_all_regimes(self):
        # E_{1/2}(-x) = erfcx(x): series and spectral-rule regimes
        for x in (0.5, 1.0, 2.0, 3.0, 5.0, 9.0, 10.5, 20.0, 50.0):
            assert mittag_leffler(0.5, -x) == pytest.approx(float(erfcx(x)), rel=1e-7), x

    # The README bound: relative error below 1e-13 on the negative axis, here
    # at 11 points for alpha in [0.5, 0.99] (z = -10 was once a branch seam).
    ALPHAS = (0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99)

    @staticmethod
    def _mpmath_series(alpha, z):
        # The largest term is about exp(|z|^(1/alpha)); carry that many digits plus 30.
        x = abs(z)
        with mpmath.workdps(int(x ** (1 / alpha) / math.log(10)) + 30):
            a, zz = mpmath.mpf(alpha), mpmath.mpf(z)
            total, k = mpmath.mpf(0), 0
            while True:
                term = zz**k / mpmath.gamma(a * k + 1)
                total += term
                if k * alpha > 2 * x ** (1 / alpha) + 5 and abs(term) < 1e-25 * abs(total):
                    return float(total)
                k += 1

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_negative_axis_against_mpmath_series(self, alpha):
        for z in (-0.5, -1.5, -3.0, -6.0, -9.9, -10.0001, -10.4, -11.0, -13.0, -16.0, -20.0):
            ref = self._mpmath_series(alpha, z)
            rel = abs(mittag_leffler(alpha, z) - ref) / abs(ref)
            assert rel < 1e-13, (alpha, z, rel)

    @pytest.mark.parametrize("z", [-1.0, -0.5])
    @pytest.mark.parametrize("alpha", [0.001, 0.003, 0.01])
    def test_tiny_alpha_series_against_mpmath(self, alpha, z):
        # The terms 1/Gamma(alpha k + 1) only fall below 1e-15 past
        # alpha k ~ 17.6: 17,600 terms at alpha = 0.001, z = -1.
        ref = self._mpmath_series(alpha, z)
        rel = abs(mittag_leffler(alpha, z) - ref) / abs(ref)
        assert rel <= 1e-13, (alpha, z, rel)

    @pytest.mark.parametrize("alpha", SCAN_ALPHAS)
    def test_dense_scan_against_mpmath_reference(self, alpha):
        # tests/data/ml_reference.csv, written by tests/make_ml_reference.py:
        # 76 points on [-40, 0), both sides of the series switch, and -60 .. -1e4
        table = [[float(v) for v in line.split(",")] for line in ML_REFERENCE.read_text().splitlines()[1:]]
        rows = [(z, ref) for a, z, ref in table if a == alpha]
        assert sum(-40.0 <= z < 0.0 for z, _ in rows) >= 76
        assert {-60.0, -100.0, -1e3, -1e4} <= {z for z, _ in rows}
        for z, ref in rows:
            rel = abs(mittag_leffler(alpha, z) - ref) / ref
            assert rel < 1e-13, (alpha, z, rel)

    def test_far_negative_axis_is_finite_and_quiet(self):
        # E_alpha(-x) ~ 1/(x Gamma(1 - alpha)) as x -> inf, and E_alpha(-inf) = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for alpha in (0.1, 0.5, 0.999):
                for z in (-1e6, -1e300):
                    lead = 1.0 / (-z * math.gamma(1.0 - alpha))
                    assert mittag_leffler(alpha, z) == pytest.approx(lead, rel=1e-5), (alpha, z)
                assert mittag_leffler(alpha, -math.inf) == 0.0

    def test_monotone_decreasing_on_negative_axis(self):
        for alpha in (0.3, 0.6, 0.9):
            xs = np.linspace(0.0, 40.0, 300)
            vals = [mittag_leffler(alpha, -x) for x in xs]
            assert all(v0 > v1 for v0, v1 in zip(vals, vals[1:])), alpha

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            mittag_leffler(0.0, 1.0)
        with pytest.raises(ValueError):
            mittag_leffler(1.2, 1.0)
        # only the relaxation axis z <= 0 is evaluated
        for z in (1e-3, 1.0, math.nan):
            with pytest.raises(ValueError, match="requires z <= 0"):
                mittag_leffler(0.5, z)


class TestDataTypes:
    def test_time_mesh(self):
        mesh = TimeMesh(2.0, 4)
        assert mesh.tau == 0.5
        np.testing.assert_allclose(mesh.times(), [0, 0.5, 1.0, 1.5, 2.0])
        # a horizon that is not a positive finite number: inf would give
        # nan and inf times, and solve would return all-zero states
        for T in (-1.0, 0.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                TimeMesh(T, 4)
        np.testing.assert_allclose(TimeMesh(1.0, 1).times(), [0.0, 1.0])


@pytest.mark.parametrize("bad", [0.0, 1.0, -0.5, 1.5, math.nan])
def test_fractional_orders_share_one_check(bad):
    # Every entry point that takes alpha or beta rejects the same values with
    # the same message; the CLI's own config checks name the key instead.
    mesh = TimeMesh(1.0, 4)
    cases = (
        ("alpha", lambda: FracOrders(bad, 0.5)),
        ("beta", lambda: FracOrders(0.5, bad)),
        ("alpha", lambda: l1_weights(bad, 0.25, 4)),
        ("beta", lambda: normalization_constant(bad)),
        ("alpha", lambda: regularized_kernel(bad, 4, mesh)),
        ("alpha", lambda: monotone_regularized_kernel(bad, 4, mesh)),
        ("gamma", lambda: g_kernel(bad, 1.0)),
        ("gamma", lambda: g_cell_integral(bad, 0.0, 1.0)),
        ("alpha", lambda: mittag_leffler(bad, -1.0)),
    )
    for name, call in cases:
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == f"{name} must lie in (0,1), got {bad}"
