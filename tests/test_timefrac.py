"""Discrete fractional-derivative tests.

Closed-form oracles, frozen from 30-digit arithmetic: the derivative of
t at order 1/2 and t = 1 is 1/Gamma(3/2) = 1.1283791670955126, of t^2 is
2/Gamma(5/2) = 1.5045055561273501, and of t^2 - 2t it is their difference
-0.7522527780636750.  The binomial theorem (sum of GL weights at x = 1)
and the analytic weight ratios serve as the weight-table oracles; the
Grunwald-Letnikov sum is the independent oracle for the L1 derivative.
"""

from dataclasses import dataclass
from typing import Callable

import mpmath
import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from tsfrac.kernels import (
    TimeMesh,
    convolve,
    monotone_regularized_kernel,
    regularized_kernel,
)
from tsfrac.timefrac import caputo_l1, convex_inequality_check, l1_weights, rl_extremum_sign

from oracles import gl_weights

D_HALF_T_AT_1 = 1.1283791670955126  # 1/Gamma(1.5)
D_HALF_T2_AT_1 = 1.5045055561273501  # 2/Gamma(2.5)
D_HALF_T2M2T_AT_1 = -0.7522527780636750  # 2/Gamma(2.5) - 2/Gamma(1.5)

# The convolution-derivative product identity of the paper,
#   H'(u) d/dt(k*u) = d/dt(k*H(u)) + (H'(u)u - H(u)) k
#                     + int (H(u(t-s)) - H(u(t)) - H'(u(t))[u(t-s)-u(t)]) (-k') ds,
# valid for any C^1 function H and any W^{1,1} kernel k.  The convex-part
# inequalities that timefrac checks follow from it; its residual is
# evaluated here only.


@dataclass(frozen=True)
class ConvexProbe:
    """A C^1 convex function H with derivative dH, both numpy-vectorized."""

    H: Callable[[np.ndarray], np.ndarray]
    dH: Callable[[np.ndarray], np.ndarray]


def fundamental_identity_residual(
    u: np.ndarray, probe: ConvexProbe, k: np.ndarray, tau: float, n: int
) -> float:
    """LHS - RHS of the convolution-derivative product identity at t_n = n*tau.

    Discrete conventions, fixed once: left-rectangle causal convolutions,
    forward difference for d/dt (so samples up to n+1 are required),
    centered differences for dk/ds (one-sided at the ends), trapezoidal
    quadrature for the remainder integral.  For linear H the residual is
    zero to roundoff; for smooth u it shrinks under mesh refinement.

    The kernel must be a regular (W^{1,1}-type) kernel sampled on the
    mesh; a sample that is not finite (raw power-law kernel at t = 0) is
    rejected.
    """
    if len(k) != len(u):
        raise ValueError(f"length mismatch: kernel {len(k)} vs signal {len(u)}")
    if not np.all(np.isfinite(k)):
        raise ValueError("kernel samples must be finite; use a regularized kernel")
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if n + 1 > len(u) - 1:
        raise ValueError(f"forward difference at n={n} needs sample n+1; series too short")
    Hu = np.asarray(probe.H(u), dtype=float)
    conv_u = convolve(k, u, tau)
    conv_H = convolve(k, Hu, tau)
    un = u[n]
    dHn = float(probe.dH(un))
    Hn = float(probe.H(un))

    lhs = dHn * (conv_u[n + 1] - conv_u[n]) / tau
    term_conv = (conv_H[n + 1] - conv_H[n]) / tau
    term_jump = (-Hn + dHn * un) * k[n]
    # Remainder integral over s in [0, t_n]; s_j = j*tau pairs with u_{n-j}.
    rev = u[n::-1]
    bracket = np.asarray(probe.H(rev), dtype=float) - Hn - dHn * (rev - un)
    dk = np.gradient(k, tau)
    term_rem = float(np.trapezoid(bracket * (-dk[: n + 1]), dx=tau))
    return float(lhs - (term_conv + term_jump + term_rem))


QUAD_PROBE = ConvexProbe(H=lambda y: 0.5 * y**2, dH=lambda y: y)


def gl_derivative(u, tau, alpha, n):
    """Grunwald-Letnikov d^alpha/dt^alpha (u - u_0) at t_n, the first-order oracle."""
    return float(tau**-alpha * gl_weights(alpha, n) @ (u[n::-1] - u[0]))


class TestGLWeights:
    def test_first_weights(self):
        w = gl_weights(0.5, 3)
        assert w[0] == 1.0
        assert w[1] == pytest.approx(-0.5, abs=1e-15)

    def test_alternation_and_magnitude_decay(self):
        w = gl_weights(0.7, 50)
        assert np.all(w[1:] < 0.0)  # all later weights negative for 0<alpha<1
        assert np.all(np.diff(np.abs(w[1:])) < 0.0)

    def test_partial_sums_decrease_to_zero(self):
        # binomial identity: sum_{j<=n} w_j = Gamma(n+1-alpha)/(Gamma(1-alpha) Gamma(n+1)),
        # which decreases to 0 like n^(-alpha)
        from scipy.special import gamma, gammaln

        alpha = 0.3
        w = gl_weights(alpha, 4000)
        partial = np.cumsum(w)
        assert np.all(partial > 0.0)
        assert np.all(np.diff(partial) < 0.0)
        for n in (10, 100, 1000, 4000):
            exact = np.exp(gammaln(n + 1 - alpha) - gammaln(n + 1)) / gamma(1 - alpha)
            assert partial[n] == pytest.approx(exact, rel=1e-10)


class TestL1Weights:
    def test_first_weight(self):
        tau, alpha = 0.1, 0.5
        b = l1_weights(alpha, tau, 0)
        assert b[0] == pytest.approx(tau ** (-alpha) / np.sqrt(np.pi) * 2, rel=1e-13)
        # Gamma(1.5) = sqrt(pi)/2

    def test_ratio_closed_form(self):
        b = l1_weights(0.5, 0.1, 1)
        assert b[1] / b[0] == pytest.approx(np.sqrt(2.0) - 1.0, rel=1e-13)

    def test_positive_strictly_decreasing_on_lattice(self):
        for alpha in (0.1, 0.5, 0.9):
            for tau in (0.1, 1e-3):
                b = l1_weights(alpha, tau, 500)
                assert np.all(b > 0.0)
                assert np.all(np.diff(b) < 0.0)

    def test_alpha_outside_unit_interval_rejected(self):
        for bad in (0.0, 1.0, -0.2, 1.3):
            with pytest.raises(ValueError, match="alpha"):
                l1_weights(bad, 0.1, 4)

    @pytest.mark.parametrize("alpha", [1e-9, 0.1, 0.5, 0.9, 1 - 1e-9])
    def test_against_mpmath(self, alpha):
        # every weight to 1e-15 relative, alpha near 0 and 1 included:
        # no two nearly equal powers are subtracted
        M = 4096
        b = l1_weights(alpha, 1.0 / M, M)
        with mpmath.workdps(40):
            a = mpmath.mpf(alpha)
            g, scale = 1 - a, mpmath.mpf(M) ** a / mpmath.gamma(2 - a)
            err = max(abs(mpmath.mpf(float(bj)) / (scale * ((j + 1) ** g - mpmath.mpf(j) ** g)) - 1)
                      for j, bj in enumerate(b))
        assert err <= 1e-15, float(err)


def _sample(fn, T, M, extra=0):
    tau = T / M
    t = tau * np.arange(M + 1 + extra)
    return fn(t), tau


class TestCaputoApply:
    def test_constant_is_annihilated(self):
        u, tau = np.full(101, 3.7), 0.01
        for derivative in (caputo_l1, gl_derivative):
            for n in (0, 1, 50, 100):
                assert derivative(u, tau, 0.5, n) == pytest.approx(0.0, abs=1e-10)

    def test_linear_profile_closed_form(self):
        M = 4096
        u, tau = _sample(lambda t: t, 1.0, M)
        assert caputo_l1(u, tau, 0.5, M) == pytest.approx(D_HALF_T_AT_1, abs=1e-3)

    def test_quadratic_profile_closed_form(self):
        M = 4096
        u, tau = _sample(lambda t: t**2, 1.0, M)
        assert caputo_l1(u, tau, 0.5, M) == pytest.approx(D_HALF_T2_AT_1, abs=2e-3)

    def test_linearity(self):
        rng = np.random.default_rng(5)
        M = 64
        tau = 1.0 / M
        u = rng.standard_normal(M + 1)
        v = rng.standard_normal(M + 1)
        a, b = 2.5, -1.2
        for derivative in (caputo_l1, gl_derivative):
            lhs = derivative(a * u + b * v, tau, 0.4, M)
            rhs = a * derivative(u, tau, 0.4, M) + b * derivative(v, tau, 0.4, M)
            assert lhs == pytest.approx(rhs, abs=1e-9 * tau ** (-0.4))

    def test_gl_l1_agreement_on_smooth_profile(self):
        M = 4096
        u, tau = _sample(lambda t: t**2, 1.0, M)
        worst = max(
            abs(caputo_l1(u, tau, 0.5, n) - gl_derivative(u, tau, 0.5, n))
            for n in range(64, M + 1, 64)
        )
        assert worst < 5e-3

    def test_l1_convergence_order(self):
        errs = []
        for M in (256, 512, 1024, 2048):
            u, tau = _sample(lambda t: t**2, 1.0, M)
            errs.append(abs(caputo_l1(u, tau, 0.5, M) - D_HALF_T2_AT_1))
        orders = [np.log2(e0 / e1) for e0, e1 in zip(errs, errs[1:])]
        for o in orders:
            assert 2 - 0.5 - 0.2 <= o <= 2 - 0.5 + 0.2

    def test_index_and_mesh_errors(self):
        u, tau = np.ones(5), 0.1
        with pytest.raises(ValueError):
            caputo_l1(u, tau, 0.5, 7)
        with pytest.raises(ValueError):
            caputo_l1(u, tau, 0.5, -1)
        for bad in (0.0, 1.0):
            for n in (0, 2):
                with pytest.raises(ValueError, match="alpha"):
                    caputo_l1(u, tau, bad, n)


class TestFundamentalIdentity:
    def test_linear_probe_gives_exact_zero(self):
        rng = np.random.default_rng(9)
        M = 128
        mesh = TimeMesh(1.0, M)
        k = regularized_kernel(0.5, 8, mesh)
        u = rng.standard_normal(M + 1)
        probe = ConvexProbe(H=lambda y: y, dH=lambda y: np.ones_like(np.asarray(y, dtype=float)))
        r = fundamental_identity_residual(u, probe, k, mesh.tau, 64)
        assert r == pytest.approx(0.0, abs=1e-10)

    def test_constant_signal_cancels_exactly(self):
        M = 128
        mesh = TimeMesh(1.0, M)
        k = regularized_kernel(0.5, 8, mesh)
        u = np.full(M + 1, 2.5)
        r = fundamental_identity_residual(u, QUAD_PROBE, k, mesh.tau, 100)
        assert r == pytest.approx(0.0, abs=1e-12)

    def test_residual_shrinks_under_refinement(self):
        # u(t) = t, k = g_{0.5,16} sampled, evaluation fixed at t = 1; the
        # trajectory is sampled one step past t = 1 for the forward difference
        resids = []
        for M in (256, 512, 1024, 2048, 4096):
            tau = 1.0 / M
            mesh = TimeMesh((M + 1) * tau, M + 1)
            k = regularized_kernel(0.5, 16, mesh)
            u = tau * np.arange(M + 2)
            resids.append(abs(fundamental_identity_residual(u, QUAD_PROBE, k, tau, M)))
        for r0, r1 in zip(resids, resids[1:]):
            assert r1 <= r0 / 1.5

    def test_singular_kernel_rejected(self):
        M = 32
        tau = 1.0 / M
        bad = np.ones(M + 1)
        bad[0] = np.inf
        with pytest.raises(ValueError):
            fundamental_identity_residual(np.ones(M + 1), QUAD_PROBE, bad, tau, 4)


class TestConvexInequalities:
    def test_nonnegative_signal_trivial_minus_part(self):
        mesh = TimeMesh(1.0, 64)
        k = monotone_regularized_kernel(0.5, 8, mesh)
        u = np.linspace(0.0, 2.0, 65) ** 2
        v = convex_inequality_check(u, k, mesh.tau)
        assert np.all(v.minus_part)

    def test_nonpositive_signal_trivial_plus_part(self):
        mesh = TimeMesh(1.0, 64)
        k = monotone_regularized_kernel(0.5, 8, mesh)
        u = -np.linspace(0.0, 2.0, 65)
        v = convex_inequality_check(u, k, mesh.tau)
        assert np.all(v.plus_part)

    @pytest.mark.parametrize("m", [4, 64])
    def test_random_piecewise_linear_all_pass(self, m):
        M = 128
        mesh = TimeMesh(1.0, M)
        k = monotone_regularized_kernel(0.5, m, mesh)
        rng = np.random.default_rng(100 + m)
        for _ in range(500):
            breaks = np.linspace(0, M, 8).astype(int)
            u = np.interp(np.arange(M + 1), breaks, rng.uniform(-1, 1, 8))
            v = convex_inequality_check(u, k, mesh.tau)
            assert v.all_ok()

    @pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize("m", [1, 16, 256])
    def test_minus_part_is_plus_part_of_negation(self, alpha, m):
        # (-u)+ = u- and D(k*(-u)) = -D(k*u) exactly in floating point, so
        # the two verdicts swap bit for bit under u -> -u
        M = 128
        mesh = TimeMesh(1.0, M)
        k = monotone_regularized_kernel(alpha, m, mesh)
        rng = np.random.default_rng(7 + m)
        for _ in range(10):
            breaks = np.linspace(0, M, 8).astype(int)
            vals = np.interp(np.arange(M + 1), breaks, rng.uniform(-1, 1, 8))
            v = convex_inequality_check(vals, k, mesh.tau)
            w = convex_inequality_check(-vals, k, mesh.tau)
            assert np.array_equal(w.plus_part, v.minus_part)
            assert np.array_equal(w.minus_part, v.plus_part)

    def test_hump_kernel_rejected(self):
        # the mollified family rises from 0, which breaks the inequalities
        mesh = TimeMesh(1.0, 64)
        k = regularized_kernel(0.5, 8, mesh)
        u = np.ones(65)
        with pytest.raises(ValueError):
            convex_inequality_check(u, k, mesh.tau)


class TestExtremumSign:
    def test_parabola_max_nonnegative(self):
        M = 256
        u, tau = _sample(lambda t: t * (2.0 - t), 2.0, M)
        n0 = int(np.argmax(u))
        val, ok = rl_extremum_sign(u, tau, 0.5, n0, "max")
        assert ok and val >= 0.0

    def test_constant_passes_both_modes(self):
        u, tau = np.full(65, 1.23), 0.01
        for mode in ("max", "min"):
            val, ok = rl_extremum_sign(u, tau, 0.3, 10, mode)
            assert ok
            assert val == pytest.approx(0.0, abs=1e-10)

    def test_shifted_parabola_min_matches_closed_form(self):
        # u = (t-1)^2 on [0,2]: the order-1/2 derivative of u - u(0) at the
        # the minimum t = 1 is 2/Gamma(2.5) - 2/Gamma(1.5) < 0
        M = 4096
        u, tau = _sample(lambda t: (t - 1.0) ** 2, 2.0, M)
        n0 = int(np.argmin(u))
        val, ok = rl_extremum_sign(u, tau, 0.5, n0, "min")
        assert ok
        assert val == pytest.approx(D_HALF_T2M2T_AT_1, abs=5e-3)

    def test_lemma_property_on_random_splines(self):
        rng = np.random.default_rng(11)
        M = 256
        tau = 2.0 / M
        t = tau * np.arange(M + 1)
        passes = 0
        for _ in range(200):
            knots = np.linspace(0.0, 2.0, 7)
            spline = CubicSpline(knots, rng.uniform(-1.0, 1.0, 7))
            u = spline(t)
            alpha = rng.uniform(0.05, 0.95)
            for mode, pick in (("max", np.argmax), ("min", np.argmin)):
                n0 = int(pick(u))
                if n0 == 0:
                    continue
                _, ok = rl_extremum_sign(u, tau, alpha, n0, mode)
                assert ok
                passes += 1
        assert passes > 100  # most draws have an interior or terminal extremum

    def test_precondition_errors(self):
        u, tau = _sample(lambda t: t, 1.0, 16)
        with pytest.raises(ValueError):
            rl_extremum_sign(u, tau, 0.5, 0, "max")  # t0 must be positive
        with pytest.raises(ValueError):
            rl_extremum_sign(u, tau, 0.5, 3, "max")  # max is at the last index
        with pytest.raises(ValueError):
            rl_extremum_sign(u, tau, 0.5, 16, "middle")
        with pytest.raises(ValueError, match="alpha"):
            rl_extremum_sign(u, tau, 1.0, 16, "max")
