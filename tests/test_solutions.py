import math
import re
import warnings

import numpy as np
import pytest

import halfline as hl
from conftest import (decay_bound, decay_diagnostic, long_double_t, recurrence_residual,
                      rim_zeta)
from halfline import _kernels, solutions
from halfline._kernels import off_axis_zeta


def free_regular(n, zeta):
    """sin((n+1) theta) / sin(theta), the free regular solution at
    zeta = e^(-i theta) on the cut."""
    if zeta.imag == 0.0:
        raise ValueError("free kernel is singular at lambda = +-1; "
                         "use the recursion instead")
    theta = -np.angle(zeta)
    return float(np.sin((n + 1) * theta) / np.sin(theta))


class TestPointDomain:
    @pytest.mark.parametrize("x", [0.5, -0.999, 0.0, math.nan, math.inf, -math.inf, 1e308,
                                   -1.7e308, 1.1 + 0j, 0.6 + 0.6j, 0.5j, complex(math.nan, 0.0)])
    def test_refused_as_the_kernels_refuse(self, x):
        # real |z| < 1, NaN, +-inf, 2z not finite and zeta off |zeta| = 1; the
        # regular recursion stepped 2z = 2 Re zeta for any zeta, and for 2z =
        # inf gave [0, 1, inf+nanj, nan+nanj, ...] beside a RuntimeWarning
        p = hl.rank_one(0.75)
        with pytest.raises(ValueError, match="Jost points"):
            _kernels.jost_function_values(p.values, x)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for solution in (hl.regular_solution, hl.jost_solution, hl.volterra_jost):
                with pytest.raises(ValueError, match="Jost points"):
                    solution(p, x, 3)

    @pytest.mark.parametrize("x", [1.5, -2.0, 1.0 + 1e-9])
    def test_volterra_takes_the_cut_only(self, x):
        p = hl.rank_one(0.75)
        assert np.isfinite(hl.jost_solution(p, x, 3)).all()
        with pytest.raises(ValueError, match="on the cut or z = \\+-1"):
            hl.volterra_jost(p, x, 3)


class TestRegularSolution:
    def test_free_at_lambda_zero(self):
        # Chebyshev of the second kind at lambda = 0: 1, 0, -1, 0, 1, ...
        u = hl.regular_solution(hl.zero_potential(), rim_zeta(0.0), 8)
        expected = np.sin((np.arange(-1, 9) + 1) * np.pi / 2)
        assert np.allclose(u, expected, atol=1e-14)
        assert u.dtype == np.float64

    def test_one_step_by_hand(self):
        u = hl.regular_solution(hl.rank_one(0.75), 2.0, 3)
        assert u[0] == 0.0 and u[1] == 1.0
        assert u[2] == pytest.approx(2.0 * (2.0 - 0.75), abs=1e-15)

    def test_free_closed_form_off_axis(self):
        # (zeta^(-n-1) - zeta^(n+1)) / (2 sqrt(z^2-1)) against the recursion
        u = hl.regular_solution(hl.zero_potential(), 2.0, 20)
        n = np.arange(-1, 21)
        zeta = off_axis_zeta(2.0)
        closed = (zeta ** (-(n + 1)) - zeta ** (n + 1)) / (2.0 * np.sqrt(3.0))
        assert np.max(np.abs(u - closed) / np.abs(closed).max()) < 1e-12

    def test_schrodinger_residual_invariant(self):
        for p in (hl.zero_potential(), hl.rank_one(-0.5),
                  hl.table_potential([0.3, -0.2], rho=3.0)):
            for x in (rim_zeta(0.3), 1.7):
                u = hl.regular_solution(p, x, 40)
                assert recurrence_residual(p, x, u) < 1e-12

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("x, n", [(1e200, 2), (-1e200, 2), (1e100, 4), (-3e307, 2)])
    def test_overflow_refused(self, x, n):
        # the forward recursion grows like (2z)^n: once it leaves the float
        # range, a refusal that names the point, and no numpy warning
        with pytest.raises(hl.NumericsError,
                           match=re.escape(f"regular solution at x = {x} overflows at n = {n}")):
            hl.regular_solution(hl.rank_one(0.75), x, 5)

    @pytest.mark.filterwarnings("error")
    def test_largest_finite_answered(self):
        u = hl.regular_solution(hl.rank_one(0.75), 1e100, 3)
        assert np.all(np.isfinite(u)) and u[-1] == pytest.approx(8e300, rel=1e-12)


class TestFreeRegular:
    def test_value_examples(self):
        zeta = rim_zeta(0.5)   # theta = pi/3
        assert free_regular(0, zeta) == pytest.approx(1.0)
        assert free_regular(2, zeta) == pytest.approx(0.0, abs=1e-15)
        assert free_regular(1, rim_zeta(0.0)) == pytest.approx(0.0, abs=1e-15)

    def test_threshold_rejected(self):
        with pytest.raises(ValueError):
            free_regular(1, 1.0 + 0j)

    def test_matches_recursion(self):
        zeta = rim_zeta(-0.35)
        u = hl.regular_solution(hl.zero_potential(), zeta, 30)
        for n in (0, 5, 17, 30):
            assert u[n + 1] == pytest.approx(free_regular(n, zeta), abs=1e-11)


class TestJostSolution:
    def test_free_is_zeta_power(self):
        zeta = rim_zeta(0.4)
        u = hl.jost_solution(hl.zero_potential(), zeta, 10)
        n = np.arange(-1, 11)
        assert np.allclose(u, zeta ** n, atol=1e-14)

    @pytest.mark.parametrize("v0", [0.75, -0.3, 1.5])
    def test_rank_one_closed_form(self, v0):
        for x in (rim_zeta(0.0), rim_zeta(-0.6), 2.0):
            u = hl.jost_solution(hl.rank_one(v0), x, 5)
            zeta = x if isinstance(x, complex) else off_axis_zeta(x)
            assert u[0] == pytest.approx(1.0 / zeta - 2.0 * v0, rel=1e-13)
            n = np.arange(0, 6)
            assert np.allclose(u[1:], np.asarray(zeta) ** n, rtol=1e-13)

    @pytest.mark.parametrize("p", [hl.rank_one(0.5), hl.table_potential([0.3, -0.2], rho=3.0),
                                   hl.random_decaying(3, rho_gen=4.0)],
                             ids=["resonant", "two_site", "random_rho4"])
    def test_thresholds_equal_classify_thresholds(self, p):
        # z = +-1 steps as a real point: zeta theta(-1) is Omega(+-1) of the
        # threshold classification, bit for bit, and the values are real
        om = hl.classify_thresholds(p, 1e-3)[4:]
        u = [hl.jost_solution(p, z, 4) for z in (-1.0, 1.0)]
        assert [-u[0][0], u[1][0]] == list(om)
        assert u[0].dtype == u[1].dtype == np.float64

    def test_residual_invariant(self):
        p = hl.table_potential([0.2, -0.4, 0.1], rho=3.0)
        for x in (rim_zeta(0.55), -1.4):
            u = hl.jost_solution(p, x, 30)
            assert recurrence_residual(p, x, u) < 1e-12


class TestThresholdJost:
    def test_free(self):
        u = hl.jost_solution(hl.zero_potential(), 1.0, 6)
        assert np.allclose(u, 1.0, atol=1e-15)

    def test_half_strength_resonance(self):
        u = hl.jost_solution(hl.rank_one(0.5), 1.0, 3)
        assert u[0] == pytest.approx(0.0, abs=1e-15)   # 2(1-0.5)*1 - 1

    def test_negative_threshold(self):
        u = hl.jost_solution(hl.rank_one(0.5), -1.0, 3)
        assert u[0] == pytest.approx(-2.0, abs=1e-15)  # 2(-1-0.5)*1 + 1

    def test_residual_invariant(self):
        p = hl.table_potential([0.2, -0.1, 0.05], rho=3.0)
        for z in (1.0, -1.0):
            assert recurrence_residual(p, z, hl.jost_solution(p, z, 20)) < 1e-12


class TestVolterraOracle:
    def test_recursion_matches_volterra(self):
        rng = np.random.default_rng(7)
        p = hl.table_potential(rng.uniform(-0.3, 0.3, 21), rho=3.0)
        zeta = rim_zeta(0.3)
        rec = hl.jost_solution(p, zeta, 25)
        vol = hl.volterra_jost(p, zeta, 25)
        assert np.max(np.abs(rec - vol)) < 1e-10

    @pytest.mark.parametrize("lam", [-0.9, -0.2, 0.45, 0.8])
    def test_multiple_points(self, lam):
        rng = np.random.default_rng(3)
        p = hl.table_potential(rng.uniform(-0.2, 0.2, 15), rho=3.0)
        zeta = rim_zeta(lam)
        rec = hl.jost_solution(p, zeta, 18)
        vol = hl.volterra_jost(p, zeta, 18)
        assert np.max(np.abs(rec - vol)) < 1e-10

    @pytest.mark.parametrize("sign", [+1, -1])
    def test_threshold_kernel_limit(self, sign):
        # the kernel sin(k theta)/sin(theta) degenerates to k (+-1)^(k-1),
        # at the real threshold z = +-1 and at zeta = +-1 on the cut alike
        rng = np.random.default_rng(11)
        p = hl.table_potential(rng.uniform(-0.15, 0.15, 12), rho=3.0)
        rec = hl.jost_solution(p, float(sign), 14)
        for x in (float(sign), complex(sign)):
            vol = hl.volterra_jost(p, x, 14)
            assert np.max(np.abs(rec - vol)) < 1e-10


class TestWronskianProperties:
    def test_jost_and_conjugate_independent(self):
        # {theta, conj theta} = i sin(theta_angle): nonzero inside the band
        p = hl.table_potential([0.3, -0.2], rho=3.0)
        for lam in (-0.7, 0.0, 0.5):
            zeta = rim_zeta(lam)
            u = hl.jost_solution(p, zeta, 25)
            w = hl.wronskian(u, np.conj(u))
            assert w == pytest.approx(-1j * zeta.imag, rel=1e-12)

    def test_constancy_guard(self):
        good = hl.jost_solution(hl.zero_potential(), rim_zeta(0.2), 20)
        bad = np.arange(22) * (1.0 + 0j)
        with pytest.raises(hl.NumericsError, match="not solutions"):
            hl.wronskian(good, bad)


class TestDecayDiagnostic:
    def test_free_passes_trivially(self):
        rep = decay_diagnostic(hl.zero_potential(), rim_zeta(0.1))
        assert rep.max_violation == 0.0

    def test_rank_one_tail_exact(self):
        # theta(n) = zeta^n exactly on the nonnegative sites
        rep = decay_diagnostic(hl.rank_one(0.75), rim_zeta(0.0))
        assert rep.max_violation <= 0.0 + 1e-15
        assert rep.empirical_c <= 1e-14

    @pytest.mark.parametrize("seed", range(10))
    def test_random_family_scan(self, seed):
        p = hl.random_decaying(seed, amplitude=0.3)
        rep = hl.decay_scan(p, 64)
        assert rep.max_violation <= solutions.DECAY_SLACK

    def test_two_site_scan(self):
        rep = hl.decay_scan(hl.table_potential([0.3, -0.2], rho=3.0), 128)
        assert rep.max_violation <= 1e-10

    @pytest.mark.parametrize("p", [hl.table_potential([0.3, -0.2], rho=3.0),
                                   hl.random_decaying(3, rho_gen=6.0)],
                             ids=["two_site", "short_random"])
    def test_scan_matches_pointwise_diagnostic(self, p):
        # the grid decay_scan rolls over, as single points
        m = 32
        th = (np.arange(m) + 0.5) * np.pi / m
        zeta = np.concatenate([np.exp(-1j * th), [1.0 + 0j, -1.0 + 0j]])
        reps = [decay_diagnostic(p, z) for z in zeta]
        scan = hl.decay_scan(p, m)
        # within the bound of the long-double rows, at every site weighted
        # by at most (L - 1)^(rho - 2) in the envelope constant
        t = long_double_t(p.values, zeta, 2.0 * zeta.real)
        tol = decay_bound(p.values, t)
        assert scan.max_violation == pytest.approx(
            max(r.max_violation for r in reps), rel=0, abs=tol)
        assert scan.empirical_c == pytest.approx(
            max(r.empirical_c for r in reps), rel=0,
            abs=tol * max(1.0, (p.support_end - 1) ** (p.rho - 2.0)))

    @pytest.mark.parametrize("values", [[1e10] * 200, [1e155] * 3, [400.0] * 3],
                             ids=["recursion_nan", "recursion_inf", "bound_inf"])
    def test_overflow_refused_without_warnings(self, values):
        # the recursion or the tail bound overflows: a typed refusal, not a
        # NaN report beside numpy RuntimeWarnings
        p = hl.table_potential(values, rho=3.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(hl.NumericsError, match="decay check overflows"):
                hl.decay_scan(p, 64)

    def test_reports_empirical_constant(self):
        p = hl.random_decaying(4, amplitude=0.3)
        rep = hl.decay_scan(p, 64)
        assert rep.empirical_c > 0.0 and np.isfinite(rep.empirical_c)
