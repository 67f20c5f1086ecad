import warnings

import numpy as np
import pytest

import halfline as hl
from conftest import decay_bound, decay_diagnostic, long_double_t, recurrence_residual
from halfline import solutions


def free_regular(n, point):
    """sin((n+1) theta) / sin(theta), the free regular solution on the cut."""
    if point.is_threshold:
        raise ValueError("free kernel is singular at lambda = +-1; "
                         "use the recursion instead")
    return float(np.sin((n + 1) * point.theta) / np.sin(point.theta))


def jost_at_threshold(p, sign, n_max):
    """Threshold Jost solution, tail (+-1)^n, by the backward recursion."""
    return solutions._jost_sequence(p, hl.SpectralPoint.threshold(sign), n_max, None)


def seq_values(seq, n_from, n_to):
    return np.array([seq.value(n) for n in range(n_from, n_to + 1)])


class TestRegularSolution:
    def test_free_at_lambda_zero(self):
        # Chebyshev of the second kind at lambda = 0: 1, 0, -1, 0, 1, ...
        seq = hl.regular_solution(hl.zero_potential(),
                                  hl.SpectralPoint.from_lambda(0.0), 8)
        expected = np.sin((np.arange(-1, 9) + 1) * np.pi / 2)
        assert np.allclose(seq_values(seq, -1, 8), expected, atol=1e-14)
        assert seq.kind == "free_regular"

    def test_one_step_by_hand(self):
        seq = hl.regular_solution(hl.rank_one(0.75), hl.OffAxisPoint.from_z(2.0), 3)
        assert seq.value(-1) == 0.0 and seq.value(0) == 1.0
        assert seq.value(1) == pytest.approx(2.0 * (2.0 - 0.75), abs=1e-15)

    def test_free_closed_form_off_axis(self):
        # (zeta^(-n-1) - zeta^(n+1)) / (2 sqrt(z^2-1)) against the recursion
        pt = hl.OffAxisPoint.from_z(2.0)
        seq = hl.regular_solution(hl.zero_potential(), pt, 20)
        n = np.arange(-1, 21)
        zeta = pt.zeta
        closed = (zeta ** (-(n + 1)) - zeta ** (n + 1)) / (2.0 * np.sqrt(3.0))
        got = seq_values(seq, -1, 20)
        assert np.max(np.abs(got - closed) / np.abs(closed).max()) < 1e-12

    def test_schrodinger_residual_invariant(self):
        for p in (hl.zero_potential(), hl.rank_one(-0.5),
                  hl.table_potential([0.3, -0.2], rho=3.0)):
            for pt in (hl.SpectralPoint.from_lambda(0.3), hl.OffAxisPoint.from_z(1.7)):
                seq = hl.regular_solution(p, pt, 40)
                assert recurrence_residual(seq) < 1e-12


class TestFreeRegular:
    def test_value_examples(self):
        pt = hl.SpectralPoint.from_lambda(0.5)   # theta = pi/3
        assert free_regular(0, pt) == pytest.approx(1.0)
        assert free_regular(2, pt) == pytest.approx(0.0, abs=1e-15)
        assert free_regular(1, hl.SpectralPoint.from_lambda(0.0)) == pytest.approx(0.0, abs=1e-15)

    def test_threshold_rejected(self):
        with pytest.raises(ValueError):
            free_regular(1, hl.SpectralPoint.threshold(+1))

    def test_matches_recursion(self):
        pt = hl.SpectralPoint.from_lambda(-0.35)
        seq = hl.regular_solution(hl.zero_potential(), pt, 30)
        for n in (0, 5, 17, 30):
            assert seq.value(n).real == pytest.approx(free_regular(n, pt), abs=1e-11)


class TestJostSolution:
    def test_free_is_zeta_power(self):
        pt = hl.SpectralPoint.from_lambda(0.4)
        seq = hl.jost_solution(hl.zero_potential(), pt, 10)
        n = np.arange(-1, 11)
        assert np.allclose(seq_values(seq, -1, 10), pt.zeta ** n, atol=1e-14)
        assert seq.kind == "free_jost"

    @pytest.mark.parametrize("v0", [0.75, -0.3, 1.5])
    def test_rank_one_closed_form(self, v0):
        for pt in (hl.SpectralPoint.from_lambda(0.0),
                   hl.SpectralPoint.from_lambda(-0.6),
                   hl.OffAxisPoint.from_z(2.0)):
            seq = hl.jost_solution(hl.rank_one(v0), pt, 5)
            zeta = pt.zeta
            assert seq.value(-1) == pytest.approx(1.0 / zeta - 2.0 * v0, rel=1e-13)
            n = np.arange(0, 6)
            assert np.allclose(seq_values(seq, 0, 5), np.asarray(zeta) ** n, rtol=1e-13)

    def test_tail_not_free_guard(self):
        p = hl.table_potential(np.ones(30) * 0.01, rho=3.0)
        with pytest.raises(hl.NumericsError, match="tail not free"):
            hl.jost_solution(p, hl.SpectralPoint.from_lambda(0.2), 5, n_tail=10)

    def test_threshold_routed_elsewhere(self):
        with pytest.raises(ValueError):
            hl.jost_solution(hl.rank_one(0.5), hl.SpectralPoint.threshold(1), 5)

    def test_residual_invariant(self):
        p = hl.table_potential([0.2, -0.4, 0.1], rho=3.0)
        for pt in (hl.SpectralPoint.from_lambda(0.55), hl.OffAxisPoint.from_z(-1.4)):
            seq = hl.jost_solution(p, pt, 30)
            assert recurrence_residual(seq) < 1e-12


class TestThresholdJost:
    def test_free(self):
        seq = jost_at_threshold(hl.zero_potential(), +1, 6)
        assert np.allclose(seq_values(seq, -1, 6), 1.0, atol=1e-15)

    def test_half_strength_resonance(self):
        seq = jost_at_threshold(hl.rank_one(0.5), +1, 3)
        assert seq.value(-1) == pytest.approx(0.0, abs=1e-15)   # 2(1-0.5)*1 - 1

    def test_negative_threshold(self):
        seq = jost_at_threshold(hl.rank_one(0.5), -1, 3)
        assert seq.value(-1) == pytest.approx(-2.0, abs=1e-15)  # 2(-1-0.5)*1 + 1

    def test_residual_invariant(self):
        p = hl.table_potential([0.2, -0.1, 0.05], rho=3.0)
        for sign in (+1, -1):
            assert recurrence_residual(jost_at_threshold(p, sign, 20)) < 1e-12


class TestVolterraOracle:
    def test_recursion_matches_volterra(self):
        rng = np.random.default_rng(7)
        p = hl.table_potential(rng.uniform(-0.3, 0.3, 21), rho=3.0)
        pt = hl.SpectralPoint.from_lambda(0.3)
        rec = hl.jost_solution(p, pt, 25)
        vol = hl.volterra_jost(p, pt, 25)
        assert np.max(np.abs(rec.values - vol.values)) < 1e-10

    @pytest.mark.parametrize("lam", [-0.9, -0.2, 0.45, 0.8])
    def test_multiple_points(self, lam):
        rng = np.random.default_rng(3)
        p = hl.table_potential(rng.uniform(-0.2, 0.2, 15), rho=3.0)
        pt = hl.SpectralPoint.from_lambda(lam)
        rec = hl.jost_solution(p, pt, 18)
        vol = hl.volterra_jost(p, pt, 18)
        assert np.max(np.abs(rec.values - vol.values)) < 1e-10

    @pytest.mark.parametrize("sign", [+1, -1])
    def test_threshold_kernel_limit(self, sign):
        # the kernel sin(k theta)/sin(theta) degenerates to k (+-1)^(k-1)
        rng = np.random.default_rng(11)
        p = hl.table_potential(rng.uniform(-0.15, 0.15, 12), rho=3.0)
        rec = jost_at_threshold(p, sign, 14)
        vol = hl.volterra_jost(p, hl.SpectralPoint.threshold(sign), 14)
        assert np.max(np.abs(rec.values - vol.values)) < 1e-10


class TestWronskianProperties:
    def test_jost_and_conjugate_independent(self):
        # {theta, conj theta} = i sin(theta_angle): nonzero inside the band
        p = hl.table_potential([0.3, -0.2], rho=3.0)
        for lam in (-0.7, 0.0, 0.5):
            pt = hl.SpectralPoint.from_lambda(lam)
            seq = hl.jost_solution(p, pt, 25)
            conj = hl.SolutionSequence(kind="jost", point=pt,
                                       values=np.conj(seq.values), potential=p)
            w = hl.wronskian(seq, conj)
            assert w == pytest.approx(1j * np.sin(pt.theta), rel=1e-12)

    def test_constancy_guard(self):
        pt = hl.SpectralPoint.from_lambda(0.2)
        p = hl.zero_potential()
        good = hl.jost_solution(p, pt, 20)
        bad = hl.SolutionSequence(kind="jost", point=pt,
                                  values=np.arange(22) * (1.0 + 0j), potential=p)
        with pytest.raises(hl.NumericsError, match="not solutions"):
            hl.wronskian(good, bad)


class TestDecayDiagnostic:
    def test_free_passes_trivially(self):
        rep = decay_diagnostic(hl.zero_potential(), hl.SpectralPoint.from_lambda(0.1))
        assert rep.max_violation == 0.0

    def test_rank_one_tail_exact(self):
        # theta(n) = zeta^n exactly on the nonnegative sites
        rep = decay_diagnostic(hl.rank_one(0.75), hl.SpectralPoint.from_lambda(0.0))
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
        zeta = np.exp(-1j * th)
        points = [hl.SpectralPoint(lam=float(np.cos(t)), theta=float(t), zeta=complex(z))
                  for t, z in zip(th, zeta)]
        points += [hl.SpectralPoint(lam=1.0, theta=0.0, zeta=1.0 + 0j),
                   hl.SpectralPoint(lam=-1.0, theta=np.pi, zeta=-1.0 + 0j)]
        reps = [decay_diagnostic(p, pt) for pt in points]
        scan = hl.decay_scan(p, m)
        # within the bound of the long-double rows, at every site weighted
        # by at most (L - 1)^(rho - 2) in the envelope constant
        t = long_double_t(p.values, [pt.zeta for pt in points], [pt.two_z for pt in points])
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
