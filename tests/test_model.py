import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import halfline as hl
from conftest import reference_sturm_counts, rim_zeta
from halfline import _kernels
from halfline._kernels import jost_points, off_axis_zeta


class TestPotential:
    def test_rank_one_support(self):
        p = hl.rank_one(0.75, site=0, rho=3.0)
        assert p.support_end == 1

    def test_zero_support(self):
        p = hl.zero_potential()
        assert p.support_end == 0

    def test_rho_too_small_rejected(self):
        with pytest.raises(hl.AssumptionError, match="assumption violated"):
            hl.rank_one(0.75, rho=2.0)
        with pytest.raises(hl.AssumptionError):
            hl.rank_one(0.75, rho=2.5)   # boundary excluded

    def test_nonfinite_rejected(self):
        with pytest.raises(hl.ConfigError):
            hl.table_potential([0.1, np.nan], rho=3.0)

    @pytest.mark.parametrize("rho", [None, "3", np.nan])
    def test_rho_not_a_real_number_rejected(self, rho):
        # checked before the comparison with 5/2: None and "3" raised a
        # TypeError there, and NaN an AssumptionError
        with pytest.raises(hl.ConfigError, match="rho must be a finite real number"):
            hl.table_potential([0.3], rho)

    def test_unknown_kind_rejected(self):
        with pytest.raises(hl.ConfigError):
            hl.make_potential({"kind": "bogus"})

    def test_make_potential_dispatch(self):
        p = hl.make_potential({"kind": "rank_one", "v0": 0.5, "rho": 3.0})
        assert p.diagonal(2).tolist() == [0.5, 0.0]


class TestSpectralGeometry:
    """The coordinate of a Jost point (`_kernels.jost_points`): real z with
    zeta = `off_axis_zeta(z)`, or zeta itself on the cut."""

    def test_zeta_at_two(self):
        zeta = off_axis_zeta(2.0)
        assert zeta == pytest.approx(2.0 - math.sqrt(3.0), abs=1e-15)
        # oracle: zeta solves zeta^2 - 2 z zeta + 1 = 0 inside the disk
        assert abs(zeta ** 2 - 4.0 * zeta + 1.0) < 1e-14
        assert abs(zeta) < 1.0

    def test_zeta_at_minus_two(self):
        zeta = off_axis_zeta(-2.0)
        assert zeta == pytest.approx(-2.0 + math.sqrt(3.0), abs=1e-15)
        assert abs(zeta) < 1.0 and zeta < 0.0

    def test_zeta_on_rim_at_zero(self):
        x, zeta = jost_points(rim_zeta(0.0))
        assert zeta[0] == -1j and x[0].real == 0.0

    @pytest.mark.parametrize("z", [1.0001, 1.5, 3.0, 10.0, -1.2, -50.0])
    def test_offaxis_invariants(self, z):
        zeta = off_axis_zeta(z)
        assert abs(zeta) < 1.0
        assert np.sign(zeta) == np.sign(z)
        assert zeta + 1.0 / zeta == pytest.approx(2.0 * z, rel=1e-14)

    def test_zeta_as_before_where_z_squared_is_finite(self):
        z = np.geomspace(1.0 + 1e-12, 1.3e154, 4001)
        z = np.concatenate([z, -z, [1e150], np.nextafter(1e150, [0.0, np.inf])])
        old = np.sign(z) / (np.abs(z) + np.sqrt(z * z - 1.0))
        assert np.array_equal(off_axis_zeta(z), old)
        assert np.array_equal(jost_points(z)[1], old)

    @pytest.mark.parametrize("z", [1.4e154, -1e200, 1e300, 1.7e308])
    def test_zeta_without_overflow(self, z):
        # z^2 overflows: zeta = 1/(2z) to the last bit, not 0
        zeta = off_axis_zeta(z)
        assert zeta == 0.5 / z
        assert zeta * z == pytest.approx(0.5, rel=1e-14)

    @pytest.mark.parametrize("lam", np.linspace(-1, 1, 17))
    def test_rim_invariants(self, lam):
        # a rim point built from lambda, thresholds included, lies within the
        # kernels' circle tolerance, and its 2z = 2 Re zeta is 2 lambda
        x, zeta = jost_points(rim_zeta(lam))
        zeta = complex(zeta[0])
        assert abs(zeta) == pytest.approx(1.0, abs=1e-15)
        assert zeta.real == lam
        assert zeta.imag <= 0.0
        assert zeta + 1.0 / zeta == pytest.approx(2.0 * lam, abs=1e-13)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_threshold_zeta_exact(self, sign):
        # a threshold is the real z = +-1, stepped with zeta = +-1 exactly:
        # no sin(pi) = 1.2e-16 can enter, and Omega(+-1) is real
        x, zeta = jost_points(float(sign))
        assert x.dtype == zeta.dtype == np.float64 and zeta[0] == sign
        assert _kernels.jost_function_values(hl.rank_one(0.5).values, x).dtype == np.float64


class TestTruncation:
    def test_free_two_by_two(self):
        t = hl.hamiltonian_truncation(hl.zero_potential(), 2)
        assert np.allclose(t.matrix(), [[0.0, 0.5], [0.5, 0.0]])
        assert np.allclose(np.sort(t.eigenvalues()), [-0.5, 0.5])

    def test_rank_one_diagonal(self):
        t = hl.hamiltonian_truncation(hl.rank_one(0.75), 3)
        assert np.allclose(np.diag(t.matrix()), [0.75, 0.0, 0.0])
        m = t.matrix()
        assert np.allclose(m, m.T)

    def test_large_truncation_eigenvalue_oracle(self):
        # closed form: the zero of 1 - 2 v0 zeta gives z = (zeta + 1/zeta)/2
        t = hl.hamiltonian_truncation(hl.rank_one(0.75), 2000)
        ev = t.eigenvalues()
        assert abs(np.max(ev) - 13.0 / 12.0) < 1e-8

    def test_spectrum_in_numerical_range(self):
        p = hl.table_potential([0.4, -0.3, 0.2], rho=3.0)
        ev = hl.hamiltonian_truncation(p, 50).eigenvalues()
        bound = 1.0 + p.sup_norm
        assert np.all(np.abs(ev) <= bound + 1e-12)

    @staticmethod
    def assert_counts_as_scipy(p, size, bounds):
        """eigenvalues_beyond against the eigenvalues of scipy's tridiagonal
        solver: equal, except that an eigenvalue within rounding of +-b may
        fall on either side of it."""
        from scipy.linalg import eigvalsh_tridiagonal
        t = hl.hamiltonian_truncation(p, size)
        ev = np.abs(eigvalsh_tridiagonal(t.diagonal, 0.5 * np.ones(size - 1)))
        for b, count in zip(bounds, t.eigenvalues_beyond(bounds)):
            slack = 1e-13 * (1.0 + b + p.sup_norm)
            assert np.sum(ev > b + slack) <= count <= np.sum(ev > b - slack), (b, ev)

    @settings(max_examples=200, deadline=None)
    @given(values=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=12),
           size=st.integers(1, 40), b=st.floats(0.0, 4.0))
    def test_count_as_scipy_on_random_diagonals(self, values, size, b):
        p = hl.table_potential(values, rho=3.0)
        g = hl.GridSpec()
        band = 1.0 + 10.0 * g.tol_root
        self.assert_counts_as_scipy(p, size, [band, g.effective_z_max(p), b])

    @settings(max_examples=40, deadline=None)
    @given(v0=st.floats(0.45, 0.55), sign=st.sampled_from([1.0, -1.0]))
    @example(v0=0.5, sign=1.0)
    @example(v0=0.5001, sign=1.0)
    @example(v0=0.51, sign=-1.0)
    def test_count_as_scipy_across_the_resonance(self, v0, sign):
        # the 2,000-site truncation of the bound-state oracle; near v0 = 1/2
        # the bound state leaves the band through its edge
        p = hl.rank_one(sign * v0)
        g = hl.GridSpec()
        self.assert_counts_as_scipy(p, 2000, [1.0 + 10.0 * g.tol_root, g.effective_z_max(p)])

    @pytest.mark.parametrize("diagonal,count", [
        ([1.0, 1.0], 1),        # first pivot of T - 1 is zero; eigenvalues 0.5, 1.5
        ([0.5, 0.5], 0),        # eigenvalue 1 lies on the bound, not beyond it
        ([-1.0, -1.0, 0.0], 1),  # first pivot of -T - 1 is zero; eigenvalue -1.59
    ])
    def test_zero_pivot_and_eigenvalue_on_the_bound(self, diagonal, count):
        t = hl.TridiagonalTruncation(diagonal=np.array(diagonal))
        assert t.eigenvalues_beyond([1.0]) == [count]

    def test_nan_pivot_refused(self):
        t = hl.TridiagonalTruncation(diagonal=np.array([0.0, np.nan, 0.0]))
        with pytest.raises(hl.NumericsError, match="NaN pivot"):
            t.eigenvalues_beyond([1.0])

    @settings(max_examples=60, deadline=None)
    @given(values=st.lists(st.one_of(st.floats(-3.0, 3.0),
                                     st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0, 1.5])),
                           min_size=1, max_size=12),
           size=st.integers(1, 66_000), tile=st.booleans(),
           bounds=st.lists(st.one_of(st.floats(0.0, 4.0), st.sampled_from([0.5, 1.0, 1.5])),
                           min_size=1, max_size=3))
    @example(values=[1.0], size=66_000, tile=True, bounds=[1.0, 1.5, 0.5])
    def test_counts_equal_reference(self, values, size, tile, bounds):
        # the table padded with zeros, as the truncation of a potential, or
        # repeated along the diagonal, with eigenvalues on and beyond the bounds
        diagonal = np.resize(values, size) if tile else np.zeros(size)
        diagonal[:len(values)] = values[:size]
        t = hl.TridiagonalTruncation(diagonal=diagonal)
        assert t.eigenvalues_beyond(bounds) == reference_sturm_counts(diagonal, bounds)

    @pytest.mark.parametrize("diagonal,bounds,at", [
        ([0.0, np.nan, 0.0], [1.0, 2.0], "1.0"),        # every chain ends NaN: the first
        ([0.0, 0.0, 0.0], [2.0, np.nan], "nan"),
        ([0.0, 0.0, 0.0], [2.0, 3.0, np.nan], "nan"),   # an odd last bound
    ])
    def test_first_nan_bound_named(self, diagonal, bounds, at):
        t = hl.TridiagonalTruncation(diagonal=np.array(diagonal))
        for counts in (t.eigenvalues_beyond, lambda b: reference_sturm_counts(t.diagonal, b)):
            with pytest.raises(hl.NumericsError, match=re.escape(f"NaN pivot at +-{at}")):
                counts(bounds)

class TestGridSpec:
    def test_invariants(self):
        with pytest.raises(hl.ConfigError):
            hl.GridSpec(m_theta=100, n_site=64)
        with pytest.raises(hl.ConfigError):
            hl.GridSpec(tol_root=0.0)

    def test_default_z_max(self):
        p = hl.rank_one(0.75)
        assert hl.GridSpec().effective_z_max(p) == pytest.approx(1 + 2 * 1.75)
