import math

import numpy as np
import pytest

import halfline as hl


class TestPotential:
    def test_rank_one_envelope(self):
        p = hl.rank_one(0.75, site=0, rho=3.0)
        assert p.envelope_const == 0.75
        assert p.support_end == 1

    def test_zero_envelope(self):
        p = hl.zero_potential()
        assert p.envelope_const == 0.0
        assert p.is_free()

    def test_table_envelope_scan_oracle(self):
        n = np.arange(21)
        vals = (1.0 + n) ** -3.0
        p = hl.table_potential(vals, rho=3.0)
        # direct scan of (1+n)^rho |V(n)| over the support
        oracle = max((1.0 + k) ** 3.0 * abs(vals[k]) for k in range(21))
        assert p.envelope_const == pytest.approx(oracle, abs=0)
        assert p.envelope_const == pytest.approx(1.0, rel=1e-15)

    def test_envelope_dominates_table(self):
        p = hl.random_decaying(0, amplitude=0.3)
        n = np.arange(p.support_end)
        assert np.all(p.envelope_const * (1.0 + n) ** (-p.rho) >= np.abs(p.values) - 1e-300)

    def test_rho_too_small_rejected(self):
        with pytest.raises(hl.AssumptionError, match="assumption violated"):
            hl.rank_one(0.75, rho=2.0)
        with pytest.raises(hl.AssumptionError):
            hl.rank_one(0.75, rho=2.5)   # boundary excluded

    def test_nonfinite_rejected(self):
        with pytest.raises(hl.ConfigError):
            hl.table_potential([0.1, np.nan], rho=3.0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(hl.ConfigError):
            hl.make_potential({"kind": "bogus"})

    def test_make_potential_dispatch(self):
        p = hl.make_potential({"kind": "rank_one", "v0": 0.5, "rho": 3.0})
        assert p.value(0) == 0.5 and p.value(1) == 0.0


class TestSpectralGeometry:
    def test_zeta_at_two(self):
        pt = hl.OffAxisPoint.from_z(2.0)
        assert pt.zeta == pytest.approx(2.0 - math.sqrt(3.0), abs=1e-15)
        # oracle: zeta solves zeta^2 - 2 z zeta + 1 = 0 inside the disk
        assert abs(pt.zeta ** 2 - 4.0 * pt.zeta + 1.0) < 1e-14
        assert abs(pt.zeta) < 1.0

    def test_zeta_at_minus_two(self):
        pt = hl.OffAxisPoint.from_z(-2.0)
        assert pt.zeta == pytest.approx(-2.0 + math.sqrt(3.0), abs=1e-15)
        assert abs(pt.zeta) < 1.0 and pt.zeta < 0.0

    def test_zeta_on_rim_at_zero(self):
        pt = hl.SpectralPoint.from_lambda(0.0)
        assert pt.zeta == pytest.approx(-1j, abs=1e-15)

    @pytest.mark.parametrize("z", [1.0001, 1.5, 3.0, 10.0, -1.2, -50.0])
    def test_offaxis_invariants(self, z):
        pt = hl.OffAxisPoint.from_z(z)
        assert abs(pt.zeta) < 1.0
        assert np.sign(pt.zeta) == np.sign(z)
        assert pt.zeta + 1.0 / pt.zeta == pytest.approx(2.0 * z, rel=1e-14)

    @pytest.mark.parametrize("lam", np.linspace(-1, 1, 17))
    def test_rim_invariants(self, lam):
        pt = hl.SpectralPoint.from_lambda(lam)
        assert abs(pt.zeta) == pytest.approx(1.0, abs=1e-15)
        assert pt.zeta.real == pytest.approx(lam, abs=1e-15)
        assert pt.zeta.imag <= 0.0
        assert pt.zeta + 1.0 / pt.zeta == pytest.approx(2.0 * lam, abs=1e-13)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_threshold_zeta_exact(self, sign):
        # sin(pi) != 0 in floating point; the threshold must not carry it
        pt = hl.SpectralPoint.threshold(sign)
        assert pt.zeta.imag == 0.0 and pt.zeta.real == sign == pt.lam
        assert hl.SpectralPoint.from_lambda(float(sign)).zeta == pt.zeta


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


class TestGridSpec:
    def test_invariants(self):
        with pytest.raises(hl.ConfigError):
            hl.GridSpec(m_theta=100, n_site=64)
        with pytest.raises(hl.ConfigError):
            hl.GridSpec(n_tail=10)
        with pytest.raises(hl.ConfigError):
            hl.GridSpec(tol_root=0.0)

    def test_default_z_max(self):
        p = hl.rank_one(0.75)
        assert hl.GridSpec().effective_z_max(p) == pytest.approx(1 + 2 * 1.75)
