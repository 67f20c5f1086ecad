import numpy as np
import pytest

import halfline as hl
from conftest import RANK_ONE_FAMILY


def small_grid(**kw):
    base = dict(m_theta=256, n_site=64, n_edge=1024)
    base.update(kw)
    return hl.GridSpec(**base)


class TestGammaCurve:
    def test_generic_edge_is_constant_one(self):
        alpha = np.linspace(-12, 12, 64)
        g = hl.gamma_curve(+1, 1.0, alpha)
        assert np.max(np.abs(g - 1.0)) == 0.0

    def test_resonant_value_at_zero(self):
        g = hl.gamma_curve(+1, -1.0, np.array([0.0]))
        assert g[0] == pytest.approx(-1j, abs=1e-15)

    def test_resonant_limits_hit_corners(self):
        alpha = np.array([-40.0, 40.0])
        gp = hl.gamma_curve(+1, -1.0, alpha)
        assert gp[0] == pytest.approx(-1.0, abs=1e-12)   # s(+1) corner
        assert gp[1] == pytest.approx(1.0, abs=1e-12)
        gm = hl.gamma_curve(-1, -1.0, alpha)
        assert gm[0] == pytest.approx(-1.0, abs=1e-12)
        assert gm[1] == pytest.approx(1.0, abs=1e-12)

    def test_resonant_edge_on_unit_circle(self):
        alpha = np.linspace(-12, 12, 201)
        g = hl.gamma_curve(-1, -1.0, alpha)
        assert np.max(np.abs(np.abs(g) - 1.0)) < 1e-12


class TestBoundaryAssembly:
    def test_free_curve_is_constant(self, scatter_cache):
        g = small_grid()
        p = hl.zero_potential()
        curve = hl.assemble_boundary(scatter_cache(p, g), g, hl.scattering_edge(p, g))
        assert np.max(np.abs(curve.points - 1.0)) < 1e-12
        assert np.min(np.abs(curve.points)) > 1 - 1e-12

    def test_corners_snapped_exactly(self, scatter_cache):
        g = small_grid()
        p = hl.rank_one(0.5)
        d = scatter_cache(p, g)
        curve = hl.assemble_boundary(d, g, hl.scattering_edge(p, g))
        sl = curve.edge_slices["scattering"]
        assert curve.points[sl.start] == -1.0       # s(+1): resonant
        assert curve.points[sl.stop - 1] == 1.0     # s(-1)

    def test_corner_mismatch_refused(self, scatter_cache):
        # Omega = i on the whole edge gives s = -1 where rank_one 0.75's
        # generic threshold puts the corner s(+1) = +1
        g = small_grid()
        p = hl.rank_one(0.75)
        beta, _ = hl.scattering_edge(p, g)
        with pytest.raises(hl.NumericsError, match="corner mismatch at scattering start"):
            hl.assemble_boundary(scatter_cache(p, g), g, (beta, 1j * np.ones(len(beta))))

    def test_curve_avoids_origin(self, scatter_cache):
        for v0 in (0.5, 0.75, 1.5):
            g = small_grid()
            p = hl.rank_one(v0)
            curve = hl.assemble_boundary(scatter_cache(p, g), g, hl.scattering_edge(p, g))
            assert np.min(np.abs(curve.points)) > 1e-3


class TestWindingNumber:
    @pytest.mark.parametrize("v0", RANK_ONE_FAMILY)
    def test_matches_bound_state_count(self, v0, scatter_cache):
        g = small_grid()
        p = hl.rank_one(v0)
        d = scatter_cache(p, g)
        rep = hl.winding_report(d, p, g)
        assert rep.winding == d.count_n
        assert rep.match
        assert abs(rep.raw_phase_total - rep.winding) < 0.05

    def test_per_edge_decomposition_generic(self, scatter_cache):
        g = small_grid()
        p = hl.rank_one(0.75)
        d = scatter_cache(p, g)
        rep = hl.winding_report(d, p, g)
        em, ep = hl.eta_endpoints(d)
        assert rep.per_edge["scattering"] == pytest.approx((ep - em) / np.pi, abs=0.02)
        assert rep.per_edge["gamma_minus"] == pytest.approx(0.0, abs=0.02)
        assert rep.per_edge["gamma_plus"] == pytest.approx(0.0, abs=0.02)
        assert rep.per_edge["constant"] == 0.0

    @pytest.mark.parametrize("v0,edges", [
        (0.5, {"scattering": 0.5, "gamma_minus": 0.0, "gamma_plus": -0.5}),
        (-0.5, {"scattering": 0.5, "gamma_minus": -0.5, "gamma_plus": 0.0}),
    ])
    def test_per_edge_decomposition_resonant(self, v0, edges, scatter_cache):
        g = small_grid()
        p = hl.rank_one(v0)
        d = scatter_cache(p, g)
        rep = hl.winding_report(d, p, g)
        assert rep.winding == 0
        for name, val in edges.items():
            assert rep.per_edge[name] == pytest.approx(val, abs=0.02)

    def test_refinement_invariance(self, scatter_cache):
        p = hl.rank_one(0.75)
        g1, g2 = small_grid(), small_grid(n_edge=2048)
        assert (hl.winding_report(scatter_cache(p, g1), p, g1).winding
                == hl.winding_report(scatter_cache(p, g2), p, g2).winding)

    def test_undersampled_guard(self, scatter_cache):
        g = small_grid(n_edge=16)
        p = hl.rank_one(0.75)
        with pytest.raises(hl.NumericsError, match="undersampled"):
            hl.winding_report(scatter_cache(p, g), p, g)

    def test_phase_jump_refused(self):
        # a closed curve of quarter turns and one half turn back
        pts = np.array([1, 1j, -1, -1j, 1, -1, 1], dtype=complex)
        curve = hl.BoundaryCurve(
            points=pts, params=np.arange(7.0),
            edge_slices={"scattering": slice(0, 7), "gamma_minus": slice(7, 7),
                         "constant": slice(7, 7), "gamma_plus": slice(7, 7)})
        with pytest.raises(hl.NumericsError, match="undersampled: phase jump"):
            hl.winding_number(curve, hl.GridSpec().tol_winding, count_n=1)

    def test_open_arc_not_integer(self):
        # quarter turn: the rounding residual 0.25 exceeds any sane tolerance
        t = np.linspace(0.0, np.pi / 2, 200)
        pts = np.exp(1j * t)
        n = len(pts)
        curve = hl.BoundaryCurve(
            points=pts, params=t,
            edge_slices={"scattering": slice(0, n), "gamma_minus": slice(n, n),
                         "constant": slice(n, n), "gamma_plus": slice(n, n)})
        with pytest.raises(hl.NumericsError, match="not integer"):
            hl.winding_number(curve, hl.GridSpec().tol_winding, count_n=0)
