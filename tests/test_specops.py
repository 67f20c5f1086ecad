from dataclasses import replace

import numpy as np
import pytest

import halfline as hl
from conftest import closed_form_omega, shift_identity, wave_identity
from halfline import _kernels

#: the default threshold tolerance of GridSpec
TOL = hl.GridSpec().tol_threshold


def coupling_pv_matrix(grid):
    """Skip-diagonal principal-value discretisation of the singular kernel
    (i/pi) (1-lambda^2)^(1/4) (nu-lambda)^(-1) (1-nu^2)^(-1/4), in the
    sqrt(w)-normalised grid coordinates."""
    lam = np.cos(grid.theta)
    sw = grid.sqrt_weights
    jj, kk = np.meshgrid(np.arange(grid.m), np.arange(grid.m), indexing="ij")
    with np.errstate(divide="ignore", invalid="ignore"):
        ker = (1j / np.pi) * (1.0 - lam[jj] ** 2) ** 0.25 \
            / (lam[kk] - lam[jj]) / (1.0 - lam[kk] ** 2) ** 0.25
    np.fill_diagonal(ker, 0.0)
    return sw[:, None] * ker * sw[None, :]


def pv_action_gap(grid):
    """Relative difference between Fsin U Fsin^* and the principal-value
    matrix acting on a smooth odd test function.

    The skip-diagonal rule does not converge in full operator norm (the
    threshold rows are singular); on smooth data the gap halves with each
    grid doubling.
    """
    F = grid.fsin
    lhs = F @ hl.cos_sin_coupling(grid) @ F.conj().T
    A = coupling_pv_matrix(grid)
    gvec = np.cos(grid.theta) * (1.0 - np.cos(grid.theta) ** 2) * grid.sqrt_weights
    return float(np.linalg.norm((lhs - A) @ gvec) / np.linalg.norm(gvec))


@pytest.fixture(scope="module")
def pack075(grid_default, scatter_cache):
    p = hl.rank_one(0.75)
    d = scatter_cache(p, grid_default)
    grid = hl.quadrature_grid(grid_default.m_theta, grid_default.n_site)
    return p, d, grid


@pytest.mark.parametrize("build", [hl.scattering_operator,
                                   lambda d, grid: hl.jost_transform(d, grid, TOL),
                                   hl.correction_operator],
                         ids=["scattering_operator", "jost_transform", "correction_operator"])
def test_grid_of_another_m_refused(pack075, build):
    # the data on m_theta points, the cut grid of half as many
    _, d, grid = pack075
    with pytest.raises(hl.NumericsError, match="scattering data and quadrature grid disagree"):
        build(d, hl.quadrature_grid(grid.m // 2, grid.n_site))


class TestQuadrature:
    def test_weights_sum_to_two(self):
        # midpoint rule: the total weight converges to 2 at second order
        errs = [abs(np.sum(hl.quadrature_grid(m, 2).weights) - 2.0) for m in (64, 128)]
        assert errs[1] < errs[0] / 3.5
        assert errs[1] < 1e-4

    def test_nodes_strictly_interior_and_sorted(self):
        g = hl.quadrature_grid(32, 2)
        assert np.all(np.diff(np.cos(g.theta)) > 0)
        assert np.all(np.abs(np.cos(g.theta)) < 1.0)

    def test_first_of_all_sites_is_the_grid(self):
        grid = hl.quadrature_grid(256, 64)
        whole = grid.first(64)
        assert whole.n_site == 64 and whole.m == 256
        for name in ("theta", "weights", "fsin", "fcos"):
            assert np.array_equal(getattr(whole, name), getattr(grid, name)), name

    @pytest.mark.parametrize("b", [-1, 0, 65])
    def test_first_refuses_a_block_outside_the_grid(self, b):
        with pytest.raises(ValueError, match=rf"b = {b} is not in 1\.\.n_site = 64"):
            hl.quadrature_grid(256, 64).first(b)


class TestTransforms:
    def test_small_gram_exact(self):
        g = hl.quadrature_grid(8, 4)
        F, C = g.fsin, g.fcos
        assert np.max(np.abs(F.T @ F - np.eye(4))) < 1e-12
        assert np.max(np.abs(C.T @ C - np.eye(4))) < 1e-12

    def test_large_gram_exact(self):
        F = hl.quadrature_grid(512, 128).fsin
        assert np.max(np.abs(F.T @ F - np.eye(128))) < 1e-10

    def test_entries_match_kernel_definition(self):
        g = hl.quadrature_grid(16, 3)
        F, C = g.fsin, g.fcos
        sw = g.sqrt_weights
        psi_sin = np.sqrt(2 / np.pi) * np.sin(np.outer(g.theta, [1, 2, 3])) \
            / (1 - np.cos(g.theta)[:, None] ** 2) ** 0.25
        psi_cos = np.sqrt(2 / np.pi) * np.cos(np.outer(g.theta, [1, 2, 3])) \
            / (1 - np.cos(g.theta)[:, None] ** 2) ** 0.25
        assert np.max(np.abs(F - sw[:, None] * psi_sin)) < 1e-14
        assert np.max(np.abs(C - sw[:, None] * psi_cos)) < 1e-14

    def test_sine_diagonalizes_free_hamiltonian(self):
        g = hl.quadrature_grid(512, 64)
        F = g.fsin
        off = 0.5 * np.ones(63)
        H0 = np.diag(off, 1) + np.diag(off, -1)
        resid = F @ H0 - np.cos(g.theta)[:, None] * F
        assert np.max(np.abs(resid[:, :63])) < 1e-12   # all but the cut column

    def test_site_count_guard(self):
        with pytest.raises(hl.NumericsError, match="grid too small"):
            hl.quadrature_grid(8, 5)


class TestCouplingOperator:
    def test_potential_independent_bitwise(self):
        u1 = hl.cos_sin_coupling(hl.quadrature_grid(512, 64))
        u2 = hl.cos_sin_coupling(hl.quadrature_grid(512, 64))
        assert np.array_equal(u1, u2)

    def test_co_isometry_defect_small_and_shrinking(self):
        # UU^* = 1 holds in infinite volume; the truncation defect decays
        # like 1/n_site (U is co-isometric, not unitary: U^*U has a
        # macroscopic rank-one defect from the missing constant mode)
        defects = []
        for (m, n) in ((512, 64), (512, 128), (1024, 256)):
            U = hl.cos_sin_coupling(hl.quadrature_grid(m, n))
            D = U @ U.conj().T - np.eye(n)
            defects.append(np.max(np.abs(D[: n // 2, : n // 2])))
        assert defects[0] < 2e-2
        assert defects[2] < defects[0]

    def test_adjoint_order_not_unitary(self):
        U = hl.cos_sin_coupling(hl.quadrature_grid(512, 64))
        D = U.conj().T @ U - np.eye(64)
        assert abs(D[0, 0]) > 0.5    # constant-mode defect is O(1)


class TestWaveTransforms:
    def test_free_equals_sine(self, grid_default, scatter_cache):
        p = hl.zero_potential()
        d = scatter_cache(p, grid_default)
        grid = hl.quadrature_grid(grid_default.m_theta, 64)
        Fm = hl.jost_transform(d, grid, TOL)
        F = grid.fsin
        assert np.max(np.abs(np.conj(Fm) - F)) < 1e-12
        assert np.max(np.abs(Fm - F)) < 1e-12

    def test_resonant_grid_guard(self, grid_default, scatter_cache):
        # amplitude dips toward 0 near a resonant threshold; a tolerance
        # above the nodal minimum must be refused
        p = hl.rank_one(0.5)
        d = scatter_cache(p, grid_default)
        grid = hl.quadrature_grid(grid_default.m_theta, 64)
        with pytest.raises(hl.NumericsError, match="resonant grid"):
            hl.jost_transform(d, grid, tol_threshold=1e-2)

    def test_plus_transform_is_conjugate(self, pack075):
        # F_+ from psi_+ = sqrt(2/pi) (1-lambda^2)^(1/4) phi conj(Omega)/|Omega|^2
        # is conj(F_-) bit for bit, and so is W_+ = F_+^* Fsin, which the real
        # product forms to rounding
        p, d, _ = pack075
        n = 64
        grid = hl.quadrature_grid(d.m_theta, n)
        phi = _kernels.regular_values(p.values, 2.0 * d.lam, n - 1)[1:]
        sq = np.sqrt(2.0 / np.pi) * (1.0 - d.lam ** 2) ** 0.25 / d.amplitude
        Fp = grid.sqrt_weights[:, None] * (sq * phi * np.conj(d.omega / d.amplitude)).T
        assert np.array_equal(Fp, np.conj(hl.jost_transform(d, grid, TOL)))
        W_plus = hl.wave_operator(d, grid, TOL, sign=+1)
        assert np.array_equal(W_plus, np.conj(hl.wave_operator(d, grid, TOL)))
        assert np.max(np.abs(W_plus - Fp.conj().T @ grid.fsin)) < 1e-14

    def test_kernel_value_against_closed_form(self, pack075):
        p, d, _ = pack075
        grid = hl.quadrature_grid(d.m_theta, 8)
        Fp = np.conj(hl.jost_transform(d, grid, TOL))
        j = 200
        om = closed_form_omega(0.75, np.exp(-1j * d.theta)[j])
        a = abs(om)
        sigma_m = np.conj(om) / a
        expected = np.sqrt(grid.weights[j]) * np.sqrt(2 / np.pi) \
            * (1 - d.lam[j] ** 2) ** 0.25 * sigma_m / a   # phi(0) = 1
        assert Fp[j, 0] == pytest.approx(expected, rel=1e-12)


class TestWaveOperator:
    def test_free_identity(self, grid_default, scatter_cache):
        p = hl.zero_potential()
        d = scatter_cache(p, grid_default)
        W = hl.wave_operator(d, hl.quadrature_grid(grid_default.m_theta, 64), TOL)
        assert np.max(np.abs(W - np.eye(64))) < 1e-12

    def test_isometry_generic(self, pack075):
        p, d, grid = pack075
        W = hl.wave_operator(d, grid, TOL)
        assert hl.wave_isometry_defect(W) < 1e-6

    def test_isometry_two_site(self, grid_default, scatter_cache):
        p = hl.table_potential([0.3, -0.2], rho=3.0)
        d = scatter_cache(p, grid_default)
        W = hl.wave_operator(d, hl.quadrature_grid(512, 128), TOL)
        assert hl.wave_isometry_defect(W) < 1e-6

    def test_isometry_resonant_degrades(self, grid_default, scatter_cache):
        # threshold resonance slows the co-isometry convergence to ~1e-4
        p = hl.rank_one(0.5)
        d = scatter_cache(p, grid_default)
        W = hl.wave_operator(d, hl.quadrature_grid(512, 128), TOL)
        assert hl.wave_isometry_defect(W) < 5e-4

    def test_completeness_against_projector(self, pack075):
        p, d, grid = pack075
        W = hl.wave_operator(d, grid, TOL)
        assert hl.completeness_defect(W, p) < 1e-4


class TestScatteringOperator:
    def test_free_identity(self, grid_default, scatter_cache):
        p = hl.zero_potential()
        d = scatter_cache(p, grid_default)
        S = hl.scattering_operator(d, hl.quadrature_grid(512, 64))
        assert np.max(np.abs(S - np.eye(64))) < 1e-12

    def test_commutes_with_free_hamiltonian(self, pack075):
        p, d, grid = pack075
        S = hl.scattering_operator(d, grid)
        off = 0.5 * np.ones(127)
        H0 = np.diag(off, 1) + np.diag(off, -1)
        comm = S @ H0 - H0 @ S
        assert np.max(np.abs(comm[:64, :64])) < 1e-6

    def test_unitary_defect_interior(self, pack075):
        p, d, grid = pack075
        S = hl.scattering_operator(d, grid)
        D = S.conj().T @ S - np.eye(128)
        assert np.max(np.abs(D[:64, :64])) < 1e-5

    def test_consistent_with_wave_operator_product(self, pack075):
        p, d, grid = pack075
        S = hl.scattering_operator(d, grid)
        Wm = hl.wave_operator(d, grid, TOL, sign=-1)
        Wp = hl.wave_operator(d, grid, TOL, sign=+1)
        D = S - Wp.conj().T @ Wm
        assert np.max(np.abs(D[:64, :64])) < 2e-6


class TestCorrectionOperator:
    def test_free_vanishes(self, grid_default, scatter_cache):
        p = hl.zero_potential()
        d = scatter_cache(p, grid_default)
        c = hl.correction_operator(d, hl.quadrature_grid(512, 64))
        assert np.max(np.abs(c)) < 1e-13

    def test_rank_one_vanishes_on_sites(self, pack075):
        # the tail is exact from site 0 on, so the kernel is zero there
        p, d, _ = pack075
        c = hl.correction_operator(d, hl.quadrature_grid(d.m_theta, 64))
        assert np.max(np.abs(c)) < 1e-13

    def test_two_site_structure(self, grid_default, scatter_cache):
        p = hl.table_potential([0.3, -0.2], rho=3.0)
        d = scatter_cache(p, grid_default)
        c = hl.correction_operator(d, hl.quadrature_grid(512, 64))
        rows = np.max(np.abs(c), axis=1)
        assert rows[0] > 0.1                      # site 0 feels the tail
        assert np.max(rows[1:]) < 1e-13           # exact beyond the support
        assert np.isfinite(np.linalg.norm(c))

    def test_long_table_decays(self, grid_default, scatter_cache):
        n = np.arange(21)
        p = hl.table_potential(0.5 * (1.0 + n) ** -3.0, rho=3.0)
        d = scatter_cache(p, grid_default)
        c = hl.correction_operator(d, hl.quadrature_grid(512, 64))
        rows = np.max(np.abs(c), axis=1)
        assert rows[0] > rows[5] > rows[15]
        assert np.max(rows[21:]) < 1e-13


    @pytest.mark.parametrize("p", [hl.rank_one(0.75), hl.table_potential([0.3, -0.2], rho=3.0),
                                   hl.random_decaying(3, rho_gen=4.0)],
                             ids=["rank_one", "two_site", "random_rho4"])
    def test_kept_rows_equal_fresh_recursion(self, p, grid_default, scatter_cache):
        d = scatter_cache(p, grid_default)
        n = grid_default.n_site
        zeta = np.exp(-1j * d.theta)
        fresh = replace(d, jost_rows=_kernels.jost_scaled(p.values, zeta, n - 1)[1])
        assert np.array_equal(d.jost_rows[:n + 1], fresh.jost_rows)
        grid = hl.quadrature_grid(512, n)
        assert np.array_equal(hl.correction_operator(d, grid),
                              hl.correction_operator(fresh, grid))

    @pytest.mark.parametrize("p", [hl.rank_one(0.75), hl.table_potential([0.3, -0.2], rho=3.0),
                                   hl.random_decaying(0, amplitude=1.5, rho_gen=4.0)],
                             ids=["rank_one", "two_site", "random_rho4"])
    def test_matches_zeta_power_formula(self, p, grid_default, scatter_cache):
        # zeta^(n+1) read from the cosine and sine tables against the complex
        # power of zeta, with the kernel and the sine columns written out here
        d = scatter_cache(p, grid_default)
        n = grid_default.n_site
        grid = hl.quadrature_grid(d.m_theta, n)
        powers = np.exp(-1j * d.theta)[None, :] ** np.arange(1, n + 1)[:, None]
        # past the table the rows are the free tail zeta^(n+1), where p is 0
        L = p.support_end
        assert np.max(np.abs(d.jost_rows[L:n + 1] - powers[L - 1:]), initial=0.0) < 1e-13
        pz = (d.jost_rows[1:n + 1] - powers) / (1.0 - d.lam ** 2) ** 0.25
        pz[L - 1:] = 0.0
        k0 = np.sqrt(2.0 / np.pi) * (np.conj(pz) - d.smatrix[None, :] * pz) / 2j
        psi_sin = np.sqrt(2.0 / np.pi) * np.sin(np.outer(grid.theta, np.arange(1, n + 1))) \
            / (1.0 - np.cos(grid.theta)[:, None] ** 2) ** 0.25
        ref = (k0 * grid.weights[None, :]) @ psi_sin
        K = hl.correction_operator(d, grid)
        assert np.max(np.abs(K - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_more_sites_than_kept_rows_refused(self, scatter_cache):
        p = hl.rank_one(0.75)
        d = scatter_cache(p, hl.GridSpec(n_site=64))
        with pytest.raises(ValueError, match="keeps Jost rows for 64 sites"):
            hl.correction_operator(d, hl.quadrature_grid(512, 128))


class TestWaveIdentity:
    def test_free_residual_at_floor(self, scatter_cache):
        g = hl.GridSpec(m_theta=256, n_site=64)
        p = hl.zero_potential()
        d = scatter_cache(p, g)
        assert wave_identity(d, g) < 1e-10

    def test_rank_one_meets_gate(self, grid_default, scatter_cache):
        p = hl.rank_one(0.75)
        d = scatter_cache(p, grid_default)
        assert wave_identity(d, grid_default) < 1e-7

    def test_second_order_refinement(self, scatter_cache):
        # quadrature-limited residual falls at least 4x per m doubling
        p = hl.table_potential([0.3, -0.2], rho=3.0)
        g1 = hl.GridSpec(m_theta=256, n_site=64)
        g2 = hl.GridSpec(m_theta=512, n_site=64)
        r1 = wave_identity(scatter_cache(p, g1), g1)
        r2 = wave_identity(scatter_cache(p, g2), g2)
        assert r1 / r2 >= 4.0

    @pytest.mark.parametrize("m", [256, 512])
    def test_block_equals_full_composition(self, m, scatter_cache):
        from halfline.specops import _composed_block
        p = hl.table_potential([0.3, -0.2], rho=3.0)
        g = hl.GridSpec(m_theta=m, n_site=64)
        d = scatter_cache(p, g)
        grid = hl.quadrature_grid(m, g.n_site)
        ni, b = m - 2, 32
        # (U+1)/2 (S-1) composed in full at m-2 sites
        F = np.sqrt(2.0 / m) * np.sin(np.outer(grid.theta, np.arange(1, ni + 1)))
        C = np.sqrt(2.0 / m) * np.cos(np.outer(grid.theta, np.arange(1, ni + 1)))
        U = 1j * (C.T @ F)
        S = F.T @ (d.smatrix[:, None] * F)
        A = (U + np.eye(ni)) / 2.0 @ (S - np.eye(ni))
        block = _composed_block(grid.first(b), d.smatrix)
        assert np.max(np.abs(block - A[:b, :b])) < 1e-13
        W = hl.wave_operator(d, grid, TOL)[:b, :b]
        K = hl.correction_operator(d, grid)[:b, :b]
        full = np.max(np.abs(W - np.eye(b) - A[:b, :b] - K))
        assert abs(wave_identity(d, g) - full) < 1e-13

    def test_second_order_over_four_doublings(self):
        # only the gate's block is composed, so m_theta = 8192 is cheap
        p = hl.table_potential([0.3, -0.2], rho=3.0)
        g = hl.GridSpec()
        res = [wave_identity(d, g)
               for d in hl.scattering_grids(p, g, [512, 1024, 2048, 4096, 8192])]
        ratios = np.array(res[:-1]) / np.array(res[1:])
        assert np.all(ratios >= 4.0), ratios


class TestInteriorBlock:
    """The operator stage forms W_- and K0 Fsin on the interior block
    b = n_site/2 alone, on `QuadratureGrid.first(b)`: each block form has the
    bits of the full form's b x b block.  The random table's K0 is nonzero
    on every site, inside the block and past it."""

    SMALL = hl.GridSpec(m_theta=256, n_site=64, m_beta=512, n_edge=1024)

    @pytest.fixture(scope="class", params=[
        hl.rank_one(0.75), hl.table_potential([0.3, -0.2], rho=3.0),
        hl.random_decaying(0, rho_gen=4.0)], ids=["rank_one_0.75", "two_site", "random"])
    def data(self, request, scatter_cache):
        d = scatter_cache(request.param, self.SMALL)
        return d, hl.quadrature_grid(d.m_theta, self.SMALL.n_site), self.SMALL.n_site // 2

    def test_first_is_views(self, data):
        _, grid, b = data
        first = grid.first(b)
        assert first.n_site == b and first.m == grid.m and first.theta is grid.theta
        assert first.fsin.base is grid.fsin and first.fcos.base is grid.fcos
        assert np.array_equal(first.fsin, grid.fsin[:, :b])

    def test_correction_operator(self, data):
        d, grid, b = data
        assert np.array_equal(hl.correction_operator(d, grid.first(b)),
                              hl.correction_operator(d, grid)[:b, :b])

    @pytest.mark.parametrize("sign", [-1, 1])
    def test_wave_operator(self, data, sign):
        d, grid, b = data
        assert np.array_equal(hl.wave_operator(d, grid.first(b), TOL, sign=sign),
                              hl.wave_operator(d, grid, TOL, sign=sign)[:b, :b])

    def test_wave_identity_residual_reads_the_block(self, data):
        d, grid, b = data
        W = hl.wave_operator(d, grid, TOL)
        full = hl.wave_identity_residual(d, grid, W)
        assert hl.wave_identity_residual(d, grid, W[:b, :b]) == full
        assert full <= 1e-6


class TestPrincipalValue:
    def test_kernel_entries_definition(self):
        g = hl.quadrature_grid(16, 2)
        A = coupling_pv_matrix(g)
        j, k = 3, 11
        lam = np.cos(g.theta)
        expect = 2.0 * (1j / (2 * np.pi)) * (1 - lam[j] ** 2) ** 0.25 \
            / (lam[k] - lam[j]) / (1 - lam[k] ** 2) ** 0.25 \
            * np.sqrt(g.weights[j] * g.weights[k])
        assert A[j, k] == pytest.approx(expect, rel=1e-14)
        assert A[j, j] == 0.0

    def test_action_gap_small_and_shrinking(self):
        gaps = [pv_action_gap(hl.quadrature_grid(m, m // 4)) for m in (256, 512)]
        assert gaps[1] < 1e-2
        assert gaps[1] < 0.7 * gaps[0]


def full_shift_identity(grid, U):
    """The shift-identity residuals from the n_site x n_site products, read
    on their n_site/2 block: the form before only the block was formed."""
    F, n = grid.fsin, grid.n_site
    block = n // 2
    sth = np.sin(grid.theta)
    T = np.diag(np.ones(n - 1), -1)
    H0 = (T + T.T) / 2.0
    composite = F.T @ (sth[:, None] * grid.fcos)
    sqrt_term = F.T @ (sth[:, None] * F)
    naive = 1j * (sqrt_term @ U.conj().T)
    r_comp = float(np.max(np.abs((T - H0 - composite)[:block, :block])))
    r_naive = float(np.max(np.abs((T - H0 - naive)[:block, :block])))
    return {"composite": r_comp, "naive_product": r_naive}


class TestShiftIdentity:
    @pytest.mark.parametrize("m,n_site", [(256, 64), (512, 128), (1024, 128)])
    def test_block_equals_full_form(self, m, n_site):
        grid = hl.quadrature_grid(m, n_site)
        U = hl.cos_sin_coupling(grid)
        got, expect = hl.shift_identity_residual(grid, U), full_shift_identity(grid, U)
        assert got.keys() == expect.keys()
        for key in expect:
            assert np.array_equal(got[key], expect[key]), key

    def test_composite_exact(self):
        res = shift_identity(hl.GridSpec())
        assert res["composite"] < 1e-10

    def test_naive_product_carries_leakage(self):
        res = shift_identity(hl.GridSpec())
        assert res["naive_product"] > res["composite"]
