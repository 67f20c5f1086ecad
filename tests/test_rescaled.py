import numpy as np
import pytest

import halfline as hl
from conftest import shift_symbol_apply, symbol_remainder
from halfline.rescaled import sech_pi_d_symbol, symbol_columns, tanh_pi_d_symbol


def rescale_intertwining_defect(bg, n_site):
    """Max-norm of R H0 - tanh(X) R on interior columns (exact identity of
    the sine recursion under lambda = tanh beta)."""
    R = hl.energy_rescale_matrix(bg, n_site)
    H0 = (np.diag(np.ones(n_site - 1), 1) + np.diag(np.ones(n_site - 1), -1)) / 2.0
    lhs = R @ H0
    rhs = np.tanh(bg.beta)[:, None] * R
    return float(np.max(np.abs((lhs - rhs)[:, : n_site - 1])))


@pytest.fixture(scope="module")
def bg1024():
    return hl.beta_grid(1024, 12.0)


class TestBetaGrid:
    def test_spacing_invariant(self, bg1024):
        assert bg1024.h * bg1024.m_beta == pytest.approx(24.0)
        assert np.all(np.abs(np.tanh(bg1024.beta)) < 1.0)

    def test_odd_count_rejected(self):
        with pytest.raises(hl.NumericsError):
            hl.beta_grid(1023, 12.0)


def fourier_apply(symbol, X):
    """a(D) X on the periodised grid by complex FFT, the multiplier a given on
    the DFT bins: the reference for the real-arithmetic symbols."""
    return np.fft.ifft(symbol[:, None] * np.fft.fft(X, axis=0), axis=0)


def dense_multiplier(symbol):
    """FFT of the identity: the dense matrix of a Fourier multiplier."""
    eye = np.eye(symbol.size)
    return np.fft.ifft(symbol[:, None] * np.fft.fft(eye, axis=0), axis=0)


class TestFourierMultipliers:
    def test_pure_frequency_is_eigenvector(self, bg1024):
        xi0 = bg1024.xi[17]
        v = np.exp(1j * xi0 * bg1024.beta)
        Tv = fourier_apply(tanh_pi_d_symbol(bg1024), v[:, None])[:, 0]
        assert np.max(np.abs(Tv - np.tanh(np.pi * xi0) * v)) < 1e-10

    def test_sech_preserves_constants(self, bg1024):
        v = np.ones((bg1024.m_beta, 1), dtype=complex)
        Sv = fourier_apply(sech_pi_d_symbol(bg1024), v)
        assert np.max(np.abs(Sv - v)) < 1e-12     # sech(0) = 1 on the DC bin

    def test_nyquist_bin_zeroed_for_odd_symbol(self, bg1024):
        s = tanh_pi_d_symbol(bg1024)
        assert s[bg1024.m_beta // 2] == 0.0

    @pytest.mark.parametrize("m_beta", [256, 1024])
    def test_real_form_matches_complex_fft(self, m_beta):
        # q = -i pdo X and v = -i tanh(pi D) X from one rfft, and the two
        # symbols built on them, against the complex-FFT multipliers
        bg = hl.beta_grid(m_beta, 12.0)
        eye = np.eye(m_beta)
        T, S = fourier_apply(tanh_pi_d_symbol(bg), eye), fourier_apply(sech_pi_d_symbol(bg), eye)
        with np.errstate(over="ignore"):
            sech_b = 1.0 / np.cosh(bg.beta)
        pdo = -T + 1j * np.tanh(bg.beta / 2.0)[:, None] * S
        shift = np.tanh(bg.beta)[:, None] * eye - 1j * sech_b[:, None] * T
        q, v = symbol_columns(bg, eye)
        assert q.dtype == v.dtype == np.float64
        assert np.max(np.abs(1j * q - pdo)) <= 1e-14
        assert np.max(np.abs(1j * v - T)) <= 1e-14
        assert np.max(np.abs(hl.pdo_apply(bg, eye) - pdo)) <= 1e-14
        assert np.max(np.abs(shift_symbol_apply(bg, eye) - shift)) <= 1e-14

    def test_pdo_matrix_potential_free(self, bg1024):
        a = hl.pdo_apply(bg1024, np.eye(bg1024.m_beta))
        b = hl.pdo_apply(hl.beta_grid(1024, 12.0), np.eye(1024))
        assert np.array_equal(a, b)


class TestMatrixFreeSymbols:
    """The symbols applied to columns against dense FFT-of-identity matrices
    built here from the symbols' formulas."""

    @pytest.fixture(scope="class", params=[256, 1024])
    def dense(self, request):
        bg = hl.beta_grid(request.param, 12.0)
        tanh_sym = np.tanh(np.pi * bg.xi)
        tanh_sym[bg.m_beta // 2] = 0.0
        with np.errstate(over="ignore"):
            sech_sym = 1.0 / np.cosh(np.pi * bg.xi)
            sech_x = 1.0 / np.cosh(bg.beta)
        T, S = dense_multiplier(tanh_sym), dense_multiplier(sech_sym)
        return bg, {
            "tanh": T,
            "sech": S,
            "pdo": -T + 1j * np.tanh(bg.beta / 2.0)[:, None] * S,
            "shift": np.diag(np.tanh(bg.beta)) - 1j * sech_x[:, None] * T,
        }

    def test_applications_match_dense(self, dense):
        bg, M = dense
        X = np.random.default_rng(7).standard_normal((bg.m_beta, 12))
        got = {
            "tanh": fourier_apply(tanh_pi_d_symbol(bg), X),
            "sech": fourier_apply(sech_pi_d_symbol(bg), X),
            "pdo": hl.pdo_apply(bg, X),
            "shift": shift_symbol_apply(bg, X),
        }
        for name, val in got.items():
            assert np.max(np.abs(val - M[name] @ X)) < 1e-13, name
        assert np.max(np.abs(hl.pdo_apply(bg, np.eye(bg.m_beta)) - M["pdo"])) < 1e-13

    def test_pull_back_matches_dense(self, dense):
        bg, M = dense
        n = bg.m_beta // 8
        R = hl.energy_rescale_matrix(bg, n)
        for name, apply in (("pdo", hl.pdo_apply), ("shift", shift_symbol_apply)):
            diff = R.T @ apply(bg, R) - R.T @ M[name] @ R
            assert np.max(np.abs(diff)) < 1e-13, name


class TestRescaleMatrix:
    def test_gram_near_identity(self, bg1024):
        R = hl.energy_rescale_matrix(bg1024, 64)
        G = R.T @ R
        assert np.max(np.abs(G - np.eye(64))) < 1e-10

    def test_interior_gram_at_larger_site_count(self, bg1024):
        R = hl.energy_rescale_matrix(bg1024, 128)
        assert np.max(np.abs((R.T @ R - np.eye(128))[:64, :64])) < 1e-6

    def test_column_formula(self, bg1024):
        R = hl.energy_rescale_matrix(bg1024, 4)
        b = bg1024.beta
        theta_b = 2.0 * np.arctan(np.exp(-b))
        col0 = np.sqrt(bg1024.h) / np.cosh(b) * np.sqrt(2 / np.pi) \
            * np.sin(theta_b) / (1 - np.tanh(b) ** 2) ** 0.25
        assert np.max(np.abs(R[:, 0] - col0)) < 1e-12

    def test_window_guard(self):
        with pytest.raises(hl.NumericsError, match="beta window too small"):
            hl.energy_rescale_matrix(hl.beta_grid(1024, 3.0), 64)
        with pytest.raises(hl.NumericsError, match="beta window too small"):
            hl.energy_rescale_matrix(hl.beta_grid(128, 12.0), 64)

    def test_tanh_intertwining(self, bg1024):
        assert rescale_intertwining_defect(bg1024, 64) < 1e-12


class TestWeylRelation:
    @pytest.mark.parametrize("p,q", [(1, 1), (3, 7), (16, 2), (100, 33)])
    def test_commensurate_pair_exact(self, p, q):
        bg = hl.beta_grid(256, 12.0)
        assert hl.weyl_commutation_defect(bg, p, q) < 1e-13


class TestHyperbolicKernel:
    def test_weight_bounds(self):
        t = np.linspace(-20, 20, 101)
        b = hl.b_weight(t)
        assert np.all(b >= 1.0 - 1e-12) and np.all(b <= np.sqrt(2.0) + 1e-12)

    def test_conjugated_symbol_matches_kernel(self, bg1024):
        assert hl.pv_kernel_action_gap(bg1024) < 2e-2

    def test_action_gap_equals_dense_conjugation(self, bg1024):
        # the gap of w P(g/w) equals that of the dense matrix w P w^(-1)
        P = hl.pdo_apply(bg1024, np.eye(bg1024.m_beta))
        K = hl.hyperbolic_pv_matrix(bg1024)
        w = hl.b_weight(bg1024.beta)
        conj = w[:, None] * P / w[None, :]
        worst = 0.0
        for c in (-2.0, 0.0, 1.5):
            g = np.exp(-(bg1024.beta - c) ** 2)
            worst = max(worst, np.linalg.norm((conj - K) @ g) / np.linalg.norm(g))
        assert abs(hl.pv_kernel_action_gap(bg1024) - worst) < 1e-13

    def test_weight_commutator_compact(self):
        # [b(X), symbol] has rapidly decaying singular values: the weight
        # conjugation changes the symbol only by a compact piece
        bg = hl.beta_grid(512, 12.0)
        P = hl.pdo_apply(bg, np.eye(bg.m_beta))
        B = np.diag(hl.b_weight(bg.beta))
        sv = np.linalg.svd(B @ P - P @ B, compute_uv=False)
        assert sv[0] < 0.5
        assert sv[31] < 0.1 * sv[0]
        assert sv[63] < 0.01 * sv[0]


def coupling(g):
    return hl.cos_sin_coupling(hl.quadrature_grid(g.m_theta, g.n_site))


class TestCouplingRemainder:
    def test_compactness_profile(self):
        g = hl.GridSpec(m_theta=512, n_site=64, m_beta=512)
        rep = symbol_remainder(coupling(g), g, hl.pdo_apply)
        assert rep.s1 < 1.0
        assert rep.rank_tenth <= g.m_beta // 16
        sv = rep.singular_values
        assert sv[0] >= sv[-1]

    def test_stability_under_refinement(self, operator_stage):
        g = hl.GridSpec(m_theta=512, n_site=64, m_beta=512)
        out = operator_stage(hl.zero_potential(), g)["coupling_symbol"]
        assert out["rel_change"] < 0.05

    def test_converges_over_four_doublings(self):
        # matrix-free, m_beta = 16384 costs O(m_beta n_site) memory
        g = hl.GridSpec(m_theta=512, n_site=128)
        mbs = (1024, 2048, 4096, 8192, 16384)
        reps = [symbol_remainder(coupling(g), g, hl.pdo_apply, m_beta=mb) for mb in mbs]
        s1 = np.array([r.s1 for r in reps])
        assert np.all(np.isfinite(s1)) and np.all(s1 > 0)
        assert np.all(np.abs(np.diff(s1)) < 1e-5 * s1[1:])
        for r, mb in zip(reps, mbs):
            assert r.rank_tenth <= mb // 16


class TestWaveRemainder:
    def test_free_vanishes(self, operator_stage):
        g = hl.GridSpec(m_theta=256, n_site=64, m_beta=512)
        rep = operator_stage(hl.zero_potential(), g)["wave_symbol"]
        assert rep["s1"] < 1e-10

    def test_rank_one_finite_rank(self, grid_default, operator_stage):
        rep = operator_stage(hl.rank_one(0.75), grid_default)["wave_symbol"]
        assert 0 < rep["rank_tenth"] <= grid_default.n_site // 8


class TestShiftCheck:
    def test_exact_and_compact_parts(self, operator_stage):
        g = hl.GridSpec(m_theta=512, n_site=64, m_beta=512)
        out = operator_stage(hl.zero_potential(), g)["shift_identity"]
        assert out["exact_residual"] < 1e-10
        assert out["symbol_rank_tenth"] <= g.m_beta // 16

    def test_potential_independent(self, operator_stage):
        # free objects only: the stage gives the same shift and coupling
        # results, bit for bit, for two potentials
        g = hl.GridSpec(m_theta=256, n_site=64, m_beta=512)
        a = operator_stage(hl.zero_potential(), g)
        b = operator_stage(hl.rank_one(0.75), g)
        assert a["shift_identity"] == b["shift_identity"]
        assert np.array_equal(a["coupling_symbol"]["singular_values"],
                              b["coupling_symbol"]["singular_values"])
