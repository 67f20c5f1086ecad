import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

import halfline as hl
from halfline import _kernels, rescaled
from conftest import shift_symbol_apply, symbol_remainder
from halfline.rescaled import GRAM_GUARD, sech_pi_d_symbol, symbol_columns, tanh_pi_d_symbol


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


def reference_symbol_columns(bg, X):
    """`symbol_columns` with its transforms run down the columns (axis 0)."""
    Xh = np.fft.rfft(X, axis=0)
    q = np.fft.irfft(sech_pi_d_symbol(bg)[:len(Xh), None] * Xh, n=bg.m_beta, axis=0)
    q *= np.tanh(bg.beta / 2.0)[:, None]
    Xh *= -1j * tanh_pi_d_symbol(bg)[:len(Xh), None]
    v = np.fft.irfft(Xh, n=bg.m_beta, axis=0)
    q -= v
    return q, v


class TestRowTransforms:
    """`symbol_columns` transforms along the rows of X.T, contiguous for R:
    the bits of the transforms down X's columns."""

    @pytest.mark.parametrize("m_beta,n_site", [(512, 64), (1024, 128)])
    def test_rescale_columns_bit_for_bit(self, m_beta, n_site):
        bg = hl.beta_grid(m_beta, 12.0)
        R = hl.energy_rescale_matrix(bg, n_site)
        assert R.shape == (m_beta, n_site) and R.T.flags.c_contiguous
        for got, expect in zip(symbol_columns(bg, R), reference_symbol_columns(bg, R)):
            assert got.shape == expect.shape and np.array_equal(got, expect)

    def test_c_ordered_input(self):
        bg = hl.beta_grid(256, 12.0)
        X = np.random.default_rng(3).standard_normal((256, 10))
        for got, expect in zip(symbol_columns(bg, X), reference_symbol_columns(bg, X)):
            assert np.array_equal(got, expect)


def full_gram_defect(bg, n_site):
    """The guard's defect from the whole n_site x n_site Gram matrix, read on
    its n_site/2 block: the form before only the block was formed."""
    theta_b = 2.0 * np.arctan(np.exp(-bg.beta))
    with np.errstate(over="ignore"):
        sech_b = 1.0 / np.cosh(bg.beta)
    e = np.sqrt(2.0 * bg.h / np.pi) * np.sqrt(sech_b) \
        * np.sin(np.outer(np.arange(1, n_site + 1), theta_b))
    gram = e @ e.T
    nb = n_site // 2
    return float(np.max(np.abs((gram - np.eye(n_site))[:nb, :nb])))


class TestRescaleMatrix:
    @pytest.mark.parametrize("m_beta", [1024, 2048])
    @pytest.mark.parametrize("n_site", [64, 128])
    def test_guard_refuses_where_the_full_gram_did(self, m_beta, n_site):
        refused = 0
        for beta_max in np.arange(3.0, 12.01, 0.25):
            bg = hl.beta_grid(m_beta, beta_max)
            defect = full_gram_defect(bg, n_site)
            if defect > GRAM_GUARD:
                refused += 1
                with pytest.raises(hl.NumericsError) as err:
                    hl.energy_rescale_matrix(bg, n_site)
                assert str(err.value) == \
                    f"beta window too small: interior Gram defect {defect:.2e}", beta_max
            else:
                hl.energy_rescale_matrix(bg, n_site)
        assert 0 < refused < 37

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

    @pytest.mark.parametrize("n_site", [0, 1])
    def test_fewer_than_two_sites_refused(self, bg1024, n_site):
        # the guard's block holds n_site // 2 sites
        with pytest.raises(ValueError, match=f"n_site = {n_site} is below 2"):
            hl.energy_rescale_matrix(bg1024, n_site)

    def test_two_sites(self, bg1024):
        R = hl.energy_rescale_matrix(bg1024, 2)
        assert R.shape == (1024, 2)
        assert np.max(np.abs(R.T @ R - np.eye(2))) < 1e-10

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
        assert rep["s1"] < 1.0
        assert rep["rank_tenth"] <= g.m_beta // 16
        sv = rep["singular_values"]
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
        s1 = np.array([r["s1"] for r in reps])
        assert np.all(np.isfinite(s1)) and np.all(s1 > 0)
        assert np.all(np.abs(np.diff(s1)) < 1e-5 * s1[1:])
        for r, mb in zip(reps, mbs):
            assert r["rank_tenth"] <= mb // 16

    def test_growing_leading_value_refused(self):
        # s1 more than ten times larger on the finer grid
        from halfline.rescaled import _stability
        base = {"s1": 1.0, "rank_tenth": 1, "singular_values": [1.0]}
        with pytest.raises(hl.NumericsError, match="not convergent"):
            _stability(base, 11.0)


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


class TestOneBlasThread:
    """operator_checks runs numpy's OpenBLAS on one thread and leaves it on
    the count it found, on return and on a refusal."""

    @pytest.fixture
    def threads(self, monkeypatch):
        """The thread counts read inside the stage, each time R is formed."""
        blas = _kernels._openblas()
        if blas is None:
            pytest.skip("numpy links no OpenBLAS")
        get, set_ = blas
        found = get()
        set_(2)
        seen = []
        form = rescaled.energy_rescale_matrix

        def formed(*args):
            seen.append(get())
            return form(*args)
        monkeypatch.setattr(rescaled, "energy_rescale_matrix", formed)
        yield get, seen
        set_(found)

    def test_restored_on_return(self, threads, operator_stage):
        get, seen = threads
        before = get()
        operator_stage(hl.rank_one(0.75), hl.GridSpec(m_theta=256, n_site=64, m_beta=512))
        assert seen == [1, 1] and get() == before

    def test_restored_on_the_gram_guard_refusal(self, threads, operator_stage):
        get, seen = threads
        before = get()
        with pytest.raises(hl.NumericsError, match="interior Gram defect"):
            operator_stage(hl.rank_one(0.75), hl.GridSpec(beta_max=5.5))
        assert seen == [1] and get() == before

    def test_overlapping_sections(self):
        # A enters, B enters, A leaves, B leaves: B's section stays on one
        # thread after A has left, and the count found before A is restored
        blas = _kernels._openblas()
        if blas is None:
            pytest.skip("numpy links no OpenBLAS")
        get, set_ = blas
        found = get()
        set_(2)
        a_in, b_in, a_out = threading.Event(), threading.Event(), threading.Event()
        seen = {}

        def a():
            with _kernels.one_blas_thread():
                a_in.set()
                b_in.wait(10)
            a_out.set()

        def b():
            a_in.wait(10)
            with _kernels.one_blas_thread():
                b_in.set()
                a_out.wait(10)
                seen["b after a left"] = get()
        try:
            workers = [threading.Thread(target=f) for f in (a, b)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(10)
            assert not any(w.is_alive() for w in workers)
            assert seen == {"b after a left": 1} and get() == 2
        finally:
            set_(found)

    def test_counts_under_contention(self):
        # eight threads on two CPUs enter and leave BLAS sections, and now and
        # then a `meanwhile` block, with a short switch interval: a lost update
        # of either count leaves it above zero, a section on two threads or the
        # count found unrestored
        blas = _kernels._openblas()
        if blas is None:
            pytest.skip("numpy links no OpenBLAS")
        get, set_ = blas
        found, interval = get(), sys.getswitchinterval()
        set_(2)
        inside = set()

        def churn():
            for k in range(5000):
                with _kernels.one_blas_thread():
                    inside.add(get())
                if k % 100 == 0:
                    with _kernels.meanwhile(int) as job:
                        job()
        try:
            sys.setswitchinterval(1e-6)
            workers = [threading.Thread(target=churn) for _ in range(8)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(60)
            assert not any(w.is_alive() for w in workers)
            assert _kernels._workers == 0 and _kernels._blas_sections == 0
            assert inside == {1} and get() == 2
        finally:
            sys.setswitchinterval(interval)
            set_(found)


def _fields(payload, prefix=""):
    """(key path, value) of every leaf of a payload."""
    for k, v in payload.items():
        if isinstance(v, dict):
            yield from _fields(v, f"{prefix}{k}.")
        else:
            yield prefix + k, v


class TestLanes:
    """operator_checks runs the coarse side through `_kernels.meanwhile`: on
    a worker thread while a CPU is idle, else on the calling thread at the
    join.  Both paths give the same bits and the serial refusal order, and
    the worker has ended when the call returns."""

    GRID = hl.GridSpec(m_theta=256, n_site=64, m_beta=512)

    @pytest.fixture(params=["lanes", "serial"])
    def path(self, request, operator_stage):
        """operator_stage(p, g) with no other worker alive ("lanes") or beside
        a dummy worker ("serial"); threading.active_count() is checked to be
        back where it started on return and on a refusal."""
        def run(p, g):
            threads = threading.active_count()
            try:
                if request.param == "lanes":
                    return operator_stage(p, g)
                stop = threading.Event()
                with _kernels.meanwhile(stop.wait):
                    try:
                        return operator_stage(p, g)
                    finally:
                        stop.set()
            finally:
                assert threading.active_count() == threads
        run.serial = request.param == "serial"
        return run

    @pytest.fixture
    def jobs(self, monkeypatch):
        """(job, beta or theta grid size, thread, BLAS thread count) at each of
        R's transform blocks and at U; the threads that were started."""
        blas = _kernels._openblas()
        seen, started = [], []
        for name, size in (("symbol_columns", lambda bg, X: bg.m_beta),
                           ("cos_sin_coupling", lambda grid: grid.m)):
            def spy(*args, fn=getattr(rescaled, name), name=name, size=size):
                seen.append((name, size(*args), threading.get_ident(),
                             blas[0]() if blas else 1))
                return fn(*args)
            monkeypatch.setattr(rescaled, name, spy)

        class Counted(threading.Thread):
            def start(self):
                started.append(self.name)
                super().start()
        monkeypatch.setattr(threading, "Thread", Counted)
        return seen, started

    @pytest.mark.parametrize("p", [hl.rank_one(0.75), hl.table_potential([0.3, -0.2], 3.0)])
    def test_same_bits_on_both_paths(self, operator_stage, p):
        lanes = dict(_fields(operator_stage(p, self.GRID)))
        stop = threading.Event()
        with _kernels.meanwhile(stop.wait):
            try:
                serial = dict(_fields(operator_stage(p, self.GRID)))
            finally:
                stop.set()
        assert lanes.keys() == serial.keys()
        for key, value in lanes.items():
            assert np.array_equal(value, serial[key]), key

    def test_where_each_job_runs(self, path, jobs):
        seen, started = jobs
        path(hl.rank_one(0.75), self.GRID)
        here, blocks = threading.get_ident(), 64 // rescaled.TRANSFORM_SITES
        assert sorted((name, size) for name, size, _, _ in seen) == [
            ("cos_sin_coupling", 256)] + [("symbol_columns", 512)] * blocks + [
            ("symbol_columns", 1024)] * blocks
        assert all(blas == 1 for *_, blas in seen)
        away = {(name, size) for name, size, thread, _ in seen if thread != here}
        if path.serial:     # the dummy worker is the one thread started
            assert started == ["halfline-step"] and not away
        else:               # R's transforms at m_beta, and U with d's checks
            assert started == ["halfline-step"]
            assert away == {("symbol_columns", 512), ("cos_sin_coupling", 256)}

    @pytest.fixture
    def wave_grids(self, monkeypatch):
        """The cut grid sizes on which W_- is formed, in order."""
        grids, form = [], rescaled.wave_operator

        def formed(d, grid, **kw):
            grids.append(grid.m)
            return form(d, grid, **kw)
        monkeypatch.setattr(rescaled, "wave_operator", formed)
        return grids

    def test_resonant_coarse_grid(self, path, wave_grids):
        # rank_one 0.5 has a threshold resonance: min |Omega| is 6.1e-3 on
        # 256 nodes and 3.1e-3 on 512
        with pytest.raises(hl.NumericsError, match="resonant grid"):
            path(hl.rank_one(0.5), replace(self.GRID, tol_threshold=0.05))
        assert wave_grids == [256]

    def test_resonant_refined_grid(self, path, wave_grids):
        with pytest.raises(hl.NumericsError, match="resonant grid"):
            path(hl.rank_one(0.5), replace(self.GRID, tol_threshold=0.005))
        assert wave_grids == [256, 512]

    def test_coupling_refusal_before_the_refined_grid(self, path, wave_grids, monkeypatch):
        def refuse(base, s1_fine):
            raise hl.NumericsError("not convergent: the coupling refuses")
        monkeypatch.setattr(rescaled, "_stability", refuse)
        with pytest.raises(hl.NumericsError, match="not convergent"):
            path(hl.rank_one(0.5), replace(self.GRID, tol_threshold=0.005))
        assert wave_grids == [256]

    @pytest.mark.parametrize("tol, refusal", [(1e-3, "not convergent: the wave symbol"),
                                              (0.005, "resonant grid")],
                             ids=["wave_symbol", "resonant_refined_first"])
    def test_wave_symbol_refusal_last(self, path, wave_grids, monkeypatch, tol, refusal):
        # the second stability check, the wave symbol's, refuses: after W_-
        # on d2's grid, and after its resonant-grid refusal
        calls, stability = [], rescaled._stability

        def refuse_second(base, s1_fine):
            calls.append(s1_fine)
            if len(calls) == 2:
                raise hl.NumericsError("not convergent: the wave symbol refuses")
            return stability(base, s1_fine)
        monkeypatch.setattr(rescaled, "_stability", refuse_second)
        with pytest.raises(hl.NumericsError, match=refusal):
            path(hl.rank_one(0.5), replace(self.GRID, tol_threshold=tol))
        assert wave_grids == [256, 512]

    @pytest.fixture
    def rescale_sizes(self, monkeypatch):
        """The m_beta at which R is formed, in order."""
        formed, form = [], rescaled.energy_rescale_matrix

        def spy(bg, n_site):
            formed.append(bg.m_beta)
            return form(bg, n_site)
        monkeypatch.setattr(rescaled, "energy_rescale_matrix", spy)
        return formed

    def test_gram_guard_at_twice_m_beta_first(self, path, rescale_sizes):
        with pytest.raises(hl.NumericsError, match="interior Gram defect 8.99e-04"):
            path(hl.rank_one(0.75), hl.GridSpec(beta_max=5.5))
        assert rescale_sizes == [2048]

    def test_gram_guard_at_m_beta_refuses_from_the_lane(self, path, rescale_sizes,
                                                        wave_grids):
        with pytest.raises(hl.NumericsError, match="interior Gram defect 9.23e-02"):
            path(hl.rank_one(0.75), replace(self.GRID, m_beta=256))
        assert rescale_sizes == [512, 256] and wave_grids == []
