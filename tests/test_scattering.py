import math
import re
import sys
import threading
import time
import warnings
from dataclasses import fields, replace
from fractions import Fraction
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import halfline as hl
from conftest import (EPS, OVERFLOWING_TABLES, TWO_SITE, closed_form_bound_state,
                      closed_form_omega, cut_bound, decay_bound, long_double_t,
                      reference_bisection, reference_jost_rows, rim_zeta, scan_brackets)
from halfline import _kernels, scattering, solutions


def off_axis_zeta(z):
    """zeta(z) on the real axis, exact (+-1) at the thresholds."""
    z = np.asarray(z, float)
    return np.where(np.abs(z) == 1.0, z,
                    np.sign(z) / (np.abs(z) + np.sqrt(np.abs(z * z - 1.0))))


def omega(p, x):
    """Omega at the one point x, stepped alone: real z or zeta on the cut."""
    return _kernels.jost_function_values(p.values, x)[0]


KERNEL_POTENTIALS = {
    "rank_one": hl.rank_one(0.75),
    "two_site": hl.table_potential(TWO_SITE, rho=3.0),
    "short_random": hl.random_decaying(3, rho_gen=6.0),
}


@pytest.fixture
def split_all(monkeypatch):
    """Cut every call of two blocks or more into chunks of one block, which a
    worker takes beside the calling thread; the monkeypatch, to undo it."""
    monkeypatch.setattr(_kernels, "FLOOR", 0)
    return monkeypatch


class Steps(list):
    """(first point, thread) of each call of the compiled step; .slow_here:
    whether this thread's calls, and not the others', start 2 ms late."""
    slow_here = False


@pytest.fixture
def spied_steps(monkeypatch):
    """The calls of the compiled step, those of the threads that are not
    slow 2 ms late, so that every thread takes chunks wherever it may."""
    seen, lanes, here = Steps(), _kernels._LANES, threading.get_ident()

    def spy(V, L, n, cut, x, *args):
        if (threading.get_ident() == here) == seen.slow_here:
            time.sleep(0.002)
        seen.append((x, threading.get_ident()))
        lanes(V, L, n, cut, x, *args)
    monkeypatch.setattr(_kernels, "_LANES", spy)
    return seen


def kept_powers(zeta, n_rows):
    """zeta^0..zeta^(n_rows-1) by repeated products, as the real lanes scale
    their kept rows."""
    out = np.ones((n_rows, len(zeta)), np.asarray(zeta).dtype)
    for r in range(1, n_rows):
        out[r] = out[r - 1] * zeta
    return out


def zeta_and_two_z(x):
    """zeta and 2z of the points x as the kernels take them: real x is z,
    complex x is zeta on the unit circle, with 2z = 2 Re zeta."""
    x = np.atleast_1d(x)
    if np.iscomplexobj(x):
        return x, 2.0 * x.real
    return off_axis_zeta(x), 2.0 * x


def long_double_rows(V, x, n_keep):
    """zeta theta(n) for n = -1..n_keep by the scaled recursion in long
    double, and per point its largest modulus over n = -1..max(L, n_keep)."""
    zeta, two_z = zeta_and_two_z(x)
    t = long_double_t(V, zeta, two_z, n_keep)
    rows = t * kept_powers(np.asarray(zeta, np.clongdouble), t.shape[0])
    return rows[:n_keep + 2], np.max(np.abs(rows), axis=0)


def assert_forms_match_reference(V, x, n_keep):
    """Every kernel form on the points x, real z or zeta on the unit circle:
    Omega alone and Omega with the rows zeta theta(n) for n = -1..n_keep, the
    two forms equal bit for bit, float64 for real x and complex128 for
    complex x.  Real points equal the complex reference loop bit for bit,
    with zero imaginary parts; cut points lie within `cut_bound` of the
    long-double recursion."""
    V, x = np.asarray(V, float), np.atleast_1d(x)
    omega = _kernels.jost_function_values(V, x)
    omega_too, rows = _kernels.jost_scaled(V, x, n_keep)
    kind = np.complex128 if np.iscomplexobj(x) else np.float64
    assert omega.dtype == omega_too.dtype == rows.dtype == kind
    assert rows.shape == (n_keep + 2, len(x))
    assert np.array_equal(omega, omega_too) and np.array_equal(rows[0], omega)
    # Omega is written once, as row 0, and handed out as a copy of it: holding
    # Omega must not hold every kept row
    assert omega.tobytes() == rows[0].tobytes() and not np.shares_memory(omega_too, rows)
    if kind is np.float64:
        zeta, two_z = zeta_and_two_z(x)
        ref = reference_jost_rows(V, zeta, two_z, n_max=n_keep)[:n_keep + 2]
        assert np.all(ref.imag == 0.0) and np.array_equal(omega, ref[0])
        assert np.array_equal(rows, ref * kept_powers(zeta, n_keep + 2))
    else:
        ref, scale = long_double_rows(V, x, n_keep)
        err = np.max(np.abs(rows - ref.astype(complex)), axis=0)
        assert np.all(err <= cut_bound(V, n_keep, scale)), np.max(err / scale.astype(float))


def long_double_deviations(V, zeta):
    """The per-site max over the points zeta of |t(n) - 1| for n = 0..L-2 by
    the long-double recursion, and `decay_bound` of its rows."""
    t = long_double_t(V, *zeta_and_two_z(np.asarray(zeta, complex)))
    return np.max(np.abs(t[1:len(V)] - 1), axis=1, initial=0.0), decay_bound(V, t)


def assert_deviations_match_reference(V, zeta):
    """The compiled per-site max over the points of |t(n) - 1|, for points
    on the unit circle, lies within `decay_bound` of the long-double one."""
    V = np.asarray(V, float)
    ref, bound = long_double_deviations(V, zeta)
    dev = _kernels.decay_scan(V, zeta)
    assert dev.shape == ref.shape
    err = np.abs(dev - ref.astype(float))
    assert np.all(err <= bound), (np.max(err), bound)


class TestWronskian:
    def test_free_pair_at_two(self):
        p = hl.zero_potential()
        phi = hl.regular_solution(p, 2.0, 20)
        jost = hl.jost_solution(p, 2.0, 20)
        w = hl.wronskian(phi, jost)
        assert w.real == pytest.approx(-(2.0 + math.sqrt(3.0)) / 2.0, rel=1e-12)
        assert abs(w.imag) < 1e-14

    def test_self_wronskian_vanishes(self):
        u = hl.jost_solution(hl.rank_one(0.4), rim_zeta(0.3), 15)
        assert hl.wronskian(u, u) == 0.0

    def test_rank_one_value_at_zero(self):
        # omega = -theta(-1)/2 with theta(-1) = 1/zeta - 2 v0, zeta(0) = -i
        p = hl.rank_one(0.75)
        w = hl.wronskian(hl.regular_solution(p, -1j, 25), hl.jost_solution(p, -1j, 25))
        assert w == pytest.approx(0.75 - 0.5j, rel=1e-12)


class TestJostFunction:
    def test_free_is_one(self):
        p = hl.zero_potential()
        for lam in np.linspace(-0.95, 0.95, 9):
            assert omega(p, rim_zeta(lam)) == pytest.approx(1.0)

    def test_rank_one_closed_form_at_zero(self):
        om = omega(hl.rank_one(0.75), -1j)
        assert om == pytest.approx(1.0 + 1.5j, rel=1e-13)

    @pytest.mark.parametrize("v0", [0.25, -0.5, 0.75, 1.5])
    def test_rank_one_closed_form_on_grid(self, v0, grid_default, scatter_cache):
        d = scatter_cache(hl.rank_one(v0), grid_default)
        assert np.max(np.abs(d.omega - closed_form_omega(v0, np.exp(-1j * d.theta)))) < 1e-10

    @pytest.mark.parametrize("name", sorted(KERNEL_POTENTIALS))
    def test_cut_grid_matches_reference_loop(self, name):
        # within the bound of the long-double recursion, also beside the
        # thresholds, where the error grows like L^2 eps
        V = KERNEL_POTENTIALS[name].values
        th = np.r_[1e-8, (np.arange(64) + 0.5) * np.pi / 64, np.pi - 1e-6]
        assert_forms_match_reference(V, np.exp(-1j * th), 6)

    def test_long_table_within_bound(self):
        # 11,066 sites; near the thresholds the error reaches 1e-9 relative
        V = hl.random_decaying(3, rho_gen=4.0).values
        th = np.r_[7.5e-9, 1e-5, (np.arange(16) + 0.5) * np.pi / 16, np.pi - 1e-6]
        assert_forms_match_reference(V, np.exp(-1j * th), 9)

    def test_power_within_few_ulps(self):
        # the scale zeta^L of the cut lanes, which they write unmultiplied
        # to the first kept row past the table, against mpmath
        def power(zeta, k):
            return _kernels.jost_scaled(np.zeros(k), zeta, k - 1)[1][k]

        th = np.array([7.5e-9, 0.3, 1.0, 2.0, np.pi / 2, np.pi - 1e-6, 3.0])
        zeta = np.exp(-1j * th)
        for k in (0, 1, 2, 7, 1000, 246621, 1665610):
            out = power(zeta, k)
            with mpmath.workdps(40):
                ref = [complex(mpmath.mpc(z.real, z.imag) ** k) for z in zeta]
            assert np.max(np.abs(out - ref)) <= 4 * EPS, k
        exact = np.array([1.0, -1.0, 1j, -1j])
        assert np.array_equal(power(exact, 7), exact ** 7)

    @pytest.mark.parametrize("x", [
        np.array([0.5 + 0.5j]),                                 # inside the circle
        np.array([1.5j]),                                       # outside
        np.array([np.exp(-0.3j), 0.9 + 0.1j, -1.0 + 0j]),
        np.array([0.5]),                                        # inside the band
        np.array([2.0, np.nextafter(-1.0, 0.0)]),
        np.array([np.inf]),
        np.array([1.5, -np.inf]),
        np.array([np.nan, 2.0]),
        np.array([1e308]),                                      # 2z overflows
    ], ids=["inside", "outside", "one_of_three", "real_in_band", "real_beside_threshold",
            "real_inf", "real_minus_inf", "real_nan", "real_two_z_overflows"])
    def test_points_outside_their_domain_refused(self, x):
        # real z needs |z| >= 1 and 2z finite; complex zeta needs
        # |zeta| = 1, checked in the compiled step
        V = KERNEL_POTENTIALS["two_site"].values
        message = "on |zeta| = 1" if np.iscomplexobj(x) else "|z| >= 1 and 2z finite"
        forms = [lambda: _kernels.jost_function_values(V, x),
                 lambda: _kernels.jost_scaled(V, x, 3)]
        if np.iscomplexobj(x):
            forms.append(lambda: _kernels.decay_scan(V, x))
        for form in forms:
            with pytest.raises(ValueError, match=re.escape(message)):
                form()

    def test_split_grid_matches_whole(self, split_all):
        # chunks stepped by this thread and by a worker thread
        p = KERNEL_POTENTIALS["short_random"]
        th = (np.arange(65) + 0.5) * np.pi / 65
        zeta, z = np.exp(-1j * th), 1.0 + np.geomspace(2.0, 1e-9, 33)
        forms = (lambda: _kernels.jost_function_values(p.values, zeta),
                 lambda: _kernels.jost_function_values(p.values, z),
                 lambda: _kernels.jost_scaled(p.values, zeta, 9)[1],
                 lambda: hl.decay_scan(p, 65))
        split = [form() for form in forms]
        split_all.setattr(_kernels, "FLOOR", 2 ** 62)
        whole = [form() for form in forms]
        for a, b in zip(split[:3], whole[:3]):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        assert split[3] == whole[3]

    @pytest.mark.parametrize("way", ["worker", "join", "join_slowly"])
    def test_chunked_and_helped_calls_match_whole(self, way, spied_steps):
        # 11,066 sites: each call is above the floor, and is cut into chunks
        # that this thread takes with a worker while the other CPU is idle,
        # or that this thread takes when it joins the worker that opened it;
        # joining slowly, its last chunk ends after the worker's, which
        # must wait for it before it scales the rows or merges the decay
        spied_steps.slow_here = way == "join_slowly"
        p = hl.random_decaying(978390736, rho_gen=4.0, amplitude=1.5)
        zeta, z = np.exp(-1j * hl.theta_midpoints(2048)), 1.0 + np.geomspace(2.0, 1e-9, 1024)
        assert p.support_end * 1024 // _kernels.BLOCK > _kernels.FLOOR
        forms = (lambda: _kernels.jost_function_values(p.values, zeta),
                 lambda: _kernels.jost_function_values(p.values, z),
                 lambda: _kernels.jost_scaled(p.values, zeta, 9)[1],
                 lambda: _kernels.jost_scaled(p.values, z, 9)[1],
                 lambda: _kernels.decay_scan(p.values, zeta))
        threads = threading.active_count()
        for form in forms:
            with mock.patch.object(_kernels, "FLOOR", 2 ** 62):
                whole = form()
            del spied_steps[:]
            if way == "worker":
                split = form()
            else:
                with _kernels.meanwhile(form) as job:
                    split = job()
            assert split.dtype == whole.dtype and np.array_equal(split, whole)
            stepped_by = {thread for _, thread in spied_steps}
            assert len(spied_steps) > 2 and len(stepped_by) == 2
            assert threading.get_ident() in stepped_by
            assert threading.active_count() == threads

    def test_chunks_of_whole_blocks(self):
        # 10^6 sites: chunks of one block, taken by this thread and a worker
        # with a slot each; a call below the floor is one step on this thread
        seen, n = [], 5 * _kernels.BLOCK + 3
        threads = threading.active_count()

        def step(lo, hi, slot):
            time.sleep(0.01)
            seen.append((lo, hi, slot, threading.get_ident()))
        _kernels._split(step, 10 ** 6, n)
        assert sorted(s[:2] for s in seen) == [(lo, min(lo + _kernels.BLOCK, n))
                                               for lo in range(0, n, _kernels.BLOCK)]
        assert len({s[2:] for s in seen}) == 2 and {s[2] for s in seen} == {0, 1}
        assert threading.active_count() == threads
        del seen[:]
        _kernels._split(step, _kernels.FLOOR // 6, n)
        assert seen == [(0, n, 0, threading.get_ident())]

    def test_no_worker_while_both_cpus_are_busy(self):
        seen, stop = [], threading.Event()
        with _kernels.meanwhile(stop.wait):
            threads = threading.active_count()
            _kernels._split(lambda *chunk: seen.append(chunk), 10 ** 6, 100)
            assert threading.active_count() == threads
            stop.set()
        assert [s[:2] for s in seen] == [(0, 32), (32, 64), (64, 96), (96, 100)]
        assert {s[2] for s in seen} == {0}

    def test_chunks_under_contention(self):
        # eight threads on two CPUs open calls, half of them on a `meanwhile`
        # worker that the thread joins at once, with a short switch interval:
        # a lost update would step a chunk twice or never, or leave a worker
        errors, interval = [], sys.getswitchinterval()

        def churn(k):
            try:
                for r in range(40):
                    seen, n = [], 7 * _kernels.BLOCK + k

                    def call():
                        _kernels._split(lambda lo, hi, slot: seen.append((lo, hi)), 10 ** 6, n)
                    if r % 2:
                        with _kernels.meanwhile(call) as job:
                            job()
                    else:
                        call()
                    assert sorted(seen) == [(lo, min(lo + _kernels.BLOCK, n))
                                            for lo in range(0, n, _kernels.BLOCK)]
            except BaseException as exc:
                errors.append(exc)
        try:
            sys.setswitchinterval(1e-6)
            workers = [threading.Thread(target=churn, args=(k,)) for k in range(8)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(60)
            assert not any(w.is_alive() for w in workers)
        finally:
            sys.setswitchinterval(interval)
        assert errors == [] and _kernels._workers == 0

    @pytest.mark.parametrize("way", ["worker", "join"])
    @pytest.mark.parametrize("error", [ValueError, KeyboardInterrupt],
                             ids=["ValueError", "interrupt"])
    def test_failing_chunk_reaches_caller(self, way, error):
        # the third chunk fails; every chunk that started has ended when the
        # error reaches the caller, and no chunk starts after it
        threads = threading.active_count()
        started, ended = [], []

        def step(lo, hi, slot):
            started.append(lo)
            time.sleep(0.01)
            if lo == 2 * _kernels.BLOCK:
                raise error("a chunk fails")
            ended.append(lo)

        def call():
            return _kernels._split(step, 10 ** 6, 8 * _kernels.BLOCK)
        with pytest.raises(error, match="a chunk fails"):
            if way == "worker":
                call()
            else:
                with _kernels.meanwhile(call) as job:
                    job()
        assert len(started) == len(ended) + 1 < 8
        time.sleep(0.03)
        assert len(started) == len(ended) + 1
        assert threading.active_count() == threads

    def test_lone_point_equals_cut_grid(self):
        # each point is stepped on its own: a lone point takes the grid's
        # values (numpy's one-element loop was up to 4e-13 away here)
        p = hl.random_decaying(3, rho_gen=4.0)
        g = hl.GridSpec(m_theta=64, n_site=32)
        d = hl.scattering_grid(p, g)
        zeta = np.exp(-1j * d.theta)
        single = [omega(p, z) for z in zeta]
        assert np.array_equal(single, d.omega)
        for k, z in enumerate(zeta):
            _, rows = _kernels.jost_scaled(p.values, np.array([z]), g.n_site - 1)
            assert np.array_equal(rows[:, 0], d.jost_rows[:, k]), k

    @pytest.mark.parametrize("name", sorted(KERNEL_POTENTIALS))
    def test_real_points_match_reference_loop(self, name):
        # thresholds and both off-axis sides, one point at a time and as a
        # batch of real input; both equal the complex loop
        p = KERNEL_POTENTIALS[name]
        z = np.array([1.0, -1.0, 1.0 + 1e-9, 1.3, 4.0, -1.0 - 1e-9, -1.7, -4.0])
        ref = reference_jost_rows(p.values, off_axis_zeta(z), 2.0 * z)[0]
        assert np.all(ref.imag == 0.0)
        batch = _kernels.jost_function_values(p.values, z)
        assert batch.dtype == np.float64
        assert np.array_equal(batch, ref)
        single = [omega(p, x) for x in z]
        assert np.array_equal(single, ref)

    def test_real_off_axis(self):
        p = hl.table_potential([0.3, -0.2], rho=3.0)
        for z in (1.3, -2.5, 4.0):
            assert omega(p, z).dtype == np.float64

    @pytest.mark.parametrize("split", [False, True], ids=["whole", "split"])
    def test_input_layouts_equal_contiguous(self, split, request):
        # the compiled step reads the points in place: an int list, a
        # strided view and a big-endian array give the bits of contiguous
        # float64 or complex128, whole and split across the worker
        if split:
            request.getfixturevalue("split_all")
        V = KERNEL_POTENTIALS["short_random"].values
        z = np.array([1.0, -1.0, 1.3, 9.0, -4.0, -1.7, 2.0, 5.0] * 5)
        zeta = np.exp(-1j * (np.arange(80) + 0.5) * np.pi / 80)
        layouts = [[1, -1, 2, -3, 5, 7, -1], z[::2], z.astype(">f8"), zeta[::2],
                   zeta.astype(">c16")]
        for x in layouts:
            plain = np.array(x, np.complex128 if np.iscomplexobj(x) else np.float64)
            assert plain.flags.c_contiguous and plain.dtype.isnative
            for form in (lambda y: [_kernels.jost_function_values(V, y)],
                         lambda y: _kernels.jost_scaled(V, y, 5),
                         lambda y: [_kernels.decay_scan(V, y)] if np.iscomplexobj(y) else []):
                assert [a.tobytes() for a in form(x)] == [a.tobytes() for a in form(plain)]


class TestStepBlocks:
    """The compiled step carries blocks of lanes through the sites: every
    form matches the reference at counts on either side of a block edge (16
    cut points, 32 real points), on tables of every short length, whole and
    split."""

    COUNTS = (1, 2, 7, 15, 16, 17, 33, 4610, 31, 32, 65)

    @staticmethod
    def points(n, real):
        """n points: real z, on both off-axis sides and at both thresholds,
        or zeta on the cut."""
        th = (np.arange(n) + 0.5) * np.pi / n
        if real:
            z = np.where(np.arange(n) % 2, -1.0, 1.0) * (1.0 + np.tan(th / 2.0) ** 2)
            z[:2] = [1.0, -1.0][:n]
            return z
        return np.exp(-1j * th)

    @pytest.mark.parametrize("split", [False, True], ids=["whole", "split"])
    @pytest.mark.parametrize("real", [False, True], ids=["cut", "real"])
    @pytest.mark.parametrize("n", COUNTS)
    def test_point_counts(self, n, real, split, request):
        if split:
            request.getfixturevalue("split_all")
        V = KERNEL_POTENTIALS["short_random"].values[:48 if n > 100 else None]
        x = self.points(n, real)
        for n_keep in (6, -1, len(V) - 1, len(V) + 4):
            assert_forms_match_reference(V, x, n_keep)

    @pytest.mark.parametrize("values", [[], [0.75], [0.3, -0.2], [0.5, 0.0, -1.25]],
                             ids=["empty", "one_site", "two_sites", "three_sites"])
    def test_short_tables(self, values):
        for real in (False, True):
            for n in (1, 2, 17):
                assert_forms_match_reference(np.asarray(values, float), self.points(n, real), 3)

    @pytest.mark.parametrize("n", COUNTS)
    def test_deviations_equal_reference(self, n):
        # whole and at sub-ranges of the points, cut points alone and with
        # both thresholds, as the decay scan steps them
        V = KERNEL_POTENTIALS["short_random"].values[:48 if n > 100 else None]
        zeta = self.points(n, False)
        for zeta in (zeta, np.r_[zeta, 1.0, -1.0]):
            n = len(zeta)
            for lo, hi in ((0, n), (0, (n + 1) // 2), (n // 2, n), (min(3, n - 1), min(40, n))):
                assert_deviations_match_reference(V, zeta[lo:hi])

    @pytest.mark.parametrize("V, zeta, first", [
        # each point twice, in one block and across blocks
        (KERNEL_POTENTIALS["short_random"].values, np.tile(np.exp(-0.3j * np.arange(7)), 5),
         None),
        # deviations of about 2 x: the squares stay finite up to x = 1e150,
        # and the square of 1e160 overflows
        *[(np.r_[np.zeros(20), x], np.exp(-1j * np.linspace(0.1, 3.0, 33)), first)
          for x, first in ((1e140, None), (1e150, None), (1e160, np.inf))],
        # real points off the unit circle
        (np.full(70, 1e5), np.array([1.5, 0.5]), ValueError),
        # the recursion overflows to inf, then NaN
        *[(np.full(k, v), np.exp(-1j * np.linspace(0.1, 3.0, 20)), first)
          for k, v, first in ((3, 1e155, np.inf), (5, 1e200, np.nan), (200, 1e10, np.nan))],
        # at zeta = -1 the recursion overflows to NaN, at zeta = 1 it stays
        # bounded: NaN beside finite points, in either order
        (np.ones(600), np.array([-1.0, 1.0]), np.nan),
        (np.ones(600), np.array([1.0, -1.0, 1.0]), np.nan),
    ], ids=["ties", "overflow_1e140", "overflow_1e150", "overflow_1e160", "nan_then_inf",
            "inf_1e155", "nan_1e200", "nan_1e10", "nan_then_finite", "finite_then_nan"])
    def test_deviation_edge_cases(self, V, zeta, first):
        # within the bound, or a typed refusal: the kernel refuses points off
        # the circle, and decay_scan a table whose deviations do not stay
        # finite; at the first site the deviation is inf, or NaN if a point
        # is NaN there
        if first is None:
            assert_deviations_match_reference(V, zeta)
        elif first is ValueError:
            with pytest.raises(ValueError, match=re.escape("on |zeta| = 1")):
                _kernels.decay_scan(V, zeta)
        else:
            dev = _kernels.decay_scan(V, zeta)
            assert np.array_equal(dev[:1], [first], equal_nan=True)
            with pytest.raises(hl.NumericsError, match="decay check overflows"):
                hl.decay_scan(hl.table_potential(V, rho=3.0), len(zeta))

    @pytest.mark.parametrize("n", COUNTS[:7] + COUNTS[8:])
    def test_decay_scan_equals_reference_rows(self, n, split_all):
        # 110 sites, reduced per site while they are stepped, within the
        # bound of the long-double rows; split in two halves and whole, bit
        # for bit the same
        p = hl.table_potential(hl.random_decaying(3, rho_gen=6.0).values[:110], rho=3.0)
        zeta = np.r_[np.exp(-1j * hl.theta_midpoints(n)), 1.0, -1.0]
        bounds = solutions._tail_bounds(p)
        dev, tol = long_double_deviations(p.values, zeta)
        dev = dev.astype(float)
        rep = hl.decay_scan(p, n)
        assert rep.max_violation == pytest.approx(float(np.max(dev - bounds[:len(dev)])),
                                                  rel=0, abs=tol)
        assert rep.empirical_c == pytest.approx(float(np.max(dev * (1.0 + np.arange(len(dev))))),
                                                rel=0, abs=tol * len(dev))
        split_all.setattr(_kernels, "FLOOR", 2 ** 62)
        assert hl.decay_scan(p, n) == rep

    @settings(max_examples=150, deadline=None)
    @given(values=st.lists(st.floats(-3.0, 3.0), max_size=7),
           radii=st.lists(st.one_of(st.just(1.0), st.floats(0.25, 1.75)), min_size=1,
                          max_size=19),
           angle=st.floats(0.0, 2.0 * np.pi), real=st.booleans(), split=st.booleans(),
           n_keep=st.integers(-1, 9))
    def test_random_tables_and_points(self, values, radii, angle, real, split, n_keep):
        # real z = +-(r + 1/r)/2 on both sides, thresholds included, bit for
        # bit; zeta on the unit circle, within the bound; zeta off the
        # circle, and real z inside the band, refused
        n = len(radii)
        angles, radii = angle + np.arange(n) * 2.399963, np.asarray(radii)
        x = np.sign(np.cos(angles)) * 0.5 * (radii + 1.0 / radii) if real else np.exp(1j * angles)
        with pytest.MonkeyPatch.context() as mp:
            if split:
                mp.setattr(_kernels, "FLOOR", 0)
            assert_forms_match_reference(values, x, n_keep)
            off = radii != 1.0
            if off.any():       # |z| or |zeta| = min(r, 1/r) < 1
                shrink = np.where(off, np.minimum(radii, 1.0 / radii), 1.0)
                with pytest.raises(ValueError):
                    _kernels.jost_function_values(np.asarray(values, float),
                                                  shrink * (np.sign(x) if real else x))

    @settings(max_examples=150, deadline=None)
    @given(values=st.lists(st.one_of(st.floats(-3.0, 3.0), st.floats(-1e200, 1e200)),
                           max_size=7),
           radii=st.lists(st.one_of(st.just(1.0), st.floats(0.25, 1.75)), min_size=1,
                          max_size=19),
           angle=st.floats(0.0, 2.0 * np.pi), real=st.booleans(), copies=st.integers(1, 3),
           split=st.booleans())
    def test_random_deviations(self, values, radii, angle, real, copies, split):
        # tables that may overflow, points on and off the unit circle, each
        # point up to three times: within the bound where the deviations stay
        # finite, which they do unless the long-double rows pass 1e150;
        # points off the circle, refused
        n = len(radii)
        angles = angle + np.arange(n) * 2.399963
        unit = np.sign(np.cos(angles)) + 0j if real else np.exp(1j * angles)
        zeta = np.tile(np.asarray(radii) * unit, copies)
        with pytest.MonkeyPatch.context() as mp:
            if split:
                mp.setattr(_kernels, "FLOOR", 0)
            if any(r != 1.0 for r in radii):
                with pytest.raises(ValueError, match=re.escape("on |zeta| = 1")):
                    _kernels.decay_scan(values, zeta)
                return
            dev = _kernels.decay_scan(values, zeta)
        t = long_double_t(values, *zeta_and_two_z(zeta))
        finite = np.isfinite(dev)
        assert np.all(finite) or np.max(np.abs(t)) > 1e150
        with np.errstate(all="ignore"):     # rows past the double range
            ref = np.max(np.abs(t[1:len(values)] - 1), axis=1, initial=0.0).astype(float)
            assert np.all(np.abs(dev - ref)[finite] <= decay_bound(values, t))


class CutLaneModel:
    """The cut lanes of `_step.c` on one point zeta, each documented
    operation rounded once to the nearest double through `fractions.Fraction`
    (an int quotient rounds correctly): c = 2z - 2V, x = fma(c, u, -w), the
    double-double zeta^L, the unfused products by it, and the decay's phase
    g and |x - g|^2.  Values, not the signs of zeros, are pinned."""

    @staticmethod
    def rnd(q):
        return float(q)

    @classmethod
    def fma(cls, a, b, c):
        return cls.rnd(Fraction(a) * Fraction(b) + Fraction(c))

    @classmethod
    def mul(cls, a, b):
        return cls.rnd(Fraction(a) * Fraction(b))

    @classmethod
    def add(cls, a, b):
        return cls.rnd(Fraction(a) + Fraction(b))

    @classmethod
    def sub(cls, a, b):
        return cls.rnd(Fraction(a) - Fraction(b))

    @classmethod
    def cmul(cls, f, x):
        """f x, the products unfused."""
        return (cls.sub(cls.mul(f[0], x[0]), cls.mul(f[1], x[1])),
                cls.add(cls.mul(f[0], x[1]), cls.mul(f[1], x[0])))

    @classmethod
    def two_sum(cls, a, b):
        s = cls.add(a, b)
        v = cls.sub(s, a)
        return s, cls.add(cls.sub(a, cls.sub(s, v)), cls.sub(b, v))

    @classmethod
    def dd_mul(cls, a, b):
        p = cls.mul(a[0], b[0])
        low = cls.add(cls.mul(a[0], b[1]), cls.mul(a[1], b[0]))
        return cls.two_sum(p, cls.add(cls.fma(a[0], b[0], -p), low))

    @classmethod
    def dd_det(cls, a, b, c, d):
        """a b - c d"""
        x, y = cls.dd_mul(a, b), cls.dd_mul(c, d)
        s = cls.two_sum(x[0], -y[0])
        return cls.two_sum(s[0], cls.add(s[1], cls.sub(x[1], y[1])))

    @classmethod
    def power(cls, zeta, k):
        """zeta^k by binary powering in double-double, rounded once."""
        def zd_mul(a, b):
            return (cls.dd_det(a[0], b[0], a[1], b[1]),
                    cls.dd_det(a[0], b[1], (-a[1][0], -a[1][1]), b[0]))
        b, p, first = ((zeta[0], 0.0), (zeta[1], 0.0)), ((1.0, 0.0), (0.0, 0.0)), True
        while k:
            if k & 1:
                p = b if first else zd_mul(p, b)
            if k > 1:
                b = zd_mul(b, b)
            first, k = first and not k & 1, k >> 1
        return cls.add(*p[0]), cls.add(*p[1])

    @classmethod
    def step(cls, V, zeta, n_rows):
        """(Omega, rows 0..n_rows-1, |x - g|^2 on the sites n = 0..L-2) at
        one point: x(r) stepped down from (x(L), x(L+1)) = (1, zeta)."""
        z = (zeta.real, zeta.imag)
        L, u, w, g = len(V), (1.0, 0.0), z, (1.0, 0.0)
        kept, dev = {}, [None] * max(L - 1, 0)
        for r in range(L - 1, -1, -1):
            c = cls.sub(2.0 * z[0], 2.0 * V[r])
            x = (cls.fma(c, u[0], -w[0]), cls.fma(c, u[1], -w[1]))
            g = (cls.fma(g[1], z[1], cls.mul(g[0], z[0])),
                 cls.fma(g[0], -z[1], cls.mul(g[1], z[0])))
            e = (cls.sub(x[0], g[0]), cls.sub(x[1], g[1]))
            if r > 0:
                dev[r - 1] = cls.add(cls.mul(e[0], e[0]), cls.mul(e[1], e[1]))
            kept[r], w, u = x, u, x
        f = cls.power(z, L)
        rows, tail = [], f
        for r in range(n_rows):
            if r < L:
                rows.append(cls.cmul(f, kept[r]))
            else:
                if r > L:
                    tail = cls.cmul(tail, z)
                rows.append(tail)
        return cls.cmul(f, u), rows, dev


class TestCutLaneBits:
    """The cut lanes equal `CutLaneModel` bit for bit on short tables: a
    product fused by the compiler, or an operation reordered, moves a value
    by an ulp that the tests against the long-double recursion let pass."""

    TABLES = {"one_site": [0.75], "two_sites": [0.3, -0.2], "three_sites": [0.5, 0.0, -1.25],
              "six_sites": [0.4, -0.3, 1.1, 0.05, -0.7, 0.2]}

    @pytest.mark.parametrize("name", sorted(TABLES))
    def test_omega_rows_and_deviations(self, name):
        V = np.array(self.TABLES[name])
        th = np.r_[(np.arange(256) + 0.5) * np.pi / 256, 1e-7, np.pi / 2, np.pi - 1e-7]
        zeta = np.exp(-1j * th)
        n_keep = 4
        omega, rows = _kernels.jost_scaled(V, zeta, n_keep)
        dev = _kernels.decay_scan(V, zeta)
        model = [CutLaneModel.step(V, z, n_keep + 2) for z in zeta]
        assert np.array_equal(omega, [complex(*m[0]) for m in model])
        assert np.array_equal(rows, np.array([[complex(*r) for r in m[1]] for m in model]).T)
        per_site = [max(m[2][n] for m in model) for n in range(len(V) - 1)]
        assert np.array_equal(dev, np.sqrt(per_site))
        assert len(dev) == len(V) - 1
        for k in range(0, len(zeta), 7):    # the deviations of lone points
            assert np.array_equal(_kernels.decay_scan(V, zeta[k:k + 1]), np.sqrt(model[k][2]))

    def test_power_of_the_long_table(self):
        # the double-double zeta^L of 246,621 sites, written unmultiplied to
        # the first kept row past the table, as the model powers it
        zeta = np.exp(-1j * np.r_[(np.arange(40) + 0.5) * np.pi / 40, 7.5e-9])
        k = 246621
        power = _kernels.jost_scaled(np.zeros(k), zeta, k - 1)[1][k]
        model = [complex(*CutLaneModel.power((z.real, z.imag), k)) for z in zeta]
        assert np.array_equal(power, model)


class TestScatteringGrid:
    def test_free_grid(self, grid_default, scatter_cache):
        d = scatter_cache(hl.zero_potential(), grid_default)
        assert np.max(np.abs(d.omega - 1.0)) == 0.0
        assert np.max(np.abs(d.eta)) == 0.0
        assert np.max(np.abs(d.smatrix - 1.0)) == 0.0
        assert d.count_n == 0 and len(d.bound_states) == 0

    def test_rank_one_amplitude_and_phase(self, grid_default, scatter_cache):
        d = scatter_cache(hl.rank_one(0.75), grid_default)
        assert np.allclose(d.amplitude, np.abs(closed_form_omega(0.75, np.exp(-1j * d.theta))),
                           rtol=1e-12)
        em, ep = hl.eta_endpoints(d)
        assert ep - em == pytest.approx(np.pi, abs=1e-3 * np.pi)

    def test_smatrix_unimodular(self, grid_default, scatter_cache):
        d = scatter_cache(hl.rank_one(-0.75), grid_default)
        assert np.max(np.abs(np.abs(d.smatrix) - 1.0)) < 1e-14
        assert np.allclose(d.smatrix, np.conj(d.omega) / d.omega)

    def test_phase_continuity(self, grid_default, scatter_cache):
        d = scatter_cache(hl.table_potential([0.3, -0.2], rho=3.0), grid_default)
        assert np.max(np.abs(np.diff(d.eta))) < np.pi / 2

    @pytest.mark.parametrize("name", sorted(OVERFLOWING_TABLES))
    def test_non_finite_omega_refused(self, name, grid_default):
        # refused before the scattering matrix conj(Omega)/Omega is formed,
        # and before any guard reads a NaN as a pass
        p = hl.table_potential(OVERFLOWING_TABLES[name], rho=3.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(hl.NumericsError,
                               match=r"overflows: Omega is not finite on \d+ of 512 cut-grid"):
                hl.scattering_grid(p, grid_default)

    def test_grid_too_coarse_guard(self):
        p = hl.table_potential([0.0, 3.0], rho=3.0)
        with pytest.raises(hl.NumericsError, match="grid too coarse"):
            hl.scattering_grid(p, hl.GridSpec(m_theta=16, n_site=8))

    def test_lambda_zero_values(self):
        # node-free check of the closed forms at lambda = 0
        om = omega(hl.rank_one(0.75), -1j)
        assert abs(om) == pytest.approx(math.sqrt(3.25), rel=1e-13)
        assert np.angle(om) == pytest.approx(math.atan2(1.5, 1.0), rel=1e-13)
        s = np.conj(om) / om
        assert s == pytest.approx((-1.25 - 3.0j) / 3.25, rel=1e-12)


GRID_POTENTIALS = {
    "rank_one": hl.rank_one(0.75),
    "two_site": hl.table_potential(TWO_SITE, rho=3.0),
    "random_rho4": hl.random_decaying(3, rho_gen=4.0),
}


@pytest.fixture(scope="module", params=sorted(GRID_POTENTIALS))
def grid_pair(request, grid_default):
    p = GRID_POTENTIALS[request.param]
    grids = [grid_default, replace(grid_default, m_theta=2 * grid_default.m_theta)]
    return p, grids, hl.scattering_grids(p, grid_default, [g.m_theta for g in grids])


class TestOneRecursionPerGrid:
    """scattering_grids steps each grid once: Omega, the kept Jost rows and
    the data of each grid are bit-identical to computing each directly."""

    def test_omega_is_row_zero(self, grid_pair):
        p, _, ds = grid_pair
        for d in ds:
            direct = _kernels.jost_function_values(p.values, np.exp(-1j * d.theta))
            assert np.array_equal(d.omega, direct)
            assert np.array_equal(d.jost_rows[0], direct)
            assert not np.shares_memory(d.omega, d.jost_rows)

    def test_kept_rows_match_direct_recursion(self, grid_pair, monkeypatch):
        # the rows of the table alone, up to the n_site + 1 of a full grid
        p, grids, ds = grid_pair
        kept = max(1, min(p.support_end, grids[0].n_site + 1))
        for g, d in zip(grids, ds):
            assert d.jost_rows.shape == (kept, g.m_theta)
            args = (p.values, np.exp(-1j * d.theta), kept - 2)
            assert np.array_equal(d.jost_rows, _kernels.jost_scaled(*args)[1])
        monkeypatch.setattr(_kernels, "FLOOR", 0)       # chunks, some on a worker thread
        for g, d in zip(grids, ds):
            args = (p.values, np.exp(-1j * d.theta), kept - 2)
            assert np.array_equal(d.jost_rows, _kernels.jost_scaled(*args)[1])

    def test_second_grid_reuse_equals_fresh_build(self, grid_pair):
        # both grids share the grid-free stages, and scattering_grid keeps
        # the same Jost rows as scattering_grids
        p, grids, ds = grid_pair
        for g, d in zip(grids, ds):
            alone = hl.scattering_grid(p, g)
            for f in fields(hl.ScatteringData):
                a, b = getattr(d, f.name), getattr(alone, f.name)
                if isinstance(a, np.ndarray):
                    assert a.dtype == b.dtype and np.array_equal(a, b), f.name
                else:
                    assert a is b or a == b, f.name

    def test_decisions_equal_stepping_apart(self, grid_pair):
        # the grid-free stages called alone decide as in scattering_grids;
        # Omega(+-1) of the two-point call equals each threshold stepped alone
        p, grids, ds = grid_pair
        g = grids[0]
        dm, dp, om_m, om_p = hl.classify_thresholds(p, g.tol_threshold)
        assert (dm, dp, om_m, om_p) == (ds[0].delta_minus, ds[0].delta_plus,
                                        ds[0].omega_minus, ds[0].omega_plus)
        assert [om_m, om_p] == [omega(p, s) for s in (-1.0, 1.0)]
        roots, count = hl.bound_states(p, g)
        assert np.array_equal(roots, ds[0].bound_states) and count == ds[0].count_n


class TestBuilderThreads:
    """scattering_grids, and scattering_grid through it, runs the grid-free
    stages on a worker while its own thread steps the cut grids, where the
    bound-state scan's work is above the floor and a CPU is idle; else on
    its own thread after the cut grids, as a short table is cheapest stepped
    alone.  On either path a cut grid's refusal goes first, the grid-free
    stages' comes at the join, and no worker is left on return."""

    @pytest.fixture
    def free_threads(self, monkeypatch):
        """The threads that the grid-free stages ran on, each 0.1 s late."""
        ran, fields_ = [], scattering.grid_free_fields

        def free(*args):
            ran.append(threading.current_thread())
            time.sleep(0.1)
            return fields_(*args)
        monkeypatch.setattr(scattering, "grid_free_fields", free)
        return ran

    @pytest.fixture
    def above_the_floor(self, monkeypatch):
        """The floor lowered to 0: every table's scan is above it."""
        monkeypatch.setattr(_kernels, "FLOOR", 0)

    def test_one_grid_on_the_callers_thread(self, free_threads):
        threads = threading.active_count()
        hl.scattering_grid(hl.rank_one(0.75), hl.GridSpec(m_theta=256, n_site=64))
        assert free_threads == [threading.current_thread()]
        assert threading.active_count() == threads

    def test_grids_on_a_worker_joined_on_return(self, free_threads, above_the_floor):
        threads = threading.active_count()
        ds = hl.scattering_grids(hl.rank_one(0.75), hl.GridSpec(), [512, 1024])
        assert [d.m_theta for d in ds] == [512, 1024] and ds[0].count_n == 1
        d = hl.scattering_grid(hl.rank_one(0.75), hl.GridSpec(m_theta=256, n_site=64))
        assert d.jost_rows.shape == (1, 256)        # the one-site table keeps Omega alone
        assert len(free_threads) == 2
        for worker in free_threads:
            assert worker is not threading.current_thread() and not worker.is_alive()
        assert threading.active_count() == threads

    def test_above_the_floor_on_a_worker(self, free_threads):
        # 11,066 sites: the scan is above the floor; beside a worker that
        # holds the other CPU the stages run on this thread
        p = hl.random_decaying(978390736, rho_gen=4.0, amplitude=1.5)
        assert p.support_end * 2 * scattering.SCAN_POINTS // _kernels.BLOCK > _kernels.FLOOR
        threads = threading.active_count()
        hl.scattering_grid(p, hl.GridSpec(m_theta=256, n_site=64))
        assert free_threads[0] is not threading.current_thread()
        assert threading.active_count() == threads
        stop = threading.Event()
        with _kernels.meanwhile(stop.wait):
            hl.scattering_grid(p, hl.GridSpec(m_theta=256, n_site=64))
            stop.set()
        assert free_threads[1] is threading.current_thread()

    def test_cut_grid_refusal_joins_the_worker(self, free_threads, above_the_floor):
        # both stages refuse the 400-site table of 3.0, the grid-free stages
        # with "Omega(-1) = nan": the cut grid's refusal is the one raised
        p = hl.table_potential([3.0] * 400, rho=3.0)
        threads = threading.active_count()
        with pytest.raises(hl.NumericsError, match="Omega is not finite on") as info:
            hl.scattering_grids(p, hl.GridSpec(), [512, 1024])
        assert "Omega(-1)" not in str(info.value)
        (worker,) = free_threads
        assert not worker.is_alive() and threading.active_count() == threads

    def test_grid_free_refusal_joins_the_worker(self, free_threads, above_the_floor):
        # the cut grids pass; the bound state at z = 13/12 lies beyond z_max
        g = hl.GridSpec(m_theta=256, n_site=64, m_beta=512, n_edge=1024, z_max=1.05)
        threads = threading.active_count()
        with pytest.raises(hl.NumericsError, match="z_max too small"):
            hl.scattering_grids(hl.rank_one(0.75), g, [256, 512])
        (worker,) = free_threads
        assert worker is not threading.current_thread() and not worker.is_alive()
        assert threading.active_count() == threads

    def test_refusal_order_without_a_worker(self, free_threads):
        # below the floor: the cut grid refuses before the grid-free stages
        # run, and these refuse after the cut grids, on this thread
        threads = threading.active_count()
        p = hl.table_potential([3.0] * 400, rho=3.0)
        for build in (lambda: hl.scattering_grids(p, hl.GridSpec(), [512, 1024]),
                      lambda: hl.scattering_grid(p, hl.GridSpec())):
            with pytest.raises(hl.NumericsError, match="Omega is not finite on"):
                build()
        assert free_threads == []
        g = hl.GridSpec(m_theta=256, n_site=64, m_beta=512, n_edge=1024, z_max=1.05)
        with pytest.raises(hl.NumericsError, match="z_max too small"):
            hl.scattering_grids(hl.rank_one(0.75), g, [256, 512])
        assert free_threads == [threading.current_thread()]
        assert threading.active_count() == threads


class TestThresholds:
    def test_free(self):
        dm, dp, om_m, om_p = hl.classify_thresholds(hl.zero_potential(), 1e-3)
        assert (dm, dp) == (0.0, 0.0)
        assert om_m == 1.0 and om_p == 1.0

    def test_resonant_plus(self):
        dm, dp, om_m, om_p = hl.classify_thresholds(hl.rank_one(0.5), 1e-3)
        assert dp == 0.5
        assert dm == 0.0
        assert om_p == pytest.approx(0.0, abs=1e-14)
        assert om_m == pytest.approx(2.0, rel=1e-14)

    def test_resonant_minus(self):
        dm, dp, *_ = hl.classify_thresholds(hl.rank_one(-0.5), 1e-3)
        assert (dm, dp) == (0.5, 0.0)

    @pytest.mark.parametrize("name", sorted(OVERFLOWING_TABLES))
    def test_non_finite_omega_refused(self, name):
        # a NaN or infinite Omega is neither a zero nor clear of one
        p = hl.table_potential(OVERFLOWING_TABLES[name], rho=3.0)
        with pytest.raises(hl.NumericsError, match=rf"overflows: Omega\(-1\) = {name}$"):
            hl.classify_thresholds(p, 1e-3)

    def test_ambiguous_band(self):
        with pytest.raises(hl.NumericsError, match="ambiguous threshold"):
            hl.classify_thresholds(hl.rank_one(0.4999), 1e-3)


class TestBoundStates:
    def test_free_empty(self):
        roots, n = hl.bound_states(hl.zero_potential(), hl.GridSpec())
        assert n == 0 and roots.size == 0

    @pytest.mark.parametrize("v0", [0.75, -0.75, 1.5])
    def test_rank_one_closed_form(self, v0):
        roots, n = hl.bound_states(hl.rank_one(v0), hl.GridSpec())
        assert n == 1
        assert abs(roots[0] - closed_form_bound_state(v0)) < 1e-8

    @pytest.mark.parametrize("v0", [0.25, -0.25, 0.5])
    def test_no_bound_state_for_weak(self, v0):
        roots, n = hl.bound_states(hl.rank_one(v0), hl.GridSpec())
        assert n == 0

    def test_z_max_guard(self):
        with pytest.raises(hl.NumericsError, match="z_max too small"):
            hl.bound_states(hl.rank_one(0.75), hl.GridSpec(z_max=1.05))


def assert_bisection_as_reference(p, g=hl.GridSpec()):
    """Each side's roots equal those of the one-level `reference_bisection`
    bit for bit, in ceil(levels / d) kernel calls, where d is the most levels
    whose 2^d - 1 midpoints per bracket fit the blocks of lanes that one level
    takes.  Returns the number of brackets per side."""
    omega, block = _kernels.jost_function_values, _kernels.BLOCK
    sides = []
    for lo, hi, flo in scan_brackets(p, g):
        with mock.patch.object(_kernels, "jost_function_values", wraps=omega) as one_level:
            reference = reference_bisection(p, lo, hi, flo, g.tol_root)
        k = lo.size
        lanes = block * -(-k // block)
        d = max(d for d in range(1, lanes + 1) if (2 ** d - 1) * k <= lanes)
        calls = -(-one_level.call_count // d)
        points = []

        def tree(V, z):             # a search that would not end fails here
            points.append(np.size(z))
            assert len(points) <= calls and points[-1] <= lanes
            return omega(V, z)
        with mock.patch.object(_kernels, "jost_function_values", tree):
            roots = np.array(scattering._bisect(p, lo, hi, flo, g.tol_root))
        assert roots.tobytes() == reference.tobytes()
        assert len(points) == calls
        sides.append(k)
    return sides


class TestBisection:
    @settings(max_examples=60, deadline=None)
    @given(values=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=12))
    def test_short_tables(self, values):
        assert_bisection_as_reference(hl.table_potential(values, rho=3.0))

    @settings(max_examples=30, deadline=None)
    @given(v0=st.floats(0.45, 0.55), sign=st.sampled_from([1.0, -1.0]))
    @example(v0=0.5001, sign=1.0)
    @example(v0=0.51, sign=-1.0)
    def test_rank_one_across_the_resonance(self, v0, sign):
        assert_bisection_as_reference(hl.rank_one(sign * v0))

    @settings(max_examples=20, deadline=None)
    @given(exponent=st.floats(6.0, 200.0), sign=st.sampled_from([1.0, -1.0]))
    @example(exponent=6.0, sign=1.0)
    @example(exponent=7.0, sign=1.0)
    @example(exponent=12.0, sign=1.0)
    @example(exponent=6.0, sign=-1.0)
    @example(exponent=200.0, sign=1.0)
    def test_large_couplings(self, exponent, sign):
        # far from 0 the search ends where no float is left inside a bracket
        assert assert_bisection_as_reference(hl.rank_one(sign * 10.0 ** exponent)) == [1]

    @settings(max_examples=30, deadline=None)
    @given(values=st.lists(st.floats(2.0, 3.0), min_size=2, max_size=4),
           sign=st.sampled_from([1.0, -1.0]))
    def test_several_roots_on_one_side(self, values, sign):
        # a deep well of 2-4 sites binds one state per site: d = 4 or 3
        p = hl.table_potential([sign * v for v in values], rho=3.0)
        assert assert_bisection_as_reference(p) == [len(values)]

    @pytest.mark.parametrize("p", [hl.random_decaying(3, amplitude=1.5),
                                   hl.random_decaying(978390736, rho_gen=4.0, amplitude=1.5)],
                             ids=["seed 3", "sweep rho_gen 4"])
    def test_long_tables(self, p):
        g = hl.GridSpec()
        assert assert_bisection_as_reference(p, g) == [1]
        roots, count = hl.bound_states(p, g)
        assert roots.tobytes() == np.sort(np.concatenate(
            [reference_bisection(p, *side, g.tol_root) for side in scan_brackets(p, g)])).tobytes()
        assert count == 1


class TestLevinson:
    def test_free_zero(self, grid_default, scatter_cache):
        d = scatter_cache(hl.zero_potential(), grid_default)
        assert hl.levinson_residual(d) == 0.0

    def test_rank_one_bound_state(self, grid_default, scatter_cache):
        d = scatter_cache(hl.rank_one(0.75), grid_default)
        assert d.count_n == 1
        assert hl.levinson_residual(d) < 1e-3 * np.pi

    def test_rank_one_resonant(self, grid_default, scatter_cache):
        d = scatter_cache(hl.rank_one(0.5), grid_default)
        assert (d.count_n, d.delta_plus) == (0, 0.5)
        em, ep = hl.eta_endpoints(d)
        assert abs((ep - em) - np.pi / 2) < 1e-3 * np.pi


def table_family():
    """ROADMAP item 12's 30 tables: 1 to 12 sites each, entries uniform in [-3, 3]."""
    rng = np.random.default_rng(7)
    return [rng.uniform(-3.0, 3.0, rng.integers(1, 13)) for _ in range(30)]


def truncation_count(values, size=4000):
    """N from the eigenvalues |lambda| > 1 + 1e-9 of the Dirichlet truncation
    onto size sites (off-diagonal 1/2), by scipy: independent of the program."""
    from scipy.linalg import eigvalsh_tridiagonal
    diagonal = np.zeros(size)
    diagonal[:len(values)] = values
    off = 0.5 * np.ones(size - 1)
    return sum(eigvalsh_tridiagonal(diagonal, off, select="v", select_range=side).size
               for side in ((-5.0, -1.0 - 1e-9), (1.0 + 1e-9, 5.0)))


class TestTableFamily:
    """Each of the 30 tables gets its oracle's N or a listed refusal.

    The refusals below are faults of the program, pinned with their reasons
    as `KNOWN_FAULTS` in bench/run.py pins the sweep's: a listed refusal
    that now answers fails, as does an unlisted one, so the lists only
    shrink.  N is checked wherever a stage answers, and Levinson's residual
    wherever `scattering_grid` does."""

    FAMILY = table_family()

    #: a narrow resonance turns eta by pi/2 or more between two of the 512
    #: cut grid nodes, where a uniform grid cannot follow it (ROADMAP item 10)
    GRID_TOO_COARSE = frozenset({0, 1, 2, 4, 6, 7, 8, 10, 13, 15, 16, 18, 22, 23, 24, 25, 26,
                                 28})

    #: two roots fall in one cell of the geometric scan, whose sign test sees
    #: neither (ROADMAP item 4): (Jost zeros found, matrix eigenvalues)
    ORACLE_MISMATCH = {0: (7, 9), 16: (7, 9), 18: (3, 5), 24: (7, 9), 25: (6, 8), 26: (6, 8)}

    #: the scattering edge's phase has the cut grid's fault (ROADMAP item 10):
    #: a step of pi/2 or more, or a turn that its sampling miscounts
    UNDERSAMPLED = {5: "phase jump 2.513 >= pi/2",
                    12: r"the scattering edge turns 4.000, \(eta\(\+1\) - eta\(-1\)\)/pi is 3.000",
                    19: r"the scattering edge turns 4.000, \(eta\(\+1\) - eta\(-1\)\)/pi is 3.000",
                    20: "phase jump 2.877 >= pi/2"}

    @staticmethod
    def outcome(call, refusal):
        """call()'s value, or None once it has refused with the message refusal."""
        if refusal is None:
            return call()
        with pytest.raises(hl.NumericsError, match=refusal):
            call()

    @pytest.mark.parametrize("i", range(30))
    def test_each_table(self, i):
        values, g = self.FAMILY[i], hl.GridSpec()
        p, n = hl.table_potential(values, rho=3.0), truncation_count(values)
        mismatch = self.ORACLE_MISMATCH.get(i)
        found = self.outcome(lambda: hl.bound_states(p, g), mismatch and (
            f"oracle mismatch: {mismatch[0]} Jost zeros vs {mismatch[1]} matrix eigenvalues"))
        if found is not None:
            assert found[1] == n
        else:
            assert mismatch[1] == n
        d = self.outcome(lambda: hl.scattering_grid(p, g),
                         "grid too coarse" if i in self.GRID_TOO_COARSE else None)
        if d is None:
            return
        assert d.count_n == n and hl.levinson_residual(d) <= 2.1e-5
        undersampled = self.UNDERSAMPLED.get(i)
        w = self.outcome(lambda: hl.winding_report(d, p, g),
                         undersampled and f"undersampled: {undersampled}")
        if w is not None:
            assert w.winding == n and w.match
