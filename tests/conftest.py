import math
import os
from dataclasses import replace

import numpy as np
import pytest

import halfline as hl
from halfline import _kernels, rescaled, scattering, solutions

# canonical test potentials
RANK_ONE_FAMILY = (0.25, -0.25, 0.5, -0.5, 0.75, -0.75, 1.5)
TWO_SITE = (0.3, -0.2)
RANDOM_SEEDS = tuple(range(10))
RANDOM_AMPLITUDE = 1.5
# tables whose Jost recursion overflows: Omega(-1) is NaN on the first, and
# Omega(+-1) = +-inf on the second; on either, Omega on the cut is not finite
OVERFLOWING_TABLES = {"nan": (3.0,) * 400, "inf": (1e160,) * 3}


@pytest.fixture(scope="session", autouse=True)
def no_child_left():
    """At the end of the session no child process is left, running or
    unreaped: the compiler that builds the site step is waited for."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture(autouse=True)
def two_cpus(monkeypatch):
    """Every test sees two CPUs, so that where `_kernels` runs work does not
    depend on the machine."""
    monkeypatch.setattr(_kernels, "CPUS", 2)


@pytest.fixture(scope="session")
def grid_default():
    return hl.GridSpec()          # m_theta=512, n_site=128, m_beta=1024


@pytest.fixture(scope="session")
def scatter_cache():
    """Memoised scattering data keyed by (potential hash, GridSpec): every
    field of the frozen GridSpec is in the key, among them z_max and
    tol_root, which move the bound states."""
    cache = {}

    def get(p, g):
        key = (p.content_hash(), g)
        if key not in cache:
            cache[key] = hl.scattering_grid(p, g)
        return cache[key]

    return get


@pytest.fixture(scope="session")
def operator_stage(scatter_cache):
    """The report's operator stage for p on g, from the cached scattering
    data on g's cut grid and on the grid twice as fine."""
    def run(p, g):
        fine = replace(g, m_theta=2 * g.m_theta)
        return hl.operator_checks(scatter_cache(p, g), scatter_cache(p, fine), g)

    return run


@pytest.fixture(scope="session")
def suite_potentials():
    pots = [hl.rank_one(v) for v in RANK_ONE_FAMILY]
    pots.append(hl.table_potential(TWO_SITE, rho=3.0))
    return pots


@pytest.fixture(scope="session")
def random_potentials():
    return [hl.random_decaying(s, amplitude=RANDOM_AMPLITUDE) for s in RANDOM_SEEDS]


def closed_form_omega(v0, zeta):
    """Rank-one Jost function 1 - 2 v0 zeta (single backward step)."""
    return 1.0 - 2.0 * v0 * np.asarray(zeta)


def reference_jost_rows(V, zeta, two_z, n_max=0):
    """The per-site complex numpy loop of the scaled recursion: rows
    n = -1..max(L, n_max) of t(n) = theta(n)/zeta^n, row index n + 1.  Real
    points reproduce it bit for bit.

    A lone point is stepped as two copies of itself: numpy multiplies a
    one-element array in a loop without FMA, which rounds differently."""
    zeta = np.atleast_1d(np.asarray(zeta, complex))
    two_z = np.broadcast_to(np.asarray(two_z, complex), zeta.shape)
    if len(zeta) == 1:
        return reference_jost_rows(V, np.repeat(zeta, 2), np.repeat(two_z, 2), n_max)[:, :1]
    z2 = zeta * zeta
    out = np.ones((max(len(V), n_max) + 2, len(zeta)), complex)
    for n in range(len(V) - 1, -1, -1):
        out[n] = (two_z - 2.0 * V[n]) * zeta * out[n + 1] - z2 * out[n + 2]
    return out


EPS = np.finfo(float).eps


def long_double_t(V, zeta, two_z, n_max=0):
    """The scaled recursion of `reference_jost_rows` in long double: rows
    n = -1..max(L, n_max) of t(n), row index n + 1."""
    z = np.atleast_1d(np.asarray(zeta, np.clongdouble))
    a = np.broadcast_to(np.asarray(two_z, np.clongdouble), z.shape)
    t = np.ones((max(len(V), n_max) + 2, len(z)), np.clongdouble)
    for r in range(len(V) - 1, -1, -1):
        t[r] = (a - 2 * np.longdouble(V[r])) * z * t[r + 1] - z * z * t[r + 2]
    return t


def cut_bound(V, n_keep, scale):
    """How far a cut point's Omega and rows may lie from the long-double
    recursion: eps (max(L, n_keep) + 2)^2 times the largest |zeta theta(n)|.
    Rounding errors grow like L^2 eps near the thresholds, where the two
    solutions of the recursion meet, and like n eps along the free tail."""
    return EPS * (max(len(V), n_keep) + 2) ** 2 * scale.astype(float)


def decay_bound(V, t):
    """How far the decay step's per-site max over the points of |t(n) - 1|
    may lie from the one of the long-double rows t: twice the largest
    `cut_bound` of the points, once for the cut lanes' theta~(n) and once
    for the phase conj(zeta)^(L-1-n) that they turn one product per site,
    with the squares and the square root."""
    return 2.0 * float(np.max(cut_bound(V, 0, np.max(np.abs(t), axis=0)), initial=0.0))


def rim_zeta(lam):
    """zeta = lam - i sqrt(1 - lam^2) on the upper rim of the cut, Re zeta = lam."""
    return complex(lam, -math.sqrt(1.0 - lam * lam))


def decay_diagnostic(p, zeta):
    """Check |theta(n) - zeta^n| against the tail bound at one point zeta of
    the cut, on the sites n = 0..L-2 that the recursion steps to (t(L-1) = 1
    is the exact tail); the per-point reference for `decay_scan`, stepped by
    the long-double recursion."""
    L = p.support_end
    if L == 0:
        return hl.DecayReport(0.0, 0.0)
    t = long_double_t(p.values, zeta, 2.0 * zeta.real)[1:L, 0]
    dev = np.abs(t - 1).astype(float)           # |zeta^n| = 1 on the cut
    bounds = solutions._tail_bounds(p)[:L - 1]
    viol = float(np.max(dev - bounds, initial=-np.inf))
    c_emp = float(np.max(dev * (1.0 + np.arange(L - 1)) ** (p.rho - 2.0), initial=0.0))
    if viol > solutions.DECAY_SLACK:
        raise hl.NumericsError(f"estimate violated: excess {viol:.3e}")
    return hl.DecayReport(viol, c_emp)


def recurrence_residual(p, x, u):
    """Max defect of the recurrence over the interior sites of the solution
    values u at the point x (z = Re x), relative to (1 + |z|) max |u|."""
    z = complex(x).real
    v = p.diagonal(len(u) - 2)
    lhs = 0.5 * (u[:-2] + u[2:]) + (v - z) * u[1:-1]
    scale = (1.0 + abs(z)) * np.max(np.abs(u))
    return 0.0 if scale == 0.0 else float(np.max(np.abs(lhs)) / scale)


def shift_symbol_apply(bg, X):
    """The shift's symbol tanh(X) - i sech(X) tanh(pi D) on the real columns
    of X: real."""
    return rescaled._shift_real(bg, X, rescaled.symbol_columns(bg, X)[1])


def closed_form_bound_state(v0):
    """Zero of 1 - 2 v0 zeta inside the disk, when |v0| > 1/2."""
    if abs(v0) <= 0.5:
        return None
    zeta = 1.0 / (2.0 * v0)
    return 0.5 * (zeta + 1.0 / zeta)


def scan_brackets(p, g):
    """The brackets (lo, hi, Omega(lo)) of the bound-state scan's sign changes,
    one triple per side with a sign change."""
    z_scan = scattering._scan_points(g.effective_z_max(p))
    scan = _kernels.jost_function_values(p.values, z_scan)
    out = []
    for z, om in zip(z_scan.reshape(2, -1), scan.reshape(2, -1)):
        idx = np.where(np.diff(np.sign(om)) != 0)[0]
        if idx.size:
            out.append((z[idx], z[idx + 1], om[idx]))
    return out


def reference_bisection(p, lo, hi, flo, tol):
    """The midpoints of the brackets [lo, hi] of sign changes of Omega, with
    Omega(lo) = flo, bisected together one level, one kernel call, at a time
    until each is within tol or holds no float strictly inside; the reference
    for `scattering._bisect`, which steps several levels per call."""
    lo, hi, flo = lo.copy(), hi.copy(), flo.copy()
    while np.any((np.abs(hi - lo) > tol) & (np.nextafter(lo, hi) != hi)):
        mid = 0.5 * (lo + hi)
        fm = _kernels.jost_function_values(p.values, mid)
        same = (fm > 0) == (flo > 0)
        lo = np.where(same, mid, lo)
        flo = np.where(same, fm, flo)
        hi = np.where(same, hi, mid)
    return 0.5 * (lo + hi)


def reference_sturm_counts(diagonal, bounds, c2=0.25):
    """For each b in bounds, the positive pivots of LDL^T = T - b and -T - b
    for the tridiagonal T with this diagonal and squared off-diagonal c2, one
    pivot per Python iteration; the reference for the compiled `sturm`.  A zero
    pivot is followed by +inf; a NaN last pivot raises NumericsError."""
    counts = []
    for b in bounds:
        counts.append(0)
        for diag in (diagonal - b, -diagonal - b):
            q = math.inf                # the first pivot has no off-diagonal term
            for v in diag.tolist():
                q = v - c2 / q if q else math.inf
                if q > 0.0:
                    counts[-1] += 1
            if q != q:                  # a NaN pivot stays NaN to the last
                raise hl.NumericsError(f"count oracle failed: NaN pivot at +-{b}")
    return counts


def symbol_remainder(op, g, apply, m_beta=None):
    """The singular-value summary of op - R^*[a]R on g's sites, as the
    operator stage writes it, a(X, D) applied to R's columns by `apply`, at
    m_beta (g's by default)."""
    bg = hl.beta_grid(m_beta or g.m_beta, g.beta_max)
    R = hl.energy_rescale_matrix(bg, g.n_site)
    return rescaled._singular(op - R.T @ apply(bg, R))


def wave_identity(d, g):
    """The wave-identity defect of W_- on the cut grid of d and g's sites."""
    grid = hl.quadrature_grid(d.m_theta, g.n_site)
    W = hl.wave_operator(d, grid, tol_threshold=g.tol_threshold)
    return hl.wave_identity_residual(d, grid, W)


def shift_identity(g):
    """The shift-identity residuals on g's cut grid and sites."""
    grid = hl.quadrature_grid(g.m_theta, g.n_site)
    return hl.shift_identity_residual(grid, hl.cos_sin_coupling(grid))
