"""Jost function, phase shift, bound states, thresholds, Levinson residual.

Everything downstream keys off the Jost function Omega(z) = zeta(z) theta(-1, z),
which in the scaled recursion is simply the value t(-1).  On the cut
Omega = a e^(i eta) defines the amplitude and the (unwrapped) phase shift,
and s = conj(Omega)/Omega = e^(-2 i eta) is the scattering matrix.  Zeros of
Omega on the real axis outside [-1, 1] are the eigenvalues of H; zeros at the
endpoints are threshold resonances and contribute the half-integer
corrections in Levinson's relation
    eta(+1) - eta(-1) = pi (N + Delta_- + Delta_+).
Omega is read from the Jost kernels, at a real z off the cut and its ends
and at zeta on the cut (`_kernels.jost_points`).  `wronskian` is the
constancy oracle for two solution arrays of `halfline.solutions`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import NumericsError
from .model import GridSpec, Potential, _is_int, hamiltonian_truncation, theta_midpoints

#: relative tolerance on Wronskian constancy
WRONSKIAN_RTOL = 1e-10

#: scan points per spectral side in the bound-state search
SCAN_POINTS = 512

#: innermost scan offset from the threshold
SCAN_FLOOR = 1e-9


def wronskian(u: np.ndarray, v: np.ndarray) -> complex:
    """Common value of (u(n) v(n+1) - u(n+1) v(n)) / 2 of two solutions on
    n = -1..n_max at one point; raises when the value drifts, as it does for
    sequences that are not solutions at the same point."""
    k = min(len(u), len(v))
    w = 0.5 * (u[: k - 1] * v[1:k] - u[1:k] * v[: k - 1])
    # drift is measured against the product scale: w itself may cancel to 0
    scale = max(float(np.max(np.abs(u[:k])) * np.max(np.abs(v[:k]))), 1e-300)
    if np.max(np.abs(w - w[0])) > WRONSKIAN_RTOL * scale:
        raise NumericsError("not solutions: Wronskian is not constant")
    return complex(w[0])


# ---------------------------------------------------------------------------
# grids of scattering data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScatteringData:
    """Scattering quantities sampled on the theta-midpoint grid.

    Arrays are ordered by increasing lambda.  eta is unwrapped from the
    lambda = -1 end with its first value reduced to (-pi, pi].  jost_rows
    holds the Jost values zeta theta(n) = zeta^(n+1) t(n) at the grid's
    zeta = e^(-i theta), row index n + 1, for n = -1..n_rows-2, n_rows =
    max(1, min(L, g.n_site + 1)) on a table of L sites; omega is its row 0.
    """

    potential: Potential
    theta: np.ndarray
    lam: np.ndarray
    jost_rows: np.ndarray
    omega: np.ndarray
    amplitude: np.ndarray
    eta: np.ndarray
    smatrix: np.ndarray
    omega_minus: float
    omega_plus: float
    delta_minus: float
    delta_plus: float
    bound_states: np.ndarray
    count_n: int

    @property
    def m_theta(self) -> int:
        return len(self.theta)


def classify_thresholds(p: Potential, tol_threshold: float):
    """Threshold corrections from Omega(+-1).

    Delta = 1/2 when |Omega| < tol, 0 when |Omega| > 10 tol; the band in
    between is refused as unstable, and an Omega that is not finite as an
    overflow.  Returns (Delta_-, Delta_+, Omega(-1), Omega(+1)); the limiting
    scattering-matrix value s(+-1) is +1 (generic) or -1 (resonant, Delta = 1/2).
    """
    om_m, om_p = _kernels.jost_function_values(p.values, np.array([-1.0, 1.0])).tolist()
    out = []
    for z, om in ((-1, om_m), (1, om_p)):
        if not math.isfinite(om):
            raise NumericsError(f"Jost recursion overflows: Omega({z:+d}) = {om}")
        mag = abs(om)
        if tol_threshold / 10.0 < mag < 10.0 * tol_threshold:
            raise NumericsError(
                f"ambiguous threshold: |Omega| = {mag:.3e} near tolerance "
                f"{tol_threshold:.1e}")
        out.append(0.5 if mag < tol_threshold else 0.0)
    return (*out, om_m, om_p)


def bound_states(p: Potential, g: GridSpec, z_max: float | None = None):
    """All zeros of Omega on [-z_max, -1) u (1, z_max], with the count
    cross-checked against a Sturm count on a large tridiagonal truncation.
    z_max is g.effective_z_max(p), computed here unless given.

    The scan grid (`_scan_points`) is geometric, accumulating at the
    thresholds where zeros cluster.  The sign changes of each side are
    bisected together down to tol_root (`_bisect`).
    """
    z_max = g.effective_z_max(p) if z_max is None else z_max
    z_scan = _scan_points(z_max)
    scan = _kernels.jost_function_values(p.values, z_scan)
    roots = []
    for z, om in zip(z_scan.reshape(2, -1), scan.reshape(2, -1)):
        idx = np.where(np.diff(np.sign(om)) != 0)[0]
        if idx.size:
            roots.extend(_bisect(p, z[idx], z[idx + 1], om[idx], g.tol_root))
    roots = np.sort(np.asarray(roots))

    band = 1.0 + 10.0 * g.tol_root
    beyond, outside = hamiltonian_truncation(p, 2000).eigenvalues_beyond([z_max, band])
    if beyond:
        raise NumericsError(f"z_max too small: {beyond} eigenvalues beyond +-{z_max:.6f}")
    if outside != roots.size:
        raise NumericsError(f"oracle mismatch: {roots.size} Jost zeros vs {outside} "
                            f"matrix eigenvalues outside the band")
    return roots, int(roots.size)


def _bisect(p: Potential, lo, hi, flo, tol: float) -> list:
    """The midpoints of the brackets [lo, hi] of sign changes of Omega, with
    Omega(lo) = flo, once all are bisected down to tol or to adjacent floats.

    Each level halves every bracket at its midpoint 0.5 (lo + hi) and keeps
    the half where Omega changes sign, while any bracket is unfinished.  One
    kernel call steps every midpoint that the next d levels can reach, 2^d - 1
    per bracket, d as large as fits the blocks of lanes that one level's k
    points already take: 5 levels for one bracket, 4 for two, 3 for three or
    four.  The levels then read Omega from these, so they pick the same
    halves, and stop at the same level, as one call per level would.
    """
    k = lo.size
    d = (_kernels.BLOCK * -(-k // _kernels.BLOCK) // k + 1).bit_length() - 1
    lo, hi, up = lo.tolist(), hi.tolist(), (flo > 0).tolist()   # the sign at lo never changes
    while _unfinished(lo, hi, tol):
        tree, level = [], list(zip(lo, hi))
        for _ in range(d):
            mids = [0.5 * (a + b) for a, b in level]
            tree += mids
            level = [half for (a, b), m in zip(level, mids) for half in ((a, m), (m, b))]
        omega = dict(zip(tree, _kernels.jost_function_values(p.values, tree).tolist()))
        for _ in range(d):
            for j in range(k):
                mid = 0.5 * (lo[j] + hi[j])
                if (omega[mid] > 0) == up[j]:
                    lo[j] = mid
                else:
                    hi[j] = mid
            if not _unfinished(lo, hi, tol):
                break
    return [0.5 * (a + b) for a, b in zip(lo, hi)]


def _unfinished(lo, hi, tol) -> bool:
    """Whether a bracket is wider than tol with a float strictly inside: far
    from 0, adjacent floats can be more than tol apart."""
    return any(abs(b - a) > tol and math.nextafter(a, b) != b for a, b in zip(lo, hi))


def _scan_points(z_max: float) -> np.ndarray:
    """The real z of the bound-state scan: SCAN_POINTS from z_max down to
    1 + SCAN_FLOOR, then the same points negated."""
    z_side = 1.0 + np.geomspace(z_max - 1.0, SCAN_FLOOR, SCAN_POINTS)
    return np.concatenate([z_side, -z_side])


def cut_grid_fields(p: Potential, m: int, n_rows: int) -> dict:
    """The fields of `ScatteringData` on the cut grid of m theta-midpoints,
    stepped with the n_rows rows zeta theta(n), n = -1..n_rows-2, that
    `scattering_grids` keeps on the table; a grid whose Omega overflows,
    vanishes or jumps by pi/2 or more between nodes is refused."""
    theta = theta_midpoints(m)
    zeta, lam = np.exp(-1j * theta), np.cos(theta)
    om, rows = _kernels.jost_scaled(p.values, zeta, n_rows - 2)
    if bad := np.count_nonzero(~np.isfinite(om)):
        raise NumericsError(f"Jost recursion overflows: Omega is not finite on {bad} of "
                            f"{m} cut-grid points")
    amplitude = np.abs(om)
    if np.min(amplitude) == 0.0:
        raise NumericsError("interior zero of the Jost function")
    eta = np.unwrap(np.angle(om))
    jump = np.max(np.abs(np.diff(eta)), initial=0.0)
    if jump >= np.pi / 2:
        raise NumericsError(f"grid too coarse: phase jump {jump:.3f} >= pi/2")
    return dict(theta=theta, lam=lam, jost_rows=rows, omega=om, amplitude=amplitude,
                eta=eta, smatrix=np.conj(om) / om)


def grid_free_fields(p: Potential, g: GridSpec, z_max: float) -> dict:
    """The fields of `ScatteringData` that every cut grid shares: the
    threshold classification, then the bound states up to z_max and their
    count.  They step their own points and read no cut grid."""
    dm, dp, om_m, om_p = classify_thresholds(p, g.tol_threshold)
    roots, count = bound_states(p, g, z_max)
    return dict(omega_minus=om_m, omega_plus=om_p, delta_minus=dm, delta_plus=dp,
                bound_states=roots, count_n=count)


def scattering_grids(p: Potential, g: GridSpec, m_thetas) -> list:
    """Assemble all scattering data of p on the theta-midpoint grids of
    m_thetas points, each with g's other settings and the Jost rows of the
    table alone, up to g.n_site sites (`ScatteringData`): past the table
    they are the free tail, where the correction kernel is 0.  An m_theta
    below 2 is refused first, then a z_max whose scan would overflow.  The
    grid-free stages (`grid_free_fields`) run through `_kernels.meanwhile`,
    with their scan's work, while this thread steps each cut grid
    (`cut_grid_fields`), so a cut grid's refusal goes first, and theirs is
    raised at the join."""
    m_thetas = list(m_thetas)       # read twice: an iterator would be spent
    if bad := [m for m in m_thetas if not (_is_int(m) and m >= 2)]:
        raise ValueError(f"m_theta must be a positive integer of at least 2, not {bad[0]!r}")
    z_max = g.effective_z_max(p)
    n_rows = max(1, min(p.support_end, g.n_site + 1))
    scan = p.support_end * (2 * SCAN_POINTS // _kernels.BLOCK)
    with _kernels.meanwhile(grid_free_fields, p, g, z_max, work=scan) as free:
        on_grid = [cut_grid_fields(p, m, n_rows) for m in m_thetas]
        shared = free()
    return [ScatteringData(potential=p, **fields_, **shared) for fields_ in on_grid]


def scattering_grid(p: Potential, g: GridSpec) -> ScatteringData:
    """All scattering data of p on the theta-midpoint grid of g (`scattering_grids`)."""
    return scattering_grids(p, g, [g.m_theta])[0]


def eta_endpoints(d: ScatteringData):
    """Unwrapped phase limits at lambda = -1 and +1, linearly extrapolated
    in theta from the two nearest nodes (eta is smooth in theta there)."""
    th, eta = d.theta, d.eta
    eta_m1 = eta[0] + (eta[1] - eta[0]) * (np.pi - th[0]) / (th[1] - th[0])
    eta_p1 = eta[-1] + (eta[-2] - eta[-1]) * (0.0 - th[-1]) / (th[-2] - th[-1])
    return float(eta_m1), float(eta_p1)


def levinson_residual(d: ScatteringData) -> float:
    """|eta(+1) - eta(-1) - pi (N + Delta_- + Delta_+)|."""
    eta_m1, eta_p1 = eta_endpoints(d)
    target = np.pi * (d.count_n + d.delta_minus + d.delta_plus)
    return float(abs((eta_p1 - eta_m1) - target))
