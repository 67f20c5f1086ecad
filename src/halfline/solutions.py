"""Regular and Jost solutions of the half-line Schrodinger recurrence.

The recurrence is (u(n-1) + u(n+1))/2 + V(n) u(n) = z u(n) on sites n >= 0,
with the convention that sequences carry the extra index n = -1.  A point
is given as the Jost kernels take it (`_kernels.jost_points`): a real z with
|z| >= 1, the thresholds +-1 among them, or a complex zeta with |zeta| = 1 on
the cut, where z = Re zeta; any other point is refused with a ValueError.
Each solution is an array of its values on n = -1..n_max, index n + 1.

The regular solution is fixed by u(-1) = 0, u(0) = 1 and stepped forward.
The Jost solution behaves like zeta(z)^n at infinity; for finitely supported
potentials it equals zeta^n exactly beyond the support, so stepping the
scaled variable t(n) = theta(n)/zeta^n backward from the tail is exact and
stable.  The Volterra summation equation provides an independent oracle for
the same object and is kept as a (quadratically slower) verification path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import NumericsError
from .model import Potential, theta_midpoints

#: rounding slack allowed on exact inequalities
DECAY_SLACK = 1e-10


def regular_solution(p: Potential, x, n_max: int) -> np.ndarray:
    """Forward recursion from the boundary pair u(-1) = 0, u(0) = 1 at the
    point x, with 2z = 2 Re x: real values, refused once they overflow."""
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    x = _kernels.jost_points(x)[0]
    with np.errstate(over="ignore", invalid="ignore"):
        u = _kernels.regular_values(p.values, 2.0 * x.real, n_max)[:, 0]
    if not np.isfinite(u).all():
        n = int(np.argmin(np.isfinite(u))) - 1
        raise NumericsError(f"the regular solution at x = {x[0]} overflows at n = {n}")
    return u


def jost_solution(p: Potential, x, n_max: int) -> np.ndarray:
    """Jost solution at the point x by the scaled backward recursion, which
    starts from the exact free tail past the table: real for real z, the
    thresholds too, whose theta(-1) equals Omega(+-1) of
    `scattering.classify_thresholds` times +-1 bit for bit."""
    x, zeta = _kernels.jost_points(x)
    return _kernels.jost_scaled(p.values, x, n_max)[1][:, 0] / zeta[0]


# ---------------------------------------------------------------------------
# Volterra oracle
# ---------------------------------------------------------------------------

def volterra_jost(p: Potential, x, n_max: int) -> np.ndarray:
    """Jost values from the Volterra summation equation (oracle path), at a
    point zeta = e^(-i theta) on the cut or at a threshold z = +-1.

    Back-substitution through theta(n) = zeta^n - 2 sum_{m>n} K(m-n) V(m) theta(m)
    with kernel K(k) = sin(k theta)/sin(theta), degenerating to k (+-1)^(k-1)
    at the thresholds.  O(support^2); meant for small tables.
    """
    L, zeta = p.support_end, complex(_kernels.jost_points(x)[0][0])
    if zeta.imag:
        theta = -np.angle(zeta)
        def kernel(k):
            return np.sin(k * theta) / np.sin(theta)
    elif abs(zeta.real) == 1.0:
        sgn = zeta.real
        def kernel(k):
            return k * sgn ** (k - 1)
    else:
        raise ValueError("the Volterra oracle takes zeta on the cut or z = +-1")
    top = max(L + 1, n_max + 1)
    vals = np.empty(top + 1, dtype=complex)     # theta(n) for n = 0..top
    for n in range(top, L - 2, -1):
        if n >= 0:
            vals[n] = zeta ** n
    for n in range(min(L - 2, top), -1, -1):
        m = np.arange(n + 1, L)
        acc = np.sum(kernel(m - n) * p.values[m] * vals[m])
        vals[n] = zeta ** n - 2.0 * acc
    theta_m1 = zeta ** (-1) if L == 0 else 2.0 * (zeta.real - p.values[0]) * vals[0] - vals[1]
    return np.concatenate([[theta_m1], vals[:n_max + 1]])


# ---------------------------------------------------------------------------
# decay diagnostics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DecayReport:
    max_violation: float
    empirical_c: float


def _tail_bounds(p: Potential) -> np.ndarray:
    """bounds[n] = exp(2 sum_{m>n} (m-n)|V(m)|) - 1 for n = 0..support_end-1.

    The factor 2 is the magnitude of the Volterra kernel 2 sin(k theta)/sin(theta)
    bounded by 2k; without it the inequality fails already for two-site tables.
    """
    a = np.abs(p.values)
    L = len(a)
    if L == 0:
        return np.zeros(0)
    s1 = np.concatenate([np.cumsum(a[::-1])[::-1], [0.0]])               # sum_{m>=k} |V|
    sm = np.concatenate([np.cumsum((np.arange(L) * a)[::-1])[::-1], [0.0]])
    n = np.arange(L)
    return np.expm1(2.0 * (sm[n + 1] - n * s1[n + 1]))


def decay_scan(p: Potential, m_theta: int) -> DecayReport:
    """Decay check over the full theta grid plus both thresholds.

    One compiled pass steps all points through the table in the cut lanes
    that step the Jost grids, and keeps only the max over the points of
    |t(n) - 1| per site, so large random tables stay cheap.  A recursion or
    tail bound that overflows, leaving the worst excess or the envelope
    constant not finite, is refused; so is a deviation above about 1e154,
    whose square overflows in the step.
    """
    if p.support_end == 0:
        return DecayReport(0.0, 0.0)
    th = theta_midpoints(m_theta)
    zeta = np.concatenate([np.exp(-1j * th), [1.0 + 0j, -1.0 + 0j]])
    with np.errstate(over="ignore", invalid="ignore"):
        worst, c_emp = _kernels.decay_scan(p.values, zeta, _tail_bounds(p), p.rho)
    if p.support_end > 1 and not (np.isfinite(worst) and np.isfinite(c_emp)):
        raise NumericsError(f"decay check overflows: worst excess {worst:.3e}, "
                            f"envelope constant {c_emp:.3e}")
    if worst > DECAY_SLACK:
        raise NumericsError(f"estimate violated: excess {worst:.3e}")
    return DecayReport(float(worst), float(c_emp))
