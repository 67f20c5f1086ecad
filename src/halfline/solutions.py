"""Regular and Jost solutions of the half-line Schrodinger recurrence.

The recurrence is (u(n-1) + u(n+1))/2 + V(n) u(n) = z u(n) on sites n >= 0,
with the convention that sequences carry the extra index n = -1.  The
regular solution is fixed by u(-1) = 0, u(0) = 1 and stepped forward.  The
Jost solution behaves like zeta(z)^n at infinity; for finitely supported
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
from .model import OffAxisPoint, Potential, SpectralPoint, theta_midpoints

#: rounding slack allowed on exact inequalities
DECAY_SLACK = 1e-10


@dataclass(frozen=True)
class SolutionSequence:
    """Values of a solution on n = -1..n_max (index offset one)."""

    kind: str
    point: object
    values: np.ndarray
    potential: Potential

    def __post_init__(self):
        self.values.setflags(write=False)

    def value(self, n: int) -> complex:
        return complex(self.values[n + 1])


def _kind(base: str, p: Potential) -> str:
    return ("free_" + base) if p.is_free() else base


def regular_solution(p: Potential, point, n_max: int) -> SolutionSequence:
    """Forward recursion from the boundary pair u(-1) = 0, u(0) = 1."""
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    two_z = np.array([point.two_z])
    vals = _kernels.regular_values(p.values, two_z, n_max)[:, 0]
    return SolutionSequence(kind=_kind("regular", p), point=point,
                            values=vals.astype(complex), potential=p)


def jost_solution(p: Potential, point, n_max: int,
                  n_tail: int | None = None) -> SolutionSequence:
    """Jost solution on n = -1..n_max by the scaled backward recursion.

    The potential must vanish from the tail start onward; `n_tail` may name
    the intended tail and is rejected if the support sticks out of it.
    """
    if isinstance(point, SpectralPoint) and point.is_threshold:
        raise ValueError("lambda = +-1 is a threshold: Omega(+-1) comes from "
                         "classify_thresholds")
    return _jost_sequence(p, point, n_max, n_tail)


def jost_coordinate(point):
    """The point as the Jost kernels take it: the real z off the cut and at
    its ends zeta = +-1, else zeta."""
    if isinstance(point, OffAxisPoint):
        return point.z
    return point.zeta if point.zeta.imag else point.lam


def _jost_sequence(p: Potential, point, n_max: int, n_tail: int | None) -> SolutionSequence:
    if n_tail is not None and p.support_end > n_tail:
        raise NumericsError(
            f"tail not free: support runs to {p.support_end}, tail starts at {n_tail}")
    rows = _kernels.jost_scaled(p.values, jost_coordinate(point), n_max)[1][:, 0]
    return SolutionSequence(kind=_kind("jost", p), point=point,
                            values=rows / complex(point.zeta), potential=p)


# ---------------------------------------------------------------------------
# Volterra oracle
# ---------------------------------------------------------------------------

def volterra_jost(p: Potential, point, n_max: int) -> SolutionSequence:
    """Jost values from the Volterra summation equation (oracle path).

    Back-substitution through theta(n) = zeta^n - 2 sum_{m>n} K(m-n) V(m) theta(m)
    with kernel K(k) = sin(k theta)/sin(theta), degenerating to k (+-1)^(k-1)
    at the thresholds.  O(support^2); meant for small tables.
    """
    L = p.support_end
    if isinstance(point, OffAxisPoint):
        raise ValueError("oracle implemented on the spectral cut only")
    zeta = complex(point.zeta)
    if point.is_threshold:
        sgn = 1.0 if point.lam > 0 else -1.0
        def kernel(k):
            return k * sgn ** (k - 1)
    else:
        st = np.sin(point.theta)
        def kernel(k):
            return np.sin(k * point.theta) / st
    top = max(L + 1, n_max + 1)
    vals = np.empty(top + 1, dtype=complex)     # theta(n) for n = 0..top
    for n in range(top, L - 2, -1):
        if n >= 0:
            vals[n] = zeta ** n
    for n in range(min(L - 2, top), -1, -1):
        m = np.arange(n + 1, L)
        acc = np.sum(kernel(m - n) * p.values[m] * vals[m])
        vals[n] = zeta ** n - 2.0 * acc
    theta_m1 = zeta ** (-1) if L == 0 else \
        (2.0 * (0.5 * point.two_z - p.value(0)) * vals[0] - vals[1])
    out = np.concatenate([[theta_m1], vals[:n_max + 1]])
    return SolutionSequence(kind=_kind("jost", p), point=point,
                            values=out, potential=p)


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
