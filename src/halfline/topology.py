"""Boundary symbol of the wave operator and the winding-number index check.

The symbol lives on the boundary of the compactified (A, B)-plane: a square
whose four edges carry the rescaled scattering matrix S(beta) = s(tanh beta),
the two threshold curves Gamma_-, Gamma_+, and the constant 1.  Traversed as
a closed loop it avoids the origin, and its winding number equals the number
of bound states.  The traversal order and edge directions below are
calibrated against the rank-one family, for which every quantity is in
closed form; the per-edge contributions then come out as
    S-edge: (eta(+1) - eta(-1))/pi,  Gamma_-: -Delta_-,  Gamma_+: -Delta_+.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import NumericsError
from .model import GridSpec, Potential
from .scattering import ScatteringData, eta_endpoints

#: pre-snap corner mismatch allowed before the classification is distrusted
CORNER_GUARD = 1e-4

#: turns by which the scattering edge may differ from (eta(+1) - eta(-1))/pi
#: before the edge is taken to have lost a turn between two samples
EDGE_TURN_GUARD = 0.25

EDGE_ORDER = ("scattering", "gamma_minus", "constant", "gamma_plus")


def gamma_curve(sign: int, s_threshold: float, alpha: np.ndarray) -> np.ndarray:
    """Threshold edge Gamma_+- on an alpha grid.

    Equals 1 identically in the generic case s(+-1) = +1; in the resonant
    case it is the half-circle tanh(pi alpha) +- i sech(pi alpha).
    """
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    with np.errstate(over="ignore"):
        sech = 1.0 / np.cosh(np.pi * alpha)
    return 1.0 + (s_threshold - 1.0) / 2.0 * (1.0 - np.tanh(np.pi * alpha)
                                              + 1j * sign * sech)


@dataclass(frozen=True)
class BoundaryCurve:
    """Sampled closed boundary symbol, edges concatenated in traversal order."""

    points: np.ndarray
    params: np.ndarray
    edge_slices: dict


def scattering_edge(p: Potential, g: GridSpec) -> tuple:
    """(beta, Omega) on the scattering edge: g.n_edge values of beta from
    2 alpha_max down to -2 alpha_max, Omega of p at theta = 2 atan(e^(-beta))."""
    beta = np.linspace(2.0 * float(g.alpha_max), -2.0 * float(g.alpha_max), g.n_edge)
    theta = 2.0 * np.arctan(np.exp(-beta))
    return beta, _kernels.jost_function_values(p.values, np.exp(-1j * theta))


def assemble_boundary(d: ScatteringData, g: GridSpec, edge: tuple) -> BoundaryCurve:
    """Concatenate the four edges into one closed curve; edge is
    `scattering_edge(d.potential, g)`.

    Traversal: the scattering edge from beta = +inf down to -inf, then
    Gamma_- with alpha rising, the constant edge, and Gamma_+ with alpha
    falling; corners are [s(+1), s(-1), 1, 1] and the loop closes at s(+1).
    Infinite edges are clamped where their profiles saturate and the
    endpoints snapped to the exact corner limits from the threshold
    classification.  The scattering edge gets twice the Gamma window:
    s(tanh beta) approaches its limit only like e^(-beta) times the phase
    slope, while the Gamma profiles saturate like e^(-pi alpha).

    The turn of the scattering edge, the sum of its phase steps, is checked
    against the cut grid's (eta(+1) - eta(-1))/pi: an edge too coarse to
    follow the phase can lose a whole turn without any large sampled jump.
    """
    (beta, omega), n_edge, amax = edge, g.n_edge, float(g.alpha_max)
    sp, sm = (-1.0 if delta == 0.5 else 1.0 for delta in (d.delta_plus, d.delta_minus))
    s_edge = np.conj(omega) / omega

    alpha_up = np.linspace(-amax, amax, n_edge)
    gm = gamma_curve(-1, sm, alpha_up)
    gp = gamma_curve(+1, sp, alpha_up[::-1])
    const = np.ones(max(n_edge // 8, 2), dtype=complex)

    for name, value, corner in (("scattering start", s_edge[0], sp),
                                ("scattering end", s_edge[-1], sm),
                                ("gamma_minus start", gm[0], sm),
                                ("gamma_minus end", gm[-1], 1.0),
                                ("gamma_plus start", gp[0], 1.0),
                                ("gamma_plus end", gp[-1], sp)):
        if abs(value - corner) > CORNER_GUARD:
            raise NumericsError(f"corner mismatch at {name}: "
                                f"|{value:.6f} - {corner}| > {CORNER_GUARD}")

    edges = (                   # (points, params) of each edge, in EDGE_ORDER
        (np.concatenate([[sp], s_edge, [sm]]), np.concatenate([beta[:1], beta, -beta[:1]])),
        (np.concatenate([[sm], gm, [1.0]]), np.concatenate([[-amax], alpha_up, [amax]])),
        (const, np.zeros(len(const))),
        (np.concatenate([[1.0], gp, [sp]]), np.concatenate([[amax], alpha_up[::-1], [-amax]])),
    )
    s_full = edges[0][0]
    turn = float(np.sum(np.angle(s_full[1:] / s_full[:-1])) / (2.0 * np.pi))
    eta_m1, eta_p1 = eta_endpoints(d)
    if abs(turn - (eta_p1 - eta_m1) / np.pi) >= EDGE_TURN_GUARD:
        raise NumericsError(f"undersampled: the scattering edge turns {turn:.3f}, "
                            f"(eta(+1) - eta(-1))/pi is {(eta_p1 - eta_m1) / np.pi:.3f}")
    points, params = (np.concatenate(parts) for parts in zip(*edges))
    ends = np.cumsum([0] + [len(pts) for pts, _ in edges]).tolist()
    return BoundaryCurve(points, params, {name: slice(a, b) for name, a, b
                                          in zip(EDGE_ORDER, ends, ends[1:])})


@dataclass(frozen=True)
class WindingReport:
    winding: int
    raw_phase_total: float
    per_edge: dict
    match: bool
    max_jump: float


def winding_number(curve: BoundaryCurve, tol_winding: float, count_n: int) -> WindingReport:
    """Unwrap the phase along the closed curve, round the total turn and
    compare it with the bound-state count count_n.

    Raises when consecutive samples jump by pi/2 or more (undersampled) or
    when the total is not within tol_winding of an integer.
    """
    ph = np.unwrap(np.angle(curve.points))
    steps = np.abs(np.diff(ph))
    max_jump = float(np.max(steps))
    if max_jump >= np.pi / 2:
        raise NumericsError(f"undersampled: phase jump {max_jump:.3f} >= pi/2")
    total = float((ph[-1] - ph[0]) / (2.0 * np.pi))
    w = int(round(total))
    if abs(total - w) >= tol_winding:
        raise NumericsError(f"not integer: total turn {total:.4f}")
    per_edge = {}
    for name in EDGE_ORDER:
        sl = curve.edge_slices[name]
        if sl.stop <= sl.start:
            per_edge[name] = 0.0
            continue
        per_edge[name] = float((ph[sl.stop - 1] - ph[sl.start]) / (2.0 * np.pi))
    return WindingReport(winding=w, raw_phase_total=total, per_edge=per_edge,
                         match=(w == count_n), max_jump=max_jump)


def winding_report(d: ScatteringData, p: Potential, g: GridSpec) -> WindingReport:
    """Assemble the boundary curve of d, with p's Omega on the scattering
    edge, and compare its winding with the bound-state count."""
    curve = assemble_boundary(d, g, scattering_edge(p, g))
    return winding_number(curve, tol_winding=g.tol_winding, count_n=d.count_n)
