"""Reference values computed apart from the program under test.

Nothing here imports `halfline`.  The recurrence is the half-line one,
(u(n-1) + u(n+1))/2 + V(n) u(n) = z u(n), and the Jost function is
Omega(z) = zeta theta(-1, z) with theta(n) = zeta^n beyond the table.
"""

from __future__ import annotations

import math

import numpy as np

#: the report's gate on the Levinson residual
LEVINSON_GATE = 1e-3 * math.pi

#: float64 rounding allowed where a closed form gives Omega exactly
EXACT_TOL = 1e-12

#: float64 error of Omega(+-1) against an extended-precision recursion, as
#: measured on the 246,621-site random tables (up to 1.4e-6), with margin; it
#: grows like sites^1.6 (3.0e-5 at 1,665,610 sites)
LONG_TABLE_TOL = 5e-6
LONG_TABLE_SITES = 246_621

#: shortest Dirichlet truncation beyond the table for the eigenvalue count
STURM_MARGIN = 20_000


def random_table(seed: int, rho_gen: float, amplitude: float) -> np.ndarray:
    """V(n) = amplitude u_n (1+n)^(-rho_gen), u_n uniform in [-1, 1], cut
    where the envelope falls below 1e-16: the `random_decaying` input."""
    length = int(math.floor((amplitude / 1e-16) ** (1.0 / rho_gen)))
    u = np.random.default_rng(seed).uniform(-1.0, 1.0, length)
    return np.trim_zeros(amplitude * u * (1.0 + np.arange(length)) ** (-rho_gen), "b")


def table_of(spec: dict) -> np.ndarray:
    """The potential table a config `potential` block describes."""
    kind = spec["kind"]
    if kind == "rank_one":
        values = np.zeros(spec.get("site", 0) + 1)
        values[-1] = spec["v0"]
        return values
    if kind == "table":
        return np.trim_zeros(np.asarray(spec["values"], float), "b")
    if kind == "random_decaying":
        return random_table(spec["seed"], spec.get("rho_gen", 3.0),
                            spec.get("amplitude", 1.5))
    raise ValueError(f"no reference for potential kind {kind!r}")


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def _polynomial(spec: dict):
    """Omega as a polynomial in zeta (highest power first), for the tables
    short enough to write the backward steps out by hand."""
    v = table_of(spec)
    if len(v) == 1:                        # one step: 1 - 2 v0 zeta
        return np.array([-2.0 * v[0], 1.0])
    if len(v) == 2:                        # (1 + zeta^2 - 2a zeta)(1 - 2b zeta) - zeta^2
        a, b = v
        return np.array([-2.0 * b, 4.0 * a * b, -2.0 * (a + b), 1.0])
    return None


def has_closed_form(spec: dict) -> bool:
    return _polynomial(spec) is not None


def closed_form_omega(spec: dict, zeta) -> np.ndarray:
    return np.polyval(_polynomial(spec), np.asarray(zeta))


def closed_form_bound_states(spec: dict) -> np.ndarray:
    """z = (zeta + 1/zeta)/2 at the real zeros 0 < |zeta| < 1 of Omega."""
    roots = np.roots(_polynomial(spec))
    zeta = roots[(np.abs(roots.imag) <= 1e-12) & (np.abs(roots) < 1.0)].real
    return np.sort(0.5 * (zeta + 1.0 / zeta))


# ---------------------------------------------------------------------------
# any table
# ---------------------------------------------------------------------------

def jost_extended(values: np.ndarray, z: float) -> np.longdouble:
    """Omega(z) at a real z with |z| >= 1, by the scaled backward recursion
    t(n-1) = 2 (z - V(n)) zeta t(n) - zeta^2 t(n+1) in long double."""
    z = np.longdouble(z)
    one = np.longdouble(1)
    zeta = z if abs(z) == one else np.sign(z) / (abs(z) + np.sqrt(z * z - one))
    z2 = zeta * zeta
    t_next = t_cur = one
    for c in ((2 * z - 2 * np.asarray(values, np.longdouble)) * zeta)[::-1]:
        t_next, t_cur = t_cur, c * t_cur - z2 * t_next
    return t_cur


def threshold_omegas(values: np.ndarray) -> tuple:
    """(Omega(+1), Omega(-1)) in float64, stepped as Python floats: cheap
    enough to screen drawn inputs.  At zeta = +-1 the step is
    t(n-1) = (2 -+ 2 V(n)) (+-1) t(n) - t(n+1)."""
    tp_next = tp = tm_next = tm = 1.0
    for v in reversed(np.asarray(values, float).tolist()):
        tp_next, tp = tp, (2.0 - 2.0 * v) * tp - tp_next
        tm_next, tm = tm, (2.0 + 2.0 * v) * tm - tm_next
    return tp, tm


def long_table_tol(sites: int) -> float:
    return max(LONG_TABLE_TOL * (sites / LONG_TABLE_SITES) ** 1.6, EXACT_TOL)


def sturm_count(values: np.ndarray, bound_states=()) -> int:
    """Eigenvalues outside [-1, 1] of the Dirichlet truncation of H, by
    Sturm sequences.  The truncation runs past the table by STURM_MARGIN
    sites, or by 40 decay lengths of the slowest-decaying bound state given.
    By interlacing a truncation never counts more eigenvalues than H has."""
    margin = STURM_MARGIN
    for z in bound_states:
        if abs(z) > 1.0:
            zeta = 1.0 / (abs(z) + math.sqrt(z * z - 1.0))
            margin = max(margin, math.ceil(40.0 / -math.log(zeta)))
    diag = np.asarray(values, float).tolist() + [0.0] * margin
    return _count_below(diag, -1.0) + len(diag) - _count_below(diag, 1.0)


def _count_below(diag, x: float) -> int:
    """Number of eigenvalues below x: the negative pivots of LDL^T of T - x,
    T with diagonal `diag` and off-diagonal 1/2."""
    count, q = 0, math.inf                 # no coupling into the first site
    for v in diag:
        q = (v - x) - 0.25 / q
        if q == 0.0:
            q = -1e-300
        count += q < 0.0
    return count
