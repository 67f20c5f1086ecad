"""Potentials, the theta-midpoint nodes, grids, and finite truncations.

The Hamiltonian is H = H0 + V(X) on square-summable sequences over the
half-line sites 0, 1, 2, ..., where H0 is the symmetrised shift with matrix
(u(n-1) + u(n+1))/2 and V is a real potential decaying like (1+n)^(-rho)
with rho > 5/2.  The continuous spectrum is [-1, 1], parametrised by
lambda = cos(theta); the associated multiplier is zeta = e^(-i theta) on the
upper rim of the cut, and zeta(z) = z - sqrt(z^2 - 1) with |zeta| < 1 for
real z outside [-1, 1].
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace

import numpy as np

from . import _kernels
from .errors import AssumptionError, ConfigError, NumericsError

RHO_MIN = 2.5
ENVELOPE_FLOOR = 1e-16

#: longest generated table: 2.5 times the 1,665,610 sites of `random_decaying`
#: with rho_gen 2.6
MAX_TABLE_SITES = 2 ** 22

#: the off-diagonal entry of H0, (u(n-1) + u(n+1))/2
OFF_DIAGONAL = 0.5


def _is_int(v) -> bool:
    """An integer that is not a bool."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _is_real(v) -> bool:
    """A finite real number that is not a bool: an int too large for a float
    is not."""
    if not isinstance(v, (int, float, np.integer, np.floating)) or isinstance(v, bool):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:
        return False


# ---------------------------------------------------------------------------
# potentials
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Potential:
    """Finitely supported real potential table with its decay exponent rho.

    values[n] = V(n) for 0 <= n < support_end; sites beyond the table are
    exactly zero.
    """

    values: np.ndarray
    rho: float

    def __post_init__(self):
        self.values.setflags(write=False)

    @property
    def support_end(self) -> int:
        return len(self.values)

    @property
    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values), initial=0.0))

    def diagonal(self, size: int) -> np.ndarray:
        d = np.zeros(size)
        k = min(size, len(self.values))
        d[:k] = self.values[:k]
        return d

    def content_hash(self) -> str:
        h = hashlib.sha256()
        h.update(repr(self.rho).encode())
        h.update(self.values.tobytes())
        return h.hexdigest()[:16]


def table_potential(values, rho: float) -> Potential:
    if not _is_real(rho):
        raise ConfigError(f"rho must be a finite real number, not {rho!r}")
    if not rho > RHO_MIN:
        raise AssumptionError(
            f"assumption violated: decay exponent rho must exceed 5/2, got {rho}")
    try:
        values = np.asarray(values)
    except ValueError:          # ragged nesting
        values = np.asarray(None)
    if values.dtype.kind not in "iuf" or values.ndim != 1 or not np.all(np.isfinite(values)):
        raise ConfigError("potential table must be a one-dimensional list of finite real numbers")
    return Potential(values=np.trim_zeros(values, "b").astype(float), rho=float(rho))


def zero_potential(rho: float = 3.0) -> Potential:
    return table_potential(np.zeros(0), rho)


def rank_one(v0: float, site: int = 0, rho: float = 3.0) -> Potential:
    if not _is_real(v0):
        raise ConfigError(f"v0 must be a finite real number, not {v0!r}")
    if not _is_int(site) or not 0 <= site < MAX_TABLE_SITES:
        raise ConfigError(f"site must be an integer in [0, {MAX_TABLE_SITES}), not {site!r}")
    values = np.zeros(site + 1)
    values[site] = v0
    return table_potential(values, rho)


def random_decaying(seed: int, rho_gen: float = 3.0, amplitude: float = 1.5,
                    rho: float | None = None) -> Potential:
    """V(n) = amplitude * u_n * (1+n)^(-rho_gen), u_n uniform in [-1, 1].

    The table is truncated where the envelope falls below 1e-16, which keeps
    the free tail of the recursion exact.
    """
    if not _is_int(seed) or seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, not {seed!r}")
    if not _is_real(amplitude) or amplitude <= 0:
        raise ConfigError(f"amplitude must be a finite real number above 0, not {amplitude!r}")
    if not _is_real(rho_gen):
        raise ConfigError(f"rho_gen must be a finite real number, not {rho_gen!r}")
    if not rho_gen > RHO_MIN:       # the table's length grows without bound toward 5/2
        raise AssumptionError(
            f"assumption violated: rho_gen must exceed 5/2, got {rho_gen}")
    length = (amplitude / ENVELOPE_FLOOR) ** (1.0 / rho_gen)
    if not length <= MAX_TABLE_SITES:     # refused before an array is asked for
        raise ConfigError(f"random_decaying table of {length:.4g} sites exceeds {MAX_TABLE_SITES}")
    length = math.floor(length)
    rng = np.random.default_rng(seed)
    n = np.arange(length)
    values = amplitude * rng.uniform(-1.0, 1.0, length) * (1.0 + n) ** (-rho_gen)
    return table_potential(values, rho_gen if rho is None else rho)


def make_potential(spec: dict) -> Potential:
    """Build a Potential from a configuration block."""
    if not isinstance(spec, dict):
        raise ConfigError("potential spec must be a mapping")
    spec = dict(spec)
    kind = spec.pop("kind", None)
    try:
        if kind == "zero":
            return zero_potential(**spec)
        if kind == "rank_one":
            return rank_one(**spec)
        if kind == "table":
            return table_potential(**spec)
        if kind == "random_decaying":
            return random_decaying(**spec)
    except TypeError as exc:
        raise ConfigError(f"bad potential parameters: {exc}") from None
    raise ConfigError(f"unknown potential kind: {kind!r}")


# ---------------------------------------------------------------------------
# grids and truncations
# ---------------------------------------------------------------------------

def theta_midpoints(m: int) -> np.ndarray:
    """The midpoint nodes theta_j = (j + 1/2) pi / m, ordered by increasing
    lambda = cos(theta).  An m that is not a positive integer is refused."""
    if not (_is_int(m) and m > 0):
        raise ValueError(f"m_theta must be a positive integer, not {m!r}")
    return ((np.arange(m) + 0.5) * np.pi / m)[::-1].copy()


@dataclass(frozen=True)
class GridSpec:
    """Resolution and tolerance knobs for the whole pipeline."""

    m_theta: int = 512
    n_site: int = 128
    beta_max: float = 12.0
    m_beta: int = 1024
    z_max: float | None = None
    n_edge: int = 2048
    alpha_max: float = 12.0
    tol_threshold: float = 1e-3
    tol_root: float = 1e-10
    tol_winding: float = 0.05

    def __post_init__(self):
        for name in ("m_theta", "n_site", "m_beta", "n_edge"):
            v = getattr(self, name)
            if not _is_int(v):
                raise ConfigError(f"{name} must be an integer, not {v!r}")
        for name, low in (("beta_max", 0), ("alpha_max", 0), ("z_max", 1), ("tol_threshold", 0),
                          ("tol_root", 0), ("tol_winding", 0)):
            v = getattr(self, name)
            if not (name == "z_max" and v is None) and not (_is_real(v) and v > low):
                raise ConfigError(f"{name} must be a finite real number above {low}, not {v!r}")
        # the beta grid spans 2 beta_max and the scattering edge 4 alpha_max
        for name, span in (("beta_max", 2.0), ("alpha_max", 4.0)):
            if not math.isfinite(span * getattr(self, name)):
                raise ConfigError(f"{name} overflows the span {span:g} {name} of its grid")
        # the operator checks read an n_site/2 block; an edge needs two ends
        if self.n_site < 2 or self.n_edge < 2:
            raise ConfigError("n_site and n_edge must be at least 2")
        if self.m_beta <= 0:
            raise ConfigError("m_beta must be positive")
        if self.m_theta < 2 * self.n_site:
            raise ConfigError("m_theta must be at least 2 * n_site")
        if self.m_beta % 2 != 0:
            raise ConfigError("m_beta must be even")

    def effective_z_max(self, p: Potential) -> float:
        sup = p.sup_norm            # an O(L) pass, read once
        z_max = 1.0 + 2.0 * (1.0 + sup) if self.z_max is None else self.z_max
        # the bound-state scan steps 2z - 2V(n) for |z| up to z_max
        if not math.isfinite(2.0 * (z_max + sup)):
            raise NumericsError(f"z_max {z_max:.3e} and sup|V| {sup:.3e} overflow 2(z - V)")
        return z_max

    def refined(self) -> "GridSpec":
        """Grid with doubled spectral resolution (site window unchanged)."""
        return replace(self, m_theta=2 * self.m_theta, m_beta=2 * self.m_beta,
                       n_edge=2 * self.n_edge)


@dataclass(frozen=True)
class TridiagonalTruncation:
    """Dirichlet truncation of H onto the first len(diagonal) sites."""

    diagonal: np.ndarray

    def matrix(self) -> np.ndarray:
        m = np.diag(self.diagonal).astype(float)
        off = OFF_DIAGONAL * np.ones(len(self.diagonal) - 1)
        m += np.diag(off, 1) + np.diag(off, -1)
        return m

    def eigenvalues(self) -> np.ndarray:
        from scipy.linalg import eigh_tridiagonal     # tests and demos only: off the import path
        return eigh_tridiagonal(self.diagonal, OFF_DIAGONAL * np.ones(len(self.diagonal) - 1),
                                eigvals_only=True)

    def eigenvalues_beyond(self, bounds) -> list:
        """For each b in bounds, the number of eigenvalues with |lambda| > b: the
        positive pivots of LDL^T = T - b and -T - b (Sturm counts; Barth, Martin and
        Wilkinson 1967), from the compiled `sturm` of `_kernels`, which steps the
        pivot chains of two bounds side by side.  A zero pivot counts as 0-, so
        lambda = +-b is not beyond."""
        counts, nan = _kernels.sturm_counts(self.diagonal, OFF_DIAGONAL ** 2, bounds)
        if nan >= 0:                        # a NaN pivot stays NaN to the last
            raise NumericsError(f"count oracle failed: NaN pivot at +-{bounds[nan]}")
        return counts


def hamiltonian_truncation(p: Potential, size: int) -> TridiagonalTruncation:
    if size < 1:
        raise ValueError("size must be at least 1")
    return TridiagonalTruncation(diagonal=p.diagonal(size))
