"""Operator matrices in the spectral representation of H0.

The theta-midpoint grid theta_j = (j + 1/2) pi / m carries the weights
w_j = (pi/m) sin(theta_j), so that sums over nodes approximate integrals in
lambda = cos(theta) over (-1, 1).  In the sqrt(w)-normalised coordinates the
sine transform column n is sqrt(2/m) sin((n+1) theta_j): the columns are
exactly orthonormal for n_site <= m/2 because the midpoint rule integrates
cos(k theta) exactly for 0 < k < 2m.  That quadrature exactness is what makes
the free identities below hold to rounding on interior blocks.

Matrix conventions: lambda-grid index is always the row of the transform
matrices; operators on the site space are (n_site x n_site) complex arrays.
A cut grid carries its transforms Fsin and Fcos, formed once with the grid;
they also give zeta^(n+1) = sqrt(m/2) (Fcos - i Fsin).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import _kernels
from .errors import NumericsError
from .model import Potential, hamiltonian_truncation, theta_midpoints
from .scattering import ScatteringData


@dataclass(frozen=True)
class QuadratureGrid:
    """Theta-midpoint nodes ordered by increasing lambda, with the sine and
    cosine transforms on n_site sites: fsin[j, n] = sqrt(w_j) psi_sin(n, lambda_j)
    = sqrt(2/m) sin((n+1) theta_j), and fcos likewise with cos."""

    m: int
    theta: np.ndarray
    weights: np.ndarray
    fsin: np.ndarray
    fcos: np.ndarray

    @property
    def n_site(self) -> int:
        return self.fsin.shape[1]

    @property
    def sqrt_weights(self) -> np.ndarray:
        return np.sqrt(self.weights)

    def first(self, b: int) -> "QuadratureGrid":
        """The grid on its first b sites, 1 <= b <= n_site: views of fsin and fcos.
        Each row of an operator formed on it, and so its b x b block, has the
        bits of the same rows of the operator formed on all n_site sites."""
        if not 1 <= b <= self.n_site:
            raise ValueError(f"first(b): b = {b} is not in 1..n_site = {self.n_site}")
        return replace(self, fsin=self.fsin[:, :b], fcos=self.fcos[:, :b])


def quadrature_grid(m: int, n_site: int) -> QuadratureGrid:
    theta = theta_midpoints(m)
    if n_site > m // 2:
        raise NumericsError(f"grid too small: n_site = {n_site} exceeds m/2 = {m // 2}")
    phase = np.outer(theta, np.arange(1, n_site + 1))
    return QuadratureGrid(m=m, theta=theta, weights=(np.pi / m) * np.sin(theta),
                          fsin=np.sqrt(2.0 / m) * np.sin(phase),
                          fcos=np.sqrt(2.0 / m) * np.cos(phase))


def cos_sin_coupling(grid: QuadratureGrid) -> np.ndarray:
    """U = i Fcos^* Fsin: the potential-independent factor multiplying the
    scattering operator in the wave-operator identity."""
    return 1j * (grid.fcos.T @ grid.fsin)


def _real_product(F: np.ndarray, b: np.ndarray) -> np.ndarray:
    """F^T b for complex F and real b as two real products, one over each
    part of F, where numpy would cast b to complex and run a complex GEMM."""
    return F.real.T @ b + 1j * (F.imag.T @ b)


def _require_same_grid(d: ScatteringData, m: int):
    if d.m_theta != m:
        raise NumericsError("scattering data and quadrature grid disagree")


def scattering_operator(d: ScatteringData, grid: QuadratureGrid) -> np.ndarray:
    """S = Fsin^* s(lambda) Fsin with the scattering-matrix multiplier."""
    _require_same_grid(d, grid.m)
    return _real_product(d.smatrix[:, None] * grid.fsin, grid.fsin)


def jost_transform(d: ScatteringData, grid: QuadratureGrid,
                   tol_threshold: float) -> np.ndarray:
    """Generalised transform F_- built from the perturbed wave functions; in
    the free case it is the sine transform.  F_+ = conj(F_-) on the cut."""
    _require_same_grid(d, grid.m)
    if np.min(d.amplitude) < tol_threshold:
        raise NumericsError("resonant grid: amplitude below threshold tolerance")
    phi = _kernels.regular_values(d.potential.values, 2.0 * d.lam, grid.n_site - 1)[1:]
    sq = np.sqrt(2.0 / np.pi) * (1.0 - d.lam ** 2) ** 0.25 / d.amplitude
    psi_m = sq * phi * (d.omega / d.amplitude)      # psi_-(n, lambda_j), shape (n_site, m)
    return grid.sqrt_weights[:, None] * psi_m.T


def wave_operator(d: ScatteringData, grid: QuadratureGrid, tol_threshold: float,
                  sign: int = -1) -> np.ndarray:
    """Stationary wave operator W_- = F_-^* Fsin (or W_+ = F_-^T Fsin for sign=+1)."""
    Fm = jost_transform(d, grid, tol_threshold)
    W = _real_product(Fm, grid.fsin)
    return np.conj(W) if sign < 0 else W


# ---------------------------------------------------------------------------
# Jost-tail correction kernel
# ---------------------------------------------------------------------------

def correction_operator(d: ScatteringData, grid: QuadratureGrid) -> np.ndarray:
    """K0 Fsin (n_site x n_site), a Hilbert-Schmidt operator on the sites,
    from the remainder kernel K0(n, lambda) = sqrt(2/pi) [conj(p zeta) -
    s p zeta] / (2i) with p(n, lambda) = (theta(n) - zeta^n)/(1-lambda^2)^(1/4).

    p(n) is 0 for n >= L - 1 on a table of L sites, where theta(n) = zeta^n, so
    it is formed on the k = min(n_site, L - 1) sites before alone: zeta theta(n)
    from the kept rows (`scattering_grids`), zeta^(n+1) as sqrt(m/2) (Fcos - i Fsin).
    At k = 0, as on every one-site table, K0 Fsin is the zero block."""
    _require_same_grid(d, grid.m)
    k, kept = min(grid.n_site, max(d.potential.support_end - 1, 0)), len(d.jost_rows) - 1
    if k > kept:
        raise ValueError(f"scattering data keeps Jost rows for {kept} sites, not {k}")
    if k == 0:
        return np.zeros((grid.n_site, grid.n_site), complex)
    powers = np.sqrt(grid.m / 2.0) * (grid.fcos[:, :k] - 1j * grid.fsin[:, :k]).T
    pz = np.zeros((grid.n_site, grid.m), complex)
    pz[:k] = (d.jost_rows[1:k + 1] - powers) / (1.0 - d.lam ** 2) ** 0.25
    k0 = np.sqrt(2.0 / np.pi) * (np.conj(pz) - d.smatrix[None, :] * pz) / 2j
    return _real_product((k0 * grid.weights[None, :]).T, grid.fsin / grid.sqrt_weights[:, None])


# ---------------------------------------------------------------------------
# the wave-operator identity
# ---------------------------------------------------------------------------

def _composed_block(grid: QuadratureGrid, smatrix: np.ndarray) -> np.ndarray:
    """A[:b, :b] of A = (U+1)/2 (S-1), U and S composed at m-2 sites, b = grid.n_site.

    A[:b, :b] = 1/2 (U[:b, :] S[:, :b] - U[:b, :b] + S[:b, :b] - 1), and
    U[:b, :] S[:, :b] = i Fcos_b^T (F F^T) (s Fsin_b), with F the m-2 sine
    columns.  The midpoint rule makes all m sine modes orthogonal, the last
    one with norm sqrt(m) in place of sqrt(m/2), so F F^T is the identity
    less the projections onto modes m-1 and m: the block costs O(m b^2) and
    forms no m x (m-2) transform.
    """
    m, F, C = grid.m, grid.fsin, grid.fcos
    Y = smatrix[:, None] * F
    top = np.stack([np.sqrt(2.0 / m) * np.sin((m - 1) * grid.theta),
                    np.sqrt(1.0 / m) * np.sin(m * grid.theta)], axis=1)
    US = 1j * (C.T @ (Y - top @ (top.T @ Y)))
    return 0.5 * (US - 1j * (C.T @ F) + F.T @ Y - np.eye(grid.n_site))


def wave_identity_residual(d: ScatteringData, grid: QuadratureGrid, W: np.ndarray) -> float:
    """Max-norm defect of W_- = 1 + (U+1)/2 (S-1) + K0 Fsin on the interior
    block, b = grid.n_site // 2, for the wave operator W on the cut grid of d.
    Only W[:b, :b] is read, so W may be formed on all sites or on the block
    alone; K0 Fsin and the composed product are formed on `grid.first(b)`.

    The product (U+1)/2 (S-1) is composed at the full quadrature-supported
    site dimension (m-2): truncating the composition at n_site leaks the
    slowly decaying sine-cosine tails and floors the residual around 1e-4
    regardless of m.  Composed at full resolution the residual is genuine
    quadrature error and falls at least at second order in the node count;
    its b x b block costs O(m b^2) time and O(m b) memory (`_composed_block`).
    """
    b = grid.n_site // 2
    inner = grid.first(b)
    K = correction_operator(d, inner)
    R = W[:b, :b] - (np.eye(b) + _composed_block(inner, d.smatrix) + K)
    return float(np.max(np.abs(R)))


def wave_isometry_defect(W: np.ndarray) -> float:
    """Max-norm of W^*W - 1 on the interior block (isometry of W_-)."""
    n = W.shape[0]
    D = W.conj().T @ W - np.eye(n)
    return float(np.max(np.abs(D[:n // 2, :n // 2])))


def completeness_defect(W: np.ndarray, p: Potential) -> float:
    """Max-norm of W W^* - (1 - P_b) on the interior block, P_b the spectral
    projector of the dense site truncation onto its eigenvectors beyond
    1 + 1e-9 in modulus."""
    n = W.shape[0]
    evals, evecs = np.linalg.eigh(hamiltonian_truncation(p, n).matrix())
    out = np.abs(evals) > 1.0 + 1e-9
    Pb = evecs[:, out] @ evecs[:, out].T
    D = W @ W.conj().T - (np.eye(n) - Pb)
    return float(np.max(np.abs(D[:n // 2, :n // 2])))


# ---------------------------------------------------------------------------
# shift-operator identity on the theta grid
# ---------------------------------------------------------------------------

def shift_identity_residual(grid: QuadratureGrid, U: np.ndarray) -> dict:
    """Defect of T = H0 + i (1 - H0^2)^(1/2) U^* on the interior n_site/2 block.

    `composite` assembles the product (1-H0^2)^(1/2) U^* as one quadrature
    in the spectral representation (sin(theta) multiplier against the cosine
    transform), which keeps the identity exact to rounding; `naive_product`
    multiplies the separately truncated factors and carries the projection
    leakage of the truncated site space.  Both are formed on the block
    alone, their rows from `grid.first(b)`; U is given on all n_site sites.
    """
    b = grid.n_site // 2
    inner = grid.first(b)
    sth = np.sin(grid.theta)[:, None]
    T = np.eye(b, k=-1)
    composite = inner.fsin.T @ (sth * inner.fcos)
    naive = 1j * ((inner.fsin.T @ (sth * grid.fsin)) @ U[:b].conj().T)
    t_h0 = T - (T + T.T) / 2.0                     # T - H0
    return {"composite": float(np.max(np.abs(t_h0 - composite))),
            "naive_product": float(np.max(np.abs(t_h0 - naive)))}
