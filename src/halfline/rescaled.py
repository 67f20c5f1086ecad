"""The rescaled energy representation and pseudo-differential comparisons.

The substitution lambda = tanh(beta) maps the spectral interval onto the
line; composing with the sine transform gives a unitary map R from the site
space to functions of beta, under which H0 becomes multiplication by
tanh(beta) and the conjugate operator becomes the momentum D = -i d/dbeta.
The coupling operator U then agrees, up to a compact remainder, with the
zeroth-order symbol
    -tanh(pi D) + i tanh(X/2) sech(pi D),
and the shift operator with tanh(X) - i sech(X) tanh(pi D).  "Compact" is
operationalised as finite-rank approximability of the sampled difference
(singular values dropping below a fraction of the largest) together with
stability of the leading singular value under grid refinement; a smallness
test would be wrong, the remainders are O(1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericsError
from .model import GridSpec, Potential
from .scattering import ScatteringData
from .specops import cos_sin_coupling, quadrature_grid, scattering_operator, wave_operator

#: interior-block Gram tolerance before the window is declared too small
GRAM_GUARD = 1e-4


@dataclass(frozen=True)
class BetaGrid:
    """Uniform midpoint grid on [-beta_max, beta_max] with DFT frequencies."""

    m_beta: int
    beta_max: float
    h: float
    beta: np.ndarray
    xi: np.ndarray


def beta_grid(m_beta: int, beta_max: float) -> BetaGrid:
    if m_beta % 2 != 0:
        raise NumericsError("m_beta must be even")
    h = 2.0 * beta_max / m_beta
    return BetaGrid(m_beta=m_beta, beta_max=beta_max, h=h,
                    beta=-beta_max + (np.arange(m_beta) + 0.5) * h,
                    xi=2.0 * np.pi * np.fft.fftfreq(m_beta, d=h))


def fourier_apply(symbol: np.ndarray, X: np.ndarray) -> np.ndarray:
    """a(D) X on the periodised grid: the multiplier a, given on the DFT bins,
    applied to each column of X."""
    return np.fft.ifft(symbol[:, None] * np.fft.fft(X, axis=0), axis=0)


def tanh_pi_d_symbol(bg: BetaGrid) -> np.ndarray:
    s = np.tanh(np.pi * bg.xi)
    s[bg.m_beta // 2] = 0.0      # an odd symbol vanishes at the unpaired Nyquist bin
    return s


def sech_pi_d_symbol(bg: BetaGrid) -> np.ndarray:
    with np.errstate(over="ignore"):
        return 1.0 / np.cosh(np.pi * bg.xi)


def pdo_apply(bg: BetaGrid, X: np.ndarray) -> np.ndarray:
    """(-tanh(pi D) + i tanh(X/2) sech(pi D)) applied to the columns of X."""
    return -fourier_apply(tanh_pi_d_symbol(bg), X) \
        + 1j * np.tanh(bg.beta / 2.0)[:, None] * fourier_apply(sech_pi_d_symbol(bg), X)


def shift_symbol_apply(bg: BetaGrid, X: np.ndarray) -> np.ndarray:
    """(tanh(X) - i sech(X) tanh(pi D)), the symbol form of the shift, applied
    to the columns of X."""
    with np.errstate(over="ignore"):
        sech_b = 1.0 / np.cosh(bg.beta)
    return np.tanh(bg.beta)[:, None] * X \
        - 1j * sech_b[:, None] * fourier_apply(tanh_pi_d_symbol(bg), X)


def b_weight(t: np.ndarray) -> np.ndarray:
    """sqrt(2) cosh(t/2) / sqrt(cosh t): the bounded conjugation weight that
    turns the hyperbolic principal-value kernel into a pure symbol."""
    return np.sqrt(2.0) * np.cosh(t / 2.0) / np.sqrt(np.cosh(t))


def hyperbolic_pv_matrix(bg: BetaGrid) -> np.ndarray:
    """Skip-diagonal discretisation of the kernel
    (i/pi) sech^(1/2)(beta) cosh^(1/2)(gamma) / sinh(gamma - beta)."""
    b = bg.beta
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        ker = (1j / np.pi) * np.sqrt(1.0 / np.cosh(b))[:, None] \
            * np.sqrt(np.cosh(b))[None, :] / np.sinh(b[None, :] - b[:, None])
    np.fill_diagonal(ker, 0.0)
    return ker * bg.h


def pv_kernel_action_gap(bg: BetaGrid, centers=(-2.0, 0.0, 1.5)) -> float:
    """Worst relative difference between the weight-conjugated symbol and the
    direct principal-value kernel on Gaussian bumps g: the conjugated symbol
    acts as w P(g / w), with w the conjugation weight."""
    K = hyperbolic_pv_matrix(bg)
    w = b_weight(bg.beta)[:, None]
    G = np.exp(-(bg.beta[:, None] - np.asarray(centers)[None, :]) ** 2)
    gap = w * pdo_apply(bg, G / w) - K @ G
    return float(np.max(np.linalg.norm(gap, axis=0) / np.linalg.norm(G, axis=0)))


# ---------------------------------------------------------------------------
# the rescale matrix R
# ---------------------------------------------------------------------------

def energy_rescale_matrix(bg: BetaGrid, n_site: int) -> np.ndarray:
    """R[k, n] = sqrt(h) sech(beta_k) psi_sin(n, tanh beta_k), evaluated
    directly at lambda = tanh(beta_k) with theta(beta) = 2 atan(e^(-beta))."""
    if n_site > bg.m_beta // 4:
        raise NumericsError("beta window too small: n_site exceeds m_beta/4")
    theta_b = 2.0 * np.arctan(np.exp(-bg.beta))
    with np.errstate(over="ignore"):
        sech_b = 1.0 / np.cosh(bg.beta)
    e = np.sqrt(2.0 * bg.h / np.pi) * np.sqrt(sech_b)[:, None] \
        * np.sin(np.outer(theta_b, np.arange(1, n_site + 1)))
    gram = e.T @ e
    nb = n_site // 2
    defect = float(np.max(np.abs((gram - np.eye(n_site))[:nb, :nb])))
    if defect > GRAM_GUARD:
        raise NumericsError(f"beta window too small: interior Gram defect {defect:.2e}")
    return e


# ---------------------------------------------------------------------------
# singular-value reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SingularReport:
    """Singular values of a sampled remainder plus the finite-rank summary."""

    singular_values: np.ndarray
    meta: dict = field(default_factory=dict)

    @property
    def s1(self) -> float:
        return float(self.singular_values[0]) if self.singular_values.size else 0.0

    def rank_at(self, frac: float = 0.1) -> int:
        """Smallest r with s_(r+1) <= frac * s_1."""
        sv = self.singular_values
        if sv.size == 0 or sv[0] == 0.0:
            return 0
        return int(np.searchsorted(-sv, -frac * sv[0]))


def _sv_report(mat: np.ndarray, **meta) -> SingularReport:
    sv = np.linalg.svd(mat, compute_uv=False)
    return SingularReport(singular_values=sv, meta=meta)


def _pulled_back(bg: BetaGrid, n_site: int, apply) -> np.ndarray:
    """R^* a(X, D) R on the site space: `apply` takes a(X, D) to the n_site
    columns of R, so no m_beta x m_beta matrix is formed."""
    R = energy_rescale_matrix(bg, n_site)
    return R.T @ apply(bg, R)


def coupling_symbol_remainder(g: GridSpec, m_beta: int | None = None) -> SingularReport:
    """Singular values of R U R^* minus the symbol composite, pulled back to
    the site space through R (where the truncation is faithful)."""
    bg = beta_grid(m_beta or g.m_beta, g.beta_max)
    U = cos_sin_coupling(quadrature_grid(g.m_theta), g.n_site)
    return _sv_report(U - _pulled_back(bg, g.n_site, pdo_apply), m_beta=bg.m_beta,
                      beta_max=bg.beta_max, n_site=g.n_site, m_theta=g.m_theta)


def _stability(base: SingularReport, fine: SingularReport) -> dict:
    """The leading singular value's change from base to the refined report."""
    if base.s1 > 0 and fine.s1 > 10.0 * base.s1:
        raise NumericsError("not convergent: leading singular value grows under refinement")
    rel = abs(fine.s1 - base.s1) / base.s1 if base.s1 > 0 else 0.0
    return {"base": base, "refined": fine, "rel_change": rel}


def coupling_symbol_stability(g: GridSpec) -> dict:
    """Leading-singular-value stability under doubling of the beta grid."""
    return _stability(coupling_symbol_remainder(g),
                      coupling_symbol_remainder(g, m_beta=2 * g.m_beta))


def wave_symbol_remainder(d: ScatteringData, p: Potential, g: GridSpec) -> SingularReport:
    """Remainder of the wave-operator formula with the symbol factor:
    W - 1 - (1/2)(1 + R^*[symbol]R)(S - 1) on the interior site block, on
    the cut grid of d."""
    grid = quadrature_grid(d.m_theta)
    n = g.n_site
    W = wave_operator(d, p, grid, n, tol_threshold=g.tol_threshold)
    S = scattering_operator(d, grid, n)
    inner = np.eye(n) + _pulled_back(beta_grid(g.m_beta, g.beta_max), n, pdo_apply)
    K = W - np.eye(n) - 0.5 * inner @ (S - np.eye(n))
    nb = n // 2
    return _sv_report(K[:nb, :nb], m_theta=d.m_theta, n_site=n, m_beta=g.m_beta)


def wave_symbol_stability(d: ScatteringData, d_fine: ScatteringData, p: Potential,
                          g: GridSpec) -> dict:
    """Leading-singular-value stability of the wave remainder from the cut
    grid of d to the finer one of d_fine."""
    return _stability(wave_symbol_remainder(d, p, g), wave_symbol_remainder(d_fine, p, g))


def shift_identity_check(g: GridSpec, m_beta: int | None = None) -> dict:
    """Both halves of the shift-operator comparison: the exact identity
    T = H0 + i (1-H0^2)^(1/2) U^* on the theta grid, and the compact
    remainder against tanh(X) - i sech(X) tanh(pi D) through R."""
    from .specops import shift_identity_residual
    exact = shift_identity_residual(g)
    bg = beta_grid(m_beta or g.m_beta, g.beta_max)
    T = np.diag(np.ones(g.n_site - 1), -1)
    rep = _sv_report(T - _pulled_back(bg, g.n_site, shift_symbol_apply),
                     m_beta=bg.m_beta, n_site=g.n_site)
    return {"exact_residual": exact["composite"],
            "naive_product_residual": exact["naive_product"],
            "symbol_remainder": rep}


# ---------------------------------------------------------------------------
# discrete Weyl pair
# ---------------------------------------------------------------------------

def weyl_commutation_defect(bg: BetaGrid, shift_steps: int, mod_steps: int) -> float:
    """Max defect of e^(itX) e^(isD) = e^(-ist) e^(isD) e^(itX) for the
    grid-commensurate pair s = shift_steps * h, t = mod_steps * 2 pi/(m h).

    The circular shift and the diagonal modulation satisfy the relation
    exactly (including wrap-around) for commensurate parameters.
    """
    m = bg.m_beta
    s = shift_steps * bg.h
    t = mod_steps * 2.0 * np.pi / (m * bg.h)
    C = np.roll(np.eye(m), shift_steps, axis=1)    # (C f)[k] = f[k + p]
    M = np.diag(np.exp(1j * t * bg.beta))
    lhs = M @ C
    rhs = np.exp(-1j * s * t) * (C @ M)
    return float(np.max(np.abs(lhs - rhs)))


def rescale_intertwining_defect(bg: BetaGrid, n_site: int) -> float:
    """Max-norm of R H0 - tanh(X) R on interior columns (exact identity of
    the sine recursion under lambda = tanh beta)."""
    R = energy_rescale_matrix(bg, n_site)
    H0 = (np.diag(np.ones(n_site - 1), 1) + np.diag(np.ones(n_site - 1), -1)) / 2.0
    lhs = R @ H0
    rhs = np.tanh(bg.beta)[:, None] * R
    return float(np.max(np.abs((lhs - rhs)[:, : n_site - 1])))
