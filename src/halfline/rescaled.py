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

Both symbols act on R's real columns in real arithmetic, from one rfft
(`symbol_columns`): sech(pi D) is even and tanh(pi D) odd, Nyquist bin zeroed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericsError
from .model import GridSpec
from .scattering import ScatteringData
from .specops import (cos_sin_coupling, quadrature_grid, scattering_operator,
                      shift_identity_residual, wave_identity_residual, wave_operator)

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


def tanh_pi_d_symbol(bg: BetaGrid) -> np.ndarray:
    s = np.tanh(np.pi * bg.xi)
    s[bg.m_beta // 2] = 0.0      # an odd symbol vanishes at the unpaired Nyquist bin
    return s


def sech_pi_d_symbol(bg: BetaGrid) -> np.ndarray:
    with np.errstate(over="ignore"):
        return 1.0 / np.cosh(np.pi * bg.xi)


def symbol_columns(bg: BetaGrid, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(q, v) with (-tanh(pi D) + i tanh(X/2) sech(pi D)) X = i q and
    tanh(pi D) X = i v, for the real columns of X: both real, from one rfft."""
    Xh = np.fft.rfft(X, axis=0)      # the first m/2 + 1 bins, the last one Nyquist
    q = np.fft.irfft(sech_pi_d_symbol(bg)[:len(Xh), None] * Xh, n=bg.m_beta, axis=0)
    q *= np.tanh(bg.beta / 2.0)[:, None]
    Xh *= -1j * tanh_pi_d_symbol(bg)[:len(Xh), None]
    v = np.fft.irfft(Xh, n=bg.m_beta, axis=0)
    q -= v
    return q, v


def _shift_real(bg: BetaGrid, X: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The shift symbol on the real X: tanh(X) X + sech(X) v, v from `symbol_columns`."""
    with np.errstate(over="ignore"):
        sech_b = 1.0 / np.cosh(bg.beta)
    return np.tanh(bg.beta)[:, None] * X + sech_b[:, None] * v


def pdo_apply(bg: BetaGrid, X: np.ndarray) -> np.ndarray:
    """(-tanh(pi D) + i tanh(X/2) sech(pi D)) applied to the real columns of X."""
    return 1j * symbol_columns(bg, X)[0]


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


def pv_kernel_action_gap(bg: BetaGrid) -> float:
    """Worst relative difference between the weight-conjugated symbol and the
    direct principal-value kernel on Gaussian bumps g centred at beta = -2, 0
    and 1.5: the conjugated symbol acts as w P(g / w), with w the conjugation
    weight."""
    K = hyperbolic_pv_matrix(bg)
    w = b_weight(bg.beta)[:, None]
    G = np.exp(-(bg.beta[:, None] - np.array([-2.0, 0.0, 1.5])[None, :]) ** 2)
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
# the operator stage of a report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SingularReport:
    """Singular values of a sampled remainder plus the finite-rank summary."""

    singular_values: np.ndarray

    @property
    def s1(self) -> float:
        return float(self.singular_values[0]) if self.singular_values.size else 0.0

    @property
    def rank_tenth(self) -> int:
        """Smallest r with s_(r+1) <= 0.1 s_1."""
        sv = self.singular_values
        if sv.size == 0 or sv[0] == 0.0:
            return 0
        return int(np.searchsorted(-sv, -0.1 * sv[0]))


def _sv_report(mat: np.ndarray) -> SingularReport:
    return SingularReport(np.linalg.svd(mat, compute_uv=False))


def _stability(base: SingularReport, fine: SingularReport) -> dict:
    """The base remainder's summary and its leading singular value's change
    under refinement."""
    if base.s1 > 0 and fine.s1 > 10.0 * base.s1:
        raise NumericsError("not convergent: leading singular value grows under refinement")
    return {"s1": base.s1, "rank_tenth": base.rank_tenth, "s1_refined": fine.s1,
            "rel_change": abs(fine.s1 - base.s1) / base.s1 if base.s1 > 0 else 0.0,
            "singular_values": base.singular_values[:32]}


def operator_checks(d: ScatteringData, d2: ScatteringData, g: GridSpec) -> dict:
    """The operator identities of a report, d holding the scattering data on
    the cut grid of g and d2 on the grid twice as fine.

    Each operator is formed once: R and R^*[pdo]R at m_beta and 2 m_beta
    (pdo = -tanh(pi D) + i tanh(X/2) sech(pi D), applied to R's columns, so
    no m_beta x m_beta matrix is formed), U at m_theta, and Fsin, Fcos, W_-
    and S on each cut grid.  From them come
      shift_identity:  T = H0 + i (1-H0^2)^(1/2) U^* exactly, and the
                       remainder T - R^*[tanh(X) - i sech(X) tanh(pi D)]R;
      coupling_symbol: U - R^*[pdo]R, at m_beta and 2 m_beta;
      wave_symbol:     W_- - 1 - (1/2)(1 + R^*[pdo]R)(S - 1) on the interior
                       site block, on both cut grids;
      wave_identity:   the defect of W_- = 1 + (U+1)/2 (S-1) + K0 Fsin on
                       both cut grids.
    """
    n = g.n_site
    eye = np.eye(n)

    def pulled_back(m_beta, shift=False):
        """R^*[pdo]R at m_beta, and R^*[shift symbol]R if `shift`: one rfft of R."""
        bg = beta_grid(m_beta, g.beta_max)
        R = energy_rescale_matrix(bg, n)
        q, v = symbol_columns(bg, R)
        return 1j * (R.T @ q), (R.T @ _shift_real(bg, R, v) if shift else None)

    def on_cut_grid(dd):
        """The wave checks on the cut grid of dd, and on the grid of g U's
        remainders and the exact shift identity."""
        grid = quadrature_grid(dd.m_theta, n)
        W = wave_operator(dd, grid, tol_threshold=g.tol_threshold)
        S = scattering_operator(dd, grid)
        checks = (_sv_report((W - eye - 0.5 * (eye + P) @ (S - eye))[:n // 2, :n // 2]),
                  wave_identity_residual(dd, grid, W))
        if dd is not d:
            return checks
        U = cos_sin_coupling(grid)
        return checks + (_stability(_sv_report(U - P), _sv_report(U - P_fine)),
                         shift_identity_residual(grid, U))

    # each operator is reduced as soon as it is formed, and one cut grid's
    # transforms are held at a time, so the FFT and kernel temporaries of the
    # later steps meet few held arrays (peak RSS)
    P_fine = pulled_back(2 * g.m_beta)[0]
    P, P_shift = pulled_back(g.m_beta, shift=True)
    shift = _sv_report(np.diag(np.ones(n - 1), -1) - P_shift)
    symbol, base, coupling, exact = on_cut_grid(d)
    symbol2, refined = on_cut_grid(d2)
    return {
        "wave_identity": {
            "residual": base,
            "residual_refined": refined,
            "ratio": base / refined if refined > 0 else float("inf"),
        },
        "shift_identity": {
            "exact_residual": exact["composite"],
            "naive_product_residual": exact["naive_product"],
            "symbol_s1": shift.s1,
            "symbol_rank_tenth": shift.rank_tenth,
        },
        "coupling_symbol": coupling,
        "wave_symbol": _stability(symbol, symbol2),
    }


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
