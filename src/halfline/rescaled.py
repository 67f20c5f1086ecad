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
Their factors in X and D are formed once per grid, by `beta_grid`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import NumericsError
from .model import GridSpec
from .scattering import ScatteringData
from .specops import (cos_sin_coupling, quadrature_grid, scattering_operator,
                      shift_identity_residual, wave_identity_residual, wave_operator)

#: interior-block Gram tolerance before the window is declared too small
GRAM_GUARD = 1e-4


@dataclass(frozen=True)
class BetaGrid:
    """Uniform midpoint grid on [-beta_max, beta_max] with DFT frequencies xi
    and the symbols' factors, formed once per grid: sech(pi xi) and tanh(pi xi)
    on the m_beta/2 + 1 rfft bins, tanh(beta/2), tanh(beta) and sech(beta)."""

    m_beta: int
    h: float
    beta: np.ndarray
    xi: np.ndarray
    sech_pi_xi: np.ndarray
    tanh_pi_xi: np.ndarray
    tanh_half_beta: np.ndarray
    tanh_beta: np.ndarray
    sech_beta: np.ndarray


def beta_grid(m_beta: int, beta_max: float) -> BetaGrid:
    if m_beta % 2 != 0:
        raise NumericsError("m_beta must be even")
    h = 2.0 * beta_max / m_beta
    beta = -beta_max + (np.arange(m_beta) + 0.5) * h
    xi = 2.0 * np.pi * np.fft.fftfreq(m_beta, d=h)
    pi_xi = np.pi * xi[:m_beta // 2 + 1]        # the rfft bins, the last one Nyquist
    tanh_pi_xi = np.tanh(pi_xi)
    tanh_pi_xi[-1] = 0.0        # an odd symbol vanishes at the unpaired Nyquist bin
    with np.errstate(over="ignore"):
        return BetaGrid(m_beta=m_beta, h=h, beta=beta, xi=xi, sech_pi_xi=1.0 / np.cosh(pi_xi),
                        tanh_pi_xi=tanh_pi_xi, tanh_half_beta=np.tanh(beta / 2.0),
                        tanh_beta=np.tanh(beta), sech_beta=1.0 / np.cosh(beta))


def symbol_columns(bg: BetaGrid, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(q, v) with (-tanh(pi D) + i tanh(X/2) sech(pi D)) X = i q and
    tanh(pi D) X = i v, for the real columns of X: both real, from one rfft.

    The transforms run along the rows of X.T, the last axis, and q and v come
    back as transposes.  For R, which is the transpose of a site-major array,
    those rows are contiguous; a C-ordered X is copied by numpy."""
    Xh = np.fft.rfft(X.T)            # the first m/2 + 1 bins, the last one Nyquist
    q = np.fft.irfft(bg.sech_pi_xi * Xh, n=bg.m_beta)
    q *= bg.tanh_half_beta
    Xh *= -1j * bg.tanh_pi_xi
    v = np.fft.irfft(Xh, n=bg.m_beta)
    q -= v
    return q.T, v.T


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
        ker = (1j / np.pi) * np.sqrt(bg.sech_beta)[:, None] \
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
    directly at lambda = tanh(beta_k) with theta(beta) = 2 atan(e^(-beta)).

    R (m_beta x n_site) is the transpose of a site-major array, so each
    site's column R[:, n] is contiguous: `symbol_columns` transforms along it.
    The guard forms the Gram matrix R^T R on the first n_site/2 sites alone,
    so n_site is at least 2."""
    if n_site < 2:
        raise ValueError(f"energy_rescale_matrix: n_site = {n_site} is below 2")
    if n_site > bg.m_beta // 4:
        raise NumericsError("beta window too small: n_site exceeds m_beta/4")
    theta_b = 2.0 * np.arctan(np.exp(-bg.beta))
    e = np.outer(np.arange(1, n_site + 1), theta_b)        # formed in place
    np.sin(e, out=e)
    e *= np.sqrt(2.0 * bg.h / np.pi) * np.sqrt(bg.sech_beta)
    nb = n_site // 2
    defect = float(np.max(np.abs(e[:nb] @ e[:nb].T - np.eye(nb))))
    if defect > GRAM_GUARD:
        raise NumericsError(f"beta window too small: interior Gram defect {defect:.2e}")
    return e.T


# ---------------------------------------------------------------------------
# the operator stage of a report
# ---------------------------------------------------------------------------

def _singular(mat: np.ndarray) -> dict:
    """The summary of a sampled remainder: its leading singular value s1, the
    smallest r with s_(r+1) <= 0.1 s1 and its first 32 singular values."""
    sv = np.linalg.svd(mat, compute_uv=False)
    s1 = float(sv[0]) if sv.size else 0.0
    return {"s1": s1, "rank_tenth": int(np.searchsorted(-sv, -0.1 * s1)) if s1 != 0.0 else 0,
            "singular_values": sv[:32]}


def _stability(base: dict, s1_fine: float) -> dict:
    """The base remainder's summary and the change of its leading singular
    value s1 to s1_fine under refinement."""
    s1 = base["s1"]
    if s1 > 0 and s1_fine > 10.0 * s1:
        raise NumericsError("not convergent: leading singular value grows under refinement")
    return {**base, "s1_refined": s1_fine,
            "rel_change": abs(s1_fine - s1) / s1 if s1 > 0 else 0.0}


#: sites per block of R's transforms in `_pull_back`: the FFT temporaries of
#: a block stay small beside R, where those of all sites at once set the
#: stage's peak RSS
TRANSFORM_SITES = 16


def _pull_back(bg: BetaGrid, R: np.ndarray, rows: np.ndarray, shift_rows=None):
    """(R^T q, R^T [shift symbol] R or None) for R's real columns q with
    [pdo] R = i q, so that R^*[pdo]R = 1j R^T q.

    R's transforms (`symbol_columns`) run in blocks of TRANSFORM_SITES sites
    and write q.T to rows, and the shift symbol's real columns tanh(X) X +
    sech(X) v to shift_rows if given: n_site x m_beta arrays that the caller
    allocates, so that each product is one GEMM over all sites."""
    for lo in range(0, R.shape[1], TRANSFORM_SITES):
        X = R[:, lo:lo + TRANSFORM_SITES]
        q, v = symbol_columns(bg, X)
        rows[lo:lo + TRANSFORM_SITES] = q.T
        if shift_rows is not None:
            shift_rows[lo:lo + TRANSFORM_SITES] = bg.tanh_beta * X.T + bg.sech_beta * v.T
    return R.T @ rows.T, None if shift_rows is None else R.T @ shift_rows.T


@_kernels.one_blas_thread()
def operator_checks(d: ScatteringData, d2: ScatteringData, g: GridSpec) -> dict:
    """The operator identities of a report, d holding the scattering data on
    the cut grid of g and d2 on the grid twice as fine, each with the Jost
    rows that `scattering_grids` keeps on the table under g.  numpy's
    OpenBLAS runs on one thread for the call (`_kernels.one_blas_thread`), so
    its products and SVDs sum in the same order whatever the process's
    thread count, and the stage's lane fits two CPUs.

    Each operator is formed once: R and R^*[pdo]R at m_beta and 2 m_beta
    (pdo = -tanh(pi D) + i tanh(X/2) sech(pi D), applied to R's columns, so
    no m_beta x m_beta matrix is formed), U at m_theta, and Fsin, Fcos and S
    on each cut grid.  The checks read the interior site block b = n_site/2,
    where W_-, K0 Fsin and the identities' products are formed alone; S is
    formed on all sites and read on its first b columns.  From them come
      shift_identity:  T = H0 + i (1-H0^2)^(1/2) U^* exactly, and the
                       remainder T - R^*[tanh(X) - i sech(X) tanh(pi D)]R;
      coupling_symbol: U - R^*[pdo]R, at m_beta and 2 m_beta;
      wave_symbol:     W_- - 1 - (1/2)(1 + R^*[pdo]R)(S - 1) on the interior
                       site block, on both cut grids;
      wave_identity:   the defect of W_- = 1 + (U+1)/2 (S-1) + K0 Fsin on
                       the interior block, on both cut grids.

    R at 2 m_beta is formed and guarded first.  The coarse side then runs
    through `_kernels.meanwhile`: R at m_beta, guarded, its pull-backs and
    the shift remainder, then on d's grid W_-, S, the wave-symbol remainder,
    U and both identities.  Before the join this thread pulls the symbol
    back through R at 2 m_beta and forms d2's S, which refuses nothing under
    GridSpec.  Each R is released once pulled back: kept alive, the two
    raised the peak RSS of `report --refine` by 5.5 MB.  After the join come
    the SVDs, the coupling's stability, then W_- and the wave identity on
    d2.  The values do not depend on the thread, and the refusals keep the
    serial order: the Gram guards at 2 m_beta and m_beta, a resonant d, the
    coupling "not convergent", a resonant d2, the wave symbol "not convergent".
    """
    n, b = g.n_site, g.n_site // 2
    bg2 = beta_grid(2 * g.m_beta, g.beta_max)
    R2 = energy_rescale_matrix(bg2, n)

    def remainder(P, W, S):
        """The wave-symbol remainder on the interior block."""
        return W - np.eye(b) - 0.5 * (P[:b] + np.eye(b, n)) @ (S[:, :b] - np.eye(n, b))

    def coarse():
        """Everything that reads R at m_beta or d's cut grid and no refined operator."""
        bg = beta_grid(g.m_beta, g.beta_max)
        Rq, P_shift = _pull_back(bg, energy_rescale_matrix(bg, n),
                                 np.empty((n, bg.m_beta)), np.empty((n, bg.m_beta)))
        shift = _singular(np.diag(np.ones(n - 1), -1) - P_shift)
        P = 1j * Rq
        grid = quadrature_grid(d.m_theta, n)
        W = wave_operator(d, grid.first(b), tol_threshold=g.tol_threshold)
        rem = remainder(P, W, scattering_operator(d, grid))
        U = cos_sin_coupling(grid)
        return P, shift, rem, wave_identity_residual(d, grid, W), U, \
            shift_identity_residual(grid, U)

    with _kernels.meanwhile(coarse) as on_coarse:
        P_fine = 1j * _pull_back(bg2, R2, np.empty((n, bg2.m_beta)))[0]
        del R2
        grid2 = quadrature_grid(d2.m_theta, n)
        S2 = scattering_operator(d2, grid2)
        P, shift, rem, base, U, exact = on_coarse()
    symbol = _singular(rem)
    coupling = _stability(_singular(U - P), _singular(U - P_fine)["s1"])
    W2 = wave_operator(d2, grid2.first(b), tol_threshold=g.tol_threshold)
    symbol2 = _singular(remainder(P, W2, S2))
    refined = wave_identity_residual(d2, grid2, W2)
    return {
        "wave_identity": {
            "residual": base,
            "residual_refined": refined,
            "ratio": base / refined if refined > 0 else float("inf"),
        },
        "shift_identity": {
            "exact_residual": exact["composite"],
            "naive_product_residual": exact["naive_product"],
            "symbol_s1": shift["s1"],
            "symbol_rank_tenth": shift["rank_tenth"],
        },
        "coupling_symbol": coupling,
        "wave_symbol": _stability(symbol, symbol2["s1"]),
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
