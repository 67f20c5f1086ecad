#!/usr/bin/env python3
"""The stationary wave operator and its exact factorisation.

W_- = F_-^* F_sin is assembled by quadrature; the identity
    W_- = 1 + (U + 1)/2 (S - 1) + K0 F_sin
holds exactly for the infinite operators, so the matrix residual is pure
discretisation error and falls at second order when the theta grid refines.
"""
import numpy as np

import halfline as hl

p = hl.table_potential([0.3, -0.2], rho=3.0)
g = hl.GridSpec()
m_thetas = (256, 512, 1024)
ds = hl.scattering_grids(p, g, m_thetas)    # one bound-state search for the three grids
d = hl.scattering_grid(p, g)                # the data on g, with the Jost rows of all sites
grid = hl.quadrature_grid(g.m_theta, g.n_site)

W = hl.wave_operator(d, grid, g.tol_threshold)
print("wave operator W_- on", W.shape, "sites")
print("  isometry defect  |W*W - 1| :", f"{hl.wave_isometry_defect(W):.3e}")
print("  completeness     |WW* - (1-P_b)| :",
      f"{hl.completeness_defect(W, p):.3e}")

print("\nidentity residual under refinement:")
for m, dm in zip(m_thetas, ds):
    gridm = hl.quadrature_grid(m, g.n_site)
    r = hl.wave_identity_residual(dm, gridm, hl.wave_operator(dm, gridm, g.tol_threshold))
    print(f"  m_theta = {m:5d}: {r:.3e}")

K = hl.correction_operator(d, grid)
print("\nJost-tail correction K0 F_sin:")
print("  Hilbert-Schmidt norm:", f"{np.linalg.norm(K):.6f}")
print("  nonzero rows (two-site support => only site 0):",
      int(np.sum(np.max(np.abs(K), axis=1) > 1e-12)))

S = hl.scattering_operator(d, grid)
off = 0.5 * np.ones(g.n_site - 1)
H0 = np.diag(off, 1) + np.diag(off, -1)
nb = g.n_site // 2
print("\nscattering operator:")
print("  |[S, H0]| interior:", f"{np.max(np.abs((S @ H0 - H0 @ S)[:nb, :nb])):.3e}")
print("  |S - W_+^* W_-| interior:",
      f"""{np.max(np.abs((S - hl.wave_operator(d, grid, g.tol_threshold, sign=+1).conj().T
                         @ W)[:nb, :nb])):.3e}""")
