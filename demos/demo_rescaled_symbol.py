#!/usr/bin/env python3
"""The rescaled energy picture: U as a pseudo-differential symbol.

Under lambda = tanh(beta) the coupling operator U agrees with
-tanh(pi D) + i tanh(X/2) sech(pi D) up to a compact remainder; compactness
shows up numerically as fast-decaying singular values whose leading value is
stable under grid refinement.  The same picture gives the shift operator as
tanh(X) - i sech(X) tanh(pi D) plus a compact part.
"""
import numpy as np

import halfline as hl

g = hl.GridSpec()
p = hl.rank_one(0.75)
# the operator stage of a report: every operator below is formed once
ops = hl.operator_checks(*hl.scattering_grids(p, g, [g.m_theta, 2 * g.m_theta]), g)

out = ops["coupling_symbol"]
print("coupling operator vs its symbol, pulled back to the site space:")
print("  leading singular value :", f"{out['s1']:.4f}")
print("  rank to reach 10% of it:", out["rank_tenth"], f"(allowed {g.m_beta // 16})")
print("  s1 change when m_beta doubles:", f"{out['rel_change']:.2%}")
print("  first singular values  :", np.array2string(out["singular_values"][:8], precision=4))

sh = ops["shift_identity"]
print("\nshift operator:")
print("  exact identity residual      :", f"{sh['exact_residual']:.3e}")
print("  same product naively truncated:", f"{sh['naive_product_residual']:.3e}")
print("  symbol remainder rank(0.1)   :", sh["symbol_rank_tenth"])

bg = hl.beta_grid(g.m_beta, g.beta_max)
print("\nhyperbolic kernel cross-check (weight-conjugated symbol vs direct "
      "principal value):", f"{hl.pv_kernel_action_gap(bg):.3e}")
print("discrete Weyl relation defect (commensurate pair 3, 7):",
      f"{hl.weyl_commutation_defect(bg, 3, 7):.2e}")

k = ops["wave_symbol"]
print("\nwave-operator remainder through the symbol, rank-one(0.75):")
print("  s1 =", f"{k['s1']:.4f}", " rank(0.1) =", k["rank_tenth"],
      f"(allowed {g.n_site // 8})")
