"""Checks of one operation's outputs against the reference computations in
`oracles` and against the properties the method guarantees.

An operation's outputs are gathered into one plain mapping, whichever route
produced them (the `report` files or the library objects):

    count_n, winding, bound_states, omega_minus, omega_plus,
    theta, omega, smatrix (on the grid), levinson_residual,
    and, where the operation computes them, wave_residual, wave_ratio,
    shift_residual (the report) or decay_excess (the sweep).
"""

from __future__ import annotations

import numpy as np

import oracles

#: the report's gates on the wave-operator and shift identities
WAVE_GATE = 1e-6
SHIFT_GATE = 1e-6
#: second-order convergence of the wave identity under a doubling of m_theta
WAVE_RATIO_MIN = 4.0
#: `solutions.DECAY_SLACK`, the rounding allowed on the decay estimate
DECAY_SLACK = 1e-10
#: |s| = 1 on the grid, to rounding
UNITARITY_TOL = 1e-12
#: bound-state locations against a closed form (criterion 02 of the suite)
ROOT_TOL = 1e-8


def reference(spec: dict, bound_states, tol_root: float) -> dict:
    """Everything the checks compare against, for the potential `spec`.

    On a table without a closed form the bound states are checked by the sign
    of Omega a little either side of each reported one, so the reference
    depends on what was reported."""
    values = oracles.table_of(spec)
    bound_states = [float(z) for z in bound_states]
    ref = {"sturm_count": oracles.sturm_count(values, bound_states)}
    if oracles.has_closed_form(spec):
        ref["omega_tol"] = oracles.EXACT_TOL
        ref["omega_plus"], ref["omega_minus"] = (
            float(oracles.closed_form_omega(spec, z)) for z in (1.0, -1.0))
        ref["bound_states"] = oracles.closed_form_bound_states(spec).tolist()
    else:
        ref["omega_tol"] = oracles.long_table_tol(len(values))
        ref["omega_plus"], ref["omega_minus"] = (
            float(oracles.jost_extended(values, z)) for z in (1.0, -1.0))
        delta = 10.0 * tol_root
        ref["root_brackets"] = [
            [float(np.sign(oracles.jost_extended(values, z + s * delta))) for s in (-1, 1)]
            for z in bound_states]
    return ref


def check(out: dict, spec: dict, ref: dict) -> list:
    """Every failed check as a message; empty when the outputs are right."""
    fails = []

    def expect(ok, what):
        if not ok:
            fails.append(what)

    n = ref["sturm_count"]
    expect(out["count_n"] == n, f"count_n {out['count_n']} != Sturm count {n}")
    expect(out["winding"] == n, f"winding {out['winding']} != Sturm count {n}")
    roots = np.asarray(out["bound_states"], float)
    expect(len(roots) == out["count_n"],
           f"{len(roots)} bound states reported for count_n {out['count_n']}")
    for side in ("omega_plus", "omega_minus"):
        err = abs(out[side] - ref[side])
        expect(err <= ref["omega_tol"],
               f"{side} off the reference by {err:.3e} > {ref['omega_tol']:.1e}")
    if "bound_states" in ref:
        exact = np.asarray(ref["bound_states"])
        expect(len(exact) == len(roots) and np.all(np.abs(roots - exact) <= ROOT_TOL),
               f"bound states {roots.tolist()} != closed form {exact.tolist()}")
        err = float(np.max(np.abs(out["omega"] - oracles.closed_form_omega(
            spec, np.exp(-1j * np.asarray(out["theta"]))))))
        expect(err <= oracles.EXACT_TOL, f"grid Omega off the closed form by {err:.3e}")
    else:
        for z, (lo, hi) in zip(roots.tolist(), ref["root_brackets"]):
            expect(lo * hi < 0, f"no sign change of Omega around the bound state {z!r}")
    err = float(np.max(np.abs(np.abs(out["smatrix"]) - 1.0)))
    expect(err <= UNITARITY_TOL, f"|s| - 1 reaches {err:.3e} on the grid")
    expect(out["levinson_residual"] <= oracles.LEVINSON_GATE,
           f"Levinson residual {out['levinson_residual']:.3e} > gate "
           f"{oracles.LEVINSON_GATE:.3e}")
    if "wave_ratio" in out:
        expect(out["wave_residual"] <= WAVE_GATE,
               f"wave-identity residual {out['wave_residual']:.3e} > {WAVE_GATE:g}")
        expect(out["wave_ratio"] >= WAVE_RATIO_MIN,
               f"wave-identity refinement ratio {out['wave_ratio']:.2f} < {WAVE_RATIO_MIN:g}")
        expect(out["shift_residual"] <= SHIFT_GATE,
               f"shift residual {out['shift_residual']:.3e} > {SHIFT_GATE:g}")
    if "decay_excess" in out:
        expect(out["decay_excess"] <= DECAY_SLACK,
               f"decay excess {out['decay_excess']:.3e} > {DECAY_SLACK:g}")
    return fails
