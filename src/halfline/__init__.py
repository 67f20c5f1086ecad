"""Scattering theory for discrete Schrodinger operators on the half-line.

Jost solutions and the Jost function, phase shifts and Levinson's relation,
stationary wave operators in the spectral representation, their
pseudo-differential form in the rescaled (tanh) energy variable, and the
winding-number version of Levinson's theorem.
"""

from .errors import (AssumptionError, CheckFailure, ConfigError, HalflineError,
                     NumericsError)
from .model import (GridSpec, Potential, TridiagonalTruncation, hamiltonian_truncation,
                    make_potential, random_decaying, rank_one, table_potential,
                    theta_midpoints, zero_potential)
from .solutions import DecayReport, decay_scan, jost_solution, regular_solution, volterra_jost
from .scattering import (ScatteringData, bound_states, classify_thresholds, eta_endpoints,
                         levinson_residual, scattering_grid, scattering_grids, wronskian)
from .specops import (QuadratureGrid, completeness_defect, correction_operator,
                      cos_sin_coupling, jost_transform, quadrature_grid,
                      scattering_operator, shift_identity_residual,
                      wave_identity_residual, wave_isometry_defect, wave_operator)
from .rescaled import (BetaGrid, SingularReport, b_weight, beta_grid,
                       energy_rescale_matrix, hyperbolic_pv_matrix, operator_checks,
                       pdo_apply, pv_kernel_action_gap, weyl_commutation_defect)
from .topology import (BoundaryCurve, WindingReport, assemble_boundary,
                       gamma_curve, scattering_edge, winding_number, winding_report)

__version__ = "0.1.0"
