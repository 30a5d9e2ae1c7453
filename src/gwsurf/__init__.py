"""Prescribed mean curvature surfaces from spinor data.

A library and CLI for constructing surfaces in R^3 from solutions of the
generalized Weierstrass system and for verifying, numerically and to
stated tolerances, the equations, conservation laws, transforms and
explicit solution families attached to it.
"""

__version__ = "0.1.0"

from .grid import GridSpec, ComplexField, RealField, NumericalBreakdown
from .closedform import (ClosedForm, Jet, sample, sample_real, form, diagonal_form, pointwise,
                         exp, sin, cos, sqrt, log, conj)
from .calculus import d_z, d_zbar, mixed_dzbar_dz, dx, dy, dxx, dyy
from .reporting import ResidualReport, ResidualPart, joined, report_from_parts, norms, worst
from .weierstrass import (SpinorField, log_derivatives, density_p,
                          weierstrass_residual, potential_conservation_residual,
                          current_J, dbar_J_defect, modified_current,
                          conservation_defect, gaussian_curvature_from_p)
from .sigma import (SpinMatrix, LLCommutator, rho_from_psi, psi_from_rho, sigma_residual,
                    spin_matrix, ll_commutator, landau_lifshitz_residual,
                    deformed_ll_residual, multisoliton_product,
                    unimodular_H_constancy_check, compatibility_residual)
from .integrability import (RiccatiCoeffs, h_integrability_residual, h_from_profile,
                            riccati_residual, fit_riccati_coeffs,
                            zero_curvature_residual, sinh_gordon_residual,
                            linearization_constraint_residual, linear_system_residual)
from .inducer import (Surface, FundamentalForms, induce_surface, path_independence_report,
                      fundamental_forms, export_mesh)
from .families import (SolutionFamily, family_rational, family_exponential,
                       family_trigonometric, family_unimodular, family_holomorphic,
                       build_family, FAMILY_NAMES)
