"""Prescribed mean curvature surfaces from spinor data.

A library and CLI for constructing surfaces in R^3 from solutions of the
generalized Weierstrass system and for verifying, numerically and to
stated tolerances, the equations, conservation laws, transforms and
explicit solution families attached to it.
"""

__version__ = "0.1.0"

from .grid import GridSpec, ComplexField, RealField, NumericalBreakdown, field_to_csv
from .closedform import ClosedForm, sample, sample_real, diagonal_form, holomorphic_form, constant_form
from .calculus import d_z, d_zbar, mixed_dzbar_dz, dx, dy, dxx, dyy, dxy
from .reporting import ResidualReport, ResidualPart, report_from_parts, norms
from .weierstrass import (SpinorField, MeanCurvature, Current, density_p,
                          weierstrass_residual, potential_conservation_residual,
                          current_J, dbar_J_defect, modified_current,
                          conservation_defect, gaussian_curvature_from_p)
from .sigma import (RhoField, SpinMatrix, DeformationMatrices, rho_from_psi,
                    psi_from_rho, sigma_residual, apply_discrete_symmetry,
                    spin_matrix, landau_lifshitz_residual, deformation_matrices,
                    deformed_ll_residual, multisoliton_product,
                    unimodular_H_constancy_check, compatibility_residual)
from .integrability import (RiccatiCoeffs, HolomorphicProfile, h_integrability_residual,
                            h_from_profile, riccati_residual, fit_riccati_coeffs,
                            zero_curvature_residual, sinh_gordon_residual,
                            linearization_constraint_residual, linear_system_residual)
from .inducer import (Surface, FundamentalForms, induce_surface, path_independence_report,
                      fundamental_forms, mean_curvature_numeric, gauss_curvature_numeric,
                      gauss_curvature_consistency, rigid_string_residual,
                      export_mesh, load_mesh_vertices, surface_to_csv)
from .families import (SolutionFamily, family_rational, family_exponential,
                       family_trigonometric, family_unimodular, family_holomorphic,
                       build_family, FAMILY_NAMES)
