"""Matrix-valued orthogonal polynomials for a Gaussian-type family of NxN
weight matrices, together with the symmetric second-order differential
operator the family carries and the full set of 2x2 closed forms.
"""

from .closed_forms import (AsymptoticReport, ClosedRecurrence,
                           NormalizationFactors, asymptotic_report,
                           branch_limit, closed_norms, explicit_polynomial,
                           normalization, orthonormal_recurrence,
                           recurrence_closed_forms, rodrigues_pde_residual,
                           rodrigues_polynomial)
from .gausserf import GaussErfMatrix
from .linalg import MatrixPolynomial, ad_power, nilpotent_exp
from .operator import (ChiXiReport, DifferentialOperator, SymmetryReport,
                       apply_operator, build_operator, check_chi_xi,
                       check_symmetry_equations, eigenvalue_matrix)
from .orthogonal import (MonicSequence, RecurrenceTable, moment_oracle,
                         monic_sequence, orthonormalize_sequence,
                         quadrature_oracle, recurrence_from_sequence)
from .suite import RunConfig, VerificationSummary, export_tables, run_suite
from .weights import (IdentityReport, StructureMatrices, WeightParams,
                      abel_identity_check, build_structure,
                      verify_structure_identities, weight_eval, weight_moment,
                      weight_symbolic)

__version__ = "0.1.0"

__all__ = [
    "AsymptoticReport", "ChiXiReport", "ClosedRecurrence",
    "DifferentialOperator", "GaussErfMatrix", "IdentityReport",
    "MatrixPolynomial", "MonicSequence", "NormalizationFactors",
    "RecurrenceTable", "RunConfig", "StructureMatrices", "SymmetryReport",
    "VerificationSummary", "WeightParams", "abel_identity_check", "ad_power",
    "apply_operator", "asymptotic_report", "branch_limit", "build_operator",
    "build_structure", "check_chi_xi", "check_symmetry_equations",
    "closed_norms", "eigenvalue_matrix", "explicit_polynomial",
    "export_tables", "moment_oracle",
    "monic_sequence", "nilpotent_exp", "normalization",
    "orthonormal_recurrence", "orthonormalize_sequence", "quadrature_oracle",
    "recurrence_closed_forms", "recurrence_from_sequence",
    "rodrigues_pde_residual", "rodrigues_polynomial", "run_suite",
    "verify_structure_identities", "weight_eval", "weight_moment",
    "weight_symbolic",
]
