"""Interpolation and intertwining lifting on weighted Bergman spaces.

The package solves Nevanlinna-Pick-type interpolation problems over the
unit ball and unit polydisc by explicit commutant lifting: a block
colligation is assembled from a generating identity, its transfer
function is the interpolant, and every emitted function ships with
numerical certificates (positivity eigenvalues, generating-identity
residuals, and kernel-basis verification of the lift).
"""

from .errors import (
    DimensionMismatch,
    DomainViolation,
    GramMismatch,
    IllConditioned,
    NearSingularResolvent,
    NotContraction,
    NotHypercontraction,
    NotIntertwining,
    NotPositive,
    NotPure,
    ParseError,
    SchurliftError,
    ValidationError,
)
from .kernels import (
    KernelSpec,
    ball_coeff,
    kernel_eval,
    kernel_matrix,
    polydisc_coeff,
)
from .model_space import (
    KernelSubspace,
    TupleOperator,
    build_subspace,
    model_tuple,
    multiplier_adjoint_action,
    np_target_operator,
)
from .hypercontraction import (
    DefectData,
    cp_map,
    defect,
    hereditary,
)
from .colligation import (
    Colligation,
    build_ball_colligation,
    build_polydisc_colligation,
    complete_pairs,
)
from .transfer import (
    GridSpec,
    TransferFunction,
    factorization_criterion,
    grid_points,
    grid_scan,
    schur_agler_certificate_ball,
    series_partial_lift,
    sup_norm_scan,
    write_scan_csv,
)
from .lifting_ball import (
    CompositeLift,
    Infeasible,
    LiftResult,
    check_positivity,
    dilate_p_to_m,
    lift_ball,
    lift_p_gt_m,
    np_solve,
    verify_lift,
)
from .lifting_polydisc import (
    AglerDecomposition,
    Inconclusive,
    agler_feasibility,
    lift_polydisc,
    np_solve_polydisc,
    psi_gamma_diagnostics,
)

__version__ = "0.1.0"

__all__ = [
    "AglerDecomposition",
    "Colligation",
    "CompositeLift",
    "DefectData",
    "DimensionMismatch",
    "DomainViolation",
    "GramMismatch",
    "GridSpec",
    "IllConditioned",
    "Inconclusive",
    "Infeasible",
    "KernelSpec",
    "KernelSubspace",
    "LiftResult",
    "NearSingularResolvent",
    "NotContraction",
    "NotHypercontraction",
    "NotIntertwining",
    "NotPositive",
    "NotPure",
    "ParseError",
    "SchurliftError",
    "TransferFunction",
    "TupleOperator",
    "ValidationError",
    "agler_feasibility",
    "ball_coeff",
    "build_ball_colligation",
    "build_polydisc_colligation",
    "build_subspace",
    "check_positivity",
    "complete_pairs",
    "cp_map",
    "defect",
    "dilate_p_to_m",
    "factorization_criterion",
    "grid_points",
    "grid_scan",
    "hereditary",
    "kernel_eval",
    "kernel_matrix",
    "lift_ball",
    "lift_p_gt_m",
    "lift_polydisc",
    "model_tuple",
    "multiplier_adjoint_action",
    "np_solve",
    "np_solve_polydisc",
    "np_target_operator",
    "polydisc_coeff",
    "psi_gamma_diagnostics",
    "schur_agler_certificate_ball",
    "series_partial_lift",
    "sup_norm_scan",
    "verify_lift",
]
