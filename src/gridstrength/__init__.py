"""Grid strength analysis for multi-infeed LCC-HVDC systems.

Computes the generalized short circuit ratio of an AC grid hosting one or
more line-commutated converter infeeds, classifies the operating strength,
and checks the critical/boundary thresholds numerically with a built-in
AC/DC power flow and continuation to the maximum available power point.
"""

from .boundary import (
    BoundaryResult,
    SweepRow,
    bscr_solve,
    case_gscr,
    cscr_closed_form,
    find_boundary_numeric,
    find_critical_numeric,
    scale_to_gscr,
    sweep_dual_infeed,
    tune_sources,
)
from .casefile import (
    CaseFile,
    load_bundled_case,
    load_case,
    save_case,
    with_rating,
)
from .converter import (
    ConverterState,
    LccParams,
    overlap_angle,
    rated_order,
    rated_state,
    solve_state,
)
from .errors import (
    BracketError,
    CaseFormatError,
    ConverterInfeasible,
    EigenSolveError,
    GridStrengthError,
)
from .gscr import (
    EigenResult,
    ExtendedJacobian,
    PerronReport,
    StrengthClass,
    characteristic_delta,
    classify,
    compute_gscr,
    extended_jacobian,
    factorization_check,
    modal_transform,
    perron_check,
    perron_report,
)
from .netmodel import ReducedNetwork, SusceptanceMatrix, reduce_case, scale_impedance
from .powerflow import (
    ContinuationResult,
    Diverged,
    GridState,
    MapPoint,
    newton_solve,
    trace_map,
)
from .validate import ValidationReport, ValidationRow, validate_suite

__version__ = "0.1.0"

__all__ = [
    "BoundaryResult",
    "BracketError",
    "CaseFile",
    "CaseFormatError",
    "ContinuationResult",
    "ConverterInfeasible",
    "ConverterState",
    "Diverged",
    "EigenResult",
    "EigenSolveError",
    "ExtendedJacobian",
    "GridState",
    "GridStrengthError",
    "LccParams",
    "MapPoint",
    "PerronReport",
    "ReducedNetwork",
    "StrengthClass",
    "SusceptanceMatrix",
    "SweepRow",
    "ValidationReport",
    "ValidationRow",
    "bscr_solve",
    "case_gscr",
    "characteristic_delta",
    "classify",
    "compute_gscr",
    "cscr_closed_form",
    "extended_jacobian",
    "factorization_check",
    "find_boundary_numeric",
    "find_critical_numeric",
    "load_bundled_case",
    "load_case",
    "modal_transform",
    "newton_solve",
    "overlap_angle",
    "perron_check",
    "perron_report",
    "rated_order",
    "rated_state",
    "reduce_case",
    "save_case",
    "scale_impedance",
    "scale_to_gscr",
    "solve_state",
    "sweep_dual_infeed",
    "trace_map",
    "tune_sources",
    "validate_suite",
    "with_rating",
]
