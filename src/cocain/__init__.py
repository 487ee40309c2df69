"""Inertial Bregman proximal gradient solvers with descent certificates."""

from .kernels import (
    EuclideanKernel,
    Kernel,
    QuarticKernel,
    three_points_gap,
)
from .prox import (
    bpg_step_l1_quartic,
    bpg_step_sql2_quartic,
    prox_log1abs,
    prox_log1abs_vec,
    soft_threshold,
    solve_monotone_cubic,
)
from .pgm import read_pgm, synthetic_blocks, write_pgm
from .problems import (
    CompositeProblem,
    Evaluation,
    PhaseRetrievalData,
    RowsEvaluation,
    add_outlier_noise,
    finite_difference,
    finite_difference_adjoint,
    generate_phase_retrieval,
    make_phase_retrieval,
    make_robust_denoising,
    make_spurious2d,
    make_univariate,
    verify_smad_by_sampling,
)
from .solvers import (
    SolverConfig,
    SolverResult,
    TERM_BACKTRACK_FAILURE,
    TERM_MAX_ITERS,
    TERM_NON_FINITE,
    TERM_STEP_TOL,
    Trace,
    TraceRecord,
    bpg_fixed,
    bpg_wb,
    cocain_bpg,
    cocain_bpg_cfi,
    cocain_bpg_no_backtracking,
    ipiano,
)
from .diagnostics import (
    CheckReport,
    LyapunovParams,
    PROMISES,
    certify,
    check_acceptance_conditions,
    check_cfi_bound,
    check_function_descent,
    check_lyapunov_descent,
    check_prefix_bound,
    lyapunov_phi,
)

__version__ = "0.1.0"

__all__ = [
    "EuclideanKernel", "Kernel", "QuarticKernel", "three_points_gap",
    "bpg_step_l1_quartic", "bpg_step_sql2_quartic",
    "prox_log1abs", "prox_log1abs_vec", "soft_threshold",
    "solve_monotone_cubic",
    "CompositeProblem", "Evaluation", "PhaseRetrievalData",
    "RowsEvaluation", "add_outlier_noise",
    "finite_difference", "finite_difference_adjoint",
    "generate_phase_retrieval", "make_phase_retrieval",
    "make_robust_denoising", "make_spurious2d", "make_univariate",
    "verify_smad_by_sampling",
    "read_pgm", "synthetic_blocks", "write_pgm",
    "SolverConfig", "SolverResult", "Trace", "TraceRecord",
    "TERM_BACKTRACK_FAILURE", "TERM_MAX_ITERS", "TERM_NON_FINITE",
    "TERM_STEP_TOL",
    "bpg_fixed", "bpg_wb", "cocain_bpg", "cocain_bpg_cfi",
    "cocain_bpg_no_backtracking", "ipiano",
    "CheckReport", "LyapunovParams", "PROMISES", "certify",
    "check_acceptance_conditions", "check_cfi_bound",
    "check_function_descent", "check_lyapunov_descent",
    "check_prefix_bound", "lyapunov_phi",
]
