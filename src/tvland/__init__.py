"""Trajectories of time-varying equality-constrained nonconvex optimization.

The library simulates discrete local trajectories of sequentially solved
proximally regularized problems, integrates their limiting tracking ODE,
classifies trajectories as spurious or non-spurious via frozen-time basins
of attraction, evaluates closed-form escape conditions, and analyzes the
spectrum of the tracking dynamics' Jacobian along minimizer trajectories.
"""

from .classify import (ClassificationResult, MembershipRecord, Verdict,
                       attraction_membership, build_catalog,
                       classify_trajectory, multistart_builder,
                       tracking_builder)
from .conditions import (Prop1Report, RegionResult, Thm3Report,
                         prop1_check, prop1_constants, prop1_region,
                         thm3_check)
from .discrete import (check_local_solution, discrete_trajectory,
                       regularized_step)
from .errors import (EigenConvergenceError, ImplicitSolveError,
                     InitializationError, MissingHessianError,
                     RootBracketError, SingularConstraintError,
                     StepSolveError, StiffnessError, TvlandError)
from .geometry import (GeometryResult, KKTResidual, NewtonKKT, eta,
                       kkt_residual, newton_kkt, ode_rhs,
                       trajectory_with_diagnostics)
from .ode import (ConvergenceRow, backward_euler_trajectory,
                  convergence_study, frozen_time_flow, integrate_reference)
from .problem import (MinimizerCatalog, ProblemDef, Scalar1DFunction,
                      Trajectory, ValidationReport, freeze_data,
                      make_damped_sinusoid, make_example1,
                      make_matrix_recovery, matrix_recovery_global_state,
                      matrix_recovery_sign_flip, matrix_recovery_state,
                      matrix_recovery_target, validate_problem)
from .spectrum import (SpectrumReport, SpectrumSample, eigen_report,
                       invariant_jacobian, kkt_refine, kkt_track,
                       spectrum_along_trajectory,
                       tangent_hessian_eigenvalues, variant_jacobian)

__version__ = "0.1.0"

__all__ = [
    "ClassificationResult", "ConvergenceRow", "EigenConvergenceError",
    "GeometryResult", "ImplicitSolveError", "InitializationError",
    "KKTResidual", "MembershipRecord", "MinimizerCatalog", "NewtonKKT",
    "MissingHessianError", "ProblemDef", "Prop1Report", "RegionResult",
    "RootBracketError", "Scalar1DFunction", "SingularConstraintError",
    "SpectrumReport", "SpectrumSample", "StepSolveError", "StiffnessError",
    "Thm3Report", "Trajectory", "TvlandError", "ValidationReport", "Verdict",
    "attraction_membership", "backward_euler_trajectory", "build_catalog",
    "check_local_solution", "classify_trajectory", "convergence_study",
    "discrete_trajectory", "eigen_report", "eta", "freeze_data",
    "frozen_time_flow", "integrate_reference",
    "invariant_jacobian", "kkt_refine", "kkt_residual", "kkt_track",
    "make_damped_sinusoid", "make_example1", "make_matrix_recovery",
    "matrix_recovery_global_state", "matrix_recovery_sign_flip",
    "matrix_recovery_state", "matrix_recovery_target", "multistart_builder",
    "newton_kkt", "ode_rhs", "prop1_check", "prop1_constants", "prop1_region",
    "regularized_step", "spectrum_along_trajectory",
    "tangent_hessian_eigenvalues", "thm3_check", "tracking_builder",
    "trajectory_with_diagnostics", "validate_problem", "variant_jacobian",
]
