"""Exception types shared across the library.

All numerical failures derive from :class:`TvlandError` so callers (notably
the CLI) can distinguish them from usage errors.
"""


class TvlandError(Exception):
    """Base class for all tvland numerical errors."""


class SingularConstraintError(TvlandError):
    """Constraint Jacobian is (numerically) rank deficient.

    Raised when the smallest singular value of the constraint Jacobian falls
    below the singularity tolerance, i.e. LICQ fails at the evaluated point.
    """


class StepSolveError(TvlandError):
    """Inner solver of a proximally regularized step failed to converge."""


class InitializationError(TvlandError):
    """Trajectory start point is not a KKT point of the problem at t = 0."""


class ImplicitSolveError(TvlandError):
    """Newton iteration for an implicit integration step did not converge."""


class StiffnessError(TvlandError):
    """An adaptive integrator collapsed its step size.

    Raised by the reference integrator, and by the frozen-time flows for a
    non-finite field value or a step under the minimum step size.
    """


class EigenConvergenceError(TvlandError):
    """Dense eigenvalue iteration failed to converge."""
