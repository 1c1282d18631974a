"""Exception types shared across the package."""


class NCLaplaceError(Exception):
    """Base class for all package errors."""


class DomainError(NCLaplaceError):
    """Evaluation requested outside the surface's parameter interval."""


class ConsistencyError(NCLaplaceError):
    """An internal identity that should hold to rounding was violated."""


class DegenerateMetricError(NCLaplaceError):
    """The quantized area density gamma is not safely invertible: it has no
    positive eigenvalue, or its smallest is below GAMMA_MIN_RATIO times its
    largest."""


class NotRevolutionSurfaceError(NCLaplaceError):
    """Operation requires a theta-independent metric (equal equatorial axes)."""


class DenseSizeError(NCLaplaceError):
    """The dense oracle refused above N = DENSE_CAP; the banded strategy
    serves larger N on every surface."""


class SolverConvergenceError(NCLaplaceError):
    """Eigenvalue solver did not converge to the requested tolerance."""


class ResolutionError(NCLaplaceError):
    """A classical reference's discretization (finite-difference grid or
    Galerkin degree) is too coarse to resolve the requested eigenvalues."""


class ConfigError(NCLaplaceError):
    """Inconsistent or invalid run configuration."""
