"""Exception types shared across the package.

Every guard that rejects bad numeric or combinatorial input raises one of
these, so callers (and the CLI) can distinguish "your input is outside the
supported domain" from a genuine bug.
"""


class ThetaTraceError(Exception):
    """Base class for all package-specific errors."""


class ImTooSmall(ThetaTraceError):
    """Im(tau) is below the configured floor, or tau is not finite;
    evaluation refused."""


class OutOfAnnulus(ThetaTraceError):
    """q_z lies outside the annulus |q| < |q_z| < 1/|q| where the
    two-variable kernel converges, or z is not finite, or too large for a
    double-precision evaluation."""


class PoleAtLatticePoint(ThetaTraceError):
    """z is within the pole-guard radius of a period lattice point."""


class NotSymmetric(ThetaTraceError):
    """Gram matrix is not symmetric."""


class NotPositiveDefinite(ThetaTraceError):
    """Gram matrix is not positive definite."""


class NotEven(ThetaTraceError):
    """Gram matrix has an odd diagonal entry."""


class BoundTooLarge(ThetaTraceError):
    """An enumeration request would visit more lattice points than the cap."""


class TailBoundViolated(ThetaTraceError):
    """The Gaussian tail of a trace sum cannot be certified below the
    requested relative tolerance within the enumeration cap."""


class CutoffTooLarge(ThetaTraceError):
    """A series or grade cutoff exceeds the desk-scale limit."""


class IllConditioned(ThetaTraceError):
    """The least-squares system for a transition matrix is numerically
    rank-deficient (condition number above the guard)."""


class ParityMismatch(ThetaTraceError):
    """A permutation passed where an involution was required, or pairing
    data inconsistent with one."""


class NTooLarge(ThetaTraceError):
    """Exhaustive enumeration requested beyond the supported size."""


class ConfigError(ThetaTraceError):
    """Bad or inconsistent run configuration."""


class LatticeFileError(ThetaTraceError):
    """A lattice description file is missing, unparsable, or invalid."""
