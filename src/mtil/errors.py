"""Exception types shared across the package."""


class MtilError(Exception):
    """Base class for all package-specific errors."""


class UnstableMatrix(MtilError):
    """A matrix required to be Schur stable has spectral radius >= 1 (or >= nu)."""


class NotConverged(MtilError):
    """An iterative solver hit its iteration cap before reaching tolerance."""


class NotStabilizing(MtilError):
    """A synthesized gain fails to stabilize the closed loop."""


class CholeskyFailure(MtilError):
    """A covariance factorization failed even after jitter escalation."""


class RankDeficientLift(MtilError):
    """The lifting map G is not injective (full column rank required)."""


class NonFiniteData(MtilError):
    """Data, its Grams, a covariance or a Lyapunov forcing that must be
    finite is not."""


class DegenerateRank(MtilError):
    """The stacked data matrix has rank below the requested representation size."""


class RankDeficient(MtilError):
    """A matrix required to have full rank is rank deficient."""


class EmptyInput(MtilError):
    """An operation received an empty collection."""


class UnstablePair(MtilError):
    """A scalar closed-loop pair (a_cl, a_cl + eps) is not contractive."""


class ParseError(MtilError):
    """A configuration file could not be parsed."""


class ValidationError(MtilError):
    """A configuration value is invalid; message carries the field path."""

