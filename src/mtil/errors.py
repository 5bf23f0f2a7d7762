"""One exception type per kind of failure; a bad argument is a ValueError."""


class MtilError(Exception):
    """Base class for all package-specific errors."""


class UnstableMatrix(MtilError):
    """A matrix required to be Schur stable has spectral radius >= 1 (or >= nu)."""


class NotConverged(MtilError):
    """An iterative solver hit its iteration cap, met a singular step or
    non-finite iterates, or gave an answer that failed its residual check."""


class CholeskyFailure(MtilError):
    """A covariance factorization failed even after jitter escalation."""


class NonFiniteData(MtilError):
    """Data, its Grams, a covariance or a Lyapunov forcing is not finite."""


class RankDeficient(MtilError):
    """A matrix has lower rank than its use requires."""


class ParseError(MtilError):
    """A configuration file could not be parsed."""


class ValidationError(MtilError):
    """A configuration value is invalid; message carries the field path."""
