"""Exception types shared across the package.

Every error message names the precondition that failed, so CLI diagnostics
stay one line.
"""


class SsaError(ValueError):
    """Base class for all domain errors raised by this package."""


class WindowOutOfRange(SsaError):
    """Window length outside 2 <= L <= N-1."""


class DecompositionFailed(SsaError):
    """The eigen/SVD backend did not converge."""


class IndexOutOfRange(SsaError):
    """Index outside the retained eigentriples."""


class RankTooLarge(SsaError):
    """Requested subspace dimension exceeds the retained triples."""


class DimensionMismatch(SsaError):
    """Operands live in different spaces."""


class VerticalSubspace(SsaError):
    """Min-norm prediction undefined: the subspace contains the probe axis."""


class ForecastDiverged(SsaError):
    """Recurrent forecast exceeded the divergence bound."""


class AllZeroCoefficients(SsaError):
    """A linear recurrence needs at least one nonzero coefficient."""


class IllConditionedBasis(SsaError):
    """Design matrix condition number too large for a trustworthy fit."""


class ZeroPole(SsaError):
    """Poles must be nonzero."""


class RankDeficientShift(SsaError):
    """Shift-invariance system is rank deficient."""


class TlsDegenerate(SsaError):
    """TLS block V22 is singular."""


class EmptyNoiseBasis(SsaError):
    """MUSIC-style methods need at least one noise-subspace vector."""


class NonpositiveEigenvalue(SsaError):
    """EV weighting needs strictly positive eigenvalues."""


class TooFewRoots(SsaError):
    """Fewer candidate roots than requested poles."""


class FewerPeaksThanRequested(SsaError):
    """The pseudospectrum has fewer interior maxima than requested."""


class InvalidSpec(SsaError):
    """Signal or noise specification failed validation."""


class OutOfDomain(SsaError):
    """Argument outside the formula's domain."""
