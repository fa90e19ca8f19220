"""Exception types shared across the package, `integer`, the one check that
every layer runs on a count, a window, a rank or a seed, and `check_window`,
the one range rule for a window length.

Every error message names the precondition that failed, so CLI diagnostics
stay one line.
"""

import numpy as np


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


def integer(name: str, value, error=ValueError, minimum=None) -> int:
    """value as an int; `error` unless it is an int or a numpy integer (a bool
    is not) and, when `minimum` is given, at least `minimum`."""
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, np.integer))
        or (minimum is not None and value < minimum)
    ):
        bound = "" if minimum is None else f" >= {minimum}"
        raise error(f"{name} must be an integer{bound}, got {value!r}")
    return int(value)


def check_window(n: int, L) -> None:
    """WindowOutOfRange unless L is an integer with 2 <= L <= n-1."""
    integer("window length", L, WindowOutOfRange)
    if not 2 <= L <= n - 1:
        raise WindowOutOfRange(f"window length must satisfy 2 <= L <= N-1 (L={L}, N={n})")
