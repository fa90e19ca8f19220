"""Catalog of benchmark signals and residual generators.

Each catalog kind is one row of `_CATALOG`: a closed-form signal, the
residual recipe used in the error studies, and the signal's poles, whose
count is its rank. The kind fixes the residual type (deterministic, white or
red), so a `SignalSpec` alone describes what is simulated. `gen_series`
returns signal and residual separately so error functionals always know the
truth. Exponential damping is written through the base b (s_n contains
b^n), white noise has standard deviation sigma, and red noise is the
stationary AR(1) process with coefficient alpha and unit variance before
scaling by sigma. The AR(1) recurrence runs as a numpy prefix scan of at most
ceil(log2 n) vector passes, so no draw needs scipy.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

# decompose, embed and signal_basis are unused here, but perfbench's tracer
# wraps each under this module's name; they go once it finds its targets in
# the source (ROADMAP item 1)
from .core import decompose, embed  # noqa: F401
from .errors import InvalidSpec, RankTooLarge, check_window, integer
from .subspace import signal_basis  # noqa: F401


def red_noise(rng: np.random.Generator, n: int, alpha: float) -> np.ndarray:
    """Stationary AR(1) draw: unit marginal variance, innovation variance 1 - alpha^2.

    The recurrence y[i] = x[i] + alpha y[i-1] runs as a recursive-doubling
    scan (Hillis-Steele): after the pass with shift s, y[i] holds the sum of
    alpha^k x[i-k] over k < 2s. The scan stops at s >= n, or once |alpha|^s
    is below 2^-60 (1 - |alpha|), where the dropped tail is below 2^-60 max|x|:
    at most ceil(log2 n) passes, 6 at alpha = 0.5. For alpha up to 0.99 it stays
    within 1e-15 max|y| of the recurrence evaluated exactly, as close as a
    serial filter gets.
    """
    g = rng.standard_normal(n)
    y = np.sqrt(1.0 - alpha * alpha) * g
    y[0] = g[0]
    s, p = 1, alpha
    while s < n and abs(p) > 2.0**-60 * (1.0 - abs(alpha)):
        y[s:] += p * y[:-s]
        s, p = 2 * s, p * p
    return y


@dataclass(frozen=True)
class SignalSpec:
    """One catalog entry: kind, length, and the parameters the kind uses."""

    kind: str
    n: int
    b: float = 1.0
    c: float = 0.1
    sigma: float = 0.1
    alpha: float = 0.5

    def __post_init__(self):
        if self.kind not in _CATALOG:
            raise InvalidSpec(f"unknown signal kind {self.kind!r}")
        integer("series length", self.n, InvalidSpec, minimum=3)
        for name in ("b", "c", "sigma"):
            value = getattr(self, name)
            if not np.isfinite(value):
                raise InvalidSpec(f"{name} must be finite, got {value}")
        if self.sigma < 0:
            raise InvalidSpec(f"sigma must be >= 0, got {self.sigma}")
        if not 0.0 <= self.alpha < 1.0:
            raise InvalidSpec(f"alpha must lie in [0, 1), got {self.alpha}")
        if self.b <= 0:
            raise InvalidSpec(f"base b must be > 0, got {self.b}")


def _damped_cos(spec, n):
    return spec.b**n * np.cos(2.0 * np.pi * n / 10.0)


def _damped_cos_poles(spec):
    z = spec.b * np.exp(2j * np.pi / 10.0)
    return np.array([z, z.conjugate()])


def _two_cos_poles(spec):
    z1 = np.exp(2j * np.pi / 19.0)
    z2 = np.exp(2j * np.pi / 21.0)
    return np.array([z1, z1.conjugate(), z2, z2.conjugate()])


def _white(spec, rng, n):
    return spec.sigma * rng.standard_normal(spec.n)


def _no_poles(spec):
    return None


@dataclass(frozen=True)
class _Kind:
    """One catalog row. `n` is the float array of sample indices."""

    signal: Callable  # (spec, n) -> signal values at n
    residual: Callable  # (spec, rng, n) -> residual draw at 0..spec.n-1
    poles: Callable  # spec -> characteristic roots (one per rank), None for infinite rank


_CATALOG = {
    "const_saw": _Kind(
        lambda spec, n: np.ones_like(n),
        lambda spec, rng, n: -spec.c * (-1.0) ** n,
        lambda spec: np.array([1.0 + 0.0j]),
    ),
    "damped_cos_const": _Kind(
        _damped_cos,
        lambda spec, rng, n: np.full(spec.n, spec.c),
        _damped_cos_poles,
    ),
    "damped_cos_wn": _Kind(_damped_cos, _white, _damped_cos_poles),
    "damped_cos_mix": _Kind(
        _damped_cos,
        lambda spec, rng, n: (spec.sigma * rng.standard_normal(spec.n) + spec.c) / np.sqrt(2.0),
        _damped_cos_poles,
    ),
    "damped_cos_rn": _Kind(
        _damped_cos,
        lambda spec, rng, n: spec.sigma * red_noise(rng, spec.n, spec.alpha),
        _damped_cos_poles,
    ),
    "two_cos": _Kind(
        lambda spec, n: np.cos(2.0 * np.pi * n / 19.0) + np.cos(2.0 * np.pi * n / 21.0),
        _white,
        _two_cos_poles,
    ),
    "chirp_am": _Kind(
        lambda spec, n: np.cos(2.0 * np.pi * n**2 / 1e5) * np.cos(2.0 * np.pi * n / 20.0),
        _white,
        _no_poles,
    ),
    "chirp_trend_mix": _Kind(
        lambda spec, n: np.cos(2.0 * np.pi * n**2 / 1e5),
        lambda spec, rng, n: spec.sigma * rng.standard_normal(spec.n)
        + spec.c * np.cos(2.0 * np.pi * n / 10.0),
        _no_poles,
    ),
    "exp_trend": _Kind(lambda spec, n: spec.b**n, _white, lambda spec: np.array([spec.b + 0.0j])),
}


def signal_values(spec: SignalSpec, indices=None) -> np.ndarray:
    """Closed-form signal values at the given sample indices (default 0..n-1)."""
    n = np.arange(spec.n, dtype=float) if indices is None else np.asarray(indices, dtype=float)
    return _CATALOG[spec.kind].signal(spec, n)


def residual_values(spec: SignalSpec, rng: np.random.Generator) -> np.ndarray:
    """Residual draw matching the kind's recipe (deterministic kinds ignore rng)."""
    return _CATALOG[spec.kind].residual(spec, rng, np.arange(spec.n, dtype=float))


@lru_cache(maxsize=32)
def _signal_cached(spec: SignalSpec) -> np.ndarray:
    return signal_values(spec)


def gen_series(spec: SignalSpec, rng=None) -> tuple[np.ndarray, np.ndarray]:
    """Generate (signal, residual); their sum is the observed series.

    The signal is computed once per spec and each call gets its own copy.
    """
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    return _signal_cached(spec).copy(), residual_values(spec, rng)


def exact_rank(spec: SignalSpec) -> Optional[int]:
    """Trajectory-space dimension of the noise-free signal, None if unbounded.

    Every catalog pole is simple, so the rank is the pole count.
    """
    poles = _CATALOG[spec.kind].poles(spec)
    return None if poles is None else poles.size


def true_poles(spec: SignalSpec) -> Optional[np.ndarray]:
    """Exact characteristic roots of the signal as a complex array, None for
    infinite-rank kinds."""
    return _CATALOG[spec.kind].poles(spec)


def true_frequencies(spec: SignalSpec) -> Optional[np.ndarray]:
    """Distinct nonnegative signal frequencies in cycles per sample."""
    poles = true_poles(spec)
    if poles is None:
        return None
    freqs = np.abs(np.angle(poles)) / (2.0 * np.pi)
    return np.unique(np.round(freqs, 15))


@lru_cache(maxsize=128)
def exact_basis(spec: SignalSpec, L: int) -> np.ndarray:
    """Orthonormal (L, r) basis of the noise-free trajectory space at window L;
    cached and shared, so read-only.

    A series of rank r has its lagged windows in the span of its pole vectors
    (z^i), i = 0..L-1. Each conjugate pair z = rho e^{i omega} gives the real
    columns rho^e cos(omega i) and rho^e sin(omega i), a real pole gives
    rho^e sign(z)^i, and one thin QR of that L x r matrix returns the basis.
    The exponent is e = i - (L-1) when rho > 1, so no entry overflows, and
    e = i otherwise. The columns span the same space as the r leading left
    singular vectors of the trajectory matrix but are not those vectors. The
    cost is O(L r^2) time and O(L r) memory; the L x K matrix is never built.

    InvalidSpec for a kind of infinite rank, WindowOutOfRange unless L is an
    integer in 2..N-1, RankTooLarge when L < r or K = N-L+1 < r, and
    ValueError when r = L, which leaves no noise complement.
    """
    poles = true_poles(spec)
    if poles is None:
        raise InvalidSpec(f"kind {spec.kind!r} has no finite rank; no exact basis")
    check_window(spec.n, L)
    r, K = poles.size, spec.n - L + 1
    if min(L, K) < r:
        raise RankTooLarge(f"rank {r} exceeds min(L, K) = {min(L, K)} at L={L}, N={spec.n}")
    if r == L:
        raise ValueError(f"rank {r} equals the window; a basis needs r < L")
    i = np.arange(L, dtype=float)
    columns = []
    for z in poles[poles.imag >= 0]:
        rho, omega = abs(z), np.angle(z)
        scale = rho ** (i - (L - 1) if rho > 1 else i)
        if z.imag > 0:
            columns += [scale * np.cos(omega * i), scale * np.sin(omega * i)]
        else:
            columns.append(scale * np.sign(z.real) ** i)
    B = np.linalg.qr(np.column_stack(columns))[0]
    B.flags.writeable = False
    return B
