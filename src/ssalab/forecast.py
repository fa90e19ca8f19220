"""Min-norm linear recurrences and recurrent forecasting.

A recurrence is a plain 1-D float array in the min-norm solution layout: one
of order t = L-1 predicting s_n = sum_k a_k s_{n-k} is the vector
(a_t, ..., a_1), so a[0] multiplies the oldest value of a chronological
window and a[-1] the newest, and the next value after a series `rec` is
a @ rec[-a.size:]. `recurrent_forecast` and `characteristic_roots` accept a
vector only when it is 1-D, nonempty and finite. `characteristic_roots`
places it in the last column of the order-t companion matrix, built inline,
and returns all t of its eigenvalues as a plain complex array; a repeated
root comes out as nearby copies, which `estimate` merges where it needs to.
"""

from __future__ import annotations

import numpy as np

# as_series is unused here, but perfbench's tracer wraps it under this
# module's name; it goes once the tracer finds its targets in the source
# (ROADMAP item 1)
from .core import as_series  # noqa: F401
from .errors import AllZeroCoefficients, ForecastDiverged, VerticalSubspace, integer
from .subspace import basis_matrix

VERTICALITY_EPS = 1e-10
DIVERGENCE_BOUND = 1e100


def _coefficients(coeffs) -> np.ndarray:
    """Recurrence coefficients as a 1-D float array; ValueError unless
    nonempty and finite."""
    a = np.atleast_1d(np.asarray(coeffs, dtype=float))
    if a.ndim != 1 or a.size < 1:
        raise ValueError("coefficients must form a nonempty 1-D array")
    if not np.all(np.isfinite(a)):
        raise ValueError("coefficients must be finite")
    return a


def min_norm_lrf(B) -> np.ndarray:
    """Minimum-norm forward recurrence read off an orthonormal signal-subspace
    basis, as its coefficient vector (a_{L-1}, ..., a_1).

    Coefficients are the normalized projection of the last coordinate axis
    onto the orthogonal complement of the subspace; the backward recurrence
    is the forward one of the row-reversed basis, min_norm_lrf(B[::-1]).
    Raises VerticalSubspace when the subspace (nearly) contains that axis,
    i.e. nu2 approaches 1.
    """
    M = basis_matrix(B)
    gram = M.T @ M
    if np.max(np.abs(gram - np.eye(M.shape[1]))) > 1e-8:
        raise ValueError("min-norm recurrence needs an orthonormal basis")
    pi = M[-1, :]
    nu2 = float(pi @ pi)
    if nu2 >= 1.0 - VERTICALITY_EPS:
        raise VerticalSubspace(
            f"subspace is vertical (nu2 = {nu2:.3g} >= 1 - {VERTICALITY_EPS:g}); "
            "min-norm prediction undefined"
        )
    return (M[:-1, :] @ pi) / (1.0 - nu2)


def recurrent_forecast(seed, coeffs, steps: int) -> np.ndarray:
    """Iterate a recurrence from the seed window; returns the new values.

    `seed` holds the last coeffs.size values in chronological order and must
    be finite. Values exceeding DIVERGENCE_BOUND in magnitude raise
    ForecastDiverged, the symptom of extraneous roots escaping the unit circle.
    """
    steps = integer("steps", steps, minimum=1)
    a = _coefficients(coeffs)
    window = np.asarray(seed, dtype=float).ravel()
    if window.size != a.size:
        raise ValueError(f"seed length {window.size} != recurrence order {a.size}")
    if not np.all(np.isfinite(window)):
        raise ValueError("seed contains NaN or infinite values")
    out = np.empty(steps)
    buf = window.copy()
    for m in range(steps):
        val = float(a @ buf)
        if not np.isfinite(val) or abs(val) > DIVERGENCE_BOUND:
            raise ForecastDiverged(
                f"forecast value |{val:.3g}| exceeded bound {DIVERGENCE_BOUND:.3g} at step {m + 1}"
            )
        out[m] = val
        buf[:-1] = buf[1:]
        buf[-1] = val
    return out


def characteristic_roots(coeffs) -> np.ndarray:
    """All t = coeffs.size roots of mu^t - sum_k a_k mu^{t-k}: the complex
    eigenvalues of the companion matrix, near-duplicates not merged."""
    a = _coefficients(coeffs)
    if not np.any(a != 0.0):
        raise AllZeroCoefficients("all recurrence coefficients are zero")
    t = a.size
    C = np.eye(t, k=-1)
    C[:, -1] = a
    return np.linalg.eigvals(C).astype(complex, copy=False)
