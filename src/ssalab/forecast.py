"""Min-norm linear recurrences, recurrent forecasting, and parametric signal fits.

A recurrence is a plain 1-D float array in the min-norm solution layout: one
of order t = L-1 predicting s_n = sum_k a_k s_{n-k} is the vector
(a_t, ..., a_1), so a[0] multiplies the oldest value of a chronological
window and a[-1] the newest, and the next value after a series `rec` is
a @ rec[-a.size:]. `recurrent_forecast` and `characteristic_roots` accept a
vector only when it is 1-D, nonempty and finite. `characteristic_roots`
places it in the last column of the order-t companion matrix, built inline,
and returns all t of its eigenvalues as a plain complex array; a repeated
root comes out as nearby copies, which `estimate` merges where it needs to.
Poles passed to `fit_signal_model` are a plain array too, a pole listed k
times having multiplicity k.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import as_series
from .errors import (
    AllZeroCoefficients,
    ForecastDiverged,
    IllConditionedBasis,
    VerticalSubspace,
    ZeroPole,
    integer,
)
from .subspace import basis_matrix

VERTICALITY_EPS = 1e-10
DIVERGENCE_BOUND = 1e100
CONDITION_LIMIT = 1e12


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


@dataclass(frozen=True)
class SignalModel:
    """Sum of polynomial-times-power terms fitted to a series.

    Term m contributes (sum_j c[m][j] n^j) * mu_m^n; coefficient arrays have
    length equal to the pole multiplicity.
    """

    poles: np.ndarray
    multiplicities: np.ndarray
    coefficients: tuple
    fit_residual: float

    def evaluate(self, n) -> np.ndarray:
        n = np.asarray(n, dtype=float)
        total = np.zeros(n.shape, dtype=complex)
        for mu, k, c in zip(self.poles, self.multiplicities, self.coefficients):
            poly = sum(c[j] * n**j for j in range(int(k)))
            total += poly * mu**n
        return total


def _model_design(poles: np.ndarray, multiplicities: np.ndarray, n: np.ndarray) -> np.ndarray:
    cols = []
    for mu, k in zip(poles, multiplicities):
        if mu == 0:
            raise ZeroPole("signal-model basis functions need nonzero poles")
        powers = mu**n
        for j in range(int(k)):
            cols.append(n**j * powers)
    return np.column_stack(cols)


def fit_signal_model(series, poles) -> SignalModel:
    """Least-squares fit of polynomial-exponential terms at the given poles.

    A pole listed k times has multiplicity k; the terms keep the order in
    which each pole first appears. Extraneous poles of a non-minimal
    recurrence come out with coefficients at the fit-noise level, which is
    how signal roots can be told apart.
    """
    f = as_series(series)
    p = np.atleast_1d(np.asarray(poles, dtype=complex))
    if p.ndim != 1 or p.size < 1:
        raise ValueError("poles must form a nonempty 1-D array")
    if p.size > f.size:
        raise ValueError(f"{p.size} basis functions exceed series length {f.size}")
    distinct, first, counts = np.unique(p, return_index=True, return_counts=True)
    order = np.argsort(first)
    distinct, counts = distinct[order], counts[order]
    design = _model_design(distinct, counts, np.arange(f.size, dtype=float))
    cond = np.linalg.cond(design)
    if cond > CONDITION_LIMIT:
        raise IllConditionedBasis(
            f"design matrix condition number {cond:.3g} exceeds {CONDITION_LIMIT:.3g}"
        )
    coef, _, _, _ = np.linalg.lstsq(design, f.astype(complex), rcond=None)
    residual = float(np.linalg.norm(design @ coef - f))
    groups = tuple(g.copy() for g in np.split(coef, np.cumsum(counts)[:-1]))
    return SignalModel(
        poles=distinct, multiplicities=counts, coefficients=groups, fit_residual=residual
    )
