"""Min-norm linear recurrences, recurrent forecasting, and parametric signal fits.

Coefficient storage follows the min-norm solution layout: a recurrence of
order t = L-1 predicting s_n = sum_k a_k s_{n-k} is stored as the vector
(a_t, ..., a_1), so coeffs[0] multiplies the oldest value of a chronological
window and coeffs[-1] the newest. `characteristic_roots` places the same
vector in the last column of the order-t companion matrix, built inline, and
returns its eigenvalues.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import as_series
from .errors import (
    AllZeroCoefficients,
    ForecastDiverged,
    IllConditionedBasis,
    VerticalSubspace,
    ZeroPole,
)
from .subspace import basis_matrix

VERTICALITY_EPS = 1e-10
ROOT_MERGE_TOL = 1e-8
DIVERGENCE_BOUND = 1e100
CONDITION_LIMIT = 1e12


@dataclass(frozen=True)
class LinearRecurrence:
    """Forward recurrence coefficients (a_{L-1}, ..., a_1) plus diagnostics.

    `nu2` is the squared norm of the basis edge coordinates used by the
    min-norm construction; 0 for hand-built recurrences.
    """

    coeffs: np.ndarray
    nu2: float = 0.0

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.coeffs, dtype=float))
        if c.ndim != 1 or c.size < 1:
            raise ValueError("coefficients must form a nonempty 1-D array")
        if not np.all(np.isfinite(c)):
            raise ValueError("coefficients must be finite")
        if not 0.0 <= self.nu2 < 1.0:
            raise ValueError(f"nu2 must lie in [0, 1), got {self.nu2}")
        object.__setattr__(self, "coeffs", c)

    @property
    def order(self) -> int:
        return int(self.coeffs.size)


@dataclass(frozen=True)
class PoleSet:
    """Complex signal roots with multiplicities."""

    poles: np.ndarray
    multiplicities: np.ndarray = field(default=None)

    def __post_init__(self):
        p = np.atleast_1d(np.asarray(self.poles, dtype=complex))
        m = self.multiplicities
        m = np.ones(p.size, dtype=int) if m is None else np.atleast_1d(np.asarray(m, dtype=int))
        if m.shape != p.shape:
            raise ValueError("multiplicities must match poles")
        if np.any(m < 1):
            raise ValueError("multiplicities must be positive")
        object.__setattr__(self, "poles", p)
        object.__setattr__(self, "multiplicities", m)

    @property
    def total_degree(self) -> int:
        return int(self.multiplicities.sum())

    @staticmethod
    def from_roots(roots) -> "PoleSet":
        """Treat roots as simple, merging any pair closer than ROOT_MERGE_TOL.

        Merged clusters become one pole (the cluster mean) with raised
        multiplicity; exact multiple roots never survive floating point, so
        the tolerance is what makes repeated-root models usable.
        """
        r = np.atleast_1d(np.asarray(roots, dtype=complex))
        order = np.lexsort((r.imag, r.real))
        centers: list[complex] = []
        counts: list[int] = []
        for z in r[order]:
            placed = False
            for i, c in enumerate(centers):
                if abs(z - c) <= ROOT_MERGE_TOL:
                    centers[i] = (c * counts[i] + z) / (counts[i] + 1)
                    counts[i] += 1
                    placed = True
                    break
            if not placed:
                centers.append(complex(z))
                counts.append(1)
        return PoleSet(np.array(centers), np.array(counts))


def min_norm_lrf(B) -> LinearRecurrence:
    """Minimum-norm forward recurrence read off an orthonormal signal-subspace basis.

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
    return LinearRecurrence(coeffs=(M[:-1, :] @ pi) / (1.0 - nu2), nu2=nu2)


def recurrent_forecast(seed, lrf: LinearRecurrence, steps: int) -> np.ndarray:
    """Iterate a recurrence from the seed window; returns the new values.

    `seed` holds the last order-many values in chronological order and must
    be finite. Values exceeding DIVERGENCE_BOUND in magnitude raise
    ForecastDiverged, the symptom of extraneous roots escaping the unit circle.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    window = np.asarray(seed, dtype=float).ravel()
    if window.size != lrf.order:
        raise ValueError(f"seed length {window.size} != recurrence order {lrf.order}")
    if not np.all(np.isfinite(window)):
        raise ValueError("seed contains NaN or infinite values")
    out = np.empty(steps)
    buf = window.copy()
    for m in range(steps):
        val = float(lrf.coeffs @ buf)
        if not np.isfinite(val) or abs(val) > DIVERGENCE_BOUND:
            raise ForecastDiverged(
                f"forecast value |{val:.3g}| exceeded bound {DIVERGENCE_BOUND:.3g} at step {m + 1}"
            )
        out[m] = val
        buf[:-1] = buf[1:]
        buf[-1] = val
    return out


def characteristic_roots(lrf: LinearRecurrence) -> PoleSet:
    """All order-many roots of mu^t - sum_k a_k mu^{t-k}, via companion eigenvalues."""
    if not np.any(lrf.coeffs != 0.0):
        raise AllZeroCoefficients("all recurrence coefficients are zero")
    t = lrf.order
    C = np.eye(t, k=-1)
    C[:, -1] = lrf.coeffs
    return PoleSet.from_roots(np.linalg.eigvals(C))


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


def _model_design(poles: PoleSet, n: np.ndarray) -> np.ndarray:
    cols = []
    for mu, k in zip(poles.poles, poles.multiplicities):
        if mu == 0:
            raise ZeroPole("signal-model basis functions need nonzero poles")
        powers = mu**n
        for j in range(int(k)):
            cols.append(n**j * powers)
    return np.column_stack(cols)


def fit_signal_model(series, poles: PoleSet) -> SignalModel:
    """Least-squares fit of polynomial-exponential terms at the given poles.

    Extraneous poles of a non-minimal recurrence come out with coefficients
    at the fit-noise level, which is how signal roots can be told apart.
    """
    f = as_series(series)
    n = np.arange(f.size, dtype=float)
    if poles.total_degree > f.size:
        raise ValueError(
            f"{poles.total_degree} basis functions exceed series length {f.size}"
        )
    design = _model_design(poles, n)
    cond = np.linalg.cond(design)
    if cond > CONDITION_LIMIT:
        raise IllConditionedBasis(
            f"design matrix condition number {cond:.3g} exceeds {CONDITION_LIMIT:.3g}"
        )
    coef, _, _, _ = np.linalg.lstsq(design, f.astype(complex), rcond=None)
    residual = float(np.linalg.norm(design @ coef - f))
    groups = []
    pos = 0
    for k in poles.multiplicities:
        groups.append(coef[pos:pos + int(k)].copy())
        pos += int(k)
    return SignalModel(
        poles=poles.poles.copy(),
        multiplicities=poles.multiplicities.copy(),
        coefficients=tuple(groups),
        fit_residual=residual,
    )
