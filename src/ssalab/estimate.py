"""Subspace parameter estimation: ESPRIT, Min-Norm/MUSIC pseudospectra, root methods.

All estimators consume a basis of the estimated signal subspace (or its
orthogonal complement). ESPRIT and the root methods return poles as a 1-D
complex array; the pseudospectra are one alignment routine, Min-Norm being
MUSIC on a single noise vector. Roots that split under rounding are merged
here (`_merge_roots`) before poles are chosen, ESPRIT's shift-matrix
eigenvalues with a wider tolerance than polynomial roots; ESPRIT and Min-Norm
list a merged pole once per root it holds. `poles_to_params` turns poles
into a (k, 3) table of frequency, damping and modulus, and a pseudospectrum is
a (gridsize, 2) table of omega and 1/f(omega): the columns the CLI writes.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    EmptyNoiseBasis,
    FewerPeaksThanRequested,
    NonpositiveEigenvalue,
    RankDeficientShift,
    TlsDegenerate,
    TooFewRoots,
    VerticalSubspace,
    ZeroPole,
    integer,
)
from .forecast import characteristic_roots
from .subspace import basis_matrix

DEFAULT_GRIDSIZE = 2048
UNIT_CIRCLE_SLACK = 1e-9
CONJUGATE_PAIR_TOL = 1e-9
ROOT_MERGE_TOL = 1e-8
# A double eigenvalue of the r x r ESPRIT shift matrix splits by about the
# square root of its rounding error: up to 1.2e-7 on linear trends of length
# 12..3000, where the double pole 1 splits by 1.3e-8 under TLS at N = 50.
_ESPRIT_MERGE_TOL = 1e-6


def _merge_roots(roots, tol=ROOT_MERGE_TOL) -> tuple[np.ndarray, np.ndarray]:
    """(centers, counts): roots merged where closer than `tol`.

    A merged cluster becomes one center (the cluster mean) with its size as
    count; exact multiple roots never survive floating point, so the
    tolerance is what makes repeated-root models usable.
    """
    r = np.atleast_1d(np.asarray(roots, dtype=complex))
    order = np.lexsort((r.imag, r.real))
    centers: list[complex] = []
    counts: list[int] = []
    for z in r[order]:
        placed = False
        for i, c in enumerate(centers):
            if abs(z - c) <= tol:
                centers[i] = (c * counts[i] + z) / (counts[i] + 1)
                counts[i] += 1
                placed = True
                break
        if not placed:
            centers.append(complex(z))
            counts.append(1)
    return np.array(centers, dtype=complex), np.array(counts, dtype=int)


def esprit_ls(B) -> np.ndarray:
    """Poles as the eigenvalues of the least-squares shift matrix.

    Solves the shift-invariance system upper D = lower. Works for any
    full-column-rank basis of the signal subspace; the eigenvalues of D are
    invariant under nonsingular changes of that basis.
    """
    M = basis_matrix(B)
    r = M.shape[1]
    upper, lower = M[:-1], M[1:]
    D, _, rank, _ = np.linalg.lstsq(upper, lower, rcond=None)
    if rank < r:
        raise RankDeficientShift(f"shift system rank {rank} < r = {r}")
    return np.repeat(*_merge_roots(np.linalg.eigvals(D), _ESPRIT_MERGE_TOL))


def esprit_tls(B) -> np.ndarray:
    """Poles as the eigenvalues of the total-least-squares shift matrix.

    Errors in both the shifted and unshifted blocks are minimized jointly:
    take the SVD of the stacked block [upper | lower], partition the right
    singular matrix into r x r blocks; the shift matrix is -V12 V22^{-1}.
    Invariant under orthogonal (not general nonsingular) basis changes.
    """
    M = basis_matrix(B)
    r = M.shape[1]
    stacked = np.hstack([M[:-1], M[1:]])
    _, _, Vt = np.linalg.svd(stacked, full_matrices=True)
    V = Vt.T
    V12 = V[:r, r:]
    V22 = V[r:, r:]
    if np.linalg.cond(V22) > 1e12:
        raise TlsDegenerate("TLS block V22 is numerically singular")
    Z = -np.linalg.solve(V22.T, V12.T).T
    return np.repeat(*_merge_roots(np.linalg.eigvals(Z), _ESPRIT_MERGE_TOL))


def poles_to_params(poles) -> np.ndarray:
    """A (k, 3) table, one row per pole: frequency (cycles/sample, in [0, 0.5]),
    damping ln|mu| and modulus |mu|, sorted by frequency."""
    p = np.atleast_1d(np.asarray(poles, dtype=complex))
    if np.any(p == 0):
        raise ZeroPole("cannot convert a zero pole to frequency and damping")
    freq = np.abs(np.angle(p)) / (2.0 * np.pi)
    modulus = np.abs(p)
    damping = np.log(modulus)
    order = np.lexsort((modulus, damping, freq))
    return np.column_stack([freq, damping, modulus])[order]


def pair_frequencies(poles) -> np.ndarray:
    """Nonnegative frequencies with conjugate partners collapsed, sorted ascending."""
    p = np.atleast_1d(np.asarray(poles, dtype=complex))
    freqs = []
    used = np.zeros(p.size, dtype=bool)
    for i, z in enumerate(p):
        if used[i]:
            continue
        used[i] = True
        partners = np.where(~used & (np.abs(p - z.conjugate()) <= CONJUGATE_PAIR_TOL))[0]
        if partners.size:
            used[partners[0]] = True
        freqs.append(abs(np.angle(z)) / (2.0 * np.pi))
    return np.sort(np.asarray(freqs))


def _alignment(vectors, omegas, eigenvalues=None) -> np.ndarray:
    """Sum of squared cosines between the steering vector and orthonormal
    columns, per omega, optionally 1/lambda weighted."""
    U = np.asarray(vectors, dtype=float)
    if U.ndim != 2 or U.shape[1] < 1:
        raise EmptyNoiseBasis("noise basis must have at least one column")
    E = np.exp(2j * np.pi * np.outer(omegas, np.arange(U.shape[0])))
    per_vector = np.abs(E @ U) ** 2 / U.shape[0]
    if eigenvalues is None:
        return per_vector.sum(axis=1)
    lam = np.asarray(eigenvalues, dtype=float)
    if lam.shape != (U.shape[1],):
        raise ValueError(f"need one eigenvalue per noise vector, got {lam.shape}")
    if np.any(lam <= 0):
        raise NonpositiveEigenvalue("EV weighting requires strictly positive eigenvalues")
    return per_vector @ (1.0 / lam)


def _grid(gridsize: int) -> np.ndarray:
    return np.linspace(0.0, 0.5, integer("gridsize", gridsize, minimum=2))


def pseudospectrum_minnorm(B, gridsize: int = DEFAULT_GRIDSIZE) -> np.ndarray:
    """Min-norm pseudospectrum: MUSIC on the one unit noise vector along the
    projection of the last coordinate axis onto the orthogonal complement."""
    M = basis_matrix(B)
    a = -M @ M[-1, :]
    a[-1] += 1.0
    nu2 = 1.0 - float(a[-1])
    if nu2 >= 1.0 - 1e-10:
        raise VerticalSubspace(f"subspace is vertical (nu2 = {nu2:.3g}); no min-norm vector")
    return pseudospectrum_music(a[:, None] / np.linalg.norm(a), gridsize=gridsize)


def pseudospectrum_music(
    noise_basis, gridsize: int = DEFAULT_GRIDSIZE, eigenvalues=None
) -> np.ndarray:
    """MUSIC pseudospectrum as a (gridsize, 2) table of omega and 1/f(omega);
    pass noise-space eigenvalues for the EV weighting."""
    om = _grid(gridsize)
    f = _alignment(noise_basis, om, eigenvalues=eigenvalues)
    with np.errstate(divide="ignore"):
        return np.column_stack([om, 1.0 / f])


def _closest_to_circle(candidates: np.ndarray, r: int, what: str) -> np.ndarray:
    if candidates.size < r:
        raise TooFewRoots(f"only {candidates.size} {what} candidates for r = {r}")
    key = sorted(
        range(candidates.size),
        key=lambda i: (
            abs(1.0 - abs(candidates[i])),
            -abs(candidates[i]),
            abs(np.angle(candidates[i])),
            np.angle(candidates[i]),
        ),
    )
    return candidates[key[:r]]


def root_music_polynomial(noise_basis) -> np.ndarray:
    """Ascending coefficients of z^{L-1} (Z(1/z)^T P Z(z)) with P the noise projector.

    The polynomial is conjugate-reciprocal, so its roots come in (z, 1/conj(z))
    pairs; coefficient k is the k-th diagonal sum of the projector, i.e. the
    lag correlation of the noise-basis columns.
    """
    U = np.asarray(noise_basis, dtype=float)
    if U.ndim != 2 or U.shape[1] < 1:
        raise EmptyNoiseBasis("noise basis must have at least one column")
    L = U.shape[0]
    C = U @ U.T
    return np.array([np.trace(C, offset=k) for k in range(-(L - 1), L)])


def root_music(noise_basis, r: int) -> np.ndarray:
    """Roots of the MUSIC polynomial on or inside the unit circle, r closest to it.

    Double roots on the circle split under rounding into a reciprocal pair;
    a small slack plus near-duplicate merging keeps exactly one candidate per
    pair. Ties break toward larger modulus, then smaller frequency.
    """
    r = integer("pole count r", r, minimum=1)
    coeffs = root_music_polynomial(noise_basis)
    roots = np.roots(coeffs[::-1])
    inside = roots[np.abs(roots) <= 1.0 + UNIT_CIRCLE_SLACK]
    return _closest_to_circle(_merge_roots(inside)[0], r, "unit-circle root")


def root_min_norm(coeffs, r: int) -> np.ndarray:
    """The r characteristic roots of a recurrence's coefficient vector closest
    to the unit circle; a merged cluster of near-duplicate roots counts with
    its size."""
    r = integer("pole count r", r, minimum=1)
    expanded = np.repeat(*_merge_roots(characteristic_roots(coeffs)))
    return _closest_to_circle(expanded, r, "characteristic root")


def find_peaks(ps, count: int) -> np.ndarray:
    """Frequencies of the top interior maxima of a pseudospectrum table
    (columns omega, value), parabolic-refined, sorted ascending.

    Refinement fits a parabola to the log-values over the 3-point
    neighborhood; it falls back to the grid point when a neighbor is infinite
    or the curvature degenerates.
    """
    count = integer("peak count", count, minimum=1)
    table = np.asarray(ps, dtype=float)
    if table.ndim != 2 or table.shape[1] != 2:
        raise ValueError(f"pseudospectrum must be a (gridsize, 2) table, got {table.shape}")
    om, v = table[:, 0], table[:, 1]
    interior = np.arange(1, v.size - 1)
    is_max = (v[interior] > v[interior - 1]) & (v[interior] > v[interior + 1])
    peaks = interior[is_max]
    if peaks.size < count:
        raise FewerPeaksThanRequested(
            f"found {peaks.size} interior maxima, {count} requested"
        )
    order = sorted(peaks.tolist(), key=lambda i: (-v[i], om[i]))
    chosen = order[:count]
    refined = []
    for i in chosen:
        with np.errstate(divide="ignore"):
            y0, y1, y2 = np.log(v[i - 1]), np.log(v[i]), np.log(v[i + 1])
        denom = y0 - 2.0 * y1 + y2
        delta = 0.5 * (y0 - y2) / denom if np.isfinite(denom) and denom != 0 else 0.0
        if not np.isfinite(delta) or abs(delta) > 1.0:
            delta = 0.0
        step = om[i + 1] - om[i]
        refined.append(om[i] + delta * step)
    return np.sort(np.asarray(refined))
