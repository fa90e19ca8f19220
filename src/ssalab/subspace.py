"""Signal-subspace bases, which are plain finite (L, r) arrays with 1 <= r < L,
noise complements, and the largest-principal-angle distance."""

from __future__ import annotations

import numpy as np

from .core import EigentripleSet
from .errors import DimensionMismatch, RankTooLarge, integer

ORTHONORMALITY_TOL = 1e-10


def basis_matrix(B) -> np.ndarray:
    """Return B as an (L, r) float array; ValueError unless 1 <= r < L and
    every entry is finite."""
    M = np.asarray(B, dtype=float)
    if M.ndim != 2 or not 1 <= M.shape[1] < M.shape[0]:
        raise ValueError(f"expected an L x r matrix with 1 <= r < L, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise ValueError("basis contains NaN or infinite entries")
    return M


def signal_basis(ets: EigentripleSet, r: int) -> np.ndarray:
    """The r leading left vectors; ValueError unless orthonormal with r < L."""
    d = ets.sigmas.size
    r = integer("rank r", r)
    if not 1 <= r <= d:
        raise RankTooLarge(f"rank r={r} outside 1..{d} retained triples")
    B = basis_matrix(ets.u[:, :r].copy())
    if np.max(np.abs(B.T @ B - np.eye(r))) > ORTHONORMALITY_TOL:
        raise ValueError("basis columns are not orthonormal")
    return B


def noise_complement(B) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of span(B) in R^L."""
    M = basis_matrix(B)
    # the trailing right singular vectors of M^T, cut where scipy's null_space cuts
    _, s, vh = np.linalg.svd(M.T, full_matrices=True)
    rank = int(np.count_nonzero(s > np.finfo(float).eps * M.shape[0] * s[0]))
    if rank != M.shape[1]:
        raise RankTooLarge("basis does not have full column rank")
    return vh[rank:].T


def subspace_distance(A, B) -> float:
    """Spectral norm of the projector difference: sine of the largest principal angle.

    Equal to sqrt(1 - sigma_min(A^T B)^2), but evaluated as the largest
    singular value of (I - A A^T) B: the two agree exactly in real
    arithmetic, and the complement form avoids the cancellation that floors
    the sigma-min form near sqrt(eps) when the subspaces coincide. Always in
    [0, 1].
    """
    MA, MB = basis_matrix(A), basis_matrix(B)
    if MA.shape != MB.shape:
        raise DimensionMismatch(f"bases have different shapes: {MA.shape} vs {MB.shape}")
    residual = MB - MA @ (MA.T @ MB)
    s = np.linalg.svd(residual, compute_uv=False)
    return float(min(s[0], 1.0))
