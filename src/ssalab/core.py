"""Basic SSA pipeline: embedding, decomposition, grouping, diagonal averaging.

The trajectory matrix of a series f_0..f_{N-1} with window L is the L x K
Hankel matrix (K = N - L + 1) whose column j is (f_j, ..., f_{j+L-1}).
Decomposition is either the plain SVD of that matrix ("basic") or the
eigendecomposition of the lag-autocovariance Toeplitz matrix ("toeplitz",
the variant intended for stationary series).

`leading_triples` computes only the leading block of the basic decomposition
and picks one of three routes by shape: block subspace iteration with FFT
Hankel products for a large side and a small rank, the eigendecomposition of
the min(L, K)-sided Gram matrix when its spectral gap at the rank is wide
enough, and the dense SVD as the fallback. A route that fails its own check
hands over to the next one. Where the Gram matrix of a long, narrow window
comes from the series, u needs no trajectory matrix, so v is computed from
it on first read; its bits are the same whenever that happens.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np
from numpy.fft import irfft, rfft
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DecompositionFailed, IndexOutOfRange, check_window, integer

DEFAULT_SIGMA_CUTOFF = 1e-12


def as_series(values) -> np.ndarray:
    """Validate and return a time series as a 1-D float array.

    Requires length >= 3 and all values finite.
    """
    f = np.asarray(values, dtype=float)
    if f.ndim != 1:
        raise ValueError(f"time series must be one-dimensional, got shape {f.shape}")
    if f.size < 3:
        raise ValueError(f"time series must have length >= 3, got {f.size}")
    if not np.all(np.isfinite(f)):
        raise ValueError("time series contains NaN or infinite values")
    return f


def embed(series, L: int) -> np.ndarray:
    """Build the L x K trajectory (Hankel) matrix of lagged windows."""
    f = as_series(series)
    check_window(f.size, L)
    return sliding_window_view(f, f.size - L + 1).copy()


class _OnFirstRead:
    """Data descriptor for a dataclass field that holds an array or a
    zero-argument function returning one. The first read calls the function
    and keeps its array. There is no lock: two threads reading at once would
    both compute the same bits, and a per-class lock would serialize every
    instance. The class itself has no value, so the field stays required."""

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, objtype=None):
        if obj is None:
            raise AttributeError(self.name)
        value = obj.__dict__[self.name]
        if callable(value):
            value = obj.__dict__[self.name] = value()
        return value

    def __set__(self, obj, value):
        obj.__dict__[self.name] = value


@dataclass(frozen=True)
class EigentripleSet:
    """Ordered eigentriples with their provenance.

    For method "basic" these are the SVD triples of the trajectory matrix:
    every retained one from `decompose`, the leading block from
    `leading_triples`.
    For method "toeplitz" the u_i are orthonormal eigenvectors of the lag
    autocovariance matrix, sigma_i = ||X^T u_i|| and v_i = X^T u_i / sigma_i;
    that is not an SVD and the v_i need not be orthogonal.

    `v` may be given as a zero-argument function; it is then called on the
    first read of `v` and its array kept. `leading_triples` does that on the
    series-Gram route of a narrow window, and the array it builds has the
    same bits as an eager one.
    """

    sigmas: np.ndarray  # (d,) nonincreasing
    u: np.ndarray  # (L, d)
    v: np.ndarray = _OnFirstRead()  # (K, d)
    method: str  # "basic" | "toeplitz"
    L: int
    K: int
    route: str = "svd"  # "block" | "gram" | "svd": how `leading_triples` computed it

    @property
    def count(self) -> int:
        return int(self.sigmas.size)


def _fix_signs(U: np.ndarray, V: np.ndarray | None) -> None:
    """Flip each column pair so the largest-|entry| coordinate of u is positive;
    V None flips u alone."""
    if U.size == 0:
        return
    idx = np.argmax(np.abs(U), axis=0)
    # negating whole columns avoids a length-r inner loop on (K, r) arrays
    for j in np.flatnonzero(U[idx, np.arange(U.shape[1])] < 0):
        U[:, j] *= -1.0
        if V is not None:
            V[:, j] *= -1.0


def decompose(X: np.ndarray) -> EigentripleSet:
    """SVD of a trajectory matrix, keeping triples with sigma > 1e-12 sigma_1.

    Columns are sign-normalized so outputs are reproducible across runs and
    backends; sigmas come out nonincreasing.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or min(X.shape) < 1:
        raise ValueError(f"trajectory matrix must be 2-D and nonempty, got shape {X.shape}")
    try:
        U, s, Vt = np.linalg.svd(X, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise DecompositionFailed(f"SVD backend failed: {exc}") from exc
    V = Vt.T
    keep = s > (DEFAULT_SIGMA_CUTOFF * s[0] if s.size else 0.0)
    d = int(np.count_nonzero(keep))
    U, s, V = U[:, :d].copy(), s[:d].copy(), V[:, :d].copy()
    _fix_signs(U, V)
    return EigentripleSet(sigmas=s, u=U, v=V, method="basic", L=X.shape[0], K=X.shape[1])


def lag_covariance_matrix(series, L: int) -> np.ndarray:
    """Toeplitz matrix of averaged lag products, entry(i,j) depending on |i-j|."""
    f = as_series(series)
    n = f.size
    check_window(n, L)
    # full correlation gives sum_m f_m f_{m+k} at offset N-1+k
    acov = np.correlate(f, f, mode="full")[n - 1:n - 1 + L]
    first_row = acov / (n - np.arange(L))
    lag = np.arange(L)
    return first_row[np.abs(lag[:, None] - lag)]


def decompose_toeplitz(series, L: int) -> EigentripleSet:
    """Toeplitz-variant decomposition for stationary series.

    Eigenvectors of the lag covariance matrix play the role of the left
    vectors; they are ordered by sigma_i = ||X^T u_i|| nonincreasing. This
    deliberately is not the SVD of the trajectory matrix.
    """
    f = as_series(series)
    C = lag_covariance_matrix(f, L)
    X = embed(f, L)
    try:
        _, U = np.linalg.eigh(C)
    except np.linalg.LinAlgError as exc:
        raise DecompositionFailed(f"eigendecomposition failed: {exc}") from exc
    proj = X.T @ U  # (K, L)
    sigmas = np.linalg.norm(proj, axis=0)
    order = np.argsort(-sigmas, kind="stable")
    sigmas = sigmas[order]
    U = U[:, order]
    proj = proj[:, order]
    keep = sigmas > (DEFAULT_SIGMA_CUTOFF * sigmas[0] if sigmas.size else 0.0)
    d = int(np.count_nonzero(keep))
    U, sigmas, proj = U[:, :d].copy(), sigmas[:d].copy(), proj[:, :d]
    V = proj / sigmas
    _fix_signs(U, V)
    return EigentripleSet(sigmas=sigmas, u=U, v=V, method="toeplitz", L=X.shape[0], K=X.shape[1])


def _check_indices(ets: EigentripleSet, indices) -> np.ndarray:
    idx = np.asarray(sorted(set(integer("eigentriple index", i) for i in indices)), dtype=int)
    if idx.size and (idx.min() < 1 or idx.max() > ets.count):
        raise IndexOutOfRange(
            f"eigentriple indices must lie in 1..{ets.count}, got {idx.tolist()}"
        )
    return idx


def group_matrix(ets: EigentripleSet, indices) -> np.ndarray:
    """Sum of the selected rank-one terms sigma_i u_i v_i^T (1-based indices)."""
    idx = _check_indices(ets, indices)
    if idx.size == 0:
        return np.zeros((ets.L, ets.K))
    cols = idx - 1
    return (ets.u[:, cols] * ets.sigmas[cols]) @ ets.v[:, cols].T


def diagonal_counts(L: int, K: int) -> np.ndarray:
    """Number of matrix entries on each antidiagonal i + j = const."""
    i = np.arange(1.0, L + K)
    return np.minimum(np.minimum(i, i[::-1]), min(L, K))


def hankelize(M: np.ndarray) -> np.ndarray:
    """Average a matrix along its antidiagonals, producing a series of length L+K-1."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or min(M.shape) < 1:
        raise ValueError(f"expected a nonempty 2-D matrix, got shape {M.shape}")
    L, K = M.shape
    idx = np.add.outer(np.arange(L), np.arange(K)).ravel()
    sums = np.bincount(idx, weights=M.ravel(), minlength=L + K - 1)
    return sums / diagonal_counts(L, K)


def center(series) -> tuple[np.ndarray, float]:
    """Subtract the series mean; returns (centered series, mean)."""
    f = as_series(series)
    mean = float(f.mean())
    return f - mean, mean


# -- fast truncated decomposition -------------------------------------------
#
# The Monte-Carlo experiments decompose thousands of trajectory matrices where
# only the leading block is needed. Hankel structure makes X V and X^T U
# correlations of the series with each column, so for a large window a few
# passes of block subspace iteration, every product one batched FFT against a
# single transform of the series, replace the dense decomposition. When the
# smaller side is short (the narrow windows of the red-noise study), forming
# the small Gram matrix and calling `eigh` is cheaper than both the iteration
# and the SVD of the long side. When that side is also long, the same Hankel
# structure gives the Gram matrix from the series itself: one correlation for
# its first row and a one-step recurrence down each diagonal, O(m k) instead
# of the O(m^2 k) product. The iteration's own Ritz values tell how many
# passes it needs, so after its second pass it hands a slow series (low SNR,
# pure noise) to the Gram route rather than running on. Results must agree
# with `decompose` to within eigenvector conditioning; tests check that on
# random inputs. Diagonal averaging of the leading triples is their weighted
# sum of convolutions, formed with one transform for all of them.

_BLOCK_MIN_SIDE = 96
# Passes before the block iteration gives up and the Gram route takes over;
# the series of the test suite that stay on the block route converge in 4-17.
_BLOCK_MAX_PASSES = 50
# Every residual ||X v_i - sigma_i u_i|| must fall to this fraction of sigma_1.
_BLOCK_RESIDUAL = 1e-10
# After its second pass the iteration forecasts the passes it still needs
# from the ratio of its last and rank-th Ritz values, and hands over to the
# Gram route when they exceed min(L, K) / 16: in a sweep over m = 96-800,
# rank 1-8 and noise sigma 0.1-1 (2 vCPUs, OpenBLAS) the Gram route cost
# 5-10 passes at m = 100, 12-32 at m = 200 and 51-429 at m = 800, so m / 16
# is the low edge of that cost.
_BLOCK_BUDGET_DIVISOR = 16
# The Gram route squares the condition number: its eigenvectors are trusted
# only when the eigenvalue gap at the rank exceeds this fraction of the largest.
_GRAM_MIN_GAP = 1e-6
# The Gram matrix of an m x k window (m <= k) comes from the series only when
# k >= 8 m and m k >= 2**15; below either bound the dense product was faster
# in a sweep over m = 2-600 (2 vCPUs, OpenBLAS), and every shape with N <= 399
# keeps it.
_GRAM_SERIES_MIN_ASPECT = 8
_GRAM_SERIES_MIN_SIZE = 2**15
# OpenBLAS splits a dot product longer than 10000 over its own threads. Two
# pool workers doing that at once fight over the same cores: on 2 vCPUs a
# pooled Monte-Carlo call at L = 20, N = 25596 ran at half the one-thread rate
# and its time swung threefold from call to call. The lagged products of
# `_lagged_gram` are therefore summed in blocks of this length.
_DOT_BLOCK = 8192


@lru_cache(maxsize=64)
def _fast_len(n: int) -> int:
    """Smallest 5-smooth integer >= n, as scipy.fft.next_fast_len(n, real=True).

    Cached because the Monte-Carlo loop asks for the same few lengths on every
    replication, and the search in Python costs about 12 us a call.
    """
    best = 1 << (n - 1).bit_length()  # the power of two >= n
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # the least power-of-two multiple of p35 that reaches n
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


@lru_cache(maxsize=32)
def _start_block(L: int, b: int) -> np.ndarray:
    """Read-only orthonormal L x b start block of the block iteration.

    It comes from a fixed seed, so no replication's generator is touched and
    a shape always starts from the same block; it is built once per shape.
    """
    Q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((L, b)))
    Q.flags.writeable = False
    return Q


def _block_triples(f: np.ndarray, L: int, rank: int):
    """(sigmas, u, v) of the leading `rank` triples of embed(f, L) by block
    subspace iteration with Rayleigh-Ritz, or None when the second pass
    forecasts more passes than the Gram route costs or finds sigma_r at
    rounding level, or some residual is still above _BLOCK_RESIDUAL * sigma_1
    after _BLOCK_MAX_PASSES passes.

    (X B)_i = sum_j f_{i+j} B_j is a correlation; a circular one of length
    P >= N wraps no term of the rows kept, so one transform of f serves all.

    Each pass shrinks the residual by about (s_b / s_r)^2, s_b the last of
    the b = rank + 2 Ritz values, so log(_BLOCK_RESIDUAL) / (2 log(s_b / s_r))
    passes remain. That exceeds the budget m / _BLOCK_BUDGET_DIVISOR exactly
    when s_b >= s_r * _BLOCK_RESIDUAL ** (1 / (2 budget)), which also covers
    s_b = s_r. The forecast waits for the second pass: the first one's
    values come from the random start block, not from range(X). A rank-th
    value at most DEFAULT_SIGMA_CUTOFF of the first is rounding noise, which
    `decompose` would drop; the residual check divides by it and cannot pass.
    """
    n = f.size
    K = n - L + 1
    P = _fast_len(n)
    F = rfft(f, P)[:, None]

    def corr(B, rows):
        return irfft(F * np.conj(rfft(B, P, axis=0)), P, axis=0)[:rows]

    max_ratio = _BLOCK_RESIDUAL ** (_BLOCK_BUDGET_DIVISOR / (2.0 * min(L, K)))
    Q = _start_block(L, rank + 2)
    for p in range(_BLOCK_MAX_PASSES):
        Z = corr(Q, K)  # X^T Q
        W, s, Ht = np.linalg.svd(Z, full_matrices=False)  # Q^T X = H diag(s) W^T
        s_r = s[rank - 1]
        if p == 1 and (s[-1] >= max_ratio * s_r or s_r <= DEFAULT_SIGMA_CUTOFF * s[0]):
            return None
        Y = corr(Z, L)  # X Z, the next iterate
        H = Ht[:rank].T
        U = Q @ H
        if s_r > 0:
            res = np.linalg.norm(Y @ H / s[:rank] - U * s[:rank], axis=0)  # X W = X Z H / s
            if np.all(res <= _BLOCK_RESIDUAL * s[0]):
                return s[:rank], U, W[:, :rank]
        Q, _ = np.linalg.qr(Y)
    return None


def _lagged_gram(f: np.ndarray, m: int) -> np.ndarray:
    """A A^T for the m x k Hankel matrix A of f (k = N - m + 1), in O(m k).

    Row 0 holds the lagged products sum_t f_t f_{t+d}, summed over blocks of
    _DOT_BLOCK values of t. Down each lag d,
    G[i+1, i+1+d] = G[i, i+d] - f_i f_{i+d} + f_{i+k} f_{i+k+d}, so one
    cumsum of those increments gives S[i, d] = G[i, i+d], and reading S at
    (min(i, j), |i - j|) unskews it.
    """
    k = f.size - m + 1
    lag = np.arange(m)
    # increments at i + d > m - 2 are never read; clipping keeps them in range
    idx = np.minimum(lag[:m - 1, None] + lag, m - 2)
    S = np.empty((m, m))
    S[0] = 0.0
    for i in range(0, k, _DOT_BLOCK):
        j = min(i + _DOT_BLOCK, k)
        S[0] += np.correlate(f[i:j + m - 1], f[i:j], "valid")
    S[1:] = f[k:k + m - 1, None] * f[idx + k] - f[:m - 1, None] * f[idx]
    np.cumsum(S, axis=0, out=S)
    return S.ravel()[np.minimum.outer(lag, lag) * m + np.abs(lag[:, None] - lag)]


def _gram_from_series(m: int, k: int) -> bool:
    """Whether the Gram matrix of an m x k window (m <= k) comes from the series."""
    return k >= _GRAM_SERIES_MIN_ASPECT * m and m * k >= _GRAM_SERIES_MIN_SIZE


def _gram_triples(f: np.ndarray, m: int, A: np.ndarray | None, rank: int):
    """(sigmas, left, right) of the leading `rank` triples of A, the m x k
    Hankel matrix of f with m <= k, from the eigendecomposition of A A^T, or
    None when the Gram overflows or its eigenvalue gap after the rank-th is at
    most _GRAM_MIN_GAP of the largest.

    A long, narrow A has its Gram matrix formed from the series by
    `_lagged_gram`, any other by the dense product. The right vectors come
    from A; A may be None only when the Gram comes from the series, and right
    is then None too."""
    with np.errstate(over="ignore", invalid="ignore"):
        G = _lagged_gram(f, m) if _gram_from_series(m, f.size - m + 1) else A @ A.T
    if not np.all(np.isfinite(G)):  # |f| beyond about 1e154
        return None
    lam, Q = np.linalg.eigh(G)
    lam, Q = lam[::-1], Q[:, ::-1]
    lam_next = lam[rank] if rank < lam.size else 0.0
    if not lam[rank - 1] - lam_next > _GRAM_MIN_GAP * lam[0]:
        return None
    sig = np.sqrt(lam[:rank])
    W = Q[:, :rank]
    return sig, W, None if A is None else (W.T @ A).T / sig


def _right_vectors(f: np.ndarray, L: int, U: np.ndarray, sigmas: np.ndarray) -> np.ndarray:
    """X^T U / sigmas for X = embed(f, L): the right vectors of the left ones."""
    return (U.T @ embed(f, L)).T / sigmas


def leading_triples(series, L: int, rank: int) -> EigentripleSet:
    """Leading `rank` eigentriples of the basic decomposition of a series.

    Equivalent to decompose(embed(series, L)) truncated to `rank` terms. The
    route, recorded on the result, depends on the shape, with m = min(L, K):
    "block" (block subspace iteration with FFT Hankel products) when m >= 96
    and rank <= m // 4; otherwise "gram", the eigendecomposition of the m x m
    Gram matrix (formed from the series when the other side has k >= 8 m and
    m k >= 2**15), when its eigenvalue gap after the rank-th exceeds 1e-6 of
    the largest; else "svd", the dense SVD. A block iteration falls back to
    the Gram route, and so on to the SVD, when after its second pass it
    forecasts more than m / 16 further passes (about the Gram route's cost) or
    finds sigma_rank at rounding level, or when its residuals do not converge
    in 50 passes.

    Where the Gram matrix comes from the series and L <= K, u is found
    without the trajectory matrix, and v is computed from u and a copy of the
    series on its first read. Its bits do not depend on when that happens.
    """
    f = as_series(series)
    n = f.size
    check_window(n, L)
    K = n - L + 1
    rank = integer("rank", rank, minimum=1)
    m = min(L, K)
    if rank > m:
        raise ValueError(f"rank {rank} exceeds min(L, K) = {m}")

    route = "block"
    triples = _block_triples(f, L, rank) if m >= _BLOCK_MIN_SIDE and rank <= m // 4 else None
    if triples is None:
        wide = L > K  # work on the smaller Gram side, transpose back at the end
        # only a dense-product Gram, a wide window's u and the SVD read A
        A = None if not wide and _gram_from_series(L, K) else embed(f, L)
        if wide:
            A = A.T
        route = "gram"
        triples = _gram_triples(f, m, A, rank)
        if triples is None:
            route = "svd"
            U, s, Vt = np.linalg.svd(embed(f, L) if A is None else A, full_matrices=False)
            triples = s[:rank].copy(), U[:, :rank].copy(), Vt[:rank].T.copy()
        sig, W, other = triples
        triples = (sig, other, W) if wide else triples
    sig, U_out, V_out = triples
    U_out = np.ascontiguousarray(U_out)
    V_out = None if V_out is None else np.ascontiguousarray(V_out)
    _fix_signs(U_out, V_out)
    if V_out is None:
        V_out = partial(_right_vectors, f.copy(), L, U_out, sig)
    return EigentripleSet(
        sigmas=sig, u=U_out, v=V_out, method="basic", L=L, K=K, route=route
    )


def rank_reconstruction(t: EigentripleSet, indices=None) -> np.ndarray:
    """Diagonal-averaged series of the selected triples, by one transform.

    The antidiagonal sums of sum_i sigma_i u_i v_i^T are sum_i sigma_i
    (u_i * v_i), linear convolutions: one rfft of the selected u columns, one
    of the v columns, the sigma-weighted sum of their products over the
    triples and one irfft give them all.
    `indices` selects triples (1-based) as in `group_matrix`; default is all.
    """
    cols = slice(None) if indices is None else _check_indices(t, indices) - 1
    n = t.L + t.K - 1
    P = _fast_len(n)
    spectrum = rfft(t.u[:, cols], P, axis=0) * rfft(t.v[:, cols], P, axis=0)
    return irfft(spectrum @ t.sigmas[cols], P)[:n] / diagonal_counts(t.L, t.K)
