import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ssalab as sl
from ssalab.errors import DimensionMismatch, RankTooLarge
from ssalab.subspace import basis_matrix

PROJECTOR_MATERIALIZE_LIMIT = 4096


def subspace_distance_sigma_min(A, B) -> float:
    """The sqrt(1 - sigma_min^2) form of the same distance.

    Kept as an independent route for cross-checks; near-coincident subspaces
    bottom out around sqrt(eps) here, so prefer `subspace_distance`.
    """
    MA, MB = basis_matrix(A), basis_matrix(B)
    if MA.shape != MB.shape:
        raise DimensionMismatch(f"bases have different shapes: {MA.shape} vs {MB.shape}")
    s = np.linalg.svd(MA.T @ MB, compute_uv=False)
    smin = min(s[-1], 1.0)
    return float(np.sqrt(max(0.0, 1.0 - smin * smin)))


def projector_distance(A, B) -> float:
    """Distance via the explicit projector difference (dense oracle route).

    Only available for L <= PROJECTOR_MATERIALIZE_LIMIT; above that use
    `subspace_distance`, which evaluates the complement form ||(I - A A^T) B||_2
    without forming an L x L matrix.
    """
    MA, MB = basis_matrix(A), basis_matrix(B)
    if MA.shape != MB.shape:
        raise DimensionMismatch(f"bases have different shapes: {MA.shape} vs {MB.shape}")
    L = MA.shape[0]
    if L > PROJECTOR_MATERIALIZE_LIMIT:
        raise ValueError(
            f"refusing to materialize an {L} x {L} projector "
            f"(limit {PROJECTOR_MATERIALIZE_LIMIT}); use subspace_distance"
        )
    D = MA @ MA.T - MB @ MB.T
    eigs = np.linalg.eigvalsh(D)
    return float(np.max(np.abs(eigs)))


def random_basis(rng, L, r):
    return np.linalg.qr(rng.standard_normal((L, r)))[0]


def test_signal_basis_constant():
    ets = sl.decompose(sl.embed(np.ones(10), 2))
    B = sl.signal_basis(ets, 1)
    np.testing.assert_allclose(B[:, 0], [1 / np.sqrt(2)] * 2, atol=1e-12)


def test_signal_basis_matches_exact_trajectory_space():
    n = np.arange(100)
    f = np.cos(2 * np.pi * n / 10)
    ets = sl.decompose(sl.embed(f, 40))
    B = sl.signal_basis(ets, 2)
    exact = sl.exact_basis(sl.SignalSpec("damped_cos_wn", n=100, sigma=0.0), 40)
    assert sl.subspace_distance(B, exact) <= 1e-8


def test_signal_basis_rank_out_of_range():
    ets = sl.decompose(sl.embed(np.cos(2 * np.pi * np.arange(50) / 10), 20))
    with pytest.raises(RankTooLarge):
        sl.signal_basis(ets, ets.count + 1)
    with pytest.raises(RankTooLarge):
        sl.signal_basis(ets, 0)  # empty basis rejected


def triples_with_u(u):
    """Hand-built triples, as read from a file: nothing checks their u."""
    d = u.shape[1]
    return sl.EigentripleSet(np.arange(d, 0, -1.0), u, np.eye(4, d), "basic", u.shape[0], 4)


def test_basis_requires_orthonormal_columns():
    with pytest.raises(ValueError, match="orthonormal"):
        sl.signal_basis(triples_with_u(np.array([[1.0, 1.0], [0.0, 1.0], [0.0, 0.0]])), 2)
    with pytest.raises(ValueError, match="1 <= r < L"):
        sl.signal_basis(triples_with_u(np.eye(3)), 3)  # r == L not allowed


@pytest.mark.parametrize(
    "call",
    [
        lambda B: sl.signal_basis(triples_with_u(B), 2),
        sl.esprit_ls,
        sl.esprit_tls,
        sl.min_norm_lrf,
        sl.pseudospectrum_minnorm,
        sl.noise_complement,
        lambda B: sl.subspace_distance(np.eye(8, 2), B),
    ],
    ids=[
        "signal_basis", "esprit_ls", "esprit_tls", "min_norm_lrf",
        "pseudospectrum_minnorm", "noise_complement", "subspace_distance",
    ],
)
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_basis_rejected(call, bad):
    B = np.linalg.qr(np.random.default_rng(9).standard_normal((8, 2)))[0]
    B[0, 0] = bad
    with pytest.raises(ValueError, match="NaN or infinite"):
        call(B)


def test_distance_identical_and_45_degrees():
    A = np.array([[1.0], [0.0]])
    B = np.array([[1.0], [1.0]]) / np.sqrt(2)
    assert sl.subspace_distance(A, A) == 0.0
    assert sl.subspace_distance(A, B) == pytest.approx(np.sin(np.pi / 4), abs=1e-10)


def test_distance_against_dense_oracle_1d():
    rng = np.random.default_rng(1)
    for _ in range(20):
        A = random_basis(rng, 3, 1)
        B = random_basis(rng, 3, 1)
        assert sl.subspace_distance(A, B) == pytest.approx(
            projector_distance(A, B), abs=1e-10
        )


def test_distance_routes_agree():
    rng = np.random.default_rng(2)
    for L, r in [(10, 2), (30, 5), (50, 1)]:
        A = random_basis(rng, L, r)
        B = random_basis(rng, L, r)
        d = sl.subspace_distance(A, B)
        assert abs(d - projector_distance(A, B)) <= 1e-8
        assert abs(d - subspace_distance_sigma_min(A, B)) <= 1e-8
        assert 0.0 <= d <= 1.0
        assert sl.subspace_distance(B, A) == pytest.approx(d, abs=1e-10)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_distance_rotation_invariance(seed):
    rng = np.random.default_rng(seed)
    A = random_basis(rng, 14, 3)
    B = random_basis(rng, 14, 3)
    Q = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    assert sl.subspace_distance(A @ Q, B) == pytest.approx(
        sl.subspace_distance(A, B), abs=1e-10
    )


def test_distance_dimension_mismatch():
    rng = np.random.default_rng(3)
    with pytest.raises(DimensionMismatch):
        sl.subspace_distance(random_basis(rng, 10, 2), random_basis(rng, 10, 3))


def test_noise_complement():
    rng = np.random.default_rng(4)
    B = random_basis(rng, 20, 3)
    C = sl.noise_complement(B)
    assert C.shape == (20, 17)
    assert np.max(np.abs(C.T @ C - np.eye(17))) <= 1e-10
    assert np.max(np.abs(B.T @ C)) <= 1e-10


def test_noise_complement_matches_scipy_null_space():
    from scipy.linalg import null_space

    rng = np.random.default_rng(6)
    for L, r in [(3, 1), (20, 3), (200, 4)]:
        B = random_basis(rng, L, r)
        np.testing.assert_allclose(sl.noise_complement(B), null_space(B.T), rtol=0, atol=1e-12)


def test_noise_complement_rank_deficient():
    rng = np.random.default_rng(7)
    B = random_basis(rng, 20, 3)
    B[:, 2] = B[:, 0]
    with pytest.raises(RankTooLarge):
        sl.noise_complement(B)
    B[:, 1:] = 0.0
    with pytest.raises(RankTooLarge):
        sl.noise_complement(B)


def test_projector_materialization_limit():
    rng = np.random.default_rng(5)
    A = random_basis(rng, 4097, 1)
    with pytest.raises(ValueError):
        projector_distance(A, A)


@pytest.mark.parametrize("bad", [2.5, 2.0, True, np.float64(2.0)])
def test_signal_basis_rank_must_be_an_integer(bad):
    # a float rank used to reach numpy as a slice bound
    n = np.arange(100)
    ets = sl.decompose(sl.embed(np.cos(2 * np.pi * n / 10), 20))
    with pytest.raises(ValueError, match="rank r must be an integer"):
        sl.signal_basis(ets, bad)
    assert sl.signal_basis(ets, np.int64(2)).shape == (20, 2)
