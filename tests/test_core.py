import pickle
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ssalab as sl
import ssalab.core as core
from ssalab.errors import IndexOutOfRange, WindowOutOfRange


def cosine(n_points, period=10.0, b=1.0):
    n = np.arange(n_points)
    return b**n * np.cos(2 * np.pi * n / period)


# -- embedding ----------------------------------------------------------------


def test_embed_rows_and_columns():
    X = sl.embed([1, 2, 3, 4, 5], 3)
    assert X.tolist() == [[1, 2, 3], [2, 3, 4], [3, 4, 5]]
    # column j is the window starting at j
    assert X[:, 1].tolist() == [2, 3, 4]


def test_embed_matches_scipy_hankel():
    # scipy stays a dependency, so its constructor is the oracle for the strided copy
    from scipy.linalg import hankel

    f = np.random.default_rng(0).standard_normal(101)
    for L in (2, 30, 51, 100):
        X = sl.embed(f, L)
        H = hankel(f[:L], f[L - 1:])
        assert X.shape == H.shape and X.flags.c_contiguous
        assert X.tobytes() == H.tobytes()


def test_fast_len_matches_scipy_next_fast_len():
    from scipy.fft import next_fast_len

    ns = range(1, 20001)
    assert [core._fast_len(n) for n in ns] == [next_fast_len(n, real=True) for n in ns]


def test_embed_rejects_degenerate_series():
    with pytest.raises(ValueError):
        sl.embed([7.0], 1)
    with pytest.raises(WindowOutOfRange):
        sl.embed([1.0, 2.0, 3.0], 3)
    with pytest.raises(WindowOutOfRange):
        sl.embed([1.0, 2.0, 3.0], 1)


def test_embed_constant_series():
    X = sl.embed([1, 1, 1, 1], 2)
    assert X.shape == (2, 3)
    assert np.all(X == 1.0)


def test_as_series_rejects_nan():
    with pytest.raises(ValueError):
        sl.as_series([1.0, np.nan, 2.0])


# -- decomposition ------------------------------------------------------------


def test_decompose_rank_one_constant():
    ets = sl.decompose(sl.embed([1, 1, 1, 1, 1], 2))
    assert ets.count == 1
    assert ets.sigmas[0] == pytest.approx(np.sqrt(8.0), abs=1e-12)
    np.testing.assert_allclose(ets.u[:, 0], [1 / np.sqrt(2)] * 2, atol=1e-12)
    np.testing.assert_allclose(ets.v[:, 0], [0.5] * 4, atol=1e-12)


def test_decompose_sinusoid_retains_exactly_two():
    ets = sl.decompose(sl.embed(cosine(100), 50))
    assert ets.count == 2


def test_decompose_reassembles_random_hankel():
    rng = np.random.default_rng(0)
    X = sl.embed(rng.standard_normal(8), 5)  # random 5x4 Hankel
    ets = sl.decompose(X)
    back = (ets.u * ets.sigmas) @ ets.v.T
    assert np.linalg.norm(back - X) <= 1e-10 * np.linalg.norm(X)


def test_decompose_sign_convention():
    rng = np.random.default_rng(1)
    ets = sl.decompose(sl.embed(rng.standard_normal(30), 7))
    for i in range(ets.count):
        j = np.argmax(np.abs(ets.u[:, i]))
        assert ets.u[j, i] > 0


def test_sigmas_nonincreasing():
    rng = np.random.default_rng(2)
    for method, ets in [
        ("basic", sl.decompose(sl.embed(rng.standard_normal(40), 12))),
        ("toeplitz", sl.decompose_toeplitz(rng.standard_normal(40), 12)),
    ]:
        assert np.all(np.diff(ets.sigmas) <= 1e-12), method


# -- Toeplitz variant ---------------------------------------------------------


def test_lag_covariance_matrix_small_example():
    C = sl.lag_covariance_matrix([1, 2, 3], 2)
    np.testing.assert_allclose(C, [[14 / 3, 4.0], [4.0, 14 / 3]], atol=1e-12)


def test_lag_covariance_matrix_matches_scipy_toeplitz():
    from scipy.linalg import toeplitz

    f = np.random.default_rng(1).standard_normal(200)
    for L in (2, 17, 100):
        C = sl.lag_covariance_matrix(f, L)
        assert C.tobytes() == toeplitz(C[0]).tobytes()


def test_toeplitz_constant_series():
    ets = sl.decompose_toeplitz(np.ones(20), 5)
    C = sl.lag_covariance_matrix(np.ones(20), 5)
    np.testing.assert_allclose(C, np.ones((5, 5)), atol=1e-12)
    np.testing.assert_allclose(np.abs(ets.u[:, 0]), np.full(5, 1 / np.sqrt(5)), atol=1e-10)


def test_toeplitz_eigenvectors_orthonormal():
    rng = np.random.default_rng(3)
    ets = sl.decompose_toeplitz(rng.standard_normal(60), 15)
    gram = ets.u.T @ ets.u
    assert np.max(np.abs(gram - np.eye(ets.count))) <= 1e-10


def test_toeplitz_loses_nonstationary_structure():
    # growing exponential: rank 1 for the basic SVD, many sigmas for Toeplitz
    spec = sl.SignalSpec("exp_trend", n=399, b=1.005)
    f = sl.signal_values(spec)
    basic = sl.decompose(sl.embed(f, 200))
    toep = sl.decompose_toeplitz(f, 200)
    assert np.sum(basic.sigmas > 1e-6 * basic.sigmas[0]) == 1
    assert np.sum(toep.sigmas > 1e-6 * toep.sigmas[0]) > 1


# -- grouping and diagonal averaging -------------------------------------------


def test_group_matrix_full_and_empty():
    rng = np.random.default_rng(4)
    X = sl.embed(rng.standard_normal(12), 4)
    ets = sl.decompose(X)
    full = sl.group_matrix(ets, range(1, ets.count + 1))
    assert np.linalg.norm(full - X) <= 1e-10 * np.linalg.norm(X)
    assert np.all(sl.group_matrix(ets, []) == 0.0)


def test_group_matrix_rank_two_sinusoid():
    X = sl.embed(cosine(60), 20)
    ets = sl.decompose(X)
    pair = sl.group_matrix(ets, [1, 2])
    assert np.linalg.norm(pair - X) <= 1e-10 * np.linalg.norm(X)


def test_group_matrix_rejects_bad_index():
    ets = sl.decompose(sl.embed(cosine(30), 10))
    with pytest.raises(IndexOutOfRange):
        sl.group_matrix(ets, [0])
    with pytest.raises(IndexOutOfRange):
        sl.group_matrix(ets, [ets.count + 1])


@pytest.mark.parametrize("bad", [1.7, 2.0, True, np.float64(1.0)])
def test_triple_indices_must_be_integers(bad):
    # truncating would silently select triple 1 for 1.7
    t = sl.leading_triples(cosine(60), 20, 3)
    with pytest.raises(ValueError, match="eigentriple index must be an integer"):
        sl.group_matrix(t, [bad])
    with pytest.raises(ValueError, match="eigentriple index must be an integer"):
        sl.rank_reconstruction(t, [1, bad])
    np.testing.assert_array_equal(
        sl.rank_reconstruction(t, [np.int64(1)]), sl.rank_reconstruction(t, [1])
    )


@pytest.mark.parametrize("bad", [2.9, 2.0, True, np.float64(2.0)])
def test_leading_triples_rank_must_be_an_integer(bad):
    with pytest.raises(ValueError, match="rank must be an integer"):
        sl.leading_triples(cosine(60), 20, bad)
    assert sl.leading_triples(cosine(60), 20, np.int64(2)).count == 2


@pytest.mark.parametrize(
    "call",
    [sl.embed, lambda f, L: sl.leading_triples(f, L, 2), sl.decompose_toeplitz],
    ids=["embed", "leading_triples", "decompose_toeplitz"],
)
@pytest.mark.parametrize("bad", [20.5, 20.0, True, np.float64(20.0)])
def test_window_must_be_an_integer(call, bad):
    # a float window used to reach numpy as a shape or a slice bound
    with pytest.raises(WindowOutOfRange, match="window length must be an integer"):
        call(cosine(60), bad)
    assert call(cosine(60), np.int64(20)) is not None


def test_hankelize_examples():
    np.testing.assert_allclose(sl.hankelize(np.array([[1.0, 2.0], [3.0, 4.0]])), [1, 2.5, 4])
    np.testing.assert_allclose(sl.hankelize(np.zeros((2, 2))), [0, 0, 0])


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=3, max_size=40),
    st.data(),
)
def test_hankel_round_trip(values, data):
    f = np.asarray(values)
    L = data.draw(st.integers(2, len(values) - 1))
    np.testing.assert_allclose(sl.hankelize(sl.embed(f, L)), f, atol=1e-9, rtol=1e-12)


# -- reconstruction -----------------------------------------------------------


def test_reconstruct_exponential_rank_one():
    f = 2.0 ** np.arange(20)
    rec = sl.rank_reconstruction(sl.decompose(sl.embed(f, 10)), [1])
    assert np.max(np.abs(rec - f)) <= 1e-8 * np.max(np.abs(f))


def test_reconstruct_cosine_plus_constant_exact_separability():
    # residual constant, both L and K divisible by the period 10
    f = cosine(49) + 0.1
    rec = sl.rank_reconstruction(sl.decompose(sl.embed(f, 20)), [1, 2])  # K = 30
    assert np.max(np.abs(rec - cosine(49))) <= 1e-8


def test_window_symmetry():
    rng = np.random.default_rng(5)
    f = cosine(80) + 0.1 * rng.standard_normal(80)
    a = sl.rank_reconstruction(sl.decompose(sl.embed(f, 25)), [1, 2])
    b = sl.rank_reconstruction(sl.decompose(sl.embed(f, 80 - 25 + 1)), [1, 2])
    np.testing.assert_allclose(a, b, atol=1e-10)


def test_rank_exactness_catalog():
    cases = [
        (sl.SignalSpec("exp_trend", n=60, b=1.005), 1),
        (sl.SignalSpec("const_saw", n=60), 1),
        (sl.SignalSpec("damped_cos_wn", n=100, b=0.99, sigma=0.0), 2),
        (sl.SignalSpec("damped_cos_wn", n=100, b=1.0, sigma=0.0), 2),
        (sl.SignalSpec("damped_cos_const", n=100, b=0.99), 2),
        (sl.SignalSpec("two_cos", n=100, sigma=0.0), 4),
    ]
    for spec, rank in cases:
        ets = sl.decompose(sl.embed(sl.signal_values(spec), 40))
        assert ets.count == rank, spec.kind
        assert ets.count == sl.exact_rank(spec), spec.kind


# -- centering and SNR ----------------------------------------------------------


def test_center_examples():
    out, mean = sl.center([1, 2, 3])
    assert mean == 2.0
    np.testing.assert_allclose(out, [-1, 0, 1])
    z, mz = sl.center(np.zeros(5))
    assert mz == 0.0 and np.all(z == 0.0)


def test_center_whole_period_sinusoid():
    f = cosine(100)
    out, mean = sl.center(f)
    assert abs(mean) <= 1e-12 * np.max(np.abs(f))
    np.testing.assert_allclose(out, f, atol=1e-12)


# -- fast truncated path --------------------------------------------------------


def test_leading_triples_matches_decompose():
    rng = np.random.default_rng(6)
    for n_points, L, r in [(300, 140, 2), (300, 40, 3), (120, 90, 2), (64, 20, 4)]:
        f = cosine(n_points) + 0.1 * rng.standard_normal(n_points)
        t = sl.leading_triples(f, L, r)
        ets = sl.decompose(sl.embed(f, L))
        assert np.max(np.abs(t.sigmas - ets.sigmas[:r])) <= 1e-9 * ets.sigmas[0]
        assert sl.subspace_distance(t.u, ets.u[:, :r]) <= 1e-8


def test_numpy_integer_window_gives_int_shape_and_the_same_bits():
    f = cosine(200) + 0.1 * np.random.default_rng(8).standard_normal(200)
    t = sl.leading_triples(f, np.int64(40), 2)
    assert type(t.L) is int and type(t.K) is int
    ref = sl.leading_triples(f, 40, 2)
    assert sl.rank_reconstruction(t).tobytes() == sl.rank_reconstruction(ref).tobytes()


def test_rank_reconstruction_matches_pipeline():
    rng = np.random.default_rng(7)
    f = cosine(200) + 0.1 * rng.standard_normal(200)
    t = sl.leading_triples(f, 90, 2)
    fast = sl.rank_reconstruction(t)
    ref = sl.hankelize(sl.group_matrix(sl.decompose(sl.embed(f, 90)), [1, 2]))
    np.testing.assert_allclose(fast, ref, atol=1e-10)


def test_reconstruct_matches_dense_grouping_for_both_methods():
    rng = np.random.default_rng(16)
    f = cosine(150) + 0.2 * rng.standard_normal(150)
    for method, ets in (("basic", sl.decompose(sl.embed(f, 40))),
                        ("toeplitz", sl.decompose_toeplitz(f, 40))):
        ref = sl.hankelize(sl.group_matrix(ets, [1, 2, 4]))
        got = sl.rank_reconstruction(ets, [4, 1, 2])
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(f)), method
        np.testing.assert_array_equal(sl.rank_reconstruction(ets, []), np.zeros(150))


def test_rank_reconstruction_dedupes_indices_like_group_matrix():
    rng = np.random.default_rng(8)
    f = cosine(120) + 0.1 * rng.standard_normal(120)
    t = sl.leading_triples(f, 50, 3)
    dense = sl.hankelize(sl.group_matrix(t, [1, 1]))
    np.testing.assert_allclose(sl.rank_reconstruction(t, [1, 1]), dense, atol=1e-12)
    np.testing.assert_array_equal(
        sl.rank_reconstruction(t, [2, 1, 2]), sl.rank_reconstruction(t, [1, 2])
    )
    for bad in ([0], [4]):
        with pytest.raises(IndexOutOfRange):
            sl.rank_reconstruction(t, bad)
    np.testing.assert_array_equal(sl.rank_reconstruction(t, []), np.zeros(120))


def test_rank_reconstruction_wide_window_four_triples():
    # one transform for all triples against the dense antidiagonal average
    f = cosine(399, period=19.0) + cosine(399, period=21.0)
    f = f + 0.3 * np.random.default_rng(15).standard_normal(399)
    t = sl.leading_triples(f, 300, 4)
    dense = sl.hankelize(sl.group_matrix(t, range(1, 5)))
    assert np.max(np.abs(sl.rank_reconstruction(t) - dense)) <= 1e-12 * np.max(np.abs(f))
    two = sl.hankelize(sl.group_matrix(t, [2, 4]))
    assert np.max(np.abs(sl.rank_reconstruction(t, [4, 2]) - two)) <= 1e-12 * np.max(np.abs(f))


def test_diagonal_counts_examples():
    np.testing.assert_array_equal(sl.diagonal_counts(2, 4), [1, 2, 2, 2, 1])
    np.testing.assert_array_equal(sl.diagonal_counts(3, 1), [1, 1, 1])
    rng = np.random.default_rng(16)
    for L, K in rng.integers(1, 300, size=(20, 2)):
        np.testing.assert_array_equal(
            sl.diagonal_counts(L, K), np.convolve(np.ones(L), np.ones(K))
        )


@st.composite
def fast_route_case(draw, shape):
    """(series, L, r): a noisy rank-r signal and a window of the given shape.

    Shapes: L = 2, L = N - 1, tall (L <= K), wide (L > K), the block-route
    threshold min(L, K) = 96 with rank = 96 // 4, the largest rank that
    still takes the block subspace iteration, narrow: min(L, K) from 2 to 30
    at N up to 26000, the window of the red-noise convergence study or its
    wide mirror (the long ones form the Gram matrix from the series),
    proportional: L = (N + 1) // 2 at N from 399 to 1600, the window of the
    white-noise convergence study, and low_snr: min(L, K) from 96 to 300,
    rank 2-6 and noise loud enough that s_{r+2} / s_r > 0.3, where the block
    iteration hands over to the Gram route after two passes.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sigma = 0.1
    if shape == "threshold":
        n_points = draw(st.integers(191, 400))
        L = draw(st.sampled_from([96, n_points - 95]))
        freqs = (np.arange(12) + 0.5) / 26.0
    elif shape == "low_snr":
        m = draw(st.integers(96, 300))
        n_points = draw(st.integers(2 * m - 1, 4 * m))
        L = draw(st.sampled_from([m, n_points - m + 1]))
        freqs = draw(st.floats(0.03, 0.08)) + 0.14 * np.arange(draw(st.integers(1, 3)))
        # the largest noise singular value, about sigma (sqrt(L) + sqrt(K)),
        # against sqrt(L K) / 2 for a unit cosine
        K = n_points - L + 1
        sigma = draw(st.floats(0.8, 1.5)) * np.sqrt(L * K) / (2 * (np.sqrt(L) + np.sqrt(K)))
    else:
        sizes = {"narrow": (200, 26000), "proportional": (399, 1600)}.get(shape, (10, 400))
        n_points = draw(st.integers(*sizes))
        r = 2 if shape in ("L=2", "L=N-1") else draw(st.sampled_from([2, 4]))
        if shape == "L=2":
            L = 2
        elif shape == "L=N-1":
            L = n_points - 1
        elif shape == "tall":
            L = draw(st.integers(r, (n_points + 1) // 2))
        elif shape == "narrow":
            m = draw(st.integers(r, 30))
            L = draw(st.sampled_from([m, n_points - m + 1]))
        elif shape == "proportional":
            L = (n_points + 1) // 2
        else:
            L = draw(st.integers((n_points + 1) // 2 + 1, n_points - r + 1))
        w1 = draw(st.floats(0.05, 0.2))
        freqs = [w1] if r == 2 else [w1, w1 + draw(st.floats(0.1, 0.25))]
    n = np.arange(n_points)
    b = draw(st.floats(0.995, 1.0))
    f = sum(
        rng.uniform(1.0, 2.0) * b**n * np.cos(2 * np.pi * w * n + rng.uniform(0, 2 * np.pi))
        for w in freqs
    )
    return f + sigma * rng.standard_normal(n_points), L, 2 * len(freqs)


def _residual_norm(A, B):
    """||(I - B B^T) A||_2: how far span(A) leaves span(B)."""
    return float(np.linalg.norm(A - B @ (B.T @ A), 2))


@pytest.mark.parametrize(
    "shape", ["L=2", "L=N-1", "tall", "wide", "threshold", "narrow", "proportional", "low_snr"]
)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_leading_triples_property_matches_dense(shape, data):
    # leading triples only: on noise-free input the trailing singular vectors
    # for sigma ~ 1e-12 are rounding noise and would not match
    f, L, r = data.draw(fast_route_case(shape))
    t = sl.leading_triples(f, L, r)
    ets = sl.decompose(sl.embed(f, L))
    if shape == "low_snr":
        assert ets.sigmas[r + 1] / ets.sigmas[r - 1] > 0.3
    assert (t.method, t.L, t.K, t.count) == ("basic", L, f.size - L + 1, r)
    assert np.max(np.abs(t.sigmas - ets.sigmas[:r])) <= 1e-9 * ets.sigmas[0]
    assert _residual_norm(t.u, ets.u[:, :r]) <= 1e-7
    assert _residual_norm(t.v, ets.v[:, :r]) <= 1e-7
    dense = sl.hankelize(sl.group_matrix(ets, range(1, r + 1)))
    assert np.max(np.abs(sl.rank_reconstruction(t) - dense)) <= 1e-9


def test_leading_triples_routes():
    rng = np.random.default_rng(9)
    for (n_points, L, r), route in [((6399, 20, 2), "gram"), ((1596, 798, 2), "block")]:
        f = cosine(n_points) + 0.1 * rng.standard_normal(n_points)
        assert sl.leading_triples(f, L, r).route == route
    # the two-cosine window table at sigma = 1: at L = 100 the block iteration
    # forecasts more passes than the Gram route costs and hands over; at
    # L = 200 it converges in 10-14 passes
    spec = sl.SignalSpec("two_cos", n=399, sigma=1.0)
    for seed in range(5):
        f = sum(sl.gen_series(spec, np.random.default_rng(seed)))
        assert sl.leading_triples(f, 100, 4).route == "gram"
        assert sl.leading_triples(f, 200, 4).route == "block"
    # results of decompose and of an exported decomposition keep the default
    assert sl.decompose(sl.embed(cosine(50), 20)).route == "svd"


def test_leading_triples_gap_guard_falls_back_to_svd():
    # a noise-free cosine has rank 2: asked for 3 triples, the Gram matrix has
    # no gap after the third eigenvalue, so the route must be the dense SVD
    f = cosine(200)
    t = sl.leading_triples(f, 20, 3)
    ets = sl.decompose(sl.embed(f, 20))
    assert (t.route, t.count, ets.count) == ("svd", 3, 2)
    assert np.max(np.abs(t.sigmas[:2] - ets.sigmas)) <= 1e-9 * ets.sigmas[0]
    assert _residual_norm(t.u[:, :2], ets.u) <= 1e-7
    assert _residual_norm(t.v[:, :2], ets.v) <= 1e-7
    # entries beyond about 1e154 overflow the Gram matrix, whether formed by
    # the dense product or from the series; the SVD scales
    for n_points in (200, 25596):
        f = cosine(n_points)
        big = sl.leading_triples(1e160 * f, 20, 2)
        assert big.route == "svd"
        np.testing.assert_allclose(
            big.sigmas, 1e160 * sl.decompose(sl.embed(f, 20)).sigmas[:2], rtol=1e-12
        )


def _noisy_cosine(n_points, seed):
    return cosine(n_points) + 0.1 * np.random.default_rng(seed).standard_normal(n_points)


def test_lagged_gram_matches_dense_product():
    # random tall and wide windows from m = 2, on both sides of the rule that
    # picks the series form in _gram_triples
    rng = np.random.default_rng(12)
    picked = set()
    for _ in range(200):
        n_points = int(rng.integers(4, 1500))
        L = int(rng.integers(2, n_points))
        f = rng.standard_normal(n_points)
        A = sl.embed(f, L)
        if L > A.shape[1]:  # wide window: the Gram side is the transpose
            A = A.T
        m, k = A.shape
        picked.add(k >= core._GRAM_SERIES_MIN_ASPECT * m and m * k >= core._GRAM_SERIES_MIN_SIZE)
        G = A @ A.T
        assert np.max(np.abs(core._lagged_gram(f, m) - G)) <= 1e-14 * np.max(np.abs(G))
    assert picked == {True, False}


def test_lagged_gram_sums_long_series_in_blocks(monkeypatch):
    # a dot product past OpenBLAS's threading length rounds by the BLAS thread count
    lengths = []
    correlate = np.correlate
    monkeypatch.setattr(np, "correlate", lambda a, v, mode: lengths.append(v.size) or correlate(a, v, mode))
    rng = np.random.default_rng(14)
    for k in (core._DOT_BLOCK, core._DOT_BLOCK + 1, 3 * core._DOT_BLOCK + 17):
        for m in (2, 20):
            f = rng.standard_normal(k + m - 1)
            G = sl.embed(f, m) @ sl.embed(f, m).T
            assert np.max(np.abs(core._lagged_gram(f, m) - G)) <= 1e-14 * np.max(np.abs(G))
    assert max(lengths) == core._DOT_BLOCK


def test_gram_route_forms_long_narrow_gram_from_series(monkeypatch):
    calls = []
    lagged = core._lagged_gram
    monkeypatch.setattr(core, "_lagged_gram", lambda f, m: calls.append(m) or lagged(f, m))
    # one block pass cannot converge, so 1596/798 reaches the Gram route
    monkeypatch.setattr(core, "_BLOCK_MAX_PASSES", 1)
    for (n_points, L), from_series in [
        ((6399, 20), True), ((25596, 20), True), ((6399, 6380), True),
        ((1596, 798), False), ((100, 50), False),
    ]:
        calls.clear()
        assert sl.leading_triples(_noisy_cosine(n_points, 13), L, 2).route == "gram"
        assert calls == ([20] if from_series else [])


def _count_embed_calls(monkeypatch):
    """Record the window of every core.embed call, made by core or by the caller."""
    calls = []
    embed = core.embed
    monkeypatch.setattr(core, "embed", lambda f, L: calls.append(L) or embed(f, L))
    return calls


def test_series_gram_route_computes_v_on_first_read(monkeypatch):
    # u comes from the series-formed Gram, so the trajectory matrix is built
    # only when v is read, once, from a copy of the series the call took
    calls = _count_embed_calls(monkeypatch)
    for n_points in (6399, 25596):
        f = _noisy_cosine(n_points, 17)
        kept = f.copy()
        calls.clear()
        t = sl.leading_triples(f, 20, 2)
        assert (t.route, calls) == ("gram", [])
        f[:] = 0.0  # the caller reuses its array
        v = t.v
        assert calls == [20]
        assert t.v is v and calls == [20]
        X = sl.embed(kept, 20)
        assert v.tobytes() == ((t.u.T @ X).T / t.sigmas).tobytes()
        assert pickle.loads(pickle.dumps(t)).v.tobytes() == v.tobytes()
        ets = sl.decompose(X)
        assert np.max(np.abs(t.sigmas - ets.sigmas[:2])) <= 1e-9 * ets.sigmas[0]
        assert _residual_norm(t.u, ets.u[:, :2]) <= 1e-7
        assert _residual_norm(v, ets.v[:, :2]) <= 1e-7
        dense = sl.hankelize(sl.group_matrix(ets, [1, 2]))
        assert np.max(np.abs(sl.rank_reconstruction(t) - dense)) <= 1e-9


def test_series_gram_route_copies_a_read_only_view():
    # a read-only flag does not freeze the memory under it: a window of a
    # buffer the caller refills after the call still gives the v of the call
    buf = _noisy_cosine(2 * 6399, 19)
    view = np.lib.stride_tricks.sliding_window_view(buf, 6399)[0]
    assert not view.flags.writeable
    t = sl.leading_triples(view, 20, 2)
    expected = ((t.u.T @ sl.embed(view.copy(), 20)).T / t.sigmas).tobytes()
    assert t.route == "gram" and not np.shares_memory(vars(t)["v"].args[0], buf)
    buf[:] = 0.0
    assert t.v.tobytes() == expected


def test_first_read_of_v_from_many_threads():
    # the first read takes no lock: threads that race on it each compute the
    # same bits, and whichever array is kept is one of them
    t = sl.leading_triples(_noisy_cosine(6399, 18), 20, 2)
    start = threading.Barrier(6)
    reads = []

    def read():
        start.wait(timeout=10)
        reads.append(t.v)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=read) for _ in range(6)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=10)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers) and len(reads) == 6
    assert {v.tobytes() for v in reads} == {t.v.tobytes()}
    assert any(t.v is v for v in reads)


def test_other_routes_build_v_eagerly(monkeypatch):
    calls = _count_embed_calls(monkeypatch)
    cases = [(_noisy_cosine(6399, 13), 6380, "gram"),  # wide: u itself needs A
             (1e160 * cosine(25596), 20, "svd"),  # the Gram overflows
             (_noisy_cosine(1596, 13), 798, "block")]
    for f, L, route in cases:
        t = sl.leading_triples(f, L, 2)
        assert t.route == route and isinstance(vars(t)["v"], np.ndarray)
    # one block pass cannot converge, so 1596/798 reaches the dense-product Gram
    monkeypatch.setattr(core, "_BLOCK_MAX_PASSES", 1)
    for n_points, L in [(1596, 798), (100, 50)]:
        calls.clear()
        t = sl.leading_triples(_noisy_cosine(n_points, 13), L, 2)
        assert (t.route, calls) == ("gram", [L])
        assert isinstance(vars(t)["v"], np.ndarray)


def test_block_route_falls_back_to_gram(monkeypatch):
    # one pass from the fixed start block cannot meet the residual check, so
    # the Gram route must take over and still match the dense SVD
    monkeypatch.setattr(core, "_BLOCK_MAX_PASSES", 1)
    f = _noisy_cosine(1596, 10)
    t = sl.leading_triples(f, 798, 2)
    ets = sl.decompose(sl.embed(f, 798))
    assert t.route == "gram"
    assert np.max(np.abs(t.sigmas - ets.sigmas[:2])) <= 1e-9 * ets.sigmas[0]
    assert _residual_norm(t.u, ets.u[:, :2]) <= 1e-7
    assert _residual_norm(t.v, ets.v[:, :2]) <= 1e-7


def test_block_route_hands_over_after_two_passes(monkeypatch):
    # pure noise has nearly equal singular values at the rank, so the forecast
    # runs past the budget; a constant series asked for two triples has its
    # second at rounding level. Either ends the iteration at the second pass,
    # after its third correlation, instead of running to the 50-pass cap.
    calls = []
    irfft = core.irfft
    monkeypatch.setattr(core, "irfft", lambda *a, **k: calls.append(1) or irfft(*a, **k))
    noise = np.random.default_rng(14).standard_normal(1596)
    for f, L, route in [(noise, 798, "gram"), (np.ones(400), 200, "svd")]:
        calls.clear()
        assert sl.leading_triples(f, L, 2).route == route
        assert len(calls) <= 3


def test_block_start_block_is_cached_and_read_only():
    Q = core._start_block(200, 4)
    assert core._start_block(200, 4) is Q
    assert not Q.flags.writeable
    np.testing.assert_allclose(Q.T @ Q, np.eye(4), atol=1e-14)


def test_block_route_is_deterministic():
    f = _noisy_cosine(1596, 11)
    a, b = sl.leading_triples(f, 798, 2), sl.leading_triples(f, 798, 2)
    assert a.route == b.route == "block"
    for name in ("sigmas", "u", "v"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
