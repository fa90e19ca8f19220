import numpy as np
import pytest

import ssalab as sl
from ssalab.errors import (
    EmptyNoiseBasis,
    FewerPeaksThanRequested,
    NonpositiveEigenvalue,
    RankDeficientShift,
    TooFewRoots,
    VerticalSubspace,
    ZeroPole,
)


def cos_basis(n_points=100, L=20, b=1.0, sigma=0.0, seed=0):
    n = np.arange(n_points)
    f = b**n * np.cos(2 * np.pi * n / 10)
    if sigma:
        f = f + sigma * np.random.default_rng(seed).standard_normal(n_points)
    ets = sl.decompose(sl.embed(f, L))
    return sl.signal_basis(ets, 2)


TRUE_POLE = np.exp(2j * np.pi / 10)


def pole_error(poles, truth):
    return max(min(abs(z - t) for z in poles) for t in truth)


# -- ESPRIT ---------------------------------------------------------------------


def test_esprit_ls_exponential():
    f = 2.0 ** np.arange(12)
    B = sl.signal_basis(sl.decompose(sl.embed(f, 6)), 1)
    poles = sl.esprit_ls(B)
    assert poles.shape == (1,)
    assert poles[0] == pytest.approx(2.0, abs=1e-10)


def test_esprit_ls_cosine():
    poles = sl.esprit_ls(cos_basis())
    assert pole_error(poles, [TRUE_POLE, TRUE_POLE.conjugate()]) <= 1e-8


def test_esprit_ls_similarity_invariance():
    B = cos_basis(sigma=0.1)
    ref = np.sort_complex(sl.esprit_ls(B))
    rng = np.random.default_rng(1)
    for _ in range(10):
        P = rng.standard_normal((2, 2))
        while abs(np.linalg.det(P)) < 0.1:
            P = rng.standard_normal((2, 2))
        got = np.sort_complex(sl.esprit_ls(B @ P))
        np.testing.assert_allclose(got, ref, atol=1e-8)


def test_esprit_tls_matches_ls_noise_free():
    B = cos_basis()
    ls = np.sort_complex(sl.esprit_ls(B))
    tls = np.sort_complex(sl.esprit_tls(B))
    np.testing.assert_allclose(ls, tls, atol=1e-8)


def test_esprit_tls_orthogonal_invariance():
    B = cos_basis(sigma=0.1)
    ref = np.sort_complex(sl.esprit_tls(B))
    rng = np.random.default_rng(2)
    for _ in range(10):
        Q = np.linalg.qr(rng.standard_normal((2, 2)))[0]
        got = np.sort_complex(sl.esprit_tls(B @ Q))
        np.testing.assert_allclose(got, ref, atol=1e-8)


def test_esprit_tls_depends_on_oblique_basis_change():
    B = cos_basis(sigma=0.3, seed=5)
    ref = np.sort_complex(sl.esprit_tls(B))
    rng = np.random.default_rng(3)
    moved = 0.0
    for _ in range(5):
        P = rng.standard_normal((2, 2)) + np.eye(2)
        if abs(np.linalg.det(P)) < 0.1:
            continue
        got = np.sort_complex(sl.esprit_tls(B @ P))
        moved = max(moved, float(np.max(np.abs(got - ref))))
    assert moved > 1e-12


@pytest.mark.parametrize("esprit", [sl.esprit_ls, sl.esprit_tls], ids=["ls", "tls"])
def test_esprit_lists_a_repeated_pole_again(esprit):
    # the linear trend 1..50 has the double pole 1; its two eigenvalues split
    # under rounding (by 1.3e-8 under TLS), and merged roots keep their count
    for L in (10, 20):
        poles = esprit(sl.signal_basis(sl.decompose(sl.embed(np.arange(1.0, 51.0), L)), 2))
        assert poles.shape == (2,)
        assert poles[0] == poles[1], (L, poles)
        np.testing.assert_allclose(poles, [1.0, 1.0], atol=1e-6)


def test_esprit_ls_rejects_a_rank_deficient_shift():
    # e_L: the upper block (all rows but the last) is zero
    basis = np.zeros((6, 1))
    basis[-1, 0] = 1.0
    with pytest.raises(RankDeficientShift, match="shift system rank 0 < r = 1"):
        sl.esprit_ls(basis)


# -- pole conversion ---------------------------------------------------------------


def test_poles_to_params_values():
    poles = np.array([np.exp(2j * np.pi * 0.1), 0.99 * np.exp(2j * np.pi * 0.1), 1.0 + 0j])
    est = sl.poles_to_params(poles)
    assert est.shape == (3, 3)
    frequencies, dampings, moduli = est.T
    np.testing.assert_allclose(np.sort(frequencies), [0.0, 0.1, 0.1], atol=1e-12)
    row99 = np.argmin(moduli)
    assert frequencies[row99] == pytest.approx(0.1, abs=1e-12)
    assert dampings[row99] == pytest.approx(np.log(0.99), abs=1e-12)
    one = np.argmin(frequencies)
    assert dampings[one] == pytest.approx(0.0, abs=1e-15)


def test_poles_to_params_zero_pole():
    with pytest.raises(ZeroPole):
        sl.poles_to_params(np.array([0.0 + 0j]))


# -- pseudospectra ------------------------------------------------------------------


def test_minnorm_peak_at_signal_frequency():
    omegas, values = sl.pseudospectrum_minnorm(cos_basis(), gridsize=2048).T
    step = omegas[1] - omegas[0]
    assert abs(omegas[np.argmax(values)] - 0.1) <= step / 2 + 1e-15
    assert np.all(values > 0)


def minnorm_alignment(B, omegas):
    """Oracle: squared cosine between the steering vector and the min-norm
    vector, the recurrence (-a, 1) of min_norm_lrf up to scale."""
    a = np.append(-sl.min_norm_lrf(B), 1.0)
    G = np.exp(2j * np.pi * np.outer(omegas, np.arange(a.size))) @ a
    return np.abs(G) ** 2 / (a.size * float(a @ a))


def test_minnorm_alignment_matches_min_norm_recurrence():
    # the alignment is scale-free, so the recurrence vector is an oracle for it
    om = np.linspace(0.0, 0.5, 257)
    for seed in range(60):
        B = cos_basis(sigma=0.5, seed=seed)
        ps = sl.pseudospectrum_minnorm(B, gridsize=257)
        np.testing.assert_array_equal(ps[:, 0], om)
        np.testing.assert_allclose(1 / ps[:, 1], minnorm_alignment(B, om), rtol=1e-12)


def test_minnorm_rejects_vertical_subspace():
    # a basis that contains the last coordinate axis e_L leaves no min-norm vector
    basis = np.zeros((10, 2))
    basis[0, 0] = 1.0
    basis[-1, 1] = 1.0
    with pytest.raises(VerticalSubspace):
        sl.pseudospectrum_minnorm(basis)


def test_minnorm_two_sinusoids_against_dense_grid():
    spec = sl.SignalSpec("two_cos", n=399, sigma=0.0)
    ets = sl.decompose(sl.embed(sl.signal_values(spec), 100))
    B = sl.signal_basis(ets, 4)
    coarse = sl.pseudospectrum_minnorm(B, gridsize=1024)
    peaks = sl.find_peaks(coarse, 2)
    dense = np.linspace(0.03, 0.07, 200001)
    f_dense = minnorm_alignment(B, dense)
    # dense-grid oracle: the two smallest alignments sit at the signal frequencies
    lo = dense[np.argmin(np.where(dense < 0.05, f_dense, np.inf))]
    hi = dense[np.argmin(np.where(dense > 0.05, f_dense, np.inf))]
    assert abs(peaks[0] - lo) <= 1e-3
    assert abs(peaks[1] - hi) <= 1e-3
    assert lo == pytest.approx(1 / 21, abs=1e-4)
    assert hi == pytest.approx(1 / 19, abs=1e-4)


def test_music_zero_at_true_frequency():
    B = cos_basis()
    noise = sl.noise_complement(B)
    ps = sl.pseudospectrum_music(noise, gridsize=11)  # grid step 0.05
    assert ps[2, 0] == 0.1
    assert 1 / ps[2, 1] <= 1e-16


def test_music_ev_proportional_for_equal_eigenvalues():
    B = cos_basis(sigma=0.1)
    noise = sl.noise_complement(B)
    uniform = sl.pseudospectrum_music(noise, gridsize=256)
    ev = sl.pseudospectrum_music(noise, gridsize=256, eigenvalues=np.full(noise.shape[1], 2.0))
    ratio = ev[:, 1] / uniform[:, 1]
    assert np.max(np.abs(ratio - ratio[0])) <= 1e-10


def test_music_alignment_bounded():
    rng = np.random.default_rng(4)
    noise = np.linalg.qr(rng.standard_normal((15, 6)))[0]
    f = 1 / sl.pseudospectrum_music(noise, gridsize=257)[:, 1]
    assert np.all(f >= 0.0) and np.all(f <= 1.0 + 1e-12)


def test_music_rejects_bad_inputs():
    B = cos_basis()
    noise = sl.noise_complement(B)
    with pytest.raises(EmptyNoiseBasis):
        sl.pseudospectrum_music(np.zeros((10, 0)))
    with pytest.raises(NonpositiveEigenvalue):
        sl.pseudospectrum_music(noise, eigenvalues=np.zeros(noise.shape[1]))
    with pytest.raises(ValueError, match="one eigenvalue per noise vector"):
        sl.pseudospectrum_music(noise, eigenvalues=np.ones(noise.shape[1] + 1))


# -- root methods ----------------------------------------------------------------


def test_root_music_noise_free_cosine():
    noise = sl.noise_complement(cos_basis())
    poles = sl.root_music(noise, 2)
    assert pole_error(poles, [TRUE_POLE, TRUE_POLE.conjugate()]) <= 1e-6


def test_root_music_selection_containment():
    rng = np.random.default_rng(5)
    noise = np.linalg.qr(rng.standard_normal((20, 18)))[0]
    poles = sl.root_music(noise, 2)
    assert poles.size == 2
    assert np.all(np.abs(poles) <= 1.0 + 1e-6)


def test_root_music_two_sinusoids():
    spec = sl.SignalSpec("two_cos", n=399, sigma=0.0)
    ets = sl.decompose(sl.embed(sl.signal_values(spec), 100))
    noise = sl.noise_complement(sl.signal_basis(ets, 4))
    got = sl.pair_frequencies(sl.root_music(noise, 4))
    np.testing.assert_allclose(got, [1 / 21, 1 / 19], atol=1e-6)


def test_root_min_norm_cases():
    lrf = sl.min_norm_lrf(cos_basis())
    poles = sl.root_min_norm(lrf, 2)
    assert pole_error(poles, [TRUE_POLE, TRUE_POLE.conjugate()]) <= 1e-8

    single = sl.root_min_norm(np.array([2.0]), 1)
    np.testing.assert_allclose(single, [2.0 + 0j])

    damped = sl.min_norm_lrf(cos_basis(b=0.99))
    got = sl.root_min_norm(damped, 2)
    np.testing.assert_allclose(np.abs(got), 0.99, atol=1e-8)


@pytest.mark.parametrize(
    "estimate",
    [
        sl.esprit_ls,
        sl.esprit_tls,
        lambda B: sl.root_music(sl.noise_complement(B), 2),
        lambda B: sl.root_min_norm(sl.min_norm_lrf(B), 2),
        lambda B: sl.true_poles(sl.SignalSpec("damped_cos_wn", 100, b=0.99)),
    ],
    ids=["esprit_ls", "esprit_tls", "root_music", "root_min_norm", "true_poles"],
)
def test_poles_are_a_complex_vector(estimate):
    poles = estimate(cos_basis(b=0.99))
    assert isinstance(poles, np.ndarray)
    assert poles.dtype == complex and poles.shape == (2,)
    assert pole_error(poles, [0.99 * TRUE_POLE, 0.99 * TRUE_POLE.conjugate()]) <= 1e-6


def test_root_min_norm_too_few():
    with pytest.raises(TooFewRoots):
        sl.root_min_norm(np.array([2.0]), 2)


# -- peak finding ------------------------------------------------------------------


def test_find_peaks_single_cosine():
    ps = sl.pseudospectrum_minnorm(cos_basis(), gridsize=2048)
    peaks = sl.find_peaks(ps, 1)
    assert abs(peaks[0] - 0.1) <= 1e-4


def test_find_peaks_monotone_errors():
    ps = np.column_stack([np.linspace(0, 0.5, 32), np.linspace(1, 2, 32)])
    with pytest.raises(FewerPeaksThanRequested):
        sl.find_peaks(ps, 1)


@pytest.mark.parametrize("shape", [(32,), (32, 3), (2, 32, 2)])
def test_find_peaks_rejects_a_table_without_two_columns(shape):
    with pytest.raises(ValueError, match=r"\(gridsize, 2\) table"):
        sl.find_peaks(np.ones(shape), 1)


def test_find_peaks_two_sinusoids():
    spec = sl.SignalSpec("two_cos", n=399, sigma=0.0)
    ets = sl.decompose(sl.embed(sl.signal_values(spec), 100))
    ps = sl.pseudospectrum_music(sl.noise_complement(sl.signal_basis(ets, 4)), gridsize=2048)
    peaks = sl.find_peaks(ps, 2)
    np.testing.assert_allclose(peaks, [1 / 21, 1 / 19], atol=1e-3)


@pytest.mark.parametrize("bad", [2.5, 2.0, True, np.float64(2.0), 0, -1])
def test_pole_and_peak_counts_must_be_positive_integers(bad):
    # truncating would return two poles for r = 2.5
    B = cos_basis(sigma=0.01)
    noise = sl.noise_complement(B)
    lrf = sl.min_norm_lrf(B)
    ps = sl.pseudospectrum_music(noise, gridsize=256)
    for call in (lambda: sl.root_music(noise, bad), lambda: sl.root_min_norm(lrf, bad),
                 lambda: sl.find_peaks(ps, bad)):
        with pytest.raises(ValueError, match="must be an integer >= 1"):
            call()
    # truncating would return a 2-point grid for gridsize = 2.5
    for call in (lambda: sl.pseudospectrum_music(noise, gridsize=bad),
                 lambda: sl.pseudospectrum_minnorm(B, gridsize=bad)):
        with pytest.raises(ValueError, match="gridsize must be an integer >= 2"):
            call()
    assert sl.root_music(noise, np.int64(2)).size == 2
    assert sl.root_min_norm(lrf, np.int64(2)).size == 2
    assert sl.find_peaks(ps, np.int64(1)).size == 1
    assert sl.pseudospectrum_music(noise, gridsize=np.int64(2)).shape == (2, 2)
