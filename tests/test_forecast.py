import numpy as np
import pytest

import ssalab as sl
from ssalab.errors import (
    AllZeroCoefficients,
    ForecastDiverged,
    VerticalSubspace,
)
from ssalab.estimate import _merge_roots


def cosine(n_points, period=10.0, b=1.0):
    n = np.arange(n_points)
    return b**n * np.cos(2 * np.pi * n / period)


def exact_cos_basis(n_points, L, b=1.0):
    ets = sl.decompose(sl.embed(cosine(n_points, b=b), L))
    return sl.signal_basis(ets, 2)


# -- min-norm recurrence --------------------------------------------------------


def test_min_norm_lrf_exponential_window_two():
    a = 2.0
    basis = np.array([[1.0], [a]]) / np.sqrt(1 + a * a)
    lrf = sl.min_norm_lrf(basis)
    np.testing.assert_allclose(lrf, [2.0], atol=1e-12)


def test_min_norm_lrf_vertical_subspace():
    e_last = np.zeros((5, 1))
    e_last[-1, 0] = 1.0
    with pytest.raises(VerticalSubspace):
        sl.min_norm_lrf(e_last)


def test_min_norm_lrf_predicts_cosine():
    lrf = sl.min_norm_lrf(exact_cos_basis(100, 20))
    window = cosine(100)[:19]
    predicted = float(lrf @ window)
    assert predicted == pytest.approx(cosine(100)[19], abs=1e-8)


def test_min_norm_backward_mirrors_forward():
    # the backward recurrence is the forward one of the row-reversed basis
    B = exact_cos_basis(100, 20)
    bwd = sl.min_norm_lrf(B[::-1])
    nu2 = float(B[0] @ B[0])
    np.testing.assert_allclose(bwd, (B[1:] @ B[0])[::-1] / (1.0 - nu2), rtol=1e-12)
    f = cosine(100)
    # it predicts a value from the L-1 values after it
    predicted = float(bwd[::-1] @ f[1:20])
    assert predicted == pytest.approx(f[0], abs=1e-8)


# -- recurrent forecasting --------------------------------------------------------


def test_recurrent_forecast_exponential():
    lrf = np.array([2.0])
    np.testing.assert_allclose(sl.recurrent_forecast([4.0], lrf, 3), [8, 16, 32])


def test_recurrent_forecast_zero_seed():
    lrf = np.array([0.3, 0.5])
    assert np.all(sl.recurrent_forecast([0.0, 0.0], lrf, 5) == 0.0)


def test_recurrent_forecast_full_pipeline_cosine():
    f = cosine(100)
    rec = sl.rank_reconstruction(sl.decompose(sl.embed(f, 50)), [1, 2])
    lrf = sl.min_norm_lrf(exact_cos_basis(100, 50))
    out = sl.recurrent_forecast(rec[-lrf.size:], lrf, 10)
    truth = cosine(110)[100:]
    assert np.max(np.abs(out - truth)) <= 1e-6


def test_recurrent_forecast_divergence_guard():
    lrf = np.array([10.0])
    with pytest.raises(ForecastDiverged):
        sl.recurrent_forecast([1.0], lrf, 200)


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: sl.min_norm_lrf(2.0 * exact_cos_basis(100, 20)), "orthonormal basis"),
        (lambda: sl.recurrent_forecast([1.0, 2.0, 3.0], np.array([0.3, 0.5]), 3),
         "seed length 3 != recurrence order 2"),
    ],
    ids=["min_norm_lrf-not-orthonormal", "recurrent_forecast-seed-length"],
)
def test_recurrence_inputs_that_do_not_fit_raise(call, match):
    with pytest.raises(ValueError, match=match):
        call()


def test_recurrent_forecast_rejects_nonfinite_seed():
    lrf = np.array([0.3, 0.5])
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="NaN or infinite"):
            sl.recurrent_forecast([1.0, bad], lrf, 3)


@pytest.mark.parametrize("bad", [2.5, 2.0, True, np.float64(3.0), 0, -1])
def test_forecast_steps_must_be_positive_integers(bad):
    # a fractional step count used to reach np.empty as a bare TypeError
    with pytest.raises(ValueError, match="steps must be an integer >= 1"):
        sl.recurrent_forecast([1.0], np.array([0.5]), bad)
    np.testing.assert_array_equal(
        sl.recurrent_forecast([1.0], np.array([0.5]), np.int64(2)), [0.5, 0.25]
    )


@pytest.mark.parametrize(
    "call",
    [lambda a: sl.recurrent_forecast([1.0], a, 1), sl.characteristic_roots,
     lambda a: sl.root_min_norm(a, 1)],
    ids=["recurrent_forecast", "characteristic_roots", "root_min_norm"],
)
@pytest.mark.parametrize(
    "coeffs",
    [np.array([]), np.array([[0.3, 0.5]]), np.array([0.3, np.nan]), np.array([np.inf])],
    ids=["empty", "2-D", "nan", "inf"],
)
def test_recurrence_must_be_a_finite_vector(call, coeffs):
    with pytest.raises(ValueError, match="coefficients must"):
        call(coeffs)


def test_forecast_shift_invariance():
    # a signal governed by its minimal recurrence continues exactly
    f = cosine(60, b=0.99)
    theta = 2 * np.pi / 10
    minimal = np.array([-0.99**2, 2 * 0.99 * np.cos(theta)])
    out = sl.recurrent_forecast(f[:2][-2:], minimal, 58)
    np.testing.assert_allclose(out, f[2:], atol=1e-9)


# -- characteristic roots ---------------------------------------------------------


def test_characteristic_roots_simple():
    roots = sl.characteristic_roots(np.array([2.0]))
    assert roots.dtype == complex and roots.shape == (1,)
    np.testing.assert_allclose(roots, [2.0 + 0j])


def test_characteristic_roots_cosine_minimal_lrf():
    # minimal recurrence of cos(2 pi n / 10): a_1 = 2 cos(theta), a_2 = -1
    theta = 2 * np.pi / 10
    lrf = np.array([-1.0, 2 * np.cos(theta)])
    roots = sl.characteristic_roots(lrf)
    got = np.sort_complex(roots)
    want = np.sort_complex(np.array([np.exp(1j * theta), np.exp(-1j * theta)]))
    np.testing.assert_allclose(got, want, atol=1e-12)
    np.testing.assert_allclose(np.abs(roots), 1.0, atol=1e-10)


def test_min_norm_roots_extraneous_inside_circle():
    lrf = sl.min_norm_lrf(exact_cos_basis(100, 20))
    roots = sl.characteristic_roots(lrf)
    assert roots.size == lrf.size == 19
    truth = np.exp(2j * np.pi / 10)
    signal = [z for z in roots if min(abs(z - truth), abs(z - truth.conjugate())) < 1e-6]
    extraneous = [z for z in roots if min(abs(z - truth), abs(z - truth.conjugate())) >= 1e-6]
    assert len(signal) == 2
    assert all(abs(z) < 1 - 1e-6 for z in extraneous)


def test_characteristic_roots_polynomial_oracle():
    rng = np.random.default_rng(0)
    for _ in range(10):
        coeffs = rng.standard_normal(rng.integers(1, 9))
        if not np.any(coeffs):
            continue
        roots = sl.characteristic_roots(coeffs)
        t = coeffs.size
        assert roots.shape == (t,)
        # P(mu) = mu^t - sum_k a_k mu^{t-k}; stored coeffs are (a_t, ..., a_1)
        poly = np.concatenate([[1.0], -coeffs[::-1]])
        scale = np.max(np.abs(poly))
        for z in roots:
            assert abs(np.polyval(poly, z)) <= 1e-8 * scale * max(1.0, abs(z)) ** t


def test_characteristic_roots_all_zero():
    with pytest.raises(AllZeroCoefficients):
        sl.characteristic_roots(np.array([0.0, 0.0]))


# -- root merging ------------------------------------------------------------------


def test_merge_roots_merges_near_duplicates():
    centers, counts = _merge_roots([1.0, 1.0 + 1e-10, 0.5])
    assert centers.dtype == complex and centers.size == 2
    assert counts[np.argmin(np.abs(centers - 1.0))] == 2
    assert counts.sum() == 3
