import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import ssalab as sl
from ssalab.errors import InvalidSpec, RankTooLarge, WindowOutOfRange
from ssalab.signals import _CATALOG, residual_values


def test_const_saw_values():
    spec = sl.SignalSpec("const_saw", n=4, c=0.1)
    signal, residual = sl.gen_series(spec, 0)
    np.testing.assert_allclose(signal, [1, 1, 1, 1])
    np.testing.assert_allclose(residual, [-0.1, 0.1, -0.1, 0.1])


def test_zero_sigma_white_noise():
    spec = sl.SignalSpec("damped_cos_wn", n=50, sigma=0.0)
    _, residual = sl.gen_series(spec, 1)
    assert np.all(residual == 0.0)


def test_red_noise_moments():
    eta = sl.red_noise(np.random.default_rng(3), 10**6, 0.5)
    assert abs(eta.var() - 1.0) <= 0.01
    lag1 = np.corrcoef(eta[:-1], eta[1:])[0, 1]
    assert abs(lag1 - 0.5) <= 0.01


def _red_noise_allocating(rng, n, alpha):
    # a scaled copy of the draw and a new array per pass; red_noise must give its bytes
    g = rng.standard_normal(n)
    y = np.sqrt(1.0 - alpha * alpha) * g
    y[0] = g[0]
    s, p = 1, alpha
    while s < n and abs(p) > 2.0**-60 * (1.0 - abs(alpha)):
        y[s:] += p * y[:-s]
        s, p = 2 * s, p * p
    return y


@pytest.mark.parametrize("n", [1, 2, 3, 6399, 25596])
@pytest.mark.parametrize("alpha", [0.0, 0.5, 0.99])
def test_in_place_draws_equal_the_allocating_expressions(n, alpha):
    def rng():
        return np.random.default_rng(n)

    expected = _red_noise_allocating(rng(), n, alpha)
    assert sl.red_noise(rng(), n, alpha).tobytes() == expected.tobytes()
    if n >= 3:  # a SignalSpec needs three samples
        red = sl.SignalSpec("damped_cos_rn", n, sigma=0.3, alpha=alpha)
        assert residual_values(red, rng()).tobytes() == (0.3 * expected).tobytes()
        white = sl.SignalSpec("damped_cos_wn", n, sigma=0.3)
        assert residual_values(white, rng()).tobytes() == (0.3 * rng().standard_normal(n)).tobytes()


def test_residual_snr_equalized_across_kinds():
    # all four residual recipes at c = sigma = 0.1 have the same mean square
    n = 10**6
    msq = {}
    for kind in ("damped_cos_const", "damped_cos_wn", "damped_cos_mix", "damped_cos_rn"):
        spec = sl.SignalSpec(kind, n=n, b=1.0, c=0.1, sigma=0.1, alpha=0.5)
        _, residual = sl.gen_series(spec, 7)
        msq[kind] = float(np.mean(residual**2))
    base = msq["damped_cos_const"]
    for kind, value in msq.items():
        assert abs(value - base) / base <= 0.02, (kind, value, base)


def test_two_cos_is_modulated_sinusoid():
    spec = sl.SignalSpec("two_cos", n=100, sigma=0.0)
    s = sl.signal_values(spec)
    n = np.arange(100)
    expected = 2 * np.cos(np.pi * n * (1 / 19 - 1 / 21)) * np.cos(np.pi * n * (1 / 19 + 1 / 21))
    np.testing.assert_allclose(s, expected, atol=1e-12)


def test_exp_trend_and_chirp_values():
    spec = sl.SignalSpec("exp_trend", n=5, b=1.005, sigma=0.0)
    np.testing.assert_allclose(sl.signal_values(spec), 1.005 ** np.arange(5))
    chirp = sl.SignalSpec("chirp_trend_mix", n=4, sigma=0.0, c=0.5)
    np.testing.assert_allclose(
        sl.signal_values(chirp), np.cos(2 * np.pi * np.arange(4) ** 2 / 1e5)
    )
    _, res = sl.gen_series(chirp, 0)
    np.testing.assert_allclose(res, 0.5 * np.cos(2 * np.pi * np.arange(4) / 10), atol=1e-12)


def test_invalid_specs():
    with pytest.raises(InvalidSpec):
        sl.SignalSpec("no_such_kind", n=10)
    with pytest.raises(InvalidSpec):
        sl.SignalSpec("damped_cos_wn", n=10, sigma=-1.0)
    with pytest.raises(InvalidSpec):
        sl.SignalSpec("damped_cos_rn", n=10, alpha=1.0)
    with pytest.raises(InvalidSpec):
        sl.SignalSpec("damped_cos_wn", n=10, b=0.0)
    with pytest.raises(InvalidSpec):
        sl.SignalSpec("damped_cos_wn", n=10, sigma=float("nan"))
    # a non-integer length fails here, not later inside gen_series
    for n in (100.0, True, "100", np.float64(100)):
        with pytest.raises(InvalidSpec, match="integer"):
            sl.SignalSpec("damped_cos_wn", n)


def test_true_poles_and_rank():
    spec = sl.SignalSpec("two_cos", n=50)
    assert sl.exact_rank(spec) == 4
    poles = sl.true_poles(spec)
    assert poles.dtype == complex and poles.shape == (4,)
    np.testing.assert_allclose(np.abs(poles), 1.0)
    np.testing.assert_allclose(
        sl.true_frequencies(spec), sorted([1 / 21, 1 / 19]), atol=1e-15
    )
    chirp = sl.SignalSpec("chirp_am", n=50)
    assert sl.exact_rank(chirp) is None
    assert sl.true_poles(chirp) is None
    assert sl.true_frequencies(chirp) is None


def test_exact_basis_returns_a_fresh_array():
    # the cell's truth keeps the one cached basis; each call builds its own
    spec = sl.SignalSpec("damped_cos_wn", n=80, sigma=0.0)
    B = sl.exact_basis(spec, 20)
    first = B[0, 0]
    B[0, 0] = 123.0
    assert sl.exact_basis(spec, 20)[0, 0] == first
    assert sl.simlab._make_truth(spec, 20).exact_u[0, 0] == first


def test_exact_basis_spans_signal_space():
    spec = sl.SignalSpec("damped_cos_wn", n=80, b=0.99, sigma=0.33)
    B = sl.exact_basis(spec, 30)
    assert B.shape == (30, 2)
    # basis reproduces the noise-free trajectory matrix columns
    X = sl.embed(sl.signal_values(spec), 30)
    proj = B @ (B.T @ X)
    assert np.linalg.norm(proj - X) <= 1e-10 * np.linalg.norm(X)


def test_exact_basis_error_contract():
    with pytest.raises(InvalidSpec):
        sl.exact_basis(sl.SignalSpec("chirp_am", n=100), 20)
    two_cos = sl.SignalSpec("two_cos", n=100)
    # r = L: a basis must leave a noise complement
    with pytest.raises(ValueError) as info:
        sl.exact_basis(two_cos, 4)
    assert type(info.value) is ValueError
    for L in (3, 98):  # L < r, then K < r
        with pytest.raises(RankTooLarge):
            sl.exact_basis(two_cos, L)
    # 40.5 is not a window, though np.arange(40.5) has 41 entries
    for L in (1, 100, 40.5, np.float64(40.0), True):
        with pytest.raises(WindowOutOfRange):
            sl.exact_basis(two_cos, L)


def _svd_basis(spec, L):
    """Oracle: the r leading left singular vectors of the noise-free trajectory
    matrix, with all its singular values."""
    ets = sl.decompose(sl.embed(sl.signal_values(spec), L))
    return sl.signal_basis(ets, sl.exact_rank(spec)), ets.sigmas


def test_exact_basis_matches_the_svd_oracle_at_every_window():
    eps = np.finfo(float).eps
    kinds = [k for k in _CATALOG if sl.exact_rank(sl.SignalSpec(k, 10)) is not None]
    assert len(kinds) == 7
    for kind in kinds:
        for b in (0.99, 1.0, 1.01):
            spec = sl.SignalSpec(kind, 100, b=b)
            r = sl.exact_rank(spec)
            for L in range(r + 1, spec.n - r + 1):
                B = sl.exact_basis(spec, L)
                oracle, sigmas = _svd_basis(spec, L)
                assert B.shape == (L, r)
                assert np.max(np.abs(B.T @ B - np.eye(r))) <= 1e-12
                # the oracle resolves its subspace only to about eps sigma_1 / sigma_r
                # (Wedin); two_cos at K = r + 1 has sigma_1 / sigma_r near 1e3
                tol = 1e-12 + eps * np.sqrt(L) * sigmas[0] / sigmas[r - 1]
                assert sl.subspace_distance(B, oracle) <= tol, (kind, b, L)


@pytest.mark.parametrize("n, L, b", [(25596, 12793, 1.0), (14000, 12793, 1.05)])
def test_exact_basis_at_the_published_lengths(n, L, b):
    # L = 12793 is the `half` window at N = 25596, where the L x K SVD ran out of
    # memory; b = 1.05 puts b^(L-1) near 1e271
    spec = sl.SignalSpec("damped_cos_wn", n, b=b)
    start = time.perf_counter()
    B = sl.exact_basis(spec, L)
    assert time.perf_counter() - start < 1.0
    assert B.shape == (L, 2) and np.all(np.isfinite(B))
    assert np.max(np.abs(B.T @ B - np.eye(2))) <= 1e-12
    K = n - L + 1
    for j in (0, K // 2, K - 1):
        x = sl.signal_values(spec, np.arange(j, j + L))
        x = x / np.max(np.abs(x))  # at b = 1.05 the square of |x| would overflow
        # x itself carries cos's argument rounding at n near 25000, up to 8e-13
        assert np.linalg.norm(x - B @ (B.T @ x)) <= 1e-12 * np.linalg.norm(x), j


def test_exact_basis_where_the_growth_overflows():
    # b^(L-1) is inf here; exact_basis scales the growing columns by b^-(L-1)
    spec, L = sl.SignalSpec("damped_cos_wn", 14000, b=1.06), 12793
    with np.errstate(over="ignore"):
        assert np.isinf(np.float64(spec.b) ** (L - 1))
    B = sl.exact_basis(spec, L)
    assert np.all(np.isfinite(B))
    assert np.max(np.abs(B.T @ B - np.eye(2))) <= 1e-12
    # the last trajectory column over b^(N-1), from the closed form
    n = np.arange(spec.n - L, spec.n)
    x = spec.b ** (n - n[-1]) * np.cos(2 * np.pi * n / 10)
    assert np.linalg.norm(x - B @ (B.T @ x)) <= 1e-12 * np.linalg.norm(x)


def test_exact_basis_of_a_negative_real_pole(monkeypatch):
    # no catalog kind has one; (-0.9)^n has the pole -0.9 and rank 1
    monkeypatch.setitem(_CATALOG, "alternating", sl.signals._Kind(
        lambda spec, n: (-0.9) ** n, _CATALOG["exp_trend"].residual,
        lambda spec: np.array([-0.9 + 0.0j])))
    spec = sl.SignalSpec("alternating", 60)
    for L in (2, 17, 30, 59):
        assert sl.subspace_distance(sl.exact_basis(spec, L), _svd_basis(spec, L)[0]) <= 1e-12


def test_gen_series_signal_is_a_fresh_copy_of_the_closed_form():
    # the signal is computed once per spec; every call still gets its own array
    specs = (
        sl.SignalSpec("damped_cos_rn", n=500, b=0.999, sigma=0.1, alpha=0.5),
        sl.SignalSpec("exp_trend", n=40, b=0.9),
    )
    for spec in specs:
        a, ra = sl.gen_series(spec, 5)
        b, _ = sl.gen_series(spec, 6)
        for s in (a, b):
            np.testing.assert_array_equal(s, sl.signal_values(spec))
            assert s.flags.writeable
        assert not np.shares_memory(a, b)
        # the residual draw is untouched by the cache
        np.testing.assert_array_equal(ra, residual_values(spec, np.random.default_rng(5)))
        a[:] = 0.0
        c, _ = sl.gen_series(spec, 7)
        np.testing.assert_array_equal(c, sl.signal_values(spec))


def _serial_ar1(x, alpha):
    """y[i] = x[i] + alpha y[i-1], one step at a time in long double."""
    y = np.empty(x.size, dtype=np.longdouble)
    a, acc = np.longdouble(alpha), np.longdouble(0.0)
    for i, value in enumerate(x.astype(np.longdouble)):
        acc = value + a * acc
        y[i] = acc
    return y


@pytest.mark.parametrize("n", [3, 100, 6399, 25596])
@pytest.mark.parametrize("alpha", [0.0, 0.3, 0.5, 0.9, 0.99])
def test_red_noise_matches_serial_recurrence(alpha, n):
    # the scan against the exact recurrence, and against scipy's serial filter,
    # whose own rounding (up to about 1.2e-15 max|y| at alpha = 0.99) adds to the scan's
    from scipy.signal import lfilter

    y = sl.red_noise(np.random.default_rng(11), n, alpha)
    g = np.random.default_rng(11).standard_normal(n)
    x = np.sqrt(1.0 - alpha * alpha) * g
    x[0] = g[0]
    scale = np.max(np.abs(y))
    assert float(np.max(np.abs(y - _serial_ar1(x, alpha)))) <= 1e-15 * scale
    assert np.max(np.abs(y - lfilter([1.0], [1.0, -alpha], x))) <= 2e-15 * scale


_IMPORT_PROBE = """
import json, sys, tempfile
from pathlib import Path
sys.path.insert(0, {src!r})
import ssalab, ssalab.cli

spec = ssalab.SignalSpec("damped_cos_rn", 100)
ssalab.gen_series(spec, 0)
with tempfile.TemporaryDirectory() as tmp:
    cfg = Path(tmp) / "red.json"
    cfg.write_text(json.dumps({{
        "signal": {{"kind": "damped_cos_rn", "n": 60, "sigma": 0.1, "alpha": 0.5}},
        "windows": [20, 30], "reps": 5, "functional": "projector", "seed": 0,
    }}))
    code = ssalab.cli.main(["simulate", "--config", str(cfg), "--reps", "2",
                            "-o", str(Path(tmp) / "red")])
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("scipy"))]))
"""


def test_library_never_loads_scipy():
    # a fresh interpreter, since this one has long imported scipy for the test oracles
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE.format(src=src)],
                         capture_output=True, text=True, check=True, timeout=120).stdout
    assert json.loads(out) == [0, []]
