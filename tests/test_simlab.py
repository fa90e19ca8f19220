import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ssalab as sl
import ssalab.core as core
import ssalab.simlab as simlab
from ssalab.errors import InvalidSpec, OutOfDomain
from ssalab.simlab import EXACT_SEPARABILITY_RMSE, pool_size


WN = sl.SignalSpec("damped_cos_wn", n=100, b=1.0, sigma=0.1)


def test_hash64_stable_values():
    # frozen so seed derivations never drift between releases
    assert sl.hash64(0) == sl.hash64(0)
    assert sl.hash64(1, "x", 2) != sl.hash64(1, "x", 3)
    assert sl.derive_seed(5, "exp", 7) == sl.derive_seed(5, "exp", 7)
    with pytest.raises(TypeError):
        sl.hash64(1.5)


def test_pool_size_env_cap(monkeypatch):
    monkeypatch.setenv("SSA_LAB_THREADS", "1")
    assert pool_size() == 1
    assert pool_size(8) == 1
    monkeypatch.delenv("SSA_LAB_THREADS")
    assert pool_size(3) == 3


def test_surface_zero_noise_is_zero():
    spec = sl.SignalSpec("damped_cos_wn", n=100, b=1.0, sigma=0.0)
    surf = sl.mc_error_surface(spec, [30, 50], 3, "reconstruction", master_seed=1)
    assert np.all(surf.rmse <= 1e-8)
    assert np.all(surf.failures == 0)


def test_msd_equals_rmse_single_rep():
    surf = sl.mc_error_surface(WN, [40], 1, "projector", master_seed=2)
    assert surf.msd[0] == pytest.approx(surf.rmse[0], rel=1e-12)


def test_msd_le_rmse():
    surf = sl.mc_error_surface(WN, [40, 50], 25, "frequency", master_seed=3)
    assert np.all(surf.msd <= surf.rmse + 1e-15)


def _as_bytes(result):
    """Every numeric and text field of a result, as bytes (a spec left out)."""
    if isinstance(result, np.ndarray):
        return result.tobytes()
    return [np.asarray(v).tobytes() for v in vars(result).values()
            if not isinstance(v, sl.SignalSpec)]


@pytest.mark.parametrize(
    "run",
    [
        lambda: sl.mc_error_surface(WN, [40, 50], 12, "reconstruction", master_seed=4),
        lambda: sl.mc_point_errors(WN, 40, [0, 50, 99], 12, master_seed=4),
        lambda: sl.forecast_error_split(WN, 40, 50, 12, master_seed=4),
    ],
    ids=["mc_error_surface", "mc_point_errors", "forecast_error_split"],
)
def test_reproducible_across_worker_counts(monkeypatch, run):
    monkeypatch.setenv("SSA_LAB_THREADS", "1")
    serial = _as_bytes(run())
    monkeypatch.setenv("SSA_LAB_THREADS", "4")
    assert _as_bytes(run()) == serial


def test_block_route_reproducible_across_worker_counts(monkeypatch):
    # the block route's fixed start block draws nothing from the replication's
    # generator, so the pool gives the serial result bit for bit
    monkeypatch.delenv("SSA_LAB_THREADS", raising=False)
    spec = sl.SignalSpec("damped_cos_wn", n=399, b=1.0, sigma=0.1)
    signal, residual = sl.gen_series(spec, np.random.default_rng(0))
    assert sl.leading_triples(signal + residual, 200, 2).route == "block"
    serial = sl.mc_point_errors(spec, 200, [0, 199, 398], 8, master_seed=5, threads=1)
    pooled = sl.mc_point_errors(spec, 200, [0, 199, 398], 8, master_seed=5, threads=2)
    assert pooled.tobytes() == serial.tobytes()


@pytest.mark.parametrize("functional", ["projector", "frequency", "base", "reconstruction"])
def test_narrow_red_cell_builds_trajectory_matrix_only_for_v(monkeypatch, functional):
    # at 6399/20 the Gram comes from the series, so only a functional that
    # reads v pays for embed: once per replication
    calls = []
    embed = core.embed
    monkeypatch.setattr(core, "embed", lambda f, L: calls.append(L) or embed(f, L))
    monkeypatch.delenv("SSA_LAB_THREADS", raising=False)
    spec = sl.SignalSpec("damped_cos_rn", 6399)
    serial = sl.mc_error_surface(spec, [20], 3, functional, threads=1)
    assert calls == ([20] * 3 if functional == "reconstruction" else [])
    pooled = sl.mc_error_surface(spec, [20], 3, functional, threads=2)
    assert _as_bytes(pooled) == _as_bytes(serial)


def _first_order_error_map(U, V):
    """N x N matrix M with delta f = M eps to first order in the noise eps.

    U (L x r) and V (K x r) are the signal's singular vectors. The rank-r
    approximation of the noisy trajectory matrix moves by P_U E + E P_V -
    P_U E P_V (Nekrutkin 2010), E = embed(eps); diagonal averaging turns P_U E
    into P_U summed over the K windows of rows j..j+L-1, E P_V into P_V over
    the L windows of rows i..i+K-1, and P_U E P_V into sum_kl c_kl c_kl^T with
    c_kl = conv(u_k, v_l).
    """
    (L, r), K = U.shape, V.shape[0]
    P_U, P_V = U @ U.T, V @ V.T
    M = np.zeros((L + K - 1, L + K - 1))
    for j in range(K):
        M[j:j + L, j:j + L] += P_U
    for i in range(L):
        M[i:i + K, i:i + K] += P_V
    c = np.array([np.convolve(U[:, k], V[:, l]) for k in range(r) for l in range(r)])
    return (M - c.T @ c) / sl.diagonal_counts(L, K)[:, None]


@pytest.mark.parametrize("n_points, L, route", [(1700, 20, "gram"), (399, 20, "gram"),
                                                 (399, 200, "block")])
def test_reconstruction_rmse_matches_first_order_oracle(n_points, L, route):
    # 1700/20 forms the Gram from the series and computes v on first read;
    # 399/20 forms it by the dense product; 399/200 takes the block iteration
    spec = sl.SignalSpec("damped_cos_wn", n_points)
    signal = sl.signal_values(spec)
    ets = sl.decompose(sl.embed(signal, L))
    M = _first_order_error_map(ets.u, ets.v)
    eps = 1e-4 * np.random.default_rng(1).standard_normal(n_points)
    rec = sl.rank_reconstruction(sl.decompose(sl.embed(signal + eps, L)), [1, 2])
    assert np.linalg.norm(rec - signal - M @ eps) <= 1e-4 * np.linalg.norm(M @ eps)
    observed = signal + spec.sigma * np.random.default_rng(2).standard_normal(n_points)
    assert sl.leading_triples(observed, L, 2).route == route
    # the squared per-replication error is the Gaussian quadratic form
    # sigma^2 eps^T A eps with A = M^T M / N: mean sigma^2 tr A, variance
    # 2 sigma^4 ||A||_F^2, so the mean over reps has a standard error
    A = M.T @ M / n_points
    reps = 400
    expected = spec.sigma**2 * np.trace(A)
    se = spec.sigma**2 * np.sqrt(2.0 * np.sum(A * A) / reps)
    surf = sl.mc_error_surface(spec, [L], reps, "reconstruction", threads=1)
    assert surf.failures[0] == 0
    assert abs(surf.rmse[0] ** 2 - expected) <= 4.0 * se


def test_rank_too_large_for_window_is_invalid_spec():
    # r = 2 needs L > 2; the eigentriples would otherwise fail as a bare ValueError
    with pytest.raises(InvalidSpec, match="r < L"):
        sl.mc_error_surface(WN, [2], 2, "projector")


@pytest.mark.parametrize(
    "run",
    [
        lambda: sl.mc_point_errors(WN, 40, [-1], 2),
        lambda: sl.mc_point_errors(WN, 40, [WN.n], 2),
        lambda: sl.mc_point_errors(WN, 40, [10], 0),
        lambda: sl.mc_point_errors(WN, 40, [10.7], 2),
        lambda: sl.mc_error_surface(WN, [40], 2.0, "projector"),
        lambda: sl.forecast_error_split(WN, 40, 50, 0),
        lambda: sl.mc_error_surface(WN, [3], 2, "forecast-1-step", eigentriples=3),
        lambda: sl.mc_error_surface(WN, [40.7], 2, "projector"),
        lambda: sl.mc_error_surface(WN, [40], 2, "reconstruction", eigentriples=2.9),
        lambda: sl.mc_error_surface(WN, [40], 2, "projector", master_seed="x"),
        lambda: sl.mc_point_errors(WN, 40, [10], 2, master_seed=True),
        lambda: sl.convergence_ratio(WN, 100, "projector", "20", 2, master_seed=1.5),
        lambda: sl.forecast_error_split(WN, 40, 50, 2, master_seed=np.float64(3.0)),
    ],
    ids=["point-negative", "point-N", "points-reps-0", "point-fraction", "surface-reps-float",
         "split-reps-0", "forecast-eigentriples-L", "surface-window-float",
         "surface-eigentriples-float", "surface-seed-text", "points-seed-bool",
         "convergence-seed-float", "split-seed-numpy-float"],
)
def test_bad_inputs_fail_before_any_replication(monkeypatch, run):
    def no_replication(*args, **kwargs):
        raise AssertionError("a replication ran")

    monkeypatch.setattr(simlab, "gen_series", no_replication)
    with pytest.raises(InvalidSpec):
        run()


@pytest.mark.parametrize("functional", ["reconstruction", "reconstruction-last-10"])
def test_eigentriples_equal_to_window(functional):
    # only forecast-1-step's min-norm recurrence needs fewer triples than L
    surf = sl.mc_error_surface(WN, [3], 2, functional, eigentriples=3)
    assert np.all(np.isfinite(surf.rmse))


def test_functional_names_and_unknown():
    surf = sl.mc_error_surface(WN, [40], 2, "base", master_seed=5)
    assert surf.functional == "base"
    # the six names in FUNCTIONALS are the only spellings
    for tag in ("nope", "damping", "damping/base"):
        with pytest.raises(InvalidSpec, match="unknown functional"):
            sl.mc_error_surface(WN, [40], 2, tag)


def test_exact_separability_even_windows():
    spec = sl.SignalSpec("const_saw", n=99, c=0.1)
    surf = sl.mc_error_surface(spec, [50, 51], 1, "projector", master_seed=6)
    assert surf.rmse[0] <= 1e-10  # L and K both even
    assert surf.rmse[1] > 1e-4  # parity broken


def test_projector_surface_grows_without_dips_under_white_noise():
    surf = sl.mc_error_surface(WN, [55, 60, 65, 70, 75, 80], 100, "projector", master_seed=7)
    e = surf.msd
    assert e[-1] > e[0]
    # multiples of the period bring no relief once the residual is stochastic
    for idx in (1, 3):  # L = 60, 70
        neighbors = 0.5 * (e[idx - 1] + e[idx + 1])
        assert e[idx] >= 0.8 * neighbors


def test_window_for_policy():
    assert sl.window_for_policy("r+1", 399, 2) == 3
    assert sl.window_for_policy("20", 399, 2) == 20
    assert sl.window_for_policy("half-5", 399, 2) == 195
    assert sl.window_for_policy("half", 399, 2) == 200
    with pytest.raises(InvalidSpec):
        sl.window_for_policy("third", 399, 2)


def test_convergence_exact_separability_cell_unavailable():
    # constant residual with L and K both divisible by the period
    spec = sl.SignalSpec("damped_cos_const", n=399, b=1.0, c=0.1)
    rep = sl.convergence_ratio(spec, 399, "projector", "20", reps=2, master_seed=8)
    assert rep.rmse1 <= EXACT_SEPARABILITY_RMSE
    assert rep.delta is None


def test_convergence_ratio_white_noise_projector():
    spec = sl.SignalSpec("damped_cos_wn", n=399, b=1.0, sigma=0.1)
    rep = sl.convergence_ratio(spec, 199, "reconstruction", "half", reps=40, master_seed=9)
    assert rep.window2 == 398
    assert rep.delta == pytest.approx(2.0, abs=0.6)


# -- closed-form variance -------------------------------------------------------


def test_asymptotic_variance_reference_points():
    assert sl.asymptotic_variance(0.5, 1.0, 1.0, 1) == pytest.approx(4 / 3, abs=1e-12)
    assert sl.asymptotic_variance(0.5, 0.0, 1.0, 1) == pytest.approx(16 / 3, abs=1e-12)
    # scaling
    assert sl.asymptotic_variance(0.5, 1.0, 0.1, 1000) == pytest.approx(
        (0.01 / 1000) * 4 / 3, rel=1e-12
    )


def test_asymptotic_variance_branch_continuity():
    from ssalab.simlab import _d1, _d2, _d3

    for beta in (0.35, 0.4, 0.45):
        assert abs(_d2(beta, 2 * beta) - _d3(beta, 2 * beta)) <= 1e-9
        # d1 hands over to d2 at gamma = 2 (1 - 2 beta) when beta > 1/3 ...
        gamma = 2 * (1 - 2 * beta)
        assert abs(_d1(beta, gamma) - _d2(beta, gamma)) <= 1e-9
    # ... and straight to d3 at gamma = 2 beta when beta <= 1/3
    for beta in (0.1, 0.25, 0.3):
        assert abs(_d1(beta, 2 * beta) - _d3(beta, 2 * beta)) <= 1e-9


def test_asymptotic_variance_symmetries():
    # points chosen inside branch regions: the folds must not move the value
    for beta, gamma in [(0.3, 0.7), (0.45, 0.95), (0.5, 0.9), (0.35, 0.5)]:
        v = sl.asymptotic_variance(beta, gamma, 1.0, 1)
        assert sl.asymptotic_variance(1 - beta, gamma, 1.0, 1) == pytest.approx(v)
        assert sl.asymptotic_variance(beta, 2 - gamma, 1.0, 1) == pytest.approx(v)


def test_asymptotic_variance_domain():
    with pytest.raises(OutOfDomain):
        sl.asymptotic_variance(0.0, 0.5, 1.0, 1)
    with pytest.raises(OutOfDomain):
        sl.asymptotic_variance(0.5, 2.5, 1.0, 1)
    for sigma in (float("nan"), float("inf")):
        with pytest.raises(OutOfDomain):
            sl.asymptotic_variance(0.5, 1.0, sigma, 1)
    for n in (0, float("nan"), float("inf")):
        with pytest.raises(OutOfDomain):
            sl.asymptotic_variance(0.5, 1.0, 1.0, n)


def test_empirical_variance_matches_d2_branch():
    # interior point l = N/4 (gamma = 0.5) of a noisy constant, L = N/2
    spec = sl.SignalSpec("exp_trend", n=400, sigma=0.1, b=1.0)
    # this experiment id keeps the seed stream the 25% band was checked on
    errs = sl.mc_point_errors(spec, 200, [100], reps=1500, master_seed=10,
                              experiment_id="custom:point:L=200")
    predicted = sl.asymptotic_variance(0.5, 0.5, 0.1, 400)
    assert errs[:, 0].var() == pytest.approx(predicted, rel=0.25)


def test_empirical_variance_matches_d1_branch():
    # point l = N/8 (gamma = 0.25) of a noisy constant, L = N/4 (beta = 0.25)
    spec = sl.SignalSpec("exp_trend", n=400, sigma=0.1, b=1.0)
    errs = sl.mc_point_errors(spec, 100, [50], reps=1500, master_seed=10)
    predicted = sl.asymptotic_variance(0.25, 0.25, 0.1, 400)
    # 15% is about four standard errors of a 1500-replication variance
    assert errs[:, 0].var() == pytest.approx(predicted, rel=0.15)


# -- forecast error split ---------------------------------------------------------


def test_forecast_split_zero_noise():
    spec = sl.SignalSpec("damped_cos_wn", n=100, b=1.0, sigma=0.0)
    split = sl.forecast_error_split(spec, 40, 50, reps=2, master_seed=11)
    assert split.rmse_total <= 1e-8
    assert split.rmse_lrf_only <= 1e-8
    assert split.rmse_rec_only <= 1e-8


def test_forecast_split_window_trends():
    spec = sl.SignalSpec("damped_cos_wn", n=399, b=1.0, sigma=0.1)
    grid = [20, 100, 200, 300, 380]
    splits = [sl.forecast_error_split(spec, L, 200, reps=80, master_seed=12) for L in grid]
    lrf = [s.rmse_lrf_only for s in splits]
    rec = [s.rmse_rec_only for s in splits]
    assert lrf[-1] > lrf[0]  # recurrence errors grow with the window
    assert rec[-1] < rec[0]  # reconstruction-side errors shrink
    assert all(s.failures == 0 for s in splits)


def test_forecast_split_lrf_error_independent_of_rec_window():
    spec = sl.SignalSpec("damped_cos_wn", n=199, b=1.0, sigma=0.1)
    a = sl.forecast_error_split(spec, 60, 80, reps=40, master_seed=13)
    b = sl.forecast_error_split(spec, 60, 120, reps=40, master_seed=13)
    assert a.rmse_lrf_only == pytest.approx(b.rmse_lrf_only, rel=1e-12)


# -- red-noise bound ---------------------------------------------------------------


def test_red_noise_projector_bound():
    spec = sl.SignalSpec("damped_cos_rn", n=6399, b=1.0, sigma=0.1, alpha=0.5)
    value = sl.red_noise_projector_bound(spec, 10)
    assert 1e-4 <= value <= 1e-2
    # the term does not decay with the series length
    longer = sl.red_noise_projector_bound(
        sl.SignalSpec("damped_cos_rn", n=25599, b=1.0, sigma=0.1, alpha=0.5), 10
    )
    assert longer == pytest.approx(value, rel=0.05)


@pytest.mark.parametrize("n, L, b", [(200, 23, 1.0), (200, 23, 0.99), (399, 57, 0.995)])
def test_red_noise_projector_bound_matches_dense_oracle(n, L, b):
    # off the period, the exact basis is not the singular vectors of S; the
    # bound must depend on its span only
    spec = sl.SignalSpec("damped_cos_rn", n, b=b, sigma=0.1, alpha=0.5)
    S = sl.embed(sl.signal_values(spec), L)
    G = S @ S.T
    G_pinv = np.linalg.pinv(G, rcond=1e-10, hermitian=True)
    lag = np.arange(L)
    cov = spec.sigma**2 * spec.alpha ** np.abs(lag[:, None] - lag)
    M = S.shape[1] * G_pinv @ cov @ (np.eye(L) - G @ G_pinv)
    assert sl.red_noise_projector_bound(spec, L) == pytest.approx(np.linalg.norm(M, 2), rel=1e-10)


_REPORT_PROBE = """
import sys
sys.path.insert(0, {src!r})
import ssalab as sl
rep = sl.convergence_ratio(sl.SignalSpec("damped_cos_rn", 6399), 6399, "projector", "20",
                           reps=6, master_seed=3, threads=1)
print(rep.rmse1.hex(), rep.rmse2.hex(), rep.delta.hex())
"""


def test_narrow_red_report_does_not_depend_on_blas_threads():
    # fresh interpreters, since OpenBLAS reads its thread count once at load
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    outs = [
        subprocess.run([sys.executable, "-c", _REPORT_PROBE.format(src=src)], env=e,
                       capture_output=True, text=True, check=True, timeout=300).stdout
        for e in (env, {**env, "OPENBLAS_NUM_THREADS": "1"})
    ]
    assert len(outs[0].split()) == 3
    assert outs[0] == outs[1]


# -- experiment configs -----------------------------------------------------------


def test_experiment_config_parsing():
    cfg = sl.ExperimentConfig.from_dict(
        {
            "signal": {"kind": "damped_cos_wn", "n": 100, "b": 1.0, "sigma": 0.2},
            "windows": [30, 50],
            "reps": 7,
            "functional": "projector",
            "seed": 42,
        }
    )
    assert cfg.spec.sigma == 0.2
    assert cfg.windows == (30, 50)
    assert cfg.reps == 7
    assert cfg.seed == 42
    surf = sl.run_experiment(cfg)
    assert surf.functional == "projector"
    assert surf.reps == 7


def test_experiment_config_rejects_noise_block():
    # the signal kind fixes the residual; sigma and alpha live in 'signal'
    for noise in ({"kind": "white", "sigma": 0.1}, {"kind": "red"}, {"seed": 3}, {}):
        with pytest.raises(InvalidSpec, match=r"unknown experiment config keys: \['noise'\]"):
            sl.ExperimentConfig.from_dict(
                {"signal": {"kind": "damped_cos_wn", "n": 100}, "noise": noise, "windows": [30]}
            )
    red = sl.ExperimentConfig.from_dict(
        {"signal": {"kind": "damped_cos_rn", "n": 100, "alpha": 0.7}, "windows": [30]}
    )
    assert red.spec.alpha == 0.7
    assert red.seed == 0
    with pytest.raises(InvalidSpec):
        sl.ExperimentConfig.from_dict({"signal": {"kind": "damped_cos_wn", "n": 100}})
    # a misspelled key must not fall back to its default silently
    for change, message in [
        ({"functinal": "projector", "seeed": 7},
         r"unknown experiment config keys: \['functinal', 'seeed'\]"),
        ({"signal": {"kind": "damped_cos_wn", "n": 100, "sigam": 9}},
         r"unknown 'signal' keys: \['sigam'\]"),
        ({"output": 5}, "'output' must be a string"),
        ({"functional": ["projector"]}, "unknown functional"),
    ]:
        with pytest.raises(InvalidSpec, match=message):
            sl.ExperimentConfig.from_dict(
                {"signal": {"kind": "damped_cos_wn", "n": 100}, "windows": [30], **change}
            )
