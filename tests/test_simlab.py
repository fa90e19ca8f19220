import functools
import itertools
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest

import ssalab as sl
import ssalab.core as core
import ssalab.simlab as simlab
from ssalab.errors import InvalidSpec, OutOfDomain, TlsDegenerate, VerticalSubspace
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


# a worker count must be a positive integer, as SSA_LAB_THREADS must
_BAD_THREADS = [0, -1, 2.5, True, "2"]
_THREADED_RUNS = {
    "surface": lambda t: sl.mc_error_surface(WN, [40], 2, "projector", threads=t),
    "points": lambda t: sl.mc_point_errors(WN, 40, [10], 2, threads=t),
    "convergence": lambda t: sl.convergence_ratio(WN, 100, "projector", "20", 2, threads=t),
    "split": lambda t: sl.forecast_error_split(WN, 40, 50, 2, threads=t),
}


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
    ]
    + [lambda t=t, run=run: run(t) for run in _THREADED_RUNS.values() for t in _BAD_THREADS],
    ids=["point-negative", "point-N", "points-reps-0", "point-fraction", "surface-reps-float",
         "split-reps-0", "forecast-eigentriples-L", "surface-window-float",
         "surface-eigentriples-float", "surface-seed-text", "points-seed-bool",
         "convergence-seed-float", "split-seed-numpy-float"]
    + [f"{name}-threads-{t!r}" for name in _THREADED_RUNS for t in _BAD_THREADS],
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


# -- failed replications -----------------------------------------------------------


def test_surface_counts_replications_that_all_fail(monkeypatch):
    # at b = 1e6 the exponential's basis vector is the last axis to within
    # 1e-6, so no min-norm recurrence exists at either window
    monkeypatch.delenv("SSA_LAB_THREADS", raising=False)
    spec = sl.SignalSpec("exp_trend", 20, b=1e6, sigma=0.1)
    surf = sl.mc_error_surface(spec, [3, 5], 4, "forecast-1-step", threads=1)
    assert surf.failures.tolist() == [4, 4]
    assert np.isnan(surf.rmse).all() and np.isnan(surf.msd).all()
    pooled = sl.mc_error_surface(spec, [3, 5], 4, "forecast-1-step", threads=2)
    assert _as_bytes(pooled) == _as_bytes(surf)


def _fail_min_norm_lrf(monkeypatch, calls):
    """Make simlab's min_norm_lrf raise VerticalSubspace on the given calls
    (numbered from 0 in call order) and pass the others through."""
    real, count = simlab.min_norm_lrf, itertools.count()

    def min_norm_lrf(B):
        if next(count) in calls:
            raise VerticalSubspace("failed on purpose")
        return real(B)

    monkeypatch.setattr(simlab, "min_norm_lrf", min_norm_lrf)


def _replicate_rows(monkeypatch) -> list:
    """The (errors, failed) rows of every _replicate call from here on."""
    real, rows = simlab._replicate, []

    def replicate(*args):
        rows.append(real(*args))
        return rows[-1]

    monkeypatch.setattr(simlab, "_replicate", replicate)
    return rows


def test_surface_averages_only_the_replications_that_survive(monkeypatch):
    rows = _replicate_rows(monkeypatch)
    sl.mc_error_surface(WN, [40, 50], 4, "forecast-1-step", master_seed=3, threads=1)
    errors = rows[0][0]
    # one call per replication and window, windows innermost: call 1 is
    # replication 0 at L = 50, call 4 replication 2 at L = 40
    _fail_min_norm_lrf(monkeypatch, {1, 4})
    surf = sl.mc_error_surface(WN, [40, 50], 4, "forecast-1-step", master_seed=3, threads=1)
    assert surf.failures.tolist() == [1, 1]
    for j, survivors in enumerate(([0, 1, 3], [1, 2, 3])):
        ok = errors[survivors, j]
        assert surf.msd[j] == np.mean(ok)
        assert surf.rmse[j] == np.sqrt(np.mean(ok**2))


def test_forecast_split_averages_only_the_replications_that_survive(monkeypatch):
    rows = _replicate_rows(monkeypatch)
    sl.forecast_error_split(WN, 40, 50, 4, master_seed=3, threads=1)
    errors = rows[0][0]
    # call 0 computes the exact recurrence, call i + 1 replication i's estimate
    _fail_min_norm_lrf(monkeypatch, {2, 3})
    split = sl.forecast_error_split(WN, 40, 50, 4, master_seed=3, threads=1)
    assert split.failures == 2
    rmse = np.sqrt(np.mean(errors[[0, 3]] ** 2, axis=0))
    assert [split.rmse_total, split.rmse_lrf_only, split.rmse_rec_only] == rmse.tolist()


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


def _worker_blas_threads(triples, row, failed_row):
    row[:] = simlab._openblas_threads()[0](), os.getpid()


def test_replication_runner_restores_blas_thread_count(monkeypatch):
    blas = simlab._openblas_threads()
    if blas is None:
        pytest.skip("no OpenBLAS thread setter in numpy.libs; the runner leaves BLAS alone")
    get, set_ = blas
    monkeypatch.delenv("SSA_LAB_THREADS", raising=False)
    original = get()
    set_(2)  # a count the cap must move away from and back to
    seen = []

    def run(reps, threads, evaluate=lambda triples, row, failed_row: seen.append(get())):
        simlab._replicate(WN, "blas", 0, reps, threads, [(40, 2)], evaluate, 1)

    try:
        before = get()
        # the pool's workers (forked processes) run at one BLAS thread; the
        # parent's count does not move
        errors, _ = simlab._replicate(WN, "blas", 0, 4, 2, [(40, 2)], _worker_blas_threads, 2)
        assert errors[:, 0].tolist() == [1.0] * 4
        if POOLED:
            assert os.getpid() not in errors[:, 1]
        seen.extend(errors[:, 0])  # the four counts the concurrent half's tally expects
        assert get() == before
        run(4, 1)
        assert get() == before

        def fails(triples, row, failed_row):
            raise RuntimeError("evaluate failed")

        with pytest.raises(RuntimeError):
            run(2, 1, fails)
        assert get() == before

        # both calls hold the cap at once, then the first leaves while the
        # second still runs: the count stays at one until the last one leaves
        both_in, first_out = threading.Barrier(2, timeout=60), threading.Event()
        second_calls = []

        def first(triples, row, failed_row):
            both_in.wait()

        def second(triples, row, failed_row):
            second_calls.append(None)
            if len(second_calls) == 1:
                both_in.wait()
            else:
                assert first_out.wait(60)
                seen.append(get())

        callers = [threading.Thread(target=run, args=(1, 1, first)),
                   threading.Thread(target=run, args=(2, 1, second))]
        for caller in callers:
            caller.start()
        callers[0].join(60)
        assert not callers[0].is_alive()
        first_out.set()
        callers[1].join(60)
        assert not callers[1].is_alive()
        assert get() == before
        assert seen == [1] * 9

        # more callers than cores, switching often: a lost update of the
        # depth would restore the count under a running caller or never
        seen.clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=lambda: [run(2, 1) for _ in range(5)])
                       for _ in range(6)]
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(60)
                assert not caller.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert get() == before
        assert seen == [1] * 60
    finally:
        set_(original)


# -- the worker pool ---------------------------------------------------------------

# runs above one worker go to the pool: forked workers on Linux, with 2+ CPUs
POOLED = simlab._FORK and (os.cpu_count() or 1) > 1
pooled = pytest.mark.skipif(not POOLED, reason="needs Linux (fork) and two or more CPUs")


@pytest.mark.parametrize(
    "run",
    [
        lambda t: sl.mc_error_surface(WN, [40, 50], 7, "reconstruction", master_seed=9, threads=t),
        lambda t: sl.mc_point_errors(WN, 40, [0, 50, 99], 7, master_seed=9, threads=t),
        lambda t: sl.forecast_error_split(WN, 40, 50, 7, master_seed=9, threads=t),
    ],
    ids=["mc_error_surface", "mc_point_errors", "forecast_error_split"],
)
def test_chunk_edges_do_not_change_results(monkeypatch, run):
    # 7 replications cut into 2 or 3 contiguous chunks of unequal size, as on
    # a machine of three or more CPUs
    monkeypatch.delenv("SSA_LAB_THREADS", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    serial = _as_bytes(run(1))
    assert _as_bytes(run(2)) == serial
    assert _as_bytes(run(3)) == serial


def _raise_in_worker(parent, triples, row, failed_row):
    if os.getpid() != parent:
        raise TlsDegenerate("raised in a worker")


def _worker_pid(triples, row, failed_row):
    row[:] = os.getpid()


def _die_in_worker(parent, triples, row, failed_row):
    if os.getpid() != parent:
        os.kill(os.getpid(), signal.SIGKILL)


@pooled
def test_worker_error_reaches_caller_with_its_type(monkeypatch):
    monkeypatch.delenv("SSA_LAB_THREADS", raising=False)
    evaluate = functools.partial(_raise_in_worker, os.getpid())
    with pytest.raises(TlsDegenerate, match="raised in a worker"):
        simlab._replicate(WN, "raise", 0, 4, 2, [(40, 2)], evaluate, 1)
    # the pool survives an error in a replication
    serial = sl.mc_point_errors(WN, 40, [0, 99], 4, master_seed=2, threads=1)
    assert sl.mc_point_errors(WN, 40, [0, 99], 4, master_seed=2, threads=2).tobytes() == serial.tobytes()


@pooled
def test_killed_worker_breaks_the_call_and_the_next_call_rebuilds_the_pool(monkeypatch):
    monkeypatch.delenv("SSA_LAB_THREADS", raising=False)
    evaluate = functools.partial(_die_in_worker, os.getpid())
    with pytest.raises(BrokenProcessPool):
        simlab._replicate(WN, "die", 0, 4, 2, [(40, 2)], evaluate, 1)
    assert simlab._pool is None
    serial = sl.mc_point_errors(WN, 40, [0, 99], 4, master_seed=3, threads=1)
    assert sl.mc_point_errors(WN, 40, [0, 99], 4, master_seed=3, threads=2).tobytes() == serial.tobytes()
    assert simlab._pool is not None


def test_pool_never_starts_more_workers_than_the_cpu_count(monkeypatch):
    monkeypatch.delenv("SSA_LAB_THREADS", raising=False)
    simlab._shutdown_pool()
    serial = sl.mc_point_errors(WN, 40, [0, 99], 3, master_seed=5, threads=1)
    assert sl.mc_point_errors(WN, 40, [0, 99], 3, master_seed=5, threads=500).tobytes() \
        == serial.tobytes()
    workers = len(multiprocessing.active_children())
    assert workers <= (os.cpu_count() or 1)
    assert (workers > 0) == POOLED


@pooled
def test_concurrent_callers_at_different_worker_counts(monkeypatch):
    # callers asking for 2 and 3 workers share the one pool; neither may find
    # it shut down under it
    monkeypatch.delenv("SSA_LAB_THREADS", raising=False)
    serial = sl.mc_point_errors(WN, 40, [0, 50, 99], 7, master_seed=6, threads=1).tobytes()
    results, errors = [], []

    def caller(threads):
        try:
            for _ in range(5):
                results.append(sl.mc_point_errors(WN, 40, [0, 50, 99], 7, master_seed=6,
                                                  threads=threads).tobytes())
        except Exception as exc:  # reported below, not lost in the thread
            errors.append(exc)

    callers = [threading.Thread(target=caller, args=(t,)) for t in (2, 3)]
    for c in callers:
        c.start()
    for c in callers:
        c.join(120)
        assert not c.is_alive()
    assert errors == []
    assert results == [serial] * 10


@pooled
def test_worker_killed_between_runs_does_not_fail_the_next_run(monkeypatch):
    monkeypatch.delenv("SSA_LAB_THREADS", raising=False)
    pids, _ = simlab._replicate(WN, "pids", 0, 4, 2, [(40, 2)], _worker_pid, 1)
    executor = simlab._pool
    os.kill(int(pids[0, 0]), signal.SIGKILL)
    # wait until the pool has seen its worker die, as it has long before the
    # next run when the worker died idle
    for _ in range(3000):
        try:
            executor.submit(int).result()
        except BrokenProcessPool:
            break
        time.sleep(0.01)
    else:
        pytest.fail("the pool did not notice its killed worker")
    serial = sl.mc_point_errors(WN, 40, [0, 99], 4, master_seed=7, threads=1)
    assert sl.mc_point_errors(WN, 40, [0, 99], 4, master_seed=7, threads=2).tobytes() == serial.tobytes()
    assert simlab._pool not in (None, executor)


@pooled
def test_pooled_run_uses_the_module_state_of_the_pool_start(monkeypatch):
    # a forked worker holds the module as it was at the fork, so a patch made
    # after the pool started reaches only runs in the calling process
    monkeypatch.delenv("SSA_LAB_THREADS", raising=False)
    serial = sl.mc_point_errors(WN, 40, [0, 99], 4, master_seed=8, threads=1)
    sl.mc_point_errors(WN, 40, [0, 99], 2, master_seed=8, threads=2)  # starts the pool

    def patched(*args):
        raise AssertionError("gen_series patched after the pool started")

    monkeypatch.setattr(simlab, "gen_series", patched)
    assert sl.mc_point_errors(WN, 40, [0, 99], 4, master_seed=8, threads=2).tobytes() == serial.tobytes()
    with pytest.raises(AssertionError, match="patched after the pool started"):
        sl.mc_point_errors(WN, 40, [0, 99], 4, master_seed=8, threads=1)


_SIMULATE_PROBE = """
import multiprocessing, sys
sys.path.insert(0, {src!r})
from ssalab.cli import main
code = main(["simulate", "--config", {config!r}, "-o", {out!r}])
print(code, len(multiprocessing.active_children()))
"""


@pooled
def test_pooled_simulate_exits_cleanly(monkeypatch, tmp_path):
    # the workers must be gone when the interpreter exits, or they would hold
    # the captured pipes open and run() would wait; and the exit prints nothing
    config = Path(__file__).resolve().parents[1] / "scripts" / "configs" / "two_cos_table.json"
    src = str(Path(__file__).resolve().parents[1] / "src")
    monkeypatch.delenv("SSA_LAB_THREADS", raising=False)
    probe = _SIMULATE_PROBE.format(src=src, config=str(config), out=str(tmp_path / "out"))
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          timeout=120)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == f"0 {pool_size()}\n"


_REPORT_PROBE = """
import sys
sys.path.insert(0, {src!r})
import ssalab as sl
rep = sl.convergence_ratio(sl.SignalSpec("damped_cos_rn", 6399), 6399, "projector", "20",
                           reps=6, master_seed=3, threads=1)
print(rep.rmse1.hex(), rep.rmse2.hex(), rep.delta.hex())
"""

_CONFIG_PROBE = """
import dataclasses, json, sys
sys.path.insert(0, {src!r})
import ssalab as sl
with open({config!r}) as fh:
    config = sl.ExperimentConfig.from_dict(json.load(fh))
for seed in (config.seed, 1, 2, 3):
    for threads in (1, None):
        surf = sl.run_experiment(dataclasses.replace(config, seed=seed), threads=threads)
        print(*(x.hex() for x in [*surf.rmse, *surf.msd]))
"""


def _fresh_outputs(probe: str, **fields) -> list:
    """stdout of `probe` in two fresh interpreters, without and with
    OPENBLAS_NUM_THREADS=1 (OpenBLAS reads its thread count once, at load)."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "SSA_LAB_THREADS")}
    return [
        subprocess.run([sys.executable, "-c", probe.format(src=src, **fields)], env=e,
                       capture_output=True, text=True, check=True, timeout=300).stdout
        for e in (env, {**env, "OPENBLAS_NUM_THREADS": "1"})
    ]


def test_narrow_red_report_does_not_depend_on_blas_threads():
    outs = _fresh_outputs(_REPORT_PROBE)
    assert len(outs[0].split()) == 3
    assert outs[0] == outs[1]


@pytest.mark.parametrize("name", ["two_cos_table", "projector_white_noise"])
def test_config_surface_does_not_depend_on_blas_threads(name):
    # two_cos_table runs the dense-product Gram route at L = 40 and 100 and the
    # block route at L = 200; projector_white_noise runs the Gram route at
    # N = 100; each interpreter prints, for the config's seed and then seeds
    # 1, 2 and 3, one line at threads=1 and one at the pool (one seed alone
    # can match by chance when BLAS threads the serial run)
    config = Path(__file__).resolve().parents[1] / "scripts" / "configs" / f"{name}.json"
    outs = [out.splitlines() for out in _fresh_outputs(_CONFIG_PROBE, config=str(config))]
    assert len(outs[0]) == 8 and outs[1] == outs[0]
    assert outs[0][0::2] == outs[0][1::2]
    assert len(set(outs[0])) == 4 and all(outs[0])


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
