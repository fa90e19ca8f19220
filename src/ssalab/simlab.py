"""Monte-Carlo error laboratory: error-vs-window surfaces, convergence ratios,
the closed-form variance of reconstruction errors, and the forecast error split.

Every experiment runs through `_replicate`, and every replication through
`_run_reps`: replication i seeds a generator with derive_seed(master_seed,
experiment_id, i), draws the series with gen_series, takes
leading_triples(observed, L, r) once per declared (L, r) and passes them to
the experiment's evaluate(triples, row), a module-level function
bound with functools.partial, which fills row i only; so results are
identical for any worker count. `_replicate` runs a sequence of experiments
in one round: convergence_ratio's two lengths wait on the pool once. A run's
worker count is min(cpu count, SSA_LAB_THREADS, reps) unless a call asks for
fewer. Above one worker, on Linux, the replications are cut into one
contiguous chunk per worker, which runs its index range of each experiment
in turn, on a persistent pool of forked worker processes, each with numpy's
OpenBLAS at one thread. A chunk carries keys, not arrays: a truth pickles as
its cached `_make_truth` arguments, the cell (spec, L). Both steps cut a fixed
cost per call, so they pay on short calls that repeat a cell, not on
500-replication calls on new cells. The pool is built on the first pooled run
with min(cpu count, SSA_LAB_THREADS) workers, kept at that size, built anew
after a worker dies, and shut down at interpreter exit; its workers see the
module state of the moment it was built. A serial run (one worker or another
platform) holds OpenBLAS at one thread in the calling process and restores
the count after; where no OpenBLAS setter is found it leaves BLAS alone.
`_make_truth` checks a cell's rank and window, so all functionals of a cell
share one truth; `_cells` checks a surface's functional and eigentriple count
(and a config's, at parse time); `_replicate` checks reps, the master seed
and the worker count first; so bad input raises InvalidSpec before any
replication runs. Convergence reports and forecast splits hold
only computed numbers, not the caller's arguments. A functional is named by
one of the six FUNCTIONALS strings, and a simulate config is a `signal`
object, which becomes the SignalSpec and so fixes the residual, plus
top-level windows, reps, functional, eigentriples, seed and output; any other
key is InvalidSpec.
"""

from __future__ import annotations

import atexit
import ctypes
import glob
import os
import sys
import threading
from contextlib import contextmanager, suppress
from dataclasses import dataclass, fields, replace
from functools import lru_cache, partial
from typing import Optional

import numpy as np

from .core import embed, leading_triples, rank_reconstruction
from .errors import InvalidSpec, OutOfDomain, VerticalSubspace, integer
from .estimate import esprit_ls, pair_frequencies
from .forecast import min_norm_lrf
from .signals import (
    SignalSpec,
    exact_basis,
    exact_rank,
    gen_series,
    signal_values,
    true_frequencies,
)
from .subspace import subspace_distance

FUNCTIONALS = (
    "projector",
    "reconstruction",
    "reconstruction-last-10",
    "forecast-1-step",
    "frequency",
    "base",
)

WINDOW_POLICIES = ("r+1", "20", "25", "half-5", "half")

EXACT_SEPARABILITY_RMSE = 1e-10

_MASK64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _mix(h: int, part) -> int:
    """h with one more part, an int or a string, mixed in."""
    if isinstance(part, str):
        for byte in part.encode("utf-8"):
            h = _splitmix64(h ^ byte)
    elif isinstance(part, (int, np.integer)):
        h = _splitmix64(h ^ (int(part) & _MASK64))
    else:
        raise TypeError(f"seed parts are ints and strings, got {type(part)!r}")
    return h


# typed, so a float seed equal to a cached int still raises TypeError
@lru_cache(maxsize=64, typed=True)
def _seed_prefix(master_seed: int, experiment_id: str) -> int:
    return _mix(_mix(0x243F6A8885A308D3, master_seed), experiment_id)


def derive_seed(master_seed: int, experiment_id: str, rep_index: int) -> int:
    """Per-replication seed: counter-based, independent of evaluation order.

    The splitmix64 chain h = splitmix64(h ^ part) from 0x243F6A8885A308D3 over
    the master seed, the id's UTF-8 bytes and the index (ints mod 2^64); the
    prefix up to the id is cached, so a replication mixes in only its index.
    """
    return _mix(_seed_prefix(master_seed, experiment_id), rep_index)


def pool_size(requested: Optional[int] = None) -> int:
    """Worker count: cpu count (or `requested`), capped by SSA_LAB_THREADS.

    `requested` and SSA_LAB_THREADS, when set and nonempty, must be positive
    integers.
    """
    if requested is not None:
        base = integer("threads", requested, InvalidSpec, minimum=1)
    else:
        base = os.cpu_count() or 1
    cap = os.environ.get("SSA_LAB_THREADS")
    if cap:
        if not cap.isdecimal() or int(cap) < 1:
            raise InvalidSpec(f"SSA_LAB_THREADS must be a positive integer, got {cap!r}")
        base = min(base, int(cap))
    return base


_OPENBLAS_THREADS = (
    "scipy_openblas_{}_num_threads64_",
    "openblas_{}_num_threads64_",
    "openblas_{}_num_threads",
)


@lru_cache(maxsize=1)
def _openblas_threads():
    """(get, set) of the thread count of the OpenBLAS in numpy.libs, the copy
    numpy's wheels load; None where there is none (MKL, Accelerate, a system
    BLAS). Looked up once, on the first replication run."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in _OPENBLAS_THREADS:
            get = getattr(lib, name.format("get"), None)
            set_ = getattr(lib, name.format("set"), None)
            if get is not None and set_ is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                set_.restype, set_.argtypes = None, [ctypes.c_int]
                return get, set_
    return None


# the thread count belongs to the process, so its bookkeeping does too
_blas_lock = threading.Lock()
_blas_depth = 0
_blas_saved = None


@contextmanager
def _one_blas_thread():
    """Hold OpenBLAS at one thread for the body of a serial run, as in the
    pool's workers, so a run's bits and speed do not depend on BLAS's own
    threads. The first caller in saves the count and the last one out
    restores it, so concurrent runs cannot leave it at one."""
    global _blas_depth, _blas_saved
    blas = _openblas_threads()
    if blas is None:
        yield
        return
    get, set_ = blas
    with _blas_lock:
        if _blas_depth == 0:
            _blas_saved = get()
            set_(1)
        _blas_depth += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_depth -= 1
            if _blas_depth == 0:
                set_(_blas_saved)


def _run_reps(master_seed, experiments, lo, hi):
    """Run replications lo..hi-1 of each experiment in turn; return one
    errors array per experiment, of shape (hi - lo, width).

    An experiment is (spec, experiment id, shapes, evaluate, width); its
    replication i calls evaluate(triples, errors[i - lo]) with one
    leading_triples result per (L, r) in `shapes`; an entry left NaN failed.
    """
    out = []
    for spec, exp_id, shapes, evaluate, width in experiments:
        errors = np.full((hi - lo, width), np.nan)
        for row, i in enumerate(range(lo, hi)):
            evaluate(_rep_triples(spec, exp_id, master_seed, shapes, i), errors[row])
        out.append(errors)
    return out


def _rep_triples(spec, exp_id, master_seed, shapes, i):
    """Replication i's leading triples. The residual is added into the signal
    copy gen_series returns and dropped before the decomposition, so each
    series-length array is allocated once; the peak, about 3 x 8N bytes, is
    the signal beside a red-noise draw and its scan's scratch array."""
    rng = np.random.default_rng(derive_seed(master_seed, exp_id, i))
    observed, residual = gen_series(spec, rng)
    observed += residual
    del residual
    return [leading_triples(observed, L, r) for L, r in shapes]


# fork starts a worker without re-importing __main__; spawn and forkserver
# would re-run a script that calls the lab at top level
_FORK = sys.platform.startswith("linux")
# the persistent pool's executor; its own lock, so a fork never copies a held
# _blas_lock into a worker
_pool = None
_pool_lock = threading.Lock()


def _worker_init() -> None:
    blas = _openblas_threads()
    if blas is not None:
        blas[1](1)


def _worker_pool():
    """The pool of forked worker processes, built on first use with
    pool_size() workers, the cap at that time."""
    global _pool
    with _pool_lock:
        if _pool is None:
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            _openblas_threads()  # looked up here, so the workers only read the cache
            _pool = ProcessPoolExecutor(
                pool_size(), multiprocessing.get_context("fork"), initializer=_worker_init
            )
        return _pool


@atexit.register
def _shutdown_pool(executor=None) -> None:
    """Shut down the pool (only if it is still `executor`, when given)."""
    global _pool
    with _pool_lock:
        if _pool is None or executor not in (None, _pool):
            return
        executor, _pool = _pool, None
    executor.shutdown()


def _replicate(experiments, master_seed, reps, threads):
    """Run `reps` replications of each experiment in one round; return one
    errors array per experiment, of shape (reps, width).

    See _run_reps for the rows; a pooled run stacks its chunks' rows by index.
    """
    master_seed = integer("master_seed", master_seed, InvalidSpec)
    reps = integer("reps", reps, InvalidSpec, minimum=1)
    chunks = min(pool_size(threads), os.cpu_count() or 1, reps)
    run = partial(_run_reps, master_seed, experiments)
    if chunks == 1 or not _FORK:
        with _one_blas_thread():
            return run(0, reps)
    from concurrent.futures.process import BrokenProcessPool

    bounds = [reps * k // chunks for k in range(chunks + 1)]
    executor = _worker_pool()
    try:
        rows = executor.map(run, bounds[:-1], bounds[1:])
    except BrokenProcessPool:
        # a worker died while the pool sat idle (the OOM killer, a Ctrl-C in a
        # REPL), so no chunk of this run can finish there: run it on a new pool
        _shutdown_pool(executor)
        executor = _worker_pool()
        rows = executor.map(run, bounds[:-1], bounds[1:])
    try:
        rows = list(rows)
    except BrokenProcessPool:
        _shutdown_pool(executor)  # a worker died in this run; the next run builds a new pool
        raise
    return [np.concatenate(parts) for parts in zip(*rows)]


# -- single-replication error functionals ------------------------------------


@dataclass(frozen=True)
class _Truth:
    """Per-(spec, L) context: the noise-free quantities errors are measured
    against; pickles as its `_make_truth` arguments (spec, L)."""

    spec: SignalSpec
    L: int
    rank: int
    signal: np.ndarray
    next_value: float
    exact_u: np.ndarray
    freqs: Optional[np.ndarray]
    log_b: float

    def __reduce__(self):
        return _make_truth, (self.spec, self.L)


def _finite_rank(spec: SignalSpec) -> int:
    r = exact_rank(spec)
    if r is None:
        raise InvalidSpec(f"kind {spec.kind!r} has no finite rank; Monte-Carlo functionals need one")
    return r


def _make_truth(spec: SignalSpec, L) -> _Truth:
    """The truth of the cell (spec, L), for every functional; raises InvalidSpec
    unless the kind has a finite rank r, L is an integer (its truth.L an int),
    2 <= L <= N-1, r < L and K = N-L+1 >= r (`_cells` checks the functional
    and eigentriples)."""
    return _cell_truth(spec, integer("window", L, InvalidSpec))


@lru_cache(maxsize=32)
def _cell_truth(spec: SignalSpec, L: int) -> _Truth:
    """`_make_truth` of an int window. Cached, so read-only: a truth holds
    8 (N + 1 + r L) bytes, and the caller and each worker keep up to 32 after
    a call returns (13 MB at N = 25596, L = 12793, r = 2)."""
    r = _finite_rank(spec)
    K = spec.n - L + 1
    if not (2 <= L <= spec.n - 1 and r < L and r <= K):
        raise InvalidSpec(f"window {L} needs 2 <= L <= N-1, r < L, K >= r (N={spec.n}, r={r})")
    s_ext = signal_values(spec, np.arange(spec.n + 1))
    freqs = true_frequencies(spec)
    exact_u = exact_basis(spec, L)
    s_ext.flags.writeable = freqs.flags.writeable = exact_u.flags.writeable = False
    return _Truth(
        spec=spec,
        L=L,
        rank=r,
        signal=s_ext[:-1],
        next_value=float(s_ext[-1]),
        exact_u=exact_u,
        freqs=freqs,
        log_b=float(np.log(spec.b)),
    )


_REC_FUNCTIONALS = ("reconstruction", "reconstruction-last-10", "forecast-1-step")


def _functional_error(tag: str, t, truth: _Truth) -> float:
    """Error of one replication's leading triples `t`, as many as `_cells`
    keeps: the eigentriple count for the reconstruction functionals,
    truth.rank for the others. `tag` is one of FUNCTIONALS, checked by
    `_cells` before any run."""
    if tag == "projector":
        return subspace_distance(t.u, truth.exact_u)
    if tag in _REC_FUNCTIONALS:
        rec = rank_reconstruction(t)
        if tag == "reconstruction":
            return float(np.linalg.norm(rec - truth.signal) / np.sqrt(truth.signal.size))
        if tag == "reconstruction-last-10":
            tail = rec[-10:] - truth.signal[-10:]
            return float(np.sqrt(np.mean(tail**2)))
        lrf = min_norm_lrf(t.u)
        pred = float(lrf @ rec[-lrf.size:])
        return abs(pred - truth.next_value)
    poles = esprit_ls(t.u)
    if tag == "frequency":  # distance to the nearest estimated frequency
        est = pair_frequencies(poles)
        diffs = [np.min(np.abs(est - w)) for w in truth.freqs]
    else:  # base: log-modulus error of the pole nearest each true frequency
        est = np.abs(np.angle(poles)) / (2.0 * np.pi)
        logmod = np.log(np.abs(poles))
        diffs = [logmod[np.argmin(np.abs(est - w))] - truth.log_b for w in truth.freqs]
    return float(np.sqrt(np.mean(np.square(diffs))))


# -- Monte-Carlo surfaces -----------------------------------------------------


def _cells(spec: SignalSpec, windows, functional: str, eigentriples: Optional[int]):
    """(windows as ints, one _Truth per window, the triples each replication
    keeps); InvalidSpec for an unknown functional, no or a non-integer window,
    a cell `_make_truth` rejects, eigentriples given to a functional that uses
    the rank, or outside 1..min(L, K), or not below L for forecast-1-step."""
    if functional not in FUNCTIONALS:
        raise InvalidSpec(f"unknown functional {functional!r}; expected one of {FUNCTIONALS}")
    truths = [_make_truth(spec, L) for L in windows]
    if not truths:
        raise InvalidSpec("need at least one window length")
    windows = tuple(t.L for t in truths)
    if eigentriples is None:
        return windows, truths, truths[0].rank
    if functional not in _REC_FUNCTIONALS:
        raise InvalidSpec(f"eigentriples applies only to {_REC_FUNCTIONALS}, not {functional!r}")
    keep = integer("eigentriples", eigentriples, InvalidSpec)
    for L in windows:
        top = min(L - 1 if functional == "forecast-1-step" else L, spec.n - L + 1)
        if not 1 <= keep <= top:
            raise InvalidSpec(f"eigentriples must lie in 1..{top} for {functional} at L={L},"
                              f" K={spec.n - L + 1}, got {keep}")
    return windows, truths, keep


def _surface_row(tag, truths, triples, row) -> None:
    for j, (t, truth) in enumerate(zip(triples, truths)):
        with suppress(VerticalSubspace):  # a failure leaves the entry NaN
            row[j] = _functional_error(tag, t, truth)


def _surface_experiment(spec, exp_id, tag, truths, keep) -> tuple:
    """The `_replicate` experiment of a surface: one column per truth's window,
    each from `keep` leading triples."""
    shapes = [(t.L, keep) for t in truths]
    return spec, exp_id, shapes, partial(_surface_row, tag, truths), len(truths)


def _window_stats(errors):
    """(MSD, RMSE, failure count) of each column over its surviving
    replications; a NaN entry is a failed one."""
    msd, rmse = np.full((2, errors.shape[1]), np.nan)
    for j, column in enumerate(errors.T):
        ok = column[~np.isnan(column)]
        if ok.size:
            msd[j] = float(np.mean(ok))
            rmse[j] = float(np.sqrt(np.mean(ok**2)))
    return msd, rmse, np.isnan(errors).sum(axis=0)


@dataclass(frozen=True)
class ErrorSurface:
    """MSD and RMSE of one error functional over a list of window lengths.

    MSD averages the per-replication error magnitudes; RMSE averages their
    squares before the root. Failed replications (vertical subspace) are
    counted per window and excluded from the averages.
    """

    spec: SignalSpec
    functional: str
    windows: tuple
    msd: np.ndarray
    rmse: np.ndarray
    failures: np.ndarray
    reps: int
    master_seed: int
    experiment_id: str


def mc_error_surface(
    spec: SignalSpec,
    windows,
    reps: int,
    functional: str,
    master_seed: int = 0,
    threads: Optional[int] = None,
    eigentriples: Optional[int] = None,
) -> ErrorSurface:
    """Estimate the error functional at each window length over `reps` replications.

    Replication i reuses one simulated series across all windows (common
    random numbers), seeded by the derivation contract above. `eigentriples`
    overrides how many leading terms the reconstruction functionals keep
    (default: the signal rank); the projector, frequency and base functionals
    always use the rank, and raise InvalidSpec when it is given.
    Pooled workers (`threads` > 1) see the module state of the moment the pool started.
    """
    windows, truths, keep = _cells(spec, windows, functional, eigentriples)
    exp_id = f"{spec.kind}:{functional}"
    experiment = _surface_experiment(spec, exp_id, functional, truths, keep)
    msd, rmse, failures = _window_stats(_replicate([experiment], master_seed, reps, threads)[0])
    return ErrorSurface(
        spec=spec,
        functional=functional,
        windows=windows,
        msd=msd,
        rmse=rmse,
        failures=failures,
        reps=reps,
        master_seed=master_seed,
        experiment_id=exp_id,
    )


def _point_row(truth, pts, triples, row) -> None:
    row[:] = rank_reconstruction(triples[0])[pts] - truth.signal[pts]


def mc_point_errors(
    spec: SignalSpec,
    L: int,
    points,
    reps: int,
    master_seed: int = 0,
    threads: Optional[int] = None,
) -> np.ndarray:
    """Per-replication reconstruction errors at chosen series indices.

    Returns an array of shape (reps, len(points)); used to compare empirical
    per-point variance with the closed-form asymptotic expression.
    Pooled workers (`threads` > 1) see the module state of the moment the pool started.
    """
    truth = _make_truth(spec, L)
    pts = np.asarray(points)
    if pts.dtype.kind not in "iu" or pts.size == 0 or pts.min() < 0 or pts.max() >= spec.n:
        raise InvalidSpec(f"points must be indices in 0..N-1 = 0..{spec.n - 1}, got {points!r}")
    exp_id = f"{spec.kind}:point:L={truth.L}"
    experiment = (spec, exp_id, [(truth.L, truth.rank)], partial(_point_row, truth, pts), pts.size)
    return _replicate([experiment], master_seed, reps, threads)[0]


# -- convergence ratios -------------------------------------------------------


def window_for_policy(policy: str, n: int, rank: int) -> int:
    """Resolve a window policy name to a window length for series length n."""
    if policy == "r+1":
        return rank + 1
    if policy in ("20", "25"):
        return int(policy)
    if policy == "half-5":
        return (n + 1) // 2 - 5
    if policy == "half":
        return (n + 1) // 2
    raise InvalidSpec(f"unknown window policy {policy!r}; expected one of {WINDOW_POLICIES}")


@dataclass(frozen=True)
class ConvergenceReport:
    """RMSE ratio between series lengths n1 and 4 n1 under one window policy.

    delta = rmse1 / rmse2; ratios near 8, 2 and 1 flag convergence rates
    N^-1.5, N^-0.5 and none. Cells where the error vanishes to rounding
    (exact separability) carry delta = None.
    """

    window1: int
    window2: int
    rmse1: float
    rmse2: float
    delta: Optional[float]
    failures1: int
    failures2: int


def convergence_ratio(
    spec: SignalSpec,
    n1: int,
    functional: str,
    policy: str,
    reps: int,
    master_seed: int = 0,
    threads: Optional[int] = None,
) -> ConvergenceReport:
    """Run the same experiment at lengths n1 and 4 n1 and report the RMSE ratio.
    Pooled workers (`threads` > 1) see the module state of the moment the pool started."""
    rank = _finite_rank(spec)
    windows, experiments = [], []
    for n in (n1, 4 * n1):
        spec_n = replace(spec, n=n)
        (L,), truths, keep = _cells(spec_n, [window_for_policy(policy, n, rank)], functional, None)
        windows.append(L)
        exp_id = f"{spec.kind}:{functional}:{policy}:N={n}"
        experiments.append(_surface_experiment(spec_n, exp_id, functional, truths, keep))
    stats = [_window_stats(errors) for errors in _replicate(experiments, master_seed, reps, threads)]
    L1, L2 = windows
    rmse1, rmse2 = (float(rmse[0]) for _, rmse, _ in stats)
    fail1, fail2 = (int(failures[0]) for _, _, failures in stats)
    separable = rmse1 < EXACT_SEPARABILITY_RMSE or rmse2 < EXACT_SEPARABILITY_RMSE
    return ConvergenceReport(
        window1=L1,
        window2=L2,
        rmse1=rmse1,
        rmse2=rmse2,
        delta=None if separable else rmse1 / rmse2,
        failures1=fail1,
        failures2=fail2,
    )


# -- closed-form variance of reconstruction errors ----------------------------


def _d1(beta: float, gamma: float) -> float:
    return (
        gamma**2 * (1 + beta)
        - 2 * gamma * (1 + beta) ** 2
        + 4 * beta * (3 - 3 * beta + 2 * beta**2)
    ) / (12 * beta**2 * (1 - beta) ** 2)


def _d2(beta: float, gamma: float) -> float:
    poly = (
        gamma**4
        + 2 * gamma**3 * (3 * beta - 2 - 3 * beta**2)
        + 2 * gamma**2 * (3 - 9 * beta + 12 * beta**2 - 4 * beta**3)
        + 4 * gamma * (-1 + 4 * beta - 3 * beta**2 - 4 * beta**3 + 4 * beta**4)
        + (8 * beta - 56 * beta**2 + 144 * beta**3 - 160 * beta**4 + 64 * beta**5)
    )
    return poly / (6 * beta**2 * (1 - beta) ** 2 * gamma**2)


def _d3(beta: float, gamma: float) -> float:
    return 2.0 / (3.0 * beta)


def asymptotic_variance(beta: float, gamma: float, sigma: float, n: int) -> float:
    """First-order variance of the reconstruction error of a noisy constant signal.

    beta is the window fraction L/N, gamma in [0, 2] locates the point
    (gamma = 1 is the series middle). Symmetries beta <-> 1-beta and
    gamma <-> 2-gamma fold the arguments into the canonical quadrant, then
    the piecewise form selects a branch at gamma = 2 min(beta, 1-2 beta)
    and gamma = 2 beta. Returns sigma^2 / n times the branch value.
    """
    if not 0.0 < beta < 1.0:
        raise OutOfDomain(f"beta must lie in (0, 1), got {beta}")
    if not 0.0 <= gamma <= 2.0:
        raise OutOfDomain(f"gamma must lie in [0, 2], got {gamma}")
    if not (np.isfinite(sigma) and sigma >= 0 and np.isfinite(n) and n >= 1):
        raise OutOfDomain(f"need finite sigma >= 0 and finite n >= 1, got sigma={sigma}, n={n}")
    if beta > 0.5:
        beta = 1.0 - beta
    if gamma > 1.0:
        gamma = 2.0 - gamma
    first_break = 2.0 * min(beta, 1.0 - 2.0 * beta)
    if gamma <= first_break:
        d = _d1(beta, gamma)
    elif gamma < 2.0 * beta:
        d = _d2(beta, gamma)
    else:
        d = _d3(beta, gamma)
    return sigma * sigma / n * d


# -- forecast error decomposition ---------------------------------------------


@dataclass(frozen=True)
class ForecastErrorSplit:
    """One-step forecast RMSE split into its two first-order sources.

    lrf_only applies the estimated recurrence to true signal values (errors
    from the recurrence coefficients alone); rec_only applies the exact
    recurrence to the reconstructed tail (errors from reconstruction alone);
    total uses both estimated parts.
    """

    rmse_total: float
    rmse_lrf_only: float
    rmse_rec_only: float
    failures: int


def _split_row(truth, exact_lrf, triples, row) -> None:
    try:
        est_lrf = min_norm_lrf(triples[0].u)
    except VerticalSubspace:
        return  # the row stays NaN
    rec = rank_reconstruction(triples[1])
    tail_rec = rec[-est_lrf.size:]
    tail_true = truth.signal[-est_lrf.size:]
    row[0] = float(est_lrf @ tail_rec) - truth.next_value
    row[1] = float(est_lrf @ tail_true) - truth.next_value
    row[2] = float(exact_lrf @ tail_rec) - truth.next_value


def forecast_error_split(
    spec: SignalSpec,
    lrf_window: int,
    rec_window: int,
    reps: int,
    master_seed: int = 0,
    threads: Optional[int] = None,
) -> ForecastErrorSplit:
    """Separate recurrence-estimation error from reconstruction error, one step ahead.
    Pooled workers (`threads` > 1) see the module state of the moment the pool started."""
    truth = _make_truth(spec, lrf_window)
    rec_window = _make_truth(spec, rec_window).L  # checks it the same way
    try:
        exact_lrf = min_norm_lrf(truth.exact_u)
    except VerticalSubspace as exc:
        raise InvalidSpec(f"no exact recurrence: the exact subspace at L={truth.L} is"
                          f" vertical ({exc})") from exc
    exp_id = f"{spec.kind}:forecast-split:Llrf={truth.L}"

    shapes = [(truth.L, truth.rank), (rec_window, truth.rank)]
    experiment = (spec, exp_id, shapes, partial(_split_row, truth, exact_lrf), 3)
    _, rmse, failures = _window_stats(_replicate([experiment], master_seed, reps, threads)[0])
    return ForecastErrorSplit(
        rmse_total=float(rmse[0]),
        rmse_lrf_only=float(rmse[1]),
        rmse_rec_only=float(rmse[2]),
        failures=int(failures[0]),
    )


# -- red-noise projector bound -------------------------------------------------


def red_noise_projector_bound(spec: SignalSpec, L: int) -> float:
    """Size of the non-vanishing projector-error term under red-noise residuals.

    Evaluates K (S S^T)^+ Sigma (I - U U^T) with S the noise-free trajectory
    matrix, Sigma the AR(1) autocovariance and U the exact signal basis. The
    norm is not pinned down by the derivation; this returns the spectral
    norm, so treat the value as an interpretation rather than a quotation.
    The kind fixes the residual: InvalidSpec unless it is damped_cos_rn.
    """
    if spec.kind != "damped_cos_rn":
        raise InvalidSpec(f"kind {spec.kind!r} has no red-noise residual; need damped_cos_rn")
    Ur = _make_truth(spec, L).exact_u
    S = embed(signal_values(spec), L)
    K = S.shape[1]
    SU = S.T @ Ur  # (S S^T)^+ = Ur (Ur^T S S^T Ur)^-1 Ur^T for any orthonormal Ur
    gram_pinv = Ur @ np.linalg.solve(SU.T @ SU, Ur.T)
    lag = np.arange(L)
    cov = spec.sigma**2 * (spec.alpha**lag)[np.abs(lag[:, None] - lag)]
    M = K * gram_pinv @ cov @ (np.eye(L) - Ur @ Ur.T)
    return float(np.linalg.norm(M, 2))


# -- experiment configuration ---------------------------------------------------


_CONFIG_KEYS = {"signal", "windows", "reps", "functional", "eigentriples", "seed", "output"}
_SIGNAL_KEYS = {f.name for f in fields(SignalSpec)}


def _config_object(value, known: set, what: str) -> dict:
    """`value`, or InvalidSpec unless it is a dict whose keys all lie in `known`."""
    if not isinstance(value, dict):
        raise InvalidSpec(f"{what} must be a JSON object")
    unknown = set(value) - known
    if unknown:
        raise InvalidSpec(f"unknown {what} keys: {sorted(unknown)}")
    return value


@dataclass(frozen=True)
class ExperimentConfig:
    """Parsed simulate-command configuration."""

    spec: SignalSpec
    windows: tuple
    reps: int
    functional: str
    seed: int
    output: Optional[str] = None
    eigentriples: Optional[int] = None

    @staticmethod
    def from_dict(doc: dict) -> "ExperimentConfig":
        _config_object(doc, _CONFIG_KEYS, "experiment config")
        sig = _config_object(doc.get("signal"), _SIGNAL_KEYS, "'signal'")
        if "kind" not in sig or "n" not in sig:
            raise InvalidSpec("config needs a 'signal' object with 'kind' and 'n'")
        windows = doc.get("windows")
        if not isinstance(windows, (list, tuple)):
            raise InvalidSpec("config needs a nonempty 'windows' list")
        reps = integer("reps", doc.get("reps", 100), InvalidSpec, minimum=1)
        seed = integer("seed", doc.get("seed", 0), InvalidSpec)
        output = doc.get("output")
        if output is not None and not isinstance(output, str):
            raise InvalidSpec(f"'output' must be a string, got {output!r}")
        try:
            spec = SignalSpec(**sig)
        except TypeError as exc:
            raise InvalidSpec(f"bad signal field value: {exc}") from exc
        functional = doc.get("functional", "reconstruction")
        ets = doc.get("eigentriples")
        windows, _, _ = _cells(spec, windows, functional, ets)
        return ExperimentConfig(
            spec=spec,
            windows=windows,
            reps=reps,
            functional=functional,
            seed=seed,
            output=output,
            eigentriples=ets,
        )


def run_experiment(config: ExperimentConfig, threads: Optional[int] = None) -> ErrorSurface:
    """mc_error_surface of a parsed config.
    Pooled workers (`threads` > 1) see the module state of the moment the pool started."""
    return mc_error_surface(
        config.spec,
        config.windows,
        config.reps,
        config.functional,
        master_seed=config.seed,
        threads=threads,
        eigentriples=config.eigentriples,
    )
