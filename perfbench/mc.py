"""Monte-Carlo workloads: one caller in a closed loop of convergence_ratio calls.

Each call runs one acceptance cell at `Cell.reps` replications, i.e.
2 * reps evaluations (one window at n1 and one at 4 n1). The replication
counts keep the per-call fixed cost (truth set-up, pool start-up) within a
few per cent of a call, as at the acceptance tests' 500 replications
(baseline.json, "reps_overhead"). A round runs one call at the default pool
size and repeats its seed with threads=1; the repeat must be bit-identical
to the pool result. Rounds alternate which mode goes first. Each mode's
throughput is its evaluations over its seconds, summed over all rounds: the
host's speed swings for seconds at a time, and the pooled rate weighs every
second of the run alike where a median of per-round rates jumps with the
share of slow rounds.

The latency metrics on these workloads are those of one replication (its
evaluations at both lengths) in the threads=1 call; see _timed_replications.
At the default pool the two workers contend, a replication's latency falls
into one of two modes, and the share of each moves the median from run to
run; with one worker it has one mode.
"""

from __future__ import annotations

import contextlib
import statistics
import time
from dataclasses import dataclass

import numpy as np

from tally import Tally
from tracing import Tracer, has_tail, quantile

MIN_LATENCY_SAMPLES = 200
# A run that is still short of latency samples this long after it started
# stops and reports what it has, with the latency_samples check failed.
GIVE_UP_S = 120.0
ORACLE_REPS = 2  # replications per window length checked against the dense route
ORACLE_SIGMA_RTOL = 1e-9
ORACLE_SUBSPACE_TOL = 1e-7
ORACLE_RECON_ATOL = 1e-9


@dataclass(frozen=True)
class Cell:
    kind: str
    n1: int
    functional: str
    policy: str
    reps: int
    last_call: str  # the simlab-bound function whose return ends an evaluation
    sigma: float = 0.1
    alpha: float = 0.5

    def spec(self, n=None):
        from ssalab.signals import SignalSpec

        return SignalSpec(self.kind, n=n or self.n1, b=1.0, sigma=self.sigma, alpha=self.alpha)

    def windows(self):
        from ssalab.signals import exact_rank
        from ssalab.simlab import window_for_policy

        r = exact_rank(self.spec())
        return [(n, window_for_policy(self.policy, n, r)) for n in (self.n1, 4 * self.n1)]


CELLS = {
    # test_convergence_reconstruction_wn: L=200 at N=399, L=798 at N=1596, rank 2
    "mc-proportional": Cell("damped_cos_wn", 399, "reconstruction", "half", reps=50,
                            last_call="rank_reconstruction"),
    # test_convergence_projector_rn_full_scale: L=20 at N=6399 and N=25596
    "mc-narrow-red": Cell("damped_cos_rn", 6399, "projector", "20", reps=20,
                          last_call="subspace_distance"),
}


def prepare(cell: Cell) -> None:
    """Untimed set-up the loop relies on: the exact bases of both lengths."""
    from ssalab.signals import exact_basis

    for n, L in cell.windows():
        exact_basis(cell.spec(n), L)


def _key(rep):
    return (rep.rmse1, rep.rmse2, rep.delta, rep.failures1, rep.failures2)


def _same(a, b) -> bool:
    """Bit-identical report fields (NaN equal to NaN)."""
    return all(
        np.asarray(x).tobytes() == np.asarray(y).tobytes() for x, y in zip(_key(a), _key(b))
    )


@contextlib.contextmanager
def _timed_replications(cell: Cell, samples: list):
    """Append to `samples` the latency of each replication made inside the block.

    A replication's latency is the sum over its two series lengths of the
    time from its derive_seed call to the return of the functional's last
    call into another layer. The block runs one worker (threads=1).
    """
    import ssalab.simlab as simlab

    derive, last = simlab.derive_seed, getattr(simlab, cell.last_call)
    current = {}
    parts: dict[int, list] = {}

    def derive_seed(master_seed, experiment_id, rep_index):
        current["rep"], current["t0"] = rep_index, time.perf_counter()
        return derive(master_seed, experiment_id, rep_index)

    def finish(*args, **kwargs):
        out = last(*args, **kwargs)
        parts.setdefault(current["rep"], []).append(time.perf_counter() - current["t0"])
        return out

    simlab.derive_seed = derive_seed
    setattr(simlab, cell.last_call, finish)
    try:
        yield
    finally:
        simlab.derive_seed = derive
        setattr(simlab, cell.last_call, last)
    samples.extend(sum(p) for p in parts.values() if len(p) == 2)


class _Loop:
    """State of one closed-loop run: counts, timings and failed checks."""

    def __init__(self, cell: Cell, seed: int):
        from ssalab.simlab import convergence_ratio

        self.cell = cell
        self.seed = seed
        self.spec = cell.spec()
        self.convergence_ratio = convergence_ratio
        self.tally = Tally()
        self.oracle_worst = {"sigma_rel": 0.0, "subspace": 0.0, "recon_abs": 0.0}

    def master_seed(self, k: int) -> int:
        return self.seed * 1_000_000 + k

    def call(self, k: int, threads, tracer: Tracer | None = None):
        """One closed-loop request; returns (report or None, seconds)."""
        evals = 2 * self.cell.reps
        self.tally.attempted += evals
        args = (self.spec, self.cell.n1, self.cell.functional, self.cell.policy)
        kwargs = dict(reps=self.cell.reps, master_seed=self.master_seed(k), threads=threads)
        t0 = time.perf_counter()
        try:
            if tracer is None:
                rep = self.convergence_ratio(*args, **kwargs)
            else:
                rep = tracer.call("simlab.convergence_ratio", self.convergence_ratio, *args, **kwargs)
        except Exception as exc:  # a failed request is counted, the loop goes on
            self.tally.failed += evals
            self.tally.check("no_exceptions", f"{type(exc).__name__}: {exc}")
            return None, time.perf_counter() - t0
        dt = time.perf_counter() - t0
        self.tally.failed += rep.failures1 + rep.failures2
        return rep, dt

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.tally.check(name, None if ok else detail or "failed")


def _oracle_check(loop: _Loop, k: int, reference) -> None:
    """Recompute a sample of one call's replications through decompose(embed(...)).

    The first ORACLE_REPS leading_triples calls at each series length are
    repeated on the dense route and compared; the call's report must still
    match the reference (pool) result bit for bit.
    """
    import ssalab.simlab as simlab
    from ssalab.core import decompose, embed, rank_reconstruction

    fast = simlab.leading_triples
    worst = loop.oracle_worst
    seen: dict[int, int] = {}

    def checked(series, L, rank):
        t = fast(series, L, rank)
        seen[len(series)] = seen.get(len(series), 0) + 1
        if seen[len(series)] > ORACLE_REPS:
            return t
        d = decompose(embed(series, L))
        s_ref = d.sigmas[:rank]
        U_ref = d.u[:, :rank]
        worst["sigma_rel"] = max(worst["sigma_rel"], float(np.max(np.abs(t.sigmas - s_ref)) / s_ref[0]))
        resid = t.u - U_ref @ (U_ref.T @ t.u)
        worst["subspace"] = max(worst["subspace"], float(np.linalg.norm(resid, 2)))
        dense = (U_ref * s_ref) @ d.v[:, :rank].T
        rec = np.bincount(
            np.add.outer(np.arange(dense.shape[0]), np.arange(dense.shape[1])).ravel(),
            weights=dense.ravel(),
        ) / np.convolve(np.ones(dense.shape[0]), np.ones(dense.shape[1]))
        worst["recon_abs"] = max(worst["recon_abs"], float(np.max(np.abs(rank_reconstruction(t) - rec))))
        return t

    simlab.leading_triples = checked
    try:
        rep, _ = loop.call(k, threads=1)
    finally:
        simlab.leading_triples = fast
    ok = (
        worst["sigma_rel"] <= ORACLE_SIGMA_RTOL
        and worst["subspace"] <= ORACLE_SUBSPACE_TOL
        and worst["recon_abs"] <= ORACLE_RECON_ATOL
    )
    loop.check("dense_oracle", ok, f"worst deviations {worst}")
    if rep is not None and reference is not None:
        loop.check("oracle_call_bit_identical", _same(rep, reference))


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run the closed loop; return metrics, counts and checks."""
    from ssalab.signals import exact_basis
    from ssalab.simlab import pool_size

    cell = CELLS[name]
    loop = _Loop(cell, seed)
    tracer = Tracer(f"{name}-seed{seed}") if trace else None
    traced_wall = 0.0
    if tracer is None:
        prepare(cell)
    else:  # the same preparation, traced, so exact_basis shows its set-up cost
        t0 = time.perf_counter()
        with tracer.installed():
            for n, L in cell.windows():
                tracer.call("signals.exact_basis", exact_basis, cell.spec(n), L)
        traced_wall += time.perf_counter() - t0

    evals = 2 * cell.reps
    pool_s, single_s, traced_ratio = [], [], []
    latencies: list[float] = []
    first = last = None
    rnd = 0
    start = time.perf_counter()
    while True:
        now = time.perf_counter()
        enough = trace or len(latencies) >= MIN_LATENCY_SAMPLES
        if rnd > 0 and ((now >= start + seconds and enough) or now >= start + GIVE_UP_S):
            break

        def single_phase():
            if trace:
                return loop.call(rnd, threads=1)
            with _timed_replications(cell, latencies):
                return loop.call(rnd, threads=1)

        if rnd % 2 == 0:
            pool_rep, t_pool = loop.call(rnd, threads=None)
            single_rep, t1 = single_phase()
        else:
            single_rep, t1 = single_phase()
            pool_rep, t_pool = loop.call(rnd, threads=None)
        pool_s.append(t_pool)
        single_s.append(t1)
        if single_rep is not None and pool_rep is not None:
            loop.check("pool_equals_threads1", _same(single_rep, pool_rep), f"seed index {rnd}")
        if tracer is not None:
            with tracer.installed():
                traced_rep, t_tr = loop.call(rnd, threads=1, tracer=tracer)
            traced_wall += t_tr
            traced_ratio.append(t_tr / t1)
            if traced_rep is not None and pool_rep is not None:
                loop.check("traced_equals_pool", _same(traced_rep, pool_rep), f"seed index {rnd}")
        if first is None:
            first = (rnd, pool_rep)
        last = (rnd, pool_rep)
        rnd += 1
    measured_s = time.perf_counter() - start

    for s, ref in (first, last):
        _oracle_check(loop, s, ref)

    metrics = {
        "evals_per_s": evals * len(pool_s) / sum(pool_s),
        "evals_per_s_1t": evals * len(single_s) / sum(single_s),
    }
    if tracer is None:
        loop.check("latency_samples", has_tail(len(latencies), 0.95),
                   f"{len(latencies)} latency samples after {measured_s:.0f} s")
        metrics["cmd_ms_p50"] = 1e3 * quantile(latencies, 0.5)
        metrics["cmd_ms_p95"] = 1e3 * quantile(latencies, 0.95)
    info = {
        "rounds": rnd,
        "pool_call_s": pool_s,
        "single_call_s": single_s,
        "measured_s": measured_s,
        "latency_samples": len(latencies),
        "reps_per_call": cell.reps,
        "windows": cell.windows(),
        "pool_size": pool_size(),
        "oracle_reps_per_length": ORACLE_REPS,
        "oracle_tolerances": {
            "sigma_rel": ORACLE_SIGMA_RTOL,
            "subspace": ORACLE_SUBSPACE_TOL,
            "recon_abs": ORACLE_RECON_ATOL,
        },
        "oracle_worst": loop.oracle_worst,
    }
    return {
        "metrics": metrics,
        "attempted": loop.tally.attempted,
        "failed": loop.tally.failed,
        "checks": loop.tally.checks,
        "info": info,
        "tracer": tracer,
        "traced_wall": traced_wall,
        "overhead_frac": statistics.median(traced_ratio) - 1.0 if traced_ratio else None,
    }
