"""cli-session workload: one client running a fixed, interleaved script of
ssalab commands in process through ssalab.cli.main(argv).

The inputs are sums of two cosines with seed-drawn frequencies and phases:
a.csv (N=200, white noise 0.1), b.csv (N=1000, white noise 0.1) and c.csv
(N=200, noise-free, so the decomposition keeps only the 4 signal triples and
the MUSIC methods take the noise-complement route). One cycle is
SMALL_BLOCKS blocks; each runs the N=200/L=50, N=1000/L=50 and noise-free
commands and a share of the 9 N=1000/L=500 commands. Blocks SIM_BLOCKS end
with simulate on both checked-in configs, at their own replication counts,
at the default pool size and again with one thread. Every
command's output is checked after its latency is taken; whole cycles run
until --seconds is reached, and at least MIN_LATENCY_SAMPLES commands.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import statistics
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from tally import Tally
from tracing import Tracer, has_tail, quantile

RANK = 4
FORECAST_STEPS = 20
SMALL_BLOCKS = 5
MIN_LATENCY_SAMPLES = 200
NOISE_SIGMA = 0.1
FREQ_TOL = 2e-3
RECON_RMSE_TOL = 0.1
FORECAST_ATOL = 0.3
CONFIGS = ("projector_white_noise", "two_cos_table")
SIM_BLOCKS = (1, 3)
SERIES = {"a": (200, NOISE_SIGMA), "b": (1000, NOISE_SIGMA), "c": (200, 0.0)}


@dataclass
class Truth:
    freqs: np.ndarray
    clean: np.ndarray  # signal values over the series plus FORECAST_STEPS


@dataclass
class Command:
    argv: list
    label: str
    check: Optional[Callable[[], Optional[str]]] = None  # returns a failure or None
    single_thread: bool = False
    pool_twin: bool = False  # a default-pool simulate whose result a 1-thread run repeats
    evals: int = 0


def prepare(workdir: Path, seed: int) -> dict[str, Truth]:
    """Write the input series; return their generating frequencies and clean values."""
    rng = np.random.default_rng(seed)
    truths = {}
    for name, (n, sigma) in SERIES.items():
        freqs = np.array([rng.uniform(0.05, 0.12), rng.uniform(0.18, 0.30)])
        phases = rng.uniform(0.0, 2.0 * np.pi, 2)
        k = np.arange(n + FORECAST_STEPS)
        clean = np.cos(2 * np.pi * freqs[0] * k + phases[0]) + 0.8 * np.cos(
            2 * np.pi * freqs[1] * k + phases[1]
        )
        observed = clean[:n] + sigma * rng.standard_normal(n)
        with open(workdir / f"{name}.csv", "w", encoding="utf-8") as fh:
            fh.write("value\n")
            fh.writelines(repr(float(x)) + "\n" for x in observed)
        truths[name] = Truth(freqs=freqs, clean=clean)
    return truths


def _column(path: Path, col: int = 0) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        rows = fh.read().split("\n")[1:]
    return np.array([float(r.split(",")[col]) for r in rows if r])


def _freq_failure(found, truth: Truth) -> Optional[str]:
    found = np.asarray(found, dtype=float)
    if found.size == 0:
        return "no frequencies"
    err = max(
        max(np.min(np.abs(found - f)) for f in truth.freqs),
        max(np.min(np.abs(truth.freqs - f)) for f in found),
    )
    return None if err <= FREQ_TOL else f"frequency error {err:.3g} > {FREQ_TOL}"


def _peak_freqs(path: Path, count: int) -> np.ndarray:
    om, val = _column(path, 0), _column(path, 1)
    inner = np.arange(1, val.size - 1)
    peaks = inner[(val[inner] > val[inner - 1]) & (val[inner] > val[inner + 1])]
    return om[peaks[np.argsort(-val[peaks])][:count]]


def script(workdir: Path, truths: dict[str, Truth], seed: int, config_dir: Path,
           cycle_index: int = 0) -> list[Command]:
    """One cycle of the session; simulate seeds differ between rounds and cycles."""
    w = workdir

    def block(name: str, L: int, full: bool = True) -> list[Command]:
        inp, truth, tag = str(w / f"{name}.csv"), truths[name], f"{name}L{L}"
        n = SERIES[name][0]
        base = ["-i", inp, "-L", str(L)]
        d_json, rec, rec2 = w / f"{tag}.json", w / f"{tag}-rec.csv", w / f"{tag}-rec2.csv"
        shape = f"N={n} L={L}"

        def est(method):
            out = w / f"{tag}-{method}.csv"
            return Command(
                ["estimate", *base, "-r", str(RANK), "--method", method, "-o", str(out)],
                f"estimate {method} {shape}",
                lambda: _freq_failure(_column(out), truth),
            )

        ps_out = w / f"{tag}-ps.csv"
        pseudo = Command(
            ["pseudospectrum", *base, "-r", str(RANK), "--method", "music", "-o", str(ps_out)],
            f"pseudospectrum music {shape}",
            lambda: _freq_failure(_peak_freqs(ps_out, RANK // 2), truth),
        )

        def rec_check():
            err = math.sqrt(float(np.mean((_column(rec) - truth.clean[:n]) ** 2)))
            return None if err <= RECON_RMSE_TOL else f"reconstruction rmse {err:.3g}"

        recon = Command(["reconstruct", *base, "--group", f"1-{RANK}", "-o", str(rec)],
                        f"reconstruct {shape}", rec_check)
        if not full:
            return [recon, est("music"), pseudo]

        def from_dec_check():
            same = rec.read_bytes() == rec2.read_bytes()
            return None if same else "--from-decomposition differs from direct reconstruct"

        fc_out = w / f"{tag}-fc.csv"

        def fc_check():
            fc = _column(fc_out)
            if fc.size != FORECAST_STEPS:
                return f"{fc.size} forecast values, expected {FORECAST_STEPS}"
            err = float(np.max(np.abs(fc - truth.clean[n:])))
            return None if err <= FORECAST_ATOL else f"forecast error {err:.3g}"

        cmds = [
            Command(["decompose", *base, "-o", str(d_json)], f"decompose {shape}"),
            Command(
                ["decompose", *base, "--toeplitz", "-o", str(w / f"{tag}-t.json")],
                f"decompose --toeplitz {shape}",
            ),
            recon,
            Command(
                ["reconstruct", "--from-decomposition", str(d_json), "--group", f"1-{RANK}",
                 "-o", str(rec2)],
                f"reconstruct --from-decomposition {shape}",
                from_dec_check,
            ),
            Command(
                ["forecast", *base, "-r", str(RANK), "--steps", str(FORECAST_STEPS), "-o", str(fc_out)],
                f"forecast {shape}",
                fc_check,
            ),
            est("esprit-tls"),
            est("root-music"),
            est("root-minnorm"),
            pseudo,
        ]
        if L <= 50:
            cmds.append(est("music"))  # the peak-picking route through find_peaks
        return cmds

    def simulate(cfg: str, rnd: int) -> list[Command]:
        path = config_dir / f"{cfg}.json"
        doc = json.loads(path.read_text(encoding="utf-8"))
        evals = doc["reps"] * len(doc["windows"])
        pool, single = w / f"{cfg}-{rnd}-pool", w / f"{cfg}-{rnd}-1t"
        sim_seed = seed * 1000 + cycle_index * SMALL_BLOCKS + rnd
        argv = ["simulate", "--config", str(path), "--seed", str(sim_seed), "-o"]

        def same_as_pool():
            for ext in (".csv", ".json"):
                if (Path(str(pool) + ext)).read_bytes() != (Path(str(single) + ext)).read_bytes():
                    return f"threads=1 {ext} differs from the default-pool result"
            failures = json.loads(Path(str(single) + ".json").read_text())["failures"]
            return None if not any(failures) else f"failures {failures}"

        return [
            Command(argv + [str(pool)], f"simulate {cfg}", pool_twin=True, evals=evals),
            Command(argv + [str(single)], f"simulate {cfg} threads=1", same_as_pool,
                    single_thread=True, evals=evals),
        ]

    big = block("b", 500)
    cycle: list[Command] = []
    for i in range(SMALL_BLOCKS):
        cycle += block("a", 50) + block("b", 50) + block("c", 50, full=False)
        cycle += big[i * len(big) // SMALL_BLOCKS:(i + 1) * len(big) // SMALL_BLOCKS]
        if i in SIM_BLOCKS:
            cycle += simulate(CONFIGS[0], i) + simulate(CONFIGS[1], i)
    return cycle


@contextlib.contextmanager
def _threads(single: bool):
    """Cap the simulate pool at one worker through SSA_LAB_THREADS."""
    old = os.environ.get("SSA_LAB_THREADS")
    if single:
        os.environ["SSA_LAB_THREADS"] = "1"
    try:
        yield
    finally:
        if single:
            if old is None:
                del os.environ["SSA_LAB_THREADS"]
            else:
                os.environ["SSA_LAB_THREADS"] = old


def run_command(cmd: Command, tally: Tally, tracer: Optional[Tracer] = None) -> float:
    """Run one command; count it, check it, return its latency in seconds.

    With a tracer, simulate runs with one worker, so spans nest on one thread.
    """
    from ssalab.cli import main

    tally.attempted += 1
    err = io.StringIO()
    t0 = time.perf_counter()
    try:
        with _threads(cmd.single_thread or tracer is not None), contextlib.redirect_stderr(err):
            code = main(cmd.argv) if tracer is None else tracer.call("cli.main", main, cmd.argv)
    except SystemExit as exc:  # argparse rejects bad flags by exiting
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a crashed command is counted, the session goes on
        code = f"{type(exc).__name__}: {exc}"
    dt = time.perf_counter() - t0
    if code != 0:
        tally.check("exit_0", f"{cmd.label}: exit {code} {err.getvalue().strip()}")
        return dt
    tally.check("exit_0", None)
    if cmd.check is not None:
        try:
            failure = cmd.check()
        except (OSError, ValueError, KeyError) as exc:
            failure = f"unreadable output: {exc}"
        tally.check(cmd.label.split(" N=")[0], None if failure is None else f"{cmd.label}: {failure}")
    return dt


def run_cycle(cycle, tally: Tally, tracer=None):
    """Run one cycle; return per-command latencies.

    A traced cycle skips the default-pool simulates (None in their place):
    their one-thread twins repeat the same work.
    """
    return [None if tracer is not None and cmd.pool_twin else run_command(cmd, tally, tracer)
            for cmd in cycle]


def warmup(cycle: list[Command]) -> list[Command]:
    """First instance of every command that repeats within a cycle.

    Running these once, untimed, keeps lazy imports and first-call costs out
    of the latencies; import cost is what setup_s measures.
    """
    counts = Counter(c.label for c in cycle)
    seen: set = set()
    out = []
    for c in cycle:
        if counts[c.label] > 1 and c.label not in seen:
            seen.add(c.label)
            out.append(c)
    return out


def _rate(commands, latencies, pool: bool) -> float:
    """Evaluations per second over all simulate commands at one pool setting.

    A run holds only a few simulate rounds, so their work is pooled rather
    than a median taken over rounds.
    """
    runs = [(c.evals, t) for c, t in zip(commands, latencies) if c.evals and c.pool_twin == pool]
    return sum(e for e, _ in runs) / sum(t for _, t in runs)


def run(name: str, seed: int, seconds: float, trace: bool, workdir: Path, config_dir: Path) -> dict:
    from ssalab.simlab import pool_size

    truths = prepare(workdir, seed)
    tally = Tally()
    run_cycle(warmup(script(workdir, truths, seed, config_dir)), tally)
    tracer = Tracer(f"{name}-seed{seed}") if trace else None
    ran: list[Command] = []
    latencies: list[float] = []
    overhead = []
    traced_wall = 0.0
    cycles = 0
    start = time.perf_counter()
    hard_stop = start + 3 * seconds
    while True:
        elapsed = time.perf_counter() - start
        per_cycle = elapsed / cycles if cycles else 0.0
        enough = cycles >= 1 if trace else len(latencies) >= MIN_LATENCY_SAMPLES
        if enough and (elapsed + per_cycle > seconds or time.perf_counter() >= hard_stop):
            break
        cycle = script(workdir, truths, seed, config_dir, cycles)
        lat = run_cycle(cycle, tally)
        ran += cycle
        latencies += lat
        if tracer is not None:
            t0 = time.perf_counter()
            with tracer.installed():
                traced = run_cycle(cycle, tally, tracer)
            traced_wall += time.perf_counter() - t0
            pairs = [(u, t) for u, t in zip(lat, traced) if t is not None]
            overhead.append(sum(t for _, t in pairs) / sum(u for u, _ in pairs) - 1.0)
        cycles += 1
    measured_s = time.perf_counter() - start

    metrics = {
        "evals_per_s": _rate(ran, latencies, True),
        "evals_per_s_1t": _rate(ran, latencies, False),
    }
    if tracer is None:
        tally.check("latency_samples", None if has_tail(len(latencies), 0.95)
                    else f"{len(latencies)} latency samples")
        metrics["cmd_ms_p50"] = 1e3 * quantile(latencies, 0.5)
        metrics["cmd_ms_p95"] = 1e3 * quantile(latencies, 0.95)
    by_label: dict[str, list] = {}
    for c, t in zip(ran, latencies):
        by_label.setdefault(c.label, []).append(t)
    info = {
        "cycles": cycles,
        "commands_per_cycle": len(ran) // max(cycles, 1),
        "measured_s": measured_s,
        "latency_samples": len(latencies),
        "pool_size": pool_size(),
        "tolerances": {
            "frequency_abs": FREQ_TOL,
            "reconstruction_rmse": RECON_RMSE_TOL,
            "forecast_abs": FORECAST_ATOL,
        },
        "frequencies": {k: v.freqs.tolist() for k, v in truths.items()},
        "command_ms": {k: [1e3 * t for t in v] for k, v in by_label.items()},
    }
    return {
        "metrics": metrics,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "checks": tally.checks,
        "info": info,
        "tracer": tracer,
        "traced_wall": traced_wall,
        "overhead_frac": statistics.median(overhead) if overhead else None,
    }
