"""ssalab benchmark: one workload per invocation, one JSON result line.

    python3 perfbench/run.py --workload mc-proportional --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; ssalab is imported from ./src.
With --trace 0 the result holds the end-to-end metrics of BENCHMARK.json,
with --trace 1 the per-layer ones, taken from spans recorded around calls
into ssalab. The last stdout line is the result; the line before it is the
environment record. Both, with every check, also go to perfbench-out/, and a
traced run writes its spans there.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / "perfbench-out"
WORKLOADS = ("mc-proportional", "mc-narrow-red", "cli-session")
SETUP_TRIALS = 3
SETUP_TIMEOUT_S = 60

# A fresh interpreter imports ssalab and prepares the workload; its wall time,
# spawn to exit, is one set-up sample.
_SETUP_SNIPPET = """
import sys
from pathlib import Path
sys.path[:0] = [{src!r}, {bench!r}]
workload, seed, workdir = {workload!r}, {seed!r}, Path({workdir!r})
import ssalab
if workload == "cli-session":
    import session
    session.prepare(workdir, seed)
else:
    import mc
    mc.prepare(mc.CELLS[workload])
"""


def declared_metrics(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in doc["per_layer" if trace else "end_to_end"]}


def setup_seconds(workload: str, seed: int, workdir: Path) -> list[float]:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    code = _SETUP_SNIPPET.format(
        src=str(SRC), bench=str(BENCH_DIR), workload=workload, seed=seed, workdir=str(workdir)
    )
    samples = []
    for _ in range(SETUP_TRIALS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=SETUP_TIMEOUT_S)
        samples.append(time.perf_counter() - t0)
    return samples


def environment(seed: int) -> dict:
    import numpy as np
    import scipy
    from ssalab.simlab import pool_size

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = (np.show_config(mode="dicts") or {}).get("Build Dependencies", {}).get("blas", {})
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": _blas_threads()},
        "blas_thread_env": {k: os.environ.get(k) for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "pool_size": pool_size(),
        "SSA_LAB_THREADS": os.environ.get("SSA_LAB_THREADS"),
        "commit": commit,
        "seed": seed,
    }


def _blas_threads():
    """OpenBLAS thread count from the library numpy loaded, when it can be found."""
    import ctypes
    import glob

    import numpy as np

    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def compose(res: dict, setup: list[float], spans_path: Path) -> dict[str, float]:
    """Metrics of one run: end-to-end untraced; per-layer from the written spans."""
    import tracing

    if res["tracer"] is None:
        return dict(
            res["metrics"],
            setup_s=statistics.median(setup),
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )
    res["tracer"].write(spans_path)
    out = tracing.summarize(tracing.read_spans(spans_path), res["traced_wall"])
    out["simlab.pool_speedup"] = res["metrics"]["evals_per_s"] / res["metrics"]["evals_per_s_1t"]
    out["trace.overhead_frac"] = res["overhead_frac"]
    out["fail_frac"] = res["failed"] / res["attempted"]
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "ssalab" / "__init__.py").is_file():
        print(f"perfbench: no ssalab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import ssalab

    if Path(ssalab.__file__).resolve().parent != (SRC / "ssalab").resolve():
        print(f"perfbench: imported ssalab from {ssalab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import mc
    import session

    trace = bool(args.trace)
    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = Path(tempfile.mkdtemp(prefix=f"work-{tag}-", dir=OUT_DIR))
    try:
        setup = setup_seconds(args.workload, args.seed, workdir)
        if args.workload == "cli-session":
            res = session.run(args.workload, args.seed, args.seconds, trace, workdir,
                              ROOT / "scripts" / "configs")
        else:
            res = mc.run(args.workload, args.seed, args.seconds, trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    computed = compose(res, setup, OUT_DIR / f"spans-{tag}.jsonl")
    declared = declared_metrics(trace)
    if set(computed) != set(declared):
        print(f"perfbench: computed metrics {sorted(set(computed) ^ set(declared))} "
              "disagree with BENCHMARK.json", file=sys.stderr)
        return 1
    checks_ok = all(c["failed"] == 0 for c in res["checks"].values())
    result = {
        "correct": checks_ok,
        "attempted": int(res["attempted"]),
        "failed": int(res["failed"]),
        "metrics": {k: {"value": float(computed[k]), "unit": u} for k, u in declared.items()},
    }
    env = environment(args.seed)
    record = dict(result, workload=args.workload, seconds=args.seconds, trace=args.trace,
                  environment=env, setup_samples_s=setup, checks=res["checks"], info=res["info"])
    (OUT_DIR / f"result-{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    print("perfbench-env " + json.dumps(env))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
