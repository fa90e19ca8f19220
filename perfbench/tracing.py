"""Spans recorded around calls into ssalab, and the summary that turns them
into per-layer metrics.

Wrappers are installed on module attributes, at the names the calling layer
binds (``ssalab.simlab.leading_triples``, ``ssalab.io.write_series``, ...), so
a call from one layer into another becomes a span while calls inside a module
do not. The tracer assumes one thread: spans nest through a stack.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import os
import statistics
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Optional

MIN_BEYOND = 10  # samples a reported tail quantile must leave beyond it

LAYERS = ("simlab", "core", "signals", "subspace", "forecast", "estimate", "io", "cli")

# Functions each calling module binds from another layer, plus simlab's own
# derive_seed, the per-replication seeding cost. Names bound in a function
# body at call time (cli's esprit_*) are wrapped on their defining module.
# Classes and exceptions are not wrapped. test_perfbench checks this table
# against the imports in src/ssalab.
WRAP_TARGETS = {
    "ssalab.simlab": (
        "leading_triples", "rank_reconstruction", "embed", "subspace_distance",
        "gen_series", "exact_basis", "signal_values", "exact_rank",
        "true_frequencies", "min_norm_lrf", "esprit_ls", "pair_frequencies",
        "derive_seed",
    ),
    "ssalab.cli": (
        "center", "decompose", "decompose_toeplitz", "embed", "group_matrix",
        "hankelize", "find_peaks", "poles_to_params", "pseudospectrum_minnorm",
        "pseudospectrum_music", "root_min_norm", "root_music", "min_norm_lrf",
        "recurrent_forecast", "pool_size", "run_experiment", "noise_complement",
        "signal_basis",
    ),
    "ssalab.signals": ("decompose", "embed", "signal_basis"),
    "ssalab.estimate": ("esprit_ls", "esprit_tls", "characteristic_roots", "basis_matrix"),
    "ssalab.forecast": ("as_series", "basis_matrix"),
    "ssalab.io": (
        "read_series", "read_eigentriples", "write_eigentriples", "write_series",
        "write_param_estimates", "write_pseudospectrum", "write_error_surface_csv",
        "write_error_surface_json",
    ),
}

# Per-function metrics: metric stem -> span names it sums.
FUNCTION_METRICS = {
    "simlab.derive_seed": ("simlab.derive_seed",),
    "core.leading_triples": ("core.leading_triples",),
    "core.rank_reconstruction": ("core.rank_reconstruction",),
    "core.decompose": ("core.decompose",),
    "core.decompose_toeplitz": ("core.decompose_toeplitz",),
    "core.embed": ("core.embed",),
    "core.group_matrix": ("core.group_matrix",),
    "core.hankelize": ("core.hankelize",),
    "signals.gen_series": ("signals.gen_series",),
    "signals.exact_basis": ("signals.exact_basis",),
    "subspace.subspace_distance": ("subspace.subspace_distance",),
    "subspace.signal_basis": ("subspace.signal_basis",),
    "subspace.noise_complement": ("subspace.noise_complement",),
    "forecast.min_norm_lrf": ("forecast.min_norm_lrf",),
    "forecast.recurrent_forecast": ("forecast.recurrent_forecast",),
    "forecast.characteristic_roots": ("forecast.characteristic_roots",),
    "estimate.esprit_tls": ("estimate.esprit_tls",),
    "estimate.pseudospectrum_music": ("estimate.pseudospectrum_music",),
    "estimate.find_peaks": ("estimate.find_peaks",),
    "estimate.root_music": ("estimate.root_music",),
    "estimate.root_min_norm": ("estimate.root_min_norm",),
    "io.read_series": ("io.read_series",),
    "io.read_eigentriples": ("io.read_eigentriples",),
    "io.write_eigentriples": ("io.write_eigentriples",),
    "io.write_series": ("io.write_series",),
    "io.write_error_surface": ("io.write_error_surface_csv", "io.write_error_surface_json"),
}


@dataclass
class Span:
    id: int
    parent: Optional[int]
    name: str
    start: float
    end: float
    run: str
    failed: bool = False
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


def _span_attrs(name: str, args) -> dict:
    """Counts read off a call from outside: series length, file bytes."""
    if name == "core.leading_triples":
        return {"n": len(args[0])}
    if name.startswith("io.read_"):
        return {"bytes_read": os.path.getsize(args[0])}
    if name.startswith("io.write_"):
        return {"bytes_written": os.path.getsize(args[0])}
    return {}


class Tracer:
    """In-memory span recorder for one single-threaded run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._ids = itertools.count()

    def call(self, name: str, fn: Callable, *args, **kwargs):
        sid = next(self._ids)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        failed = True
        attrs: dict = {}
        start = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
            failed = False
            return out
        finally:
            end = time.perf_counter()
            self._stack.pop()
            if not failed:
                attrs = _span_attrs(name, args)
            self.spans.append(Span(sid, parent, name, start, end, self.run_id, failed, attrs))

    def wrap(self, name: str, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every WRAP_TARGETS attribute for the duration of the block."""
        import importlib

        saved = []
        try:
            for modname, names in WRAP_TARGETS.items():
                mod = importlib.import_module(modname)
                for attr in names:
                    fn = getattr(mod, attr)
                    layer = fn.__module__.rsplit(".", 1)[-1]
                    saved.append((mod, attr, fn))
                    setattr(mod, attr, self.wrap(f"{layer}.{fn.__name__}", fn))
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in sorted(self.spans, key=lambda s: s.id):
                fh.write(json.dumps(asdict(s)) + "\n")


def read_spans(path) -> list[Span]:
    with open(path, "r", encoding="utf-8") as fh:
        return [Span(**json.loads(line)) for line in fh if line.strip()]


# -- summary -----------------------------------------------------------------


def _covered(lo: float, hi: float, intervals) -> float:
    """Length of [lo, hi] covered by the union of the given intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part covered by its child spans."""
    children: dict[int, list] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.id: (s.end - s.start) - _covered(s.start, s.end, children.get(s.id, ()))
        for s in spans
    }


def samples_beyond(n: int, q: float) -> int:
    """Samples ranked above the q-quantile of n, placed at rank q * (n - 1)."""
    return n - 1 - math.floor(q * (n - 1))


def quantile(values, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile (0 < q < 1).

    A beta-weighted mean of all order statistics, centred on rank q * n. A
    command mix puts types of very different latency next to each other in
    the sorted samples; this estimate moves smoothly when a quantile falls
    between two of them, where picking one or two order statistics jumps.
    """
    import numpy as np
    from scipy.special import betainc

    data = np.sort(np.asarray(values, dtype=float))
    n = data.size
    weights = np.diff(betainc((n + 1) * q, (n + 1) * (1 - q), np.arange(n + 1) / n))
    return float(weights @ data)


def has_tail(n: int, q: float) -> bool:
    """Whether n samples leave at least MIN_BEYOND beyond their q-quantile."""
    return samples_beyond(n, q) >= MIN_BEYOND


def summarize(spans, wall_s: float) -> dict[str, float]:
    """Per-layer metrics from one traced run.

    `wall_s` is the traced wall time the benchmark measured around its calls;
    trace.coverage is the share of it that the span self times account for.
    """
    selfs = self_times(spans)
    out: dict[str, float] = {}
    for layer in LAYERS:
        mine = [s for s in spans if s.layer == layer]
        out[f"{layer}.self_s"] = sum(selfs[s.id] for s in mine)
        out[f"{layer}.fails"] = sum(1 for s in mine if s.failed)
    for stem, names in FUNCTION_METRICS.items():
        mine = [s for s in spans if s.name in names]
        out[f"{stem}.s"] = sum(s.end - s.start for s in mine)
        out[f"{stem}.calls"] = len(mine)
    lt = [s for s in spans if s.name == "core.leading_triples" and "n" in s.attrs]
    sizes = sorted({s.attrs["n"] for s in lt})
    for label, n in (("n1", sizes[0] if sizes else None), ("n2", sizes[-1] if sizes else None)):
        durs = [1e3 * (s.end - s.start) for s in lt if s.attrs["n"] == n]
        out[f"core.leading_triples.ms_p50.{label}"] = statistics.median(durs) if durs else 0.0
    out["io.bytes_written"] = sum(s.attrs.get("bytes_written", 0) for s in spans)
    out["io.bytes_read"] = sum(s.attrs.get("bytes_read", 0) for s in spans)
    out["trace.coverage"] = sum(selfs.values()) / wall_s if wall_s > 0 else 0.0
    return out
