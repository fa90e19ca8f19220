"""Batch command-line front end.

Subcommands: decompose, reconstruct, forecast, estimate, pseudospectrum,
simulate. Exit codes: 0 success, 2 parse error (flags, CSV, config), 3 domain
error from the computation, 4 I/O error. Every failure prints a one-line
diagnostic naming the violated precondition.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import io as sio
from .core import (
    center,
    decompose,
    decompose_toeplitz,
    embed,
    group_matrix,
    hankelize,
)
from .errors import EmptyNoiseBasis, IndexOutOfRange, SsaError
from .estimate import (
    find_peaks,
    poles_to_params,
    pseudospectrum_minnorm,
    pseudospectrum_music,
    root_min_norm,
    root_music,
)
from .forecast import min_norm_lrf, recurrent_forecast
from .simlab import ExperimentConfig, pool_size, run_experiment
from .subspace import noise_complement, signal_basis


class ParseError(ValueError):
    """Bad flag value, CSV, or config document (exit code 2)."""


def _group_spans(text: str) -> list[tuple[int, int]]:
    """The (first, last) pairs of a group's indices and ranges; ParseError on bad syntax."""
    spans = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "-" in part[1:]:
            lo, _, hi = part.partition("-")
            try:
                lo_i, hi_i = int(lo), int(hi)
            except ValueError as exc:
                raise ParseError(f"bad group range {part!r}") from exc
            if lo_i > hi_i:
                raise ParseError(f"empty group range {part!r}")
            spans.append((lo_i, hi_i))
        else:
            try:
                spans.append((int(part),) * 2)
            except ValueError as exc:
                raise ParseError(f"bad group index {part!r}") from exc
    if not spans:
        raise ParseError(f"group {text!r} selects nothing")
    if min(lo for lo, _ in spans) < 1:
        raise ParseError("group indices are 1-based and must be positive")
    return spans


def parse_group(text: str, count: int) -> list[int]:
    """Comma-separated 1-based indices and ranges: '1,2,5-8'. An index past
    `count` raises IndexOutOfRange before any range is expanded."""
    spans = _group_spans(text)
    top = max(hi for _, hi in spans)
    if top > count:
        raise IndexOutOfRange(f"group {text!r} reaches eigentriple {top}; there are {count}")
    return sorted(set().union(*(range(lo, hi + 1) for lo, hi in spans)))


def _load_series(path) -> np.ndarray:
    try:
        return sio.read_series(path)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def _default_window(n: int, verbose: bool) -> int:
    L = (n + 1) // 2
    if verbose:
        print(
            f"window defaulted to (N+1)//2 = {L}: about half the series length,"
            " the all-round choice for reconstruction accuracy",
            file=sys.stderr,
        )
    return L


def _prepared(args) -> tuple[np.ndarray, float, int]:
    """Load the input series, apply optional centering and resolve the window."""
    f = _load_series(args.input)
    f, mean = center(f) if args.center else (f, 0.0)
    L = args.window if args.window is not None else _default_window(f.size, args.verbose)
    return f, mean, L


def _decomposition(f: np.ndarray, L: int, toeplitz_flag: bool):
    if toeplitz_flag:
        return decompose_toeplitz(f, L)
    return decompose(embed(f, L))


def cmd_decompose(args) -> None:
    f, mean, L = _prepared(args)
    ets = _decomposition(f, L, args.toeplitz)
    sio.write_eigentriples(args.output, ets, mean if args.center else None)
    if args.verbose:
        print(f"retained {ets.count} eigentriples (method={ets.method})", file=sys.stderr)


def cmd_reconstruct(args) -> None:
    if args.group:
        _group_spans(args.group)  # bad syntax exits 2 before any input is read
    if args.from_decomposition:
        try:
            ets, mean = sio.read_eigentriples(args.from_decomposition)
        except (ValueError, json.JSONDecodeError) as exc:
            raise ParseError(f"{args.from_decomposition}: {exc}") from exc
    elif not args.input:
        raise ParseError("reconstruct needs --input or --from-decomposition")
    else:
        f, mean, L = _prepared(args)
        ets = _decomposition(f, L, args.toeplitz)
    group = parse_group(args.group, ets.count) if args.group else range(1, ets.count + 1)
    series = hankelize(group_matrix(ets, group)) + mean
    sio.write_series(args.output, series, fmt=args.format)


def cmd_forecast(args) -> None:
    f, mean, rec_window = _prepared(args)
    lrf_window = args.lrf_window if args.lrf_window is not None else rec_window
    if args.toeplitz:
        print(
            "warning: forecasting from a Toeplitz decomposition assumes stationarity"
            " and can be badly wrong otherwise",
            file=sys.stderr,
        )
    group = list(range(1, args.rank + 1))
    ets_rec = _decomposition(f, rec_window, args.toeplitz)
    rec = hankelize(group_matrix(ets_rec, group))
    ets_lrf = (
        ets_rec if lrf_window == rec_window else _decomposition(f, lrf_window, args.toeplitz)
    )
    lrf = min_norm_lrf(signal_basis(ets_lrf, args.rank))
    values = recurrent_forecast(rec[-lrf.size:], lrf, args.steps) + mean
    sio.write_series(args.output, values, fmt=args.format, header="forecast")


def _noise_side(ets, rank: int):
    """Noise basis and eigenvalues for MUSIC-family methods."""
    basis = signal_basis(ets, rank)
    if ets.count > rank:
        noise = ets.u[:, rank:]
        lams = ets.sigmas[rank:] ** 2
    else:
        noise = noise_complement(basis)
        lams = None
    return basis, noise, lams


def _estimates_from_method(args, ets) -> np.ndarray:
    r = args.rank
    method = args.method
    if method in ("esprit-ls", "esprit-tls"):
        from .estimate import esprit_ls, esprit_tls

        esprit = esprit_ls if method == "esprit-ls" else esprit_tls
        return poles_to_params(esprit(signal_basis(ets, r)))
    if method == "root-minnorm":
        lrf = min_norm_lrf(signal_basis(ets, r))
        return poles_to_params(root_min_norm(lrf, r))
    if method == "root-music":
        _, noise, _ = _noise_side(ets, r)
        return poles_to_params(root_music(noise, r))
    # minnorm, music, ev: peak methods only locate frequencies; damping 0 /
    # modulus 1 mark that
    peaks = find_peaks(_pseudospectrum_from_method(args, ets), (r + 1) // 2)
    return np.column_stack([peaks, np.zeros(peaks.size), np.ones(peaks.size)])


def _pseudospectrum_from_method(args, ets):
    r = args.rank
    basis, noise, lams = _noise_side(ets, r)
    if args.method == "minnorm":
        return pseudospectrum_minnorm(basis, gridsize=args.gridsize)
    if args.method == "music":
        return pseudospectrum_music(noise, gridsize=args.gridsize)
    if lams is None:  # ev
        raise EmptyNoiseBasis(
            "EV weighting needs noise eigentriples; the decomposition retained none"
        )
    return pseudospectrum_music(noise, gridsize=args.gridsize, eigenvalues=lams)


def cmd_estimate(args) -> None:
    f, _, L = _prepared(args)
    ets = _decomposition(f, L, args.toeplitz)
    est = _estimates_from_method(args, ets)
    sio.write_param_estimates(args.output, est, fmt=args.format)


def cmd_pseudospectrum(args) -> None:
    f, _, L = _prepared(args)
    ets = _decomposition(f, L, args.toeplitz)
    ps = _pseudospectrum_from_method(args, ets)
    sio.write_pseudospectrum(args.output, ps, args.method, fmt=args.format)


def cmd_simulate(args) -> None:
    try:
        with open(args.config, "r", encoding="utf-8-sig") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{args.config}: invalid JSON: {exc}") from exc
    if isinstance(doc, dict):  # flag overrides go through the same validation
        doc.update({k: v for k, v in (("seed", args.seed), ("reps", args.reps)) if v is not None})
    try:
        config = ExperimentConfig.from_dict(doc)
        workers = pool_size()  # a bad SSA_LAB_THREADS exits 2 here
    except SsaError as exc:
        raise ParseError(str(exc)) from exc
    base = args.output or config.output
    if not base:
        raise ParseError("simulate needs an output base path (--output or config 'output')")
    if args.verbose:
        print(
            f"simulate: kind={config.spec.kind} n={config.spec.n} reps={config.reps}"
            f" functional={config.functional} workers={workers}",
            file=sys.stderr,
        )
    surf = run_experiment(config)
    sio.write_error_surface_csv(str(base) + ".csv", surf)
    sio.write_error_surface_json(str(base) + ".json", surf)


def _int_at_least(lo: int):
    """argparse `type=` for an integer flag that must be >= lo, so a smaller
    value exits 2 at parse time. Upper limits that depend on the data (a rank
    of at least the default window) stay domain errors."""

    def integer(text: str) -> int:
        value = int(text)
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be an integer >= {lo}, got {value}")
        return value

    return integer


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ssalab",
        description="Singular spectrum analysis, forecasting, and subspace estimation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, fmt=True):
        p.add_argument("--input", "-i", help="input series CSV (one value per line)")
        p.add_argument("--output", "-o", required=True, help="output file path")
        p.add_argument("--window", "-L", type=int, help="window length (default (N+1)//2)")
        p.add_argument("--toeplitz", action="store_true", help="use the Toeplitz variant")
        p.add_argument("--center", action="store_true", help="subtract the mean first")
        if fmt:
            p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--verbose", action="store_true")

    p = sub.add_parser("decompose", help="export eigentriples as JSON")
    common(p, fmt=False)
    p.set_defaults(func=cmd_decompose, input_required=True)

    p = sub.add_parser("reconstruct", help="reconstruct a grouped component")
    common(p)
    p.add_argument("--group", help="eigentriple numbers, e.g. '1,2,5-8' (1-based)")
    p.add_argument(
        "--from-decomposition",
        help="reuse an exported eigentriple JSON instead of decomposing",
    )
    p.set_defaults(func=cmd_reconstruct, input_required=False)

    p = sub.add_parser("forecast", help="recurrent forecast of the reconstructed signal")
    common(p)
    p.add_argument("--rank", "-r", type=_int_at_least(1), required=True, help="signal rank")
    p.add_argument("--steps", type=_int_at_least(1), default=1, help="forecast horizon")
    p.add_argument(
        "--lrf-window",
        type=int,
        help="window for the recurrence coefficients (default: --window)",
    )
    p.set_defaults(func=cmd_forecast, input_required=True)

    p = sub.add_parser("estimate", help="frequency/damping estimates")
    common(p)
    p.add_argument("--rank", "-r", type=_int_at_least(1), required=True, help="signal rank")
    p.add_argument(
        "--method",
        required=True,
        choices=("esprit-ls", "esprit-tls", "root-music", "root-minnorm", "minnorm", "music", "ev"),
    )
    p.add_argument("--gridsize", type=_int_at_least(2), default=2048)
    p.set_defaults(func=cmd_estimate, input_required=True)

    p = sub.add_parser("pseudospectrum", help="emit a pseudospectrum grid")
    common(p)
    p.add_argument("--rank", "-r", type=_int_at_least(1), required=True, help="signal rank")
    p.add_argument("--method", required=True, choices=("minnorm", "music", "ev"))
    p.add_argument("--gridsize", type=_int_at_least(2), default=2048)
    p.set_defaults(func=cmd_pseudospectrum, input_required=True)

    p = sub.add_parser("simulate", help="run a Monte-Carlo experiment from a JSON config")
    p.add_argument("--config", required=True, help="experiment config JSON")
    p.add_argument("--output", "-o", help="output base path (writes .csv and .json)")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--reps", type=int, help="override the config replication count")
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=cmd_simulate, input_required=False)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "input_required", False) and not args.input:
        print("ssalab: error: --input is required for this command", file=sys.stderr)
        return 2
    # forecast's rank bounds only its recurrence window; a window below 2 is a domain error
    flag, window = "--lrf-window", getattr(args, "lrf_window", None)
    if window is None:
        flag, window = "--window", getattr(args, "window", None)
    rank = getattr(args, "rank", None)
    if rank is not None and window is not None and rank >= window >= 2:
        print(f"ssalab: error: --rank must be below {flag} ({window}), got {rank}", file=sys.stderr)
        return 2
    try:
        args.func(args)
    except ParseError as exc:
        print(f"ssalab: parse error: {exc}", file=sys.stderr)
        return 2
    except SsaError as exc:
        print(f"ssalab: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"ssalab: invalid value: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"ssalab: io error: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
