"""File formats: series CSV, eigentriple JSON, estimate/pseudospectrum tables
(the plain arrays `estimate` returns, written column by column), experiment
reports. All floats are written with round-trip precision so a
decomposition exported to JSON reproduces downstream results bit for bit;
that format lives in the two writers `_write_csv` and `_write_json`. The
reader returns u and v C-contiguous, the layout the decompositions give,
since a transform's sums depend on the layout of its input.

Overwriting: an existing output that is a regular file with one link, owned
by the effective user, writable and without extended attributes (no ACL or
security label to lose; Linux only) is replaced, not truncated. An empty
file with the old group and permission bits is renamed over it and then
written, so the path never goes missing, a process holding the old file
keeps reading the old content, and if the new file cannot be made the old
one stays. Every other output (a symlink, a hard link, a FIFO or
`/dev/null`, another user's file) is truncated and written in place as
before. Why: on ext4, truncating a file that was written seconds earlier
waits for its blocks to be written and freed (tens of ms on a disk mounted
with `discard`), and so does renaming a written file over it; renaming an
empty file over it and writing afterwards does not. Once the old blocks are
on disk (after the roughly 30 s writeback expiry or an fsync) every route
waits about as long.
"""

from __future__ import annotations

import json
import math
import os
import stat
import tempfile
from dataclasses import asdict

import numpy as np

from .core import EigentripleSet
from .errors import integer
from .simlab import ErrorSurface


def read_series(path) -> np.ndarray:
    """Read a series from CSV: one value per line, optional single header line;
    a leading UTF-8 byte order mark is dropped."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        lines = [ln.strip() for ln in fh]
    lines = [ln for ln in lines if ln]
    if not lines:
        raise ValueError(f"{path}: no data lines")
    start = 0
    try:
        float(lines[0])
    except ValueError:
        start = 1
    values = []
    for k, ln in enumerate(lines[start:], start=start + 1):
        try:
            x = float(ln)
        except ValueError as exc:
            raise ValueError(f"{path}: line {k}: not a number: {ln!r}") from exc
        if math.isnan(x) or math.isinf(x):
            raise ValueError(f"{path}: line {k}: NaN/Inf values are rejected")
        values.append(x)
    if not values:
        raise ValueError(f"{path}: no numeric values")
    return np.asarray(values, dtype=float)


def _replaceable(path) -> os.stat_result | None:
    """The output's lstat when the overwrite rule replaces it, else None."""
    try:
        st = os.lstat(path)
        if (stat.S_ISREG(st.st_mode) and st.st_nlink == 1 and st.st_uid == os.geteuid()
                and os.access(path, os.W_OK) and hasattr(os, "listxattr")
                and not os.listxattr(path, follow_symlinks=False)):
            return st
    except OSError:
        pass
    return None


def _open_output(path):
    """Open `path` for writing text by the module docstring's overwrite rule;
    a step of the replacement that fails falls back to writing in place."""
    st = _replaceable(path)
    if st is not None:
        try:
            fd, tmp = tempfile.mkstemp(prefix=".", suffix=".tmp", dir=os.path.dirname(path) or ".")
        except OSError:
            pass
        else:
            try:
                os.fchown(fd, -1, st.st_gid)
                os.fchmod(fd, stat.S_IMODE(st.st_mode))
                os.replace(tmp, path)
            except OSError:
                os.close(fd)
                os.unlink(tmp)
            else:
                return open(fd, "w", encoding="utf-8")
    return open(path, "w", encoding="utf-8")


def _write_json(path, doc, indent=None) -> None:
    with _open_output(path) as fh:
        json.dump(doc, fh, indent=indent)
        fh.write("\n")


def _floats(col) -> list:
    return np.asarray(col, dtype=float).tolist()


def _write_csv(path, header: str, columns) -> None:
    """The header line, then one comma-joined line per row. A float column is
    written with repr (round-trip precision), any other column with str."""
    cells = [
        map(repr, _floats(col)) if np.asarray(col).dtype.kind == "f" else map(str, col)
        for col in columns
    ]
    with _open_output(path) as fh:
        fh.write(header + "\n")
        fh.writelines(",".join(row) + "\n" for row in zip(*cells))


def _write_table(path, fmt: str, header: str, columns, json_doc) -> None:
    """Write `columns` as CSV, or the document `json_doc()` builds as JSON."""
    if fmt == "csv":
        _write_csv(path, header, columns)
    elif fmt == "json":
        _write_json(path, json_doc())
    else:
        raise ValueError(f"format must be 'csv' or 'json', got {fmt!r}")


def write_series(path, values, fmt: str = "csv", header: str = "value") -> None:
    values = np.asarray(values, dtype=float)
    _write_table(path, fmt, header, [values], values.tolist)


def eigentriples_to_dict(ets: EigentripleSet, mean: float | None = None) -> dict:
    """JSON-ready view: {method, L, K, sigmas, u, v}; u[i]/v[i] are the i-th vectors."""
    doc = {
        "method": ets.method,
        "L": int(ets.L),
        "K": int(ets.K),
        "sigmas": _floats(ets.sigmas),
        "u": _floats(ets.u.T),
        "v": _floats(ets.v.T),
    }
    if mean is not None:
        doc["mean"] = float(mean)
    return doc


def eigentriples_from_dict(doc: dict) -> tuple[EigentripleSet, float]:
    """Inverse of eigentriples_to_dict; returns the set and the stored mean (0 if absent).

    Raises ValueError for a document that is malformed, names a method other
    than "basic" or "toeplitz", gives L or K as anything but a positive
    integer, holds NaN or infinite values, gives sigmas as anything but a flat
    list, has vectors whose shapes disagree with L, K and the sigmas, or lists
    sigmas that are negative or increasing.
    """
    try:
        method = doc["method"]
        L = integer("eigentriple L", doc["L"], minimum=1)
        K = integer("eigentriple K", doc["K"], minimum=1)
        sigmas = np.asarray(doc["sigmas"], dtype=float)
        u = np.asarray(doc["u"], dtype=float).T if doc["u"] else np.zeros((L, 0))
        v = np.asarray(doc["v"], dtype=float).T if doc["v"] else np.zeros((K, 0))
        mean = float(doc.get("mean", 0.0))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed eigentriple document: {exc}") from exc
    if method not in ("basic", "toeplitz"):
        raise ValueError(f"eigentriple method must be 'basic' or 'toeplitz', got {method!r}")
    if not all(np.all(np.isfinite(x)) for x in (sigmas, u, v, mean)):
        raise ValueError("eigentriple document holds NaN or infinite values")
    if sigmas.ndim != 1 or u.shape != (L, sigmas.size) or v.shape != (K, sigmas.size):
        raise ValueError(
            f"eigentriple document dimensions disagree: L={L}, K={K}, "
            f"u{u.shape}, v{v.shape}, sigmas{sigmas.shape}"
        )
    if np.any(sigmas < 0) or np.any(np.diff(sigmas) > 0):
        raise ValueError("eigentriple sigmas must be nonnegative and nonincreasing")
    u, v = np.ascontiguousarray(u), np.ascontiguousarray(v)
    ets = EigentripleSet(sigmas=sigmas, u=u, v=v, method=method, L=L, K=K)
    return ets, mean


def write_eigentriples(path, ets: EigentripleSet, mean: float | None = None) -> None:
    _write_json(path, eigentriples_to_dict(ets, mean))


def read_eigentriples(path) -> tuple[EigentripleSet, float]:
    with open(path, "r", encoding="utf-8-sig") as fh:
        return eigentriples_from_dict(json.load(fh))


def write_param_estimates(path, est, fmt: str = "csv") -> None:
    """Write a (k, 3) table of frequency, damping and modulus rows."""
    keys = ("frequency", "damping", "modulus")
    est = np.asarray(est, dtype=float)
    _write_table(path, fmt, ",".join(keys), est.T,
                 lambda: [dict(zip(keys, row)) for row in est.tolist()])


def write_pseudospectrum(path, ps, method: str, fmt: str = "csv") -> None:
    """Write a (gridsize, 2) table of omega and value rows; only the JSON
    records `method`."""
    omegas, values = np.asarray(ps, dtype=float).T
    _write_table(path, fmt, "omega,value", (omegas, values),
                 lambda: {"method": method, "omega": _floats(omegas),
                          "value": _floats(values)})


def write_error_surface_csv(path, surf: ErrorSurface) -> None:
    """Plot-ready long format: one row per window length."""
    n = len(surf.windows)
    columns = (surf.windows, [surf.functional] * n, surf.msd, surf.rmse, [surf.reps] * n)
    _write_csv(path, "L,functional,MSD,RMSE,reps", columns)


def error_surface_to_dict(surf: ErrorSurface) -> dict:
    return {
        "signal": asdict(surf.spec),
        "functional": surf.functional,
        "reps": surf.reps,
        "seed": surf.master_seed,
        "experiment_id": surf.experiment_id,
        "windows": [int(L) for L in surf.windows],
        "msd": _floats(surf.msd),
        "rmse": _floats(surf.rmse),
        "failures": [int(x) for x in surf.failures],
    }


def write_error_surface_json(path, surf: ErrorSurface) -> None:
    _write_json(path, error_surface_to_dict(surf), indent=2)
