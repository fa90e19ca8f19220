"""Golden outputs: recompute a fixed set of results and compare them with
tests/golden.json.

The set covers both checked-in `simulate` configs at 20 reps, a
forecast-1-step surface, the forecast error split, one convergence ratio per
functional on a white and a red kind, per-replication point errors, the
red-noise projector bound, and the seven estimators plus one recurrent
forecast on a fixed noisy series. Failure counts must match exactly and every
other value to rtol 1e-9: a changed seed derivation, draw order or
functional moves values far beyond that, while reordered arithmetic moves
them in the last bits only.

Regenerate with `PYTHONPATH=src python tests/test_golden.py --write`, and
list every value that moved by more than 1e-12 relative in CHANGES.md.
"""

import json
import sys
from pathlib import Path

import numpy as np

import ssalab as sl
from ssalab.simlab import FUNCTIONALS

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).with_name("golden.json")
RTOL = 1e-9
REPS = 20


def _surface(s):
    return {"msd": s.msd.tolist(), "rmse": s.rmse.tolist(), "failures": s.failures.tolist()}


def _simulate(name):
    doc = json.loads((ROOT / "scripts" / "configs" / name).read_text(encoding="utf-8"))
    doc["reps"] = REPS
    return _surface(sl.run_experiment(sl.ExperimentConfig.from_dict(doc), threads=1))


def _convergence(spec, tag, seed):
    c = sl.convergence_ratio(spec, 50, tag, "half", 10, master_seed=seed, threads=1)
    return {"rmse": [c.rmse1, c.rmse2], "delta": c.delta, "failures": [c.failures1, c.failures2]}


def _estimates():
    """The seven estimators and a 10-step forecast on one noisy two-cosine series."""
    signal, noise = sl.gen_series(sl.SignalSpec("two_cos", 200, sigma=0.3),
                                  np.random.default_rng(2024))
    f = signal + noise
    L, r = 50, 4
    ets = sl.decompose(sl.embed(f, L))
    B = sl.signal_basis(ets, r)
    noise_basis, lams = ets.u[:, r:], ets.sigmas[r:] ** 2
    poles = {
        "esprit-ls": sl.esprit_ls(B),
        "esprit-tls": sl.esprit_tls(B),
        "root-minnorm": sl.root_min_norm(sl.min_norm_lrf(B), r),
        "root-music": sl.root_music(noise_basis, r),
    }
    out = {k: {"real": p.real.tolist(), "imag": p.imag.tolist()} for k, p in poles.items()}
    spectra = {
        "minnorm": sl.pseudospectrum_minnorm(B),
        "music": sl.pseudospectrum_music(noise_basis),
        "ev": sl.pseudospectrum_music(noise_basis, eigenvalues=lams),
    }
    out.update({k: sl.find_peaks(ps, r // 2).tolist() for k, ps in spectra.items()})
    rec = sl.rank_reconstruction(ets, range(1, r + 1))
    # a min-norm recurrence read off an L-row basis has order L - 1
    out["forecast"] = sl.recurrent_forecast(rec[-(L - 1):], sl.min_norm_lrf(B), 10).tolist()
    return out


def compute() -> dict:
    wn = sl.SignalSpec("damped_cos_wn", 100)
    rn = sl.SignalSpec("damped_cos_rn", 100, alpha=0.5)
    split = sl.forecast_error_split(wn, 30, 50, REPS, master_seed=8, threads=1)
    golden = {
        "simulate:projector_white_noise": _simulate("projector_white_noise.json"),
        "simulate:two_cos_table": _simulate("two_cos_table.json"),
        "surface:forecast-1-step": _surface(
            sl.mc_error_surface(wn, [10, 30, 50, 70], REPS, "forecast-1-step",
                                master_seed=7, threads=1)
        ),
        "forecast_error_split": {
            "rmse": [split.rmse_total, split.rmse_lrf_only, split.rmse_rec_only],
            "failures": split.failures,
        },
        "mc_point_errors": sl.mc_point_errors(wn, 40, [0, 50, 99], REPS, master_seed=9,
                                              threads=1).tolist(),
        "red_noise_projector_bound": sl.red_noise_projector_bound(rn, 20),
        "estimates": _estimates(),
    }
    for spec in (wn, rn):
        for seed, tag in enumerate(FUNCTIONALS):
            golden[f"convergence:{spec.kind}:{tag}"] = _convergence(spec, tag, seed)
    return golden


def _mismatches(got, want, path=""):
    """Paths where `got` differs from `want`: failure counts exactly, other
    numbers beyond RTOL."""
    if isinstance(want, dict):
        if set(got) != set(want):
            return [f"{path}: keys {sorted(got)} != {sorted(want)}"]
        return [m for k in want for m in _mismatches(got[k], want[k], f"{path}/{k}")]
    if want is None or got is None or "failures" in path:
        return [] if got == want else [f"{path}: {got!r} != {want!r}"]
    g, w = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if g.shape != w.shape or not np.allclose(g, w, rtol=RTOL, atol=0.0, equal_nan=True):
        return [f"{path}: {got!r} != {want!r}"]
    return []


def test_golden_outputs():
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    bad = _mismatches(compute(), want)
    assert not bad, "\n".join(bad)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden.py --write")
    entries = [f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in compute().items()]
    GOLDEN.write_text("{\n" + ",\n".join(entries) + "\n}\n", encoding="utf-8")
