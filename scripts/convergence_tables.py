#!/usr/bin/env python3
"""RMSE-ratio tables probing convergence rates.

For each residual type and window policy, estimates Delta = RMSE(N1) /
RMSE(4 N1); values near 8, 2 and 1 flag rates N^-1.5, N^-0.5 and none.
Desk-scale default is N1=399; pass --n1 6399 for the published lengths.
Exact-separability cells print as '-'.
"""

import argparse
import csv
from pathlib import Path

import ssalab as sl

KINDS = {
    "c": ("damped_cos_const", dict(b=1.0, c=0.1)),
    "c+wn": ("damped_cos_mix", dict(b=1.0, c=0.1, sigma=0.1)),
    "wn": ("damped_cos_wn", dict(b=1.0, sigma=0.1)),
    "rn": ("damped_cos_rn", dict(b=1.0, sigma=0.1, alpha=0.5)),
}
FUNCTIONALS = ("reconstruction", "projector", "base", "frequency")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n1", type=int, default=399)
    ap.add_argument("--reps", type=int, default=200)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--functionals", nargs="*", default=list(FUNCTIONALS), choices=FUNCTIONALS)
    ap.add_argument("--kinds", nargs="*", default=list(KINDS), choices=sorted(KINDS))
    ap.add_argument("--outdir", default="results")
    args = ap.parse_args()

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for functional in args.functionals:
        path = outdir / f"delta_{functional}_n1_{args.n1}.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["L"] + list(args.kinds))
            for policy in sl.simlab.WINDOW_POLICIES:
                row = [policy]
                for key in args.kinds:
                    kind, params = KINDS[key]
                    spec = sl.SignalSpec(kind, n=args.n1, **params)
                    rep = sl.convergence_ratio(
                        spec, args.n1, functional, policy,
                        reps=args.reps, master_seed=args.seed,
                    )
                    row.append("-" if rep.delta is None else f"{rep.delta:.2f}")
                writer.writerow(row)
                print(f"{functional:15s} {policy:8s} " + "  ".join(str(x) for x in row[1:]))
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
