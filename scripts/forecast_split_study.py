#!/usr/bin/env python3
"""One-step forecast error split into recurrence and reconstruction sources.

Sweeps the recurrence window for one or more reconstruction windows and a
chosen damping base, writing a long-format CSV. The recurrence-side error
grows with its window while the reconstruction-side error shrinks, so the
curves cross; their sum tracks the total.
"""

import argparse
from pathlib import Path

import ssalab as sl


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=399)
    ap.add_argument("--base", type=float, default=1.0, help="signal damping base b")
    ap.add_argument("--sigma", type=float, default=0.1)
    ap.add_argument("--reps", type=int, default=200)
    ap.add_argument("--rec-windows", type=int, nargs="*", default=[100, 200, 300])
    ap.add_argument("--lrf-step", type=int, default=20)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--outdir", default="results")
    args = ap.parse_args()

    spec = sl.SignalSpec("damped_cos_wn", n=args.n, b=args.base, sigma=args.sigma)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / f"forecast_split_b{args.base}.csv"
    lrf_grid = list(range(args.lrf_step, args.n - args.lrf_step + 1, args.lrf_step))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("L_lrf,L_rec,total,lrf_only,rec_only,failures,reps\n")
        for rec_window in args.rec_windows:
            for lrf_window in lrf_grid:
                split = sl.forecast_error_split(
                    spec, lrf_window, rec_window, reps=args.reps, master_seed=args.seed
                )
                fh.write(
                    f"{lrf_window},{rec_window},{split.rmse_total!r},"
                    f"{split.rmse_lrf_only!r},{split.rmse_rec_only!r},"
                    f"{split.failures},{args.reps}\n"
                )
            print(f"rec window {rec_window}: {len(lrf_grid)} recurrence windows done")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
