#!/usr/bin/env python3
"""Run all 10 benchmark processes through both dimension routes and print a table.

The processes are gaussdim.benchmarks.MODELS, the models that
scripts/export_models.py writes.  Fast by default (analytic rank integral + rate-distortion slope); pass
--estimators to add the two Monte Carlo estimators at their library defaults (about 2 s in all
on 2 cores).
A model whose entropy slope trips the undersampling guard prints
"undersampled" in that column and keeps the guard's message in its JSON row.

Usage:
    python scripts/run_benchmarks.py --out results --seed 7
    python scripts/run_benchmarks.py --estimators
"""

import argparse
import json
import sys
import time
from pathlib import Path

from gaussdim.benchmarks import MODELS
from gaussdim.estimators import ENTROPY_PATHS, UndersamplingError, idr_slope_estimate, surrogate_idr_estimate
from gaussdim.ratedist import rd_dimension_estimate
from gaussdim.spectral import DEFAULT_GRID_N, FrequencyGrid, rank_integral


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--grid", type=int, default=DEFAULT_GRID_N)
    parser.add_argument("--paths", type=int, default=ENTROPY_PATHS, help="paths for the entropy-slope route")
    parser.add_argument("--estimators", action="store_true", help="also run the Monte Carlo estimators")
    parser.add_argument("--out", help="directory for a JSON summary")
    args = parser.parse_args(argv)
    if args.paths < 1:
        parser.error("--paths must be >= 1")

    grid = FrequencyGrid(args.grid)
    rows = []
    header = f"{'model':28s} {'exact':>7s} {'rank':>10s} {'rd-slope':>10s}"
    if args.estimators:
        header += f" {'H-slope':>12s} {'surrogate':>10s}"
    print(header)
    print("-" * len(header))
    for name, (builder, expected) in MODELS.items():
        model = builder()
        t0 = time.time()
        ri = rank_integral(model, grid)
        rank, rd = ri.value, rd_dimension_estimate(ri).value
        row = {"model": name, "expected": expected, "rank_integral": rank, "rd_slope": rd}
        line = f"{name:28s} {expected:7.3f} {rank:10.6f} {rd:10.6f}"
        if args.estimators:
            try:
                slope = idr_slope_estimate(model, paths=args.paths, seed=args.seed)
            except UndersamplingError as exc:
                row.update({"entropy_slope": None, "entropy_slope_se": None, "entropy_slope_error": str(exc)})
                line += f" {'undersampled':>12s}"
            else:
                row.update({"entropy_slope": slope.value, "entropy_slope_se": slope.se})
                line += f" {slope.value:12.4f}"
            surr = surrogate_idr_estimate(model, seed=args.seed)  # the surrogate's fixed settings, as in `estimate`
            row.update({"surrogate": surr.value, "surrogate_se": surr.se})
            line += f" {surr.value:10.4f}"
        row["seconds"] = time.time() - t0
        rows.append(row)
        print(line)

    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "benchmarks.json").write_text(json.dumps(rows, indent=2))
        print(f"\nsummary written to {out_dir / 'benchmarks.json'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
