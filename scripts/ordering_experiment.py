#!/usr/bin/env python3
"""Convergence-ordering experiment on a flat-spectrum heterogeneous quadratic.

Each parameter-server method is tuned on the same log grid of step sizes and
scored by mean final excess loss over the run seeds; the tuned runs the grid
search keeps then give the two local-update methods' final-quarter query
dispersion. The default constants match the
acceptance fixture: a spectrum flat enough that the unweighted baselines
cannot contract the initial distance within the step budget, which is the
regime where query averaging visibly wins.

Usage: python3 scripts/ordering_experiment.py [--out runs/ordering]
"""
from __future__ import annotations

import argparse
import csv
import math
import sys
from pathlib import Path

import numpy as np

from slowcal_lab import LINEAR, RunConfig, grid_search, heterogeneous_quadratic
from slowcal_lab.algorithms import ROUND_COLUMNS

METHODS = ("slowcal", "local", "minibatch")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--machines", type=int, default=8)
    parser.add_argument("--local-steps", type=int, default=16)
    parser.add_argument("--rounds", type=int, default=50)
    parser.add_argument("--seeds", type=int, default=10, help="number of run seeds")
    parser.add_argument("--start-distance", type=float, default=30.0)
    parser.add_argument("--out", default=None, help="directory for per-seed score CSV")
    args = parser.parse_args(argv)

    dim = 20
    problem = heterogeneous_quadratic(
        args.machines, dim, curvature="per-machine", eig_range=(0.002, 0.02),
        center_spread=1.0, sigma=1.0, target_gstar=2.0, seed=0,
    )
    x0 = problem.w_star + args.start_distance * np.ones(dim) / math.sqrt(dim)
    grid = np.logspace(-3, -1, 7)
    seeds = range(args.seeds)
    template = RunConfig(K=args.local_steps, R=args.rounds, eta=1.0, schedule=LINEAR,
                         seed=0, x0=x0)

    results = {}
    print(f"grid-tuning on eta in [{grid[0]:.0e}, {grid[-1]:.0e}] "
          f"({len(grid)} points, {args.seeds} seeds)")
    for name in METHODS:
        result = results[name] = grid_search(problem, name, grid, template, seeds)
        print(f"  {name:<10} eta={result.eta:<10.4g} "
              f"mean final excess = {np.mean(result.table[result.eta]):.4g}")

    quarter_start = math.ceil(0.75 * args.rounds)
    column = ROUND_COLUMNS.index("dispersion_q")
    dispersion = {}
    for name in ("slowcal", "local"):
        dispersion[name] = float(np.mean([np.mean(run.values[quarter_start:, column])
                                          for run in results[name].runs]))
        print(f"  {name:<10} final-quarter query dispersion = {dispersion[name]:.4g}")

    ratio = dispersion["local"] / dispersion["slowcal"]
    print(f"dispersion ratio local/slowcal = {ratio:.1f}x")

    if args.out is not None:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        path = out / "ordering_scores.csv"
        with path.open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["algorithm", "eta", "seed", "final_excess", "tuned"])
            for name in METHODS:
                for eta, scores in sorted(results[name].table.items()):
                    for seed, score in zip(seeds, scores):
                        writer.writerow([name, eta, seed, score,
                                         "true" if eta == results[name].eta else "false"])
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
