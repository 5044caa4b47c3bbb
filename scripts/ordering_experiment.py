#!/usr/bin/env python3
"""Convergence-ordering experiment on a flat-spectrum heterogeneous quadratic.

Each parameter-server method is tuned on the same log grid of step sizes and
scored by mean final excess loss over the run seeds; the two local-update
methods are then replayed at their tuned step with diagnostics on to compare
the final-quarter query dispersion. The default constants match the
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

from slowcal_lab import ALGORITHMS, LINEAR, RunConfig, grid_search, heterogeneous_quadratic

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

    tuned, tables = {}, {}
    print(f"grid-tuning on eta in [{grid[0]:.0e}, {grid[-1]:.0e}] "
          f"({len(grid)} points, {args.seeds} seeds)")
    for name in METHODS:
        best, table = grid_search(problem, name, grid, template, seeds)
        tuned[name] = best
        tables[name] = table
        print(f"  {name:<10} eta={best:<10.4g} "
              f"mean final excess = {np.mean(table[best]):.4g}")

    quarter_start = math.ceil(0.75 * args.rounds)
    dispersion = {}
    for name in ("slowcal", "local"):
        per_seed = []
        for seed in seeds:
            cfg = RunConfig(K=args.local_steps, R=args.rounds,
                            eta=tuned[name], schedule=LINEAR, seed=seed,
                            record_diagnostics=True, x0=x0)
            traj = ALGORITHMS[name](problem, cfg)
            per_seed.append(np.mean([rm.dispersion_q
                                     for rm in traj.rounds[quarter_start:]]))
        dispersion[name] = float(np.mean(per_seed))
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
                for eta, scores in sorted(tables[name].items()):
                    for seed, score in zip(seeds, scores):
                        writer.writerow([name, eta, seed, score,
                                         "true" if eta == tuned[name] else "false"])
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
