#!/usr/bin/env python3
"""Convergence-ordering experiment on a flat-spectrum heterogeneous quadratic.

Runs the grid-tuned sweep described by configs/ordering.json through the
standard experiment harness and reads its outputs: each method's tuned step
size and mean excess at its output point over the seeds, from the manifest,
and the two local-update methods' query dispersion over the final quarter of
the rounds, from runs.csv. The config is the acceptance fixture: a spectrum
flat enough that the unweighted baselines cannot contract the initial
distance within the step budget, which is the regime where query averaging
visibly wins. The manifest's ``tuning`` table holds every candidate's
per-seed scores.

Usage: python3 scripts/ordering_experiment.py [--config configs/ordering.json]
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

from slowcal_lab import load_spec, run_experiment
from speedup_experiment import seed_means, tuned_output_means

DEFAULT_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "ordering.json"


def final_quarter_dispersion(spec, csv_path) -> dict:
    """Mean query dispersion over the final quarter of the rounds (round
    r >= ceil(3R/4)) per (algorithm, machine count, local-step count), from
    runs.csv: each run's mean over those rounds, then the mean over the
    seeds."""
    quarters: dict[str, list[float]] = {}
    with open(csv_path, newline="") as handle:
        for row in csv.DictReader(handle):
            if int(row["round"]) >= math.ceil(0.75 * int(row["R"])):
                quarters.setdefault(row["run_id"], []).append(float(row["dispersion_q"]))
    return seed_means(spec, lambda run_id: np.mean(quarters[run_id]))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", default=str(DEFAULT_CONFIG))
    parser.add_argument("--out", default=None, help="output directory override")
    args = parser.parse_args(argv)

    spec = load_spec(args.config)
    if (len(spec.machines) != 1 or len(spec.local_steps) != 1
            or not (isinstance(spec.lr, str) and spec.lr.startswith("grid:"))
            or not {"slowcal", "local"} <= set(spec.algorithms)):
        print("config must grid-tune slowcal and local at one machine count and one "
              f"local-step count, got algorithm={list(spec.algorithms)} lr={spec.lr!r} "
              f"machines={spec.machines} local_steps={spec.local_steps}", file=sys.stderr)
        return 2
    (m,), (k,) = spec.machines, spec.local_steps

    summary = run_experiment(spec, out_dir=args.out)
    print(f"wrote {summary.num_runs} runs to {summary.csv_path}")
    manifest = json.loads(summary.manifest_path.read_text())
    means = tuned_output_means(spec, manifest["output_excess"])
    dispersion = final_quarter_dispersion(spec, summary.csv_path)

    grid = [entry["eta"] for entry in manifest["tuning"][f"{spec.algorithms[0]}-M{m}-K{k}"]]
    print(f"grid-tuning on eta in [{grid[0]:.0e}, {grid[-1]:.0e}] "
          f"({len(grid)} points, {len(spec.seeds)} seeds)")
    for name in spec.algorithms:
        eta = manifest["resolved_lr"][f"{name}-M{m}-K{k}"]
        print(f"  {name:<10} eta={eta:<10.4g} mean final excess = {means[(name, m, k)]:.4g}")
    for name in ("slowcal", "local"):
        print(f"  {name:<10} final-quarter query dispersion = {dispersion[(name, m, k)]:.4g}")
    ratio = dispersion[("local", m, k)] / dispersion[("slowcal", m, k)]
    print(f"dispersion ratio local/slowcal = {ratio:.1f}x")
    return 1 if summary.any_diverged else 0


if __name__ == "__main__":
    sys.exit(main())
