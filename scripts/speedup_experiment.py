#!/usr/bin/env python3
"""Machine-doubling experiment in the noise-dominated regime.

Runs the grid-tuned sweep described by configs/speedup.json through the
standard experiment harness and reports the ratio of mean excess loss at the
method's designated output point between the two machine counts. With zero
heterogeneity and dominant gradient noise the statistically optimal term
scales as 1/sqrt(M*K*R), so doubling M should shrink the tuned excess by
about sqrt(2) = 1.41.

The per-round excess_loss column in runs.csv tracks the consensus iterate,
not the averaged output point, so the ratio is computed from the manifest's
output_excess, each run's excess at its output point.

Usage: python3 scripts/speedup_experiment.py [--config configs/speedup.json]
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from slowcal_lab import load_spec, run_experiment

DEFAULT_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "speedup.json"


def tuned_output_means(spec, output_excess: dict[str, float | None]) -> dict:
    """Mean excess at x_output per (algorithm, machine count), over the
    seeds, from the manifest's {run_id: excess} map, where null marks a
    non-finite excess."""
    k = spec.local_steps[0]
    kind = spec.problem["kind"]

    def excess(run_id: str) -> float:
        value = output_excess[run_id]
        return math.inf if value is None else value
    return {
        (name, m): float(np.mean([excess(f"{name}-{kind}-M{m}-K{k}-s{seed}")
                                  for seed in spec.seeds]))
        for m in spec.machines for name in spec.algorithms
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", default=str(DEFAULT_CONFIG))
    parser.add_argument("--out", default=None, help="output directory override")
    args = parser.parse_args(argv)

    spec = load_spec(args.config)
    if len(spec.machines) != 2 or len(spec.local_steps) != 1:
        print("config must sweep exactly two machine counts at one local-step "
              f"count, got machines={spec.machines} local_steps={spec.local_steps}",
              file=sys.stderr)
        return 2
    small, large = sorted(spec.machines)

    summary = run_experiment(spec, out_dir=args.out)
    print(f"wrote {summary.num_runs} runs to {summary.csv_path}")
    manifest = json.loads(summary.manifest_path.read_text())
    means = tuned_output_means(spec, manifest["output_excess"])

    print(f"{'method':<12} {'M=' + str(small):>12} {'M=' + str(large):>12} {'ratio':>8}")
    for name in spec.algorithms:
        lo, hi = means[(name, small)], means[(name, large)]
        print(f"{name:<12} {lo:>12.4g} {hi:>12.4g} {lo / hi:>8.3f}")
    print("(noise-dominated prediction for M x2: about 1.41)")
    return 1 if summary.any_diverged else 0


if __name__ == "__main__":
    sys.exit(main())
