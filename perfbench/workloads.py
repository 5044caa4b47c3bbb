"""Workload configs, generated from a workload seed.

The program under test only ever sees the JSON these functions return.
Each workload keeps its shape (machine counts, grid, rounds, methods) fixed
across seeds, so the work per sweep is the same and only the problem
instance and the run seeds change. Seed 0 is the default seed: its
digests are pinned in ``golden/`` and ``quad-grid`` at seed 0 is exactly
``configs/speedup.json``.
"""
from __future__ import annotations

import json

DEFAULT_SEED = 0

# 13 log-spaced points over [1e-3, 10], written as in configs/speedup.json
SPEEDUP_GRID = [
    0.001, 0.0021544346900318843, 0.004641588833612777, 0.01,
    0.021544346900318832, 0.046415888336127774, 0.1, 0.21544346900318823,
    0.46415888336127775, 1.0, 2.154434690031882, 4.6415888336127775, 10.0,
]


def quad_grid(seed: int) -> dict:
    return {
        "name": "speedup",
        "problem": {
            "kind": "quadratic",
            "dim": 20,
            "curvature": "per-machine",
            "eig_range": [0.02, 0.08],
            "center_spread": 0.0,
            "sigma": 5.0,
            "problem_seed": seed,
        },
        "algorithm": ["minibatch", "slowcal"],
        "machines": [8, 16],
        "local_steps": [8],
        "rounds": 40,
        "x0": "ones:20",
        "lr": "grid:" + json.dumps(SPEEDUP_GRID),
        "seeds": list(range(10 * seed, 10 * seed + 10)),
        "out_dir": "runs/speedup",
    }


def logistic_pool(seed: int) -> dict:
    return {
        "name": "logistic-pool",
        "problem": {
            "kind": "synth-logistic",
            "dim": 10,
            "num_classes": 4,
            "n_per_machine": 64,
            "label_skew": 0.3,
            "problem_seed": seed,
        },
        "algorithm": ["local", "local-weighted", "anytime", "slowcal"],
        "machines": [8],
        "local_steps": [4, 32],
        "total_steps": 256,
        "lr": "grid:[0.003, 0.01, 0.03, 0.1]",
        "seeds": list(range(5 * seed, 5 * seed + 5)),
        "out_dir": "runs/logistic-pool",
    }


def quad_diag(seed: int) -> dict:
    return {
        "name": "quad-diag",
        "problem": {"kind": "quadratic", "dim": 6, "sigma": 0.0, "problem_seed": seed},
        "algorithm": ["minibatch", "local", "local-weighted", "anytime", "slowcal"],
        "schedule": "poly:1.5",
        "machines": [4],
        "local_steps": [1],
        "rounds": 3000,
        "lr": "fixed:0.000002",
        "seeds": [2 * seed, 2 * seed + 1],
        "diagnostics": True,
        "out_dir": "runs/quad-diag",
    }


# name -> (config generator, SLOWCAL_LAB_JOBS for the sweep; None leaves it unset)
WORKLOADS = {
    "quad-grid": (quad_grid, None),
    "logistic-pool": (logistic_pool, 2),
    "quad-diag": (quad_diag, None),
}
