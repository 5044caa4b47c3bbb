"""Step-size selection (the theory's worst-case step, or a grid search that
keeps the winner's trajectories) and round-complexity floors."""
from __future__ import annotations

import math
from dataclasses import dataclass

from .algorithms import ALGORITHMS, RunConfig, Trajectory, run_lanes


class GridSearchError(RuntimeError):
    """Every candidate step size diverged."""


def theoretical_lr(*, smoothness: float, sigma: float, gstar: float, b0: float,
                   M: int, K: int, R: int) -> float:
    """Worst-case step size for the drift-corrected method under linear
    weights: the minimum of five caps over T = K*R total local steps.
    Noise- or heterogeneity-free caps degenerate to +inf and drop out."""
    if not 0 < smoothness < math.inf:
        raise ValueError(f"smoothness must be positive and finite, got {smoothness}")
    if not all(0 <= v < math.inf for v in (sigma, gstar, b0)):
        raise ValueError("sigma, gstar and b0 must be nonnegative and finite")
    if min(M, K, R) < 1:
        raise ValueError(f"M, K, R must be >= 1, got {(M, K, R)}")
    total = K * R
    caps = [
        1.0 / (48.0 * smoothness * (total + 1)),
        1.0 / (10.0 * smoothness * K ** 2),
        1.0 / (40.0 * smoothness * K * (total + 1) ** (2.0 / 3.0)),
    ]
    if sigma > 0:
        caps.append(b0 * math.sqrt(M) / (sigma * total ** 1.5))
    root_noise = math.sqrt(sigma) + math.sqrt(gstar)
    if root_noise > 0:
        caps.append(math.sqrt(b0) / (math.sqrt(smoothness) * K ** 1.75 * R * root_noise))
    eta = min(caps)
    if not eta > 0:
        raise ValueError(f"degenerate step size {eta}; check b0/sigma/gstar inputs")
    return eta


@dataclass(frozen=True)
class GridResult:
    """A grid search's outcome: the winning step size, every candidate's
    per-seed scores, and the winner's trajectories, one per seed in seed
    order, with no anchors or step records."""

    eta: float
    table: dict[float, list[float]]
    runs: list[Trajectory]


def mean_score(scores: list[float]) -> float:
    """A candidate's tuning score: the plain mean of its per-seed scores."""
    return sum(scores) / len(scores)


def grid_search(problem, algorithm: str, grid, cfg: RunConfig, seeds) -> GridResult:
    """Tune eta by mean score over seeds (a run's score: its
    ``output_excess``, the excess loss at its output point; diverged runs
    score +inf). Ties break toward the smaller step size.

    Every (seed, candidate) pair is one lane of a single run_lanes call,
    seed by seed: lanes of one seed share its draws, each lane's run equals
    its own run at that seed and step size, and the winner's trajectories
    need no replay. Each trajectory's ``wall_ms`` is the call's time
    divided by seeds x candidates. A trajectory's step records go once it is
    scored, and a candidate drops its trajectories as soon as it scores +inf
    on a seed, since it can no longer win."""
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}, expected one of {sorted(ALGORITHMS)}")
    candidates = sorted({float(v) for v in grid})
    if not candidates:
        raise ValueError("empty step-size grid")
    if not len(seeds):
        raise ValueError("grid search needs at least one seed")

    etas = candidates * len(seeds)  # seed-major lanes: scores come out in seed order
    lanes = run_lanes(problem, algorithm, cfg, etas,
                      [seed for seed in seeds for _ in candidates])
    table: dict[float, list[float]] = {eta: [] for eta in candidates}
    kept: dict[float, list[Trajectory]] = {eta: [] for eta in candidates}
    for j, eta in enumerate(etas):
        traj, lanes[j] = lanes[j], None
        value = math.inf if traj.diverged else traj.output_excess
        if not math.isfinite(value):
            value = math.inf
            kept.pop(eta, None)
        elif eta in kept:
            traj.steps = None
            kept[eta].append(traj)
        table[eta].append(value)
    best_eta, best_mean = None, math.inf
    for eta, scores in table.items():
        mean = mean_score(scores)
        if mean < best_mean:
            best_eta, best_mean = eta, mean
    if best_eta is None:
        raise GridSearchError(f"every step size diverged on grid {candidates}")
    return GridResult(best_eta, table, kept[best_eta])


_RMIN_METHODS = ("minibatch", "accelerated-minibatch", "local", "slowcal")


def rmin(method: str, M: int, K: int, g: float = 0.0) -> float:
    """Communication rounds needed before the statistically optimal error
    term dominates, in the unit-constant sigma=1 convention. `g` is the
    method's own gradient-dissimilarity constant (the at-optimum constant
    for the drift-corrected method, the uniform one for the local
    baseline); minibatch floors ignore it."""
    if min(M, K) < 1:
        raise ValueError(f"M and K must be >= 1, got {(M, K)}")
    if g < 0:
        raise ValueError(f"dissimilarity must be nonnegative, got {g}")
    mk = float(M * K)
    if method == "minibatch":
        return mk
    if method == "accelerated-minibatch":
        return mk ** (1.0 / 3.0)
    if method == "local":
        return g ** 4 * mk ** 3 + float(M) ** 3 * K
    if method == "slowcal":
        return (g + 1.0) * M * math.sqrt(K)
    raise ValueError(f"unknown method {method!r}, expected one of {_RMIN_METHODS}")
