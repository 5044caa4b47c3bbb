"""Run diagnostics: excess loss, query dispersion, bias increments, and the
momentum-form residual of the query-averaging recursion.

Every machine mean here, of points or of gradients, is ``_ascending_mean``:
a running sum in ascending index order, the one order the engine averages
in, so a diagnostic's mean is bitwise the engine's."""
from __future__ import annotations

import numpy as np

from .weights import prefix_weight, weight_at


def excess_loss(problem, x: np.ndarray) -> float:
    return problem.global_value(np.asarray(x, dtype=np.float64)) - problem.f_star


def _ascending_mean(rows: np.ndarray) -> np.ndarray:
    """(..., n, d) -> (..., d): the mean over axis -2 (machines, steps or
    anchors), summed in ascending index order."""
    acc = rows[..., 0, :].copy()
    for i in range(1, rows.shape[-2]):
        acc += rows[..., i, :]
    return acc / rows.shape[-2]


def squared_norms(vecs: np.ndarray) -> np.ndarray:
    """v @ v for every row v of a (..., d) array, as stacked (1, d) @ (d, 1)
    products: bitwise equal to each row's own v @ v (and so to the square of
    np.linalg.norm), which einsum and (v * v).sum(-1) are not."""
    return (vecs[..., None, :] @ vecs[..., :, None])[..., 0, 0]


def _squared(alpha: float | np.ndarray) -> float | np.ndarray:
    """alpha ** 2; an array's alphas each squared as a Python float (libm's
    pow), which numpy's arr ** 2 (x * x) is not always bitwise equal to."""
    return alpha ** 2 if np.ndim(alpha) == 0 else np.array([a ** 2 for a in alpha.tolist()])


def dispersion(states: np.ndarray, alpha: float | np.ndarray) -> float | np.ndarray:
    """(alpha^2 / M^2) * sum over ordered pairs (i, j) of ||x_i - x_j||^2.

    Computed through the centered identity sum_ij ||x_i - x_j||^2
    = 2 M sum_i ||x_i - mean||^2, about the ascending machine mean.
    ``states`` is (M, d), one row per machine, giving a float, or
    (lanes, M, d), giving one value per lane (``alpha`` may be one per
    lane), each bitwise equal to its own call.
    """
    pts = np.atleast_2d(np.asarray(states, dtype=np.float64))
    m = pts.shape[-2]
    centered = pts - _ascending_mean(pts)[..., None, :]
    total = (centered ** 2).reshape(*pts.shape[:-2], -1).sum(axis=-1)
    value = _squared(alpha) * 2.0 / m * total
    return float(value) if pts.ndim == 2 else value


def bias_increment(problem, states: np.ndarray, alpha: float | np.ndarray,
                   grad_at_mean: np.ndarray | None = None) -> float | np.ndarray:
    """alpha^2 ||mean_i grad_i(x_i) - grad f(mean_i x_i)||^2 for one step's
    per-machine query points (one row per machine), both means ascending.
    Like ``dispersion``, an (M, d) input gives a float and (lanes, M, d) one
    value per lane; alpha may be one per lane. ``grad_at_mean`` is grad f at
    the ascending machine mean, if the caller already holds it; it is used
    as given, in place of a global-gradient evaluation."""
    pts = np.atleast_2d(np.asarray(states, dtype=np.float64))
    m = pts.shape[-2]
    if m != problem.num_machines:
        raise ValueError(f"need one state row per machine, got {m}")
    if grad_at_mean is None:
        grad_at_mean = problem.global_gradient(_ascending_mean(pts))
    gap = _ascending_mean(problem.exact_gradients(pts)) - grad_at_mean
    value = _squared(alpha) * squared_norms(gap)
    return float(value) if pts.ndim == 2 else value


def momentum_residual(trajectory) -> float:
    """Max residual of the momentum form of the query-averaging recursion:

        (x_{t+1} - x_t) / eta  must equal
        -(alpha_{t+1} / (alpha_{0:t+1} alpha_{0:t})) * sum_{n<=t} alpha_n alpha_{0:n} g_n

    Exact algebra for any gradient sequence, so the residual is pure float
    rounding. Requires per-step records (record_diagnostics=True)."""
    steps = trajectory.steps
    if not steps:
        raise ValueError("momentum_residual needs a trajectory with per-step records")
    schedule = trajectory.schedule
    eta = trajectory.eta
    weighted_sum = np.zeros_like(steps[0].x_mean)
    worst = 0.0
    for t in range(len(steps) - 1):
        rec = steps[t]
        if rec.g_mean is None:
            raise ValueError(f"step record {t} is missing its gradient")
        weighted_sum = weighted_sum + weight_at(schedule, t) * prefix_weight(schedule, t) * rec.g_mean
        coeff = weight_at(schedule, t + 1) / (
            prefix_weight(schedule, t + 1) * prefix_weight(schedule, t)
        )
        residual = (steps[t + 1].x_mean - rec.x_mean) / eta + coeff * weighted_sum
        worst = max(worst, float(np.linalg.norm(residual)))
    return worst
