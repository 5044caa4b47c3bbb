"""Self-check suite: every exact algebraic identity the methods promise,
run on small deterministic problems with explicit tolerances.

Each check produces (name, tolerance, observed worst violation, pass).
The suite is what `slowcal-lab verify` runs, and the mutation tests in the
test suite assert that it actually trips when the implementation is
perturbed.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import metrics, weights
from .algorithms import ALGORITHMS, ROUND_COLUMNS, RunConfig
from .objectives import QuadraticEnsemble, heterogeneous_quadratic, LogisticEnsemble
from .data import synth_clusters


@dataclass(frozen=True)
class CheckResult:
    name: str
    tolerance: float
    observed: float
    passed: bool

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status}  {self.name:<28} observed {self.observed:.3e}  tol {self.tolerance:.1e}"


@dataclass
class VerifyReport:
    checks: list[CheckResult]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def lines(self) -> list[str]:
        return [c.line() for c in self.checks]


def _leq(name: str, observed: float, tol: float) -> CheckResult:
    return CheckResult(name, tol, float(observed), bool(observed <= tol))


def _geq_floor(name: str, observed: float, floor: float) -> CheckResult:
    return CheckResult(name, floor, float(observed), bool(observed >= floor))


def _small_quadratic(sigma: float = 0.0, machines: int = 4, dim: int = 6,
                     curvature: str = "per-machine", seed: int = 11) -> QuadraticEnsemble:
    return heterogeneous_quadratic(
        machines, dim, curvature=curvature, eig_range=(0.4, 1.2),
        center_spread=1.0, sigma=sigma, seed=seed,
    )


def _check_weights_fold() -> CheckResult:
    """Folding the averaging coefficients reproduces the explicit weighted
    running average of an arbitrary sequence."""
    rng = np.random.default_rng(3)
    worst = 0.0
    for schedule in (weights.UNIFORM, weights.LINEAR, weights.WeightSchedule(2.0)):
        seq = rng.standard_normal((40, 3))
        folded = seq[0].copy()
        acc = weights.weight_at(schedule, 0) * seq[0]
        for t in range(len(seq) - 1):
            gamma = weights.averaging_coeff(schedule, t)
            folded = (1.0 - gamma) * folded + gamma * seq[t + 1]
            acc = acc + weights.weight_at(schedule, t + 1) * seq[t + 1]
            explicit = acc / weights.prefix_weight(schedule, t + 1)
            worst = max(worst, float(np.abs(folded - explicit).max()))
    return _leq("weights-fold", worst, 1e-10)


def _check_averaging_law() -> CheckResult:
    """Server means of the drift-corrected method follow the averaging
    recursion x_{t+1} = (1-gamma) x_t + gamma w_{t+1} at every step."""
    worst = 0.0
    for schedule in (weights.UNIFORM, weights.LINEAR):
        problem = _small_quadratic(sigma=0.5)
        cfg = RunConfig(K=5, R=6, schedule=schedule, record_diagnostics=True)
        traj = ALGORITHMS["slowcal"](problem, cfg, 0.05, seed=7)
        steps = traj.steps
        for t in range(len(steps) - 1):
            gamma = weights.averaging_coeff(schedule, t)
            predicted = (1.0 - gamma) * steps[t].x_mean + gamma * steps[t + 1].w_mean
            worst = max(worst, float(np.linalg.norm(steps[t + 1].x_mean - predicted)))
    return _leq("averaging-law", worst, 1e-10)


def _check_momentum_residual() -> CheckResult:
    """Per-step displacement of the query point equals its momentum form."""
    worst = 0.0
    problem = _small_quadratic(sigma=0.0)
    for schedule in (weights.UNIFORM, weights.LINEAR):
        cfg = RunConfig(K=6, R=10, schedule=schedule, record_diagnostics=True)
        traj = ALGORITHMS["anytime"](problem, cfg, 0.05, seed=5)
        worst = max(worst, metrics.momentum_residual(traj))
    return _leq("momentum-residual", worst, 1e-10)


def _check_reduction_anytime() -> CheckResult:
    """With K=1 and sigma=0 the drift-corrected method collapses to the
    single-worker query-averaging method driven by batch gradients."""
    problem = _small_quadratic(sigma=0.0)
    steps = 18
    cfg = RunConfig(K=1, R=steps, schedule=weights.LINEAR, record_diagnostics=True)
    slow = ALGORITHMS["slowcal"](problem, cfg, 0.08)
    single = ALGORITHMS["anytime"](problem, cfg, 0.08)
    worst = float(np.linalg.norm(slow.x_output - single.x_output))
    for a, b in zip(slow.steps, single.steps, strict=True):
        worst = max(worst, float(np.linalg.norm(a.x_mean - b.x_mean)),
                    float(np.linalg.norm(a.w_mean - b.w_mean)))
    return _leq("reduction-anytime", worst, 1e-12)


def _check_reduction_gd() -> CheckResult:
    """Homogeneous noiseless local SGD is sequential gradient descent."""
    shared = _small_quadratic(sigma=0.0, curvature="shared", seed=2)
    homogeneous = QuadraticEnsemble(
        shared.curvatures, np.tile(shared.centers[0], (shared.num_machines, 1)), 0.0
    )
    eta = 0.1
    cfg = RunConfig(K=5, R=8, schedule=weights.UNIFORM)
    traj = ALGORITHMS["local"](homogeneous, cfg, eta)
    x = np.zeros(homogeneous.dim)
    for _ in range(cfg.K * cfg.R):
        x = x - eta * homogeneous.global_gradient(x)
    worst = float(np.linalg.norm(traj.x_output - x))
    return _leq("reduction-gd", worst, 1e-12)


def _check_reduction_minibatch_step0() -> CheckResult:
    """All methods agree on the first anchor when started together: the
    step records at t = K = 1."""
    problem = _small_quadratic(sigma=0.0)
    cfg = RunConfig(K=1, R=1, schedule=weights.UNIFORM, record_diagnostics=True)
    slow = ALGORITHMS["slowcal"](problem, cfg, 0.07)
    mini = ALGORITHMS["minibatch"](problem, cfg, 0.07)
    worst = float(np.linalg.norm(slow.steps[1].w_mean - mini.steps[1].x_mean))
    return _leq("reduction-minibatch-step0", worst, 1e-12)


def _check_zero_bias_shared() -> CheckResult:
    """Shared curvature cancels the query bias identically: the recorded
    bias increments of a noisy drift-corrected run are float dust."""
    problem = _small_quadratic(sigma=0.4, curvature="shared", seed=9)
    cfg = RunConfig(K=6, R=8, schedule=weights.LINEAR)
    traj = ALGORITHMS["slowcal"](problem, cfg, 0.05, seed=3)
    worst = traj.values[:, ROUND_COLUMNS.index("v_increment")].max()
    return _leq("zero-bias-shared", worst, 1e-12)


def _probe_points(problem, count: int, seed: int, scale: float) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return problem.w_star[None, :] + scale * rng.standard_normal((count, problem.dim))


def _check_growth_bound() -> CheckResult:
    """Mean squared machine gradients stay under the dissimilarity + excess
    growth envelope at 100 random probes, quadratic and logistic."""
    worst_slack = np.inf
    quad = _small_quadratic(sigma=0.0)
    for point in _probe_points(quad, 100, 17, 2.0):
        _, slack = quad.check_growth_bound(point)
        worst_slack = min(worst_slack, slack)
    logi = LogisticEnsemble(*synth_clusters(3, 5, 3, 0.3, 2.0, seed=21, n_per_machine=30),
                            3, l2=0.05)
    for point in _probe_points(logi, 100, 19, 1.0):
        _, slack = logi.check_growth_bound(point)
        worst_slack = min(worst_slack, slack)
    return _geq_floor("growth-bound-slack", float(worst_slack), -1e-9)


def _check_self_bounding() -> CheckResult:
    """Global gradient obeys ||grad f||^2 <= 2 L (f - f*) at 100 probes."""
    worst = np.inf
    for problem, scale in ((_small_quadratic(sigma=0.0), 2.0),
                           (LogisticEnsemble(
                               *synth_clusters(3, 5, 3, 0.3, 2.0, seed=23, n_per_machine=30),
                               3, l2=0.05), 1.0)):
        big_l = problem.smoothness()
        for point in _probe_points(problem, 100, 29, scale):
            grad = problem.global_gradient(point)
            slack = 2.0 * big_l * (problem.global_value(point) - problem.f_star) - float(grad @ grad)
            worst = min(worst, slack)
    return _geq_floor("self-bounding-slack", float(worst), -1e-9)


def _check_certificate() -> CheckResult:
    """Deterministic runs certify their own excess loss: for every t,
    0 <= alpha_{0:t} (f(x_t) - f*) <= sum_{tau<=t} alpha_tau <grad f(x_tau), w_tau - w*>."""
    problem = _small_quadratic(sigma=0.0)
    worst = 0.0
    for schedule in (weights.UNIFORM, weights.LINEAR):
        cfg = RunConfig(K=8, R=10, schedule=schedule, record_diagnostics=True)
        traj = ALGORITHMS["anytime"](problem, cfg, 0.05)
        running = 0.0
        for t, rec in enumerate(traj.steps):
            lhs = weights.prefix_weight(schedule, t) * (
                problem.global_value(rec.x_mean) - problem.f_star
            )
            running += weights.weight_at(schedule, t) * float(
                problem.global_gradient(rec.x_mean) @ (rec.w_mean - problem.w_star)
            )
            worst = max(worst, -lhs, lhs - running)
    return _leq("anytime-certificate", worst, 1e-8)


_CHECKS = (
    _check_weights_fold,
    _check_averaging_law,
    _check_momentum_residual,
    _check_reduction_anytime,
    _check_reduction_gd,
    _check_reduction_minibatch_step0,
    _check_zero_bias_shared,
    _check_growth_bound,
    _check_self_bounding,
    _check_certificate,
)


def verify_suite() -> VerifyReport:
    return VerifyReport([check() for check in _CHECKS])
