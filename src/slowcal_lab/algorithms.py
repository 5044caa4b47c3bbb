"""Parameter-server methods: minibatch SGD, local SGD (plain and weighted),
the single-worker query-averaging method, and its drift-corrected local
variant.

All five run one two-slot recursion, the anytime online-to-batch form: an
iterate w descends along stochastic gradients taken at a query point x,
over R rounds of K local steps, with aggregation by ascending-machine-index
averaging. A method is a small ``Method`` spec (query slot, step weight,
aggregation, output rule) and ``run_lanes`` is the one engine that runs
them. It works on (lanes, machines, d) arrays of w and x, where a lane is
one step size: grid tuning runs every candidate of a seed as the lanes of
one call, and ``ALGORITHMS[name](problem, cfg)`` is the one-lane call.
Stochastic draws are keyed by (seed, machine, round, step) and made once
per round for all lanes and machines, so a trajectory is a pure function
of (problem, config) whatever else runs beside it.

Conventions shared by every method:

* exactly R round records; record fields are measured at the round-end
  anchor, with dispersion/bias evaluated on the pre-aggregation worker
  states (post-aggregation they are identically zero);
* divergence (non-finite round excess, or round excess above 1e6 x the
  initial excess) freezes the run: the flag is sticky and the remaining
  round records carry +inf, never NaN; a frozen lane leaves the batch;
* with record_diagnostics, per-step records store the post-aggregation
  machine means and the mean gradient actually applied at each step;
* the weight helpers are looked up in this module at run time, so the
  verify suite's mutation probes can patch them here.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .metrics import RoundMetrics, bias_increment, dispersion
from .weights import LINEAR, WeightSchedule, averaging_coeff, prefix_weight, weight_at

DIVERGENCE_FACTOR = 1e6


@dataclass
class RunConfig:
    M: int
    K: int
    R: int
    eta: float
    schedule: WeightSchedule = LINEAR
    seed: int = 0
    record_diagnostics: bool = False
    x0: np.ndarray | None = None


@dataclass
class ServerAnchor:
    """State broadcast at a round boundary; round = completed rounds."""

    round: int
    w: np.ndarray
    x: np.ndarray


@dataclass
class StepRecord:
    t: int
    w_mean: np.ndarray
    x_mean: np.ndarray
    g_mean: np.ndarray | None
    dispersion_q: float
    bias_increment: float


@dataclass
class Trajectory:
    algorithm: str
    eta: float
    schedule: WeightSchedule
    seed: int
    rounds: list[RoundMetrics]
    anchors: list[ServerAnchor]
    x_output: np.ndarray
    diverged: bool
    steps: list[StepRecord] | None = None


def _validate(problem, cfg: RunConfig, single_worker: bool = False) -> None:
    if cfg.K < 1 or cfg.R < 1:
        raise ValueError(f"K and R must be >= 1, got K={cfg.K} R={cfg.R}")
    if not (cfg.eta > 0 and math.isfinite(cfg.eta)):
        raise ValueError(f"eta must be a positive finite float, got {cfg.eta}")
    if cfg.seed < 0:
        raise ValueError(f"seed must be nonnegative, got {cfg.seed}")
    if single_worker:
        if cfg.M != 1:
            raise ValueError(f"this runner drives one logical worker; cfg.M must be 1, got {cfg.M}")
    elif cfg.M != problem.num_machines:
        raise ValueError(
            f"cfg.M={cfg.M} does not match the ensemble's {problem.num_machines} machines"
        )


def _start_point(problem, cfg: RunConfig) -> np.ndarray:
    if cfg.x0 is None:
        return np.zeros(problem.dim)
    x0 = np.asarray(cfg.x0, dtype=np.float64).copy()
    if x0.shape != (problem.dim,):
        raise ValueError(f"x0 shape {x0.shape} does not match problem dim {problem.dim}")
    return x0


def _ascending_mean(rows: np.ndarray) -> np.ndarray:
    acc = rows[0].copy()
    for i in range(1, rows.shape[0]):
        acc += rows[i]
    return acc / rows.shape[0]


class _Recorder:
    """Shared bookkeeping: round records, anchors, divergence freeze."""

    def __init__(self, problem, cfg: RunConfig, x_start: np.ndarray):
        self.problem = problem
        self.cfg = cfg
        self.rounds: list[RoundMetrics] = []
        self.anchors: list[ServerAnchor] = []
        self.steps: list[StepRecord] | None = [] if cfg.record_diagnostics else None
        self.diverged = False
        initial = problem.global_value(x_start) - problem.f_star
        self.threshold = DIVERGENCE_FACTOR * initial if initial > 0 else DIVERGENCE_FACTOR

    def place_anchor(self, completed: int, w: np.ndarray, x: np.ndarray) -> None:
        self.anchors.append(ServerAnchor(completed, w.copy(), x.copy()))

    def record_step(self, t: int, w_mean: np.ndarray, x_mean: np.ndarray,
                    g_mean: np.ndarray | None, x_states: np.ndarray) -> None:
        if self.steps is None:
            return
        alpha = weight_at(self.cfg.schedule, t)
        self.steps.append(StepRecord(
            t=t,
            w_mean=w_mean.copy(),
            x_mean=x_mean.copy(),
            g_mean=None if g_mean is None else g_mean.copy(),
            dispersion_q=dispersion(x_states, alpha),
            bias_increment=bias_increment(self.problem, x_states, alpha),
        ))

    def close_round(self, r: int, x_states: np.ndarray, w_mean: np.ndarray) -> bool:
        """Record round r from pre-aggregation states; returns True when the
        run just diverged and must freeze."""
        t = (r + 1) * self.cfg.K
        x_mean = _ascending_mean(x_states)
        excess = self.problem.global_value(x_mean) - self.problem.f_star
        grad = self.problem.global_gradient(x_mean)
        alpha = weight_at(self.cfg.schedule, t)
        w_gap = w_mean - self.problem.w_star
        values = {
            "excess_loss": excess,
            "grad_norm": float(np.linalg.norm(grad)),
            "dispersion_q": dispersion(x_states, alpha),
            "v_increment": bias_increment(self.problem, x_states, alpha),
            "d_t": float(w_gap @ w_gap),
        }
        bad = not all(math.isfinite(v) for v in values.values())
        if bad or excess > self.threshold:
            self.diverged = True
        clean = {k: (v if math.isfinite(v) else math.inf) for k, v in values.items()}
        self.rounds.append(RoundMetrics(round=r, t=t, diverged=self.diverged, **clean))
        return self.diverged

    def freeze_remaining(self, start_round: int) -> None:
        for r in range(start_round, self.cfg.R):
            self.rounds.append(RoundMetrics(
                round=r, t=(r + 1) * self.cfg.K,
                excess_loss=math.inf, grad_norm=math.inf, dispersion_q=math.inf,
                v_increment=math.inf, d_t=math.inf, diverged=True,
            ))


@dataclass(frozen=True)
class Method:
    """One method as a specialisation of the shared two-slot recursion.

    query      "x": gradients are taken at x, the alpha-weighted running
               average of w; "w": x is tied to w (plain SGD steps)
    weighted   step t moves by eta * alpha_t instead of eta
    aggregate  "round": one state per machine, both slots averaged at each
               round end; "step": one shared state, stepped with the
               machine-mean gradient; "server": one shared state that the
               round's machine-mean gradients move once, at the round end
    output     "last": the last anchor's x; "anchor-mean": the mean of the
               round anchors; "weighted-mean": the alpha-weighted average of
               the per-step machine means of w, from the start point on
    """

    name: str
    query: str
    weighted: bool
    aggregate: str
    output: str


METHODS = {spec.name: spec for spec in (
    Method("minibatch", query="w", weighted=False, aggregate="server", output="anchor-mean"),
    Method("local", query="w", weighted=False, aggregate="round", output="last"),
    Method("local-weighted", query="w", weighted=True, aggregate="round", output="weighted-mean"),
    Method("anytime", query="x", weighted=True, aggregate="step", output="last"),
    Method("slowcal", query="x", weighted=True, aggregate="round", output="last"),
)}


def _machine_mean(states: np.ndarray) -> np.ndarray:
    """(lanes, copies, d) -> (lanes, d), summed in ascending machine order."""
    return _ascending_mean(np.swapaxes(states, 0, 1))


def run_lanes(problem, method: str, cfg: RunConfig, etas) -> list[Trajectory]:
    """Run `method` once per step size in `etas`, as the lanes of one
    recursion over (lanes, machines, d) arrays of w and x. The lanes share
    every round's draws, and lane j returns exactly the trajectory of a run
    with cfg.eta = etas[j]; a lane that diverges freezes and leaves the batch
    while the others go on."""
    spec = METHODS[method]
    lane_cfgs = [replace(cfg, eta=float(eta)) for eta in etas]
    for lane_cfg in lane_cfgs:
        _validate(problem, lane_cfg, single_worker=spec.aggregate == "step")
    m, k_steps, schedule = problem.num_machines, cfg.K, cfg.schedule
    start = _start_point(problem, cfg)
    copies = m if spec.aggregate == "round" else 1
    tied = spec.query == "w"
    w = np.tile(start, (len(lane_cfgs), copies, 1))
    x = w if tied else w.copy()
    acc = None
    if spec.output == "weighted-mean":
        acc = np.tile(weight_at(schedule, 0) * start, (len(lane_cfgs), 1))
    recs = [_Recorder(problem, lane_cfg, start) for lane_cfg in lane_cfgs]
    for rec in recs:
        rec.place_anchor(0, start, start)
    lanes = list(range(len(lane_cfgs)))  # the lane of each row of w and x
    lane_etas = np.array([lane_cfg.eta for lane_cfg in lane_cfgs])
    out: list[Trajectory | None] = [None] * len(lane_cfgs)

    def machine_states(row: int) -> np.ndarray:
        return x[row] if copies == m else np.tile(x[row, 0], (m, 1))

    def finish(row: int) -> None:
        rec = recs[lanes[row]]
        if rec.steps is not None:
            rec.record_step(rec.anchors[-1].round * k_steps, _ascending_mean(w[row]),
                            _ascending_mean(x[row]), None, machine_states(row))
        if spec.output == "anchor-mean":
            x_output = _ascending_mean(np.stack([a.x for a in rec.anchors[1:]]))
        elif spec.output == "weighted-mean":
            x_output = acc[row] / prefix_weight(schedule, k_steps * cfg.R)
        else:
            x_output = rec.anchors[-1].x.copy()
        out[lanes[row]] = Trajectory(spec.name, rec.cfg.eta, schedule, cfg.seed, rec.rounds,
                                     rec.anchors, x_output, rec.diverged, rec.steps)

    with np.errstate(over="ignore", invalid="ignore"):
        for r in range(cfg.R):
            if not lanes:
                break
            draws = problem.round_draws(cfg.seed, r, k_steps)
            if spec.aggregate == "server":
                pooled = np.empty((len(lanes), k_steps, problem.dim))
            for k in range(k_steps):
                t = r * k_steps + k
                queries = x if copies == m else np.repeat(x, m, axis=1)
                grads = problem.sampled_gradients(queries, draws, k)
                if spec.aggregate == "server":
                    g_mean = np.zeros((len(lanes), problem.dim))
                    for i in range(m):
                        g_mean += grads[:, i]
                    g_mean /= m
                    pooled[:, k] = g_mean
                elif spec.aggregate == "step" or cfg.record_diagnostics:
                    g_mean = _machine_mean(grads)
                if cfg.record_diagnostics:
                    w_mean, x_mean = _machine_mean(w), _machine_mean(x)
                    for row, lane in enumerate(lanes):
                        recs[lane].record_step(t, w_mean[row], x_mean[row], g_mean[row],
                                               queries[row])
                if spec.aggregate == "server":
                    continue
                alpha = weight_at(schedule, t) if spec.weighted else 1.0
                applied = grads if spec.aggregate == "round" else g_mean[:, None]
                w -= (lane_etas * alpha)[:, None, None] * applied
                if not tied:
                    gamma = averaging_coeff(schedule, t)
                    x *= 1.0 - gamma
                    x += gamma * w
                if acc is not None:
                    acc = acc + weight_at(schedule, t + 1) * _machine_mean(w)

            if spec.aggregate == "server":
                w = x = x - (lane_etas[:, None] * pooled.mean(axis=1))[:, None]
            w_mean = _machine_mean(w)
            diverged = [row for row, lane in enumerate(lanes)
                        if recs[lane].close_round(r, machine_states(row), w_mean[row])]
            x_mean = w_mean if tied else _machine_mean(x)
            if copies > 1:
                w = np.repeat(w_mean[:, None], copies, axis=1)
                x = w if tied else np.repeat(x_mean[:, None], copies, axis=1)
            for row, lane in enumerate(lanes):
                recs[lane].place_anchor(r + 1, w_mean[row], x_mean[row])
            if diverged:
                for row in diverged:
                    recs[lanes[row]].freeze_remaining(r + 1)
                    finish(row)
                keep = [row for row in range(len(lanes)) if row not in diverged]
                lanes = [lanes[row] for row in keep]
                w = w[keep]
                x = w if tied else x[keep]
                lane_etas = lane_etas[keep]
                if acc is not None:
                    acc = acc[keep]

    for row in range(len(lanes)):
        finish(row)
    return out


def run_minibatch(problem, cfg: RunConfig) -> Trajectory:
    """Synchronous minibatch SGD: one model step per round, each machine
    contributing the mean of K stochastic gradients at the round anchor."""
    return run_lanes(problem, "minibatch", cfg, [cfg.eta])[0]


def run_local(problem, cfg: RunConfig, weighted: bool = False) -> Trajectory:
    """Local SGD: machines run K SGD steps on their own objective, the
    server averages iterates at round boundaries. The weighted variant
    scales step t by alpha_t and outputs the alpha-weighted average of the
    per-step machine means; the plain variant outputs the last anchor."""
    return run_lanes(problem, "local-weighted" if weighted else "local", cfg, [cfg.eta])[0]


def run_local_weighted(problem, cfg: RunConfig) -> Trajectory:
    return run_local(problem, cfg, weighted=True)


def run_anytime_single(problem, cfg: RunConfig) -> Trajectory:
    """Single-worker query-averaging SGD. The iterate w descends along
    gradients taken at the running weighted average x of all iterates:

        w_{t+1} = w_t - eta * alpha_t * g(x_t)
        x_{t+1} = (1 - gamma_{t+1}) x_t + gamma_{t+1} w_{t+1}

    cfg.M must be 1 (one logical worker); the gradient oracle is the
    machine-averaged stochastic gradient of the ensemble, which with
    sigma=0 is exactly the batch gradient of the global objective."""
    return run_lanes(problem, "anytime", cfg, [cfg.eta])[0]


def run_slowcal(problem, cfg: RunConfig) -> Trajectory:
    """Drift-corrected local SGD: every machine runs the query-averaging
    recursion locally, querying gradients at its running weighted average
    of iterates instead of at the iterates themselves; the server averages
    both slots at round boundaries."""
    return run_lanes(problem, "slowcal", cfg, [cfg.eta])[0]


ALGORITHMS = {
    "minibatch": run_minibatch,
    "local": run_local,
    "local-weighted": run_local_weighted,
    "anytime": run_anytime_single,
    "slowcal": run_slowcal,
}
