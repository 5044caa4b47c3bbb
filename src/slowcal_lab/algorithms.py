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
one call, and ``ALGORITHMS[name](problem, cfg)``, built from ``METHODS``,
is the one-lane call and the way to run a single method. The machine count
is the ensemble's, so a config carries none (``anytime`` pools every
machine's draws into one logical worker).
Stochastic draws are keyed by (seed, machine, round, step) and made once
per round for all lanes and machines, so a trajectory is a pure function
of (problem, config) whatever else runs beside it. One recorder keeps the
records of every lane of a call, and each round close and step record
measures all live lanes in one batched pass (``metrics.dispersion`` and
``bias_increment`` and the ensembles' ``global_value`` and
``global_gradient`` take lane axes), each lane's values bitwise equal to a
run of its own. ``Trajectory.pack`` reduces a run to the ``PackedRun``
the runner writes out: round values in arrays, no anchors or step records.

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
from operator import attrgetter

import numpy as np

from .metrics import RoundMetrics, bias_increment, dispersion, squared_norms
from .weights import LINEAR, WeightSchedule, averaging_coeff, prefix_weight, weight_at

DIVERGENCE_FACTOR = 1e6


@dataclass
class RunConfig:
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

    def pack(self, wall_ms: float) -> "PackedRun":
        """This run without its anchors and step records."""
        return PackedRun(
            np.array([_round_values(rm) for rm in self.rounds], dtype=np.float64),
            np.array([rm.t for rm in self.rounds], dtype=np.int64),
            np.array([rm.diverged for rm in self.rounds], dtype=bool),
            self.x_output, wall_ms)


ROUND_COLUMNS = ("excess_loss", "grad_norm", "dispersion_q", "v_increment", "d_t")
_round_values = attrgetter(*ROUND_COLUMNS)


@dataclass
class PackedRun:
    """A run reduced to what the runner writes out: its round values as an
    (R, 5) array in ``ROUND_COLUMNS`` order, each round's sample count ``t``
    and divergence flag, the output point, and the wall time charged to the
    run."""

    values: np.ndarray
    t: np.ndarray
    diverged: np.ndarray
    x_output: np.ndarray
    wall_ms: float


def _validate(cfg: RunConfig) -> None:
    if cfg.K < 1 or cfg.R < 1:
        raise ValueError(f"K and R must be >= 1, got K={cfg.K} R={cfg.R}")
    if not (cfg.eta > 0 and math.isfinite(cfg.eta)):
        raise ValueError(f"eta must be a positive finite float, got {cfg.eta}")
    if cfg.seed < 0:
        raise ValueError(f"seed must be nonnegative, got {cfg.seed}")


def _start_point(problem, cfg: RunConfig) -> np.ndarray:
    if cfg.x0 is None:
        return np.zeros(problem.dim)
    x0 = np.asarray(cfg.x0, dtype=np.float64).copy()
    if x0.shape != (problem.dim,):
        raise ValueError(f"x0 shape {x0.shape} does not match problem dim {problem.dim}")
    return x0


def _ascending_mean(rows: np.ndarray) -> np.ndarray:
    """(..., n, d) -> (..., d): the mean over axis -2 (machines, or
    anchors), summed in ascending index order."""
    acc = rows[..., 0, :].copy()
    for i in range(1, rows.shape[-2]):
        acc += rows[..., i, :]
    return acc / rows.shape[-2]


class _Recorder:
    """Shared bookkeeping for every lane of one run_lanes call: round
    records, anchors, per-step records and the divergence freeze. Each
    round close and step record measures all live lanes at once; row j of
    the arrays passed in belongs to lane ``lanes[j]``."""

    def __init__(self, problem, cfg: RunConfig, x_start: np.ndarray, num_lanes: int):
        self.problem = problem
        self.cfg = cfg
        self.lanes = list(range(num_lanes))  # the lane of each live row
        self.rounds: list[list[RoundMetrics]] = [[] for _ in self.lanes]
        self.anchors = [[ServerAnchor(0, x_start.copy(), x_start.copy())] for _ in self.lanes]
        self.steps: list[list[StepRecord]] | None = (
            [[] for _ in self.lanes] if cfg.record_diagnostics else None)
        self.diverged = [False] * num_lanes
        initial = problem.global_value(x_start) - problem.f_star
        self.threshold = DIVERGENCE_FACTOR * initial if initial > 0 else DIVERGENCE_FACTOR

    def place_anchor(self, completed: int, w: np.ndarray, x: np.ndarray) -> None:
        for row, lane in enumerate(self.lanes):
            self.anchors[lane].append(ServerAnchor(completed, w[row].copy(), x[row].copy()))

    def record_step(self, t: int, w_mean: np.ndarray, x_mean: np.ndarray,
                    g_mean: np.ndarray | None, x_states: np.ndarray,
                    rows: list[int] | None = None) -> None:
        """Step t's records of the live rows ``rows`` (all by default), from
        their (rows, d) means and (rows, M, d) query points."""
        alpha = weight_at(self.cfg.schedule, t)
        spreads = dispersion(x_states, alpha).tolist()
        biases = bias_increment(self.problem, x_states, alpha).tolist()
        for j, row in enumerate(range(len(self.lanes)) if rows is None else rows):
            self.steps[self.lanes[row]].append(StepRecord(
                t=t,
                w_mean=w_mean[j].copy(),
                x_mean=x_mean[j].copy(),
                g_mean=None if g_mean is None else g_mean[j].copy(),
                dispersion_q=spreads[j],
                bias_increment=biases[j],
            ))

    def close_round(self, r: int, x_states: np.ndarray, w_mean: np.ndarray) -> list[int]:
        """Record round r of every live lane from the (rows, M, d)
        pre-aggregation states and (rows, d) w means; returns the rows whose
        lanes just diverged and must freeze."""
        problem, f_star = self.problem, self.problem.f_star
        t = (r + 1) * self.cfg.K
        x_mean = _ascending_mean(x_states)
        alpha = weight_at(self.cfg.schedule, t)
        columns = zip(
            [value - f_star for value in problem.global_value(x_mean).tolist()],
            np.sqrt(squared_norms(problem.global_gradient(x_mean))).tolist(),
            dispersion(x_states, alpha).tolist(),
            bias_increment(problem, x_states, alpha).tolist(),
            squared_norms(w_mean - problem.w_star).tolist(),
        )
        diverged = []
        for row, (lane, values) in enumerate(zip(self.lanes, columns)):
            if not all(map(math.isfinite, values)) or values[0] > self.threshold:
                self.diverged[lane] = True
                diverged.append(row)
            excess, grad_norm, spread, bias, d_t = [
                v if math.isfinite(v) else math.inf for v in values]
            self.rounds[lane].append(RoundMetrics(
                round=r, t=t, excess_loss=excess, grad_norm=grad_norm, dispersion_q=spread,
                v_increment=bias, d_t=d_t, diverged=self.diverged[lane],
            ))
        return diverged

    def freeze(self, rows: list[int], start_round: int) -> None:
        """Fill the remaining round records of the lanes of ``rows`` with +inf."""
        for row in rows:
            self.rounds[self.lanes[row]].extend(RoundMetrics(
                round=r, t=(r + 1) * self.cfg.K,
                excess_loss=math.inf, grad_norm=math.inf, dispersion_q=math.inf,
                v_increment=math.inf, d_t=math.inf, diverged=True,
            ) for r in range(start_round, self.cfg.R))


@dataclass(frozen=True)
class Method:
    """One method as a specialisation of the shared two-slot recursion:

        w_{t+1} = w_t - eta * alpha_t * g(x_t)
        x_{t+1} = (1 - gamma_{t+1}) x_t + gamma_{t+1} w_{t+1}

    ``anytime`` is exactly this on one logical worker whose oracle is the
    machine-averaged stochastic gradient of the ensemble (with sigma=0, the
    batch gradient of the global objective); the other methods change the
    fields below.

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


def run_lanes(problem, method: str, cfg: RunConfig, etas) -> list[Trajectory]:
    """Run `method` once per step size in `etas`, as the lanes of one
    recursion over (lanes, machines, d) arrays of w and x. The lanes share
    every round's draws, and lane j returns exactly the trajectory of a run
    with cfg.eta = etas[j]; a lane that diverges freezes and leaves the batch
    while the others go on."""
    spec = METHODS[method]
    lane_cfgs = [replace(cfg, eta=float(eta)) for eta in etas]
    for lane_cfg in lane_cfgs:
        _validate(lane_cfg)
    m, k_steps, schedule = problem.num_machines, cfg.K, cfg.schedule
    start = _start_point(problem, cfg)
    copies = m if spec.aggregate == "round" else 1
    tied = spec.query == "w"
    w = np.tile(start, (len(lane_cfgs), copies, 1))
    x = w if tied else w.copy()
    acc = None
    if spec.output == "weighted-mean":
        acc = np.tile(weight_at(schedule, 0) * start, (len(lane_cfgs), 1))
    rec = _Recorder(problem, cfg, start, len(lane_cfgs))
    lane_etas = np.array([lane_cfg.eta for lane_cfg in lane_cfgs])
    out: list[Trajectory | None] = [None] * len(lane_cfgs)

    def machine_states(xs: np.ndarray) -> np.ndarray:
        return xs if copies == m else np.repeat(xs, m, axis=1)

    def finish(rows: list[int], completed: int) -> None:
        if rec.steps is not None:
            rec.record_step(completed * k_steps, _ascending_mean(w[rows]), _ascending_mean(x[rows]),
                            None, machine_states(x[rows]), rows)
        for row in rows:
            lane = rec.lanes[row]
            anchors = rec.anchors[lane]
            if spec.output == "anchor-mean":
                x_output = _ascending_mean(np.stack([a.x for a in anchors[1:]]))
            elif spec.output == "weighted-mean":
                x_output = acc[row] / prefix_weight(schedule, k_steps * cfg.R)
            else:
                x_output = anchors[-1].x.copy()
            out[lane] = Trajectory(spec.name, lane_cfgs[lane].eta, schedule, cfg.seed,
                                   rec.rounds[lane], anchors, x_output, rec.diverged[lane],
                                   None if rec.steps is None else rec.steps[lane])

    with np.errstate(over="ignore", invalid="ignore"):
        for r in range(cfg.R):
            if not rec.lanes:
                break
            draws = problem.round_draws(cfg.seed, r, k_steps)
            if spec.aggregate == "server":
                pooled = np.empty((len(rec.lanes), k_steps, problem.dim))
            for k in range(k_steps):
                t = r * k_steps + k
                queries = machine_states(x)
                grads = problem.sampled_gradients(queries, draws, k)
                if spec.aggregate == "server":
                    g_mean = np.zeros((len(rec.lanes), problem.dim))
                    for i in range(m):
                        g_mean += grads[:, i]
                    g_mean /= m
                    pooled[:, k] = g_mean
                elif spec.aggregate == "step" or cfg.record_diagnostics:
                    g_mean = _ascending_mean(grads)
                if cfg.record_diagnostics:
                    w_mean = _ascending_mean(w)
                    rec.record_step(t, w_mean, w_mean if tied else _ascending_mean(x), g_mean,
                                    queries)
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
                    acc = acc + weight_at(schedule, t + 1) * _ascending_mean(w)

            if spec.aggregate == "server":
                w = x = x - (lane_etas[:, None] * pooled.mean(axis=1))[:, None]
            w_mean = _ascending_mean(w)
            diverged = rec.close_round(r, machine_states(x), w_mean)
            x_mean = w_mean if tied else _ascending_mean(x)
            if copies > 1:
                w = np.repeat(w_mean[:, None], copies, axis=1)
                x = w if tied else np.repeat(x_mean[:, None], copies, axis=1)
            rec.place_anchor(r + 1, w_mean, x_mean)
            if diverged:
                rec.freeze(diverged, r + 1)
                finish(diverged, r + 1)
                keep = [row for row in range(len(rec.lanes)) if row not in diverged]
                rec.lanes = [rec.lanes[row] for row in keep]
                w = w[keep]
                x = w if tied else x[keep]
                lane_etas = lane_etas[keep]
                if acc is not None:
                    acc = acc[keep]

    if rec.lanes:
        finish(list(range(len(rec.lanes))), cfg.R)
    return out


def _one_lane(name: str):
    def run(problem, cfg: RunConfig) -> Trajectory:
        """One run of the method at cfg.eta: the one-lane call of run_lanes."""
        return run_lanes(problem, name, cfg, [cfg.eta])[0]
    return run


ALGORITHMS = {name: _one_lane(name) for name in METHODS}
