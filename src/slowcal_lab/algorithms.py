"""Parameter-server methods: minibatch SGD, local SGD (plain and weighted),
the single-worker query-averaging method, and its drift-corrected local
variant.

All five run one two-slot recursion, the anytime online-to-batch form: an
iterate w descends along stochastic gradients taken at a query point x,
over R rounds of K local steps. Every machine mean and step mean, in the
loop and in its diagnostics, is ``metrics._ascending_mean``: a running sum
in ascending index order, the one averaging order. A method is a small
``Method`` spec (query slot, step weight, aggregation, output rule) and
``run_lanes`` is the one engine that runs them. It works on (lanes,
machines, d) arrays of w and x, where a lane is one (step size, seed)
pair and ``RunConfig`` is what every lane of a call shares. A sweep runs
each cell as one call: a grid cell's lanes are its (seed, candidate) pairs,
a fixed or theory cell's its seeds. ``ALGORITHMS[name](problem, cfg, eta,
seed=0)``, built from ``METHODS``, is the one-lane call and the way to run
a single method. The machine count is the ensemble's, so a config carries
none (``anytime`` pools every machine's draws into one logical worker).
Stochastic draws are keyed by (seed, machine, round, step) and made once
per round for every distinct seed of the live lanes, each step gathering
each lane's rows, so a trajectory is a pure function of (problem, config,
step size, seed) whatever else runs beside it. One recorder keeps the
records of every lane of a call in per-call arrays (round values and
divergence flags), and each round close and step record measures all live
lanes in one batched pass (``metrics.dispersion`` and ``bias_increment``
and the ensembles' ``global_value`` and ``global_gradient`` take lane
axes), each lane's values bitwise equal to a run of its own; a round close
evaluates the global gradient at the machine mean once, for its gradient
norm and its bias increment (passed as ``grad_at_mean``). Rounds are
measured in blocks: the loop keeps each round's pre-aggregation states,
and one round close measures a block of as many rounds as ``_BLOCK_BYTES``
of states hold (at least one; one with step records), every block size
giving the same bits. A ``Trajectory`` holds a copy of its lane's rows of
those arrays and its output excess, both taken when the lane finishes,
and ``wall_ms``, the call's time divided by its lane count; it is the one
run record, which the tuner scores and the runner writes out. Outputs come
from running state: the last anchor (the round-end machine mean), or an
ascending sum of anchors or of step means.

Conventions shared by every method:

* exactly R round records; record fields are measured at the round-end
  anchor, with dispersion/bias evaluated on the pre-aggregation worker
  states (post-aggregation they are identically zero);
* divergence (non-finite round excess, or round excess above 1e6 x the
  initial excess) freezes the run: the flag is sticky and the remaining
  round records carry +inf, never NaN; a frozen lane leaves the batch at
  its block's end, its records and output those of its diverging round;
* with record_diagnostics, per-step records store the post-aggregation
  machine means and the mean gradient actually applied at each step; they
  are the one view of a run's intermediate iterates, the record at t = rK
  holding round r's anchor as the mean of the machines' copies of it
  (bitwise the anchor with one state or one machine);
* the weight helpers are looked up in this module at run time, so the
  verify suite's mutation probes can patch them here.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .metrics import _ascending_mean, bias_increment, dispersion, squared_norms
from .rng import sizable
from .weights import LINEAR, WeightSchedule, averaging_coeff, prefix_weight, weight_at

DIVERGENCE_FACTOR = 1e6
# one round close measures a block of as many rounds as fit in this many bytes of states
_BLOCK_BYTES = 1 << 14


@dataclass
class RunConfig:
    """What every lane of a call shares; a lane is its (step size, seed)."""

    K: int
    R: int
    schedule: WeightSchedule = LINEAR
    record_diagnostics: bool = False
    x0: np.ndarray | None = None


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
    """One lane's run. ``values`` holds the round values as an (R, 5) array
    in ``ROUND_COLUMNS`` order, ``t`` each round's per-machine sample count
    and ``round_diverged`` each round's divergence flag, all three its own.
    ``output_excess``: f(x_output) - f*, bitwise ``metrics.excess_loss``.
    ``steps``: with record_diagnostics, one record per step t = 0, ...,
    completed rounds x K, else None. ``wall_ms``: see run_lanes."""

    algorithm: str
    eta: float
    schedule: WeightSchedule
    seed: int
    values: np.ndarray
    t: np.ndarray
    round_diverged: np.ndarray
    x_output: np.ndarray
    diverged: bool
    output_excess: float
    steps: list[StepRecord] | None = None
    wall_ms: float = 0.0


# the columns of Trajectory.values, named as in runs.csv
ROUND_COLUMNS = ("excess_loss", "grad_norm", "dispersion_q", "v_increment", "d_t")


def _validate(cfg: RunConfig, etas: list[float], seeds: list[int]) -> None:
    if cfg.K < 1 or cfg.R < 1:
        raise ValueError(f"K and R must be >= 1, got K={cfg.K} R={cfg.R}")
    for eta, seed in zip(etas, seeds):
        if not (eta > 0 and math.isfinite(eta)):
            raise ValueError(f"eta must be a positive finite float, got {eta}")
        if seed < 0:
            raise ValueError(f"seed must be nonnegative, got {seed}")


def _start_point(problem, cfg: RunConfig) -> np.ndarray:
    if cfg.x0 is None:
        return np.zeros(problem.dim)
    x0 = np.asarray(cfg.x0, dtype=np.float64).copy()
    if x0.shape != (problem.dim,):
        raise ValueError(f"x0 shape {x0.shape} does not match problem dim {problem.dim}")
    return x0


class _Recorder:
    """Shared bookkeeping for every lane of one run_lanes call: per-call
    arrays of round values and divergence flags, indexed (round, lane),
    per-step records, and the divergence freeze. Each round close (of a
    block of rounds) and step record measures all live lanes at once; row j
    of the arrays passed in belongs to lane ``lanes[j]``."""

    def __init__(self, problem, cfg: RunConfig, x_start: np.ndarray, num_lanes: int):
        self.problem = problem
        self.cfg = cfg
        self.lanes = np.arange(num_lanes)  # the lane of each live row
        self.values = np.empty(sizable((cfg.R, num_lanes, len(ROUND_COLUMNS))))
        self.round_diverged = np.zeros((cfg.R, num_lanes), dtype=bool)
        self.t = np.arange(1, cfg.R + 1, dtype=np.int64) * cfg.K
        self.steps: list[list[StepRecord]] | None = (
            [[] for _ in range(num_lanes)] if cfg.record_diagnostics else None)
        with np.errstate(over="ignore", invalid="ignore"):  # a start past float range diverges
            initial = problem.global_value(x_start) - problem.f_star
        self.threshold = DIVERGENCE_FACTOR * initial if initial > 0 else DIVERGENCE_FACTOR

    def drop(self, keep: list[int]) -> None:
        """Keep only the live rows ``keep``."""
        self.lanes = self.lanes[keep]

    def record_step(self, t: int, w_mean: np.ndarray, x_mean: np.ndarray,
                    g_mean: np.ndarray | None, x_states: np.ndarray,
                    rows: list[int] | None = None) -> None:
        """Step t's records of the live rows ``rows`` (all by default), from
        their (rows, d) means and (rows, M, d) query points."""
        alpha = weight_at(self.cfg.schedule, t)
        spreads = dispersion(x_states, alpha).tolist()
        biases = bias_increment(self.problem, x_states, alpha).tolist()
        lanes = self.lanes if rows is None else self.lanes[rows]
        for j, lane in enumerate(lanes.tolist()):
            self.steps[lane].append(StepRecord(
                t=t,
                w_mean=w_mean[j].copy(),
                x_mean=x_mean[j].copy(),
                g_mean=None if g_mean is None else g_mean[j].copy(),
                dispersion_q=spreads[j],
                bias_increment=biases[j],
            ))

    def close_round(self, r0: int, x_states: np.ndarray, w_mean: np.ndarray) -> dict[int, int]:
        """Record rounds r0, r0 + 1, ... of every live lane from their
        (block x rows, M, d) pre-aggregation states and (block x rows, d) w
        means, row i x rows + j being round r0 + i of live row j, in one
        batched pass. Returns each diverged row's first diverged round, from
        which on its lane is frozen: the rest of its records are +inf."""
        problem = self.problem
        rows = len(self.lanes)
        block = len(x_states) // rows
        x_mean = _ascending_mean(x_states)
        alpha = np.repeat([weight_at(self.cfg.schedule, (r + 1) * self.cfg.K)
                           for r in range(r0, r0 + block)], rows)
        values = np.empty((len(x_states), len(ROUND_COLUMNS)))
        grad = problem.global_gradient(x_mean)
        values[:, 0] = problem.global_value(x_mean) - problem.f_star
        values[:, 1] = np.sqrt(squared_norms(grad))
        values[:, 2] = dispersion(x_states, alpha)
        values[:, 3] = bias_increment(problem, x_states, alpha, grad)
        values[:, 4] = squared_norms(w_mean - problem.w_star)
        finite = np.isfinite(values)
        diverged = ~finite.all(axis=-1) | (values[:, 0] > self.threshold)
        values[~finite] = math.inf
        self.values[r0:r0 + block, self.lanes] = values.reshape(block, rows, -1)
        self.round_diverged[r0:r0 + block, self.lanes] = diverged.reshape(block, rows)
        first: dict[int, int] = {}
        for i in np.flatnonzero(diverged).tolist():  # in round order
            first.setdefault(i % rows, r0 + i // rows)
        for row, r in first.items():
            self.values[r + 1:, self.lanes[row]] = math.inf
            self.round_diverged[r + 1:, self.lanes[row]] = True
        return first

    def trajectory(self, lane: int, spec: "Method", eta: float, seed: int,
                   x_output: np.ndarray, output_excess: float) -> Trajectory:
        """Lane ``lane``'s run, with copies of this recorder's arrays."""
        return Trajectory(spec.name, eta, self.cfg.schedule, seed, self.values[:, lane].copy(),
                          self.t.copy(), self.round_diverged[:, lane].copy(), x_output,
                          bool(self.round_diverged[-1, lane]), output_excess,
                          None if self.steps is None else self.steps[lane])


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


def _draw_plan(seeds: list[int]) -> tuple[list[int], np.ndarray]:
    """What each round draws for live lanes of these seeds: the distinct
    seeds, and each lane's row in their stack of draws."""
    distinct = sorted(set(seeds))
    row = {seed: i for i, seed in enumerate(distinct)}
    return distinct, np.array([row[seed] for seed in seeds])


def run_lanes(problem, method: str, cfg: RunConfig, etas, seeds) -> list[Trajectory]:
    """Run `method` once per (step size, seed) pair, as the lanes of one
    recursion over (lanes, machines, d) arrays of w and x; `seeds` is
    aligned with `etas`. Each round draws once per distinct seed, lanes of
    one seed share those draws, and lane j returns exactly the trajectory
    of its own one-lane call at etas[j] and seeds[j]; a lane that diverges
    freezes and leaves the batch while the others go on. Rounds are closed
    in blocks of as many rounds as _BLOCK_BYTES of pre-aggregation states
    hold: a lane that diverges inside a block steps on to its end, then
    leaves with the records and output of its diverging round. Every
    trajectory is charged the call's wall time divided by the lane count."""
    started = time.perf_counter()
    spec = METHODS[method]
    etas = [float(eta) for eta in etas]
    lane_seeds = [int(seed) for seed in seeds]
    if len(lane_seeds) != len(etas):
        raise ValueError(f"got {len(lane_seeds)} seeds for {len(etas)} step sizes")
    _validate(cfg, etas, lane_seeds)
    m, k_steps, schedule = problem.num_machines, cfg.K, cfg.schedule
    start = _start_point(problem, cfg)
    copies = m if spec.aggregate == "round" else 1
    tied = spec.query == "w"
    w = np.tile(start, (len(etas), copies, 1))
    x = w if tied else w.copy()
    acc = None  # the output's running sum: of the step means of w, or of the anchors of x
    if spec.output == "weighted-mean":
        acc = np.tile(weight_at(schedule, 0) * start, (len(etas), 1))
    rec = _Recorder(problem, cfg, start, len(etas))
    lane_etas = np.array(etas)
    draw_seeds, draw_rows = _draw_plan(lane_seeds)
    out: list[Trajectory | None] = [None] * len(etas)

    def machine_states(xs: np.ndarray) -> np.ndarray:
        # blocks hold these: xs itself only where the aggregation rebinds it
        return xs if copies > 1 else np.repeat(xs, m, axis=1)

    def finish(rows: list[int], completed: list[int], sums: np.ndarray) -> None:
        """Finish rows, completed[j] rounds in, from their output sums then."""
        if rec.steps is not None:  # one-round blocks: every row ends this round
            rec.record_step(completed[0] * k_steps, _ascending_mean(w[rows]),
                            _ascending_mean(x[rows]), None, machine_states(x[rows]), rows)
        if spec.output == "anchor-mean":  # _ascending_mean of anchors 1..completed
            sums = sums / np.array(completed)[:, None]
        elif spec.output == "weighted-mean":  # over the weights of steps 0..K x completed
            sums = sums / np.array([
                prefix_weight(schedule, k_steps * c) for c in completed])[:, None]
        excess = (problem.global_value(sums) - problem.f_star).tolist()
        for lane, x_output, value in zip(rec.lanes[rows].tolist(), sums, excess):
            out[lane] = rec.trajectory(lane, spec, etas[lane], lane_seeds[lane], x_output, value)

    with np.errstate(over="ignore", invalid="ignore"):
        sums: list[np.ndarray] = []  # per round of the open block: the output's running sum
        for r in range(cfg.R):
            if not len(rec.lanes):
                break
            if not sums:  # a block opens: as many rounds as fit in _BLOCK_BYTES, at least one
                r0, states, w_means = r, [], []
                block = 1 if cfg.record_diagnostics else max(1, min(
                    cfg.R - r, _BLOCK_BYTES // (len(rec.lanes) * m * problem.dim * 8)))
            draws = problem.round_draws(draw_seeds, r, k_steps)
            if spec.aggregate == "server":  # the round's step means, summed in step order
                step_sum = np.zeros((len(rec.lanes), problem.dim))
                # x holds still all round: every step queries the same points
                queries = machine_states(x)
                round_grads = problem.fixed_point_gradients(queries, draws, k_steps, draw_rows)
            for k in range(k_steps):
                t = r * k_steps + k
                if spec.aggregate == "server":
                    grads = next(round_grads)
                else:
                    queries = machine_states(x)
                    grads = problem.sampled_gradients(queries, draws, k, draw_rows)
                if spec.aggregate != "round" or cfg.record_diagnostics:
                    g_mean = _ascending_mean(grads)
                if cfg.record_diagnostics:
                    w_mean = _ascending_mean(w)
                    rec.record_step(t, w_mean, w_mean if tied else _ascending_mean(x), g_mean,
                                    queries)
                if spec.aggregate == "server":
                    step_sum += g_mean
                    continue
                alpha = weight_at(schedule, t) if spec.weighted else 1.0
                applied = grads if spec.aggregate == "round" else g_mean[:, None]
                w -= (lane_etas * alpha)[:, None, None] * applied
                if not tied:
                    gamma = averaging_coeff(schedule, t)
                    x *= 1.0 - gamma
                    x += gamma * w
                if spec.output == "weighted-mean":
                    acc = acc + weight_at(schedule, t + 1) * _ascending_mean(w)

            if spec.aggregate == "server":
                round_grads.close()  # frees its gradients before the round close
                w = x = x - (lane_etas[:, None] * (step_sum / k_steps))[:, None]
            w_mean = _ascending_mean(w)
            states.append(machine_states(x))
            w_means.append(w_mean)
            if r == r0 + block - 1:  # before the aggregation, so old and new states never coexist
                first = rec.close_round(r0, *(
                    held[0] if block == 1 else np.concatenate(held) for held in (states, w_means)))
                states.clear()
            x_mean = w_mean if tied else _ascending_mean(x)
            if copies > 1:
                w = np.repeat(w_mean[:, None], copies, axis=1)
                x = w if tied else np.repeat(x_mean[:, None], copies, axis=1)
            if spec.output == "anchor-mean":
                acc = x_mean.copy() if r == 0 else acc + x_mean
            sums.append(x_mean if acc is None else acc)  # both are rebound, never mutated
            if len(sums) < block:
                continue
            # the block ends: a diverged lane ends at its first diverged round; at R, every lane does
            ended = {row: diverged + 1 for row, diverged in first.items()}
            if r == cfg.R - 1:
                ended = {row: ended.get(row, cfg.R) for row in range(len(rec.lanes))}
            if ended:
                rows = sorted(ended)
                finish(rows, [ended[row] for row in rows],
                       np.array([sums[ended[row] - 1 - r0][row] for row in rows]))
                keep = [row for row in range(len(rec.lanes)) if row not in ended]
                rec.drop(keep)
                w = w[keep]
                x = w if tied else x[keep]
                lane_etas = lane_etas[keep]
                if acc is not None:
                    acc = acc[keep]
                if keep:
                    draw_seeds, draw_rows = _draw_plan([lane_seeds[lane] for lane in rec.lanes])
            sums = []

    elapsed_ms = (time.perf_counter() - started) * 1e3
    for traj in out:
        traj.wall_ms = elapsed_ms / len(out)
    return out


def _one_lane(name: str):
    def run(problem, cfg: RunConfig, eta: float, seed: int = 0) -> Trajectory:
        """One run of the method at step size eta: the one-lane call of run_lanes."""
        return run_lanes(problem, name, cfg, [eta], [seed])[0]
    return run


ALGORITHMS = {name: _one_lane(name) for name in METHODS}
