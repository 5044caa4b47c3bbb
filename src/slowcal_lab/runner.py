"""Declarative experiment execution.

A JSON config resolves to an ``ExperimentSpec``; the engine runs the
cartesian product algorithm x machines x local_steps x seeds, writes one
long-format ``runs.csv`` row per round, and a ``manifest.json`` that echoes
the fully-resolved spec, the resolved step sizes with each grid's score
table, and the problem scalars, enough to re-run the experiment
bit-identically (the wall_ms column and the manifest timestamp are the only
nondeterministic outputs).

``run_experiment`` runs every experiment, synthetic or MNIST, through one
executor. Each machine count's problem is built once, in the parent; a
cell, one (algorithm, M, K), then resolves its step size (fixed, theory or
grid search) and emits every seed's ``Trajectory``, either in this process
or as one task of a process pool that was handed the built problems at
start. Every cell is one engine call: a grid cell emits the winner's
trajectories from its tuning call, whose lanes are every (seed, candidate)
pair; a fixed or theory cell's lanes are its seeds. Each CSV row is one
formatted line, built from the trajectories' arrays as it is written, and
each run's fixed columns are formatted once. Only the problem
building and the kind-specific manifest entries differ by kind. The
``diagnostics`` key is accepted for compatibility, and must be a boolean,
but the spec does not keep it: no output holds per-step records, so a sweep
never makes them. The manifest's ``package_version`` is ``__version__``.

Every run has one id and one record: a repeated ``algorithm``, ``machines``,
``local_steps`` or ``seeds`` entry is a config error. ``SLOWCAL_LAB_JOBS``
sets how many cells run at once, tuning included; the outputs do not depend
on it.
"""
from __future__ import annotations

import dataclasses
import json
import math
import os
import sys
from collections.abc import Iterable
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from dataclasses import dataclass
from datetime import datetime, timezone
from itertools import islice
from operator import itemgetter
from pathlib import Path

import numpy as np

from . import __version__
from .algorithms import ALGORITHMS, ROUND_COLUMNS, RunConfig, Trajectory, run_lanes
from .data import IdxFormatError, dirichlet_partition, load_mnist, synth_clusters
from .objectives import LogisticEnsemble, heterogeneous_quadratic
from .tuning import grid_search, mean_score, theoretical_lr
from .weights import LINEAR, parse_schedule, weight_at

CSV_COLUMNS = [
    "run_id", "algorithm", "problem", "M", "K", "R", "seed", "round", "t",
    "eta", *ROUND_COLUMNS, "diverged", "wall_ms",
]

JOBS_ENV = "SLOWCAL_LAB_JOBS"

_PROBLEM_KINDS = ("quadratic", "synth-logistic", "mnist-logistic")

_INT64_MAX = int(np.iinfo(np.int64).max)

_AT_OPTIMUM = "w_star+"  # an x0 prefix: the start is relative to the optimum

_SPEC_KEYS = {
    "name", "problem", "algorithm", "schedule", "machines", "local_steps",
    "rounds", "total_steps", "lr", "seeds", "diagnostics", "x0", "out_dir",
}

_PROBLEM_DEFAULTS: dict[str, dict[str, object]] = {
    "quadratic": {
        "dim": None, "curvature": "per-machine", "eig_range": [0.5, 2.0],
        "center_spread": 1.0, "target_gstar": None, "sigma": 0.0,
        "problem_seed": 0,
    },
    "synth-logistic": {
        "dim": None, "num_classes": 4, "l2": 1e-2, "spread": 0.3,
        "label_skew": 1.0, "n_per_machine": 64, "problem_seed": 0,
    },
    "mnist-logistic": {
        "data_dir": None, "l2": 1e-4, "label_skew": 0.1, "train_limit": None,
        "problem_seed": 0,
    },
}


class ConfigError(ValueError):
    """Invalid experiment configuration; the offending field is named."""


@dataclass(frozen=True)
class ExperimentSpec:
    """Fully-resolved experiment description (defaults already filled)."""

    name: str
    problem: dict
    algorithms: tuple[str, ...]
    schedule: str
    machines: tuple[int, ...]
    local_steps: tuple[int, ...]
    rounds: int | None
    total_steps: int | None
    lr: object  # "theory" | "fixed:<v>" | "grid:[...]" | {algorithm: one of those}
    seeds: tuple[int, ...]
    x0: str
    out_dir: str


@dataclass(frozen=True)
class RunSummary:
    out_dir: Path
    csv_path: Path
    manifest_path: Path
    num_runs: int
    any_diverged: bool


# ---------------------------------------------------------------- parsing

def _as_int(value, field: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"field {field!r} must be an integer, got {value!r}")
    return value


def _as_float(value, field: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"field {field!r} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond float range
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"field {field!r} must be a finite number, got {number!r}")
    return number


def _as_str(value, field: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"field {field!r} must be a string, got {value!r}")
    return value


def _distinct(items: tuple, field: str) -> tuple:
    """A sweep list's entries, each once: a repeat would write one run id twice."""
    if len(set(items)) < len(items):
        raise ConfigError(f"field {field!r} repeats an entry, got {list(items)}")
    return items


def _as_int_tuple(value, field: str, minimum: int) -> tuple[int, ...]:
    items = value if isinstance(value, list) else [value]
    if not items:
        raise ConfigError(f"field {field!r} must be a nonempty integer or list")
    out = tuple(_as_int(v, field) for v in items)
    if any(v < minimum for v in out):
        raise ConfigError(f"field {field!r} entries must be >= {minimum}, got {list(out)}")
    return _distinct(out, field)


def _as_str_tuple(value, field: str) -> tuple[str, ...]:
    items = value if isinstance(value, list) else [value]
    if not items or not all(isinstance(v, str) for v in items):
        raise ConfigError(f"field {field!r} must be a string or nonempty list of strings")
    return _distinct(tuple(items), field)


def _parse_lr_string(text: str, field: str) -> tuple[str, object]:
    """Validate one step-size directive; returns (mode, payload)."""
    if text == "theory":
        return "theory", None
    if text.startswith("fixed:"):
        try:
            value = float(text[len("fixed:"):])
        except ValueError as exc:
            raise ConfigError(f"field {field!r}: bad fixed step size {text!r}") from exc
        if not (value > 0 and math.isfinite(value)):
            raise ConfigError(f"field {field!r}: fixed step size must be positive finite")
        return "fixed", value
    if text.startswith("grid:"):
        try:
            grid = json.loads(text[len("grid:"):])
        except json.JSONDecodeError as exc:
            raise ConfigError(f"field {field!r}: bad grid literal {text!r}") from exc
        if (not isinstance(grid, list) or not grid
                or not all(isinstance(v, (int, float)) and not isinstance(v, bool)
                           and v > 0 and math.isfinite(v) for v in grid)):
            raise ConfigError(
                f"field {field!r}: grid must be a nonempty list of positive finite numbers")
        return "grid", [float(v) for v in grid]
    raise ConfigError(
        f"field {field!r} must be 'theory', 'fixed:<v>' or 'grid:[...]', got {text!r}"
    )


def _validate_lr(lr, algorithms: tuple[str, ...]):
    if isinstance(lr, str):
        _parse_lr_string(lr, "lr")
        return lr
    if isinstance(lr, dict):
        for algorithm in algorithms:
            if algorithm not in lr:
                raise ConfigError(f"field 'lr' mapping is missing algorithm {algorithm!r}")
        for key, text in lr.items():
            if key not in ALGORITHMS:
                raise ConfigError(f"field 'lr' mapping names unknown algorithm {key!r}")
            _parse_lr_string(_as_str(text, f"lr[{key}]"), f"lr[{key}]")
        return dict(lr)
    raise ConfigError(f"field 'lr' must be a string or an algorithm mapping, got {lr!r}")


def _resolve_problem(raw) -> dict:
    if not isinstance(raw, dict):
        raise ConfigError("field 'problem' must be an object with a 'kind' key")
    kind = raw.get("kind")
    if kind not in _PROBLEM_KINDS:
        raise ConfigError(f"field 'problem.kind' must be one of {_PROBLEM_KINDS}, got {kind!r}")
    defaults = _PROBLEM_DEFAULTS[kind]
    unknown = set(raw) - set(defaults) - {"kind"}
    if unknown:
        raise ConfigError(f"unknown {kind} problem field(s): {sorted(unknown)}")
    prob: dict = {"kind": kind}
    for key, default in defaults.items():
        prob[key] = raw.get(key, default)

    if kind in ("quadratic", "synth-logistic"):
        if prob["dim"] is None:
            raise ConfigError(f"field 'problem.dim' is required for {kind} problems")
        prob["dim"] = _as_int(prob["dim"], "problem.dim")
        if prob["dim"] < 1:
            raise ConfigError(f"field 'problem.dim' must be >= 1, got {prob['dim']}")
    prob["problem_seed"] = _as_int(prob["problem_seed"], "problem.problem_seed")
    if prob["problem_seed"] < 0:
        raise ConfigError(f"field 'problem.problem_seed' must be >= 0, got {prob['problem_seed']}")
    if kind == "quadratic":
        if prob["curvature"] not in ("shared", "per-machine"):
            raise ConfigError("field 'problem.curvature' must be 'shared' or 'per-machine'")
        rng = prob["eig_range"]
        if not (isinstance(rng, (list, tuple)) and len(rng) == 2):
            raise ConfigError("field 'problem.eig_range' must be a [lo, hi] pair")
        prob["eig_range"] = [_as_float(rng[0], "problem.eig_range"),
                             _as_float(rng[1], "problem.eig_range")]
        prob["center_spread"] = _as_float(prob["center_spread"], "problem.center_spread")
        prob["sigma"] = _as_float(prob["sigma"], "problem.sigma")
        if prob["target_gstar"] is not None:
            prob["target_gstar"] = _as_float(prob["target_gstar"], "problem.target_gstar")
    elif kind == "synth-logistic":
        prob["num_classes"] = _as_int(prob["num_classes"], "problem.num_classes")
        prob["l2"] = _as_float(prob["l2"], "problem.l2")
        prob["spread"] = _as_float(prob["spread"], "problem.spread")
        prob["label_skew"] = _as_float(prob["label_skew"], "problem.label_skew")
        prob["n_per_machine"] = _as_int(prob["n_per_machine"], "problem.n_per_machine")
    else:
        if prob["data_dir"] is not None:
            prob["data_dir"] = _as_str(prob["data_dir"], "problem.data_dir")
        prob["l2"] = _as_float(prob["l2"], "problem.l2")
        prob["label_skew"] = _as_float(prob["label_skew"], "problem.label_skew")
        if prob["train_limit"] is not None:
            prob["train_limit"] = _as_int(prob["train_limit"], "problem.train_limit")
            if prob["train_limit"] < 1:
                raise ConfigError(f"field 'problem.train_limit' must be >= 1, "
                                  f"got {prob['train_limit']}")
    return prob


def _parse_start(x0: str) -> tuple[bool, float | None]:
    """The one reader of the ``x0`` grammar: 'zeros', 'ones:<norm>' or
    'w_star+ones:<norm>', the norm a finite nonnegative Euclidean norm.
    Returns (relative to the optimum, the norm, or None for zeros)."""
    if x0 == "zeros":
        return False, None
    offset = x0.removeprefix(_AT_OPTIMUM)
    if not offset.startswith("ones:"):
        raise ConfigError(f"field 'x0' must be 'zeros', 'ones:<norm>' or "
                          f"'{_AT_OPTIMUM}ones:<norm>', got {x0!r}")
    try:
        norm = float(offset[len("ones:"):])
    except ValueError as exc:
        raise ConfigError(f"field 'x0': bad norm in {x0!r}") from exc
    if not (math.isfinite(norm) and norm >= 0):
        raise ConfigError(f"field 'x0': norm must be finite and nonnegative, got {x0!r}")
    return offset != x0, norm


def spec_from_dict(raw: dict) -> ExperimentSpec:
    if not isinstance(raw, dict):
        raise ConfigError(f"config root must be an object, got {type(raw).__name__}")
    unknown = set(raw) - _SPEC_KEYS
    if unknown:
        raise ConfigError(f"unknown config field(s): {sorted(unknown)}")
    for required in ("problem", "algorithm", "machines", "local_steps", "seeds"):
        if required not in raw:
            raise ConfigError(f"missing required config field {required!r}")

    algorithms = _as_str_tuple(raw["algorithm"], "algorithm")
    for algorithm in algorithms:
        if algorithm not in ALGORITHMS:
            raise ConfigError(
                f"field 'algorithm': unknown algorithm {algorithm!r}, "
                f"expected one of {sorted(ALGORITHMS)}"
            )
    schedule = _as_str(raw.get("schedule", "linear"), "schedule")
    try:
        weights = parse_schedule(schedule)
    except ValueError as exc:
        raise ConfigError(f"field 'schedule': {exc}") from exc

    rounds = raw.get("rounds")
    total_steps = raw.get("total_steps")
    if (rounds is None) == (total_steps is None):
        raise ConfigError("exactly one of 'rounds' and 'total_steps' must be set")
    local_steps = _as_int_tuple(raw["local_steps"], "local_steps", 1)
    if rounds is not None:
        rounds = _as_int(rounds, "rounds")
        if rounds < 1:
            raise ConfigError(f"field 'rounds' must be >= 1, got {rounds}")
    else:
        total_steps = _as_int(total_steps, "total_steps")
        for k in local_steps:
            if total_steps % k != 0 or total_steps // k < 1:
                raise ConfigError(
                    f"field 'total_steps' ({total_steps}) must be a positive multiple "
                    f"of every local_steps entry (offender: {k})"
                )
    longest = total_steps if rounds is None else rounds * max(local_steps)
    # the step counts t are int64, up to the longest run's last step
    for field, value in (("local_steps", max(local_steps)), ("rounds", rounds),
                         ("total_steps", total_steps), ("rounds * local_steps", longest)):
        if value is not None and value > _INT64_MAX:
            raise ConfigError(f"field {field!r} must be at most {_INT64_MAX} (int64), got {value}")
    # the round metrics square alpha_t, which grows with t, up to that last step
    try:
        weight_at(weights, longest) ** 2
    except OverflowError as exc:
        raise ConfigError(f"field 'schedule': {schedule!r} weights overflow when squared "
                          f"by step {longest}") from exc

    x0 = _as_str(raw.get("x0", "zeros"), "x0")
    _parse_start(x0)

    diagnostics = raw.get("diagnostics", False)
    if not isinstance(diagnostics, bool):
        raise ConfigError(f"field 'diagnostics' must be a boolean, got {diagnostics!r}")

    spec = ExperimentSpec(
        name=_as_str(raw.get("name", "experiment"), "name"),
        problem=_resolve_problem(raw["problem"]),
        algorithms=algorithms,
        schedule=schedule,
        machines=_as_int_tuple(raw["machines"], "machines", 1),
        local_steps=local_steps,
        rounds=rounds,
        total_steps=total_steps,
        lr=_validate_lr(raw.get("lr", "theory"), algorithms),
        seeds=_as_int_tuple(raw["seeds"], "seeds", 0),
        x0=x0,
        out_dir=_as_str(raw.get("out_dir", "runs"), "out_dir"),
    )
    return spec


def load_spec(path: str | Path) -> ExperimentSpec:
    """Parse a JSON config file into a fully-resolved ExperimentSpec."""
    try:
        text = Path(path).read_bytes()  # json.loads decodes it; a bad encoding is a ValueError
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an integer literal too long to convert
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return spec_from_dict(raw)


# ------------------------------------------------------------ experiment

def build_problem(problem: dict, num_machines: int):
    """Construct the synthetic ensemble a spec's problem block describes,
    for one machine count; run_experiment calls it once per machine count.
    MNIST problems need the data directory and a reference optimum, so
    run_experiment builds them itself."""
    kind = problem["kind"]
    if kind == "quadratic":
        return heterogeneous_quadratic(
            num_machines,
            problem["dim"],
            curvature=problem["curvature"],
            eig_range=tuple(problem["eig_range"]),
            center_spread=problem["center_spread"],
            sigma=problem["sigma"],
            target_gstar=problem["target_gstar"],
            seed=problem["problem_seed"],
        )
    if kind == "synth-logistic":
        return LogisticEnsemble(*synth_clusters(
            num_machines,
            problem["dim"],
            problem["num_classes"],
            problem["spread"],
            problem["label_skew"],
            problem["problem_seed"],
            n_per_machine=problem["n_per_machine"],
        ), problem["num_classes"], l2=problem["l2"])
    raise ConfigError(f"cannot build problem kind {kind!r} without its data; "
                      f"run it through run_experiment")


def _build_problems(spec: ExperimentSpec, build) -> tuple[dict, dict]:
    """``build(m)``, one machine count's problem and its manifest entry,
    for every machine count of the spec; returns the problems by M and the
    entries by "M<m>". The problem constructors reject out-of-range fields
    with a ValueError that names the field, and a field too large for float
    arithmetic overflows; both are config errors, not crashes."""
    try:
        built = {m: build(m) for m in spec.machines}
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"problem: {exc}") from exc
    except OverflowError as exc:
        raise ConfigError(f"problem: {spec.problem['kind']} is out of float range: {exc}") from exc
    return ({m: problem for m, (problem, _) in built.items()},
            {f"M{m}": entry for m, (_, entry) in built.items()})


def _resolve_start(x0: str, problem) -> np.ndarray:
    """The start point ``x0`` names: zeros, a uniform vector of the given
    norm, or that vector added to the problem's optimum w*."""
    dim = problem.dim
    at_optimum, norm = _parse_start(x0)
    if norm is None:
        return np.zeros(dim)
    ones = norm * np.ones(dim) / math.sqrt(dim)
    return problem.w_star + ones if at_optimum else ones


def _rounds_for(spec: ExperimentSpec, k: int) -> int:
    return spec.rounds if spec.rounds is not None else spec.total_steps // k


def _lr_directive(spec: ExperimentSpec, algorithm: str) -> str:
    return spec.lr[algorithm] if isinstance(spec.lr, dict) else spec.lr


def _theory_warnings(spec: ExperimentSpec) -> list[str]:
    """The theory step size assumes linear weights; warn once if a method
    takes it under another schedule."""
    if parse_schedule(spec.schedule) == LINEAR or not any(
            _lr_directive(spec, algorithm) == "theory" for algorithm in spec.algorithms):
        return []
    note = (f"theory step size assumes linear weights; "
            f"schedule {spec.schedule!r} requested")
    print(f"warning: {note}", file=sys.stderr)
    return [note]


def _run_id(algorithm: str, kind: str, m: int, k: int, seed: int) -> str:
    return f"{algorithm}-{kind}-M{m}-K{k}-s{seed}"


class _CsvRows:
    """The sweep's runs.csv lines, each formatted as it is written, so only
    one row's text exists at a time. ``runs`` holds ((algorithm, M, K,
    seed), trajectory) pairs, one per run id; rows come sorted by that key,
    rounds ascending, each run's fixed columns formatted once. The bytes are
    ``csv.writer``'s: floats go through ``repr``, and no field needs quoting
    (run ids, method names and problem kinds come from validated sets)."""

    def __init__(self, spec: ExperimentSpec, runs: Iterable):
        self.spec = spec
        self.runs = sorted(runs, key=itemgetter(0))

    def __len__(self) -> int:
        return sum(len(run.t) for _, run in self.runs)

    def __iter__(self):
        kind = self.spec.problem["kind"]
        for (algorithm, m, k, seed), run in self.runs:
            head = (f"{_run_id(algorithm, kind, m, k, seed)},{algorithm},{kind},{m},{k},"
                    f"{_rounds_for(self.spec, k)},{seed},")
            eta = f",{float(run.eta)!r},"
            wall_ms = f",{float(run.wall_ms)!r}\r\n"
            # the five ROUND_COLUMNS named, not joined: a tenth off the formatting
            for r, (t, (v0, v1, v2, v3, v4), diverged) in enumerate(zip(
                    run.t.tolist(), run.values.tolist(), run.round_diverged.tolist())):
                yield (f"{head}{r},{t}{eta}{v0!r},{v1!r},{v2!r},{v3!r},{v4!r},"
                       f"{'true' if diverged else 'false'}{wall_ms}")


def _run_cell(spec: ExperimentSpec, problem, algorithm: str, m: int, k: int):
    """One cell, one (algorithm, M, K): resolve its step size (fixed, theory
    or grid search), then run every seed, all in one run_lanes call. A grid
    cell's call is the grid search's, over every (seed, candidate) pair, and
    it emits the winner's trajectories from it, so it runs nothing more; a
    fixed or theory cell's call has one lane per seed. Each trajectory's
    ``wall_ms`` is its call's time divided by the call's lane count. Returns
    (eta, the trajectories in ``spec.seeds`` order, the grid's score table
    or None)."""
    start = _resolve_start(spec.x0, problem)
    cfg = RunConfig(K=k, R=_rounds_for(spec, k), schedule=parse_schedule(spec.schedule), x0=start)
    mode, payload = _parse_lr_string(_lr_directive(spec, algorithm), "lr")
    if mode == "grid":
        tuned = grid_search(problem, algorithm, payload, cfg, spec.seeds)
        return tuned.eta, tuned.runs, tuned.table
    if mode == "theory":
        md = problem.metadata(start)
        try:
            eta = theoretical_lr(smoothness=md.smoothness, sigma=md.sigma, gstar=md.gstar,
                                 b0=md.b0, M=m, K=k, R=cfg.R)
        except ValueError as exc:
            raise ConfigError(f"field 'lr': theory step for {algorithm}-M{m}-K{k}: {exc}") from exc
    else:
        eta = payload
    # every seed is a lane of one call, with no step records
    runs = run_lanes(problem, algorithm, cfg, [eta] * len(spec.seeds), spec.seeds)
    return eta, runs, None


_WORKER: dict = {}  # filled in each pool worker by _start_worker; the parent never reads it


def _start_worker(spec: ExperimentSpec, problems: dict) -> None:
    """Pool initializer: keep the spec and the problems the parent built."""
    _WORKER.update(spec=spec, problems=problems)


def _cell_worker(algorithm: str, m: int, k: int):
    """Process-pool task: one cell, on the problems the pool started with."""
    return _run_cell(_WORKER["spec"], _WORKER["problems"][m], algorithm, m, k)


def _cell_results(spec: ExperimentSpec, problems: dict, cells: list, jobs: int):
    """Yield each cell's result in cell order: run here, or on a pool of
    ``jobs`` workers, never more than there are cells, when that leaves
    more than one. At most ``jobs`` pooled cells are in flight at once,
    refilled as soon as any of them completes, so when one raises, only the
    cells already running still finish before the error surfaces; the rest
    never start."""
    jobs = min(jobs, len(cells))
    if jobs == 1:
        for algorithm, m, k in cells:
            yield _run_cell(spec, problems[m], algorithm, m, k)
        return
    with ProcessPoolExecutor(max_workers=jobs, initializer=_start_worker,
                             initargs=(spec, problems)) as pool:
        waiting = iter(enumerate(cells))
        futures: dict[int, Future] = {}  # cell index -> future, until yielded

        def in_flight() -> list[Future]:
            return [future for future in futures.values() if not future.done()]

        def refill() -> None:
            for index, cell in islice(waiting, jobs - len(in_flight())):
                futures[index] = pool.submit(_cell_worker, *cell)

        try:
            for index in range(len(cells)):
                refill()
                while not futures[index].done():
                    wait(in_flight(), return_when=FIRST_COMPLETED)
                    if not futures[index].done():
                        refill()
                yield futures.pop(index).result()
        finally:
            for future in futures.values():
                future.cancel()


def _env_jobs() -> int:
    raw = os.environ.get(JOBS_ENV)
    if raw is None:
        return 1
    try:
        jobs = int(raw)
    except ValueError as exc:
        raise ConfigError(f"{JOBS_ENV} must be an integer, got {raw!r}") from exc
    if jobs < 1:
        raise ConfigError(f"{JOBS_ENV} must be >= 1, got {jobs}")
    return jobs


def _write_outputs(out_dir: Path, spec: ExperimentSpec, rows: Iterable[str],
                   manifest_extra: dict) -> tuple[Path, Path]:
    """Write runs.csv, the header then ``rows`` line by line, and manifest.json."""
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        csv_path = out_dir / "runs.csv"
        with csv_path.open("w", newline="") as handle:
            handle.write(",".join(CSV_COLUMNS) + "\r\n")
            handle.writelines(rows)
        manifest = {
            "spec": dataclasses.asdict(spec),
            "csv_columns": CSV_COLUMNS,
            "created_utc": datetime.now(timezone.utc).isoformat(),
            **manifest_extra,
        }
        manifest_path = out_dir / "manifest.json"
        # strict JSON: a non-finite number must reach the manifest as null
        manifest_path.write_text(
            json.dumps(manifest, indent=2, sort_keys=True, allow_nan=False) + "\n")
    except OSError as exc:
        raise ConfigError(f"cannot write output directory {out_dir}: {exc}") from exc
    return csv_path, manifest_path


def _finite_or_null(value: float) -> float | None:
    """A manifest number: null where not finite, so the file stays strict JSON."""
    return value if math.isfinite(value) else None


def _execute(spec: ExperimentSpec, problems: dict, out_dir: str | Path | None,
             manifest_extra) -> RunSummary:
    """Run every cell of the spec, merging each result as it arrives, and
    write the outputs to ``out_dir`` (else the config's); ``manifest_extra``
    turns the {run_id: output point} map into the kind-specific entries. The
    manifest's ``output_excess`` holds each run's excess loss at its output
    point (the CSV's is at the round-end consensus point), and ``tuning``
    each grid cell's score table: every candidate in ascending order, with
    its per-seed scores in seed order and their mean. Non-finite numbers in
    both are written as null."""
    jobs = _env_jobs()
    warnings = _theory_warnings(spec)
    cells = [(algorithm, m, k) for algorithm in spec.algorithms
             for m in spec.machines for k in spec.local_steps]
    kind = spec.problem["kind"]
    runs: dict[str, tuple[tuple, Trajectory]] = {}  # run id -> ((algorithm, M, K, seed), run)
    resolved_lr: dict[str, float] = {}
    tuning: dict[str, list[dict]] = {}
    for (algorithm, m, k), (eta, cell_runs, table) in zip(
            cells, _cell_results(spec, problems, cells, jobs)):
        cell = f"{algorithm}-M{m}-K{k}"
        resolved_lr[cell] = eta
        if table is not None:
            tuning[cell] = [
                {"eta": candidate, "scores": [_finite_or_null(v) for v in scores],
                 "mean": _finite_or_null(mean_score(scores))}
                for candidate, scores in table.items()]
        for seed, run in zip(spec.seeds, cell_runs):
            runs[_run_id(algorithm, kind, m, k, seed)] = ((algorithm, m, k, seed), run)
    extra = {
        "resolved_lr": resolved_lr,
        "tuning": tuning,
        "output_excess": {run_id: _finite_or_null(run.output_excess)
                          for run_id, (_, run) in runs.items()},
        **manifest_extra({run_id: run.x_output for run_id, (_, run) in runs.items()}),
        "package_version": __version__,
        "warnings": warnings,
    }
    resolved = Path(out_dir if out_dir is not None else spec.out_dir)
    csv_path, manifest_path = _write_outputs(resolved, spec, _CsvRows(spec, runs.values()), extra)
    return RunSummary(resolved, csv_path, manifest_path, len(runs),
                      any(run.diverged for _, run in runs.values()))


def _synthetic_problem(spec: ExperimentSpec, m: int):
    """One machine count's synthetic problem, its scalars (null where not
    finite, as b0 is for a start past float range) and how exact its
    optimum is. Computing them caches the optimum before any cell runs, so
    pool workers start with it."""
    problem = build_problem(spec.problem, m)
    md = problem.metadata(_resolve_start(spec.x0, problem))
    scalars = {name: _finite_or_null(value) for name, value in dataclasses.asdict(md).items()}
    return problem, {**scalars, "optimum": problem.optimum_report()}


def run_experiment(spec: ExperimentSpec, out_dir: str | Path | None = None,
                   data_dir: str | Path | None = None) -> RunSummary:
    """Execute every (algorithm, machines, local_steps, seed) combination of
    the spec and persist runs.csv + manifest.json. ``data_dir`` is the MNIST
    directory, in place of the config's ``problem.data_dir``; it applies to
    mnist-logistic specs only. Synthetic manifests add the per-M problem
    scalars; MNIST ones add the reference optimum and per-run test metrics."""
    kind = spec.problem["kind"]
    if kind == "mnist-logistic":
        problems, manifest_extra = _mnist_problems(spec, data_dir)
        return _execute(spec, problems, out_dir, manifest_extra)
    if data_dir is not None:
        raise ConfigError(f"a data directory applies only to mnist-logistic problems, "
                          f"not {kind!r}")
    problems, metadata = _build_problems(spec, lambda m: _synthetic_problem(spec, m))
    return _execute(spec, problems, out_dir, lambda outputs: {"problem_metadata": metadata})


# ----------------------------------------------------------------- MNIST

_MNIST_CLASSES = 10


def _softmax_test_metrics(test_set: LogisticEnsemble, w: np.ndarray) -> dict[str, float | None]:
    """Test accuracy and cross-entropy at w, from one softmax pass over
    ``test_set``, the test data as an ensemble; the loss is 0.0
    minus the mean true-class log-probability (+0.0 at zero, as the oracle's
    value with l2 = 0). The loss is null where it is not finite, and the
    accuracy where any log-probability is not, as at a non-finite w."""
    w = np.asarray(w, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        logp = test_set.log_probs(w)
        acc = float((logp.argmax(axis=-1) == test_set.labels).mean())
        loss = 0.0 - float(logp[np.arange(len(logp)), test_set.labels].mean())
    # the argmax of a NaN row is class 0, which says nothing about w
    return {"test_accuracy": acc if np.isfinite(logp).all() else None,
            "test_loss": _finite_or_null(loss)}


def _lbfgs_reference(ensemble: LogisticEnsemble) -> tuple[np.ndarray, dict]:
    """Near-optimal point for reference-based excess curves on corpora too
    large for the exact gradient-descent optimum oracle, and how exact it
    is: the iterations, whether scipy met its tolerance, the gradient norm."""
    try:
        from scipy.optimize import minimize
    except ImportError as exc:
        raise ConfigError(
            "mnist experiments need scipy for the reference optimum; "
            "install the [mnist] extra"
        ) from exc

    def value_and_grad(w: np.ndarray) -> tuple[float, np.ndarray]:
        return ensemble.global_value(w), ensemble.global_gradient(w)

    result = minimize(value_and_grad, np.zeros(ensemble.dim), jac=True,
                      method="L-BFGS-B", options={"maxiter": 1000, "gtol": 1e-8})
    grad_norm = float(np.linalg.norm(ensemble.global_gradient(result.x)))
    return np.asarray(result.x, dtype=np.float64), {
        "method": "L-BFGS-B", "iterations": int(result.nit), "converged": bool(result.success),
        "grad_norm": _finite_or_null(grad_norm)}


def _mnist_problem(train_x: np.ndarray, train_y: np.ndarray, prob: dict,
                   m: int) -> tuple[LogisticEnsemble, dict]:
    """One machine count's MNIST problem: Dirichlet label-skew partition and
    an L-BFGS reference optimum. Returns the problem and its manifest entry."""
    part = dirichlet_partition(train_y, m, prob["label_skew"], prob["problem_seed"])
    order = np.concatenate(part)  # one gather of the uint8 rows, in machine order, to [0, 1]
    bare = LogisticEnsemble(train_x[order] / 255.0, train_y[order], [len(idx) for idx in part],
                            _MNIST_CLASSES, l2=prob["l2"])
    reference, report = _lbfgs_reference(bare)
    problem = dataclasses.replace(bare, reference_point=reference)  # shares the arrays
    return problem, {
        **report,
        "train_loss": _finite_or_null(problem.f_star),
        "machine_sizes": list(problem.sizes),
    }


def _mnist_test_set(test_x: np.ndarray, test_y: np.ndarray) -> LogisticEnsemble:
    """The held-out images, pixels scaled to [0, 1], as a one-machine ensemble."""
    return LogisticEnsemble(test_x / 255.0, test_y, (len(test_y),), _MNIST_CLASSES)


def _mnist_problems(spec: ExperimentSpec, data_dir: str | Path | None):
    """Load the MNIST data and check the test set, then build each machine
    count's problem once (Dirichlet label-skew partition, L-BFGS reference
    optimum for the excess-loss column), all before any cell runs. Returns
    the problems and the manifest entries as a function of the {run_id:
    output point} map: each machine count's reference, and per-run test
    accuracy/loss at each run's output point. The test images stay uint8
    until then: their float64 copy is built only for those metrics."""
    prob = spec.problem
    root = data_dir if data_dir is not None else prob["data_dir"]
    if root is None:
        raise ConfigError("no MNIST directory: set problem.data_dir or pass --data")
    try:
        train_x, train_y, test_x, test_y = load_mnist(root)
    except (FileNotFoundError, IdxFormatError) as exc:
        raise ConfigError(str(exc)) from exc
    try:
        # the checks read the shape and the labels, not the pixel values, so
        # the first pixel column checks the whole set
        _mnist_test_set(test_x[:, :1], test_y)
    except ValueError as exc:
        raise ConfigError(f"MNIST test set under {root}: {exc}") from exc
    limit = prob["train_limit"]
    if limit is not None:
        train_x, train_y = train_x[:limit], train_y[:limit]

    problems, references = _build_problems(
        spec, lambda m: _mnist_problem(train_x, train_y, prob, m))

    def manifest_extra(outputs: dict) -> dict:
        test_set = _mnist_test_set(test_x, test_y)
        return {"reference": references,
                "test_metrics": {run_id: _softmax_test_metrics(test_set, x)
                                 for run_id, x in outputs.items()}}
    return problems, manifest_extra
