"""Layer tracing for one sweep, installed from outside the package.

``install`` wraps each layer's public entry points in the namespace where
its callers look them up (``objectives.normal_rows``, ``algorithms.dispersion``,
the ``ALGORITHMS`` dict entries, class methods, ...); nothing under ``src/``
is edited. Every wrapped call pushes a frame; when it returns, its duration
and its self time (duration minus the time of the wrapped calls it made)
are added to per-name totals. Calls at or above run granularity are also
kept as spans (id, parent id, name, start, end, pid) and written out when
the sweep ends; per-step calls are only aggregated, because a sweep makes
millions of them.

Pool workers: ``runner._cell_worker`` is wrapped too. The pool forks its
workers, so they inherit every wrapper; the cell wrapper drops the state
copied from the parent, traces the cell, and writes the cell's totals and
spans to ``<trace_dir>/worker-<pid>-<n>.json`` before returning. The parent
merges those files after the sweep and reports how many cells it got, so a
pool that starts workers without the wrappers (a spawn start method) shows
up as missing cells instead of silently low counts.
"""
from __future__ import annotations

import json
import os
import time
from pathlib import Path

perf_counter = time.perf_counter

# calls at or above run granularity keep individual spans
SPAN_NAMES = {
    "runner.run_experiment", "runner.build_problem", "runner.pool",
    "runner.cell_worker", "runner.write_outputs", "tuning.grid_search",
    "algorithms.run", "objectives.optimum", "data.synth_clusters",
}


class Tracer:
    def __init__(self, trace_dir: Path):
        self.trace_dir = trace_dir
        self.pid = os.getpid()
        self.worker_dumps = 0
        self.next_span = 0
        self._clear()

    def _clear(self) -> None:
        self.stack: list[list] = []  # [name, child seconds, span id]
        self.totals: dict[str, list[float]] = {}  # name -> [calls, seconds, self seconds]
        self.counts: dict[str, float] = {}
        self.spans: list[tuple] = []

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def inside(self, name: str) -> bool:
        return any(frame[0] == name for frame in self.stack)

    def enter(self, name: str) -> float:
        span = None
        if name in SPAN_NAMES:
            span = self.next_span
            self.next_span += 1
        self.stack.append([name, 0.0, span])
        return perf_counter()

    def leave(self, start: float) -> None:
        end = perf_counter()
        name, child, span = self.stack.pop()
        duration = end - start
        entry = self.totals.get(name)
        if entry is None:
            entry = self.totals[name] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - child
        if self.stack:
            self.stack[-1][1] += duration
        if span is not None:
            parent = next((f[2] for f in reversed(self.stack) if f[2] is not None), None)
            self.spans.append((span, parent, name, start, end, self.pid))

    def wrap(self, name: str, fn, on_result=None):
        enter, leave = self.enter, self.leave

        def wrapper(*args, **kwargs):
            start = enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(start)
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    # ---------------------------------------------------- pool workers

    def begin_cell(self) -> None:
        if os.getpid() != self.pid:  # first cell in a freshly forked worker
            self.pid = os.getpid()
            self._clear()

    def end_cell(self) -> None:
        self.worker_dumps += 1
        path = self.trace_dir / f"worker-{self.pid}-{self.worker_dumps}.json"
        path.write_text(json.dumps({
            "totals": self.totals, "counts": self.counts, "spans": self.spans,
        }))
        self._clear()

    def merge_workers(self) -> int:
        cells = 0
        for path in sorted(self.trace_dir.glob("worker-*.json")):
            data = json.loads(path.read_text())
            for name, (calls, seconds, own) in data["totals"].items():
                entry = self.totals.setdefault(name, [0, 0.0, 0.0])
                entry[0] += calls
                entry[1] += seconds
                entry[2] += own
            for key, value in data["counts"].items():
                self.count(key, value)
            self.spans.extend(tuple(span) for span in data["spans"])
            cells += 1
            path.unlink()
        return cells

    def write_spans(self, path: Path) -> None:
        with path.open("w") as handle:
            for span_id, parent, name, start, end, pid in self.spans:
                handle.write(json.dumps({"id": span_id, "parent": parent, "name": name,
                                         "start": start, "end": end, "pid": pid}) + "\n")


def install(tracer: Tracer) -> None:
    """Wrap the module-boundary functions of every layer."""
    from slowcal_lab import algorithms, objectives, runner

    wrap = tracer.wrap

    # rng, as objectives calls it
    objectives.normal_rows = wrap("rng.normal_rows", objectives.normal_rows)
    objectives.index_rows = wrap("rng.index_rows", objectives.index_rows)

    # objectives: sampler construction, the oracle closures it returns,
    # global value/gradient, and the cached optimum
    def sampler_factory(build):
        traced_build = wrap("objectives.round_sampler", build)

        def round_sampler(self, *args, **kwargs):
            return wrap("objectives.grad", traced_build(self, *args, **kwargs))
        return round_sampler

    for cls in (objectives.QuadraticEnsemble, objectives.LogisticEnsemble):
        cls.round_sampler = sampler_factory(cls.round_sampler)
        cls.global_value = wrap("objectives.global_value", cls.global_value)
        cls.global_gradient = wrap("objectives.global_gradient", cls.global_gradient)
        optimum = cls.__dict__["_optimum_point"]  # functools.cached_property
        optimum.func = wrap("objectives.optimum", optimum.func)

    # algorithms: the runners as runner/tuning look them up, round close and
    # per-step diagnostics; metrics and weights as algorithms imports them
    def on_run(args, traj):
        if tracer.inside("tuning.grid_search"):
            tracer.count("tuning.runs")
            tracer.count("tuning.diverged", traj.diverged)

    for name, fn in list(algorithms.ALGORITHMS.items()):
        algorithms.ALGORITHMS[name] = wrap("algorithms.run", fn, on_run)
    recorder = algorithms._Recorder
    recorder.close_round = wrap("algorithms.close_round", recorder.close_round)
    recorder.record_step = wrap("algorithms.record_step", recorder.record_step)
    algorithms.dispersion = wrap("metrics.dispersion", algorithms.dispersion)
    algorithms.bias_increment = wrap("metrics.bias_increment", algorithms.bias_increment)
    for name in ("weight_at", "averaging_coeff", "prefix_weight"):
        setattr(algorithms, name, wrap(f"weights.{name}", getattr(algorithms, name)))

    # tuning, data and runner, as runner looks them up
    runner.grid_search = wrap("tuning.grid_search", runner.grid_search)
    runner.synth_clusters = wrap("data.synth_clusters", runner.synth_clusters)
    runner.build_problem = wrap("runner.build_problem", runner.build_problem)

    def on_write(args, paths):
        tracer.count("runner.rows_written", len(args[2]))
        tracer.count("runner.bytes_written", sum(Path(p).stat().st_size for p in paths))

    runner._write_outputs = wrap("runner.write_outputs", runner._write_outputs, on_write)

    traced_cell = wrap("runner.cell_worker", runner._cell_worker)

    def cell_worker(*args, **kwargs):
        tracer.begin_cell()
        try:
            return traced_cell(*args, **kwargs)
        finally:
            tracer.end_cell()

    # pickled by reference, so the name must resolve to this wrapper
    cell_worker.__module__ = runner._cell_worker.__module__
    cell_worker.__qualname__ = runner._cell_worker.__qualname__
    runner._cell_worker = cell_worker

    class TracedPool(runner.ProcessPoolExecutor):
        """Times the parent's whole pool block: submit, wait, shutdown."""

        def __enter__(self):
            self._trace_start = tracer.enter("runner.pool")
            return super().__enter__()

        def __exit__(self, *exc):
            try:
                return super().__exit__(*exc)
            finally:
                tracer.leave(self._trace_start)

    runner.ProcessPoolExecutor = TracedPool


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced sweep, from the merged totals."""
    totals, counts = tracer.totals, tracer.counts

    def calls(*names):
        return sum(totals.get(n, (0, 0.0, 0.0))[0] for n in names)

    def seconds(*names):
        return sum(totals.get(n, (0, 0.0, 0.0))[1] for n in names)

    def own(*names):
        return sum(totals.get(n, (0, 0.0, 0.0))[2] for n in names)

    def per_call_us(total_s, n):
        return total_s / n * 1e6 if n else 0.0

    rng = ("rng.normal_rows", "rng.index_rows")
    glob = ("objectives.global_value", "objectives.global_gradient")
    weights = ("weights.weight_at", "weights.averaging_coeff", "weights.prefix_weight")
    grad_calls = calls("objectives.grad")
    tuning_runs = counts.get("tuning.runs", 0)
    out = {
        "rng.streams": calls(*rng),
        "rng.stream_us": per_call_us(seconds(*rng), calls(*rng)),
        "rng.busy_s": seconds(*rng),
        "objectives.sampler_builds": calls("objectives.round_sampler"),
        "objectives.sampler_build_us": per_call_us(own("objectives.round_sampler"),
                                                   calls("objectives.round_sampler")),
        "objectives.grad_calls": grad_calls,
        "objectives.grad_us": per_call_us(seconds("objectives.grad"), grad_calls),
        "objectives.global_calls": calls(*glob),
        "objectives.global_us": per_call_us(seconds(*glob), calls(*glob)),
        "objectives.optimum_s": seconds("objectives.optimum"),
        "algorithms.runs": calls("algorithms.run"),
        # every oracle call is one machine-step of some runner
        "algorithms.self_us_per_machine_step": per_call_us(own("algorithms.run"), grad_calls),
        "algorithms.close_round_us": per_call_us(seconds("algorithms.close_round"),
                                                 calls("algorithms.close_round")),
        "algorithms.record_step_us": per_call_us(seconds("algorithms.record_step"),
                                                 calls("algorithms.record_step")),
        "metrics.dispersion_calls": calls("metrics.dispersion"),
        "metrics.dispersion_us": per_call_us(seconds("metrics.dispersion"),
                                             calls("metrics.dispersion")),
        "metrics.bias_increment_calls": calls("metrics.bias_increment"),
        "metrics.bias_increment_us": per_call_us(seconds("metrics.bias_increment"),
                                                 calls("metrics.bias_increment")),
        "weights.calls": calls(*weights),
        "weights.us": per_call_us(seconds(*weights), calls(*weights)),
        "tuning.runs": tuning_runs,
        "tuning.busy_s": seconds("tuning.grid_search"),
        "tuning.diverged_ratio": counts.get("tuning.diverged", 0) / tuning_runs if tuning_runs else 0.0,
        "runner.build_problem_calls": calls("runner.build_problem"),
        "runner.build_problem_s": seconds("runner.build_problem"),
        "runner.pool_wait_s": seconds("runner.pool"),
        "runner.write_s": seconds("runner.write_outputs"),
        "runner.rows_written": counts.get("runner.rows_written", 0),
        "runner.bytes_written": counts.get("runner.bytes_written", 0),
        "data.synth_clusters_s": seconds("data.synth_clusters"),
    }
    # self time per layer that calls into others (rng and data call none, so
    # their self time is rng.busy_s and data.synth_clusters_s); the pool
    # block's self time is the parent waiting, reported as runner.pool_wait_s
    for layer in ("objectives", "algorithms", "metrics", "weights", "tuning", "runner"):
        out[f"{layer}.self_s"] = sum(entry[2] for name, entry in totals.items()
                                     if name.split(".")[0] == layer and name != "runner.pool")
    return out
