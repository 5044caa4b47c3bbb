"""Sweep benchmark for slowcal-lab.

    python3 perfbench/run.py --workload quad-grid --seed 0 --seconds 30 --trace 0

Run from the repository root (or a copy of it). The workload's config is
generated from ``--seed`` (see ``workloads.py``) and written as JSON; the
package only sees that file, through ``load_spec`` -> ``run_experiment``,
the path ``slowcal-lab sweep`` takes. Every measurement runs in a fresh
child process with ``src`` on PYTHONPATH, BLAS thread variables set to 1
and SLOWCAL_LAB_JOBS set only for the pooled workload, so the pool width
is the only parallelism. Sweeps run back to back, one at a time (a closed
loop with one client), as many as fit in ``--seconds``, at least one.

--trace 0 measures the end-to-end metrics:
  sweep_s      wall time of one whole experiment: tuning runs, replay runs
               and the CSV/manifest write (median over the sweeps)
  setup_s      in a fresh process: import slowcal_lab, load_spec,
               build_problem and problem.metadata(x0) for every machine
               count (median over several processes, after one warm-up)
  peak_rss_mb  peak resident memory of the sweep process, or of its
               largest pool worker if that is larger (median over sweeps)
--trace 1 alternates untraced and traced sweeps and reports the per-layer
metrics of ``tracer.layer_metrics`` plus the tracing overhead.

Every sweep's outputs are checked (``checks.check_sweep``); at the default
seed against the pinned digests in ``golden/``. The JSON result's
``attempted`` and ``failed`` are the runs_attempted and runs_failed
counts. Outputs, per-run digests and the result go to
``perfbench/_out/<workload>-seed<n>-trace<t>/``; the last line of stdout is
the JSON result. Exit code 2 when the package source is missing, 1 when a
measurement cannot be taken.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import check_sweep, expected_runs, read_sweep
from workloads import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "_out"
GOLDEN = HERE / "golden"

SETUP_REPEATS = 11
DEADLINE_S = 170.0
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class MeasurementError(RuntimeError):
    """A child process failed or timed out, so a metric has no sample."""


def layer_unit(name: str) -> str:
    words = name.split(".")[-1].split("_")
    if "us" in words:
        return "us"
    if words[-1] == "s":
        return "s"
    if words[-1] in ("ratio", "share"):
        return "ratio"
    if words[-1] == "written" and words[0] == "bytes":
        return "bytes"
    return "count"


def child_env(jobs: int | None) -> dict[str, str]:
    env = dict(os.environ)
    env.pop("SLOWCAL_LAB_OUT", None)
    env.pop("SLOWCAL_LAB_JOBS", None)
    if jobs is not None:
        env["SLOWCAL_LAB_JOBS"] = str(jobs)
    for var in BLAS_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(args: list[str], env: dict[str, str], deadline: float) -> dict:
    """Run child.py in its own session and return its JSON line. On timeout
    the whole session is killed, pool workers included."""
    proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), *args],
                            stdout=subprocess.PIPE, env=env, cwd=ROOT,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise MeasurementError(f"child {args[0]} passed the {DEADLINE_S:.0f} s deadline")
    if proc.returncode != 0:
        raise MeasurementError(f"child {args[0]} exited with {proc.returncode}")
    return json.loads(out.decode().splitlines()[-1])


def summarize(samples: list[float]) -> str:
    """Median plus the highest percentile with at least ten samples above it."""
    n = len(samples)
    text = f"median of n={n}"
    if n >= 11:
        rank = n - 10
        text += f", p{100 * rank / n:.0f}={sorted(samples)[rank - 1]:.6g}"
    else:
        text += ", no tail percentile below n=11"
    return text


def environment() -> dict[str, object]:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}, timeout=10,
        ).stdout.strip() or "unknown (not a git checkout)"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown (git unavailable)"
    return {
        "cpus": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def load_golden(workload: str, seed: int, cfg_text: str) -> dict | None:
    if seed != DEFAULT_SEED:
        return None
    try:
        golden = json.loads((GOLDEN / f"{workload}.json").read_text())
    except OSError as exc:
        raise MeasurementError(f"no pinned digests for the default seed: {exc}") from exc
    if golden["config_sha256"] != hashlib.sha256(cfg_text.encode()).hexdigest():
        raise MeasurementError(f"golden/{workload}.json was pinned for another config")
    return golden


class Sweeps:
    """Runs and checks the sweeps of one benchmark run."""

    def __init__(self, cfg: dict, cfg_path: Path, out: Path, env: dict, deadline: float,
                 golden: dict | None):
        self.cfg, self.cfg_path, self.out = cfg, cfg_path, out
        self.env, self.deadline, self.golden = env, deadline, golden
        self.count = 0
        self.attempted = 0
        self.failures: dict[str, str] = {}
        self.failed_runs = 0
        self.first_digests: dict[str, str] | None = None
        self.resolved_lr: dict[str, float] = {}

    def run(self, traced: bool) -> dict | None:
        self.count += 1
        sweep_dir = self.out / f"sweep-{self.count}"
        args = ["sweep", str(self.cfg_path), str(sweep_dir)]
        if traced:
            trace_dir = self.out / f"trace-{self.count}"
            trace_dir.mkdir()
            args.append(str(trace_dir))
        try:
            result = run_child(args, self.env, self.deadline)
            runs, resolved_lr = read_sweep(sweep_dir)
            digests, failures, attempted = check_sweep(self.cfg, runs, resolved_lr, self.golden)
        except (MeasurementError, OSError, KeyError, ValueError) as exc:
            # a run raised, or the outputs are unreadable: every run of the sweep fails
            self.attempted += len(expected_runs(self.cfg))
            self.failed_runs += len(expected_runs(self.cfg))
            self.failures[f"sweep {self.count}: all runs"] = repr(exc)
            return None
        if self.first_digests is None:
            self.first_digests, self.resolved_lr = digests, resolved_lr
        else:
            for run_id, digest in digests.items():
                if self.first_digests.get(run_id) != digest:
                    failures.setdefault(run_id, "differs from the first sweep of this run")
        self.attempted += attempted
        self.failed_runs += len(failures)
        for run_id, reason in failures.items():
            self.failures[f"sweep {self.count}: {run_id}"] = reason
        shutil.rmtree(sweep_dir)  # quad-diag writes 5.8 MB per sweep
        return result


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    make_config, jobs = WORKLOADS[workload]
    cfg = make_config(seed)
    cfg_text = json.dumps(cfg, indent=2, sort_keys=True) + "\n"
    out = OUT / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    cfg_path = out / "config.json"
    cfg_path.write_text(cfg_text)
    env = child_env(jobs)
    sweeps = Sweeps(cfg, cfg_path, out, env, deadline, load_golden(workload, seed, cfg_text))

    setup, sweep_s, traced_s, rss, layers = [], [], [], [], []
    numpy_version = "unknown"
    worker_cells = []
    if not trace:
        run_child(["setup", str(cfg_path)], env, deadline)  # warm-up: bytecode, file cache
        for _ in range(SETUP_REPEATS):
            setup.append(run_child(["setup", str(cfg_path)], env, deadline)["setup_s"])
    # back to back, starting another sweep (or untraced/traced pair) only if
    # it should end within --seconds; always at least one
    loop_start = time.monotonic()
    elapsed = step = 0.0
    while sweeps.count == 0 or elapsed + step <= seconds:
        begin = time.monotonic()
        result = sweeps.run(traced=False)
        if result is not None:
            sweep_s.append(result["sweep_s"])
            rss.append(result["peak_rss_mb"])
            numpy_version = result["numpy"]
        if trace:
            result = sweeps.run(traced=True)
            if result is not None:
                traced_s.append(result["sweep_s"])
                layers.append(result["layers"])
                worker_cells.append(result["worker_cells"])
        step = time.monotonic() - begin
        elapsed = time.monotonic() - loop_start
    if not sweep_s or (trace and not traced_s):
        raise MeasurementError(f"no sweep completed: {sweeps.failures}")

    cells = len(cfg["algorithm"]) * len(cfg["machines"]) * len(cfg["local_steps"])
    pooled = jobs is not None and jobs > 1 and cells > 1
    report = {
        "workload": workload, "seed": seed, "trace": int(trace), "config": cfg,
        "environment": {**environment(), "numpy": numpy_version, "jobs": jobs or 1},
        "samples": {"sweep_s": sweep_s, "setup_s": setup, "peak_rss_mb": rss,
                    "traced_sweep_s": traced_s},
        "runs_attempted": sweeps.attempted,
        "runs_failed": sweeps.failed_runs,
        "failures": sweeps.failures,
        "digests": {"runs": sweeps.first_digests, "resolved_lr": sweeps.resolved_lr,
                    "config_sha256": hashlib.sha256(cfg_text.encode()).hexdigest()},
        "notes": [],
    }
    if trace:
        metrics = {name: statistics.median(sample[name] for sample in layers)
                   for name in layers[0]}
        overhead = statistics.median(traced_s) - statistics.median(sweep_s)
        metrics["trace.overhead_s"] = overhead
        metrics["trace.overhead_share"] = overhead / statistics.median(sweep_s)
        metrics["trace.worker_cells"] = statistics.median(worker_cells)
        if pooled and min(worker_cells) < cells:
            report["notes"].append(
                f"gap: layer totals include only {min(worker_cells)} of {cells} pool cells; "
                "the pool did not start its workers from the traced parent")
        elif pooled:
            report["notes"].append(
                f"pool workers: all {cells} cells traced in forked workers and merged; "
                "layer seconds are summed over processes, pool_wait_s is parent wall time")
        report["metrics"] = {name: {"value": value, "unit": layer_unit(name)}
                             for name, value in metrics.items()}
    else:
        report["metrics"] = {
            "sweep_s": {"value": statistics.median(sweep_s), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(rss), "unit": "MB"},
        }
    (out / "digests.json").write_text(json.dumps(report["digests"], indent=1, sort_keys=True))
    (out / "result.json").write_text(json.dumps(report, indent=1, sort_keys=True))
    return report


def print_report(report: dict) -> None:
    env = report["environment"]
    print(f"workload {report['workload']} seed {report['seed']} trace {report['trace']}: "
          f"jobs={env['jobs']} cpus={env['cpus']} (usable {env['cpus_usable']}) "
          f"python={env['python']} numpy={env['numpy']} commit={env['git_commit']} "
          f"src_sha256={env['src_sha256'][:16]}")
    samples = report["samples"]
    for name, entry in report["metrics"].items():
        detail = f"  ({summarize(samples[name])})" if name in samples else ""
        print(f"{name:40s} {entry['value']:>14.6g} {entry['unit']}{detail}")
    if report["trace"]:
        print(f"{'untraced sweep_s':40s} {statistics.median(samples['sweep_s']):>14.6g} s"
              f"  ({summarize(samples['sweep_s'])})")
    print(f"{'runs_failed':40s} {report['runs_failed']:>14d} of "
          f"{report['runs_attempted']} runs_attempted")
    for run_id, reason in sorted(report["failures"].items())[:10]:
        print(f"  failed {run_id}: {reason}")
    combined = hashlib.sha256(json.dumps(report["digests"], sort_keys=True).encode())
    print(f"output digest {combined.hexdigest()[:16]} "
          f"(per-run digests in {OUT.name}/{report['workload']}-seed{report['seed']}"
          f"-trace{report['trace']}/digests.json)")
    for note in report["notes"]:
        print(note)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (SRC / "slowcal_lab" / "__init__.py").is_file():
        print(f"no package source at {SRC / 'slowcal_lab'}; run from a repository checkout",
              file=sys.stderr)
        return 2
    try:
        report = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except MeasurementError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print_report(report)
    print(json.dumps({
        "correct": report["runs_failed"] == 0,
        "attempted": report["runs_attempted"],
        "failed": report["runs_failed"],
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
