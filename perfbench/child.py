"""One measurement in a fresh process; prints one JSON line.

    python child.py setup CONFIG
        time ``import slowcal_lab`` + ``load_spec`` + ``build_problem`` +
        ``problem.metadata(x0)`` for every machine count of the config:
        what a user pays before the first step.

    python child.py sweep CONFIG OUT_DIR [TRACE_DIR]
        time ``load_spec`` + ``run_experiment`` (tuning runs, replay runs
        and the CSV/manifest write). With TRACE_DIR, the layer wrappers of
        ``tracer`` are installed first and the per-layer totals and spans
        are written under TRACE_DIR.

The caller puts the package's ``src`` directory on PYTHONPATH and sets
SLOWCAL_LAB_JOBS and the BLAS thread variables.
"""
import json
import sys
import time


def setup(config: str) -> dict:
    start = time.perf_counter()
    import math

    import numpy as np
    import slowcal_lab

    spec = slowcal_lab.load_spec(config)
    for m in spec.machines:
        problem = slowcal_lab.build_problem(spec.problem, m)
        x0 = np.zeros(problem.dim)
        if spec.x0.startswith("ones:"):
            x0 = float(spec.x0[len("ones:"):]) * np.ones(problem.dim) / math.sqrt(problem.dim)
        problem.metadata(x0)
    return {"setup_s": time.perf_counter() - start}


def peak_rss_mb() -> float:
    """High-water resident set of this process or of its largest reaped
    child (pool worker). VmHWM is read instead of ru_maxrss because the
    latter also counts the pre-exec image of the process that started us."""
    import resource

    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    with open("/proc/self/status") as status:
        own_kb = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
    return max(own_kb, children_kb) / 1024.0


def sweep(config: str, out_dir: str, trace_dir: str | None) -> dict:
    from pathlib import Path

    import numpy as np
    import slowcal_lab
    from slowcal_lab import runner

    run_experiment = runner.run_experiment
    tracer = None
    if trace_dir is not None:
        import tracer as tracing

        tracer = tracing.Tracer(Path(trace_dir))
        tracing.install(tracer)
        run_experiment = tracer.wrap("runner.run_experiment", run_experiment)

    start = time.perf_counter()
    summary = run_experiment(slowcal_lab.load_spec(config), out_dir=out_dir)
    sweep_s = time.perf_counter() - start
    result = {
        "sweep_s": sweep_s,
        "peak_rss_mb": peak_rss_mb(),
        "num_runs": summary.num_runs,
        "numpy": np.__version__,
    }
    if tracer is not None:
        result["worker_cells"] = tracer.merge_workers()
        tracer.write_spans(Path(trace_dir) / "spans.jsonl")
        result["layers"] = tracing.layer_metrics(tracer)
    return result


if __name__ == "__main__":
    mode, *rest = sys.argv[1:]
    if mode == "setup":
        out = setup(*rest)
    elif mode == "sweep":
        out = sweep(rest[0], rest[1], rest[2] if len(rest) > 2 else None)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(out))
