"""Self-check of the benchmark itself; takes about a minute.

    python3 perfbench/selfcheck.py

1. quad-grid at the default seed is exactly configs/speedup.json.
2. A tiny version of each workload, in both modes, reports exactly the
   metrics BENCHMARK.json declares, each printed by name with its unit.
3. The digest check counts one failed run when one output row is
   perturbed, a whole cell when its resolved_lr entry changes, and the
   structural check catches a dropped row without any pinned digest.
4. Run from a directory holding only BENCHMARK.json and perfbench/, the
   benchmark exits non-zero without printing a result.
Exits 1 on the first failed check.
"""
from __future__ import annotations

import contextlib
import copy
import csv
import io
import json
import shutil
import subprocess
import sys
import time

import run
from checks import check_sweep, read_sweep
from workloads import DEFAULT_SEED, WORKLOADS, quad_grid

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY_SEED = 1  # any seed but the default, which would demand pinned digests


def tiny(cfg: dict) -> dict:
    cfg = copy.deepcopy(cfg)
    cfg["seeds"] = cfg["seeds"][:2]
    if "rounds" in cfg:
        cfg["rounds"] = 4
    else:
        cfg["total_steps"] = 2 * max(cfg["local_steps"])
    if cfg["lr"].startswith("grid:"):
        cfg["lr"] = "grid:" + json.dumps(json.loads(cfg["lr"][len("grid:"):])[:2])
    return cfg


def expect(condition: bool, what: str) -> None:
    if not condition:
        print(f"FAILED: {what}")
        sys.exit(1)
    print(f"ok: {what}")


def check_speedup_config() -> None:
    speedup = run.ROOT / "configs" / "speedup.json"
    expect(quad_grid(DEFAULT_SEED) == json.loads(speedup.read_text()),
           "quad-grid at the default seed equals configs/speedup.json")


def check_metrics_printed() -> None:
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        declared = {m["name"]: m["unit"] for m in BENCHMARK[key]}
        for name, (make_config, jobs) in list(WORKLOADS.items()):
            run.WORKLOADS[name] = (lambda seed, make=make_config: tiny(make(seed)), jobs)
            report = run.measure(name, TINY_SEED, 0.0, trace)
            run.WORKLOADS[name] = (make_config, jobs)
            printed = io.StringIO()
            with contextlib.redirect_stdout(printed):
                run.print_report(report)
            lines = printed.getvalue().splitlines()
            reported = {n: m["unit"] for n, m in report["metrics"].items()}
            expect(reported == declared and report["runs_failed"] == 0,
                   f"{name} trace={int(trace)}: {len(declared)} declared metrics, "
                   f"0 of {report['runs_attempted']} runs failed")
            missing = [n for n, unit in declared.items()
                       if not any(line.startswith(n + " ") and line.split()[2] == unit
                                  for line in lines)]
            expect(not missing and any(line.startswith("runs_failed ") for line in lines),
                   f"{name} trace={int(trace)}: every metric printed with its unit")


def check_digests_catch_changes() -> None:
    cfg = tiny(WORKLOADS["logistic-pool"][0](TINY_SEED))
    out = run.OUT / "selfcheck-digests"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    (out / "config.json").write_text(json.dumps(cfg))
    run.run_child(["sweep", str(out / "config.json"), str(out / "sweep")],
                  run.child_env(None), time.monotonic() + 120)
    runs, resolved_lr = read_sweep(out / "sweep")
    digests, failures, attempted = check_sweep(cfg, runs, resolved_lr, None)
    golden = {"runs": digests, "resolved_lr": resolved_lr}
    expect(not failures and check_sweep(cfg, runs, resolved_lr, golden)[1] == {},
           f"unperturbed tiny sweep passes ({attempted} runs)")

    csv_path = out / "sweep" / "runs.csv"
    rows = list(csv.DictReader(csv_path.open(newline="")))
    victim = rows[len(rows) // 2]
    victim["excess_loss"] = repr(float(victim["excess_loss"]) * (1 + 1e-15) + 1e-300)
    with csv_path.open("w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    failures = check_sweep(cfg, *read_sweep(out / "sweep"), golden)[1]
    expect(list(failures) == [victim["run_id"]],
           f"one perturbed row fails exactly its run ({victim['run_id']})")

    cell = next(iter(resolved_lr))
    moved = {**resolved_lr, cell: resolved_lr[cell] * 2}
    failures = check_sweep(cfg, runs, moved, golden)[1]
    expect(len(failures) == len(cfg["seeds"]),
           f"a changed resolved_lr[{cell}] fails all {len(cfg['seeds'])} runs of the cell")

    short = {run_id: r[:-1] if run_id == victim["run_id"] else r for run_id, r in runs.items()}
    failures = check_sweep(cfg, short, resolved_lr, None)[1]
    expect(list(failures) == [victim["run_id"]], "a dropped row fails its run without golden")


def check_bare_directory_fails() -> None:
    bare = run.OUT / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / run.HERE.name, ignore=shutil.ignore_patterns("_out"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "quad-diag",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           f"without the package source: exit {proc.returncode}, no result printed")


if __name__ == "__main__":
    check_speedup_config()
    check_digests_catch_changes()
    check_bare_directory_fails()
    check_metrics_printed()
    print("self-check passed")
