"""Output checks for one sweep: per-run digests and structural checks.

A run's digest is the SHA-256 of its ``runs.csv`` rows with the ``wall_ms``
column removed, exactly as written (the CSV strings, not re-parsed floats).
At the default seed every digest and every ``resolved_lr`` entry must equal
the pinned ``golden/<workload>.json``. On every seed each run must also have
the shape its config implies; see ``check_sweep``.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

TIMING_COLUMN = "wall_ms"
NUMERIC_COLUMNS = ("eta", "excess_loss", "grad_norm", "dispersion_q", "v_increment", "d_t")


def read_sweep(out_dir: Path) -> tuple[dict[str, list[dict]], dict[str, float]]:
    """runs.csv rows grouped by run_id (file order) and the manifest's resolved_lr."""
    runs: dict[str, list[dict]] = {}
    with (out_dir / "runs.csv").open(newline="") as handle:
        for row in csv.DictReader(handle):
            runs.setdefault(row["run_id"], []).append(row)
    manifest = json.loads((out_dir / "manifest.json").read_text())
    return runs, manifest["resolved_lr"]


def run_digest(rows: list[dict]) -> str:
    digest = hashlib.sha256()
    for row in rows:
        digest.update(",".join(v for k, v in row.items() if k != TIMING_COLUMN).encode())
        digest.update(b"\n")
    return digest.hexdigest()


def expected_runs(cfg: dict) -> dict[str, tuple[str, str, int, int, int, int]]:
    """run_id -> (cell key, algorithm, M, K, R, seed) for every run the config asks for."""
    kind = cfg["problem"]["kind"]
    out = {}
    for algorithm in cfg["algorithm"]:
        for m in cfg["machines"]:
            for k in cfg["local_steps"]:
                r_rounds = cfg["rounds"] if "rounds" in cfg else cfg["total_steps"] // k
                for seed in cfg["seeds"]:
                    out[f"{algorithm}-{kind}-M{m}-K{k}-s{seed}"] = (
                        f"{algorithm}-M{m}-K{k}", algorithm, m, k, r_rounds, seed)
    return out


def _allowed_etas(cfg: dict) -> list[float]:
    lr = cfg["lr"]
    if lr.startswith("fixed:"):
        return [float(lr[len("fixed:"):])]
    return [float(v) for v in json.loads(lr[len("grid:"):])]


def _shape_problem(rows: list[dict], algorithm: str, m: int, k: int, r_rounds: int,
                   seed: int, eta: float) -> str | None:
    if len(rows) != r_rounds:
        return f"{len(rows)} rows, expected {r_rounds}"
    fixed = {"algorithm": algorithm, "M": str(m), "K": str(k), "R": str(r_rounds),
             "seed": str(seed), "eta": repr(eta), "diverged": "false"}
    for i, row in enumerate(rows):
        for column, want in fixed.items():
            if row[column] != want:
                return f"round {i}: {column}={row[column]!r}, expected {want!r}"
        if row["round"] != str(i) or row["t"] != str((i + 1) * k):
            return f"row {i} has round={row['round']} t={row['t']}"
        if not all(math.isfinite(float(row[c])) for c in NUMERIC_COLUMNS):
            return f"round {i} has a non-finite value"
    return None


def check_sweep(cfg: dict, runs: dict[str, list[dict]], resolved_lr: dict[str, float],
                golden: dict | None) -> tuple[dict[str, str], dict[str, str], int]:
    """Check one sweep's outputs.

    Every seed: each expected run exists, has one row per round in order,
    repeats its cell's identifiers and resolved step size, which must be a
    candidate of the config, and never diverges (a tuned replay repeats a
    tuning run that the grid search already chose, and the fixed-step
    workload is stable). Noise-free quadratics must give the same rows for
    every seed. With ``golden``, each run digest and resolved_lr entry must
    equal the pinned one.

    Returns (run_id -> digest, run_id -> failure reason, runs attempted).
    """
    expected = expected_runs(cfg)
    allowed = _allowed_etas(cfg)
    digests = {run_id: run_digest(rows) for run_id, rows in runs.items()}
    failures: dict[str, str] = {}
    for run_id in runs.keys() - expected.keys():
        failures[run_id] = "unexpected run"
    noise_free = cfg["problem"]["kind"] == "quadratic" and cfg["problem"].get("sigma", 0.0) == 0.0
    seedless: dict[str, str] = {}
    for run_id, (cell, algorithm, m, k, r_rounds, seed) in expected.items():
        rows = runs.get(run_id)
        eta = resolved_lr.get(cell)
        if rows is None:
            failures[run_id] = "missing from runs.csv"
        elif eta is None or eta not in allowed:
            failures[run_id] = f"resolved_lr[{cell}]={eta!r} is not a configured step size"
        elif golden is not None and golden["resolved_lr"].get(cell) != eta:
            failures[run_id] = f"resolved_lr[{cell}]={eta!r}, pinned {golden['resolved_lr'].get(cell)!r}"
        elif golden is not None and golden["runs"].get(run_id) != digests[run_id]:
            failures[run_id] = "rows differ from the pinned digest"
        else:
            problem = _shape_problem(rows, algorithm, m, k, r_rounds, seed, eta)
            if problem is not None:
                failures[run_id] = problem
            elif noise_free:
                body = run_digest([{c: v for c, v in row.items() if c not in ("run_id", "seed")}
                                   for row in rows])
                if seedless.setdefault(cell, body) != body:
                    failures[run_id] = "noise-free run depends on its seed"
    return digests, failures, len(expected.keys() | runs.keys())
