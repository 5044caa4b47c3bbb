"""Golden outputs: pinned digests of small sweeps.

Each case runs one config end to end and compares the SHA-256 of its
``runs.csv`` with the ``wall_ms`` column removed, plus the manifest's
``resolved_lr``, against values recorded from a reference build. Unlike
the rerun and serial-vs-pool tests, which compare two runs of the same
code, these catch any last-ulp drift a refactor of the runners, the
oracles or the tuning loop introduces. A legitimate numerical change must
re-pin them and say why.
"""
import csv
import hashlib
import json

import numpy as np
import pytest

from slowcal_lab.algorithms import ALGORITHMS, RunConfig
from slowcal_lab.objectives import LogisticEnsemble, heterogeneous_quadratic
from slowcal_lab.runner import run_experiment, spec_from_dict
from slowcal_lab.weights import parse_schedule

QUAD_GRID = {
    "problem": {"kind": "quadratic", "dim": 5, "sigma": 0.5, "problem_seed": 4},
    "algorithm": ["minibatch", "slowcal"],
    "machines": [2, 3],
    "local_steps": [3],
    "rounds": 8,
    "x0": "ones:2",
    # 10.0 diverges for both methods on every seed
    "lr": "grid:[0.01, 0.1, 0.5, 10.0]",
    "seeds": [0, 1, 2],
}

LOGISTIC_GRID = {
    "problem": {"kind": "synth-logistic", "dim": 6, "num_classes": 3,
                "n_per_machine": 12, "label_skew": 0.3, "problem_seed": 2},
    "algorithm": ["local", "local-weighted", "anytime"],
    "machines": [3],
    "local_steps": [2, 4],
    "total_steps": 16,
    # 300.0 diverges for every method on every seed
    "lr": "grid:[0.03, 0.3, 3.0, 300.0]",
    "seeds": [0, 1],
}

# ten classes take the softmax oracle's C >= 8 reductions; problem_seed 2
# deals the machines [1, 21, 17, 1] examples, so two hold a single row
LOGISTIC10_GRID = {
    "problem": {"kind": "synth-logistic", "dim": 11, "num_classes": 10,
                "n_per_machine": 10, "label_skew": 0.3, "problem_seed": 2},
    "algorithm": ["minibatch", "local", "slowcal"],
    "machines": [4],
    "local_steps": [2, 3],
    "total_steps": 12,
    "lr": "grid:[0.03, 0.3, 3.0, 300.0]",
    "seeds": [0, 1],
}

QUAD_DIAG = {
    "problem": {"kind": "quadratic", "dim": 4, "sigma": 0.0, "problem_seed": 1},
    "algorithm": ["minibatch", "local", "local-weighted", "anytime", "slowcal"],
    "schedule": "poly:1.5",
    "machines": [3],
    "local_steps": [2],
    "rounds": 6,
    "lr": "fixed:0.01",
    "seeds": [0, 1],
    "diagnostics": True,
}

GOLDEN = {
    "quad-grid": (
        QUAD_GRID,
        "6134f1b95d5350ea5f8b56b68f7c39c81edbd9bd1d0f347a61a9ecb0625d8240",
        {"minibatch-M2-K3": 0.5, "minibatch-M3-K3": 0.5,
         "slowcal-M2-K3": 0.01, "slowcal-M3-K3": 0.01},
    ),
    "logistic-grid": (
        LOGISTIC_GRID,
        "63e7de6c7489fc451c50f9486f6621258ac8a773a4d029d6b06d4a2ad78db95e",
        {"anytime-M3-K2": 0.3, "anytime-M3-K4": 0.3,
         "local-M3-K2": 3.0, "local-M3-K4": 3.0,
         "local-weighted-M3-K2": 0.3, "local-weighted-M3-K4": 0.3},
    ),
    "logistic10-grid": (
        LOGISTIC10_GRID,
        "e6314561025269b455e584524f3b6d24d8b1bfb4226efe0c9eba9323c0fb8993",
        {"local-M4-K2": 3.0, "local-M4-K3": 3.0,
         "minibatch-M4-K2": 3.0, "minibatch-M4-K3": 3.0,
         "slowcal-M4-K2": 0.3, "slowcal-M4-K3": 0.3},
    ),
    "quad-diag": (
        QUAD_DIAG,
        "b60ba0c66346e2d275cfe2bafe08a5fc7dda0d7b11e9f750d4b365f78ee1f263",
        {f"{name}-M3-K2": 0.01
         for name in ("minibatch", "local", "local-weighted", "anytime", "slowcal")},
    ),
}


def csv_digest(path) -> str:
    digest = hashlib.sha256()
    with open(path, newline="") as handle:
        for row in csv.DictReader(handle):
            digest.update(",".join(v for k, v in row.items() if k != "wall_ms").encode())
            digest.update(b"\n")
    return digest.hexdigest()


@pytest.mark.parametrize("case,jobs", [
    pytest.param(case, jobs, id=case if jobs is None else f"{case}-jobs{jobs}")
    for case in sorted(GOLDEN) for jobs in (None, "2")
])
def test_sweep_matches_golden(case, jobs, tmp_path, monkeypatch):
    # the same digests serially and with every cell a pool task
    if jobs is None:
        monkeypatch.delenv("SLOWCAL_LAB_JOBS", raising=False)
    else:
        monkeypatch.setenv("SLOWCAL_LAB_JOBS", jobs)
    config, want_digest, want_lr = GOLDEN[case]
    summary = run_experiment(spec_from_dict(config), out_dir=tmp_path)
    manifest = json.loads(summary.manifest_path.read_text())
    assert csv_digest(summary.csv_path) == want_digest
    assert manifest["resolved_lr"] == want_lr


def step_digest(traj) -> str:
    digest = hashlib.sha256()
    for rec in traj.steps:
        digest.update(repr((rec.t, rec.dispersion_q, rec.bias_increment)).encode())
        for vec in (rec.w_mean, rec.x_mean, rec.g_mean):
            digest.update(b"-" if vec is None else np.ascontiguousarray(vec).tobytes())
    digest.update(np.ascontiguousarray(traj.x_output).tobytes())
    return digest.hexdigest()


STEP_GOLDEN = {
    "minibatch": "e385433f1ff401520c1efa8d050ff8e35c6ab36103b266246013fd5b12f1600a",
    "local": "a07d8db8b730eb9e32a65c31e8d4dab87adf16c8b51ba09ca4274da16d4337a5",
    "local-weighted": "2e5523f8a3986c8e16b2ab1ab1be7a03803f9f2926b3c9cb66edca6cff5f848f",
    "anytime": "8f729857c7dfab54bc0d74824b8adefd991feceb158c965edf888463b8e5640b",
    "slowcal": "3ee708e782f1636aa1550c7ab5c2a1b26cbf1f9cf9524b4c932d833f5e98b5be",
}


@pytest.mark.parametrize("algorithm", sorted(STEP_GOLDEN))
def test_step_records_match_golden(algorithm):
    """runs.csv holds no per-step records, so pin those (and x_output) too."""
    prob = heterogeneous_quadratic(3, 4, sigma=0.2, seed=1)
    cfg = RunConfig(K=2, R=5, schedule=parse_schedule("poly:1.5"), record_diagnostics=True)
    assert step_digest(ALGORITHMS[algorithm](prob, cfg, 0.05, seed=3)) == STEP_GOLDEN[algorithm]


def unequal_logistic():
    rng = np.random.default_rng(11)
    sizes = (4, 9, 6)
    return LogisticEnsemble(
        features=np.concatenate([rng.standard_normal((n, 3)) for n in sizes]),
        labels=np.concatenate([rng.integers(0, 3, n) for n in sizes]),
        sizes=sizes,
        num_classes=3,
        l2=0.05,
    )


LOGISTIC_STEP_GOLDEN = {
    "minibatch": "4d34207374381e11978b570f61c22631562be0b7fe4619733184c63ba3686225",
    "local": "6c61f2dfbe7db23f4cebd8ed10337ca684fe977e1e9dc89c79080365119dae0e",
    "local-weighted": "8df91b94537c34282603644958defabd2d674f6847319d1c93a3f836126f556c",
    "anytime": "05c2a2cc2245f3374f6e1c2fdac7fa7156c7d9726aec94a9c0eb054fea9d92e7",
    "slowcal": "cd5cb1f822fa4f1d5d8821f4f8ce228e05fa0f1aceadfa5fbf41f762fa004526",
}


@pytest.mark.parametrize("algorithm", sorted(LOGISTIC_STEP_GOLDEN))
def test_logistic_step_records_match_golden(algorithm):
    """Per-step records on softmax regression with unequal machine sizes,
    whose dispersion and bias increments go through the logistic oracle."""
    prob = unequal_logistic()
    cfg = RunConfig(K=3, R=4, schedule=parse_schedule("poly:1.5"), record_diagnostics=True,
                    x0=np.full(prob.dim, 0.1))
    traj = ALGORITHMS[algorithm](prob, cfg, 0.2, seed=5)
    assert step_digest(traj) == LOGISTIC_STEP_GOLDEN[algorithm]
