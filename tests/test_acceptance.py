"""Acceptance gate: the headline behaviors of the laboratory at desk scale.

Covers, in order: the exact-identity self-check suite; statistical sanity of
the gradient oracles and the label-skew partitioner; the convergence ordering
of the three parameter-server methods at grid-tuned step sizes; the
linear-speedup band when machines double in the noise-dominated regime; the
communication-round floor ordering in exact arithmetic; the query-dispersion
mechanism behind the ordering; and (when local MNIST IDX files are present)
the test-accuracy ordering on a heterogeneous MNIST split.

Wall-clock budgets are asserted around the heavy work. Each of the paper's
three claims is a bundled config (configs/ordering.json, configs/speedup.json,
configs/mnist.json) that the fixture runs through ``run_experiment``; it reads
only the manifest and runs.csv, through the experiment scripts' readers. The
ordering run feeds both the ordering test and the dispersion test, and every
constant in the configs is frozen, including the problem seed, so the
measured margins are reproducible bit for bit.
"""
import json
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from slowcal_lab.data import dirichlet_partition
from slowcal_lab.objectives import LogisticEnsemble
from slowcal_lab.runner import build_problem, load_spec, run_experiment
from slowcal_lab.tuning import rmin
from slowcal_lab.verify import verify_suite

import ordering_experiment  # scripts/, on pytest's pythonpath
import speedup_experiment

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def run_config(name, out_dir, data_dir=None):
    """Run a bundled config; returns its spec, manifest and runs.csv path."""
    spec = load_spec(CONFIGS / f"{name}.json")
    summary = run_experiment(spec, out_dir=out_dir, data_dir=data_dir)
    return spec, json.loads(summary.manifest_path.read_text()), summary.csv_path


# ------------------------------------------------------- exact identities

class TestExactIdentities:
    def test_identity_suite_passes_within_budget(self):
        started = time.perf_counter()
        report = verify_suite()
        elapsed = time.perf_counter() - started
        failed = [c.name for c in report.checks if not c.passed]
        assert report.all_passed, f"failed checks: {failed}"
        assert elapsed < 5.0, f"identity suite took {elapsed:.1f}s"


# ------------------------------------------------------ statistical oracles

def sampled_draws(problem, point, seeds, steps):
    """Every step of round 0 of every seed from the batched oracle the runs
    use, all lanes at ``point`` on every machine: (seeds * steps, M, d)."""
    draws = problem.round_draws(seeds, 0, steps)
    lanes = np.arange(len(seeds))
    points = np.broadcast_to(point, (len(seeds), problem.num_machines, problem.dim))
    return np.concatenate([problem.sampled_gradients(points, draws, k, lanes)
                           for k in range(steps)])


def z_scores(sampled, exact):
    """|mean - exact| / standard error, per machine and coordinate."""
    se = sampled.std(axis=0, ddof=1) / math.sqrt(len(sampled))
    return np.abs(sampled.mean(axis=0) - exact) / np.maximum(se, 1e-30)


@pytest.fixture(scope="module")
def oracle_stats():
    """All the sampling-based sanity measurements, under one clock. The
    oracle draws are round 0 of seeds 0-999, 100 steps each: 100,000 draws
    per machine, on every machine."""
    started = time.perf_counter()
    seeds, steps = range(1000), 100

    quad = build_problem({
        "kind": "quadratic", "dim": 20, "curvature": "per-machine", "eig_range": [0.5, 2.0],
        "center_spread": 1.0, "sigma": 1.5, "target_gstar": None, "problem_seed": 4,
    }, 3)
    probe = quad.w_star + 0.7
    exact = quad.exact_gradients(np.broadcast_to(probe, (quad.num_machines, quad.dim)))
    sampled = sampled_draws(quad, probe, seeds, steps)
    noise_power = (np.linalg.norm(sampled - exact, axis=-1) ** 2).mean(axis=0)

    logistic = LogisticEnsemble(np.array([[1.0, 2.0], [0.0, 1.0], [2.0, 0.5]]),
                                np.array([0, 2, 1]), (3,), num_classes=3, l2=0.1)
    point = 0.1 * np.arange(logistic.dim, dtype=np.float64)
    log_exact = logistic.exact_gradients(point[None, :])
    log_sampled = sampled_draws(logistic, point, seeds, steps)

    labels = np.arange(4000, dtype=np.int64) % 10
    concentrated = []
    for seed in range(5):
        part = dirichlet_partition(labels, 16, alpha=0.1, seed=seed)
        count = 0
        for idx in part:
            counts = np.sort(np.bincount(labels[idx], minlength=10))[::-1]
            if counts[:2].sum() >= 0.8 * counts.sum():
                count += 1
        concentrated.append(count)

    return {
        "quad_z": z_scores(sampled, exact),
        "noise_power": noise_power,
        "sigma_sq": 1.5 ** 2,
        "log_z": z_scores(log_sampled, log_exact),
        "concentrated": concentrated,
        "elapsed": time.perf_counter() - started,
    }


class TestStatisticalOracles:
    def test_quadratic_gradient_is_unbiased(self, oracle_stats):
        assert oracle_stats["quad_z"].max() <= 4.0

    def test_noise_power_matches_setting(self, oracle_stats):
        rel = np.abs(oracle_stats["noise_power"] - oracle_stats["sigma_sq"])
        assert rel.max() <= 0.02 * oracle_stats["sigma_sq"]

    def test_logistic_sampling_is_unbiased(self, oracle_stats):
        assert oracle_stats["log_z"].max() <= 4.0

    def test_label_skew_partition_is_heterogeneous(self, oracle_stats):
        # at concentration 0.1, at least half of 16 machines should carry
        # >= 80% of their mass in at most two classes, on every seed
        assert all(count >= 8 for count in oracle_stats["concentrated"])

    def test_within_budget(self, oracle_stats):
        assert oracle_stats["elapsed"] < 30.0


# ------------------------------------------- convergence ordering mechanism

@pytest.fixture(scope="module")
def ordering_runs(tmp_path_factory):
    """Run configs/ordering.json: each method grid-tuned on the
    flat-spectrum heterogeneous ensemble, started at w* + 30·1/√20. Reads
    each method's mean final excess at its output point from the manifest,
    and the final-quarter dispersion of its tuned runs from runs.csv.

    The spectrum is deliberately flat: no step size on the pinned grid lets
    the unweighted baselines contract the initial distance within the step
    budget, while the growing-weight method's effective horizon does, which
    is exactly the bias-versus-rounds story the ordering is meant to show.
    """
    started = time.perf_counter()
    spec, manifest, csv_path = run_config("ordering", tmp_path_factory.mktemp("ordering"))
    final = speedup_experiment.tuned_output_means(spec, manifest["output_excess"])
    quarter = ordering_experiment.final_quarter_dispersion(spec, csv_path)
    return {
        "final": {name: final[(name, 8, 16)] for name in spec.algorithms},
        "quarter": {name: quarter[(name, 8, 16)] for name in spec.algorithms},
        "elapsed": time.perf_counter() - started,
    }


class TestConvergenceOrdering:
    def test_tuned_final_excess_ordering(self, ordering_runs):
        final = ordering_runs["final"]
        assert all(math.isfinite(v) for v in final.values())
        assert final["slowcal"] <= final["local"]
        assert final["slowcal"] <= final["minibatch"]

    def test_query_dispersion_is_smaller(self, ordering_runs):
        quarter = ordering_runs["quarter"]
        assert quarter["slowcal"] < quarter["local"]

    def test_within_budget(self, ordering_runs):
        assert ordering_runs["elapsed"] < 120.0


# ------------------------------------------------------ linear-speedup band

@pytest.fixture(scope="module")
def speedup_ratios(tmp_path_factory):
    """Run configs/speedup.json and read the mean tuned final excess at M=8
    over M=16 in the noise-dominated, zero-heterogeneity regime, per
    method, from the manifest."""
    started = time.perf_counter()
    spec, manifest, _ = run_config("speedup", tmp_path_factory.mktemp("speedup"))
    means = speedup_experiment.tuned_output_means(spec, manifest["output_excess"])
    ratios = {name: means[(name, 8, 8)] / means[(name, 16, 8)] for name in spec.algorithms}
    return {"ratios": ratios, "elapsed": time.perf_counter() - started}


class TestLinearSpeedup:
    def test_doubling_machines_lands_in_band(self, speedup_ratios):
        # root-2 is the prediction; the band allows for seed noise
        for name, ratio in speedup_ratios["ratios"].items():
            assert 1.2 <= ratio <= 1.7, f"{name}: {ratio:.3f}"

    def test_within_budget(self, speedup_ratios):
        assert speedup_ratios["elapsed"] < 120.0


# ------------------------------------------------- round-floor ordering

class TestRoundFloorOrdering:
    def test_drift_corrected_floor_is_lower_everywhere(self):
        # exact integer form: the floors are (1+1)M*sqrt(K) and MK, and
        # (2M sqrt(K))^2 < (MK)^2 iff 4 < K, so compare squares in ints
        for m in range(2, 65):
            for k in range(16, 257):
                assert 4 * m * m * k < (m * k) ** 2, (m, k)

    def test_library_floors_agree_with_exact_form(self):
        for m in (2, 7, 64):
            for k in (16, 100, 256):
                slow = rmin("slowcal", m, k, g=1.0)
                mini = rmin("minibatch", m, k)
                assert slow == pytest.approx(2.0 * m * math.sqrt(k), rel=1e-12)
                assert mini == m * k
                assert slow < mini


# ------------------------------------------------------------- MNIST split

def _mnist_dir():
    candidates = []
    env = os.environ.get("SLOWCAL_LAB_MNIST")
    if env:
        candidates.append(Path(env))
    candidates.append(Path("data") / "mnist")
    for cand in candidates:
        stem = cand / "train-images-idx3-ubyte"
        if stem.exists() or stem.with_name(stem.name + ".gz").exists():
            return cand
    return None


needs_mnist = pytest.mark.skipif(
    _mnist_dir() is None,
    reason="local MNIST IDX files not found (set SLOWCAL_LAB_MNIST "
           "or place them under data/mnist)",
)


@needs_mnist
class TestMnistOrdering:
    def test_accuracy_ordering_under_long_rounds(self, tmp_path):
        # configs/mnist.json: 16 machines, Dirichlet label skew 0.1, each
        # method grid-tuned at K = 4 and 64 over 256 steps; the accuracy is
        # the seeds' mean of each tuned run's manifest test accuracy
        started = time.perf_counter()
        spec, manifest, _ = run_config("mnist", tmp_path, data_dir=_mnist_dir())
        metrics = manifest["test_metrics"]
        means = speedup_experiment.seed_means(
            spec, lambda run_id: metrics[run_id]["test_accuracy"])
        accuracy = {(name, k): means[(name, 16, k)] for name in spec.algorithms
                    for k in spec.local_steps}

        # ordering is asserted only in the many-local-steps regime; with few
        # local steps the methods are expected to be indistinguishable
        slack = 0.005
        assert accuracy[("slowcal", 64)] >= accuracy[("local", 64)] - slack
        assert accuracy[("local", 64)] >= accuracy[("minibatch", 64)] - slack
        assert time.perf_counter() - started < 900.0
