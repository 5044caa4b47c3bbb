"""Config parsing, experiment orchestration, output contract, and CLI."""
import csv
import gzip
import io
import json
import math
import multiprocessing
import os
import re
import subprocess
import sys
import time
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import slowcal_lab
from slowcal_lab import cli, objectives, runner, tuning
from slowcal_lab.algorithms import (
    ALGORITHMS,
    METHODS,
    ROUND_COLUMNS,
    RunConfig,
    Trajectory,
    run_lanes,
)
from slowcal_lab.data import load_mnist, serialize_idx_images, serialize_idx_labels
from slowcal_lab.metrics import excess_loss
from slowcal_lab.objectives import LogisticEnsemble, QuadraticEnsemble
from slowcal_lab.runner import (
    CSV_COLUMNS,
    ConfigError,
    ExperimentSpec,
    build_problem,
    load_spec,
    run_experiment,
    spec_from_dict,
)
from slowcal_lab.tuning import grid_search, theoretical_lr
from slowcal_lab.weights import LINEAR, parse_schedule


def base_config(**overrides):
    cfg = {
        "problem": {"kind": "quadratic", "dim": 5, "sigma": 0.3, "problem_seed": 3},
        "algorithm": ["minibatch", "local"],
        "machines": [2],
        "local_steps": [2],
        "rounds": 5,
        "lr": "fixed:0.05",
        "seeds": [0, 1],
    }
    cfg.update(overrides)
    return cfg


SMALL_LOGISTIC = {"kind": "synth-logistic", "dim": 4, "num_classes": 3, "n_per_machine": 10,
                  "problem_seed": 1}


def read_rows(csv_path):
    with open(csv_path, newline="") as handle:
        return list(csv.DictReader(handle))


def strip_timing(rows):
    return [{k: v for k, v in row.items() if k != "wall_ms"} for row in rows]


class TestSpecParsing:
    def test_defaults_are_filled(self):
        spec = spec_from_dict(base_config())
        assert spec.name == "experiment"
        assert spec.schedule == "linear"
        assert spec.x0 == "zeros"
        assert spec.out_dir == "runs"
        assert not hasattr(spec, "diagnostics")
        assert spec.lr == "fixed:0.05"
        assert spec.problem["curvature"] == "per-machine"
        assert spec.problem["eig_range"] == [0.5, 2.0]
        assert spec.problem["center_spread"] == 1.0
        assert spec.problem["target_gstar"] is None

    def test_diagnostics_key_is_accepted_and_not_kept(self):
        # no output reads per-step records, so the flag leaves the spec as it was
        specs = [spec_from_dict(base_config(diagnostics=flag)) for flag in (False, True)]
        assert specs[0] == specs[1] == spec_from_dict(base_config())
        assert "diagnostics" not in {field.name for field in fields(ExperimentSpec)}

    def test_lr_defaults_to_theory(self):
        cfg = base_config()
        del cfg["lr"]
        assert spec_from_dict(cfg).lr == "theory"

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown config field"):
            spec_from_dict(base_config(momentum=0.9))

    @pytest.mark.parametrize(
        "field", ["problem", "algorithm", "machines", "local_steps", "seeds"]
    )
    def test_missing_required_field(self, field):
        cfg = base_config()
        del cfg[field]
        with pytest.raises(ConfigError, match="missing required"):
            spec_from_dict(cfg)

    def test_unknown_algorithm(self):
        with pytest.raises(ConfigError, match="unknown algorithm"):
            spec_from_dict(base_config(algorithm=["minibatch", "adam"]))

    def test_unknown_problem_kind_and_field(self):
        with pytest.raises(ConfigError, match="kind"):
            spec_from_dict(base_config(problem={"kind": "cubic", "dim": 3}))
        with pytest.raises(ConfigError, match="unknown quadratic problem field"):
            spec_from_dict(
                base_config(problem={"kind": "quadratic", "dim": 3, "rank": 2})
            )

    def test_dim_is_required(self):
        with pytest.raises(ConfigError, match="dim"):
            spec_from_dict(base_config(problem={"kind": "quadratic"}))

    def test_rounds_xor_total_steps(self):
        cfg = base_config()
        cfg["total_steps"] = 10
        with pytest.raises(ConfigError, match="exactly one"):
            spec_from_dict(cfg)
        del cfg["rounds"], cfg["total_steps"]
        with pytest.raises(ConfigError, match="exactly one"):
            spec_from_dict(cfg)

    def test_total_steps_divisibility(self):
        cfg = base_config(local_steps=[2, 3])
        del cfg["rounds"]
        cfg["total_steps"] = 8
        with pytest.raises(ConfigError, match="multiple"):
            spec_from_dict(cfg)
        cfg["total_steps"] = 12
        spec = spec_from_dict(cfg)
        assert spec.rounds is None and spec.total_steps == 12

    @pytest.mark.parametrize("bad", ["circle", "ones:", "ones:abc", "ones:nan", "ones:inf",
                                     "ones:-inf", "w_star+", "w_star+ones:nan", "w_star+zeros",
                                     "ones:3+w_star", "ones:-3", "w_star+ones:-1"])
    def test_bad_start_directive(self, bad):
        with pytest.raises(ConfigError, match="x0"):
            spec_from_dict(base_config(x0=bad))

    @pytest.mark.parametrize(
        "bad",
        ["adaptive", "fixed:-1", "fixed:xyz", "fixed:inf",
         "grid:[]", "grid:[0.1, -2]", "grid:nonsense", "grid:[0.1, Infinity]", "grid:[1e400]",
         "grid:[true, 0.1]"],
    )
    def test_bad_lr_strings(self, bad):
        with pytest.raises(ConfigError):
            spec_from_dict(base_config(lr=bad))

    @pytest.mark.parametrize("limit", [0, -55])
    def test_train_limit_must_be_positive(self, limit):
        # a negative limit would slice from the end and train on the wrong examples
        with pytest.raises(ConfigError, match="train_limit"):
            spec_from_dict(base_config(problem={"kind": "mnist-logistic", "train_limit": limit}))

    def test_lr_mapping_must_cover_every_algorithm(self):
        with pytest.raises(ConfigError, match="missing algorithm"):
            spec_from_dict(base_config(lr={"minibatch": "fixed:0.1"}))
        with pytest.raises(ConfigError, match="unknown algorithm"):
            spec_from_dict(base_config(lr={
                "minibatch": "fixed:0.1", "local": "theory", "adam": "theory",
            }))
        spec = spec_from_dict(base_config(lr={
            "minibatch": "fixed:0.1", "local": "grid:[0.01, 0.1]",
        }))
        assert spec.lr["local"] == "grid:[0.01, 0.1]"

    def test_scalar_list_validation(self):
        with pytest.raises(ConfigError):
            spec_from_dict(base_config(machines=[0]))
        with pytest.raises(ConfigError):
            spec_from_dict(base_config(seeds=[-1]))
        for field in ("algorithm", "machines", "local_steps", "seeds"):
            with pytest.raises(ConfigError, match="nonempty"):
                spec_from_dict(base_config(**{field: []}))
        with pytest.raises(ConfigError, match="'diagnostics'"):
            spec_from_dict(base_config(diagnostics="yes"))
        with pytest.raises(ConfigError, match="schedule"):
            spec_from_dict(base_config(schedule="cubic"))
        with pytest.raises(ConfigError, match="rounds"):
            spec_from_dict(base_config(rounds=0))


class TestLoadSpec:
    def test_round_trips_json(self, tmp_path):
        cfg = base_config()
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert load_spec(path) == spec_from_dict(cfg)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_spec(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_spec(path)

    def test_integer_literal_too_long_to_parse(self, tmp_path):
        # Python caps int-from-string conversion at 4300 digits
        path = tmp_path / "long.json"
        path.write_text(json.dumps(base_config(seeds=[0])).replace("[0]", "[" + "1" * 5000 + "]"))
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_spec(path)


class TestBuildProblem:
    def test_quadratic(self):
        spec = spec_from_dict(base_config())
        prob = build_problem(spec.problem, 3)
        assert isinstance(prob, QuadraticEnsemble)
        assert prob.dim == 5
        assert prob.metadata(np.zeros(5)).sigma == 0.3

    def test_synth_logistic(self):
        spec = spec_from_dict(base_config(problem={
            "kind": "synth-logistic", "dim": 6, "num_classes": 3, "problem_seed": 1,
        }))
        prob = build_problem(spec.problem, 2)
        assert isinstance(prob, LogisticEnsemble)
        assert prob.dim == 3 * 6

    def test_mnist_is_rejected_here(self):
        spec = spec_from_dict(base_config(problem={"kind": "mnist-logistic"}))
        with pytest.raises(ConfigError, match="without its data"):
            build_problem(spec.problem, 2)


class TestRunExperiment:
    def test_overflowed_output_excess_is_null(self, tmp_path):
        spec = spec_from_dict(base_config(lr="fixed:1e200", x0="ones:3"))
        summary = run_experiment(spec, out_dir=tmp_path)
        assert summary.any_diverged
        text = summary.manifest_path.read_text()
        manifest = json.loads(text, parse_constant=pytest.fail)  # strict JSON: no Infinity/NaN
        assert len(manifest["output_excess"]) == 4
        assert all(v is None for v in manifest["output_excess"].values())

    def test_csv_and_manifest_contract(self, tmp_path):
        spec = spec_from_dict(base_config())
        summary = run_experiment(spec, out_dir=tmp_path)
        assert summary.num_runs == 4
        assert not summary.any_diverged
        assert summary.csv_path == tmp_path / "runs.csv"

        rows = read_rows(summary.csv_path)
        assert list(rows[0].keys()) == CSV_COLUMNS
        assert len(rows) == 4 * 5
        assert {row["eta"] for row in rows} == {"0.05"}
        assert {row["diverged"] for row in rows} == {"false"}
        for row in rows:
            assert row["run_id"] == f"{row['algorithm']}-quadratic-M2-K2-s{row['seed']}"
            assert int(row["t"]) == (int(row["round"]) + 1) * 2
        keys = [(r["algorithm"], int(r["M"]), int(r["K"]), int(r["seed"]), int(r["round"]))
                for r in rows]
        assert keys == sorted(keys)

        manifest = json.loads(summary.manifest_path.read_text())
        assert set(manifest) == {
            "spec", "csv_columns", "created_utc", "resolved_lr", "tuning", "output_excess",
            "problem_metadata", "package_version", "warnings",
        }
        assert manifest["tuning"] == {}
        assert set(manifest["output_excess"]) == {row["run_id"] for row in rows}
        assert manifest["csv_columns"] == CSV_COLUMNS
        assert manifest["resolved_lr"] == {"minibatch-M2-K2": 0.05, "local-M2-K2": 0.05}
        assert set(manifest["problem_metadata"]["M2"]) == {
            "smoothness", "sigma", "gstar", "f_star", "b0", "optimum",
        }
        optimum = manifest["problem_metadata"]["M2"]["optimum"]
        assert optimum == build_problem(spec.problem, 2).optimum_report()
        assert set(optimum) == {"method", "residual"} and optimum["method"] == "solve"
        assert manifest["warnings"] == []
        assert manifest["spec"]["problem"]["kind"] == "quadratic"
        assert manifest["package_version"] == slowcal_lab.__version__

    def test_softmax_manifest_reports_the_descent_optimum(self, tmp_path):
        spec = spec_from_dict(base_config(problem={
            "kind": "synth-logistic", "dim": 4, "num_classes": 3, "n_per_machine": 10,
            "problem_seed": 1}))
        summary = run_experiment(spec, out_dir=tmp_path)
        optimum = json.loads(summary.manifest_path.read_text())["problem_metadata"]["M2"]["optimum"]
        assert optimum == build_problem(spec.problem, 2).optimum_report()
        assert optimum["method"] == "gradient-descent" and optimum["steps"] > 0
        assert 0.0 < optimum["grad_norm"] <= 1e-10

    def test_reruns_are_identical_up_to_timing(self, tmp_path):
        spec = spec_from_dict(base_config())
        a = run_experiment(spec, out_dir=tmp_path / "a")
        b = run_experiment(spec, out_dir=tmp_path / "b")
        assert strip_timing(read_rows(a.csv_path)) == strip_timing(read_rows(b.csv_path))
        ma = json.loads(a.manifest_path.read_text())
        mb = json.loads(b.manifest_path.read_text())
        ma.pop("created_utc"), mb.pop("created_utc")
        assert ma == mb

    def test_theory_lr_matches_recomputation(self, tmp_path):
        spec = spec_from_dict(base_config(lr="theory"))
        summary = run_experiment(spec, out_dir=tmp_path)
        manifest = json.loads(summary.manifest_path.read_text())
        md = manifest["problem_metadata"]["M2"]
        want = theoretical_lr(smoothness=md["smoothness"], sigma=md["sigma"], gstar=md["gstar"],
                              b0=md["b0"], M=2, K=2, R=5)
        for eta in manifest["resolved_lr"].values():
            assert eta == want
        rows = read_rows(summary.csv_path)
        assert {row["eta"] for row in rows} == {repr(want)}

    @pytest.mark.parametrize("schedule", ["uniform", "poly:2"])
    def test_theory_with_nonlinear_schedule_warns(self, tmp_path, capsys, schedule):
        spec = spec_from_dict(base_config(lr="theory", schedule=schedule))
        summary = run_experiment(spec, out_dir=tmp_path)
        manifest = json.loads(summary.manifest_path.read_text())
        assert len(manifest["warnings"]) == 1
        assert "linear" in manifest["warnings"][0]
        assert "warning" in capsys.readouterr().err

    @pytest.mark.parametrize("schedule", ["poly:1", " linear "])
    def test_theory_under_another_spelling_of_linear_does_not_warn(self, tmp_path, capsys,
                                                                   schedule):
        # the warning is about the weights, not the schedule's spelling
        spec = spec_from_dict(base_config(lr="theory", schedule=schedule))
        summary = run_experiment(spec, out_dir=tmp_path / "spelled")
        linear = run_experiment(spec_from_dict(base_config(lr="theory")),
                                out_dir=tmp_path / "linear")
        manifest = json.loads(summary.manifest_path.read_text())
        assert manifest["warnings"] == []
        assert capsys.readouterr().err == ""
        assert (manifest["resolved_lr"]
                == json.loads(linear.manifest_path.read_text())["resolved_lr"])
        assert strip_timing(read_rows(summary.csv_path)) == strip_timing(read_rows(linear.csv_path))

    def test_grid_lr_tunes_per_algorithm(self, tmp_path):
        # on this problem the anchor-averaging baseline prefers the large
        # step while the drift-corrected method prefers the small one
        spec = spec_from_dict(base_config(
            problem={"kind": "quadratic", "dim": 6, "sigma": 0.5, "problem_seed": 3},
            algorithm=["minibatch", "slowcal"],
            machines=[4], local_steps=[4], rounds=10,
            lr="grid:[0.01, 0.1]", seeds=[0, 1],
        ))
        summary = run_experiment(spec, out_dir=tmp_path)
        manifest = json.loads(summary.manifest_path.read_text())
        assert manifest["resolved_lr"]["minibatch-M4-K4"] == 0.1
        assert manifest["resolved_lr"]["slowcal-M4-K4"] == 0.01
        rows = read_rows(summary.csv_path)
        etas = {row["algorithm"]: row["eta"] for row in rows}
        assert etas == {"minibatch": "0.1", "slowcal": "0.01"}

    def test_start_directive_sets_initial_distance(self, tmp_path):
        spec = spec_from_dict(base_config(x0="ones:5"))
        summary = run_experiment(spec, out_dir=tmp_path)
        manifest = json.loads(summary.manifest_path.read_text())
        prob = build_problem(spec.problem, 2)
        x0 = 5.0 * np.ones(5) / math.sqrt(5)
        want = float(np.linalg.norm(x0 - prob.w_star))
        assert manifest["problem_metadata"]["M2"]["b0"] == pytest.approx(want, rel=1e-12)

    def test_total_steps_mode_scales_rounds_per_k(self, tmp_path):
        cfg = base_config(local_steps=[2, 3])
        del cfg["rounds"]
        cfg["total_steps"] = 12
        summary = run_experiment(spec_from_dict(cfg), out_dir=tmp_path)
        rows = read_rows(summary.csv_path)
        per_k = {}
        for row in rows:
            per_k.setdefault((row["run_id"], row["K"]), 0)
            per_k[(row["run_id"], row["K"])] += 1
        for (run_id, k), count in per_k.items():
            assert count == 12 // int(k), run_id
            assert run_id.endswith(f"-s0") or run_id.endswith("-s1")

    def test_out_dir_resolution(self, tmp_path):
        # the argument wins over the config's out_dir
        spec = spec_from_dict(base_config(out_dir=str(tmp_path / "from_spec")))
        override = tmp_path / "from_arg"
        summary = run_experiment(spec, out_dir=override)
        assert summary.out_dir == override
        assert sorted(path.name for path in override.iterdir()) == ["manifest.json", "runs.csv"]
        assert not (tmp_path / "from_spec").exists()

        summary = run_experiment(spec)
        assert summary.out_dir == tmp_path / "from_spec"

    @pytest.mark.parametrize("case", ["quadratic-fixed", "logistic-grid", "mnist-grid"])
    def test_parallel_matches_serial(self, case, tmp_path, monkeypatch):
        # each cell tunes and runs as one pool task; the CSV and the whole
        # manifest (resolved step sizes, MNIST test metrics) match serial
        data = None
        if case == "mnist-grid":
            data = tmp_path / "data"
            data.mkdir()
            write_idx_dir(data)
            spec = spec_from_dict(mnist_config(
                algorithm=["local", "slowcal"], lr="grid:[0.01, 0.1]", seeds=[0, 1]))
        else:
            cfg = base_config() if case == "quadratic-fixed" else base_config(
                problem={"kind": "synth-logistic", "dim": 4, "num_classes": 3,
                         "n_per_machine": 10, "label_skew": 0.5, "problem_seed": 1},
                algorithm=["local", "slowcal"], machines=[2, 3],
                lr="grid:[0.03, 0.3, 30.0]")
            spec = spec_from_dict(cfg)

        monkeypatch.delenv("SLOWCAL_LAB_JOBS", raising=False)
        serial = run_experiment(spec, out_dir=tmp_path / "serial", data_dir=data)
        monkeypatch.setenv("SLOWCAL_LAB_JOBS", "2")
        parallel = run_experiment(spec, out_dir=tmp_path / "parallel", data_dir=data)
        assert strip_timing(read_rows(serial.csv_path)) == strip_timing(
            read_rows(parallel.csv_path))
        manifests = [json.loads(s.manifest_path.read_text()) for s in (serial, parallel)]
        for manifest in manifests:
            manifest.pop("created_utc")
        assert manifests[0] == manifests[1]
        assert len(manifests[0]["resolved_lr"]) >= 2
        if case == "mnist-grid":
            assert len(manifests[0]["test_metrics"]) == 4

    def test_pool_is_never_wider_than_the_cells(self, tmp_path, monkeypatch):
        widths = []

        class RecordingPool(runner.ProcessPoolExecutor):
            def __init__(self, max_workers=None, **kwargs):
                widths.append(max_workers)
                super().__init__(max_workers=max_workers, **kwargs)

        monkeypatch.setattr(runner, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setenv("SLOWCAL_LAB_JOBS", "3")
        two = run_experiment(spec_from_dict(base_config()), out_dir=tmp_path / "two")
        one = run_experiment(spec_from_dict(base_config(algorithm=["local"])),
                             out_dir=tmp_path / "one")
        assert widths == [2]  # two cells on two workers; one cell runs here
        assert two.num_runs == 4 and one.num_runs == 2

    def test_bad_jobs_env(self, tmp_path, monkeypatch):
        spec = spec_from_dict(base_config())
        monkeypatch.setenv("SLOWCAL_LAB_JOBS", "two")
        with pytest.raises(ConfigError, match="SLOWCAL_LAB_JOBS"):
            run_experiment(spec, out_dir=tmp_path)
        monkeypatch.setenv("SLOWCAL_LAB_JOBS", "0")
        with pytest.raises(ConfigError, match="SLOWCAL_LAB_JOBS"):
            run_experiment(spec, out_dir=tmp_path)

    def test_divergence_is_recorded(self, tmp_path):
        spec = spec_from_dict(base_config(
            algorithm=["local"], lr="fixed:10", seeds=[0], x0="ones:3",
        ))
        summary = run_experiment(spec, out_dir=tmp_path)
        assert summary.any_diverged
        rows = read_rows(summary.csv_path)
        assert rows[-1]["diverged"] == "true"
        assert rows[-1]["excess_loss"] == "inf"


GRID_CASES = {
    "quadratic-diverging-candidate": base_config(
        problem={"kind": "quadratic", "dim": 4, "sigma": 0.5, "problem_seed": 2},
        algorithm=["minibatch", "local", "slowcal"], machines=[2, 3], local_steps=[2],
        rounds=6, lr="grid:[0.1, 1000.0, 0.01]", x0="ones:2", seeds=[0, 1]),
    "logistic-unequal-machines": base_config(
        problem={"kind": "synth-logistic", "dim": 4, "num_classes": 3, "n_per_machine": 10,
                 "label_skew": 0.3, "problem_seed": 1},
        algorithm=["minibatch", "local-weighted"], machines=[3], local_steps=[2, 3],
        rounds=4, lr="grid:[0.03, 0.3, 3.0]", seeds=[0, 1]),
    "unsorted-seeds": base_config(
        algorithm=["anytime", "slowcal"], lr="grid:[0.02, 0.2]", seeds=[3, 0, 1]),
    "diagnostics": base_config(
        algorithm=["local", "slowcal"], lr="grid:[0.02, 0.2]", diagnostics=True),
}


def cell_step_size(spec, algorithm, problem, cfg, m):
    """A cell's step size, recomputed from its lr directive: a fixed value,
    the theory formula, or one direct grid_search call. Returns the step
    size and the grid's tuning table, or None."""
    directive = spec.lr[algorithm] if isinstance(spec.lr, dict) else spec.lr
    if directive.startswith("grid:"):
        tuned = grid_search(problem, algorithm, json.loads(directive[len("grid:"):]),
                            cfg, spec.seeds)
        return tuned.eta, [
            {"eta": eta, "scores": [v if math.isfinite(v) else None for v in scores],
             "mean": sum(scores) / len(scores) if math.isfinite(sum(scores)) else None}
            for eta, scores in tuned.table.items()]
    if directive == "theory":
        md = problem.metadata(cfg.x0)
        return theoretical_lr(smoothness=md.smoothness, sigma=md.sigma, gstar=md.gstar,
                              b0=md.b0, M=m, K=cfg.K, R=cfg.R), None
    return float(directive[len("fixed:"):]), None


def start_point(spec, problem):
    """The x0 directive resolved by hand: zeros, norm * 1/sqrt(d), or that
    added to the problem's optimum."""
    if spec.x0 == "zeros":
        return np.zeros(problem.dim)
    ones = float(spec.x0.split("ones:")[1]) * np.ones(problem.dim) / math.sqrt(problem.dim)
    return problem.w_star + ones if spec.x0.startswith("w_star+") else ones


def one_run_per_seed(config):
    """What an experiment of ``config`` must write, from each cell's step
    size recomputed on its own (``cell_step_size``) and one ALGORITHMS call
    per seed at it, with step records when the config asks for diagnostics:
    the CSV rows without wall_ms, resolved_lr, output_excess and the grid
    cells' tuning tables."""
    spec = spec_from_dict(config)
    kind = spec.problem["kind"]
    rows, resolved, excess, tuning = [], {}, {}, {}
    for algorithm in spec.algorithms:
        for m in spec.machines:
            problem = build_problem(spec.problem, m)
            x0 = start_point(spec, problem)
            for k in spec.local_steps:
                r_rounds = spec.rounds if spec.rounds is not None else spec.total_steps // k
                cfg = RunConfig(K=k, R=r_rounds, schedule=parse_schedule(spec.schedule), x0=x0)
                cell = f"{algorithm}-M{m}-K{k}"
                resolved[cell], table = cell_step_size(spec, algorithm, problem, cfg, m)
                if table is not None:
                    tuning[cell] = table
                for seed in spec.seeds:
                    traj = ALGORITHMS[algorithm](
                        problem, replace(cfg, record_diagnostics=config.get("diagnostics", False)),
                        resolved[cell], seed=seed)
                    run_id = f"{algorithm}-{kind}-M{m}-K{k}-s{seed}"
                    value = excess_loss(problem, traj.x_output)
                    excess[run_id] = value if math.isfinite(value) else None
                    rows.extend({
                        "run_id": run_id, "algorithm": algorithm, "problem": kind,
                        "M": str(m), "K": str(k), "R": str(r_rounds), "seed": str(seed),
                        "round": str(r), "t": str(t), "eta": repr(resolved[cell]),
                        **{column: repr(value) for column, value in zip(ROUND_COLUMNS, values)},
                        "diverged": "true" if diverged else "false",
                    } for r, (t, values, diverged) in enumerate(zip(
                        traj.t.tolist(), traj.values.tolist(), traj.round_diverged.tolist())))
    rows.sort(key=lambda row: (row["algorithm"], int(row["M"]), int(row["K"]),
                               int(row["seed"]), int(row["round"])))
    return rows, resolved, excess, tuning


def assert_outputs_equal_one_run_per_seed(config, tmp_path):
    spec = spec_from_dict(config)
    summary = run_experiment(spec, out_dir=tmp_path)
    rows, resolved, excess, _ = one_run_per_seed(config)
    assert strip_timing(read_rows(summary.csv_path)) == rows
    manifest = json.loads(summary.manifest_path.read_text())
    assert manifest["resolved_lr"] == resolved
    assert manifest["output_excess"] == excess
    assert all(float(row["wall_ms"]) > 0 for row in read_rows(summary.csv_path))
    for m in spec.machines:
        problem = build_problem(spec.problem, m)
        b0 = float(np.linalg.norm(start_point(spec, problem) - problem.w_star))
        assert manifest["problem_metadata"][f"M{m}"]["b0"] == b0


def csv_writer_bytes(spec, runs):
    """runs.csv as ``csv.writer`` writes it: the header, then each run's
    rows as tuples in ``CSV_COLUMNS`` order, runs sorted by their key."""
    kind = spec.problem["kind"]
    text = io.StringIO(newline="")
    writer = csv.writer(text)
    writer.writerow(CSV_COLUMNS)
    for (algorithm, m, k, seed), run in sorted(runs, key=lambda item: item[0]):
        rounds = spec.rounds if spec.rounds is not None else spec.total_steps // k
        head = (f"{algorithm}-{kind}-M{m}-K{k}-s{seed}", algorithm, kind, m, k, rounds, seed)
        writer.writerows(
            (*head, r, t, float(run.eta), *values, "true" if diverged else "false",
             float(run.wall_ms))
            for r, (t, values, diverged) in enumerate(zip(
                run.t.tolist(), run.values.tolist(), run.round_diverged.tolist())))
    return text.getvalue().encode()


def written_csv_bytes(tmp_path, spec, runs):
    rows = runner._CsvRows(spec, runs)
    assert len(rows) == sum(len(run.t) for _, run in runs)
    csv_path, _ = runner._write_outputs(tmp_path, spec, rows, {})
    return csv_path.read_bytes()


# floats at the edges of repr: infinities, a signed zero, the smallest
# subnormal, a subnormal, the largest float, and ones repr rounds
EDGE_FLOATS = (math.inf, -math.inf, -0.0, 5e-324, 1e-310, sys.float_info.max,
               -sys.float_info.max, 0.0, 0.1, 1.0 / 3.0, 1e16, 123456789.00000001, 2.5e-8)


class TestCsvFormat:
    """runs.csv lines are formatted directly; their bytes must be
    ``csv.writer``'s for the same rows."""

    @pytest.mark.parametrize("problem", [base_config()["problem"], SMALL_LOGISTIC])
    @pytest.mark.parametrize("budget", [
        {"rounds": 1}, {"rounds": 7}, {"rounds": None, "total_steps": 12}])
    def test_edge_values_match_csv_writer_bytewise(self, tmp_path, problem, budget):
        seeds = [2 ** 64 + 1, 3, 2 ** 70]  # past one and two 64-bit words
        spec = spec_from_dict(base_config(problem=problem, seeds=seeds, machines=[10, 2],
                                          local_steps=[4, 3], **budget))
        runs = []
        for n, (algorithm, m, k, seed) in enumerate(
                (a, m, k, s) for a in ("minibatch", "local") for m in (10, 2)
                for k in (4, 3) for s in seeds):
            rounds = budget["rounds"] or 12 // k
            cells = np.arange(n, n + 5 * rounds) % len(EDGE_FLOATS)
            diverged = np.arange(rounds) % 3 == n % 3
            eta, wall_ms = EDGE_FLOATS[(n + 3) % 7 + 3], EDGE_FLOATS[n % len(EDGE_FLOATS)]
            runs.append(((algorithm, m, k, seed), Trajectory(
                algorithm, eta, LINEAR, seed, np.array(EDGE_FLOATS)[cells].reshape(rounds, 5),
                np.arange(1, rounds + 1, dtype=np.int64) * k, diverged, np.zeros(2),
                bool(diverged[-1]), math.inf, wall_ms=wall_ms)))
        runs.reverse()  # the rows come sorted whatever order the runs arrive in
        assert written_csv_bytes(tmp_path, spec, runs) == csv_writer_bytes(spec, runs)

    @pytest.mark.parametrize("config", [
        base_config(lr="fixed:1e200", x0="ones:3", rounds=1),  # every run diverges at once
        # every run diverges some rounds in, its later rows +inf
        base_config(lr="fixed:3", rounds=20, seeds=[2 ** 64 + 7, 5]),
        base_config(problem=SMALL_LOGISTIC, algorithm=["anytime", "slowcal"],
                    lr="fixed:0.5", rounds=None, total_steps=6, local_steps=[3, 2]),
    ])
    def test_sweep_output_matches_csv_writer_bytewise(self, tmp_path, monkeypatch, config):
        written = {}
        write = runner._write_outputs

        def capture(out_dir, spec, rows, extra):
            written["runs"] = rows.runs
            return write(out_dir, spec, rows, extra)

        monkeypatch.setattr(runner, "_write_outputs", capture)
        spec = spec_from_dict(config)
        summary = run_experiment(spec, out_dir=tmp_path)
        assert summary.csv_path.read_bytes() == csv_writer_bytes(spec, written["runs"])


class TestGridCells:
    """A grid cell emits the winner's runs that its grid search made, with
    no replay; the outputs must be those of running each seed on its own at
    the resolved step size, with or without diagnostics."""

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("case", sorted(GRID_CASES))
    def test_outputs_equal_one_run_per_seed(self, case, jobs, tmp_path, monkeypatch):
        monkeypatch.setenv("SLOWCAL_LAB_JOBS", jobs)
        assert_outputs_equal_one_run_per_seed(GRID_CASES[case], tmp_path)

    def test_cases_cover_what_they_name(self):
        _, _, _, tuning = one_run_per_seed(GRID_CASES["quadratic-diverging-candidate"])
        assert all(entry["scores"] == [None, None] for table in tuning.values()
                   for entry in table if entry["eta"] == 1000.0)
        logistic = spec_from_dict(GRID_CASES["logistic-unequal-machines"])
        assert len(set(build_problem(logistic.problem, 3).sizes)) > 1
        outputs = {METHODS[name].output for name in logistic.algorithms}
        assert outputs == {"anchor-mean", "weighted-mean"}

    def test_tuning_table_equals_grid_search_and_is_strict_json(self, tmp_path):
        config = GRID_CASES["quadratic-diverging-candidate"]
        summary = run_experiment(spec_from_dict(config), out_dir=tmp_path)
        manifest = json.loads(summary.manifest_path.read_text(), parse_constant=pytest.fail)
        _, _, _, tuning = one_run_per_seed(config)
        assert manifest["tuning"] == tuning
        assert set(manifest["tuning"]) == set(manifest["resolved_lr"])

    def test_only_grid_cells_have_a_tuning_table(self, tmp_path):
        spec = spec_from_dict(base_config(lr={"minibatch": "fixed:0.05",
                                              "local": "grid:[0.01, 0.1]"}))
        manifest = json.loads(run_experiment(spec, out_dir=tmp_path)
                              .manifest_path.read_text())
        assert set(manifest["tuning"]) == {"local-M2-K2"}
        assert [entry["eta"] for entry in manifest["tuning"]["local-M2-K2"]] == [0.01, 0.1]


FIXED_CASES = {
    "quadratic-fixed-and-theory": base_config(
        problem={"kind": "quadratic", "dim": 4, "sigma": 0.5, "problem_seed": 2},
        algorithm=sorted(METHODS), machines=[2, 3], local_steps=[1, 3], rounds=5,
        lr={name: "theory" if name in ("anytime", "slowcal") else "fixed:0.05"
            for name in METHODS},
        x0="w_star+ones:3", seeds=[3, 0, 1]),
    "logistic-unequal-machines": base_config(
        problem={"kind": "synth-logistic", "dim": 4, "num_classes": 3, "n_per_machine": 10,
                 "label_skew": 0.3, "problem_seed": 1},
        algorithm=sorted(METHODS), machines=[3], local_steps=[2],
        rounds=4, lr="fixed:0.3", x0="w_star+ones:3", seeds=[3, 0, 1]),
    "diverging-seeds": base_config(
        algorithm=["local", "minibatch"], lr="fixed:10", x0="ones:3", seeds=[3, 0, 1]),
}


class TestFixedCells:
    """A fixed or theory cell runs its seeds as the lanes of one engine
    call; the outputs must be those of one ALGORITHMS call per seed."""

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("case", sorted(FIXED_CASES))
    def test_outputs_equal_one_run_per_seed(self, case, jobs, tmp_path, monkeypatch):
        monkeypatch.setenv("SLOWCAL_LAB_JOBS", jobs)
        assert_outputs_equal_one_run_per_seed(FIXED_CASES[case], tmp_path)

    def test_cases_cover_what_they_name(self):
        logistic = spec_from_dict(FIXED_CASES["logistic-unequal-machines"])
        assert len(set(build_problem(logistic.problem, 3).sizes)) > 1
        rows, _, _, _ = one_run_per_seed(FIXED_CASES["diverging-seeds"])
        assert {row["diverged"] for row in rows} == {"true", "false"}

    def test_one_engine_call_per_cell(self, tmp_path, monkeypatch):
        """Every lr mode runs a cell as one run_lanes call with no step
        records: one lane per seed, or per (seed, candidate) pair,
        seed-major, for a grid."""
        monkeypatch.delenv("SLOWCAL_LAB_JOBS", raising=False)
        calls = []

        def counting(problem, method, cfg, etas, seeds):
            calls.append((method, cfg.record_diagnostics, list(etas), list(seeds)))
            return run_lanes(problem, method, cfg, etas, seeds)

        monkeypatch.setattr(runner, "run_lanes", counting)
        monkeypatch.setattr(tuning, "run_lanes", counting)
        spec = spec_from_dict(base_config(
            algorithm=["minibatch", "local", "slowcal"],
            lr={"minibatch": "fixed:0.05", "local": "grid:[0.1, 0.01]", "slowcal": "theory"},
            seeds=[3, 0, 1], diagnostics=True))
        summary = run_experiment(spec, out_dir=tmp_path)
        theory = json.loads(summary.manifest_path.read_text())["resolved_lr"]["slowcal-M2-K2"]
        assert calls == [
            ("minibatch", False, [0.05] * 3, [3, 0, 1]),
            ("local", False, [0.01, 0.1] * 3, [3, 3, 0, 0, 1, 1]),
            ("slowcal", False, [theory] * 3, [3, 0, 1]),
        ]

    def test_diagnostics_change_no_output(self, tmp_path):
        config = base_config(
            algorithm=["minibatch", "local", "slowcal"],
            lr={"minibatch": "fixed:0.05", "local": "theory", "slowcal": "grid:[0.01, 0.1]"})
        summaries = [run_experiment(spec_from_dict(dict(config, diagnostics=flag)),
                                    out_dir=tmp_path / str(flag)) for flag in (False, True)]
        plain, probed = summaries
        assert strip_timing(read_rows(plain.csv_path)) == strip_timing(read_rows(probed.csv_path))
        manifests = [json.loads(s.manifest_path.read_text()) for s in summaries]
        for key in ("resolved_lr", "output_excess"):
            assert manifests[0][key] == manifests[1][key]


class TestSweep:
    def test_cartesian_product(self, tmp_path):
        spec = spec_from_dict(base_config(
            machines=[2, 3], local_steps=[2, 4], rounds=4, seeds=[0],
        ))
        summary = run_experiment(spec, out_dir=tmp_path)
        assert summary.num_runs == 2 * 2 * 2
        rows = read_rows(summary.csv_path)
        cells = {(r["algorithm"], r["M"], r["K"]) for r in rows}
        assert len(cells) == 8
        keys = [(r["algorithm"], int(r["M"]), int(r["K"]), int(r["seed"]), int(r["round"]))
                for r in rows]
        assert keys == sorted(keys)


def write_idx_dir(root, n_train=80, n_test=20):
    rng = np.random.default_rng(5)
    train = rng.integers(0, 256, size=(n_train, 6), dtype=np.uint8)
    test = rng.integers(0, 256, size=(n_test, 6), dtype=np.uint8)
    train_y = np.arange(n_train, dtype=np.int64) % 10
    test_y = np.arange(n_test, dtype=np.int64) % 10
    (root / "train-images-idx3-ubyte").write_bytes(serialize_idx_images(train, rows=2, cols=3))
    (root / "train-labels-idx1-ubyte").write_bytes(serialize_idx_labels(train_y))
    (root / "t10k-images-idx3-ubyte").write_bytes(serialize_idx_images(test, rows=2, cols=3))
    (root / "t10k-labels-idx1-ubyte").write_bytes(serialize_idx_labels(test_y))


MALFORMED_MNIST = ("bad-magic", "truncated-gz", "idx-path-is-a-directory", "more-labels",
                   "fewer-labels", "test-label-out-of-range", "empty-test-set", "test-width",
                   "zero-pixels")


def write_malformed_idx_dir(root, case):
    """A synthetic IDX directory of 60 train and 20 test images, broken as
    ``case`` names; returns a piece of the error it must give."""
    write_idx_dir(root, n_train=60)
    if case == "bad-magic":
        path = root / "train-labels-idx1-ubyte"
        path.write_bytes(b"\0\0\0\7" + path.read_bytes()[4:])
        return "train-labels-idx1-ubyte: bad magic"
    if case == "truncated-gz":
        path = root / "train-images-idx3-ubyte"
        (root / "train-images-idx3-ubyte.gz").write_bytes(gzip.compress(path.read_bytes())[:-10])
        path.unlink()
        return "train-images-idx3-ubyte.gz"
    if case == "idx-path-is-a-directory":
        path = root / "t10k-labels-idx1-ubyte"
        path.unlink()
        path.mkdir()
        return "t10k-labels-idx1-ubyte"
    if case in ("more-labels", "fewer-labels"):
        count = 70 if case == "more-labels" else 50
        (root / "train-labels-idx1-ubyte").write_bytes(
            serialize_idx_labels(np.arange(count) % 10))
        return f"60 images but train-labels-idx1-ubyte holds {count} labels"
    if case == "test-label-out-of-range":
        (root / "t10k-labels-idx1-ubyte").write_bytes(serialize_idx_labels(np.full(20, 10)))
        return f"MNIST test set under {root}: machine 0 labels outside [0, 10)"
    if case == "empty-test-set":
        (root / "t10k-images-idx3-ubyte").write_bytes(
            serialize_idx_images(np.empty((0, 6), dtype=np.uint8), rows=2, cols=3))
        (root / "t10k-labels-idx1-ubyte").write_bytes(serialize_idx_labels(np.empty(0, dtype=np.int64)))
        return f"MNIST test set under {root}: machine 0 has no examples"
    if case == "test-width":
        (root / "t10k-images-idx3-ubyte").write_bytes(
            serialize_idx_images(np.zeros((20, 4), dtype=np.uint8), rows=2, cols=2))
        return "test images have 4 pixels but train images have 6"
    assert case == "zero-pixels"
    for stem, count in (("train", 60), ("t10k", 20)):
        (root / f"{stem}-images-idx3-ubyte").write_bytes(
            serialize_idx_images(np.empty((count, 0), dtype=np.uint8), rows=0, cols=3))
    return f"MNIST test set under {root}: features must be 2-D with a column, got shape (20, 0)"


def mnist_config(**overrides):
    cfg = base_config(
        problem={"kind": "mnist-logistic", "l2": 0.01, "label_skew": 5.0,
                 "train_limit": 60, "problem_seed": 0},
        algorithm=["local"],
        machines=[2],
        local_steps=[2],
        rounds=2,
        lr="fixed:0.05",
        seeds=[0],
    )
    cfg.update(overrides)
    return cfg


def closed_form_test_metrics(data, x):
    """The test cross-entropy and accuracy at x, in closed form."""
    _, _, test_pixels, test_y = load_mnist(data)
    test_x = test_pixels / 255.0
    logits = test_x @ x.reshape(10, -1).T
    peak = logits.max(axis=1, keepdims=True)
    logp = logits - (peak + np.log(np.exp(logits - peak).sum(axis=1, keepdims=True)))
    return (-float(logp[np.arange(test_x.shape[0]), test_y].mean()),
            float((logits.argmax(axis=1) == test_y).mean()))


MNIST_MANIFEST_KEYS = {
    "spec", "csv_columns", "created_utc", "resolved_lr", "tuning", "output_excess",
    "reference", "test_metrics", "package_version", "warnings",
}


class TestMnistExperiment:
    def test_full_pipeline_on_synthetic_idx(self, tmp_path):
        data = tmp_path / "data"
        data.mkdir()
        write_idx_dir(data)
        spec = spec_from_dict(mnist_config())
        summary = run_experiment(spec, out_dir=tmp_path / "out", data_dir=data)
        assert summary.num_runs == 1

        rows = read_rows(summary.csv_path)
        assert len(rows) == 2
        assert rows[0]["run_id"] == "local-mnist-logistic-M2-K2-s0"
        assert all(math.isfinite(float(r["excess_loss"])) for r in rows)

        manifest = json.loads(summary.manifest_path.read_text())
        assert set(manifest) == MNIST_MANIFEST_KEYS
        ref = manifest["reference"]["M2"]
        assert ref["grad_norm"] <= 1e-4
        assert sum(ref["machine_sizes"]) == 60
        assert ref["method"] == "L-BFGS-B"
        assert ref["converged"] is True
        assert 1 <= ref["iterations"] <= 1000
        tm = manifest["test_metrics"]["local-mnist-logistic-M2-K2-s0"]
        assert 0.0 <= tm["test_accuracy"] <= 1.0
        assert tm["test_loss"] > 0.0

        # the test loss goes through the softmax oracle; it must equal the
        # closed-form cross-entropy at the run's output point bitwise
        problems, _ = runner._mnist_problems(spec, data)
        x = ALGORITHMS["local"](problems[2], RunConfig(K=2, R=2), 0.05).x_output
        loss, accuracy = closed_form_test_metrics(data, x)
        assert tm["test_loss"] == loss
        assert tm["test_accuracy"] == accuracy

    def test_reference_cut_by_its_iteration_cap_says_so(self, tmp_path, monkeypatch):
        # one L-BFGS iteration stops short of the tolerance: the reference
        # says it did not converge, and the sweep still runs against it
        import scipy.optimize
        minimize = scipy.optimize.minimize

        def one_iteration(*args, options, **kwargs):
            return minimize(*args, options=dict(options, maxiter=1), **kwargs)
        monkeypatch.setattr(scipy.optimize, "minimize", one_iteration)
        data = tmp_path / "data"
        data.mkdir()
        write_idx_dir(data)
        summary = run_experiment(spec_from_dict(mnist_config()), out_dir=tmp_path / "out",
                                 data_dir=data)
        manifest = json.loads(summary.manifest_path.read_text())
        ref = manifest["reference"]["M2"]
        assert ref["method"] == "L-BFGS-B"
        assert ref["iterations"] == 1
        assert ref["converged"] is False
        assert ref["grad_norm"] > 1e-4
        assert len(read_rows(summary.csv_path)) == 2
        assert set(manifest["test_metrics"]) == {"local-mnist-logistic-M2-K2-s0"}

    def test_diverged_runs_write_a_strict_json_manifest(self, tmp_path):
        # local and slowcal end at non-finite points, whose log-probabilities
        # are NaN: no test loss, and no accuracy (the argmax of a NaN row is
        # class 0), both written as null. The minibatch point is finite, with
        # a squared norm that overflows; its cross-entropy is finite
        data = tmp_path / "data"
        data.mkdir()
        write_idx_dir(data)
        spec = spec_from_dict(mnist_config(algorithm=["local", "minibatch", "slowcal"],
                                           lr="fixed:1e300"))
        summary = run_experiment(spec, out_dir=tmp_path / "out", data_dir=data)

        def reject(name):
            raise ValueError(f"manifest holds {name}")
        manifest = json.loads(summary.manifest_path.read_text(), parse_constant=reject)
        metrics = {run_id.split("-")[0]: tm for run_id, tm in manifest["test_metrics"].items()}
        assert len(metrics) == 3
        for name in ("local", "slowcal"):
            assert metrics[name] == {"test_accuracy": None, "test_loss": None}

        problems, _ = runner._mnist_problems(spec, data)
        x = ALGORITHMS["minibatch"](problems[2], RunConfig(K=2, R=2), 1e300).x_output
        assert np.isfinite(x).all()
        with np.errstate(over="ignore"):
            assert not math.isfinite(float(x @ x))
        loss, accuracy = closed_form_test_metrics(data, x)
        assert math.isfinite(loss) and loss > 1e290
        assert metrics["minibatch"] == {"test_accuracy": accuracy, "test_loss": loss}

    def test_data_dir_is_required(self, tmp_path):
        spec = spec_from_dict(mnist_config())
        with pytest.raises(ConfigError, match="no MNIST directory"):
            run_experiment(spec, out_dir=tmp_path)

    def test_missing_idx_file(self, tmp_path):
        data = tmp_path / "data"
        data.mkdir()
        write_idx_dir(data)
        (data / "t10k-images-idx3-ubyte").unlink()
        spec = spec_from_dict(mnist_config())
        with pytest.raises(ConfigError, match="missing t10k-images"):
            run_experiment(spec, out_dir=tmp_path / "out", data_dir=data)

    def test_bad_label_skew_is_a_config_error(self, tmp_path):
        data = tmp_path / "data"
        data.mkdir()
        write_idx_dir(data)
        spec = spec_from_dict(mnist_config(problem={"kind": "mnist-logistic", "label_skew": 0}))
        with pytest.raises(ConfigError, match="alpha"):
            run_experiment(spec, out_dir=tmp_path / "out", data_dir=data)

    @pytest.mark.parametrize("case", MALFORMED_MNIST)
    def test_malformed_data_is_a_config_error_before_any_cell(self, tmp_path, monkeypatch,
                                                              case):
        def run_cell(*args):
            raise AssertionError("a cell ran on malformed data")

        monkeypatch.setattr(runner, "_run_cell", run_cell)
        monkeypatch.delenv("SLOWCAL_LAB_JOBS", raising=False)
        data = tmp_path / "data"
        data.mkdir()
        message = write_malformed_idx_dir(data, case)
        with pytest.raises(ConfigError, match=re.escape(message)):
            run_experiment(spec_from_dict(mnist_config()), out_dir=tmp_path / "out",
                           data_dir=data)

    def test_rejects_other_kinds(self, tmp_path):
        # a data directory names MNIST files; with any other kind it is a mistake
        spec = spec_from_dict(base_config())
        with pytest.raises(ConfigError, match="mnist-logistic"):
            run_experiment(spec, out_dir=tmp_path / "out", data_dir=tmp_path)
        assert not (tmp_path / "out").exists()


class TestShippedConfigs:
    def test_every_bundled_config_parses(self):
        configs = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.json"))
        assert configs, "no bundled configs found"
        for path in configs:
            spec = load_spec(path)
            assert spec.algorithms


# a repeated entry in any sweep list would write one run id twice
REPEATED_ENTRIES = {
    "algorithm": {"algorithm": ["local", "minibatch", "local"]},
    "machines": {"machines": [2, 3, 2]},
    "local_steps": {"local_steps": [2, 2]},
    "seeds": {"seeds": [1, 0, 1]},
    # eight copies of one run id: algorithm, machines and seeds each twice
    "eight-copies": {"algorithm": ["local", "local"], "machines": [2, 2], "seeds": [1, 1]},
}


class TestCli:
    def write_config(self, tmp_path, cfg):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        return str(path)

    def test_run_ok(self, tmp_path, capsys):
        path = self.write_config(tmp_path, base_config())
        code = cli.main(["run", "--config", path, "--out", str(tmp_path / "out")])
        assert code == 0
        out = capsys.readouterr().out
        assert "wrote 4 runs" in out
        assert (tmp_path / "out" / "runs.csv").exists()

    def test_sweep_ok(self, tmp_path):
        path = self.write_config(tmp_path, base_config(machines=[2, 3], rounds=3))
        assert cli.main(["sweep", "--config", path, "--out", str(tmp_path / "out")]) == 0

    def test_config_error_exits_2(self, tmp_path, capsys):
        path = self.write_config(tmp_path, base_config(momentum=0.9))
        assert cli.main(["run", "--config", path, "--out", str(tmp_path / "out")]) == 2
        assert "config error" in capsys.readouterr().err
        assert cli.main(["run", "--config", str(tmp_path / "nope.json")]) == 2
        path = self.write_config(tmp_path, base_config(x0="ones:nan"))
        assert cli.main(["run", "--config", path, "--out", str(tmp_path / "out")]) == 2
        assert "x0" in capsys.readouterr().err
        path = self.write_config(tmp_path, base_config(lr="grid:[0.1, Infinity]"))
        assert cli.main(["run", "--config", path, "--out", str(tmp_path / "out")]) == 2
        assert "grid" in capsys.readouterr().err
        path = self.write_config(tmp_path, base_config(lr="grid:[true, 0.1]"))
        assert cli.main(["run", "--config", path, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "grid" in err and "'lr'" in err

    @pytest.mark.parametrize("overrides,named", [
        # the optimum solve's residual norm overflows
        pytest.param({"problem": {"kind": "quadratic", "dim": 2, "eig_range": [1e-300, 1e300]},
                      "lr": "fixed:0.01"}, "degenerate problem", id="quadratic-residual-overflow"),
        # the step counts t are int64
        pytest.param({"rounds": 2 ** 62}, "'rounds * local_steps'",
                     id="rounds-times-local-steps-past-int64"),
        pytest.param({"rounds": None, "total_steps": 2 ** 63, "local_steps": [1]},
                     "'total_steps'", id="total-steps-past-int64"),
        pytest.param({"local_steps": [2 ** 63]}, "'local_steps'", id="local-steps-past-int64"),
    ])
    def test_past_float_or_int64_range_exits_2(self, tmp_path, capsys, overrides, named):
        path = self.write_config(tmp_path, base_config(**overrides))
        assert cli.main(["run", "--config", path, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and named in err

    @pytest.mark.parametrize("case", sorted(REPEATED_ENTRIES))
    def test_repeated_entry_exits_2(self, tmp_path, case):
        field = "algorithm" if case == "eight-copies" else case
        err = self.assert_exits_2(tmp_path, base_config(**REPEATED_ENTRIES[case]))
        assert f"field '{field}' repeats an entry" in err
        assert not (tmp_path / "out").exists()

    def test_config_that_is_not_utf8_exits_2(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_bytes(b"\xff\xfe\x00{")
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert "config error" in capsys.readouterr().err

    def test_out_of_memory_exits_2(self, tmp_path, capsys, monkeypatch):
        def run_cell(*args):
            raise MemoryError("Unable to allocate 7.28 TiB for an array")

        monkeypatch.setattr(runner, "_run_cell", run_cell)
        monkeypatch.delenv("SLOWCAL_LAB_JOBS", raising=False)
        path = self.write_config(tmp_path, base_config())
        assert cli.main(["run", "--config", path, "--out", str(tmp_path / "out")]) == 2
        assert "config error: out of memory: Unable to allocate" in capsys.readouterr().err

    @pytest.mark.parametrize("overrides", [
        # the round records: R x lanes x 5 floats
        pytest.param({"rounds": 2 ** 62, "local_steps": [1]}, id="record-array"),
        # one round's noise rows (sigma > 0: a noise-free quadratic draws nothing)
        pytest.param({"rounds": 1, "local_steps": [2 ** 62]}, id="normal-rows"),
        # one round's example picks
        pytest.param({"problem": {"kind": "synth-logistic", "dim": 4, "num_classes": 2,
                                  "n_per_machine": 8, "problem_seed": 1},
                      "rounds": 1, "local_steps": [2 ** 62]}, id="index-rows"),
    ])
    def test_array_numpy_cannot_size_exits_2(self, tmp_path, capsys, monkeypatch, overrides):
        monkeypatch.delenv("SLOWCAL_LAB_JOBS", raising=False)
        path = self.write_config(tmp_path, base_config(**overrides))
        assert cli.main(["run", "--config", path, "--out", str(tmp_path / "out")]) == 2
        assert "config error: out of memory" in capsys.readouterr().err

    def test_divergence_exits_1(self, tmp_path, capsys):
        cfg = base_config(algorithm=["local"], lr="fixed:10", seeds=[0], x0="ones:3")
        path = self.write_config(tmp_path, cfg)
        assert cli.main(["run", "--config", path, "--out", str(tmp_path / "out")]) == 1
        assert "diverged" in capsys.readouterr().err

    def test_all_diverged_grid_exits_1(self, tmp_path, capsys):
        cfg = base_config(algorithm=["local"], lr="grid:[1000000.0]",
                          seeds=[0], x0="ones:3")
        path = self.write_config(tmp_path, cfg)
        assert cli.main(["run", "--config", path, "--out", str(tmp_path / "out")]) == 1
        assert "divergence" in capsys.readouterr().err

    @pytest.mark.parametrize("problem,cap", [
        pytest.param({"kind": "synth-logistic", "dim": 4, "num_classes": 3, "problem_seed": 1},
                     "_OPTIMUM_MAX_ITERS", id="logistic-optimum"),
    ])
    def test_unconverged_oracle_exits_2(self, tmp_path, capsys, monkeypatch, problem, cap):
        # an oracle that exhausts its iteration cap is a degenerate problem,
        # not a crash
        monkeypatch.setattr(objectives, cap, 3)
        path = self.write_config(tmp_path, base_config(problem=problem))
        assert cli.main(["run", "--config", path, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "config error: degenerate problem" in err
        assert "did not" in err
        assert "Traceback" not in err

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="the counting wrapper reaches pool workers only when they are forked")
    def test_failed_pool_cell_cancels_cells_not_started(self, tmp_path, monkeypatch):
        # the first of 12 cells fails at once and each other cell takes a
        # while; the error must not wait for the cells that had not started,
        # and no more than `jobs` cells are ever in flight
        log = tmp_path / "started.txt"
        real_run_cell = runner._run_cell

        def run_cell(spec, problem, algorithm, m, k):
            with log.open("a") as handle:
                handle.write(f"{algorithm}-M{m}-K{k}\n")
            if k == 1:
                raise RuntimeError("cell failed")
            time.sleep(0.5)
            return real_run_cell(spec, problem, algorithm, m, k)

        # pool workers are forked, so they inherit the patched name
        monkeypatch.setattr(runner, "_run_cell", run_cell)
        jobs = 2
        monkeypatch.setenv("SLOWCAL_LAB_JOBS", str(jobs))
        cfg = base_config(algorithm=["local"], local_steps=list(range(1, 13)), seeds=[0])
        with pytest.raises(RuntimeError, match="cell failed"):
            run_experiment(spec_from_dict(cfg), out_dir=tmp_path / "out")
        started = log.read_text().splitlines()
        assert "local-M2-K1" in started
        assert len(started) <= 2 * jobs

    def test_all_diverged_grid_exits_1_on_the_pool(self, tmp_path, capsys, monkeypatch):
        cfg = base_config(algorithm=["local", "minibatch"], lr="grid:[1000000.0]",
                          seeds=[0], x0="ones:3")
        path = self.write_config(tmp_path, cfg)
        monkeypatch.setenv("SLOWCAL_LAB_JOBS", "2")
        assert cli.main(["run", "--config", path, "--out", str(tmp_path / "out")]) == 1
        assert "divergence" in capsys.readouterr().err

    @pytest.mark.parametrize("problem", [
        pytest.param({"kind": "quadratic", "dim": 0}, id="quadratic-dim0"),
        pytest.param({"kind": "quadratic", "dim": -3}, id="quadratic-dim-3"),
        pytest.param({"kind": "quadratic", "dim": 3, "sigma": -1}, id="quadratic-sigma"),
        pytest.param({"kind": "quadratic", "dim": 3, "eig_range": [2, 1]},
                     id="quadratic-eig_range-reversed"),
        pytest.param({"kind": "quadratic", "dim": 3, "eig_range": [0, 1]},
                     id="quadratic-eig_range-zero"),
        pytest.param({"kind": "quadratic", "dim": 3, "target_gstar": -1},
                     id="quadratic-target_gstar"),
        pytest.param({"kind": "synth-logistic", "dim": 6, "num_classes": 1},
                     id="logistic-num_classes"),
        pytest.param({"kind": "synth-logistic", "dim": 6, "n_per_machine": 0},
                     id="logistic-n_per_machine"),
        pytest.param({"kind": "synth-logistic", "dim": 6, "label_skew": 0},
                     id="logistic-label_skew"),
        pytest.param({"kind": "synth-logistic", "dim": 6, "l2": -1}, id="logistic-l2"),
        pytest.param({"kind": "synth-logistic", "dim": 1, "num_classes": 4},
                     id="logistic-dim-too-small"),
        # numbers out of float range: 1e400 reaches the config as Infinity
        pytest.param({"kind": "quadratic", "dim": 3, "eig_range": [0.5, 1e400]},
                     id="quadratic-eig_range-inf"),
        pytest.param({"kind": "quadratic", "dim": 3, "sigma": 10 ** 400},
                     id="quadratic-sigma-int-overflow"),
        pytest.param({"kind": "synth-logistic", "dim": 6, "l2": 1e300},
                     id="logistic-l2-overflow"),
        pytest.param({"kind": "synth-logistic", "dim": 6, "spread": 1e200},
                     id="logistic-spread-overflow"),
        # 1e308 times a normal draw past 1.8 is a non-finite center
        pytest.param({"kind": "quadratic", "dim": 5, "center_spread": 1e308},
                     id="quadratic-center_spread-overflow"),
        pytest.param({"kind": "quadratic", "dim": 5, "center_spread": -1e308},
                     id="quadratic-center_spread-overflow-negative"),
        # G* squares gradients near 1e300 (seed 3: the optimum solve still passes)
        pytest.param({"kind": "quadratic", "dim": 2, "eig_range": [1e300, 1e300],
                      "problem_seed": 3}, id="quadratic-gstar-overflow-dim2"),
        pytest.param({"kind": "quadratic", "dim": 3, "eig_range": [1e300, 1e300],
                      "problem_seed": 3}, id="quadratic-gstar-overflow-dim3"),
        # finite features so large that gradient descent stalls far above its tolerance
        pytest.param({"kind": "synth-logistic", "dim": 6, "spread": 1e10},
                     id="logistic-spread-stall"),
        pytest.param({"kind": "synth-logistic", "dim": 0}, id="logistic-dim0"),
        pytest.param({"kind": "quadratic", "dim": 3, "problem_seed": -1},
                     id="quadratic-problem_seed"),
        pytest.param({"kind": "synth-logistic", "dim": 6, "problem_seed": -1},
                     id="logistic-problem_seed"),
    ])
    def test_invalid_problem_field_exits_2(self, tmp_path, problem):
        err = self.assert_exits_2(tmp_path, base_config(problem=problem))
        # named as a field, not as a numpy error
        if problem["dim"] < 1:
            assert "'problem.dim'" in err
        if problem.get("problem_seed", 0) < 0:
            assert "'problem.problem_seed'" in err

    @pytest.mark.parametrize("overrides", [
        pytest.param({"schedule": "poly:nan"}, id="schedule-nan"),
        pytest.param({"schedule": "poly:inf"}, id="schedule-inf"),
        # (10 + 1) ** 400 overflows at the last of the 5 x 2 steps
        pytest.param({"schedule": "poly:400"}, id="schedule-weight-overflow"),
        pytest.param({"problem": {"kind": "quadratic", "dim": 3, "sigma": 1e400},
                      "lr": "theory"}, id="theory-sigma-inf"),
        # centers at 0 put the optimum at the start, so b0 = 0 and the noise cap is 0
        pytest.param({"problem": {"kind": "quadratic", "dim": 3, "sigma": 0.3, "target_gstar": 0},
                      "lr": "theory"}, id="theory-degenerate-step"),
    ])
    def test_out_of_range_config_exits_2(self, tmp_path, overrides):
        self.assert_exits_2(tmp_path, base_config(**overrides))

    def test_negative_start_norm_exits_2(self, tmp_path):
        # the norm of "ones:<norm>" is a Euclidean norm, never negative
        assert "'x0'" in self.assert_exits_2(tmp_path, base_config(x0="ones:-3"))

    def test_impossible_machine_count_exits_2_at_once(self, tmp_path):
        # the (M, d, d) curvature stack is sized before any per-machine QR runs
        cfg = base_config(problem={"kind": "quadratic", "dim": 2}, machines=[2 ** 40])
        assert "out of memory" in self.assert_exits_2(tmp_path, cfg, timeout=30)

    @pytest.mark.parametrize("cfg,code,named", [
        # features past float range are a named problem field
        pytest.param(base_config(problem={**SMALL_LOGISTIC, "spread": 1e308}), 2,
                     "spread 1e+308", id="logistic-spread-1e308"),
        # the noise sigma's second moments overflow
        pytest.param(base_config(problem={**SMALL_LOGISTIC, "l2": 1e308}), 2,
                     "sigma", id="logistic-l2-1e308"),
        # the curvature fill overflows before the matrices are checked
        pytest.param(base_config(problem={"kind": "quadratic", "dim": 3,
                                          "eig_range": [1e308, 1e308]}), 2,
                     "config error: problem: curvatures must be finite",
                     id="quadratic-eig_range-1e308"),
        # the Dirichlet shares' Gamma draws sum past float range
        pytest.param(base_config(problem={**SMALL_LOGISTIC, "label_skew": 1e308}), 2,
                     "config error: problem: label skew 1e+308", id="logistic-label_skew-1e308"),
        # starts past float range: b0 and the start value overflow, the runs diverge
        pytest.param(base_config(x0="ones:1e308"), 1, "diverged", id="quadratic-x0-1e308"),
        pytest.param(base_config(problem=SMALL_LOGISTIC, x0="w_star+ones:1e308"), 1,
                     "diverged", id="logistic-x0-w_star+1e308"),
    ])
    def test_values_past_float_range_raise_no_warning(self, tmp_path, capsys, cfg, code, named):
        path = self.write_config(tmp_path, cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["run", "--config", path, "--out", str(tmp_path / "out")]) == code
        assert named in capsys.readouterr().err

    def test_manifest_is_strict_json_when_b0_overflows(self, tmp_path):
        path = self.write_config(tmp_path, base_config(problem=SMALL_LOGISTIC,
                                                       x0="w_star+ones:1e308"))
        assert cli.main(["run", "--config", path, "--out", str(tmp_path / "out")]) == 1

        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text(),
                              parse_constant=reject)
        assert manifest["problem_metadata"]["M2"]["b0"] is None
        assert math.isfinite(manifest["problem_metadata"]["M2"]["f_star"])

    def assert_exits_2(self, tmp_path, cfg, timeout=120):
        # through a real process, so an uncaught exception would show as a
        # traceback and an escaped numpy warning as a printed one
        path = self.write_config(tmp_path, cfg)
        src = str(Path(cli.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run(
            [sys.executable, "-m", "slowcal_lab.cli", "run", "--config", path,
             "--out", str(tmp_path / "out")],
            capture_output=True, text=True, env=env, timeout=timeout)
        assert done.returncode == 2, done.stderr
        assert "config error" in done.stderr
        assert "Traceback" not in done.stderr
        assert "Warning" not in done.stderr
        return done.stderr

    @pytest.mark.parametrize("command", ["run", "mnist"])
    def test_mnist_config_runs_with_data(self, tmp_path, command):
        data = tmp_path / "data"
        data.mkdir()
        write_idx_dir(data)
        path = self.write_config(tmp_path, mnist_config())
        out = tmp_path / "out"
        assert cli.main([command, "--config", path, "--data", str(data), "--out", str(out)]) == 0
        assert set(json.loads((out / "manifest.json").read_text())) == MNIST_MANIFEST_KEYS

    def test_data_with_a_synthetic_config_exits_2(self, tmp_path, capsys):
        path = self.write_config(tmp_path, base_config())
        code = cli.main(["run", "--config", path, "--data", str(tmp_path),
                         "--out", str(tmp_path / "out")])
        assert code == 2
        assert "mnist-logistic" in capsys.readouterr().err

    @pytest.mark.parametrize("case", MALFORMED_MNIST)
    def test_malformed_mnist_data_exits_2(self, tmp_path, case):
        data = tmp_path / "data"
        data.mkdir()
        message = write_malformed_idx_dir(data, case)
        cfg = mnist_config()
        cfg["problem"] = dict(cfg["problem"], data_dir=str(data))
        assert message in self.assert_exits_2(tmp_path, cfg)

    def test_mnist_without_data_exits_2(self, tmp_path):
        path = self.write_config(tmp_path, mnist_config())
        assert cli.main(["mnist", "--config", path, "--out", str(tmp_path / "out")]) == 2

    def test_verify_exits_0(self, capsys):
        assert cli.main(["verify"]) == 0
        out = capsys.readouterr().out
        assert "all checks passed" in out
        assert "PASS" in out
