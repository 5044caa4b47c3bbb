"""The experiment scripts, run end to end on tiny configs."""
import csv
import json
import math
from pathlib import Path

import numpy as np

from slowcal_lab import (
    ALGORITHMS,
    RunConfig,
    build_problem,
    excess_loss,
    parse_schedule,
    run_experiment,
    spec_from_dict,
)
from slowcal_lab.tuning import mean_score

import ordering_experiment  # scripts/, on pytest's pythonpath
import speedup_experiment

ROOT = Path(__file__).resolve().parent.parent


TINY_SPEEDUP = {
    "name": "speedup-tiny",
    "problem": {"kind": "quadratic", "dim": 4, "curvature": "per-machine",
                "eig_range": [0.2, 0.8], "center_spread": 0.0, "sigma": 2.0,
                "problem_seed": 1},
    "algorithm": ["minibatch", "slowcal"],
    "machines": [2, 4],
    "local_steps": [3],
    "rounds": 6,
    "x0": "ones:4",
    "lr": "grid:[0.01, 0.1, 1.0]",
    "seeds": [0, 1, 2],
}


def test_speedup_script_reads_output_excess_equal_to_a_replay(tmp_path, capsys):
    config = tmp_path / "speedup.json"
    config.write_text(json.dumps(TINY_SPEEDUP))
    out = tmp_path / "out"
    assert speedup_experiment.main(["--config", str(config), "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "minibatch" in printed and "slowcal" in printed

    manifest = json.loads((out / "manifest.json").read_text())
    spec = spec_from_dict(TINY_SPEEDUP)
    x0 = 2.0 * np.ones(4)  # "ones:4" in dim 4
    replayed = {}
    for m in (2, 4):
        problem = build_problem(spec.problem, m)
        for name in ("minibatch", "slowcal"):
            eta = manifest["resolved_lr"][f"{name}-M{m}-K3"]
            for seed in (0, 1, 2):
                cfg = RunConfig(K=3, R=6, schedule=parse_schedule(spec.schedule), x0=x0)
                traj = ALGORITHMS[name](problem, cfg, eta, seed=seed)
                replayed[f"{name}-quadratic-M{m}-K3-s{seed}"] = excess_loss(problem, traj.x_output)
    # bitwise, after the JSON round trip
    assert manifest["output_excess"] == replayed


def test_tuned_output_means_are_the_tuning_tables_means(tmp_path):
    # ten seeds: numpy's pairwise np.mean sums them in another order than the
    # tuner's sum/len, and on this problem the two differ in the last bit
    config = dict(TINY_SPEEDUP, problem=dict(TINY_SPEEDUP["problem"], problem_seed=3),
                  seeds=list(range(10)))
    spec = spec_from_dict(config)
    summary = run_experiment(spec, out_dir=tmp_path)
    manifest = json.loads(summary.manifest_path.read_text())
    means = speedup_experiment.tuned_output_means(spec, manifest["output_excess"])
    assert len(means) == 4
    for (name, m, k), mean in means.items():
        cell = f"{name}-M{m}-K{k}"
        table = {entry["eta"]: entry["mean"] for entry in manifest["tuning"][cell]}
        assert mean == table[manifest["resolved_lr"][cell]], cell


def test_readme_library_example_runs(capsys):
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library use", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    printed = capsys.readouterr().out.split()
    assert len(printed) == 2 and all(math.isfinite(float(v)) for v in printed)


TINY_ORDERING = {
    "name": "ordering-tiny",
    "problem": {"kind": "quadratic", "dim": 4, "eig_range": [0.05, 0.2], "sigma": 1.0,
                "target_gstar": 2.0, "problem_seed": 0},
    "algorithm": ["slowcal", "local", "minibatch"],
    "machines": [2],
    "local_steps": [2],
    "rounds": 8,
    "x0": "w_star+ones:3",
    "lr": "grid:[0.01, 0.1, 1.0]",
    "seeds": [0, 1],
}


def test_ordering_script_prints_what_its_outputs_hold(tmp_path, capsys):
    config = tmp_path / "ordering.json"
    config.write_text(json.dumps(TINY_ORDERING))
    out = tmp_path / "out"
    assert ordering_experiment.main(["--config", str(config), "--out", str(out)]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert sorted(path.name for path in out.iterdir()) == ["manifest.json", "runs.csv"]

    # the same quantities, read back from the outputs without the script
    manifest = json.loads((out / "manifest.json").read_text())
    with (out / "runs.csv").open(newline="") as handle:
        rows = list(csv.DictReader(handle))
    quarters: dict = {}  # rounds 6 and 7, the final quarter of R = 8
    for row in rows:
        if int(row["round"]) >= 6:
            quarters.setdefault(row["run_id"], []).append(float(row["dispersion_q"]))
    expected = ["grid-tuning on eta in [1e-02, 1e+00] (3 points, 2 seeds)"]
    dispersion = {}
    for name in TINY_ORDERING["algorithm"]:
        runs = [f"{name}-quadratic-M2-K2-s{seed}" for seed in (0, 1)]
        eta = manifest["resolved_lr"][f"{name}-M2-K2"]
        excess = mean_score([manifest["output_excess"][run_id] for run_id in runs])
        expected.append(f"  {name:<10} eta={eta:<10.4g} mean final excess = {excess:.4g}")
        dispersion[(name, 2, 2)] = mean_score([np.mean(quarters[run_id]) for run_id in runs])
    for name in ("slowcal", "local"):
        expected.append(f"  {name:<10} final-quarter query dispersion = "
                        f"{dispersion[(name, 2, 2)]:.4g}")
    ratio = dispersion[("local", 2, 2)] / dispersion[("slowcal", 2, 2)]
    expected.append(f"dispersion ratio local/slowcal = {ratio:.1f}x")
    assert printed[1:] == expected
    # bitwise, after the CSV round trip
    spec = spec_from_dict(TINY_ORDERING)
    assert ordering_experiment.final_quarter_dispersion(spec, out / "runs.csv") == dispersion
