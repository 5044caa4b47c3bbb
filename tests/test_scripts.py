"""The experiment scripts, run end to end on tiny configs."""
import csv
import importlib.util
import json
import math
from pathlib import Path

import numpy as np

from slowcal_lab import (
    ALGORITHMS,
    RunConfig,
    build_problem,
    excess_loss,
    grid_search,
    parse_schedule,
    spec_from_dict,
)

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
    assert load_script("speedup_experiment").main(["--config", str(config),
                                                   "--out", str(out)]) == 0
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
                cfg = RunConfig(K=3, R=6, eta=eta, schedule=parse_schedule(spec.schedule),
                                seed=seed, x0=x0)
                traj = ALGORITHMS[name](problem, cfg)
                replayed[f"{name}-quadratic-M{m}-K3-s{seed}"] = excess_loss(problem, traj.x_output)
    # bitwise, after the JSON round trip
    assert manifest["output_excess"] == replayed


def test_readme_library_example_runs(capsys):
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library use", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    printed = capsys.readouterr().out.split()
    assert len(printed) == 2 and all(math.isfinite(float(v)) for v in printed)


def test_ordering_script_writes_the_grid_search_tables(tmp_path, capsys):
    script = load_script("ordering_experiment")
    results = {}

    def recording(problem, name, grid, cfg, seeds):
        results[name] = grid_search(problem, name, grid, cfg, seeds)
        return results[name]

    script.grid_search = recording
    out = tmp_path / "out"
    assert script.main(["--machines", "2", "--local-steps", "2", "--rounds", "4",
                        "--seeds", "2", "--out", str(out)]) == 0
    assert "dispersion ratio" in capsys.readouterr().out

    with (out / "ordering_scores.csv").open(newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 3 * 7 * 2
    assert sorted(results) == sorted(script.METHODS)
    for name, result in results.items():
        mine = [row for row in rows if row["algorithm"] == name]
        tuned = {float(row["eta"]) for row in mine if row["tuned"] == "true"}
        assert tuned == {result.eta}
        assert sum(row["tuned"] == "true" for row in mine) == 2  # one row per seed
        # bitwise, after the CSV round trip
        table: dict[float, list[float]] = {}
        for row in mine:
            assert int(row["seed"]) == len(table.setdefault(float(row["eta"]), []))
            table[float(row["eta"])].append(float(row["final_excess"]))
        assert table == result.table
