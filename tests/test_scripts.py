"""The experiment scripts, run end to end on tiny configs."""
import importlib.util
import json
from pathlib import Path

import numpy as np

from slowcal_lab import (
    ALGORITHMS,
    RunConfig,
    build_problem,
    excess_loss,
    parse_schedule,
    spec_from_dict,
)

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


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
                cfg = RunConfig(M=m, K=3, R=6, eta=eta, schedule=parse_schedule(spec.schedule),
                                seed=seed, x0=x0)
                traj = ALGORITHMS[name](problem, cfg)
                replayed[f"{name}-quadratic-M{m}-K3-s{seed}"] = excess_loss(problem, traj.x_output)
    # bitwise, after the JSON round trip
    assert manifest["output_excess"] == replayed
