"""Step-size selection: the worst-case formula, grid search, and the
round-complexity floors."""
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slowcal_lab import tuning
from slowcal_lab.algorithms import ALGORITHMS, RunConfig
from slowcal_lab.metrics import excess_loss
from slowcal_lab.objectives import QuadraticEnsemble, heterogeneous_quadratic
from slowcal_lab.tuning import GridSearchError, LrInputs, grid_search, rmin, theoretical_lr
from slowcal_lab.weights import parse_schedule

from lane_cases import lane_problems


class TestTheoreticalLr:
    def test_all_ones_worked_example(self):
        # T = 40; the five caps are 1/1968, 1/160, ~1/1909, 1/253^ish, 1/226^ish;
        # the first cap binds
        inp = LrInputs(smoothness=1.0, sigma=1.0, gstar=1.0, b0=1.0, M=4, K=4, R=10)
        assert theoretical_lr(inp) == pytest.approx(1.0 / 1968.0, rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        big_l=st.floats(0.01, 100.0),
        sigma=st.floats(0.0, 10.0),
        gstar=st.floats(0.0, 10.0),
        b0=st.floats(0.1, 50.0),
        m=st.integers(1, 64),
        k=st.integers(1, 64),
        r=st.integers(1, 200),
    )
    def test_result_respects_every_active_cap(self, big_l, sigma, gstar, b0, m, k, r):
        eta = theoretical_lr(LrInputs(big_l, sigma, gstar, b0, m, k, r))
        total = k * r
        assert eta > 0
        assert eta <= 1.0 / (48.0 * big_l * (total + 1)) + 1e-18
        assert eta <= 1.0 / (10.0 * big_l * k ** 2) + 1e-18
        assert eta <= 1.0 / (40.0 * big_l * k * (total + 1) ** (2.0 / 3.0)) + 1e-18
        if sigma > 0:
            assert eta <= b0 * math.sqrt(m) / (sigma * total ** 1.5) + 1e-18
        root = math.sqrt(sigma) + math.sqrt(gstar)
        if root > 0:
            assert eta <= math.sqrt(b0) / (math.sqrt(big_l) * k ** 1.75 * r * root) + 1e-18

    def test_noise_free_caps_drop_out(self):
        # sigma = gstar = 0 leaves only the three smoothness caps
        inp = LrInputs(smoothness=2.0, sigma=0.0, gstar=0.0, b0=1.0, M=4, K=4, R=10)
        total = 40
        want = min(
            1.0 / (48.0 * 2.0 * (total + 1)),
            1.0 / (10.0 * 2.0 * 16),
            1.0 / (40.0 * 2.0 * 4 * (total + 1) ** (2.0 / 3.0)),
        )
        assert theoretical_lr(inp) == pytest.approx(want, rel=1e-12)

    def test_zero_b0_with_noise_is_degenerate(self):
        inp = LrInputs(smoothness=1.0, sigma=1.0, gstar=0.0, b0=0.0, M=4, K=4, R=10)
        with pytest.raises(ValueError, match="degenerate"):
            theoretical_lr(inp)

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            theoretical_lr(LrInputs(0.0, 1.0, 1.0, 1.0, 1, 1, 1))
        with pytest.raises(ValueError):
            theoretical_lr(LrInputs(1.0, -1.0, 1.0, 1.0, 1, 1, 1))
        with pytest.raises(ValueError):
            theoretical_lr(LrInputs(1.0, 1.0, 1.0, 1.0, 0, 1, 1))
        # a NaN compares false with every bound, so a sign check alone lets
        # it through to a finite step
        for field in ("smoothness", "sigma", "gstar", "b0"):
            for value in (math.nan, math.inf):
                inp = replace(LrInputs(1.0, 1.0, 1.0, 1.0, 4, 4, 10), **{field: value})
                with pytest.raises(ValueError, match="finite"):
                    theoretical_lr(inp)


class TestGridSearch:
    def test_singleton_grid_returns_that_step(self):
        prob = heterogeneous_quadratic(2, 3, seed=1)
        cfg = RunConfig(K=2, R=3, eta=1.0)
        result = grid_search(prob, "local", [0.05], cfg, seeds=[0])
        assert result.eta == 0.05
        assert set(result.table) == {0.05}
        assert len(result.runs) == 1

    def test_two_methods_pick_opposite_ends_of_the_same_grid(self):
        # few-round regime: the one-step-per-round method needs the large
        # step, the drift-corrected method prefers the small one
        prob = heterogeneous_quadratic(4, 6, sigma=0.5, center_spread=1.0, seed=3)
        cfg = RunConfig(K=4, R=10, eta=1.0)
        assert grid_search(prob, "minibatch", [0.01, 0.1], cfg, seeds=[0, 1]).eta == 0.1
        assert grid_search(prob, "slowcal", [0.01, 0.1], cfg, seeds=[0, 1]).eta == 0.01

    def test_score_table_has_one_entry_per_seed(self):
        prob = heterogeneous_quadratic(2, 3, sigma=0.4, seed=2)
        cfg = RunConfig(K=2, R=3, eta=1.0)
        result = grid_search(prob, "slowcal", [0.01, 0.02], cfg, seeds=[0, 1, 2])
        assert all(len(scores) == 3 for scores in result.table.values())
        assert len(result.runs) == 3

    def test_ties_break_toward_the_smaller_step(self, monkeypatch):
        # every run scores the same, so every candidate ties
        monkeypatch.setattr(tuning, "excess_loss", lambda problem, x: 1.0)
        prob = heterogeneous_quadratic(2, 3, seed=4)
        cfg = RunConfig(K=2, R=2, eta=1.0)
        result = grid_search(prob, "local", [0.2, 0.01, 0.05], cfg, seeds=[0])
        assert result.table == {0.01: [1.0], 0.05: [1.0], 0.2: [1.0]}
        assert result.eta == 0.01

    def test_diverged_candidates_are_skipped(self):
        prob = QuadraticEnsemble(np.array([[[1.0]]]), np.zeros((1, 1)))
        cfg = RunConfig(K=1, R=15, eta=1.0, x0=np.array([1.0]))
        result = grid_search(prob, "minibatch", [0.1, 1e6], cfg, seeds=[0])
        assert result.eta == 0.1
        assert result.table[1e6] == [math.inf]

    def test_all_diverged_raises_naming_the_grid(self):
        prob = QuadraticEnsemble(np.array([[[1.0]]]), np.zeros((1, 1)))
        cfg = RunConfig(K=1, R=15, eta=1.0, x0=np.array([1.0]))
        with pytest.raises(GridSearchError, match="1000000"):
            grid_search(prob, "minibatch", [1e6, 1e7], cfg, seeds=[0])

    def test_empty_grid_rejected(self):
        prob = heterogeneous_quadratic(2, 3, seed=4)
        with pytest.raises(ValueError, match="empty"):
            grid_search(prob, "local", [], RunConfig(K=1, R=1, eta=1.0), seeds=[0])

    def test_unknown_algorithm_rejected(self):
        prob = heterogeneous_quadratic(2, 3, seed=4)
        with pytest.raises(ValueError, match="unknown algorithm"):
            grid_search(prob, "sgd", [0.1], RunConfig(K=1, R=1, eta=1.0), seeds=[0])

    def test_no_seeds_rejected(self):
        prob = heterogeneous_quadratic(2, 3, seed=4)
        with pytest.raises(ValueError, match="seed"):
            grid_search(prob, "local", [0.1], RunConfig(K=1, R=1, eta=1.0), seeds=[])


class TestRoundFloors:
    def test_frozen_values_at_m4_k16(self):
        assert rmin("minibatch", 4, 16) == 64.0
        assert rmin("accelerated-minibatch", 4, 16) == pytest.approx(4.0, rel=1e-12)
        assert rmin("local", 4, 16, g=0.0) == 1024.0
        assert rmin("slowcal", 4, 16, g=0.0) == 16.0

    def test_dissimilarity_raises_the_local_floor_fast(self):
        assert rmin("local", 4, 16, g=1.0) == pytest.approx(64.0 ** 3 + 1024.0, rel=1e-12)
        assert rmin("slowcal", 4, 16, g=1.0) == 32.0

    def test_communication_reduction_window(self):
        # the drift-corrected floor sits below minibatch's whenever K > 4
        for m in (2, 8, 64):
            for k in (16, 64, 256):
                assert rmin("slowcal", m, k, g=0.0) < rmin("minibatch", m, k)

    def test_validation_errors(self):
        with pytest.raises(ValueError, match="unknown method"):
            rmin("sgd", 4, 16)
        with pytest.raises(ValueError):
            rmin("minibatch", 0, 16)
        with pytest.raises(ValueError):
            rmin("local", 4, 16, g=-1.0)


@pytest.mark.parametrize("schedule", ["linear", "uniform", "poly:1.5"])
@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_grid_search_equals_one_run_per_candidate(algorithm, schedule):
    """Lanes share draws, but the table and the winner are those of calling
    each runner once per (candidate, seed), diverging candidates included,
    and the winner's runs are bitwise its own runs."""
    prob = heterogeneous_quadratic(3, 4, sigma=0.5, seed=5)
    cfg = RunConfig(K=3, R=6, eta=1.0, schedule=parse_schedule(schedule), x0=np.ones(4))
    grid, seeds = [50.0, 0.001, 0.01, 0.1], [0, 1, 2]
    result = grid_search(prob, algorithm, grid, cfg, seeds)

    want, runs = {}, {}
    for eta in sorted(grid):
        scores = []
        for seed in seeds:
            traj = ALGORITHMS[algorithm](prob, replace(cfg, eta=eta, seed=seed))
            value = math.inf if traj.diverged else excess_loss(prob, traj.x_output)
            scores.append(value if math.isfinite(value) else math.inf)
            runs.setdefault(eta, []).append(traj)
        want[eta] = scores
    assert result.table == want
    best = min(sorted(want), key=lambda eta: sum(want[eta]) / len(want[eta]))
    assert result.eta == best
    assert result.table[50.0] == [math.inf] * 3
    assert len(result.runs) == len(seeds)
    for run, own, seed in zip(result.runs, runs[best], seeds):
        assert (run.algorithm, run.eta, run.seed) == (algorithm, best, seed)
        assert run.values.tobytes() == own.values.tobytes()
        assert run.round_diverged.tolist() == own.round_diverged.tolist()
        assert run.x_output.tobytes() == own.x_output.tobytes()
        assert run.anchor_w is None and run.steps is None
        assert run.wall_ms > 0


@pytest.mark.parametrize("case", range(3))
@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_one_call_grid_search_equals_one_run_per_seed_and_step(algorithm, case):
    """The whole grid is one engine call over (seed, candidate) lanes. On
    unsorted, repeated seeds, the noisy quadratic and both softmax ensembles,
    its table, winner and the winner's runs are those of one call per (seed,
    candidate); the diverging candidate is dropped, and the winner's runs
    keep no anchors."""
    prob = lane_problems(3, 4, seed=7)[case]
    cfg = RunConfig(K=2, R=5, eta=1.0, x0=np.ones(4))
    grid, seeds = [1e3, 0.1, 0.001, 0.01], [3, 1, 1]
    result = grid_search(prob, algorithm, grid, cfg, seeds)
    assert all(run.anchor_w is None and run.anchor_x is None for run in result.runs)

    want, own = {}, {}
    for eta in sorted(grid):
        for seed in seeds:
            traj = ALGORITHMS[algorithm](prob, replace(cfg, eta=eta, seed=seed))
            value = math.inf if traj.diverged else excess_loss(prob, traj.x_output)
            want.setdefault(eta, []).append(value if math.isfinite(value) else math.inf)
            own.setdefault(eta, []).append(traj)
    assert result.table == want
    assert result.table[1e3] == [math.inf] * 3
    assert result.eta == min(sorted(want), key=lambda eta: sum(want[eta]) / len(want[eta]))
    assert len(result.runs) == len(seeds)
    for run, mine in zip(result.runs, own[result.eta]):
        assert run.values.tobytes() == mine.values.tobytes()
        assert run.t.tolist() == mine.t.tolist()
        assert run.round_diverged.tolist() == mine.round_diverged.tolist()
        assert run.x_output.tobytes() == mine.x_output.tobytes()
