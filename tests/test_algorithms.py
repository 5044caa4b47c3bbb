"""Optimizer loops: hand-traced updates, exact reductions between methods,
output conventions, divergence handling, and determinism."""
import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from slowcal_lab import algorithms, metrics
from slowcal_lab.algorithms import (ALGORITHMS, METHODS, ROUND_COLUMNS, RunConfig,
                                    _ascending_mean, run_lanes)
from slowcal_lab.metrics import excess_loss
from slowcal_lab.objectives import LogisticEnsemble, QuadraticEnsemble, heterogeneous_quadratic
from slowcal_lab.tuning import grid_search
from slowcal_lab.weights import (LINEAR, UNIFORM, WeightSchedule, averaging_coeff, prefix_weight,
                                 weight_at)

from lane_cases import LANE_SHAPES, lane_problems


def scalar_problem(center=1.0, curvature=1.0, sigma=0.0):
    """One machine, f(x) = 0.5 * curvature * (x - center)^2."""
    return QuadraticEnsemble(
        np.array([[[curvature]]]), np.array([[center]]), sigma
    )


def symmetric_pair(sigma=0.0):
    """Two machines with mirrored centers; the global optimum is 0."""
    return QuadraticEnsemble(
        np.array([[[1.0]], [[1.0]]]), np.array([[1.0], [-1.0]]), sigma
    )


class TestHandTraces:
    """Round-end iterates are read from the step records at t = rK: with one
    state (minibatch, anytime), one machine or mirrored machines, each is
    bitwise the round's anchor."""

    def test_slowcal_single_machine_uniform_two_steps(self):
        # f = 0.5 (x-1)^2, eta=0.1, uniform weights, from 0:
        #   t=0: g=-1,    w: 0 -> 0.1,    gamma=1/2, x: 0 -> 0.05
        #   t=1: g=-0.95, w: 0.1 -> 0.195, gamma=1/3, x -> (2/3)0.05 + (1/3)0.195
        prob = scalar_problem()
        traj = ALGORITHMS["slowcal"](prob, RunConfig(K=2, R=1, schedule=UNIFORM,
                                                     record_diagnostics=True), 0.1)
        assert traj.steps[2].w_mean[0] == pytest.approx(0.195, rel=1e-15)
        assert traj.steps[2].x_mean[0] == pytest.approx(59.0 / 600.0, rel=1e-15)
        assert traj.x_output[0] == traj.steps[2].x_mean[0]

    def test_slowcal_mirrored_machines_cancel_exactly(self):
        # mirrored centers drive exactly mirrored slots; the ascending mean
        # at every boundary is exactly 0.0, not just close
        prob = symmetric_pair()
        traj = ALGORITHMS["slowcal"](prob, RunConfig(K=3, R=2, schedule=LINEAR,
                                                     record_diagnostics=True), 0.1)
        boundaries = traj.steps[3::3]
        assert [rec.t for rec in boundaries] == [3, 6]
        assert all((rec.w_mean == 0.0).all() and (rec.x_mean == 0.0).all() for rec in boundaries)
        assert traj.x_output[0] == 0.0

    def test_local_single_machine_two_steps(self):
        # x: 0 -> 0.1 -> 0.1 + 0.1*0.9 = 0.19; plain local outputs the anchor
        prob = scalar_problem()
        traj = ALGORITHMS["local"](prob, RunConfig(K=2, R=1, record_diagnostics=True), 0.1)
        assert traj.steps[2].x_mean[0] == pytest.approx(0.19, rel=1e-15)
        assert traj.x_output[0] == traj.steps[2].x_mean[0]

    def test_minibatch_two_rounds_and_anchor_average_output(self):
        # f = 0.5 x^2 from 1: anchors 0.9, 0.81; output their mean 0.855
        prob = scalar_problem(center=0.0)
        traj = ALGORITHMS["minibatch"](
            prob, RunConfig(K=4, R=2, x0=np.array([1.0]), record_diagnostics=True), 0.1
        )
        assert traj.steps[4].x_mean[0] == pytest.approx(0.9, rel=1e-15)
        assert traj.steps[8].x_mean[0] == pytest.approx(0.81, rel=1e-15)
        assert traj.x_output[0] == pytest.approx(0.855, rel=1e-15)

    @pytest.mark.parametrize("dim", [1, 3])
    @pytest.mark.parametrize("k_steps", [3, 9, 16])
    def test_minibatch_server_step_is_the_mean_of_the_step_means(self, k_steps, dim):
        # the round's step means summed in step order from zero, for every d
        # (at d = 1 and K = 16 numpy's pairwise mean over the steps differs
        # in the last bits)
        prob = heterogeneous_quadratic(3, dim, sigma=4.0, seed=k_steps)
        etas = [0.05, 0.2, 0.01, 0.1]
        cfg = RunConfig(K=k_steps, R=6, x0=np.full(dim, 2.0), record_diagnostics=True)
        for eta, traj in zip(etas, run_lanes(prob, "minibatch", cfg, etas, [4] * 4)):
            x = cfg.x0
            for r in range(cfg.R):
                samplers = [prob.round_sampler(4, i, r, k_steps) for i in range(3)]
                step_sum = np.zeros(dim)
                for k in range(k_steps):
                    g_mean = np.zeros(dim)
                    for sample in samplers:
                        g_mean += sample(k, x)
                    step_sum += g_mean / 3
                x = x - eta * (step_sum / k_steps)
                np.testing.assert_array_equal(traj.steps[(r + 1) * k_steps].x_mean, x)

    def test_anytime_uniform_two_steps(self):
        # f = 0.5 x^2, eta=0.5, from 1: w 1 -> 0.5 -> 0.125,
        # x 1 -> 0.75 -> (2/3)0.75 + (1/3)0.125 = 13/24
        prob = scalar_problem(center=0.0)
        traj = ALGORITHMS["anytime"](
            prob, RunConfig(K=2, R=1, schedule=UNIFORM, x0=np.array([1.0]),
                            record_diagnostics=True), 0.5
        )
        assert traj.steps[2].w_mean[0] == pytest.approx(0.125, rel=1e-15)
        assert traj.x_output[0] == pytest.approx(13.0 / 24.0, rel=1e-15)

    def test_anytime_linear_first_step(self):
        # gamma_1 = 2/3 under linear weights: x_1 = (1/3)*1 + (2/3)*0.5 = 2/3
        prob = scalar_problem(center=0.0)
        traj = ALGORITHMS["anytime"](
            prob, RunConfig(K=1, R=1, schedule=LINEAR, x0=np.array([1.0])), 0.5
        )
        assert traj.x_output[0] == pytest.approx(2.0 / 3.0, rel=1e-15)


class TestReductions:
    def test_slowcal_with_k1_matches_anytime(self):
        # with K=1 on a single machine the round boundary is a no-op, so the
        # drift-corrected loop is the query-averaging recursion step for step
        prob = scalar_problem(sigma=0.4)
        cfg = RunConfig(K=1, R=18, schedule=LINEAR, record_diagnostics=True)
        slow = ALGORITHMS["slowcal"](prob, cfg, 0.08, seed=5)
        anytime = ALGORITHMS["anytime"](prob, cfg, 0.08, seed=5)
        assert len(slow.steps) == len(anytime.steps) == cfg.R + 1
        for a, b in zip(slow.steps, anytime.steps):
            np.testing.assert_allclose(a.x_mean, b.x_mean, atol=1e-12)
            np.testing.assert_allclose(a.w_mean, b.w_mean, atol=1e-12)
        np.testing.assert_allclose(slow.x_output, anytime.x_output, atol=1e-12)

    def test_homogeneous_local_matches_sequential_gd(self):
        # identical machines and sigma=0: averaging copies are a no-op, so
        # local SGD is K*R steps of deterministic gradient descent
        shared = heterogeneous_quadratic(1, 4, eig_range=(0.4, 1.2), seed=3)
        mats = np.tile(shared.curvatures, (5, 1, 1))
        centers = np.tile(shared.centers, (5, 1))
        prob = QuadraticEnsemble(mats, centers)
        cfg = RunConfig(K=4, R=6)
        traj = ALGORITHMS["local"](prob, cfg, 0.15)
        x = np.zeros(4)
        for _ in range(cfg.K * cfg.R):
            x = x - 0.15 * prob.global_gradient(x)
        np.testing.assert_allclose(traj.x_output, x, atol=1e-12)

    def test_slowcal_first_round_w_matches_minibatch_step(self):
        # K=1: every machine queries the shared start, so the first server w
        # equals the first minibatch iterate, noise draws included
        prob = heterogeneous_quadratic(3, 4, sigma=0.5, seed=6)
        cfg = RunConfig(K=1, R=1, record_diagnostics=True)
        slow = ALGORITHMS["slowcal"](prob, cfg, 0.07, seed=8)
        mini = ALGORITHMS["minibatch"](prob, cfg, 0.07, seed=8)
        np.testing.assert_allclose(slow.steps[1].w_mean, mini.steps[1].x_mean, atol=1e-12)

    def test_anytime_follows_weighted_gradient_recursion(self):
        # sigma=0: the machine-averaged oracle is the global gradient, so the
        # recorded run must satisfy the two-slot recursion exactly
        prob = heterogeneous_quadratic(3, 4, seed=7)
        cfg = RunConfig(K=5, R=4, schedule=LINEAR, record_diagnostics=True)
        traj = ALGORITHMS["anytime"](prob, cfg, 0.1)
        w = np.zeros(4)
        x = np.zeros(4)
        for t in range(cfg.K * cfg.R):
            w = w - 0.1 * weight_at(LINEAR, t) * prob.global_gradient(x)
            gamma = averaging_coeff(LINEAR, t)
            x = (1.0 - gamma) * x + gamma * w
        np.testing.assert_allclose(traj.x_output, x, atol=1e-12)


class TestAveragingLaw:
    @pytest.mark.parametrize("schedule", [UNIFORM, LINEAR], ids=["uniform", "linear"])
    def test_slowcal_means_satisfy_averaging_law(self, schedule):
        # recorded machine means obey x_{t+1} = (1-gamma) x_t + gamma w_{t+1}
        # across every step, round boundaries included
        prob = heterogeneous_quadratic(3, 5, sigma=0.5, seed=10)
        cfg = RunConfig(K=4, R=5, schedule=schedule, record_diagnostics=True)
        traj = ALGORITHMS["slowcal"](prob, cfg, 0.05, seed=1)
        steps = traj.steps
        for t in range(len(steps) - 1):
            gamma = averaging_coeff(schedule, steps[t].t)
            w_next = steps[t].w_mean - 0.05 * weight_at(schedule, steps[t].t) * steps[t].g_mean
            want = (1.0 - gamma) * steps[t].x_mean + gamma * w_next
            np.testing.assert_allclose(steps[t + 1].x_mean, want, atol=1e-10)

    def test_local_weighted_output_is_weighted_mean_of_step_means(self):
        prob = heterogeneous_quadratic(2, 3, sigma=0.3, seed=11)
        cfg = RunConfig(K=3, R=4, schedule=LINEAR, record_diagnostics=True)
        traj = ALGORITHMS["local-weighted"](prob, cfg, 0.05, seed=2)
        total = cfg.K * cfg.R
        acc = np.zeros(3)
        for rec in traj.steps:
            acc += weight_at(LINEAR, rec.t) * rec.x_mean
        np.testing.assert_allclose(
            traj.x_output, acc / prefix_weight(LINEAR, total), atol=1e-12
        )


class TestCertificate:
    def test_anytime_run_satisfies_weighted_gap_certificate(self):
        # 0 <= prefix(t) (f(x_t) - f*) <= sum_{tau<=t} alpha_tau <g_tau, w_tau - w*>
        # with w_tau taken before its update; pure convexity, any step size
        prob = heterogeneous_quadratic(4, 6, eig_range=(0.4, 1.2), seed=12)
        cfg = RunConfig(K=6, R=8, schedule=LINEAR, record_diagnostics=True)
        traj = ALGORITHMS["anytime"](prob, cfg, 0.3)
        running = 0.0
        for rec in traj.steps:
            lhs = prefix_weight(LINEAR, rec.t) * excess_loss(prob, rec.x_mean)
            gap = rec.w_mean - prob.w_star
            running += weight_at(LINEAR, rec.t) * float(
                prob.global_gradient(rec.x_mean) @ gap
            )
            assert lhs >= -1e-12
            assert lhs <= running + 1e-8


class TestDeterminismAndShape:
    def test_stochastic_run_is_bitwise_reproducible(self):
        prob = heterogeneous_quadratic(3, 4, sigma=1.0, seed=13)
        cfg = RunConfig(K=4, R=5)
        a = ALGORITHMS["slowcal"](prob, cfg, 0.05, seed=3)
        b = ALGORITHMS["slowcal"](prob, cfg, 0.05, seed=3)
        np.testing.assert_array_equal(a.x_output, b.x_output)
        assert a.values.tobytes() == b.values.tobytes()
        assert a.round_diverged.tolist() == b.round_diverged.tolist()

    def test_diagnostics_do_not_change_the_trajectory(self):
        prob = heterogeneous_quadratic(3, 4, sigma=1.0, seed=14)
        plain = RunConfig(K=4, R=5)
        probed = RunConfig(K=4, R=5, record_diagnostics=True)
        for name in ("slowcal", "local", "minibatch"):
            a, b = (ALGORITHMS[name](prob, cfg, 0.05, seed=4) for cfg in (plain, probed))
            np.testing.assert_array_equal(a.x_output, b.x_output)
            assert a.steps is None and b.steps is not None

    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    def test_round_and_step_bookkeeping(self, name):
        prob = heterogeneous_quadratic(3, 4, sigma=0.2, seed=15)
        cfg = RunConfig(K=4, R=6, record_diagnostics=True)
        traj = ALGORITHMS[name](prob, cfg, 0.01, seed=5)
        assert traj.values.shape == (cfg.R, len(ROUND_COLUMNS))
        assert traj.round_diverged.shape == (cfg.R,)
        assert traj.t.tolist() == [(r + 1) * cfg.K for r in range(cfg.R)]
        assert [rec.t for rec in traj.steps] == list(range(cfg.K * cfg.R + 1))
        assert (traj.steps[0].w_mean == 0.0).all() and (traj.steps[0].x_mean == 0.0).all()
        assert not traj.diverged

    def test_different_seeds_differ(self):
        prob = heterogeneous_quadratic(2, 3, sigma=1.0, seed=16)
        cfg = RunConfig(K=3, R=3)
        run = ALGORITHMS["slowcal"]
        assert not np.array_equal(run(prob, cfg, 0.05, seed=0).x_output,
                                  run(prob, cfg, 0.05, seed=1).x_output)


class TestDivergence:
    def test_expanding_map_is_flagged_and_frozen(self):
        # eta=3 on f=0.5 x^2 doubles the iterate each round; excess crosses
        # the 1e6 x initial threshold at round 9 and stays frozen after
        prob = scalar_problem(center=0.0)
        traj = ALGORITHMS["minibatch"](
            prob, RunConfig(K=1, R=15, x0=np.array([1.0])), 3.0
        )
        assert traj.diverged
        assert traj.values.shape[0] == 15
        flags = traj.round_diverged.tolist()
        first = flags.index(True)
        assert first == 9
        assert all(flags[first:])
        assert not any(flags[:first])
        excess = traj.values[:, ROUND_COLUMNS.index("excess_loss")]
        assert (excess[first + 1:] == math.inf).all()

    def test_overflowing_run_records_inf_never_nan(self):
        prob = scalar_problem(center=0.0)
        for name in ("minibatch", "local", "slowcal"):
            traj = ALGORITHMS[name](prob, RunConfig(K=3, R=8, x0=np.array([1.0])), 1e8)
            assert traj.diverged
            assert not np.isnan(traj.values).any()

    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    def test_diverged_output_is_that_of_the_run_stopped_at_its_diverging_round(self, algorithm):
        # the diverging lane shares its call with a lane that runs all R rounds
        prob = heterogeneous_quadratic(3, 2, sigma=0.3, seed=1)
        cfg = RunConfig(K=2, R=30)
        lane = run_lanes(prob, algorithm, cfg, [3.0, 0.01], [0] * 2)[0]
        assert lane.diverged
        stop = lane.round_diverged.tolist().index(True) + 1
        assert stop < cfg.R
        stopped = ALGORITHMS[algorithm](prob, replace(cfg, R=stop), 3.0)
        assert lane.x_output.tobytes() == stopped.x_output.tobytes()

    def test_divergence_threshold_uses_initial_excess(self):
        # starting 1e3 from the optimum scales the threshold accordingly;
        # a mildly contracting run must not trip it
        prob = scalar_problem(center=0.0)
        traj = ALGORITHMS["local"](
            prob, RunConfig(K=2, R=10, x0=np.array([1e3])), 0.01
        )
        assert not traj.diverged


class TestValidation:
    def test_bad_shape_counts_rejected(self):
        prob = heterogeneous_quadratic(2, 3, seed=17)
        with pytest.raises(ValueError):
            ALGORITHMS["local"](prob, RunConfig(K=0, R=1), 0.1)
        with pytest.raises(ValueError):
            ALGORITHMS["local"](prob, RunConfig(K=1, R=0), 0.1)

    @pytest.mark.parametrize("eta", [0.0, -0.1, math.inf, math.nan])
    def test_bad_eta_rejected(self, eta):
        prob = heterogeneous_quadratic(2, 3, seed=17)
        with pytest.raises(ValueError):
            ALGORITHMS["slowcal"](prob, RunConfig(K=1, R=1), eta)

    def test_negative_seed_rejected(self):
        prob = heterogeneous_quadratic(2, 3, seed=17)
        with pytest.raises(ValueError):
            ALGORITHMS["minibatch"](prob, RunConfig(K=1, R=1), 0.1, seed=-1)

    def test_wrong_x0_shape_rejected(self):
        prob = heterogeneous_quadratic(2, 3, seed=17)
        with pytest.raises(ValueError, match="x0"):
            ALGORITHMS["local"](prob, RunConfig(K=1, R=1, x0=np.zeros(4)), 0.1)


def small_logistic():
    rng = np.random.default_rng(4)
    sizes = (5, 12, 8)
    return LogisticEnsemble(
        features=tuple(rng.standard_normal((n, 3)) for n in sizes),
        labels=tuple(rng.integers(0, 3, n) for n in sizes),
        num_classes=3,
        l2=0.1,
    )


def same_float(a: float, b: float) -> bool:
    """Bitwise equal, so NaN equals NaN."""
    return np.float64(a).tobytes() == np.float64(b).tobytes()


def assert_same_trajectory(a, b):
    assert (a.algorithm, a.eta, a.schedule, a.seed, a.diverged) == (
        b.algorithm, b.eta, b.schedule, b.seed, b.diverged)
    assert a.values.tobytes() == b.values.tobytes()
    assert a.t.tolist() == b.t.tolist()
    assert a.round_diverged.tolist() == b.round_diverged.tolist()
    assert a.x_output.tobytes() == b.x_output.tobytes()
    assert same_float(a.output_excess, b.output_excess)
    if a.steps is None:
        assert b.steps is None
        return
    assert len(a.steps) == len(b.steps)
    for x, y in zip(a.steps, b.steps):
        assert (x.t, x.dispersion_q, x.bias_increment) == (y.t, y.dispersion_q, y.bias_increment)
        np.testing.assert_array_equal(x.w_mean, y.w_mean)
        np.testing.assert_array_equal(x.x_mean, y.x_mean)
        if x.g_mean is None:
            assert y.g_mean is None
        else:
            np.testing.assert_array_equal(x.g_mean, y.g_mean)


class TestLanes:
    @pytest.mark.parametrize("kind", ["quadratic", "logistic"])
    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    def test_each_lane_equals_its_single_run_bitwise(self, algorithm, kind):
        if kind == "quadratic":
            prob = heterogeneous_quadratic(3, 4, sigma=0.4, seed=7)
            etas, x0 = [0.05, 1e3, 0.2], np.ones(4)
        else:
            prob, etas, x0 = small_logistic(), [0.1, 1e9, 1.0], None
        cfg = RunConfig(K=3, R=5, schedule=LINEAR, record_diagnostics=True, x0=x0)
        lanes = run_lanes(prob, algorithm, cfg, etas, [2] * len(etas))
        assert lanes[1].diverged and not lanes[0].diverged
        for eta, lane in zip(etas, lanes):
            assert_same_trajectory(lane, ALGORITHMS[algorithm](prob, cfg, eta, seed=2))

    @pytest.mark.parametrize("case", range(3), ids=["quadratic", "softmax-2", "softmax-4"])
    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    def test_per_lane_seeds_equal_one_run_per_seed_and_step(self, algorithm, case):
        # unsorted, repeated seeds; seed 0 has only the diverging lane, so
        # the draws of the rounds after it come from the other two seeds
        prob = lane_problems(3, 4, seed=9)[case]
        big = 1e3 if case == 0 else 1e9
        etas, seeds = [0.05, 0.1, big, 0.2, 0.05], [5, 2, 0, 5, 2]
        cfg = RunConfig(K=3, R=5, schedule=LINEAR, record_diagnostics=True, x0=np.ones(4))
        lanes = run_lanes(prob, algorithm, cfg, etas, seeds)
        assert [lane.diverged for lane in lanes] == [False, False, True, False, False]
        for eta, seed, lane in zip(etas, seeds, lanes):
            assert_same_trajectory(lane, ALGORITHMS[algorithm](prob, cfg, eta, seed=seed))

    def test_anchor_mean_output_is_the_mean_of_the_round_end_step_means(self):
        # the output's running sum against the ascending mean of the step
        # records at t = rK, r = 1..completed rounds, the diverging lane's
        # completed rounds ending at its first diverged round
        prob = lane_problems(3, 4, seed=9)[0]
        etas, seeds = [0.05, 1e3, 0.2], [5, 0, 2]
        cfg = RunConfig(K=3, R=5, schedule=LINEAR, record_diagnostics=True, x0=np.ones(4))
        names = [name for name, spec in METHODS.items() if spec.output == "anchor-mean"]
        assert names == ["minibatch"]
        lanes = run_lanes(prob, "minibatch", cfg, etas, seeds)
        assert [lane.diverged for lane in lanes] == [False, True, False]
        for lane in lanes:
            completed = (lane.round_diverged.tolist().index(True) + 1 if lane.diverged
                         else cfg.R)
            assert lane.steps[-1].t == completed * cfg.K
            ends = np.array([rec.x_mean for rec in lane.steps[cfg.K::cfg.K]])
            assert len(ends) == completed
            assert lane.x_output.tobytes() == _ascending_mean(ends).tobytes()

    def test_every_lane_owns_its_rows_and_shares_the_call_time(self):
        # the middle lane diverges in an early round and leaves the batch
        prob = lane_problems(3, 4, seed=9)[0]
        cfg = RunConfig(K=3, R=5, x0=np.ones(4))
        lanes = run_lanes(prob, "slowcal", cfg, [0.05, 1e3, 0.2], [5, 0, 2])
        assert [lane.diverged for lane in lanes] == [False, True, False]
        assert lanes[1].round_diverged[:cfg.R - 1].any()
        assert lanes[0].wall_ms > 0
        assert all(lane.wall_ms == lanes[0].wall_ms for lane in lanes)
        for a, b in itertools.combinations(lanes, 2):
            for x in (a.values, a.t, a.round_diverged, a.x_output):
                for y in (b.values, b.t, b.round_diverged, b.x_output):
                    assert not np.shares_memory(x, y)

    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    @pytest.mark.parametrize("machines", [1, 3])
    def test_a_lane_diverging_on_the_last_round_leaves_the_others_alone(self, algorithm,
                                                                        machines):
        # the diverging lane comes first, so its row precedes the survivor's
        prob = heterogeneous_quadratic(machines, 2, sigma=0.3, seed=1)
        cfg = RunConfig(K=2, R=30)
        last = ALGORITHMS[algorithm](prob, cfg, 3.0, seed=4).round_diverged.tolist().index(True)
        cfg = replace(cfg, R=last + 1)
        lanes = run_lanes(prob, algorithm, cfg, [3.0, 0.01], [4] * 2)
        assert lanes[0].round_diverged.tolist().index(True) == cfg.R - 1
        assert not lanes[1].diverged
        for eta, lane in zip((3.0, 0.01), lanes):
            assert_same_trajectory(lane, ALGORITHMS[algorithm](prob, cfg, eta, seed=4))

    def test_seeds_align_with_step_sizes(self):
        prob = heterogeneous_quadratic(2, 3, seed=1)
        cfg = RunConfig(K=1, R=2)
        with pytest.raises(ValueError, match="seeds"):
            run_lanes(prob, "local", cfg, [0.1, 0.2], [0])
        with pytest.raises(ValueError, match="seed"):
            run_lanes(prob, "local", cfg, [0.1, 0.2], [0, -1])

    def test_no_lanes_no_trajectories(self):
        prob = heterogeneous_quadratic(2, 3, seed=1)
        assert run_lanes(prob, "slowcal", RunConfig(K=1, R=2), [], []) == []

    def test_every_lane_is_validated(self):
        prob = heterogeneous_quadratic(2, 3, seed=1)
        with pytest.raises(ValueError, match="eta"):
            run_lanes(prob, "local", RunConfig(K=1, R=2), [0.1, -1.0], [0, 0])


def block_spy(monkeypatch) -> list[tuple[int, int]]:
    """Record the (first round, rounds) of every block a round close measures."""
    blocks = []
    close = algorithms._Recorder.close_round

    def spy(self, r0, x_states, w_mean):
        blocks.append((r0, len(x_states) // len(self.lanes)))
        return close(self, r0, x_states, w_mean)
    monkeypatch.setattr(algorithms._Recorder, "close_round", spy)
    return blocks


class TestRoundBlocks:
    """Rounds are measured in blocks sized by _BLOCK_BYTES; a budget of 0
    gives one-round blocks. Every lane of every block size is bitwise the
    run measured round by round."""

    budget = algorithms._BLOCK_BYTES

    def runs(self, monkeypatch, budget, run):
        monkeypatch.setattr(algorithms, "_BLOCK_BYTES", budget)
        return run()

    @pytest.mark.parametrize("case,machines", [(0, 3), (0, 1), (1, 3), (2, 3)],
                             ids=["quadratic", "quadratic-1-machine", "softmax-2", "softmax-4"])
    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    def test_blocks_equal_one_round_blocks_bitwise(self, algorithm, case, machines, monkeypatch):
        # one machine: the loop steps its one state in place, and a block
        # must hold each round's own copy
        prob = lane_problems(machines, 4, seed=9)[case]
        etas, seeds = [0.005, 0.01, 1e3 if case == 0 else 1e9, 0.02, 0.005], [5, 2, 0, 5, 2]
        cfg = RunConfig(K=2, R=24, schedule=LINEAR, x0=np.ones(4))

        def run():
            return run_lanes(prob, algorithm, cfg, etas, seeds)
        one_round = self.runs(monkeypatch, 0, run)
        blocks = block_spy(monkeypatch)
        for budget in (self.budget, 7 * len(etas) * machines * 4 * 8):
            blocks.clear()
            for a, b in zip(self.runs(monkeypatch, budget, run), one_round):
                assert_same_trajectory(a, b)
            assert max(size for _, size in blocks) > 1
        assert [lane.diverged for lane in one_round] == [False, False, True, False, False]

    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    def test_divergence_mid_block_and_on_a_block_end(self, algorithm, monkeypatch):
        # step sizes whose lanes diverge at rounds spread over the run, in
        # blocks of 4 rounds at the full lane count (longer as lanes drop)
        prob = heterogeneous_quadratic(3, 2, sigma=0.3, seed=11)
        etas = np.geomspace(0.01, 10, 25).tolist()
        cfg = RunConfig(K=2, R=24, schedule=LINEAR)

        def run():
            return run_lanes(prob, algorithm, cfg, etas, [1] * len(etas))
        one_round = self.runs(monkeypatch, 0, run)
        blocks = block_spy(monkeypatch)
        blocked = self.runs(monkeypatch, 4 * len(etas) * 3 * 2 * 8, run)
        for a, b in zip(blocked, one_round):
            assert_same_trajectory(a, b)
        first = {lane.round_diverged.tolist().index(True) for lane in one_round if lane.diverged}
        ends = {r0 + size - 1 for r0, size in blocks if size > 1}
        inside = {r for r0, size in blocks for r in range(r0, r0 + size - 1)}
        assert first & ends and first & inside

    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    def test_poly_weights_past_round_337(self, algorithm, monkeypatch):
        # the quad-diag shape: at round 337, alpha = 339 ** 1.5 squares
        # differently as a Python float and as a numpy array. The reference
        # measures every row with its own scalar-alpha call
        prob = heterogeneous_quadratic(4, 6, sigma=0.0, seed=0)
        cfg = RunConfig(K=1, R=400, schedule=WeightSchedule(1.5))

        def run():
            return run_lanes(prob, algorithm, cfg, [2e-6] * 2, [0, 1])

        def per_row_dispersion(states, alphas):
            return np.array([metrics.dispersion(row, alpha)
                             for row, alpha in zip(states, alphas.tolist())])

        def per_row_bias_increment(prob, states, alphas, grads):
            return np.array([metrics.bias_increment(prob, row, alpha, grad)
                             for row, alpha, grad in zip(states, alphas.tolist(), grads)])
        with monkeypatch.context() as patch:
            patch.setattr(algorithms, "dispersion", per_row_dispersion)
            patch.setattr(algorithms, "bias_increment", per_row_bias_increment)
            one_round = self.runs(patch, 0, run)
        blocks = block_spy(monkeypatch)
        for a, b in zip(self.runs(monkeypatch, self.budget, run), one_round):
            assert_same_trajectory(a, b)
        assert any(r0 < 337 < r0 + size for r0, size in blocks)

    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    def test_step_records_use_one_round_blocks(self, algorithm, monkeypatch):
        prob = heterogeneous_quadratic(3, 4, sigma=0.4, seed=7)
        etas = [0.05, 1e3, 0.2]
        cfg = RunConfig(K=3, R=6, schedule=LINEAR, record_diagnostics=True, x0=np.ones(4))

        def run():
            return run_lanes(prob, algorithm, cfg, etas, [2] * len(etas))
        one_round = self.runs(monkeypatch, 0, run)
        blocks = block_spy(monkeypatch)
        for a, b in zip(self.runs(monkeypatch, self.budget, run), one_round):
            assert_same_trajectory(a, b)
        assert {size for _, size in blocks} == {1}

    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    def test_grid_search_tables_and_winners(self, algorithm, monkeypatch):
        prob = heterogeneous_quadratic(3, 2, sigma=0.3, seed=11)
        cfg = RunConfig(K=2, R=24, schedule=LINEAR)
        grid = np.geomspace(0.01, 10, 13).tolist()

        def run():
            return grid_search(prob, algorithm, grid, cfg, seeds=[0, 3])
        one_round = self.runs(monkeypatch, 0, run)
        blocked = self.runs(monkeypatch, self.budget, run)
        assert blocked.eta == one_round.eta
        assert blocked.table == one_round.table
        assert any(math.isinf(scores[0]) for scores in one_round.table.values())
        for a, b in zip(blocked.runs, one_round.runs, strict=True):
            assert_same_trajectory(a, b)


def assert_output_excess_is_its_own_call(problem, runs):
    with np.errstate(over="ignore", invalid="ignore"):  # diverged output points
        for run in runs:
            assert same_float(run.output_excess, excess_loss(problem, run.x_output))


class TestOutputExcess:
    """A run's output_excess is measured once, as its lane finishes, in one
    batched call for every lane that finishes with it; it must equal the
    one-point excess_loss at its x_output bitwise."""

    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    def test_every_lane_shape_and_problem(self, algorithm):
        # the largest step size diverges wherever there are two lanes or more
        for lanes, machines, d in LANE_SHAPES:
            for prob in lane_problems(machines, d, seed=lanes):
                big = 1e3 if isinstance(prob, QuadraticEnsemble) else 1e9
                etas = np.geomspace(0.01, big, lanes).tolist()
                cfg = RunConfig(K=2, R=6, x0=np.ones(d))
                runs = run_lanes(prob, algorithm, cfg, etas, [3 * j % 4 for j in range(lanes)])
                assert runs[-1].diverged == (lanes > 1)
                assert_output_excess_is_its_own_call(prob, runs)

    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    def test_lanes_diverging_mid_block(self, algorithm, monkeypatch):
        prob = heterogeneous_quadratic(3, 2, sigma=0.3, seed=11)
        etas = np.geomspace(0.01, 10, 25).tolist()
        monkeypatch.setattr(algorithms, "_BLOCK_BYTES", 4 * len(etas) * 3 * 2 * 8)
        blocks = block_spy(monkeypatch)
        runs = run_lanes(prob, algorithm, RunConfig(K=2, R=24), etas, [1] * len(etas))
        first = {run.round_diverged.tolist().index(True) for run in runs if run.diverged}
        assert first & {r for r0, size in blocks for r in range(r0, r0 + size - 1)}
        assert_output_excess_is_its_own_call(prob, runs)

    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    def test_a_lane_diverging_on_the_last_round_and_one_lane_calls(self, algorithm):
        prob = heterogeneous_quadratic(3, 2, sigma=0.3, seed=1)
        cfg = RunConfig(K=2, R=30)
        last = ALGORITHMS[algorithm](prob, cfg, 3.0, seed=4).round_diverged.tolist().index(True)
        cfg = replace(cfg, R=last + 1)
        lanes = run_lanes(prob, algorithm, cfg, [3.0, 0.01], [4] * 2)
        assert lanes[0].round_diverged.tolist().index(True) == cfg.R - 1
        one_lane = [ALGORITHMS[algorithm](prob, cfg, eta, seed=4) for eta in (3.0, 0.01)]
        assert [run.diverged for run in one_lane] == [True, False]
        assert_output_excess_is_its_own_call(prob, lanes + one_lane)
