"""Diagnostics: dispersion and bias-increment hand values, and the
momentum-form residual on recorded trajectories."""
import numpy as np
import pytest

from slowcal_lab.algorithms import ALGORITHMS, RunConfig, StepRecord, Trajectory, _ascending_mean
from slowcal_lab.metrics import (
    bias_increment,
    dispersion,
    excess_loss,
    momentum_residual,
    squared_norms,
)
from slowcal_lab.objectives import QuadraticEnsemble, heterogeneous_quadratic
from slowcal_lab.weights import LINEAR, UNIFORM, WeightSchedule, weight_at

from lane_cases import LANE_SHAPES, lane_problems


class TestDispersion:
    def test_two_point_hand_value(self):
        # points (0,0) and (3,0): sum over ordered pairs = 2*9, alpha^2/M^2 = 4/4
        states = np.array([[0.0, 0.0], [3.0, 0.0]])
        assert dispersion(states, alpha=2.0) == pytest.approx(18.0, rel=1e-15)

    def test_matches_ordered_pair_definition(self):
        rng = np.random.default_rng(5)
        states = rng.standard_normal((6, 4))
        alpha = 3.0
        m = states.shape[0]
        brute = sum(
            float(np.sum((states[i] - states[j]) ** 2))
            for i in range(m)
            for j in range(m)
        )
        want = alpha ** 2 / m ** 2 * brute
        assert dispersion(states, alpha) == pytest.approx(want, rel=1e-12)

    def test_identical_states_have_zero_dispersion(self):
        states = np.tile(np.array([1.0, -2.0, 0.5]), (5, 1))
        assert dispersion(states, alpha=7.0) == 0.0

    def test_alpha_enters_squared(self):
        states = np.array([[0.0], [1.0]])
        assert dispersion(states, 4.0) == pytest.approx(16.0 * dispersion(states, 1.0), rel=1e-15)


class TestBiasIncrement:
    def test_hand_value_one_dimensional(self):
        # machines 0.5*1*x^2 and 0.5*2*x^2, queries x=1 and x=3:
        # mean grad = (1 + 6)/2 = 3.5, grad at mean 2 is 3, gap 0.5, alpha^2 * 0.25 = 1
        prob = QuadraticEnsemble(
            np.array([[[1.0]], [[2.0]]]), np.zeros((2, 1))
        )
        states = np.array([[1.0], [3.0]])
        assert bias_increment(prob, states, alpha=2.0) == pytest.approx(1.0, rel=1e-14)

    def test_shared_curvature_bias_vanishes(self):
        # with one shared A the mean queried gradient is linear in the mean query
        mats = np.tile(np.diag([1.5, 0.5])[None, :, :], (4, 1, 1))
        centers = np.random.default_rng(6).standard_normal((4, 2))
        prob = QuadraticEnsemble(mats, centers)
        states = np.random.default_rng(7).standard_normal((4, 2)) * 3.0
        assert bias_increment(prob, states, alpha=5.0) <= 1e-24

    def test_row_count_must_match_machines(self):
        prob = QuadraticEnsemble(np.array([[[1.0]], [[2.0]]]), np.zeros((2, 1)))
        with pytest.raises(ValueError, match="machine"):
            bias_increment(prob, np.zeros((3, 1)), alpha=1.0)


def reference_dispersion(pts, alpha):
    """The single-lane formula as first written, before lanes, about the
    ascending machine mean."""
    centered = pts - _ascending_mean(pts)
    return float(alpha ** 2 * 2.0 / pts.shape[0] * (centered ** 2).sum())


def reference_bias_increment(problem, pts, alpha):
    """The single-lane formula as first written, on the per-machine oracle,
    with both machine means ascending."""
    grads = np.array([problem.exact_gradient(i, point) for i, point in enumerate(pts)])
    gap = _ascending_mean(grads) - problem.global_gradient(_ascending_mean(pts))
    return float(alpha ** 2 * (gap @ gap))


class TestLaneDiagnostics:
    """(lanes, M, d) states give one value per lane, each bitwise equal to
    that lane's own call and to the single-lane formula."""

    @pytest.mark.parametrize("lanes,m,d", LANE_SHAPES)
    def test_dispersion_per_lane_bitwise(self, lanes, m, d):
        states = 4.0 * np.random.default_rng(lanes + 10 * m + d).standard_normal((lanes, m, d))
        got = dispersion(states, 1.7)
        assert got.shape == (lanes,)
        for lane in range(lanes):
            single = dispersion(states[lane], 1.7)
            assert isinstance(single, float)
            assert got[lane] == single == reference_dispersion(states[lane], 1.7)

    @pytest.mark.parametrize("lanes,m,d", LANE_SHAPES)
    def test_bias_increment_per_lane_bitwise(self, lanes, m, d):
        states = 4.0 * np.random.default_rng(lanes * m + d).standard_normal((lanes, m, d))
        for prob in lane_problems(m, d, seed=lanes + d):
            got = bias_increment(prob, states, 0.6)
            assert got.shape == (lanes,)
            for lane in range(lanes):
                single = bias_increment(prob, states[lane], 0.6)
                assert isinstance(single, float)
                assert got[lane] == single == reference_bias_increment(prob, states[lane], 0.6)

    def test_two_leading_axes(self):
        states = np.random.default_rng(2).standard_normal((2, 3, 4, 2))
        for prob in lane_problems(4, 2, seed=5):
            spreads, biases = dispersion(states, 0.9), bias_increment(prob, states, 0.9)
            assert spreads.shape == biases.shape == (2, 3)
            for a in range(2):
                for b in range(3):
                    assert spreads[a, b] == dispersion(states[a, b], 0.9)
                    assert biases[a, b] == bias_increment(prob, states[a, b], 0.9)

    @pytest.mark.parametrize("m", [1, 2, 7, 9, 16, 17])
    @pytest.mark.parametrize("lead", [(), (3,), (2, 3)])
    @pytest.mark.parametrize("d", [1, 4])
    def test_known_global_gradient_changes_nothing(self, d, lead, m, monkeypatch):
        """A round close passes grad_at_mean, the global gradient at the
        ascending machine mean, which is the mean bias_increment takes
        itself: the value equals a call without it, bitwise, and no global
        gradient is evaluated, at every (M, d), d = 1 from M = 8 on (where
        numpy's own sum of the machine axis is pairwise) included."""
        states = 3.0 * np.random.default_rng(m + d).standard_normal(lead + (m, d))
        for prob in lane_problems(m, d, seed=m):
            grad_at_mean = prob.global_gradient(_ascending_mean(states))
            plain = bias_increment(prob, states, 0.7)
            calls = []
            real = type(prob).global_gradient
            monkeypatch.setattr(type(prob), "global_gradient",
                                lambda self, x: calls.append(x) or real(self, x))
            shared = bias_increment(prob, states, 0.7, grad_at_mean)
            monkeypatch.undo()
            assert np.asarray(shared).tobytes() == np.asarray(plain).tobytes()
            assert calls == []

    def test_per_row_alphas_square_as_python_floats(self):
        """A block of round closes passes one alpha per row. Under poly:1.5,
        alpha_338 = 339 ** 1.5, whose Python square (libm's pow) is not
        numpy's arr ** 2 (x * x); every row must equal its own scalar call."""
        alphas = np.array([weight_at(WeightSchedule(1.5), t) for t in (337, 338, 339, 2194)])
        assert (alphas ** 2).tolist() != [a ** 2 for a in alphas.tolist()]
        states = np.random.default_rng(3).standard_normal((4, 4, 6))
        for prob in lane_problems(4, 6, seed=2):
            spreads, biases = dispersion(states, alphas), bias_increment(prob, states, alphas)
            for row, alpha in enumerate(alphas.tolist()):
                assert spreads[row] == dispersion(states[row], alpha)
                assert biases[row] == bias_increment(prob, states[row], alpha)

    def test_lane_row_count_must_match_machines(self):
        prob = heterogeneous_quadratic(3, 2, seed=1)
        with pytest.raises(ValueError, match="machine"):
            bias_increment(prob, np.zeros((4, 2, 2)), alpha=1.0)

    @pytest.mark.parametrize("d", [1, 2, 7, 33])
    def test_squared_norms_match_dot_and_norm(self, d):
        vecs = np.random.default_rng(d).standard_normal((40, d)) * np.logspace(-150, 150, 40)[:, None]
        got = squared_norms(vecs)
        for vec, value in zip(vecs, got):
            assert value == vec @ vec
            assert np.sqrt(value) == np.linalg.norm(vec)


class TestExcessLoss:
    def test_zero_at_optimum_and_positive_elsewhere(self):
        prob = heterogeneous_quadratic(3, 4, seed=8)
        assert excess_loss(prob, prob.w_star) == pytest.approx(0.0, abs=1e-14)
        assert excess_loss(prob, prob.w_star + 1.0) > 0


def no_round_trajectory(x, steps):
    """A hand-built trajectory with no rounds and output x."""
    return Trajectory("anytime", 0.1, LINEAR, 0, values=np.empty((0, 5)),
                      t=np.empty(0, dtype=np.int64), round_diverged=np.empty(0, dtype=bool),
                      x_output=x, diverged=False, steps=steps)


class TestMomentumResidual:
    @pytest.mark.parametrize("schedule", [UNIFORM, LINEAR], ids=["uniform", "linear"])
    @pytest.mark.parametrize("sigma", [0.0, 0.5], ids=["exact", "noisy"])
    def test_recorded_run_satisfies_momentum_form(self, schedule, sigma):
        prob = heterogeneous_quadratic(3, 4, eig_range=(0.4, 1.2), sigma=sigma, seed=9)
        cfg = RunConfig(K=6, R=10, eta=0.05, schedule=schedule, seed=2, record_diagnostics=True)
        traj = ALGORITHMS["anytime"](prob, cfg)
        assert momentum_residual(traj) <= 1e-10

    def test_missing_step_records_rejected(self):
        traj = no_round_trajectory(np.zeros(2), steps=[])
        with pytest.raises(ValueError, match="per-step"):
            momentum_residual(traj)

    def test_missing_gradient_rejected(self):
        x = np.zeros(2)
        steps = [
            StepRecord(0, x, x, None, 0.0, 0.0),
            StepRecord(1, x, x, None, 0.0, 0.0),
        ]
        traj = no_round_trajectory(x, steps)
        with pytest.raises(ValueError, match="gradient"):
            momentum_residual(traj)
