"""Objective ensembles: oracle values against hand-computed examples,
noise conventions, optimum oracles, and the scalar bounds."""
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slowcal_lab.objectives import (
    DegenerateProblemError,
    LogisticEnsemble,
    QuadraticEnsemble,
    _class_max,
    _class_sum,
    _log_softmax,
    heterogeneous_quadratic,
)

from lane_cases import LANE_SHAPES, lane_problems


def two_machine_quadratic(sigma=0.0):
    # f_0 at center (3, 0) with curvature diag(2, 1); f_1 at (0, 3) with diag(1, 2)
    mats = np.array([np.diag([2.0, 1.0]), np.diag([1.0, 2.0])])
    centers = np.array([[3.0, 0.0], [0.0, 3.0]])
    return QuadraticEnsemble(mats, centers, sigma)


class TestQuadraticOracles:
    def test_machine_gradient_hand_example(self):
        prob = two_machine_quadratic()
        # grad f_0 at (1, 1): diag(2,1) @ (1-3, 1-0) = (-4, 1)
        np.testing.assert_allclose(
            prob.exact_gradient(0, np.array([1.0, 1.0])), [-4.0, 1.0]
        )

    def test_machine_value_hand_example(self):
        prob = two_machine_quadratic()
        # f_0(1, 1) = 0.5 * (2*4 + 1*1) = 4.5
        assert prob.machine_value(0, np.array([1.0, 1.0])) == pytest.approx(4.5, rel=1e-15)

    def test_global_value_is_machine_average(self):
        prob = two_machine_quadratic()
        x = np.array([1.0, -2.0])
        want = 0.5 * (prob.machine_value(0, x) + prob.machine_value(1, x))
        assert prob.global_value(x) == pytest.approx(want, rel=1e-14)

    def test_global_gradient_is_machine_average(self):
        prob = two_machine_quadratic()
        x = np.array([-1.0, 4.0])
        want = 0.5 * (prob.exact_gradient(0, x) + prob.exact_gradient(1, x))
        np.testing.assert_allclose(prob.global_gradient(x), want, rtol=1e-14)

    def test_optimum_one_dimensional_hand_example(self):
        # machines 0.5*1*(x-0)^2 and 0.5*2*(x-3)^2: w* = (1*0 + 2*3)/3 = 2
        prob = QuadraticEnsemble(
            np.array([[[1.0]], [[2.0]]]), np.array([[0.0], [3.0]])
        )
        np.testing.assert_allclose(prob.w_star, [2.0], rtol=1e-14)
        # f* = 0.5 * (0.5*1*4 + 0.5*2*1) = 1.5
        assert prob.f_star == pytest.approx(1.5, rel=1e-14)

    def test_gstar_hand_example(self):
        # same 1-d pair: grads at w*=2 are 1*2=2 and 2*(-1)=-2
        # gstar = sqrt(2 * mean(4, 4)) = sqrt(8)
        prob = QuadraticEnsemble(
            np.array([[[1.0]], [[2.0]]]), np.array([[0.0], [3.0]])
        )
        assert prob.gstar() == pytest.approx(math.sqrt(8.0), rel=1e-12)

    def test_gstar_scales_linearly_with_centers(self):
        mats = np.array([np.diag([2.0, 1.0]), np.diag([1.0, 2.0])])
        centers = np.array([[3.0, 0.0], [0.0, 3.0]])
        base = QuadraticEnsemble(mats, centers).gstar()
        scaled = QuadraticEnsemble(mats, 2.5 * centers).gstar()
        assert scaled == pytest.approx(2.5 * base, rel=1e-12)

    def test_smoothness_matches_dense_eigensolver(self):
        prob = heterogeneous_quadratic(4, 6, eig_range=(0.3, 1.7), seed=3)
        want = max(float(np.linalg.eigvalsh(a).max()) for a in prob.curvatures)
        assert prob.smoothness() == want

    def test_construction_makes_one_eigen_solve(self, monkeypatch):
        calls = []
        real = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.shape) or real(a))
        prob = heterogeneous_quadratic(4, 6, seed=3)
        prob.smoothness()
        assert calls == [(4, 6, 6)]

    def test_metadata_b0_is_start_distance(self):
        prob = two_machine_quadratic()
        x0 = prob.w_star + np.array([3.0, 4.0])
        assert prob.metadata(x0).b0 == pytest.approx(5.0, rel=1e-12)


class TestQuadraticNoise:
    def test_sigma_zero_sampler_is_exact_gradient_bitwise(self):
        prob = two_machine_quadratic(sigma=0.0)
        x = np.array([0.3, -1.2])
        sample = prob.round_sampler(0, 1, 0, 4)
        np.testing.assert_array_equal(sample(2, x), prob.exact_gradient(1, x))

    def test_same_key_same_noise_bitwise(self):
        prob = two_machine_quadratic(sigma=0.7)
        x = np.array([1.0, 1.0])
        a = prob.round_sampler(5, 0, 3, 3)(2, x)
        b = prob.round_sampler(5, 0, 3, 3)(2, x)
        np.testing.assert_array_equal(a, b)

    def test_sampler_step_is_independent_of_block_length(self):
        # step 3 of a 6-step block is step 3 of a 4-step block: a longer
        # round extends the shorter one's draws without changing them
        prob = two_machine_quadratic(sigma=0.7)
        x = np.array([-0.5, 2.0])
        np.testing.assert_array_equal(
            prob.round_sampler(9, 1, 4, 6)(3, x), prob.round_sampler(9, 1, 4, 4)(3, x)
        )

    def test_noise_total_power_convention(self):
        # E||g - grad||^2 = sigma^2 regardless of dimension
        sigma, dim, n = 2.0, 6, 200_000
        mats = np.eye(dim)[None, :, :]
        prob = QuadraticEnsemble(mats, np.zeros((1, dim)), sigma)
        x = np.zeros(dim)
        sample = prob.round_sampler(0, 0, 0, n)
        noise = np.stack([sample(k, x) for k in range(0, n, 100)])
        power = float((noise ** 2).sum(axis=1).mean())
        assert power == pytest.approx(sigma ** 2, rel=0.05)


class TestQuadraticValidation:
    def test_asymmetric_curvature_rejected(self):
        bad = np.array([[[1.0, 0.5], [0.0, 1.0]]])
        with pytest.raises(ValueError, match="symmetric"):
            QuadraticEnsemble(bad, np.zeros((1, 2)))

    def test_indefinite_curvature_rejected(self):
        bad = np.array([np.diag([1.0, -0.5])])
        with pytest.raises(ValueError, match="PSD"):
            QuadraticEnsemble(bad, np.zeros((1, 2)))

    @pytest.mark.parametrize("mats", [
        pytest.param(np.array([np.diag([1.0, np.inf])]), id="inf"),
        pytest.param(np.zeros((0, 2, 2)), id="no-machines"),
        pytest.param(np.zeros((1, 0, 0)), id="dim0"),
    ])
    def test_nonfinite_or_empty_curvature_rejected(self, mats):
        with pytest.raises(ValueError, match="curvatures must be"):
            QuadraticEnsemble(mats, np.zeros(mats.shape[:2]))

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError, match="sigma"):
            QuadraticEnsemble(np.eye(2)[None], np.zeros((1, 2)), sigma=-1.0)

    def test_center_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            QuadraticEnsemble(np.eye(2)[None], np.zeros((2, 2)))

    def test_singular_ensemble_has_no_optimum(self):
        prob = QuadraticEnsemble(np.zeros((1, 2, 2)), np.zeros((1, 2)))
        with pytest.raises(DegenerateProblemError):
            _ = prob.w_star


class TestGenerator:
    def test_generator_is_deterministic(self):
        a = heterogeneous_quadratic(3, 4, seed=12)
        b = heterogeneous_quadratic(3, 4, seed=12)
        np.testing.assert_array_equal(a.curvatures, b.curvatures)
        np.testing.assert_array_equal(a.centers, b.centers)

    def test_eigenvalues_land_in_requested_range(self):
        prob = heterogeneous_quadratic(5, 8, eig_range=(0.25, 0.75), seed=2)
        for mat in prob.curvatures:
            eigs = np.linalg.eigvalsh(mat)
            assert eigs.min() >= 0.25 - 1e-9 and eigs.max() <= 0.75 + 1e-9

    def test_shared_curvature_is_shared(self):
        prob = heterogeneous_quadratic(4, 5, curvature="shared", seed=1)
        for mat in prob.curvatures[1:]:
            np.testing.assert_array_equal(mat, prob.curvatures[0])

    def test_target_gstar_hits_exactly(self):
        prob = heterogeneous_quadratic(6, 10, target_gstar=2.0, seed=4)
        assert prob.gstar() == pytest.approx(2.0, rel=1e-12)

    def test_target_gstar_zero_collapses_centers(self):
        prob = heterogeneous_quadratic(3, 4, target_gstar=0.0, seed=4)
        np.testing.assert_array_equal(prob.centers, np.zeros((3, 4)))
        assert prob.gstar() == 0.0

    def test_zero_spread_cannot_reach_positive_gstar(self):
        with pytest.raises(ValueError):
            heterogeneous_quadratic(3, 4, center_spread=0.0, target_gstar=1.0, seed=0)

    def test_bad_curvature_mode_rejected(self):
        with pytest.raises(ValueError):
            heterogeneous_quadratic(2, 3, curvature="diagonal")

    def test_bad_eig_range_rejected(self):
        with pytest.raises(ValueError):
            heterogeneous_quadratic(2, 3, eig_range=(0.0, 1.0))

    @pytest.mark.parametrize("dim", [0, -3])
    def test_nonpositive_dim_rejected(self, dim):
        with pytest.raises(ValueError, match="dim must be >= 1"):
            heterogeneous_quadratic(2, dim)


def tiny_logistic(l2=0.5):
    # machine 0: one example a=(1,2) labeled 0 of C=3 classes
    # machine 1: one example a=(0,1) labeled 2
    return LogisticEnsemble(
        features=(np.array([[1.0, 2.0]]), np.array([[0.0, 1.0]])),
        labels=(np.array([0]), np.array([2])),
        num_classes=3,
        l2=l2,
    )


class TestLogisticOracles:
    def test_value_at_zero_weights_is_log_num_classes(self):
        prob = tiny_logistic(l2=0.5)
        assert prob.global_value(np.zeros(prob.dim)) == pytest.approx(
            math.log(3.0), rel=1e-14
        )

    def test_gradient_at_zero_weights_hand_example(self):
        # at w=0 the softmax is uniform (1/3 each); for a=(1,2), y=0:
        # rows (p_c - 1{c=y}) a = (-2/3)(1,2), (1/3)(1,2), (1/3)(1,2)
        prob = tiny_logistic(l2=0.0)
        grad = prob.exact_gradient(0, np.zeros(6)).reshape(3, 2)
        want = np.array([
            [-2.0 / 3.0, -4.0 / 3.0],
            [1.0 / 3.0, 2.0 / 3.0],
            [1.0 / 3.0, 2.0 / 3.0],
        ])
        np.testing.assert_allclose(grad, want, rtol=1e-12)

    def test_l2_term_enters_value_and_gradient(self):
        prob = tiny_logistic(l2=0.5)
        bare = tiny_logistic(l2=0.0)
        w = np.arange(6, dtype=np.float64) / 10.0
        assert prob.machine_value(0, w) == pytest.approx(
            bare.machine_value(0, w) + 0.25 * float(w @ w), rel=1e-12
        )
        np.testing.assert_allclose(
            prob.exact_gradient(0, w), bare.exact_gradient(0, w) + 0.5 * w, rtol=1e-12
        )

    def test_example_enumeration_matches_exact_gradient(self):
        # mean over single-example gradients == full local gradient
        rng = np.random.default_rng(0)
        feats = rng.standard_normal((7, 3))
        labs = rng.integers(0, 4, size=7)
        prob = LogisticEnsemble((feats,), (labs,), num_classes=4, l2=0.1)
        w = rng.standard_normal(prob.dim) * 0.3
        mean = np.zeros(prob.dim)
        for k in range(7):
            mean += prob._example_gradient(0, k, w)
        np.testing.assert_allclose(mean / 7, prob.exact_gradient(0, w), rtol=1e-12, atol=1e-14)

    def test_sampler_draws_actual_example_gradients(self):
        rng = np.random.default_rng(1)
        feats = rng.standard_normal((5, 2))
        labs = rng.integers(0, 3, size=5)
        prob = LogisticEnsemble((feats,), (labs,), num_classes=3, l2=0.0)
        w = np.zeros(prob.dim)
        sample = prob.round_sampler(3, 0, 0, 20)
        per_example = np.stack([prob._example_gradient(0, k, w) for k in range(5)])
        for k in range(20):
            got = sample(k, w)
            assert any(np.array_equal(got, row) for row in per_example)

    def test_sampling_noise_std_matches_brute_force(self):
        # sigma, the closed-form noise std at the optimum, against the
        # spread of every single-example gradient there; with two machines
        # neither machine's mean gradient vanishes at the optimum
        rng = np.random.default_rng(2)
        sizes = (6, 4)
        prob = LogisticEnsemble(tuple(rng.standard_normal((n, 3)) for n in sizes),
                                tuple(rng.integers(0, 3, size=n) for n in sizes),
                                num_classes=3, l2=0.2)
        w = prob.w_star
        spreads = []
        for i, n in enumerate(sizes):
            grads = np.stack([prob._example_gradient(i, k, w) for k in range(n)])
            mean = prob.exact_gradient(i, w)
            assert np.linalg.norm(mean) > 1e-3
            spreads.append(float(((grads - mean) ** 2).sum(axis=1).mean()))
        assert prob.sigma == pytest.approx(math.sqrt(np.mean(spreads)), rel=1e-10)

    def test_optimum_oracle_reaches_tiny_gradient(self):
        prob = tiny_logistic(l2=0.5)
        w = prob.w_star
        assert float(np.linalg.norm(prob.global_gradient(w))) <= 1e-10

    def test_optimum_report_comes_from_the_descent_itself(self, monkeypatch):
        # one global gradient per step plus the one that stops the descent:
        # the report costs no oracle call of its own
        calls = []
        inner = LogisticEnsemble.global_gradient
        monkeypatch.setattr(LogisticEnsemble, "global_gradient",
                            lambda self, x: calls.append(1) or inner(self, x))
        prob = tiny_logistic(l2=0.5)
        report = prob.optimum_report()
        assert report["method"] == "gradient-descent"
        assert len(calls) == report["steps"] + 1 and report["steps"] > 0
        assert report["grad_norm"] == float(np.linalg.norm(prob.global_gradient(prob.w_star)))
        assert report["grad_norm"] <= 1e-10
        assert prob.optimum_report() == report and len(calls) == report["steps"] + 2

    def test_quadratic_optimum_report_is_the_solve_residual(self):
        prob = heterogeneous_quadratic(3, 4, seed=2)
        report = prob.optimum_report()
        total = prob.curvatures.sum(axis=0)
        rhs = np.einsum("mij,mj->i", prob.curvatures, prob.centers)
        assert report == {"method": "solve",
                          "residual": float(np.linalg.norm(total @ prob.w_star - rhs))}

    def test_unregularized_optimum_is_degenerate(self):
        prob = tiny_logistic(l2=0.0)
        with pytest.raises(DegenerateProblemError):
            _ = prob.w_star

    def test_infinite_smoothness_optimum_is_degenerate_at_once(self):
        # features too large to square: the step 1/L would be 0 and the
        # oracle would spin to its iteration cap
        prob = LogisticEnsemble((np.array([[1e200, 0.0], [0.0, -1e200]]),), (np.array([0, 1]),),
                                num_classes=2, l2=0.1)
        assert prob.smoothness() == math.inf
        with pytest.raises(DegenerateProblemError, match="smoothness"):
            _ = prob.w_star

    def test_reference_point_short_circuits_the_oracle(self):
        ref = np.full(6, 0.25)
        prob = LogisticEnsemble(
            features=(np.array([[1.0, 2.0]]), np.array([[0.0, 1.0]])),
            labels=(np.array([0]), np.array([2])),
            num_classes=3,
            l2=0.0,
            reference_point=ref,
        )
        np.testing.assert_array_equal(prob.w_star, ref)
        assert prob.f_star == pytest.approx(prob.global_value(ref), rel=1e-15)

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            LogisticEnsemble((), (), num_classes=2)
        with pytest.raises(ValueError):
            LogisticEnsemble((np.zeros((2, 3)),), (np.array([0, 2]),), num_classes=2)
        with pytest.raises(ValueError):
            LogisticEnsemble((np.zeros((2, 3)),), (np.array([0]),), num_classes=2)
        with pytest.raises(ValueError):
            LogisticEnsemble((np.zeros((2, 3)),), (np.array([0, 1]),), num_classes=1)
        # a feature block that is not 2-D, first or later, is named before any width is read
        for feats in [(np.zeros(3),), (np.zeros(3), np.zeros((2, 3))),
                      (np.zeros((2, 3)), np.zeros(3)), (np.zeros((1, 2, 3)),)]:
            with pytest.raises(ValueError, match="2-D"):
                LogisticEnsemble(feats, tuple(np.zeros(len(f), dtype=np.int64) for f in feats), 2)
        with pytest.raises(ValueError, match="labels shape"):
            LogisticEnsemble((np.zeros((3, 2)),), (np.zeros(2, dtype=np.int64),), 2)


class TestScalarBounds:
    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 1000),
        scale=st.floats(0.1, 10.0),
    )
    def test_growth_bound_holds_on_random_probes(self, seed, scale):
        prob = heterogeneous_quadratic(4, 5, eig_range=(0.4, 1.5), seed=seed % 17)
        rng = np.random.default_rng(seed)
        point = prob.w_star + scale * rng.standard_normal(5)
        ok, slack = prob.check_growth_bound(point)
        assert ok and slack >= -1e-9

    def test_growth_bound_holds_for_logistic(self):
        prob = tiny_logistic(l2=0.5)
        rng = np.random.default_rng(3)
        for _ in range(20):
            ok, slack = prob.check_growth_bound(rng.standard_normal(6))
            assert ok and slack >= -1e-9

    def test_dissimilarity_probe_at_optimum_recovers_gstar(self):
        prob = two_machine_quadratic()
        est = prob.g_dissimilarity(prob.w_star[None, :])
        assert est == pytest.approx(prob.gstar(), rel=1e-12)

    def test_dissimilarity_is_monotone_in_probe_set(self):
        prob = two_machine_quadratic()
        rng = np.random.default_rng(4)
        probes = rng.standard_normal((6, 2))
        small = prob.g_dissimilarity(probes[:2])
        large = prob.g_dissimilarity(probes)
        assert large >= small


class TestBatchedOracle:
    """The batched oracle the runners use must reproduce the per-machine
    reference oracle bit for bit, at per-lane, per-machine query points."""

    @pytest.mark.parametrize("sigma", [0.0, 0.7])
    def test_quadratic_matches_round_sampler_bitwise(self, sigma):
        prob = heterogeneous_quadratic(5, 7, sigma=sigma, seed=2)
        points = np.random.default_rng(0).standard_normal((3, 5, 7))  # lanes, machines, d
        draws = prob.round_draws([4], 2, 6)
        if sigma == 0.0:
            assert draws is None
        else:
            assert draws.shape == (1, 5, 6, 7)
        for k in range(6):
            got = prob.sampled_gradients(points, draws, k, np.zeros(3, dtype=int))
            assert got.shape == points.shape
            for i in range(5):
                sample = prob.round_sampler(4, i, 2, 6)
                for lane in range(3):
                    np.testing.assert_array_equal(got[lane, i], sample(k, points[lane, i]))

    def test_logistic_unequal_machine_sizes_matches_round_sampler_bitwise(self):
        rng = np.random.default_rng(3)
        sizes = (3, 11, 6)
        prob = LogisticEnsemble(
            features=tuple(rng.standard_normal((n, 4)) for n in sizes),
            labels=tuple(rng.integers(0, 5, n) for n in sizes),
            num_classes=5,
            l2=0.05,
        )
        points = 2.0 * rng.standard_normal((4, 3, prob.dim))
        draws = prob.round_draws([7], 1, 9)
        assert draws.shape == (1, 3, 9)
        for k in range(9):
            got = prob.sampled_gradients(points, draws, k, np.zeros(4, dtype=int))
            assert got.shape == points.shape
            for i in range(3):
                sample = prob.round_sampler(7, i, 1, 9)
                for lane in range(4):
                    np.testing.assert_array_equal(got[lane, i], sample(k, points[lane, i]))

    @pytest.mark.parametrize("case", range(3), ids=["quadratic", "softmax-2", "softmax-4"])
    def test_per_lane_seed_draws_match_round_sampler_bitwise(self, case):
        # a stack of three seeds' draws; each lane gathers its seed's rows
        prob = lane_problems(5, 8, seed=4)[case]
        seeds = [6, 2, 9]
        draws = prob.round_draws(seeds, 3, 4)
        for row, seed in enumerate(seeds):
            np.testing.assert_array_equal(draws[row], prob.round_draws([seed], 3, 4)[0])
        lanes = np.array([2, 0, 2, 1, 0, 1, 2])
        points = 2.0 * np.random.default_rng(case).standard_normal((7, 5, 8))
        for k in range(4):
            got = prob.sampled_gradients(points, draws, k, lanes)
            assert got.shape == points.shape
            for lane, row in enumerate(lanes):
                for i in range(5):
                    sample = prob.round_sampler(seeds[row], i, 3, 4)
                    np.testing.assert_array_equal(got[lane, i], sample(k, points[lane, i]))

    def test_exact_gradients_rows_match_bitwise(self):
        quad = heterogeneous_quadratic(4, 5, seed=6)
        rng = np.random.default_rng(8)
        pts = rng.standard_normal((4, 5))
        got = quad.exact_gradients(pts)
        for i in range(4):
            np.testing.assert_array_equal(got[i], quad.exact_gradient(i, pts[i]))
        sizes = (2, 9)
        logistic = LogisticEnsemble(
            features=tuple(rng.standard_normal((n, 3)) for n in sizes),
            labels=tuple(rng.integers(0, 3, n) for n in sizes),
            num_classes=3,
            l2=0.1,
        )
        pts = rng.standard_normal((2, logistic.dim))
        got = logistic.exact_gradients(pts)
        for i in range(2):
            np.testing.assert_array_equal(got[i], logistic.exact_gradient(i, pts[i]))
        # with leading lane axes, every lane's rows match too
        for lanes, m, d in LANE_SHAPES:
            points = 3.0 * rng.standard_normal((lanes, m, d))
            for prob in lane_problems(m, d, seed=m):
                got = prob.exact_gradients(points)
                assert got.shape == points.shape
                for lane in range(lanes):
                    for i in range(m):
                        np.testing.assert_array_equal(got[lane, i],
                                                      prob.exact_gradient(i, points[lane, i]))

    @pytest.mark.parametrize("lanes,m,d", LANE_SHAPES)
    def test_global_value_lanes_match_single_calls(self, lanes, m, d):
        points = 3.0 * np.random.default_rng(lanes * d + m).standard_normal((lanes, d))
        for prob in lane_problems(m, d, seed=m + d):
            got = prob.global_value(points)
            assert got.shape == (lanes,)
            for lane in range(lanes):
                single = prob.global_value(points[lane])
                assert isinstance(single, float)
                assert got[lane] == single
                if isinstance(prob, QuadraticEnsemble):
                    diff = points[lane][None, :] - prob.centers
                    want = 0.5 * np.einsum("mi,mij,mj->m", diff, prob.curvatures, diff)
                else:
                    want = np.array([prob.machine_value(i, points[lane]) for i in range(m)])
                assert single == float(want.mean())

    @pytest.mark.parametrize("lanes,m,d", LANE_SHAPES)
    def test_global_gradient_lanes_match_single_calls(self, lanes, m, d):
        points = 3.0 * np.random.default_rng(lanes + m + d).standard_normal((lanes, d))
        for prob in lane_problems(m, d, seed=d):
            got = prob.global_gradient(points)
            assert got.shape == (lanes, d)
            for lane in range(lanes):
                single = prob.global_gradient(points[lane])
                np.testing.assert_array_equal(got[lane], single)
                if isinstance(prob, QuadraticEnsemble):
                    want = np.einsum("mij,mj->i", prob.curvatures,
                                     points[lane][None, :] - prob.centers) / m
                else:
                    want = np.zeros(d)
                    for i in range(m):
                        want += prob.exact_gradient(i, points[lane])
                    want /= m
                np.testing.assert_array_equal(single, want)


def _reduce_max(a):
    return a.max(axis=-1, keepdims=True)


def _reduce_sum(a):
    return a.sum(axis=-1, keepdims=True)


def _reference_log_softmax(logits):
    """The log-softmax as numpy's reduces compute it."""
    peak = _reduce_max(logits)
    return logits - (peak + np.log(_reduce_sum(np.exp(logits - peak))))


def one_example_logistic(sizes, features, num_classes, seed):
    rng = np.random.default_rng(seed)
    return LogisticEnsemble(
        features=tuple(rng.standard_normal((n, features)) for n in sizes),
        labels=tuple(rng.integers(0, num_classes, n) for n in sizes),
        num_classes=num_classes,
        l2=0.05,
    )


class TestClassReductions:
    """The class-axis helpers must give numpy's own reduce bytes: the max
    chains columns at every class count, the sum below the 8-wide pairwise
    block and through the reduce itself from 8."""

    SPECIALS = np.array([np.inf, -np.inf, 1e308, -1e308, 5e-324, -5e-324, 2.5e-310,
                         -800.0, -746.0, -745.5, 3.0, 3.0, -3.0])

    @pytest.mark.parametrize("lanes", [(1,), (20,), (2, 5)], ids=str)
    @pytest.mark.parametrize("num_classes", [2, 3, 4, 7, 8, 10])
    def test_helpers_match_numpy_reduce_bytewise(self, num_classes, lanes):
        rng = np.random.default_rng(num_classes * 31 + len(lanes))
        for trial in range(8):
            shape = lanes + (33, num_classes)
            a = rng.standard_normal(shape) * 10.0 ** rng.integers(-4, 5, shape)
            # ties: whole rows of one value, and repeated specials
            a[..., 0, :] = 2.0
            special = rng.random(shape) < 0.3
            a[special] = rng.choice(self.SPECIALS, int(special.sum()))
            with np.errstate(invalid="ignore", over="ignore"):
                assert _class_max(a).tobytes() == _reduce_max(a).tobytes()
                assert _class_sum(a).tobytes() == _reduce_sum(a).tobytes()
                assert _log_softmax(a).tobytes() == _reference_log_softmax(a).tobytes()

    @pytest.mark.parametrize("num_classes", [2, 3, 4, 7, 8, 10])
    def test_zero_signs_leave_log_softmax_bytes_unchanged(self, num_classes):
        # mixed-sign zeros are where a chained peak may pick the other zero;
        # the shifted logits then differ in zero sign only, and exp of
        # either is 1, so the log-probabilities keep numpy's bytes
        rows = np.array([[-0.0, 0.0] * num_classes, [0.0, -0.0] * num_classes,
                         [-0.0] * (2 * num_classes), [-0.0, -5.0] * num_classes,
                         [-800.0, -0.0] * num_classes])[:, :num_classes]
        np.testing.assert_array_equal(_class_max(rows), _reduce_max(rows))
        assert _log_softmax(rows).tobytes() == _reference_log_softmax(rows).tobytes()
        # the oracle at W = 0 on a row whose features are all negative
        feats = -np.arange(1.0, 4.0)[None, :]
        prob = LogisticEnsemble((feats,), (np.array([0]),), num_classes)
        for mats in (np.zeros((num_classes, 3)), np.full((num_classes, 3), -0.0)):
            logits = feats @ mats.T
            assert prob._log_probs(0, mats).tobytes() == _reference_log_softmax(logits).tobytes()

    @pytest.mark.parametrize("num_classes", [2, 3, 4, 8, 10])
    def test_nan_rows_stay_nan_where_numpy_puts_nan(self, num_classes):
        # a row holding NaNs of both signs may shift by another NaN than
        # numpy's reduce picks, so only a NaN's sign bit can differ: every
        # entry is NaN exactly where numpy's is, and every other entry keeps
        # its bytes (round closes write non-finite values as inf anyway)
        nan = np.nan
        values = [nan, -nan, 0.0, -0.0, 1.0, -2.0]
        if num_classes <= 4:
            rows = np.array(list(itertools.product(values, repeat=num_classes)))
        else:
            rows = np.random.default_rng(num_classes).choice(values, (5000, num_classes))
        with np.errstate(invalid="ignore"):
            got, want = _log_softmax(rows), _reference_log_softmax(rows)
        np.testing.assert_array_equal(np.isnan(got), np.isnan(want))
        finite = ~np.isnan(want)
        assert got[finite].tobytes() == want[finite].tobytes()


ONE_POINT_CASES = {
    # machines holding a single example take another BLAS path when pooled
    "one-example": ((1, 15, 20), 2, 3),
    # one feature: the logits are outer products
    "feature-dim-1": ((1, 4, 7, 2), 1, 4),
    # ten classes take numpy's pairwise sum
    "ten-classes": ((3, 1, 12, 30), 5, 10),
}


class TestPooledOnePoint:
    """A one-point global_value/global_gradient runs one log-softmax over
    the pooled rows; it must keep the bytes of its row of a lane call and
    of the per-machine oracle sum."""

    @pytest.mark.parametrize("case", sorted(ONE_POINT_CASES))
    def test_one_point_equals_lane_row_and_machine_sum(self, case):
        sizes, features, num_classes = ONE_POINT_CASES[case]
        prob = one_example_logistic(sizes, features, num_classes, seed=len(case))
        m = len(sizes)
        rng = np.random.default_rng(5)
        points = 3.0 * rng.standard_normal((20, prob.dim))
        points[0] = 0.0
        for lanes in (points, points[:10].reshape(2, 5, prob.dim)):
            values = prob.global_value(lanes)
            grads = prob.global_gradient(lanes)
            for idx in np.ndindex(lanes.shape[:-1]):
                x = lanes[idx]
                value = prob.global_value(x)
                assert isinstance(value, float)
                assert value == values[idx]
                assert value == float(np.array([prob.machine_value(i, x) for i in range(m)]).mean())
                grad = prob.global_gradient(x)
                np.testing.assert_array_equal(grad, grads[idx])
                want = np.zeros(prob.dim)
                for i in range(m):
                    want += prob.exact_gradient(i, x)
                np.testing.assert_array_equal(grad, want / m)
