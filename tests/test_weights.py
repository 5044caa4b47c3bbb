"""Weight schedules: frozen oracle values and algebraic properties."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slowcal_lab.weights import (
    LINEAR,
    UNIFORM,
    WeightSchedule,
    averaging_coeff,
    parse_schedule,
    prefix_weight,
    weight_at,
)

POLY2 = WeightSchedule("polynomial", 2.0)
POLY_HALF = WeightSchedule("polynomial", 0.5)


class TestWeightAt:
    def test_linear_is_step_plus_one(self):
        assert weight_at(LINEAR, 4) == 5.0
        assert weight_at(LINEAR, 0) == 1.0

    def test_uniform_is_one_everywhere(self):
        assert all(weight_at(UNIFORM, t) == 1.0 for t in (0, 1, 17, 10_000))

    def test_polynomial_examples(self):
        assert weight_at(POLY2, 2) == 9.0
        assert weight_at(POLY_HALF, 3) == 2.0

    def test_negative_step_rejected(self):
        with pytest.raises(ValueError):
            weight_at(LINEAR, -1)


class TestPrefixWeight:
    def test_linear_examples(self):
        assert prefix_weight(LINEAR, 3) == 10.0
        assert prefix_weight(LINEAR, 100) == 5151.0

    def test_uniform_counts_steps(self):
        assert prefix_weight(UNIFORM, 9) == 10.0

    def test_poly2_example(self):
        # 1 + 4 + 9 + 16
        assert prefix_weight(POLY2, 3) == 30.0

    def test_linear_closed_form_exact_at_large_t(self):
        t = 10 ** 6
        assert prefix_weight(LINEAR, t) == (t + 1) * (t + 2) / 2
        assert prefix_weight(LINEAR, t) - prefix_weight(LINEAR, t - 1) == weight_at(LINEAR, t)

    def test_negative_step_rejected(self):
        with pytest.raises(ValueError):
            prefix_weight(UNIFORM, -3)


class TestAveragingCoeff:
    def test_first_fold_linear(self):
        assert averaging_coeff(LINEAR, 0) == pytest.approx(2.0 / 3.0, abs=0, rel=1e-15)

    def test_first_fold_uniform(self):
        assert averaging_coeff(UNIFORM, 0) == 0.5

    def test_late_linear_value(self):
        # alpha_998 / alpha_{0:998} = 999 / 499500 = 1/500
        assert averaging_coeff(LINEAR, 997) == 0.002


class TestParsing:
    @pytest.mark.parametrize("text, kind, power", [
        ("uniform", "uniform", 0.0),
        ("linear", "linear", 0.0),
        ("poly:2", "polynomial", 2.0),
        ("poly:0.5", "polynomial", 0.5),
    ])
    def test_parse_round_trip(self, text, kind, power):
        schedule = parse_schedule(text)
        assert schedule.kind == kind
        if kind == "polynomial":
            assert schedule.power == power

    @pytest.mark.parametrize("bad", ["", "quadratic", "poly:", "poly:abc", "linear2", "poly:nan",
                                     "poly:inf", "poly:-inf"])
    def test_parse_rejects_junk(self, bad):
        with pytest.raises(ValueError):
            parse_schedule(bad)

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError):
            WeightSchedule("exponential")

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            WeightSchedule("polynomial", -1.0)


@given(t=st.integers(min_value=1, max_value=10 ** 6))
def test_prefix_diff_identity_exact_for_closed_forms(t):
    """For the closed-form schedules the prefix sums are integers below
    2**53, so the telescoping identity holds with zero float error."""
    for schedule in (UNIFORM, LINEAR):
        assert prefix_weight(schedule, t) - prefix_weight(schedule, t - 1) == weight_at(schedule, t)


@settings(deadline=None)
@given(
    power=st.floats(min_value=0.1, max_value=4.0, allow_nan=False),
    t=st.integers(min_value=1, max_value=5_000),
)
def test_prefix_diff_identity_general_power(power, t):
    """General powers use compensated summation; the telescoping residual
    stays within 1e-12 of the prefix magnitude."""
    schedule = WeightSchedule("polynomial", power)
    prefix = prefix_weight(schedule, t)
    residual = abs(prefix - prefix_weight(schedule, t - 1) - weight_at(schedule, t))
    assert residual <= 1e-12 * prefix


@settings(deadline=None)
@given(
    power=st.floats(min_value=0.0, max_value=4.0, allow_nan=False),
    t=st.integers(min_value=0, max_value=2_000),
)
def test_positivity_and_monotonicity(power, t):
    schedule = WeightSchedule("polynomial", power)
    assert weight_at(schedule, t) > 0
    assert prefix_weight(schedule, t) > 0
    if t > 0:
        assert prefix_weight(schedule, t) > prefix_weight(schedule, t - 1)
    gamma = averaging_coeff(schedule, t)
    assert 0.0 < gamma < 1.0


@settings(deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
    length=st.integers(min_value=2, max_value=60),
    power=st.sampled_from([0.0, 0.5, 1.0, 2.0]),
)
def test_fold_reproduces_explicit_weighted_average(seed, length, power):
    """Folding gamma_{t+1} step by step equals the explicit weighted mean of
    the whole sequence to 1e-10, for any inputs."""
    schedule = WeightSchedule("polynomial", power)
    values = np.random.default_rng(seed).standard_normal(length)
    folded = values[0]
    numer = weight_at(schedule, 0) * values[0]
    for t in range(length - 1):
        gamma = averaging_coeff(schedule, t)
        folded = (1.0 - gamma) * folded + gamma * values[t + 1]
        numer += weight_at(schedule, t + 1) * values[t + 1]
        explicit = numer / prefix_weight(schedule, t + 1)
        assert abs(folded - explicit) <= 1e-10
