import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from conftest import overflowing_pid_config
from followsim import (
    ChannelController,
    PidConfig,
    PidState,
    VehicleParams,
    default_fuzzy_config,
    effort_to_pwm,
    pid_step,
    pwm_to_actuation,
)

PARAMS = VehicleParams()
UNIT_P = PidConfig(kp=1.0, ki=0.0, kd=0.0, output_limit=2.0, integral_limit=1.0)


def filtered_channel(alpha):
    """A pid channel whose effort is its error, so its PWM shows the filter."""
    return ChannelController(UNIT_P, filter_alpha=alpha)


class TestExpFilter:
    def test_alpha_one_is_identity(self):
        plain = ChannelController(UNIT_P)
        filt = filtered_channel(1.0)
        for error in (0.25, -0.5, 0.75):
            assert filt.update(error, 0.0, 0.02) == plain.update(error, 0.0, 0.02)

    def test_hand_recurrence(self):
        filt = filtered_channel(0.5)
        # efforts 0.5, 0.75, 0.875 from a 0.0 start, 90 PWM per unit effort
        assert [filt.update(1.0, 0.0, 0.02) for _ in range(3)] == [135.0, 157.5, 168.75]

    def test_constant_input_converges_monotonically(self):
        filt = filtered_channel(0.2)
        prev = 90.0
        for _ in range(100):
            pwm = filt.update(0.5, 0.0, 0.02)
            assert prev < pwm <= 135.0
            prev = pwm
        assert prev == pytest.approx(135.0, abs=1e-6)

    @pytest.mark.parametrize("alpha", [0.0, -0.5, 1.5])
    def test_alpha_bounds(self, alpha):
        with pytest.raises(ValueError, match=r"^alpha must be in \(0, 1\]$"):
            filtered_channel(alpha)


class TestEffortToPwm:
    def test_zero_effort_is_neutral(self):
        assert effort_to_pwm(0.0) == 90.0

    def test_saturation(self):
        assert effort_to_pwm(1e9) == 180.0
        assert effort_to_pwm(-1e9) == 0.0
        assert effort_to_pwm(math.inf) == 180.0
        assert effort_to_pwm(-math.inf) == 0.0

    def test_nan_effort_rejected(self):
        with pytest.raises(ValueError, match="^controller effort is NaN$"):
            effort_to_pwm(math.nan)
        config = overflowing_pid_config(PidConfig(kp=0.0, ki=0.0, kd=0.0))
        ctrl = ChannelController(config)
        assert ctrl.update(10.0, 1.0, 0.02) == 180.0
        # kp*error and kd*derivative both overflow to +inf: inf - inf is NaN
        with pytest.raises(ValueError, match="^controller effort is NaN$"):
            ctrl.update(10.0, 2.0, 0.02)

    @given(e=st.floats(-1.0, 1.0))
    def test_symmetry_about_neutral(self, e):
        assert effort_to_pwm(e) - 90.0 == pytest.approx(-(effort_to_pwm(-e) - 90.0), abs=1e-12)


class TestPwmToActuation:
    def test_neutral(self):
        assert pwm_to_actuation(90.0, 90.0, PARAMS) == (0.0, 0.0)

    def test_full_scale(self):
        steer, speed = pwm_to_actuation(180.0, 180.0, PARAMS)
        assert steer == PARAMS.max_steer_angle
        assert speed == PARAMS.max_speed

    def test_braking_region_floors_at_zero(self):
        steer, speed = pwm_to_actuation(90.0, 45.0, PARAMS)
        assert (steer, speed) == (0.0, 0.0)

    def test_round_trip_neutral(self):
        assert pwm_to_actuation(effort_to_pwm(0.0), effort_to_pwm(0.0), PARAMS) == (0.0, 0.0)


class TestChannelController:
    def test_pid_first_step_has_no_derivative_kick(self):
        ctrl = ChannelController(PidConfig(kp=0.0, ki=0.0, kd=100.0, output_limit=10.0))
        # huge first measurement: the seeded previous sample suppresses the kick
        assert ctrl.update(0.0, 1e6, 0.02) == 90.0

    def test_fuzzy_first_step_zero_delta(self):
        ctrl = ChannelController(default_fuzzy_config(1.0, 1.0))
        assert ctrl.update(0.0, 0.0, 0.02) == pytest.approx(90.0, abs=1e-9)

    def test_filter_smooths_output(self):
        raw = ChannelController(PidConfig(kp=1.0, ki=0.0, kd=0.0))
        filtered = ChannelController(PidConfig(kp=1.0, ki=0.0, kd=0.0), filter_alpha=0.3)
        raw_pwm = raw.update(0.5, 0.0, 0.02)
        filt_pwm = filtered.update(0.5, 0.0, 0.02)
        assert abs(filt_pwm - 90.0) < abs(raw_pwm - 90.0)

    def test_ops_fuzzy_exceed_pid(self):
        pid = ChannelController(PidConfig(kp=1.0, ki=0.1, kd=0.01))
        fuzzy = ChannelController(default_fuzzy_config(1.0, 1.0))
        assert fuzzy.ops_per_step > pid.ops_per_step

    def test_filter_adds_ops(self):
        plain = ChannelController(PidConfig(kp=1.0, ki=0.1, kd=0.01))
        filt = ChannelController(PidConfig(kp=1.0, ki=0.1, kd=0.01), filter_alpha=0.3)
        assert filt.ops_per_step == plain.ops_per_step + 4

    def test_state_is_one_value_seeded_by_first_update(self):
        config = PidConfig(kp=1.0, ki=0.5, kd=0.1)
        pid = ChannelController(config)
        fuzzy = ChannelController(default_fuzzy_config(1.0, 1.0))
        assert pid.state is None and fuzzy.state is None
        pid.update(0.5, 3.0, 0.02)
        fuzzy.update(0.25, 0.0, 0.02)
        _, expected = pid_step(config, PidState(prev_measurement=3.0), 0.5, 3.0, 0.02)
        assert pid.state == expected
        assert fuzzy.state == 0.25

    def test_kind_comes_from_the_config(self):
        assert ChannelController(PidConfig(kp=1.0, ki=0.0, kd=0.0)).kind == "pid"
        assert ChannelController(default_fuzzy_config(1.0, 1.0)).kind == "fuzzy"

    @pytest.mark.parametrize("config", ["pid", None, PidState(prev_measurement=0.0)])
    def test_rejects_a_non_config(self, config):
        with pytest.raises(ValueError, match="^a channel runs a PidConfig or a FuzzyConfig, not a "):
            ChannelController(config)

    @given(
        errors=st.lists(st.floats(-500, 500), min_size=1, max_size=20),
        kind=st.sampled_from(["pid", "fuzzy"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_pwm_always_in_range(self, errors, kind):
        configs = {"pid": PidConfig(kp=0.05, ki=0.01, kd=0.001),
                   "fuzzy": default_fuzzy_config(160.0, 600.0)}
        ctrl = ChannelController(configs[kind], filter_alpha=0.3)
        for e in errors:
            pwm = ctrl.update(e, e, 0.02)
            assert 0.0 <= pwm <= 180.0


_finite = st.floats(-1e3, 1e3, allow_nan=False)


@given(
    kind=st.sampled_from(["pid", "fuzzy"]),
    gains=st.tuples(st.floats(0.0, 5.0), st.floats(0.0, 5.0), st.floats(0.0, 0.5)),
    spans=st.tuples(st.floats(1.0, 500.0), st.floats(1.0, 5000.0)),
    alpha=st.none() | st.floats(0.0, 1.0, exclude_min=True),
    samples=st.lists(st.tuples(_finite, _finite), min_size=1, max_size=30),
    dt=st.sampled_from([0.02, 0.01, 1.0 / 30.0]),
)
@settings(max_examples=150, deadline=None)
def test_channel_matches_frozen_filter_and_command_bit_for_bit(
    kind, gains, spans, alpha, samples, dt
):
    if kind == "pid":
        controller = PidConfig(*gains, output_limit=1.5, integral_limit=0.75)
    else:
        controller = default_fuzzy_config(*spans)
    channel = ChannelController(controller, alpha)
    model = reference.Channel(controller, alpha)
    assert channel.ops_per_step == model.ops_per_step
    for error, measurement in samples:
        got = channel.update(error, measurement, dt)
        assert got.hex() == model.update(error, measurement, dt).hex()


_signed_zero = st.sampled_from([0.0, -0.0])


# +-1 lands exactly on 0 and 180, +-inf saturates
@given(effort=_signed_zero | st.sampled_from([-1.0, 1.0, math.inf, -math.inf])
       | st.floats(-3.0, 3.0) | st.floats(allow_nan=False))
@settings(max_examples=300)
def test_effort_to_pwm_matches_frozen_bit_for_bit(effort):
    got = effort_to_pwm(effort)
    assert type(got) is float
    assert got.hex() == reference.effort_to_pwm(effort).hex()


# 90 is neutral (a +0.0 drive), 0 and 180 the ends of the scale
_pwm = _signed_zero | st.sampled_from([90.0, 180.0, math.nextafter(90.0, 0.0)]) | st.floats(
    -10.0, 190.0)


@given(steering=_pwm, throttle=_pwm)
@settings(max_examples=300)
def test_pwm_to_actuation_matches_frozen_bit_for_bit(steering, throttle):
    got = pwm_to_actuation(steering, throttle, PARAMS)
    assert type(got) is tuple and all(type(v) is float for v in got)
    assert [v.hex() for v in got] == [
        v.hex() for v in reference.pwm_to_actuation(steering, throttle, PARAMS)]
