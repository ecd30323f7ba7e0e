import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from followsim import (
    ChannelController,
    ControlCommand,
    ExpFilter,
    PidConfig,
    PidState,
    VehicleParams,
    default_fuzzy_config,
    effort_to_pwm,
    exp_filter_step,
    pid_step,
    pwm_to_actuation,
)

PARAMS = VehicleParams()


class TestExpFilter:
    def test_alpha_one_is_identity(self):
        filt = ExpFilter(alpha=1.0, state=5.0)
        out, _ = exp_filter_step(filt, 2.5)
        assert out == 2.5

    def test_hand_recurrence(self):
        filt = ExpFilter(alpha=0.5)
        outs = []
        for _ in range(3):
            out, filt = exp_filter_step(filt, 1.0)
            outs.append(out)
        assert outs == [0.5, 0.75, 0.875]

    def test_constant_input_converges_monotonically(self):
        filt = ExpFilter(alpha=0.2, state=0.0)
        prev = 0.0
        for _ in range(100):
            out, filt = exp_filter_step(filt, 3.0)
            assert prev < out <= 3.0
            prev = out
        assert prev == pytest.approx(3.0, abs=1e-8)

    @pytest.mark.parametrize("alpha", [0.0, -0.5, 1.5])
    def test_alpha_bounds(self, alpha):
        with pytest.raises(ValueError):
            ExpFilter(alpha=alpha)


class TestEffortToPwm:
    def test_zero_effort_is_neutral(self):
        assert effort_to_pwm(0.0) == 90.0

    def test_saturation(self):
        assert effort_to_pwm(1e9) == 180.0
        assert effort_to_pwm(-1e9) == 0.0

    @given(e=st.floats(-1.0, 1.0))
    def test_symmetry_about_neutral(self, e):
        assert effort_to_pwm(e) - 90.0 == pytest.approx(-(effort_to_pwm(-e) - 90.0), abs=1e-12)


class TestPwmToActuation:
    def test_neutral(self):
        assert pwm_to_actuation(ControlCommand(90.0, 90.0), PARAMS) == (0.0, 0.0)

    def test_full_scale(self):
        steer, speed = pwm_to_actuation(ControlCommand(180.0, 180.0), PARAMS)
        assert steer == PARAMS.max_steer_angle
        assert speed == PARAMS.max_speed

    def test_braking_region_floors_at_zero(self):
        steer, speed = pwm_to_actuation(ControlCommand(90.0, 45.0), PARAMS)
        assert (steer, speed) == (0.0, 0.0)

    def test_round_trip_neutral(self):
        assert pwm_to_actuation(
            ControlCommand(effort_to_pwm(0.0), effort_to_pwm(0.0)), PARAMS
        ) == (0.0, 0.0)

    def test_command_validation(self):
        with pytest.raises(ValueError):
            ControlCommand(181.0, 90.0)
        with pytest.raises(ValueError):
            ControlCommand(90.0, -1.0)


class TestChannelController:
    def test_pid_first_step_has_no_derivative_kick(self):
        ctrl = ChannelController(
            "pid", pid_config=PidConfig(kp=0.0, ki=0.0, kd=100.0, output_limit=10.0)
        )
        # huge first measurement: the seeded previous sample suppresses the kick
        assert ctrl.update(0.0, 1e6, 0.02) == 90.0

    def test_fuzzy_first_step_zero_delta(self):
        ctrl = ChannelController("fuzzy", fuzzy_config=default_fuzzy_config(1.0, 1.0))
        assert ctrl.update(0.0, 0.0, 0.02) == pytest.approx(90.0, abs=1e-9)

    def test_filter_smooths_output(self):
        raw = ChannelController(
            "pid", pid_config=PidConfig(kp=1.0, ki=0.0, kd=0.0)
        )
        filtered = ChannelController(
            "pid", pid_config=PidConfig(kp=1.0, ki=0.0, kd=0.0), filter_alpha=0.3
        )
        raw_pwm = raw.update(0.5, 0.0, 0.02)
        filt_pwm = filtered.update(0.5, 0.0, 0.02)
        assert abs(filt_pwm - 90.0) < abs(raw_pwm - 90.0)

    def test_ops_fuzzy_exceed_pid(self):
        pid = ChannelController("pid", pid_config=PidConfig(kp=1.0, ki=0.1, kd=0.01))
        fuzzy = ChannelController("fuzzy", fuzzy_config=default_fuzzy_config(1.0, 1.0))
        assert fuzzy.ops_per_step > pid.ops_per_step

    def test_filter_adds_ops(self):
        plain = ChannelController("pid", pid_config=PidConfig(kp=1.0, ki=0.1, kd=0.01))
        filt = ChannelController(
            "pid", pid_config=PidConfig(kp=1.0, ki=0.1, kd=0.01), filter_alpha=0.3
        )
        assert filt.ops_per_step == plain.ops_per_step + 4

    def test_state_is_one_value_seeded_by_first_update(self):
        config = PidConfig(kp=1.0, ki=0.5, kd=0.1)
        pid = ChannelController("pid", pid_config=config)
        fuzzy = ChannelController("fuzzy", fuzzy_config=default_fuzzy_config(1.0, 1.0))
        assert pid.state is None and fuzzy.state is None
        pid.update(0.5, 3.0, 0.02)
        fuzzy.update(0.25, 0.0, 0.02)
        _, expected = pid_step(config, PidState(prev_measurement=3.0), 0.5, 3.0, 0.02)
        assert pid.state == expected
        assert fuzzy.state == 0.25

    def test_config_requirements(self):
        with pytest.raises(ValueError):
            ChannelController("pid")
        with pytest.raises(ValueError):
            ChannelController("fuzzy")
        with pytest.raises(ValueError):
            ChannelController("bang-bang", pid_config=PidConfig(kp=1, ki=0, kd=0))

    @given(
        errors=st.lists(st.floats(-500, 500), min_size=1, max_size=20),
        kind=st.sampled_from(["pid", "fuzzy"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_pwm_always_in_range(self, errors, kind):
        ctrl = ChannelController(
            kind,
            pid_config=PidConfig(kp=0.05, ki=0.01, kd=0.001),
            fuzzy_config=default_fuzzy_config(160.0, 600.0),
            filter_alpha=0.3,
        )
        for e in errors:
            pwm = ctrl.update(e, e, 0.02)
            assert 0.0 <= pwm <= 180.0
