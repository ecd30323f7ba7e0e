import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from followsim import PID_STEP_OPS, PidConfig, PidState, pid_step
from followsim.pid import MAX_GAIN


class TestPidStep:
    def test_proportional_only(self):
        config = PidConfig(kp=2.0, ki=0.0, kd=0.0, output_limit=100.0, integral_limit=1.0)
        effort, _ = pid_step(config, PidState(), error=3.0, measurement=0.0, dt=0.1)
        assert effort == 6.0

    def test_integral_accumulator_matches_hand_sum(self):
        config = PidConfig(kp=0.0, ki=1.0, kd=0.0, output_limit=100.0, integral_limit=100.0)
        state = PidState()
        running = 0.0
        for n in range(1, 11):
            effort, state = pid_step(config, state, error=1.0, measurement=0.0, dt=0.1)
            running += 0.1
            assert effort == pytest.approx(running, rel=1e-12)
            assert effort == pytest.approx(0.1 * n, rel=1e-12)

    def test_integral_clamp_pins_contribution(self):
        config = PidConfig(kp=0.0, ki=2.0, kd=0.0, output_limit=10.0, integral_limit=0.5)
        state = PidState()
        efforts = []
        for _ in range(100):
            effort, state = pid_step(config, state, error=5.0, measurement=0.0, dt=0.1)
            efforts.append(effort)
        assert efforts[-1] == pytest.approx(0.5, rel=1e-12)
        assert all(e <= 0.5 * (1 + 1e-12) for e in efforts)
        # once pinned, it stays pinned
        assert efforts[-1] == efforts[-5]

    def test_derivative_on_measurement_with_filter(self):
        config = PidConfig(kp=0.0, ki=0.0, kd=1.0, derivative_filter_alpha=0.5,
                           output_limit=100.0, integral_limit=1.0)
        state = PidState()
        # measurement ramps 0 -> 1 -> 2 at dt=1: raw derivative 1 after first step
        effort, state = pid_step(config, state, error=0.0, measurement=1.0, dt=1.0)
        assert effort == -0.5  # alpha*raw = 0.5*1
        effort, state = pid_step(config, state, error=0.0, measurement=2.0, dt=1.0)
        assert effort == -0.75  # 0.5*1 + 0.5*0.5

    def test_setpoint_step_does_not_kick_derivative(self):
        # error jumps but measurement is steady: kd must not react
        config = PidConfig(kp=0.0, ki=0.0, kd=5.0, output_limit=10.0, integral_limit=1.0)
        effort, _ = pid_step(config, PidState(prev_measurement=2.0), error=100.0,
                             measurement=2.0, dt=0.01)
        assert effort == 0.0

    def test_output_saturation(self):
        config = PidConfig(kp=1.0, ki=0.0, kd=0.0, output_limit=1.0, integral_limit=1.0)
        effort, _ = pid_step(config, PidState(), error=50.0, measurement=0.0, dt=0.1)
        assert effort == 1.0
        effort, _ = pid_step(config, PidState(), error=-50.0, measurement=0.0, dt=0.1)
        assert effort == -1.0

    def test_no_integration_when_ki_zero(self):
        config = PidConfig(kp=1.0, ki=0.0, kd=0.0, output_limit=10.0, integral_limit=1.0)
        state = PidState()
        for _ in range(5):
            _, state = pid_step(config, state, error=3.0, measurement=0.0, dt=0.1)
        assert state.integral == 0.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_rejected(self, bad):
        config = PidConfig(kp=1.0, ki=0.0, kd=0.0)
        with pytest.raises(ValueError):
            pid_step(config, PidState(), error=bad, measurement=0.0, dt=0.1)

    def test_zero_dt_rejected(self):
        config = PidConfig(kp=1.0, ki=0.0, kd=0.0)
        with pytest.raises(ValueError):
            pid_step(config, PidState(), error=1.0, measurement=0.0, dt=0.0)

    def test_linear_in_error_without_clamps(self):
        config = PidConfig(kp=0.7, ki=0.3, kd=0.0, output_limit=1e9, integral_limit=1e9)
        seq = [0.5, -1.0, 2.0, 0.25]

        def run(scale):
            state = PidState()
            outs = []
            for e in seq:
                out, state = pid_step(config, state, scale * e, 0.0, 0.05)
                outs.append(out)
            return outs

        ones = run(1.0)
        threes = run(3.0)
        for a, b in zip(ones, threes):
            assert b == pytest.approx(3.0 * a, rel=1e-12)


class TestPidConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(output_limit=0.0),
            dict(integral_limit=0.0),
            dict(integral_limit=2.0),  # above output_limit
            dict(derivative_filter_alpha=0.0),
            dict(derivative_filter_alpha=1.5),
            dict(kp=math.nan),
            dict(kd=-1e308),  # kd*derivative would overflow
            dict(ki=math.nextafter(MAX_GAIN, math.inf)),
        ],
    )
    def test_invalid_rejected(self, kwargs):
        base = dict(kp=1.0, ki=0.1, kd=0.01, output_limit=1.0, integral_limit=0.5)
        base.update(kwargs)
        with pytest.raises(ValueError):
            PidConfig(**base)

    @pytest.mark.parametrize("limit", [math.nan, 0.0, -1.0])
    def test_output_limit_message_names_output_limit(self, limit):
        with pytest.raises(ValueError, match="^output_limit must be positive$"):
            PidConfig(kp=1.0, ki=0.1, kd=0.01, output_limit=limit, integral_limit=0.5)


@given(
    kp=st.floats(0.0, 10.0),
    ki=st.floats(0.0, 10.0),
    kd=st.floats(0.0, 10.0),
    output_limit=st.floats(0.1, 100.0),
    frac=st.floats(0.01, 1.0),
    errors=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=30),
)
@settings(max_examples=300)
def test_effort_and_integral_always_bounded(kp, ki, kd, output_limit, frac, errors):
    config = PidConfig(kp=kp, ki=ki, kd=kd, output_limit=output_limit,
                       integral_limit=frac * output_limit)
    state = PidState()
    for e in errors:
        effort, state = pid_step(config, state, e, e * 0.5, 0.02)
        assert abs(effort) <= config.output_limit
        assert abs(config.ki * state.integral) <= config.integral_limit * (1 + 1e-12)


def test_op_count_is_positive_constant():
    assert isinstance(PID_STEP_OPS, int)
    assert PID_STEP_OPS > 0


def frozen_pid_step(config, state, error, measurement, dt):
    """pid_step before its clamps became comparisons and its state a bare
    tuple.__new__, kept verbatim as the bit-exact oracle."""
    if not (math.isfinite(error) and math.isfinite(measurement) and math.isfinite(dt)):
        raise ValueError("non-finite controller input")
    if dt <= 0:
        raise ValueError("dt must be positive")

    integral = state.integral
    if config.ki != 0.0:
        integral += error * dt
        bound = config.integral_limit / abs(config.ki)
        integral = min(max(integral, -bound), bound)

    raw_d = (measurement - state.prev_measurement) / dt
    alpha = config.derivative_filter_alpha
    filtered_d = alpha * raw_d + (1.0 - alpha) * state.filtered_derivative

    effort = config.kp * error + config.ki * integral - config.kd * filtered_d
    effort = min(max(effort, -config.output_limit), config.output_limit)
    return effort, PidState(integral, measurement, filtered_d)


def pid_bits(result):
    effort, state = result
    return effort.hex(), tuple(v.hex() for v in state)


_signed_zero = st.sampled_from([0.0, -0.0])


@st.composite
def pid_step_cases(draw):
    """(config, state, error, measurement, dt) with signed zeros everywhere,
    an integral that lands exactly on its bound and efforts exactly at, past
    and inside the output limit."""
    ki = draw(_signed_zero | st.sampled_from([1.0, -2.0]) | st.floats(-10.0, 10.0))
    output_limit = draw(st.sampled_from([1.0, 2.5]) | st.floats(0.1, 100.0))
    config = PidConfig(kp=draw(_signed_zero | st.just(1.0) | st.floats(-10.0, 10.0)), ki=ki,
                       kd=draw(_signed_zero | st.floats(-1.0, 1.0)), output_limit=output_limit,
                       integral_limit=draw(st.floats(0.01, 1.0)) * output_limit,
                       derivative_filter_alpha=draw(st.sampled_from([1.0, 0.4])
                                                    | st.floats(0.01, 1.0)))
    bound = config.integral_limit / abs(ki) if ki else 1.0
    # a zero error keeps an integral that sits on its bound there
    integral = draw(_signed_zero | st.sampled_from([bound, -bound]) | st.floats(-5.0, 5.0))
    error = draw(_signed_zero | st.sampled_from([output_limit, -output_limit, 1e6, -1e6])
                 | st.floats(-100.0, 100.0))
    measurement = draw(_signed_zero | st.floats(-100.0, 100.0))
    prev = draw(_signed_zero | st.just(measurement) | st.floats(-100.0, 100.0))
    state = PidState(integral, prev, draw(_signed_zero | st.floats(-10.0, 10.0)))
    return config, state, error, measurement, draw(st.sampled_from([0.02, 0.1]))


class TestPidStepAgainstFrozen:
    @given(pid_step_cases())
    @settings(max_examples=500, deadline=None)
    def test_matches_frozen_bit_for_bit(self, case):
        got = pid_step(*case)
        assert pid_bits(got) == pid_bits(frozen_pid_step(*case))
        assert type(got) is tuple and type(got[0]) is float and type(got[1]) is PidState

    def test_finite_inputs_whose_sum_overflows_pass(self):
        config = PidConfig(kp=1e-6, ki=0.1, kd=1e-6)
        state = PidState(0.0, 1e308, 0.0)
        args = (config, state, 1e308, 1e308, 0.02)
        assert not math.isfinite(1e308 + 1e308 + 0.02)
        assert pid_bits(pid_step(*args)) == pid_bits(frozen_pid_step(*args))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", ["error", "measurement", "dt"])
    def test_each_non_finite_input_rejected_beside_huge_ones(self, bad, where):
        args = {name: bad if name == where else 1e308 for name in ("error", "measurement", "dt")}
        with pytest.raises(ValueError, match=f"^non-finite controller input {where}$"):
            pid_step(PidConfig(kp=1.0, ki=0.1, kd=0.0), PidState(), **args)

    @pytest.mark.parametrize("bad", [("error", "dt"), ("measurement", "dt"),
                                     ("error", "measurement", "dt")])
    def test_first_non_finite_input_is_named(self, bad):
        args = {name: math.nan if name in bad else 1.0 for name in ("error", "measurement", "dt")}
        with pytest.raises(ValueError, match=f"^non-finite controller input {bad[0]}$"):
            pid_step(PidConfig(kp=1.0, ki=0.1, kd=0.0), PidState(), **args)


class TestStepTable:
    """PidConfig's step table holds what pid_step reads, built from the
    fields at first use, and takes no part in equality, hashing or repr."""

    @pytest.mark.parametrize("ki, bound", [(0.5, 0.4), (-2.0, 0.1), (0.0, None), (-0.0, None)])
    def test_table_holds_the_fields(self, ki, bound):
        config = PidConfig(kp=1.5, ki=ki, kd=0.25, output_limit=2.0, integral_limit=0.2,
                           derivative_filter_alpha=0.25)
        assert config.step_table == (1.5, ki, 0.25, bound, 0.25, 0.75, 2.0)

    def test_replace_steps_with_the_new_fields(self):
        config = PidConfig(kp=1.0, ki=0.5, kd=0.1, derivative_filter_alpha=0.4)
        state = PidState(0.3, 1.99, -0.5)
        before = pid_step(config, state, 0.7, 2.0, 0.02)  # builds the table
        for changes in (dict(kp=-0.5), dict(ki=0.0), dict(ki=-3.0), dict(kd=0.7),
                        dict(output_limit=0.2, integral_limit=0.1),
                        dict(derivative_filter_alpha=1.0)):
            case = (replace(config, **changes), state, 0.7, 2.0, 0.02)
            got = pid_step(*case)
            assert pid_bits(got) == pid_bits(frozen_pid_step(*case))
            assert pid_bits(got) != pid_bits(before), changes

    def test_table_is_outside_equality_hash_and_repr(self):
        built, fresh = PidConfig(1.0, 0.1, 0.0), PidConfig(1.0, 0.1, 0.0)
        pid_step(built, PidState(), 1.0, 0.0, 0.02)
        assert "step_table" in vars(built) and "step_table" not in vars(fresh)
        assert built == fresh and hash(built) == hash(fresh)
        assert repr(built) == repr(fresh) and "step_table" not in repr(built)
