import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference
from conftest import make_record, unknown_channel
from followsim import Trace, compare, format_report, objective_value, trace_metrics
from followsim.metrics import CHANNEL_COLUMNS, METRIC_FIELDS, control_effort_tv
from followsim.scenario import CHANNELS

# values that name no channel: a stray word, the old column vocabulary, a pair
NOT_CHANNELS = ("bogus_signal", "Steering", "pixel_error_x", "area_error", "steering_pwm",
                "follow_dist_m", ("pixel_error_x", "steering_pwm"), ["area_error", "throttle_pwm"])


def test_channel_columns_cover_the_scenario_channels():
    # metrics knows each channel's columns; the scenario, the CLI and tune name the channels
    assert tuple(CHANNEL_COLUMNS) == CHANNELS


def exp_trace(delta=100.0, duration=20.0, dt=0.01, t0=0.0):
    """Synthetic first-order error e = -delta*exp(-t) on pixel_error_x: a
    step of delta, from -delta to zero."""
    records = []
    steps = int(duration / dt)
    for k in range(steps):
        t = k * dt
        records.append(make_record(t0 + t, pixel_error_x=-delta * math.exp(-t)))
    return Trace("exp", records)


class TestStepMetrics:
    def test_rise_time_matches_closed_form(self):
        m = trace_metrics(exp_trace(), "steering")
        # 10%..90% of 1 - e^-t: ln(10/9) to ln(10), difference ln 9
        assert m.rise_time == pytest.approx(math.log(9.0), abs=0.02)

    def test_settling_time_matches_closed_form(self):
        m = trace_metrics(exp_trace(), "steering")
        # final sample ~ 0; leaves the 5% band when e^-t = 0.05
        assert m.settling_time == pytest.approx(math.log(20.0), abs=0.02)

    def test_monotone_trace_has_zero_overshoot(self):
        m = trace_metrics(exp_trace(), "steering")
        assert m.overshoot == 0.0

    def test_overshoot_measured_beyond_final(self):
        records = [make_record(0.0, pixel_error_x=-100.0)]
        records += [make_record(0.1, pixel_error_x=30.0)]
        records += [make_record(0.1 * k, pixel_error_x=0.0) for k in range(2, 40)]
        m = trace_metrics(Trace("os", records), "steering")
        assert m.overshoot == pytest.approx(30.0)

    def test_instantaneous_step_zero_rise(self):
        records = [make_record(0.0, pixel_error_x=-50.0)]
        records += [make_record(0.02 * k, pixel_error_x=0.0) for k in range(1, 30)]
        m = trace_metrics(Trace("jump", records), "steering")
        assert m.rise_time == 0.0

    def test_steady_state_error_is_tail_mean(self):
        records = [make_record(0.1 * k, pixel_error_x=10.0) for k in range(10)]
        m = trace_metrics(Trace("flat", records), "steering")
        assert m.steady_state_error == pytest.approx(10.0)

    def test_rms_zero_iff_signal_zero(self):
        zero = Trace("z", [make_record(0.1 * k) for k in range(10)])
        assert trace_metrics(zero, "steering").rms_error == 0.0
        nonzero = Trace("nz", [make_record(0.1 * k, pixel_error_x=(1.0 if k == 3 else 0.0))
                               for k in range(10)])
        assert trace_metrics(nonzero, "steering").rms_error > 0.0

    def test_control_effort_total_variation(self):
        pwm = [90.0, 100.0, 95.0, 95.0, 120.0]
        records = [make_record(0.1 * k, steering_pwm=v) for k, v in enumerate(pwm)]
        m = trace_metrics(Trace("tv", records), "steering")
        assert m.control_effort_tv == pytest.approx(10.0 + 5.0 + 0.0 + 25.0)
        # the throttle command drives the TV of the throttle channel
        m2 = trace_metrics(Trace("tv", records), "throttle")
        assert m2.control_effort_tv == 0.0

    def test_time_shift_invariance(self):
        a = trace_metrics(exp_trace(t0=0.0), "steering")
        b = trace_metrics(exp_trace(t0=123.0), "steering")
        for got, want in zip(b, a):
            assert got == pytest.approx(want, rel=1e-9, abs=1e-12)

    def test_short_traces_have_every_metric(self):
        for n in (1, 3):
            records = [make_record(0.1 * k, pixel_error_x=2.0) for k in range(n)]
            m = trace_metrics(Trace("short", records), "steering")
            assert math.isnan(m.rise_time)  # the trace never traverses the step
            assert m.settling_time == 0.0
            assert m.overshoot == 0.0
            assert m.steady_state_error == 2.0
            assert m.rms_error == 2.0
            assert m.control_effort_tv == 0.0

    @pytest.mark.parametrize("delta", [0.0, -0.0])
    def test_zero_delta_means_no_step(self, delta):
        # the error starts at -delta = -+0 and then moves: no step to traverse
        records = [make_record(0.0, pixel_error_x=-delta)] + exp_trace().records[1:]
        m = trace_metrics(Trace("exp", records), "steering")
        assert math.isnan(m.rise_time)
        assert math.isnan(m.settling_time)
        assert math.isnan(m.overshoot)

    @pytest.mark.parametrize("delta", [math.nan, math.inf, -math.inf])
    def test_non_finite_delta_rejected(self, delta):
        # the step is read from the first sample, so a non-finite one fails
        records = [make_record(0.0, area_error=-delta)]
        records += [make_record(0.1 * k) for k in range(1, 10)]
        with pytest.raises(ValueError, match="area_error starts at a non-finite value"):
            trace_metrics(Trace("bad", records), "throttle")

    def test_trace_metrics_without_delta_skips_step_fields(self):
        # a response that starts at zero (the old 0 -> delta form) has no step
        response = Trace("r", [make_record(r.t, pixel_error_x=100.0 + r.pixel_error_x)
                               for r in exp_trace().records])
        m = trace_metrics(response, "steering")
        assert math.isnan(m.rise_time)
        assert math.isnan(m.settling_time)
        assert math.isnan(m.overshoot)
        assert not math.isnan(m.rms_error)

    def test_empty_trace_rejected(self):
        # a header-only CSV reads back as a trace with no records
        with pytest.raises(ValueError, match="has no records"):
            trace_metrics(Trace("empty", []), "steering")
        with pytest.raises(ValueError, match="has no records"):
            objective_value(Trace("empty", []), "steering", "itae", 0.02)

    def test_unknown_channel_rejected(self):
        # a column, even a channel's own error column, is no channel
        for value in NOT_CHANNELS:
            with pytest.raises(ValueError, match=unknown_channel(value)):
                trace_metrics(exp_trace(), value)


class TestCompare:
    def test_identical_traces_tie_everywhere(self):
        t = exp_trace()
        report = compare(t, t, channel="steering")
        assert all(w == "tie" for w in report.winners.values())

    def test_lower_rms_wins(self):
        quiet = Trace("s", [make_record(0.1 * k, pixel_error_x=1.0) for k in range(10)])
        loud = Trace("s", [make_record(0.1 * k, pixel_error_x=50.0) for k in range(10)])
        report = compare(quiet, loud)
        assert report.winners["rms_error"] == "pid"
        swapped = compare(loud, quiet)
        assert swapped.winners["rms_error"] == "fuzzy"

    def test_antisymmetry_of_winners(self):
        a = exp_trace(delta=100.0)
        b = Trace("exp", [make_record(r.t, pixel_error_x=r.pixel_error_x * 0.5,
                                      steering_pwm=95.0 if i % 2 else 90.0)
                          for i, r in enumerate(a.records)])
        fwd = compare(a, b)
        rev = compare(b, a)
        flip = {"pid": "fuzzy", "fuzzy": "pid", "tie": "tie", "n/a": "n/a"}
        for metric in METRIC_FIELDS:
            assert rev.winners[metric] == flip[fwd.winners[metric]]

    def test_mismatched_names_rejected(self):
        with pytest.raises(ValueError, match="different scenarios"):
            compare(Trace("a", [make_record(0.1 * k) for k in range(6)]),
                    Trace("b", [make_record(0.1 * k) for k in range(6)]))

    def test_resource_note_present_when_fuzzy_costs_more(self):
        pid = Trace("s", [make_record(0.1 * k, op_count=10) for k in range(10)])
        fuzzy = Trace("s", [make_record(0.1 * k, op_count=5000) for k in range(10)])
        report = compare(pid, fuzzy)
        assert report.winners["mean_op_count"] == "pid"
        assert format_report(report).endswith(
            "\n\n- fuzzy control costs more per loop: 5000 vs 10 float ops (500x)\n")

    def test_unknown_channel_rejected(self):
        for value in NOT_CHANNELS:
            with pytest.raises(ValueError, match=unknown_channel(value)):
                compare(exp_trace(), exp_trace(), value)

    def test_tie_tolerance_is_two_percent(self):
        def flat(px):
            return Trace("s", [make_record(0.1 * k, pixel_error_x=px) for k in range(10)])

        assert compare(flat(100.0), flat(101.0)).winners["rms_error"] == "tie"
        assert compare(flat(100.0), flat(103.0)).winners["rms_error"] == "pid"

    def test_infinite_metrics_tie_when_equal_and_lose_to_finite_ones(self):
        def flat(px):
            return Trace("s", [make_record(0.1 * k, pixel_error_x=px if k else 5.0)
                               for k in range(10)])

        # an infinite error after the first sample makes the rms infinite
        huge, small = flat(math.inf), flat(5.0)
        assert trace_metrics(huge, "steering").rms_error == math.inf
        report = compare(huge, huge)
        assert (report.winners["rms_error"], report.margins["rms_error"]) == ("tie", 0.0)
        assert set(report.winners.values()) <= {"tie", "n/a"}
        for pid, fuzzy, winner in ((huge, small, "fuzzy"), (small, huge, "pid")):
            report = compare(pid, fuzzy)
            assert (report.winners["rms_error"], report.margins["rms_error"]) == (winner, math.inf)


class TestOverflow:
    """The tail mean and the rms are finite wherever the true value is,
    although the plain sum or the squares overflow."""

    @pytest.mark.parametrize("px", [4e307, -4e307, 1.7e308])
    def test_mean_and_rms_of_huge_errors_are_finite(self, px):
        trace = Trace("s", [make_record(0.1 * k, pixel_error_x=px) for k in range(100)])
        metrics = trace_metrics(trace, "steering")
        assert metrics.steady_state_error == pytest.approx(px, rel=1e-12)
        assert metrics.rms_error == abs(px)
        assert objective_value(trace, "steering", "rms", 0.1) == abs(px)

    def test_rms_whose_squares_overflow_is_finite(self):
        es = [1e200, -3e200, 2e200, 0.0]
        trace = Trace("s", [make_record(0.1 * k, pixel_error_x=e) for k, e in enumerate(es)])
        want = 1e200 * math.sqrt(14.0 / 4.0)
        assert trace_metrics(trace, "steering").rms_error == pytest.approx(want, rel=1e-12)
        assert objective_value(trace, "steering", "rms", 0.1) == pytest.approx(want, rel=1e-12)

    def test_an_infinite_sample_keeps_them_infinite(self):
        trace = Trace("s", [make_record(0.1 * k, pixel_error_x=math.inf if k else 1e300)
                            for k in range(10)])
        metrics = trace_metrics(trace, "steering")
        assert metrics.steady_state_error == metrics.rms_error == math.inf


class TestObjectives:
    def _trace(self):
        # |e| = [2, 1, 0, 1] at t = [0, 0.5, 1.0, 1.5], dt = 0.5
        es = [2.0, -1.0, 0.0, 1.0]
        return Trace("obj", [make_record(0.5 * k, pixel_error_x=e) for k, e in enumerate(es)])

    def test_itae_hand_computed(self):
        # sum t*|e|*dt = (0*2 + 0.5*1 + 1.0*0 + 1.5*1) * 0.5
        assert objective_value(self._trace(), "steering", "itae", 0.5) == pytest.approx(1.0)

    def test_ise_hand_computed(self):
        # sum e^2*dt = (4 + 1 + 0 + 1) * 0.5
        assert objective_value(self._trace(), "steering", "ise", 0.5) == pytest.approx(3.0)

    def test_rms_hand_computed(self):
        assert objective_value(self._trace(), "steering", "rms", 0.5) == pytest.approx(
            math.sqrt(6.0 / 4.0)
        )

    def test_unknown_objective_rejected(self):
        with pytest.raises(ValueError):
            objective_value(self._trace(), "steering", "mse", 0.5)

    def test_unknown_channel_rejected(self):
        # the score is always a channel's error column, never any other column
        for value in NOT_CHANNELS:
            with pytest.raises(ValueError, match=unknown_channel(value)):
                objective_value(self._trace(), value, "itae", 0.5)


@st.composite
def error_traces(draw):
    """(channel, trace): 1-50 records of the channel's error column, starting
    at +-0, a signed value or a round value whose 10% and 90% points are exact."""
    channel = draw(st.sampled_from(CHANNELS))
    y0 = draw(st.one_of(
        st.sampled_from([0.0, -0.0, 10.0, -10.0, 200.0, -5e4]),
        st.floats(-1e6, 1e6),
    ))
    # 0.9 * y0 and 0.1 * y0 sit on the 10% and 90% thresholds of a -y0 step
    sample = st.one_of(
        st.sampled_from([0.0, -0.0, 0.9 * y0, 0.1 * y0, y0, -y0, 1.05 * y0]),
        st.floats(-2e6, 2e6),
    )
    command = st.floats(0.0, 180.0)
    n = draw(st.integers(1, 50))
    dt = draw(st.sampled_from([0.02, 0.04, 1.0 / 30.0]))
    ys = [y0] + [draw(sample) for _ in range(n - 1)]
    records = [
        make_record(k * dt, **{CHANNEL_COLUMNS[channel][0]: y}, steering_pwm=draw(command),
                    throttle_pwm=draw(command), op_count=draw(st.integers(0, 5000)))
        for k, y in enumerate(ys)
    ]
    return channel, Trace("prop", records)


@given(case=error_traces())
@example(case=("steering", exp_trace(duration=0.5, dt=0.01)))
@settings(max_examples=400, deadline=None)
def test_step_from_first_sample_matches_passed_delta(case):
    channel, trace = case
    got = trace_metrics(trace, channel)
    want = reference.metrics(trace.records, channel)
    assert [float(v).hex() for v in got] == [float(v).hex() for v in want]


@given(case=error_traces())
@example(case=("throttle", Trace("one", [make_record(0.0, throttle_pwm=120.0)])))
@settings(max_examples=200, deadline=None)
def test_control_effort_tv_matches_frozen_total_variation(case):
    channel, trace = case
    want = reference.metrics(trace.records, channel)[METRIC_FIELDS.index("control_effort_tv")]
    got = control_effort_tv(trace, channel)
    assert type(got) is float  # a float for one record too, where no step is summed
    assert got.hex() == want.hex()


def test_control_effort_tv_checks_like_trace_metrics():
    with pytest.raises(ValueError, match="has no records"):
        control_effort_tv(Trace("empty", []), "steering")
    for value in NOT_CHANNELS:
        with pytest.raises(ValueError, match=unknown_channel(value)):
            control_effort_tv(exp_trace(), value)
