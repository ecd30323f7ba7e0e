import math

import pytest

from conftest import make_record
from followsim import Trace, compare, objective_value, trace_metrics
from followsim.metrics import METRIC_FIELDS


def exp_trace(delta=100.0, duration=20.0, dt=0.01, t0=0.0):
    """Synthetic first-order response y = delta*(1 - exp(-t)) on pixel_error_x."""
    records = []
    steps = int(duration / dt)
    for k in range(steps):
        t = k * dt
        records.append(make_record(t0 + t, pixel_error_x=delta * (1.0 - math.exp(-t))))
    return Trace("exp", records)


class TestStepMetrics:
    def test_rise_time_matches_closed_form(self):
        m = trace_metrics(exp_trace(), "pixel_error_x", 100.0)
        # 10%..90% of 1 - e^-t: ln(10/9) to ln(10), difference ln 9
        assert m.rise_time == pytest.approx(math.log(9.0), abs=0.02)

    def test_settling_time_matches_closed_form(self):
        m = trace_metrics(exp_trace(), "pixel_error_x", 100.0)
        # final sample ~ delta; leaves the 5% band when e^-t = 0.05
        assert m.settling_time == pytest.approx(math.log(20.0), abs=0.02)

    def test_monotone_trace_has_zero_overshoot(self):
        m = trace_metrics(exp_trace(), "pixel_error_x", 100.0)
        assert m.overshoot == 0.0

    def test_overshoot_measured_beyond_final(self):
        records = [make_record(0.0, pixel_error_x=0.0)]
        records += [make_record(0.1, pixel_error_x=130.0)]
        records += [make_record(0.1 * k, pixel_error_x=100.0) for k in range(2, 40)]
        m = trace_metrics(Trace("os", records), "pixel_error_x", 100.0)
        assert m.overshoot == pytest.approx(30.0)

    def test_instantaneous_step_zero_rise(self):
        records = [make_record(0.0, pixel_error_x=0.0)]
        records += [make_record(0.02 * k, pixel_error_x=50.0) for k in range(1, 30)]
        m = trace_metrics(Trace("jump", records), "pixel_error_x", 50.0)
        assert m.rise_time == 0.0

    def test_steady_state_error_is_tail_mean(self):
        records = [make_record(0.1 * k, pixel_error_x=10.0) for k in range(10)]
        m = trace_metrics(Trace("flat", records), "pixel_error_x")
        assert m.steady_state_error == pytest.approx(10.0)

    def test_rms_zero_iff_signal_zero(self):
        zero = Trace("z", [make_record(0.1 * k) for k in range(10)])
        assert trace_metrics(zero, "pixel_error_x").rms_error == 0.0
        nonzero = Trace("nz", [make_record(0.1 * k, pixel_error_x=(1.0 if k == 3 else 0.0))
                               for k in range(10)])
        assert trace_metrics(nonzero, "pixel_error_x").rms_error > 0.0

    def test_control_effort_total_variation(self):
        pwm = [90.0, 100.0, 95.0, 95.0, 120.0]
        records = [make_record(0.1 * k, steering_pwm=v) for k, v in enumerate(pwm)]
        m = trace_metrics(Trace("tv", records), "pixel_error_x")
        assert m.control_effort_tv == pytest.approx(10.0 + 5.0 + 0.0 + 25.0)
        # throttle channel drives the TV when the signal is area_error
        m2 = trace_metrics(Trace("tv", records), "area_error")
        assert m2.control_effort_tv == 0.0

    def test_time_shift_invariance(self):
        a = trace_metrics(exp_trace(t0=0.0), "pixel_error_x", 100.0)
        b = trace_metrics(exp_trace(t0=123.0), "pixel_error_x", 100.0)
        for field in METRIC_FIELDS:
            assert getattr(b, field) == pytest.approx(getattr(a, field), rel=1e-9, abs=1e-12)

    def test_short_traces_have_every_metric(self):
        for n in (1, 3):
            records = [make_record(0.1 * k, pixel_error_x=2.0) for k in range(n)]
            m = trace_metrics(Trace("short", records), "pixel_error_x", 1.0)
            assert math.isnan(m.rise_time)  # the trace never traverses the step
            assert m.settling_time == 0.0
            assert m.overshoot == 0.0
            assert m.steady_state_error == 2.0
            assert m.rms_error == 2.0
            assert m.control_effort_tv == 0.0

    @pytest.mark.parametrize("delta", [0.0, -0.0])
    def test_zero_delta_means_no_step(self, delta):
        m = trace_metrics(exp_trace(), "pixel_error_x", delta)
        assert math.isnan(m.rise_time)
        assert math.isnan(m.settling_time)
        assert math.isnan(m.overshoot)

    @pytest.mark.parametrize("delta", [math.nan, math.inf, -math.inf])
    def test_non_finite_delta_rejected(self, delta):
        with pytest.raises(ValueError, match="setpoint_delta must be finite"):
            trace_metrics(exp_trace(), "pixel_error_x", delta)

    def test_trace_metrics_without_delta_skips_step_fields(self):
        m = trace_metrics(exp_trace(), "pixel_error_x")
        assert math.isnan(m.rise_time)
        assert math.isnan(m.settling_time)
        assert math.isnan(m.overshoot)
        assert not math.isnan(m.rms_error)

    def test_unknown_column_rejected(self):
        with pytest.raises(ValueError, match="column"):
            trace_metrics(exp_trace(), "bogus_signal")


class TestCompare:
    def test_identical_traces_tie_everywhere(self):
        t = exp_trace()
        report = compare(t, t, signal="pixel_error_x", setpoint_delta=100.0)
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
        fwd = compare(a, b, setpoint_delta=100.0)
        rev = compare(b, a, setpoint_delta=100.0)
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
        assert any("costs more per loop" in note for note in report.notes)

    def test_tie_tolerance_is_two_percent(self):
        def flat(px):
            return Trace("s", [make_record(0.1 * k, pixel_error_x=px) for k in range(10)])

        assert compare(flat(100.0), flat(101.0)).winners["rms_error"] == "tie"
        assert compare(flat(100.0), flat(103.0)).winners["rms_error"] == "pid"


class TestObjectives:
    def _trace(self):
        # |e| = [2, 1, 0, 1] at t = [0, 0.5, 1.0, 1.5], dt = 0.5
        es = [2.0, -1.0, 0.0, 1.0]
        return Trace("obj", [make_record(0.5 * k, pixel_error_x=e) for k, e in enumerate(es)])

    def test_itae_hand_computed(self):
        # sum t*|e|*dt = (0*2 + 0.5*1 + 1.0*0 + 1.5*1) * 0.5
        assert objective_value(self._trace(), "pixel_error_x", "itae") == pytest.approx(1.0)

    def test_ise_hand_computed(self):
        # sum e^2*dt = (4 + 1 + 0 + 1) * 0.5
        assert objective_value(self._trace(), "pixel_error_x", "ise") == pytest.approx(3.0)

    def test_rms_hand_computed(self):
        assert objective_value(self._trace(), "pixel_error_x", "rms") == pytest.approx(
            math.sqrt(6.0 / 4.0)
        )

    def test_unknown_objective_rejected(self):
        with pytest.raises(ValueError):
            objective_value(self._trace(), "pixel_error_x", "mse")
