"""Step-response and tracking metrics over traces, plus the PID-vs-fuzzy verdict.

Conventions (all configurable nowhere else, so they are pinned here): every
metric reads a channel's error column, and the error steps from its first
sample y0 to zero, so the step size is -y0; a y0 of +-0 means no step. Rise
is the 10-90% traversal time, settling uses a 5% band of the step size around
the final sample, steady-state error is the mean of the final 20% of records.
Metrics that do not apply to a trace (no step to traverse) are NaN and render
as "n/a".
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from operator import attrgetter, sub
from typing import NamedTuple

from .simulate import Trace

# control channel -> (error column it is judged on, command column that drives it)
CHANNEL_COLUMNS = {
    "steering": ("pixel_error_x", "steering_pwm"),
    "throttle": ("area_error", "throttle_pwm"),
}

TIE_TOLERANCE = 0.02  # relative margin below which a metric is a tie


class MetricSet(NamedTuple):
    rise_time: float
    settling_time: float
    overshoot: float
    steady_state_error: float
    rms_error: float
    control_effort_tv: float
    mean_op_count: float


METRIC_FIELDS = MetricSet._fields


def channel_columns(channel: str) -> tuple[str, str]:
    """The (error column, command column) of a control channel; ValueError for any other value."""
    if channel not in tuple(CHANNEL_COLUMNS):  # by equality, so that a list fails the same way
        raise ValueError(f"unknown channel {channel!r}, expected steering or throttle")
    return CHANNEL_COLUMNS[channel]


def _column(trace: Trace, name: str) -> list[float]:
    if not trace.records:
        raise ValueError(f"trace {trace.name!r} has no records")
    return list(map(float, map(attrgetter(name), trace.records)))


def _rms(ys: list[float]) -> float:
    """Root mean square, scaled by the largest |y| where the squares overflow on finite ys."""
    rms = math.sqrt(sum(y * y for y in ys) / len(ys))
    if rms == math.inf and all(map(math.isfinite, ys)):
        peak = max(map(abs, ys))
        rms = peak * math.sqrt(sum((y / peak) ** 2 for y in ys) / len(ys))
    return rms


def control_effort_tv(trace: Trace, channel: str) -> float:
    """Total variation of a channel's command column: the summed size of its steps."""
    cmds = _column(trace, channel_columns(channel)[1])
    return sum(map(abs, map(sub, cmds[1:], cmds)), 0.0)


def trace_metrics(trace: Trace, channel: str) -> MetricSet:
    """Metrics of one channel's error column, which steps from its first
    sample y0 to zero; a y0 of +-0 means no step, and the step metrics are NaN."""
    error = channel_columns(channel)[0]
    ys = _column(trace, error)
    if not math.isfinite(ys[0]):
        raise ValueError(f"{error} starts at a non-finite value {ys[0]!r}")
    delta = -ys[0] or None
    ts = _column(trace, "t")
    tail = ys[int(0.8 * len(ys)):]
    steady_state = sum(tail) / len(tail)
    if math.isinf(steady_state) and all(map(math.isfinite, tail)):  # the sum overflowed
        steady_state = sum(y / len(tail) for y in tail)
    final = ys[-1]

    rise = settle = overshoot = math.nan
    if delta is not None:
        t10 = t90 = None
        for t, y in zip(ts, ys):
            f = (y - ys[0]) / delta
            if t10 is None and f >= 0.1:
                t10 = t
            if f >= 0.9:
                t90 = t
                break
        if t10 is not None and t90 is not None:
            rise = t90 - t10

        band = 0.05 * abs(delta)
        last_outside = -1
        for i, y in enumerate(ys):
            if abs(y - final) > band:
                last_outside = i
        if last_outside + 1 < len(ys):
            settle = ts[last_outside + 1] - ts[0]

        direction = math.copysign(1.0, delta)
        overshoot = max(0.0, max((y - final) * direction for y in ys)) / abs(delta) * 100.0

    ops = _column(trace, "op_count")
    return MetricSet(
        rise_time=rise,
        settling_time=settle,
        overshoot=overshoot,
        steady_state_error=steady_state,
        rms_error=_rms(ys),
        control_effort_tv=control_effort_tv(trace, channel),
        mean_op_count=sum(ops) / len(ops),
    )


@dataclass
class ComparisonReport:
    scenario: str
    pid: MetricSet
    fuzzy: MetricSet
    winners: dict[str, str]
    margins: dict[str, float]


def _pick_winner(metric: str, a: float, b: float) -> tuple[str, float]:
    if math.isnan(a) or math.isnan(b):
        return "n/a", math.nan
    # steady-state error is signed; closeness to zero is what counts
    if metric == "steady_state_error":
        a, b = abs(a), abs(b)
    if a == b:  # two infinities too, whose difference is nan
        return "tie", 0.0
    margin = abs(a - b)
    if margin <= TIE_TOLERANCE * max(abs(a), abs(b)) < math.inf:  # an infinity loses
        return "tie", margin
    return ("pid" if a < b else "fuzzy"), margin


def compare(trace_pid: Trace, trace_fuzzy: Trace, channel: str = "steering") -> ComparisonReport:
    """Side-by-side metric comparison of two runs of the same scenario.

    Every metric is lower-is-better; a metric within TIE_TOLERANCE (relative,
    2%) of its counterpart is a tie.
    """
    if trace_pid.name != trace_fuzzy.name:
        raise ValueError(
            f"traces come from different scenarios: {trace_pid.name!r} vs {trace_fuzzy.name!r}"
        )
    pid_metrics = trace_metrics(trace_pid, channel)
    fuzzy_metrics = trace_metrics(trace_fuzzy, channel)

    winners: dict[str, str] = {}
    margins: dict[str, float] = {}
    for metric, a, b in zip(METRIC_FIELDS, pid_metrics, fuzzy_metrics):
        winners[metric], margins[metric] = _pick_winner(metric, a, b)
    return ComparisonReport(
        scenario=trace_pid.name,
        pid=pid_metrics,
        fuzzy=fuzzy_metrics,
        winners=winners,
        margins=margins,
    )


def objective_value(trace: Trace, channel: str, objective: str, dt: float) -> float:
    """Scalar tuning score of a run sampled every dt seconds: itae, ise, or rms
    of the channel's error column."""
    ys = _column(trace, channel_columns(channel)[0])
    ts = _column(trace, "t")
    t0 = ts[0]
    if objective == "itae":
        return sum((t - t0) * abs(y) * dt for t, y in zip(ts, ys))
    if objective == "ise":
        return sum(y * y * dt for y in ys)
    if objective == "rms":
        return _rms(ys)
    raise ValueError(f"unknown objective {objective!r}")
